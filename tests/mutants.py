"""Standing mutants: small breaks of the package that the test suite must catch.

Each mutant replaces one snippet of one package module.  For each, this
script copies src/, tests/ and pyproject.toml into a temporary directory,
applies the mutant there and runs `python -m pytest -x -q` on the copy.  The
mutant is killed when pytest reports a failed test (exit code 1).  The
unmutated copy runs first and must pass, so that a kill is the mutant's
doing and not a failure the suite has anyway.  A mutant that the suite
passes, a pytest run that ends any other way, and a snippet that does not
occur exactly once in its module each fail the script, so a refactor that
moves a snippet shows here instead of leaving a mutant that breaks nothing.
pytest does not collect this file (it has no test_ prefix).

    python tests/mutants.py

The unmutated run costs the whole suite; a kill takes a few seconds to
about half a minute with -x, and a survivor costs the whole suite.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, module under src/spherekink, snippet, replacement)
MUTANTS = (
    ("boundary-tol-x10", "shooting.py",
     "BOUNDARY_TOL = 1e-6 ", "BOUNDARY_TOL = 1e-5 "),
    ("clearance-without-tail", "core.py",
     "return 0.5 * float(simpson(inner, x=x) + om * beyond)",
     "return 0.5 * float(simpson(inner, x=x))"),
    ("norm-slack-x10", "report.py",
     "NORM_SLACK = 1e-6 ", "NORM_SLACK = 1e-5 "),
    ("convergence-without-h-norm", "report.py",
     '("H_norm", a.H_norm, b.H_norm, NORM_SLACK),', ""),
    ("null-band-x10", "spectral.py",
     "NULL_BAND = 1e-6 ", "NULL_BAND = 1e-5 "),
    ("morse-index-without-grid-guard", "spectral.py",
     "if prof.n < 1000:", "if False:"),
    ("newton-tolerance-x4", "shooting.py",
     "return 4.0 * np.finfo(float).eps", "return 16.0 * np.finfo(float).eps"),
    ("residual-tol-x100", "shooting.py",
     "RESIDUAL_TOL = 1e-8 ", "RESIDUAL_TOL = 1e-6 "),
    ("no-nullity-flag", "spectral.py",
     "if nullity >= 2:", "if False:"),
    ("certified-upper-without-width", "spectral.py",
     "margin[-1] - width > wide", "margin[-1] > wide"),
    ("certified-lower-without-width", "spectral.py",
     "margin[0] + width < -wide", "margin[0] < -wide"),
    ("certified-without-lower-clause", "spectral.py",
     "and (guess == 0 or margin[0] + width < -wide)", ""),
    ("verify-without-w-clause", "shooting.py",
     "if w_violation > W_TOL:", "if False:"),
    ("verify-without-constraint-band", "shooting.py",
     "if excess > 0:", "if False:"),
    ("verify-without-energy-clause", "shooting.py",
     "if not singular and not margin > 0:", "if False:"),
    ("verify-equator-below-1", "shooting.py",
     "singular = abs(float(h[-1])) < 0.25", "singular = abs(float(h[-1])) < 1.0"),
    ("finish-without-zero-count", "shooting.py",
     "if prof.zero_count != req.total_zeros:", "if False:"),
    ("steering-bracket-uncertified", "shooting.py",
     "exact = counts_above(COUNT_RTOL, COUNT_STEP_FACTOR)", "exact = lambda k: k >= i"),
    ("certifying-counts-at-steering-settings", "shooting.py",
     "exact = counts_above(COUNT_RTOL, COUNT_STEP_FACTOR)", "exact = steer"),
    ("morse-operator-without-drift", "spectral.py",
     "(p.m - 1) * np.tanh(xs))", "0.0 * xs)"),
)


def copy_tree(dest: Path) -> None:
    """src/, tests/ and pyproject.toml into dest, without caches."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def apply(dest: Path, module: str, snippet: str, replacement: str) -> None:
    path = dest / "src" / "spherekink" / module
    text = path.read_text(encoding="utf-8")
    found = text.count(snippet)
    if found != 1:
        raise SystemExit(f"{module}: {snippet!r} occurs {found} times, not once")
    path.write_text(text.replace(snippet, replacement), encoding="utf-8")


def pytest_copy(mutant: tuple = ()) -> tuple:
    """(pytest's exit code, its output tail, seconds) on a copy with the
    mutant (module, snippet, replacement) applied; () leaves it unmutated."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        dest = Path(tmp)
        copy_tree(dest)
        if mutant:
            apply(dest, *mutant)
        env = dict(os.environ, PYTHONPATH=str(dest / "src"))
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q",
                               "-p", "no:cacheprovider"],
                              cwd=dest, env=env, capture_output=True, text=True)
        took = time.perf_counter() - start
    return done.returncode, f"{done.stdout[-2000:]}{done.stderr[-2000:]}", took


def main() -> int:
    code, tail, took = pytest_copy()
    if code != 0:
        print(f"the unmutated suite does not pass (pytest exit {code}, {took:.1f} s)\n{tail}")
        return 1
    print(f"passed    unmutated ({took:.1f} s)", flush=True)
    missed = []
    for name, *mutant in MUTANTS:
        code, tail, took = pytest_copy(mutant)
        if code == 1:
            print(f"killed    {name} ({took:.1f} s)", flush=True)
            continue
        outcome = "survived" if code == 0 else f"pytest exit {code}"
        print(f"{outcome:<9} {name} ({took:.1f} s)\n{tail}", flush=True)
        missed.append(name)
    if missed:
        print(f"{len(missed)} of {len(MUTANTS)} mutants not killed: {', '.join(missed)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
