"""Acceptance gate: the package's headline guarantees, one line per criterion.

Run with `pytest tests/test_acceptance.py -rA` (or -s) to see every line.
Each test prints `criterion N: PASS/FAIL - detail` and then asserts, so a
red criterion still reports its measured values.

Criterion 3 checks the (m, omega) = (3, 3) sequence against the law it
follows, not against a fixed distance from its limit: the levels converge to
the singular map, so their energies tend to the singular energy 3 and no
fixed clearance below it holds for every level (level 4 sits 4.1e-4 below).
Instead each clearance 3 - E_k must be positive and resolved to three digits
(re-polishing at X=25, N=16001 moves E_k by at most 1e-3 of it), and each
ratio of consecutive clearances must be within 5% of the asymptotic gap ratio
rho = exp(-(m-1) pi / (2 sqrt(omega - (m-1)^2/4))), the last within 1%
(Bizon, "Harmonic maps between three-spheres", 1995).
"""

import math
import time
import warnings

import numpy as np
import pytest
from conftest import gudermann_profile
from reference import dense_eigs, flat_form, hessian_fd_check, symmetric_witnesses
from scipy.integrate import quad

from spherekink.core import ProblemParams, energy, resample, singular_energy, singular_profile
from spherekink.report import SweepConfig, convergence_check, run_sweep, write_report
from spherekink.shooting import SolveRequest, find_solution, newton_polish
from spherekink.spectral import (
    SchrodingerProblem,
    build_schrodinger,
    morse_index,
    negative_count,
    truncated_singular_count,
    witness_subspace,
)

P33 = ProblemParams(3, 3.0)


def _report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def gap_ratio(m, omega):
    """Asymptotic ratio of consecutive clearances from the singular energy."""
    return math.exp(-(m - 1) * math.pi / (2.0 * math.sqrt(omega - (m - 1) ** 2 / 4.0)))


def clearance_problems(energies, refined, m, omega, e_sing):
    """Failures of the resolved-clearance and gap-law clauses of criterion 3.

    `energies[k-1]` is level k's energy and `refined[k-1]` the same level's
    energy after re-polishing on a finer grid.  Every clearance e_sing - E_k
    must be positive and move by at most 1e-3 of itself under refinement;
    every ratio of consecutive clearances must be within 5% of
    gap_ratio(m, omega), and the last within 1%.
    """
    problems = []
    clearances = [e_sing - e for e in energies]
    for k, (e, ef, c) in enumerate(zip(energies, refined, clearances), start=1):
        if not c > 0.0:
            problems.append(f"level {k}: energy {e!r} not below the singular "
                            f"energy {e_sing!r}")
        elif not abs(ef - e) <= 1e-3 * c:
            problems.append(f"level {k}: clearance {c:.3e} not resolved, "
                            f"refinement moves the energy by {abs(ef - e):.1e} "
                            f"> 1e-3 x clearance")
    if not all(c > 0.0 for c in clearances):
        return problems
    rho = gap_ratio(m, omega)
    last = len(clearances) - 1
    for k, (a, b) in enumerate(zip(clearances, clearances[1:]), start=1):
        bound = 0.01 if k == last else 0.05
        dev = b / a / rho - 1.0
        if not abs(dev) <= bound:
            problems.append(f"clearance ratio c{k + 1}/c{k} = {b / a:.5f} is "
                            f"{dev:+.2%} from rho({m}, {omega:g}) = {rho:.6f} "
                            f"(bound {bound:.0%})")
    return problems


# Levels 1..4 of (3, 3) from the standard sweep, and after re-polishing each
# at X=25, N=16001.
MEASURED_33 = [2.666666666060948, 2.964812802744474,
               2.9962062460707415, 2.9995889217922356]
REFINED_33 = [2.666666666662101, 2.9648128026608545,
              2.996206246037512, 2.999588921785821]


def _shift_clearance(k, by):
    """MEASURED_33 with level k's clearance from 3 increased by `by`."""
    return [e - by if i == k else e for i, e in enumerate(MEASURED_33, start=1)]


@pytest.mark.parametrize("energies, refined, expect", [
    (MEASURED_33, REFINED_33, None),
    ([*MEASURED_33[:3], 3.0 - 1e-9], None, "bound 1%"),
    ([*MEASURED_33[:3], 3.0 + 1e-9], None, "not below the singular"),
    (_shift_clearance(4, 1e-5), None, "bound 1%"),
    (_shift_clearance(4, -1e-5), None, "bound 1%"),
    (_shift_clearance(2, 0.07 * (3.0 - MEASURED_33[1])), None, "bound 5%"),
    ([*MEASURED_33[:3], MEASURED_33[2]], None, "bound 1%"),
    ([MEASURED_33[0], MEASURED_33[1], MEASURED_33[3]], None, "bound 1%"),
    (MEASURED_33, [*REFINED_33[:3], MEASURED_33[3] + 1e-6], "not resolved"),
], ids=["measured", "level-4-collapsed", "level-4-above", "level-4-up-1e-5",
        "level-4-down-1e-5", "level-2-off-7pct", "level-3-repeated",
        "level-3-missing", "refinement-moves-1e-6"])
def test_clearance_problems(energies, refined, expect):
    problems = clearance_problems(energies, refined or energies, 3, 3.0, 3.0)
    if expect is None:
        assert problems == []
    else:
        assert any(expect in p for p in problems), problems


@pytest.fixture(scope="module")
def timed_sweep():
    t0 = time.perf_counter()
    report = run_sweep(SweepConfig(P33, 4))
    return report, time.perf_counter() - t0


def test_criterion_01_singular_energy_oracle():
    t0 = time.perf_counter()
    cases = {(2, 2.0): math.pi, (3, 3.0): 3.0, (5, 5.0): 10.0 / 3.0}
    worst_closed = 0.0
    worst_quad = 0.0
    for (m, om), ref in cases.items():
        p = ProblemParams(m, om)
        got = singular_energy(p)
        direct, _ = quad(lambda x: 0.5 * om / np.cosh(x) ** (m - 1), -50.0, 50.0)
        worst_closed = max(worst_closed, abs(got - ref))
        worst_quad = max(worst_quad, abs(got - direct))
    dt = time.perf_counter() - t0
    ok = worst_closed < 1e-9 and worst_quad < 1e-9 and dt < 1.0
    _report(1, ok, f"closed-form err {worst_closed:.2e}, quadrature err "
                   f"{worst_quad:.2e} (tol 1e-9), {dt:.2f} s (limit 1 s)")


def test_criterion_02_hypothesis_table():
    from spherekink.catalog import find_eigenmap, hypothesis_check
    t0 = time.perf_counter()
    expected = {
        "identity-2": True, "identity-3": True, "identity-4": True,
        "identity-5": True, "identity-6": False,
        "hopf-3-2": True, "hopf-7-4": True, "hopf-15-8": False,
        "eiconal-4": True, "eiconal-7": True, "eiconal-13": True,
        "eiconal-25": False,
    }
    wrong = [name for name, want in expected.items()
             if hypothesis_check(find_eigenmap(name)) is not want]
    dt = time.perf_counter() - t0
    _report(2, not wrong and dt < 1.0,
            f"{len(expected)} classifications checked, mismatches: "
            f"{wrong or 'none'}, {dt:.2f} s (limit 1 s)")


def test_criterion_03_sequence_construction(timed_sweep):
    report, dt = timed_sweep
    problems = []

    by_zeros = {r.sequence_key[1]: r for r in report.records}
    if sorted(by_zeros) != [1, 2, 3, 4]:
        problems.append(f"levels found: {sorted(by_zeros)} != [1, 2, 3, 4]")
    classes = [by_zeros[k].sequence_key[0] for k in sorted(by_zeros)]
    if classes != ["odd", "even", "odd", "even"]:
        problems.append(f"classes not alternating: {classes}")

    worst_res = max(r.profile.residual_norm for r in report.records)
    if worst_res >= 1e-8:
        problems.append(f"residual {worst_res:.2e} >= 1e-8")

    energies = [by_zeros[k].energy for k in sorted(by_zeros)]
    gaps = [b - a for a, b in zip(energies, energies[1:])]
    if not all(g > 1e-4 for g in gaps):
        problems.append(f"successive gaps {['%.3e' % g for g in gaps]} "
                        f"not all > 1e-4")

    clearances = [3.0 - e for e in energies]
    refined = []
    for k in sorted(by_zeros):
        prof = by_zeros[k].profile
        fine = newton_polish(
            resample(prof, 25.0, 16001),
            SolveRequest(prof.params, prof.symmetry_class, k,
                         cutoff=25.0, grid_size=16001))
        refined.append(energy(fine))
    problems += clearance_problems(energies, refined, 3, 3.0, 3.0)

    if dt >= 60.0:
        problems.append(f"runtime {dt:.1f} s >= 60 s")

    ratios = [b / a if a > 0.0 else math.nan
              for a, b in zip(clearances, clearances[1:])]
    shifts = [abs(f - e) for e, f in zip(energies, refined)]
    measured = (f"residuals <= {worst_res:.1e}, gaps "
                f"{['%.2e' % g for g in gaps]}, clearances "
                f"{['%.3e' % c for c in clearances]}, ratios "
                f"{['%.5f' % r for r in ratios]} vs rho(3, 3) = "
                f"{gap_ratio(3, 3.0):.6f}, refinement shifts "
                f"{['%.1e' % d for d in shifts]}, {dt:.1f} s")
    _report(3, not problems,
            measured if not problems else "; ".join(problems) + f" [{measured}]")


def test_criterion_04_index_structure(timed_sweep):
    report, _ = timed_sweep
    problems = []
    details = []
    deviations = []
    for rec in report.records:
        k = rec.sequence_key[1]
        idx, nul = rec.spectral.index, rec.spectral.nullity_estimate
        if not (idx <= k <= idx + nul and nul <= 1):
            problems.append(f"level {k}: index {idx}, nullity {nul} outside "
                            f"the admissible band")
        if (idx, nul) != (k, 0):
            deviations.append(f"level {k}: ({idx}, {nul}) != ({k}, 0)")

        fine = newton_polish(
            resample(rec.profile, 25.0, 8001),
            SolveRequest(rec.profile.params, rec.profile.symmetry_class, k,
                         cutoff=25.0, grid_size=8001))
        rep2 = morse_index(fine)
        if (rep2.index, rep2.nullity_estimate) != (idx, nul):
            problems.append(
                f"level {k}: counts changed on refinement: ({idx}, {nul}) -> "
                f"({rep2.index}, {rep2.nullity_estimate}) at X=25, N=8001")
        details.append(f"k={k}: index={idx} nullity={nul} (stable)")
    if deviations and not problems:
        warnings.warn("admissible but unexpected counts: " + "; ".join(deviations))
    _report(4, not problems,
            "; ".join(problems) if problems else ", ".join(details))


def test_criterion_05_convergence_toward_singular_map(timed_sweep):
    report, _ = timed_sweep
    problems = []
    deltas = []
    for cls in ("even", "odd"):
        recs = [r for r in report.records if r.sequence_key[0] == cls]
        for a, b in zip(recs, recs[1:]):
            for name, va, vb in (
                    ("sup_norm", a.sup_norm, b.sup_norm),
                    ("H_norm", a.H_norm, b.H_norm),
                    ("energy gap", report.singular_energy - a.energy,
                     report.singular_energy - b.energy)):
                deltas.append(f"{cls} {name}: {va - vb:+.3e}")
                if not vb < va:
                    problems.append(
                        f"{cls} class {name} fails to decrease from "
                        f"{a.sequence_key[1]} to {b.sequence_key[1]} zeros: "
                        f"{va!r} -> {vb!r}")
    chk = convergence_check(report)
    if chk.status != "pass":
        problems.append(f"margin check (1e-6 slack): {chk.failures}")
    _report(5, not problems,
            "; ".join(problems) if problems else
            "strict decrease in both classes, margin 1e-6 honoured; "
            "decrements " + ", ".join(deltas))


def test_criterion_06_infinite_index_witnesses():
    t0 = time.perf_counter()
    problems = []

    fam = witness_subspace(P33, 10)
    if fam.size != 10:
        problems.append(f"family size {fam.size} != 10")
    if not all(q < 0.0 for q in fam.gram_diagonal):
        problems.append(f"gram diagonal not all negative: {fam.gram_diagonal}")
    span = np.linspace(0.0, fam.starts[-1] + 2.0 * fam.half_width + 1.0, 20001)
    samples = [f(span) for f in fam.functions]
    for i in range(fam.size):
        if not np.any(samples[i] > 0.0):
            problems.append(f"witness {i} vanishes identically")
        for j in range(i + 1, fam.size):
            if np.max(samples[i] * samples[j]) != 0.0:
                problems.append(f"witnesses {i} and {j} have overlapping "
                                f"supports: the gram matrix is not diagonal")

    for cls in ("even", "odd"):
        sym = symmetric_witnesses(P33, 10, cls)
        if sym.size != 10 or not all(q < 0.0 for q in sym.gram_diagonal):
            problems.append(f"{cls} symmetric family fails negativity")

    c20 = truncated_singular_count(P33, 20.0)
    c40 = truncated_singular_count(P33, 40.0)
    if not c40 > c20:
        problems.append(f"truncated counts do not grow: {c20} -> {c40}")

    dt = time.perf_counter() - t0
    if dt >= 10.0:
        problems.append(f"runtime {dt:.1f} s >= 10 s")
    _report(6, not problems,
            "; ".join(problems) if problems else
            f"10 negative directions (worst {max(fam.gram_diagonal):.2f}), "
            f"both symmetric classes pass, counts {c20} -> {c40}, {dt:.1f} s")


def test_criterion_07_hessian_consistency():
    prof = gudermann_profile()
    g = prof.grid
    bumps = {
        "even bump": 1.0 / np.cosh(g) ** 2,
        "odd bump": np.tanh(g) / np.cosh(g) ** 2,
        "shifted pair": 1.0 / np.cosh(g - 1.0) ** 2 + 1.0 / np.cosh(g + 1.0) ** 2,
    }
    problems = []
    details = []
    for name, v in bumps.items():
        err2 = hessian_fd_check(prof, v, 1e-2)
        err3 = hessian_fd_check(prof, v, 1e-3)
        ratio = err2 / hessian_fd_check(prof, v, 5e-3)
        if err3 >= 1e-4:
            problems.append(f"{name}: err {err3:.2e} at t=1e-3 >= 1e-4")
        if not 3.0 < ratio < 5.0:
            problems.append(f"{name}: halving ratio {ratio:.2f} not ~4")
        details.append(f"{name}: {err2:.1e} -> {err3:.1e}, ratio {ratio:.2f}")
    _report(7, not problems,
            "; ".join(problems) if problems else ", ".join(details))


def test_criterion_08_oracle_equivalence():
    problems = []
    checked = 0
    # half lines of 25, 50 and 100 nodes on [0, 10]; dense_eigs diagonalises
    # the whole matrix on [-10, 10], the counts come from its two blocks.
    # The equator map's operator is the package's, minus Newton's Jacobian,
    # and its flat form
    for n in (25, 50, 100):
        g = np.linspace(0.0, 10.0, n)
        equator = singular_profile(P33, cutoff=10.0, n=2 * n - 1)
        for label, prob in (("V=+1", SchrodingerProblem(g, np.full(n, 1.0))),
                            ("V=-1", SchrodingerProblem(g, np.full(n, -1.0))),
                            ("equator", build_schrodinger(equator)),
                            ("equator, flat", flat_form(equator))):
            dense = dense_eigs(prob)
            for shift in (0.0, -0.5, 2.0):
                want = int(np.sum(dense < shift))
                got = negative_count(prob, shift)
                checked += 1
                if got != want:
                    problems.append(f"N={n} {label} shift={shift}: "
                                    f"inertia {got} != dense {want}")
    _report(8, not problems,
            "; ".join(problems) if problems else
            f"{checked} inertia counts equal dense-eigensolver counts exactly")


def test_criterion_09_sign_symmetry(timed_sweep):
    report, _ = timed_sweep
    problems = []
    for cls, zeros in (("odd", 1), ("even", 2)):
        req = SolveRequest(P33, cls, zeros)
        plus = find_solution(req, sign=1)
        minus = find_solution(req, sign=-1)
        defect = float(np.max(np.abs(plus.h + minus.h)))
        e_p, e_m = energy(plus), energy(minus)
        rel = abs(e_p - e_m) / abs(e_p)
        if defect != 0.0:
            problems.append(f"{cls}/{zeros}: negated profile differs by {defect:.2e}")
        if rel > 1e-12:
            problems.append(f"{cls}/{zeros}: energy relative gap {rel:.2e} > 1e-12")
    for rec in report.records:
        prof = rec.profile
        mid = (prof.n - 1) // 2
        anchor = prof.dh[mid] if prof.symmetry_class == "odd" else prof.h[mid]
        if not anchor > 0.0:
            problems.append(f"{rec.sequence_key}: representative violates the "
                            f"positive sign convention at the origin")
    _report(9, not problems,
            "; ".join(problems) if problems else
            "negation is exact (bitwise), energies equal, all four stored "
            "representatives obey the positive-at-origin convention")


def test_criterion_10_determinism(tmp_path):
    cfg = SweepConfig(P33, 2, cutoff=16.0, grid_size=2001)
    d1, d2 = tmp_path / "one", tmp_path / "two"
    w1 = write_report(run_sweep(cfg), d1)
    w2 = write_report(run_sweep(cfg), d2)
    problems = []
    if [p.name for p in w1] != [p.name for p in w2]:
        problems.append(f"file sets differ: {[p.name for p in w1]} vs "
                        f"{[p.name for p in w2]}")
    else:
        for p1, p2 in zip(w1, w2):
            if p1.read_bytes() != p2.read_bytes():
                problems.append(f"{p1.name} differs between runs")
    _report(10, not problems,
            "; ".join(problems) if problems else
            f"two independent runs: {len(w1)} files byte-identical "
            f"({', '.join(p.name for p in w1)})")
