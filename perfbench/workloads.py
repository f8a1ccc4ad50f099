"""The benchmark's workloads: inputs made from a seed, timed ops, and checks.

Each workload function does the workload's set-up (everything before the
first timed op) and returns one pass of ops.  An op's `run` is the timed,
user-visible work; its `check` runs afterwards, untimed, and returns the
problems it found (an empty list when the output is right).  Ops that solve
a level also report `(group, level, energy)` so the harness can check that
energies rise strictly within each class across the pass.

Seed 0 runs the nominal catalog values.  Any other seed raises every omega
by a factor in (1, 1.02] and rotates the op order within a pass.  The
package receives only the generated inputs.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spherekink import catalog, cli, core, serialize, shooting, spectral


@dataclass(frozen=True)
class Sizes:
    """Problem sizes.  The defaults are the benchmark's; TINY is the self-test's."""

    cutoff: float = 20.0
    grid: int = 4001
    sweep_zeros: int = 4
    catalog_levels: tuple = (3, 4, 5, 6, 7)
    refine_levels: tuple = (1, 2, 3, 4)
    refine_grid: int = 16001


TINY = Sizes(cutoff=16.0, grid=2001, sweep_zeros=2, catalog_levels=(1, 2),
             refine_levels=(1, 2), refine_grid=2001)

# closed-form energy of the identity-3 one-zero profile, 2 atan(e^x) - pi/2
IDENTITY3_LEVEL1_ENERGY = 8.0 / 3.0
# index-refine's singular op: witness family size and truncation cutoff
WITNESS_DIMS = 10
SINGULAR_CUTOFF = 40.0


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    energy: Callable[[object], tuple] | None = None


def omega_factor(seed: int) -> float:
    if seed == 0:
        return 1.0
    return 1.0 + 0.02 * (1.0 - random.Random(seed).random())


def rotation(seed: int, n_ops: int) -> int:
    if seed == 0 or n_ops < 2:
        return 0
    return 1 + (seed - 1) % (n_ops - 1)


def _rotated(ops: list, seed: int) -> list:
    k = rotation(seed, len(ops))
    return ops[k:] + ops[:k]


def class_of(zeros: int) -> str:
    return "odd" if zeros % 2 else "even"


def warm_up() -> None:
    """Run each library path once on a small problem, so that scipy's lazy
    first-call set-up is paid in set-up and not by the first timed op."""
    p = core.ProblemParams(3, 3.0)
    shooting.integrate(0.0, 1.0, p, 2.0)
    prof = core.singular_profile(p, cutoff=8.0, n=1001)
    spectral.negative_count(spectral.build_schrodinger(core.resample(prof, 8.0, 1001)))
    serialize.dumps(serialize.profile_to_doc(prof))
    core.energy(prof)


def profile_problems(prof, level: int) -> list:
    problems = list(shooting.verify_solution(prof).failures)
    if prof.zero_count != level:
        problems.append(f"zero count {prof.zero_count}, requested {level}")
    return problems


def below_singular(energy: float, e_inf: float) -> list:
    if energy < e_inf:
        return []
    return [f"energy {energy!r} is not below the singular energy {e_inf!r}"]


def identity3_level1(seed: int, energy: float) -> list:
    if seed != 0 or abs(energy - IDENTITY3_LEVEL1_ENERGY) <= 1e-9:
        return []
    return [f"identity-3 level 1 energy {energy!r} is not within 1e-9 of 8/3"]


def energy_order_problems(entries) -> list:
    """entries: (tag, group, level, energy).  Returns (tag, message) for each
    level whose energy does not exceed that of the level below it in its group."""
    out = []
    groups = {}
    for tag, group, level, e in entries:
        groups.setdefault(group, []).append((level, e, tag))
    for group, items in groups.items():
        items.sort()
        for (la, ea, _), (lb, eb, tag) in zip(items, items[1:]):
            if not eb > ea:
                out.append((tag, f"{group}: energy of level {lb} ({eb!r}) does not "
                                 f"exceed that of level {la} ({ea!r})"))
    return out


# -- sweep-identity3 -----------------------------------------------------------

def sweep_identity3(seed: int, sizes: Sizes, work: Path) -> list:
    """One op is the ROADMAP's end-to-end sweep through the CLI."""
    omega = 3.0 * omega_factor(seed)
    e_inf = core.singular_energy(core.ProblemParams(3, omega))
    argv = ["sweep", "--m", "3", "--omega", repr(omega),
            "--max-zeros", str(sizes.sweep_zeros), "--cutoff", repr(sizes.cutoff),
            "--grid", str(sizes.grid), "--plot", "--quiet"]
    first_bytes = {}
    n_runs = [0]

    def run():
        n_runs[0] += 1
        out = work / f"sweep-{n_runs[0]}"
        return out, cli.main(argv + ["--out", str(out)])

    def check(result):
        out, code = result
        try:
            return _sweep_problems(out, code)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _sweep_problems(out, code):
        if code != 0:
            return [f"exit code {code}"]
        problems = []
        for name in ("sweep.json", "sweep.csv"):
            data = (out / name).read_bytes()
            if first_bytes.setdefault(name, data) != data:
                problems.append(f"{name} differs from the first pass")
        doc = json.loads((out / "sweep.json").read_text(encoding="ascii"))
        if doc["failures"]:
            problems.append(f"sweep recorded failures: {doc['failures']}")
        levels = sorted(r["zeros"] for r in doc["records"])
        if levels != list(range(1, sizes.sweep_zeros + 1)):
            problems.append(f"solved levels {levels}")
        entries = []
        for r in doc["records"]:
            z, spec = r["zeros"], r["spectral"]
            if spec["index"] != z or spec["nullity_estimate"] != 0:
                problems.append(f"level {z}: index {spec['index']}, "
                                f"nullity {spec['nullity_estimate']}")
            prof = serialize.load_profile(out / f"solution_{r['class']}_{z}.json")
            problems += [f"level {z}: {p}" for p in profile_problems(prof, z)]
            problems += below_singular(r["energy"], e_inf)
            if z == 1:
                problems += identity3_level1(seed, r["energy"])
            entries.append((z, r["class"], z, r["energy"]))
        problems += [msg for _, msg in energy_order_problems(entries)]
        return problems

    return [Op("sweep", run, check)]


# -- solve-catalog -------------------------------------------------------------

def solve_catalog(seed: int, sizes: Sizes, work: Path) -> list:
    """One op solves, verifies and saves one level of a catalog eigenmap."""
    f = omega_factor(seed)
    ops = []
    for name in ("hopf-3-2", "eiconal-4"):
        spec = catalog.find_eigenmap(name)
        params = core.ProblemParams(spec.m, spec.omega * f)
        e_inf = core.singular_energy(params)
        for z in sizes.catalog_levels:
            req = shooting.SolveRequest(params, class_of(z), z,
                                        cutoff=sizes.cutoff, grid_size=sizes.grid)
            path = work / f"{name}-{z}.json"

            def run(req=req, path=path):
                prof = shooting.find_solution(req)
                diag = shooting.verify_solution(prof)
                serialize.save_profile(prof, path)
                return prof, diag

            def check(result, z=z, e_inf=e_inf):
                prof, diag = result
                problems = list(diag.failures)
                if prof.zero_count != z:
                    problems.append(f"zero count {prof.zero_count}, requested {z}")
                return problems + below_singular(diag.energy_value, e_inf)

            def energy(result, group=(name, class_of(z)), z=z):
                return group, z, result[1].energy_value

            ops.append(Op(f"{name}/{z}", run, check, energy))
    return _rotated(ops, seed)


# -- index-refine --------------------------------------------------------------

def index_refine(seed: int, sizes: Sizes, work: Path) -> list:
    """Set-up solves and saves identity-3 levels; one op reloads a level,
    refines it to a 4x finer grid and counts its Morse index."""
    params = core.ProblemParams(3, 3.0 * omega_factor(seed))
    e_inf = core.singular_energy(params)
    ops = []
    for z in sizes.refine_levels:
        path = work / f"identity-3-{z}.json"
        serialize.save_profile(shooting.find_solution(shooting.SolveRequest(
            params, class_of(z), z, cutoff=sizes.cutoff, grid_size=sizes.grid)), path)
        # only the tolerances of the request matter to newton_polish
        req = shooting.SolveRequest(params, class_of(z), z, cutoff=sizes.cutoff,
                                    grid_size=sizes.refine_grid)

        def run(path=path, req=req):
            prof = serialize.load_profile(path)
            fine = core.resample(prof, req.cutoff, req.grid_size)
            fine = shooting.newton_polish(fine, req)
            return fine, spectral.morse_index(fine)

        def check(result, z=z):
            fine, rep = result
            problems = profile_problems(fine, z)
            if fine.n != sizes.refine_grid:
                problems.append(f"refined grid has {fine.n} points")
            if rep.index != z or rep.nullity_estimate != 0:
                problems.append(f"index {rep.index}, nullity {rep.nullity_estimate}")
            e = core.energy(fine)
            problems += below_singular(e, e_inf)
            if z == 1:
                problems += identity3_level1(seed, e)
            return problems

        def energy(result, z=z):
            return class_of(z), z, core.energy(result[0])

        ops.append(Op(f"identity-3/{z}", run, check, energy))

    def singular():
        return (spectral.witness_subspace(params, WITNESS_DIMS),
                spectral.truncated_singular_count(params, SINGULAR_CUTOFF))

    def check_singular(result):
        fam, count = result
        problems = []
        if fam.size != WITNESS_DIMS or not all(q < 0 for q in fam.gram_diagonal):
            problems.append(f"witness Gram diagonal {fam.gram_diagonal} is not "
                            f"{WITNESS_DIMS} negative entries")
        if count < WITNESS_DIMS:
            problems.append(f"truncated count {count} is below {WITNESS_DIMS}")
        return problems

    ops.append(Op("singular", singular, check_singular))
    return _rotated(ops, seed)


WORKLOADS = {
    "sweep-identity3": sweep_identity3,
    "solve-catalog": solve_catalog,
    "index-refine": index_refine,
}
