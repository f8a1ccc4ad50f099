"""Shooting solver: integrator, bracketing, Newton polish, verification.

The integrator is cross-checked against a hand-rolled fixed-step RK4 with no
shared code, the scan's compiled zero count against the integrator, the
compiled seed trajectory against the integrator's (pointwise away from a
transition, and by the solves they seed), and the solved one-zero (3,3)
profile against the closed form 2 atan(e^x) - pi/2.
"""

import functools
import gc
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import ode

from spherekink import report, shooting
from spherekink.catalog import CATALOG, find_eigenmap
from spherekink.core import (
    DEFAULT_CUTOFF,
    DEFAULT_GRID_SIZE,
    HALF_PI,
    ProblemParams,
    Profile,
    energy,
    singular_profile,
    half_grid,
    resample,
)
from spherekink.shooting import (
    NoBracketFound,
    OutcomeKind,
    PolishDiverged,
    SolveRequest,
    class_of_level,
    find_solution,
    integrate,
    newton_polish,
    verify_solution,
)
from spherekink.report import SweepConfig, run_sweep
from spherekink.spectral import morse_index

from conftest import nu_params
from reference import newton_reference

P33 = ProblemParams(3, 3.0)


def fresh_runners(monkeypatch):
    """Empty this thread's registry of compiled DOP853 integrators until the
    test ends, so that every run from here on goes through an integrator
    built from here on; returns the registry, key -> integrator."""
    monkeypatch.setattr(shooting, "_runners", threading.local())
    return vars(shooting._runners).setdefault("dop853", {})


def record_counts(monkeypatch):
    """List that collects (params, cutoff, limit, h0, dh0, count) for every
    compiled zero count made from here on."""
    fresh_runners(monkeypatch)
    seen = []
    build = shooting._zero_counter

    def recording(params, cutoff, limit):
        count = build(params, cutoff, limit)

        def counted(h0, dh0):
            n = count(h0, dh0)
            seen.append((params, cutoff, limit, h0, dh0, n))
            return n
        return counted

    monkeypatch.setattr(shooting, "_zero_counter", recording)
    return seen


def rhs_positions(monkeypatch):
    """List that collects the x of every right-hand-side evaluation of the
    compiled DOP853 runs made from here on."""
    fresh_runners(monkeypatch)
    xs = []
    build = shooting._rhs

    def tracking(params):
        rhs = build(params)

        def tracked(x, y):
            xs.append(x)
            return rhs(x, y)
        return tracked

    monkeypatch.setattr(shooting, "_rhs", tracking)
    return xs


def step_positions(monkeypatch):
    """List that collects the x of every accepted step of the compiled DOP853
    runs made from here on, the start included, as their solout sees it."""
    fresh_runners(monkeypatch)
    xs = []
    build = shooting._dop853

    def tracking(params, rtol, max_step, solout, first_step=0.0):
        def tracked(x, y):
            xs.append(x)
            return solout(x, y)
        return build(params, rtol, max_step, tracked, first_step)

    monkeypatch.setattr(shooting, "_dop853", tracking)
    return xs


def dop853_runs(monkeypatch):
    """List that collects one entry per compiled DOP853 run made from here
    on."""
    runs = []
    build = shooting._dop853

    def counting(*args, **kwargs):
        run = build(*args, **kwargs)

        def counted(y0, x_end):
            runs.append(x_end)
            return run(y0, x_end)
        return counted

    monkeypatch.setattr(shooting, "_dop853", counting)
    return runs


def traced_growth(work, repeats):
    """Traced memory, in bytes, that repeats calls of work leave behind,
    after one untraced call that pays every one-time set-up."""
    work()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(repeats):
            work()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def rk4_reference(h0, dh0, params, x_end, steps):
    """Independent fixed-step RK4 for the same first-order system."""
    m, om = params.m, params.omega

    def f(x, y):
        h, v = y
        return np.array([v, (m - 1) * math.tanh(x) * v
                         - 0.5 * om * (1.0 + float(params.nu_at(x))) * math.sin(2.0 * h)])

    y = np.array([h0, dh0], dtype=float)
    dt = x_end / steps
    x = 0.0
    for _ in range(steps):
        k1 = f(x, y)
        k2 = f(x + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = f(x + dt, y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x += dt
    return y


# -- integrator ----------------------------------------------------------------

def test_integrate_matches_independent_rk4():
    traj = integrate(0.0, 0.35, P33, 3.0)
    assert traj.x_end >= 2.5          # exits downward shortly after
    h, dh = traj.sample(np.array([2.5]))
    ref = rk4_reference(0.0, 0.35, P33, 2.5, 30000)
    assert h[0] == pytest.approx(ref[0], abs=1e-7)
    assert dh[0] == pytest.approx(ref[1], abs=1e-7)


def test_integrate_matches_rk4_with_nu():
    p = nu_params()
    traj = integrate(0.0, 0.5, p, 2.5)
    h, dh = traj.sample(np.array([1.2]))
    ref = rk4_reference(0.0, 0.5, p, 1.2, 30000)
    # nu is linearly interpolated, so the reference sees the same kinks; the
    # adaptive integrator steps across them, costing a little accuracy
    assert h[0] == pytest.approx(ref[0], abs=1e-6)
    assert dh[0] == pytest.approx(ref[1], abs=1e-6)


def test_integrate_exact_slope_tracks_connection_then_departs():
    # The connecting orbit is a saddle connection: local integrator error is
    # amplified like e^(3x), so even the exact slope departs eventually.
    # It must still track the closed form well past the transition region.
    traj = integrate(0.0, 1.0, P33, 20.0)
    assert traj.x_end > 8.0
    xs = np.linspace(0.0, 5.0, 101)
    h, _ = traj.sample(xs)
    exact = 2.0 * np.arctan(np.exp(xs)) - HALF_PI
    assert np.max(np.abs(h - exact)) < 1e-5


def test_integrate_steep_slope_overshoots_without_crossing():
    traj = integrate(0.0, 10.0, P33, 20.0)
    assert traj.kind is OutcomeKind.OVERSHOOT_POSITIVE
    assert traj.zero_count_half == 0
    assert traj.x_end < 2.0


def test_integrate_shallow_slope_crosses_then_exits_negative():
    # far below the connecting slope the orbit turns around and dives
    traj = integrate(0.0, 0.2, P33, 40.0)
    assert traj.kind is OutcomeKind.OVERSHOOT_NEGATIVE
    assert traj.zero_count_half >= 1


def test_integrate_equilibrium_is_undecided():
    traj = integrate(0.0, 0.0, P33, 20.0)
    assert traj.kind is OutcomeKind.UNDECIDED
    assert traj.zero_count_half == 0


def test_integrate_even_start_at_cap_eventually_falls():
    # (pi/2, 0) is an equilibrium of the continuum equation, but sin(pi)
    # rounds to ~1.2e-16, and the saddle amplifies the drift until the
    # orbit falls off; the long dwell time is what matters for bracketing.
    traj = integrate(HALF_PI, 0.0, P33, 20.0)
    assert traj.kind is OutcomeKind.OVERSHOOT_NEGATIVE
    assert traj.zero_count_half == 1
    assert traj.x_end > 5.0


def test_integrate_rejects_start_outside_band():
    with pytest.raises(ValueError):
        integrate(2.0, 0.0, P33, 20.0)


def test_trajectory_sample_guards_range():
    traj = integrate(0.0, 0.35, P33, 3.0)
    with pytest.raises(ValueError):
        traj.sample(np.array([traj.x_end + 1.0]))


def test_classify_parameter_flips_across_exact_slope():
    # the exact one-zero profile has slope 1 at the origin; the scan's count
    # and the seed trajectory's exit direction both flip across it
    req = SolveRequest(P33, "odd", 1)
    count = shooting._zero_counter(req.params, req.cutoff, req.zeros_half + 1)
    # undershooting orbits turn around and pick up an extra crossing
    assert count(*shooting._launch(0.9, req)) == 1
    assert count(*shooting._launch(1.1, req)) == 0
    for s, kind in [(0.9, OutcomeKind.OVERSHOOT_NEGATIVE), (1.1, OutcomeKind.OVERSHOOT_POSITIVE)]:
        assert integrate(*shooting._launch(s, req), req.params, req.cutoff).kind is kind


# -- compiled zero count -------------------------------------------------------------

HOPF32 = ProblemParams(3, find_eigenmap("hopf-3-2").omega)
EICONAL4 = ProblemParams(4, find_eigenmap("eiconal-4").omega)
NO_LIMIT = 10 ** 6      # a counter limit above any zero count


@functools.lru_cache(maxsize=None)
def reference_count(h0, dh0, params, cutoff):
    """integrate's zero count, once per start: two levels of one class share
    their scan grid."""
    return integrate(h0, dh0, params, cutoff).zero_count_half


def last_index():
    """K: the scan grid s_k = cap (1 + BRACKET_RTOL)^-k reaches its floor,
    cap 2^-SCAN_OCTAVES, at k = K and not before."""
    return math.ceil(shooting.SCAN_OCTAVES * math.log(2) / math.log(1 + shooting.BRACKET_RTOL))


def grid_sample(req):
    """The scan grid's values at 65 evenly spaced indices in 0..K."""
    return [shooting._scan_value(req, int(k)) for k in np.linspace(0, last_index(), 65).round()]


def launched(req, seen):
    """The shooting parameter of each start that record_counts saw."""
    return [dh0 if req.symmetry_class == "odd" else h0 for _, _, _, h0, dh0, _ in seen]


def whole_grid_shot(req, monkeypatch, **kwargs):
    """shoot(req) by the binary search over the whole scan grid: a level
    step far past the bound under which a lone search starts from the
    level law."""
    with monkeypatch.context() as patched:
        patched.setattr(shooting, "_level_step", lambda params: 2 ** 60)
        return shooting.shoot(req, **kwargs)


def grid_index(req, s):
    """k with s == s_k exactly, or None when s is not a scan value."""
    k = round(math.log(req.scan_cap() / s) / math.log(1 + shooting.BRACKET_RTOL))
    return k if shooting._scan_value(req, k) == s else None


def test_scan_grid_reaches_the_cap_over_2_to_the_44():
    req = SolveRequest(P33, "odd", 1)
    k = last_index()
    assert k == 30514
    assert shooting._scan_value(req, 0) == req.scan_cap()
    assert shooting._scan_value(req, k) <= req.scan_cap() * 2.0 ** -shooting.SCAN_OCTAVES < \
        shooting._scan_value(req, k - 1)


@pytest.mark.parametrize("params, zeros", [(P33, 1), (P33, 2), (P33, 3), (P33, 4),
                                           (HOPF32, 3), (HOPF32, 4),
                                           (EICONAL4, 3), (EICONAL4, 4)])
def test_compiled_count_matches_integrate_along_the_scan(params, zeros, monkeypatch):
    # every point a solve counts at, and 65 points of its scan grid, against
    # integrate's count capped at the solve's limit
    seen = record_counts(monkeypatch)
    req = SolveRequest(params, "odd" if zeros % 2 else "even", zeros)
    find_solution(req)
    count = shooting._zero_counter(req.params, req.cutoff, req.zeros_half + 1)
    for s in grid_sample(req):
        count(*shooting._launch(s, req))
    assert len(seen) > 20
    for p, cutoff, limit, h0, dh0, n in seen:
        assert limit == req.zeros_half + 1
        assert n == min(reference_count(h0, dh0, p, cutoff), limit), (h0, dh0)


@pytest.mark.parametrize("spec", [s for s in CATALOG if s.omega is not None],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("symmetry_class", ["odd", "even"])
def test_count_never_decreases_down_the_scan_grid(spec, symmetry_class, monkeypatch):
    # find_solution's binary search over the scan grid rests on this, checked
    # at 65 points of the grid and at every point the search for the class's
    # lowest level (1 odd, 2 even) counts at, whether or not that level
    # solves; sign -1 is the exact mirror of sign +1, so it is left out
    req = SolveRequest(ProblemParams(spec.m, spec.omega), symmetry_class,
                       1 if symmetry_class == "odd" else 2)
    seen = record_counts(monkeypatch)
    try:
        find_solution(req)
    except (NoBracketFound, PolishDiverged):
        pass
    values = sorted(set(grid_sample(req) + launched(req, seen)), reverse=True)
    count = shooting._zero_counter(req.params, req.cutoff, NO_LIMIT)
    counts = [count(*shooting._launch(s, req)) for s in values]
    assert counts == sorted(counts), counts


# the levels the benchmark solves
BENCHMARK_LEVELS = ([pytest.param(P33, z, id=f"identity-3-{z}") for z in (1, 2, 3, 4)]
                    + [pytest.param(HOPF32, z, id=f"hopf-3-2-{z}") for z in (3, 4, 5, 6, 7)]
                    + [pytest.param(EICONAL4, z, id=f"eiconal-4-{z}") for z in (3, 4, 5, 6, 7)])


NU_LEVELS = [pytest.param(nu_params(), z, id=f"nu-{z}") for z in (1, 2, 3)]


@pytest.mark.parametrize("params, zeros", BENCHMARK_LEVELS + NU_LEVELS)
def test_count_tolerance_keeps_every_solve(params, zeros, monkeypatch):
    # counts at COUNT_RTOL and the doubled step cap must make every search
    # decision that counts at the seed's settings (RTOL and _max_step) make,
    # so the bracket, the seed and the profile come out bit-for-bit the same
    req = SolveRequest(params, "odd" if zeros % 2 else "even", zeros)
    loose = find_solution(req)
    monkeypatch.setattr(shooting, "COUNT_RTOL", shooting.RTOL)
    monkeypatch.setattr(shooting, "COUNT_STEP_FACTOR", 1.0)
    tight = find_solution(req)
    assert np.array_equal(loose.h, tight.h)
    assert loose.provenance == tight.provenance


def integrate_seed(s, req):
    """The seed find_solution took from integrate before it ran the compiled
    DOP853: dense output, and the root finder's crossings."""
    traj = integrate(*shooting._launch(s, req), req.params, req.cutoff)
    crossings = traj.crossings[:req.zeros_half]
    return (lambda xs: traj.sample(xs)[0]), traj.x_end, (crossings[-1] if crossings else 0.0)


@pytest.mark.parametrize("params, zeros", BENCHMARK_LEVELS + NU_LEVELS)
def test_compiled_seed_keeps_every_solve(params, zeros, monkeypatch):
    # The two DOP853 codes take different steps: on these seeds they agree to
    # 1e-8 where both run, but the compiled run ends on the step past the
    # exit wall and integrate on the wall (up to 0.07 apart).  What matters
    # is the discrete profile Newton reaches from each, so compare solves.
    req = SolveRequest(params, "odd" if zeros % 2 else "even", zeros)
    compiled = find_solution(req)
    monkeypatch.setattr(shooting, "_seed", integrate_seed)
    reference = find_solution(req)
    assert compiled.provenance == reference.provenance
    assert np.max(np.abs(compiled.h - reference.h)) <= 1e-15


@pytest.mark.parametrize("params, symmetry_class, zeros, s", [
    (P33, "odd", 1, 0.9), (P33, "odd", 3, 0.5), (P33, "even", 2, 0.75),
    (HOPF32, "odd", 5, 0.3), (nu_params(), "odd", 3, 0.9)])
def test_seed_matches_integrate_where_both_run(params, symmetry_class, zeros, s):
    # away from a transition the two DOP853 codes agree to about 1e-9, and so
    # must the seed's interpolant, between steps as well as at them
    req = SolveRequest(params, symmetry_class, zeros)
    h_at, x_end, t_start = shooting._seed(s, req)
    traj = integrate(*shooting._launch(s, req), params, req.cutoff)
    xs = np.linspace(0.0, min(x_end, traj.x_end), 3001)
    assert np.max(np.abs(h_at(xs) - traj.sample(xs)[0])) < 1e-7
    # t_start: the step before the last requested zero, 0 with none
    crossings = traj.crossings[:req.zeros_half]
    if crossings:
        assert crossings[-1] - shooting._max_step(params) <= t_start < crossings[-1]
    else:
        assert t_start == 0.0


def test_count_tolerance_cuts_integrator_work(monkeypatch):
    # hopf-3-2 level 5, the seed trajectory included: 2884 right-hand-side
    # evaluations with the counts at COUNT_RTOL and the doubled step cap,
    # against 10470 with them at the seed's settings (0.28).  Counts at
    # 1e-8 under the seed's cap make 4846 (0.46).
    calls = rhs_positions(monkeypatch)
    req = SolveRequest(HOPF32, "odd", 5)
    find_solution(req)
    loose = len(calls)
    calls.clear()
    monkeypatch.setattr(shooting, "COUNT_RTOL", shooting.RTOL)
    monkeypatch.setattr(shooting, "COUNT_STEP_FACTOR", 1.0)
    find_solution(req)
    assert loose <= 0.42 * len(calls), f"{loose} against {len(calls)}"


@pytest.mark.parametrize("params, symmetry_class, zeros",
                         [pytest.param(HOPF32, "odd", 5, id="hopf-3-2-5"),
                          pytest.param(P33, "even", 2, id="identity-3-2")])
def test_counts_start_at_their_step_cap(params, symmetry_class, zeros, monkeypatch):
    # a count's first step is tried at its cap.  DOP853's own first step
    # weighs the launch component that is exactly 0 by ATOL alone, starts
    # near 4e-7 and takes 8 steps to ramp up to the cap.
    req = SolveRequest(params, symmetry_class, zeros)
    shot = shooting.shoot(req)
    cap = shooting.COUNT_STEP_FACTOR * shooting._max_step(params)
    xs = step_positions(monkeypatch)
    count = shooting._zero_counter(params, req.cutoff, req.zeros_half + 1)
    for s in (shot.lo, shot.hi):
        xs.clear()
        count(*shooting._launch(s, req))
        assert xs[0] == 0.0 and xs[1] >= cap / 8, (s, xs[:3])


def check_early_stops(params, starts, monkeypatch):
    """Each (h0, dh0, limit, counted) start's count against integrate's, and
    its run ended where W decided it: its last accepted step lies before the
    zero it counted early (counted) or before integrate's exit (not
    counted).  Rejected steps may try points past either: the count's first
    step, at its cap, can reach past a near zero before the error test
    shrinks it."""
    xs = step_positions(monkeypatch)
    for h0, dh0, limit, counted in starts:
        traj = integrate(h0, dh0, params, 20.0)
        n = min(traj.zero_count_half, limit)
        xs.clear()
        assert shooting._zero_counter(params, 20.0, limit)(h0, dh0) == n, (h0, dh0)
        assert max(xs) < (traj.crossings[n - 1] if counted else traj.x_end), (h0, dh0)


def test_compiled_count_edge_cases(monkeypatch):
    count = shooting._zero_counter(P33, 20.0, NO_LIMIT)
    assert count(0.0, 0.0) == 0           # the equilibrium at 0
    assert count(HALF_PI, 0.0) == 1       # falls off the cap after a long dwell
    assert count(0.0, 10.0) == 0          # steep overshoot, no crossing
    assert shooting._zero_counter(P33, 40.0, NO_LIMIT)(0.0, 0.2) >= 1
    with pytest.raises(ValueError):
        count(2.0, 0.0)
    for h0, dh0 in [(0.0, 0.0), (HALF_PI, 0.0), (0.0, 10.0)]:
        assert count(h0, dh0) == integrate(h0, dh0, P33, 20.0).zero_count_half
    # one start per early stop: h heads toward 0 with W > omega/2, h heads
    # toward the limit-th zero, and h heads outward with W > omega/2
    check_early_stops(P33, [(1.0, -3.0, NO_LIMIT, True), (1.0, -0.5, 1, True),
                            (1.0, 3.0, NO_LIMIT, False)], monkeypatch)


def test_compiled_count_matches_integrate_with_nu(monkeypatch):
    p = nu_params()
    count = shooting._zero_counter(p, 20.0, NO_LIMIT)
    # nu's interpolation kinks make each run slow, so only a few starts
    starts = [(0.0, 0.1), (0.0, 0.9), (0.0, 1.3), (-HALF_PI, 0.0), (0.75, 0.0)]
    counts = [count(h0, dh0) for h0, dh0 in starts]
    assert sorted(set(counts)) == [0, 1, 2]
    for (h0, dh0), n in zip(starts, counts):
        assert n == integrate(h0, dh0, p, 20.0).zero_count_half, (h0, dh0)
    # the early stops, each made past nu's support |x| < 1.5, where W is
    # nondecreasing: toward 0 with W > omega/2 (from x = 12.5), toward the
    # limit-th zero (from 1.52) and outward with W > omega/2 (from 2.10)
    check_early_stops(p, [(-HALF_PI, 0.0, NO_LIMIT, True), (0.0, 0.9, 1, True),
                          (0.0, 0.5, NO_LIMIT, False)], monkeypatch)


def test_count_stops_early_only_past_nus_support():
    # inside the support W can fall: under a bump of height 0.9 this start
    # heads outward with W > omega/2 (without nu), then turns back and
    # crosses 0 at x = 2.25
    p = nu_params(0.9)
    assert integrate(0.2, 1.75, p, 20.0).zero_count_half == 1
    assert shooting._zero_counter(p, 20.0, NO_LIMIT)(0.2, 1.75) == 1


@pytest.mark.parametrize("h0, dh0, limit, cutoff", [(1.0, -0.5, 1, 0.75),
                                                    (1.0, -3.0, NO_LIMIT, 0.28)])
def test_count_takes_no_certain_zero_past_the_cutoff(h0, dh0, limit, cutoff):
    # h heads toward 0 from the first step, and its zero (at x = 0.78 and
    # 0.30) is certain and the limit-th or past W > omega/2, but it lies
    # beyond the cutoff: integrate never reaches it, so the count must not
    # take it early
    traj = integrate(h0, dh0, P33, cutoff)
    assert traj.crossings == () and traj.x_end == cutoff
    assert shooting._zero_counter(P33, cutoff, limit)(h0, dh0) == 0


def test_sweeps_keep_little_memory():
    # scipy's dop853 wrapper never frees an integrator once it has run, nor
    # the 64 B bound method of each run's reset.  With two integrators built
    # per solve a K = 4 sweep left 18.8 KB behind; with one per problem and
    # setting it leaves about 4 KB, the runs' 64 B each.
    grown = traced_growth(lambda: run_sweep(SweepConfig(P33, 4)), 20)
    assert grown / 20 <= 5 * 1024, f"{grown / 20:.0f} B per sweep"


def test_lone_solves_keep_little_memory_per_run(monkeypatch):
    # what a repeated solve leaves behind is the 64 B each run costs in
    # scipy's wrapper, and no integrator
    monkeypatch.setattr(shooting, "BRACKET_RTOL", 5e-15)    # many counts per solve
    req = SolveRequest(P33, "even", 2, cutoff=16.0, grid_size=1001)
    runs = dop853_runs(monkeypatch)
    grown = traced_growth(lambda: find_solution(req), 4)
    made = 4 * len(runs) // 5           # the runs of the four traced solves of five alike
    assert made > 200
    assert grown / made <= 128, f"{grown} B over {made} runs"


def test_equal_problems_share_their_integrators(monkeypatch):
    runners = fresh_runners(monkeypatch)
    find_solution(SolveRequest(P33, "even", 2))
    assert len(runners) == 2            # the counts' and the seed's
    built = dict(runners)
    find_solution(SolveRequest(ProblemParams(3, 3), "even", 2))
    assert runners == built
    # a nu rebuilt from the same samples is the same problem
    for params in (nu_params(), nu_params()):
        shooting._zero_counter(params, 20.0, NO_LIMIT)(0.0, 0.9)
    assert len(runners) == 3
    # another omega, or nu with other samples, is another problem
    shooting._zero_counter(ProblemParams(3, 3.5), 20.0, NO_LIMIT)(0.0, 0.9)
    shooting._zero_counter(nu_params(0.3), 20.0, NO_LIMIT)(0.0, 0.9)
    assert len(runners) == 5


def test_counters_and_seeds_of_one_problem_interleave(monkeypatch):
    # two counters of one problem share its counts' integrator, and the
    # seed runs on its own between their counts; each count must be what a
    # counter made alone from an empty registry gives
    starts = [(0.0, 0.9), (0.0, 0.05), (0.0, 5e-3), (0.0, 5e-4), (0.0, 5e-5), (0.01, 0.0)]
    specs = [(20.0, NO_LIMIT), (8.0, 3)]            # (cutoff, limit)
    alone = {}
    for spec in specs:
        for start in starts:
            fresh_runners(monkeypatch)
            alone[spec, start] = shooting._zero_counter(P33, *spec)(*start)
    runners = fresh_runners(monkeypatch)
    counters = {spec: shooting._zero_counter(P33, *spec) for spec in specs}
    req = SolveRequest(P33, "odd", 3)
    for start in starts:
        for spec in specs:
            assert counters[spec](*start) == alone[spec, start], (spec, start)
            shooting._seed(0.9, req)
    assert len(runners) == 2
    assert set(alone.values()) == {1, 2, 3, 4, 5}


def test_threads_solve_a_level_at_once():
    # each thread builds its own integrators, so solves in four threads at
    # once give what the level gives solved alone
    req = SolveRequest(HOPF32, "odd", 5)
    alone = shooting.shoot(req)
    prof = shooting.finish(req, alone)
    start = threading.Barrier(4)
    got = []

    def solve():
        start.wait(timeout=60)
        shot = shooting.shoot(req)
        got.append((shot, shooting.finish(req, shot)))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)         # switch threads inside each run
    try:
        threads = [threading.Thread(target=solve) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads) and len(got) == 4
    for shot, p in got:
        assert shot == alone
        assert np.array_equal(p.half_h, prof.half_h) and p.provenance == prof.provenance


# -- request validation -----------------------------------------------------------

def test_request_rejects_wrong_parity():
    with pytest.raises(ValueError, match="^odd class requires an odd total zero count$"):
        SolveRequest(P33, "odd", 2)
    with pytest.raises(ValueError, match="^even class requires an even total zero count$"):
        SolveRequest(P33, "even", 1)
    with pytest.raises(ValueError):
        SolveRequest(P33, "sideways", 1)


def test_request_rejects_small_cutoff():
    with pytest.raises(ValueError):
        SolveRequest(P33, "odd", 1, cutoff=2.0)


def test_request_zero_split():
    assert SolveRequest(P33, "odd", 5).zeros_half == 2
    assert SolveRequest(P33, "even", 4).zeros_half == 2
    assert SolveRequest(P33, "even", 0).zeros_half == 0


# -- full solves -------------------------------------------------------------------

def test_find_solution_recovers_exact_profile(ground33):
    g = ground33.grid
    exact = 2.0 * np.arctan(np.exp(g)) - HALF_PI
    assert ground33.zero_count == 1
    assert ground33.symmetry_class == "odd"
    # the discrete solution sits O(dx^2) from the continuum one
    assert np.max(np.abs(ground33.h - exact)) < 2e-5
    assert ground33.residual_norm < 1e-8
    assert "s*=" in ground33.provenance


def test_find_solution_energy_close_to_exact(ground33):
    assert energy(ground33) == pytest.approx(8.0 / 3.0, abs=1e-7)


def test_find_solution_three_zeros_properties(records33):
    # one interior crossing per half line, so the ends sit at -pi/2
    prof = records33[("odd", 3)].profile
    assert prof.zero_count == 3
    assert prof.residual_norm < 1e-8
    assert prof.sup_norm < HALF_PI
    mid = (prof.grid.size - 1) // 2
    assert prof.h[mid] == 0.0
    assert prof.dh[mid] > 0.0
    assert HALF_PI - abs(prof.h[-1]) < 1e-6
    assert prof.h[-1] < 0.0


def test_find_solution_even_two_zeros(records33):
    # representative starts above the equator and falls to -pi/2 on both ends
    prof = records33[("even", 2)].profile
    assert prof.zero_count == 2
    assert prof.symmetry_class == "even"
    mid = (prof.grid.size - 1) // 2
    assert prof.h[mid] > 0.0
    assert HALF_PI - abs(prof.h[-1]) < 1e-6
    assert prof.h[-1] < 0.0
    assert prof.h[0] == prof.h[-1]


def test_sign_flag_negates_bitwise():
    req = SolveRequest(P33, "odd", 1, cutoff=16.0, grid_size=2001)
    plus = find_solution(req, sign=1)
    minus = find_solution(req, sign=-1)
    assert np.max(np.abs(plus.h + minus.h)) == 0.0
    assert energy(plus) == energy(minus)


def test_no_bracket_when_hypothesis_fails():
    # (15, 32): below the instability threshold only the first levels exist;
    # a three-zero orbit is not reachable from the scanned slopes
    p = ProblemParams(15, 32.0)
    req = SolveRequest(p, "odd", 3, cutoff=12.0, grid_size=1201)
    with pytest.raises(NoBracketFound):
        find_solution(req)


def test_outside_regime_is_recorded_in_provenance():
    p = ProblemParams(15, 32.0)
    req = SolveRequest(p, "odd", 1, cutoff=12.0, grid_size=1201)
    prof = find_solution(req)
    assert "outside guaranteed regime" in prof.provenance
    assert prof.zero_count == 1


def test_richardson_energy_improves_with_grid():
    base = SolveRequest(P33, "odd", 1, cutoff=20.0, grid_size=1001)
    fine = SolveRequest(P33, "odd", 1, cutoff=20.0, grid_size=2001)
    e_coarse = energy(find_solution(base))
    e_fine = energy(find_solution(fine))
    exact = 8.0 / 3.0
    ratio = abs(e_coarse - exact) / abs(e_fine - exact)
    # the energy is stationary at the solution, so the O(dx^2) profile error
    # only enters quadratically and the observed order is four
    assert 12.0 < ratio < 20.0


# -- bracket stage -----------------------------------------------------------------

@pytest.mark.parametrize("zeros", [1, 2, 3, 4])
def test_loose_bracket_matches_tight_bracket(zeros, records33, monkeypatch):
    # BRACKET_RTOL = 5e-15 narrows every bracket to a few ulps of its ends
    # (K = 6.0e15 stays below 2^53, so the grid still decreases strictly);
    # the loose seed must reach the same discrete solution
    fast = records33[("odd" if zeros % 2 else "even", zeros)].profile
    req = SolveRequest(P33, fast.symmetry_class, zeros)
    loose = shooting.shoot(req)
    assert loose.hi - loose.lo > 1e-8
    monkeypatch.setattr(shooting, "BRACKET_RTOL", 5e-15)
    shot = shooting.shoot(req)
    assert shot.hi - shot.lo <= 1e-14
    tight = shooting.finish(req, shot)
    assert energy(tight) == pytest.approx(energy(fast), abs=1e-12)
    assert np.max(np.abs(tight.h - fast.h)) < 1e-9
    assert tight.zero_count == fast.zero_count == zeros


def test_loose_bracket_saves_integrations(monkeypatch):
    # deterministic: at most 15 counts and one seed, all on the compiled
    # DOP853
    seen = record_counts(monkeypatch)
    calls = []
    inner = shooting.integrate

    def counted(*args):
        calls.append(None)
        return inner(*args)

    seeds = []
    seed = shooting._seed

    def seeded(s, req):
        seeds.append(s)
        return seed(s, req)

    monkeypatch.setattr(shooting, "integrate", counted)
    monkeypatch.setattr(shooting, "_seed", seeded)
    find_solution(SolveRequest(P33, "even", 2))
    assert len(calls) == 0
    assert len(seeds) == 1
    assert len(seen) + len(seeds) <= 20


@pytest.mark.parametrize("params, zeros", BENCHMARK_LEVELS)
def test_scan_is_a_binary_search(params, zeros, monkeypatch):
    # the level law's steps and the binary search of the one step they
    # leave make no more counts than a binary search over the K + 1
    # indices, ceil(log2(K + 2)) = 15 at BRACKET_RTOL = 1e-3, every one at a
    # value of the grid
    req = SolveRequest(params, "odd" if zeros % 2 else "even", zeros)
    seen = record_counts(monkeypatch)
    shot = shooting.shoot(req)
    values = launched(req, seen)
    assert 1 <= len(values) <= math.ceil(math.log2(last_index() + 2)) == 15, len(values)
    assert all(grid_index(req, s) is not None for s in values), values
    assert shot.counts == len(values)


@pytest.mark.parametrize("params, zeros", BENCHMARK_LEVELS)
def test_bracket_is_a_pair_of_grid_neighbours(params, zeros):
    # the shot's bracket (s_i, s_{i-1}), with the count at or below the
    # request at s_{i-1} and above it at s_i
    req = SolveRequest(params, "odd" if zeros % 2 else "even", zeros)
    shot = shooting.shoot(req)
    assert shot.hi == shooting._scan_value(req, shot.index - 1)
    assert shot.lo == shooting._scan_value(req, shot.index)
    count = shooting._zero_counter(req.params, req.cutoff, NO_LIMIT)
    assert count(*shooting._launch(shot.hi, req)) <= req.zeros_half \
        < count(*shooting._launch(shot.lo, req))


def test_a_lone_search_starts_from_the_level_law(monkeypatch):
    # the first count is at index want L, then steps of L toward the
    # transition: identity-3 level 4 (want 2, L = 2223, index 4555) changes
    # side on its first step up, and the rest bisects that one step
    req = SolveRequest(P33, "even", 4)
    step = shooting._level_step(P33)
    assert step == 2223
    seen = record_counts(monkeypatch)
    shot = shooting.shoot(req)
    probes = [grid_index(req, s) for s in launched(req, seen)]
    assert probes[:2] == [2 * step, 3 * step]
    assert all(2 * step < k < 3 * step for k in probes[2:]), probes
    assert 2 * step < shot.index <= 3 * step


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("params, zeros", BENCHMARK_LEVELS + NU_LEVELS)
def test_law_search_finds_the_whole_grid_bracket(params, zeros, sign, monkeypatch):
    # the level law only moves where the bisection starts: the same bracket,
    # in at most as many counts, and at most 13 on the benchmark's levels
    req = SolveRequest(params, class_of_level(zeros), zeros)
    shot = shooting.shoot(req, sign=sign)
    whole = whole_grid_shot(req, monkeypatch, sign=sign)
    assert (shot.index, shot.lo, shot.hi) == (whole.index, whole.lo, whole.hi)
    assert shot.counts <= whole.counts
    if params.nu is None:
        assert shot.counts <= 13, shot.counts


@pytest.mark.parametrize("params", [ProblemParams(4, 2.427), ProblemParams(6, 6.5)],
                         ids=["4-2.427", "6-6.5"])
@pytest.mark.parametrize("zeros", [1, 2])
def test_a_long_level_step_keeps_the_whole_grid_search(params, zeros, monkeypatch):
    # near the threshold a level step is over 4096 indices: bisecting one
    # step (13 counts or more) after three counts of steps saves nothing
    # against the 15 of the whole grid, so the search is the whole grid's
    assert shooting._level_step(params) > 4096
    req = SolveRequest(params, class_of_level(zeros), zeros)
    assert shooting.shoot(req) == whole_grid_shot(req, monkeypatch)


@pytest.mark.parametrize("params, zeros", BENCHMARK_LEVELS)
def test_a_deeper_scan_floor_costs_a_lone_search_nothing(params, zeros, monkeypatch):
    # with the floor at 2^-90 the grid has K = 62415 indices: the law's
    # search makes the same counts to the same bracket, while the whole
    # grid's bisection takes one count more at its worst
    req = SolveRequest(params, class_of_level(zeros), zeros)
    shot = shooting.shoot(req)
    whole = whole_grid_shot(req, monkeypatch)
    monkeypatch.setattr(shooting, "SCAN_OCTAVES", 90)
    assert last_index() == 62415
    assert shooting.shoot(req) == shot
    deeper = whole_grid_shot(req, monkeypatch)
    assert (deeper.index, deeper.lo, deeper.hi) == (shot.index, shot.lo, shot.hi)
    assert whole.counts < deeper.counts <= math.ceil(math.log2(last_index() + 2)) == 16


@pytest.mark.parametrize("factor", [1 / 3, 3])
@pytest.mark.parametrize("params, zeros", BENCHMARK_LEVELS)
def test_a_law_off_by_a_factor_of_three_finds_the_same_bracket(params, zeros, factor,
                                                               monkeypatch):
    # a level step three times too short or too long puts the first count
    # and the steps off the level, or, past the bound, leaves the search to
    # the whole grid; either way the bracket is the whole grid's
    req = SolveRequest(params, class_of_level(zeros), zeros)
    whole = whole_grid_shot(req, monkeypatch)
    law = shooting._level_step
    monkeypatch.setattr(shooting, "_level_step", lambda p: round(factor * law(p)))
    shot = shooting.shoot(req)
    assert (shot.index, shot.lo, shot.hi) == (whole.index, whole.lo, whole.hi)


def test_a_law_that_misses_leaves_the_rest_of_the_grid_to_the_bisection(monkeypatch):
    # at (2, 1e4) odd levels 1 and 3 lie at indices 406 and 408, some 25
    # level steps (L = 16) from where the law puts them: the steps stop at
    # their budget of 11 counts and the bisection takes the rest of the
    # grid, 26 counts where steps to the level would take 31
    params = ProblemParams(2, 1e4)
    assert shooting._level_step(params) == 16
    budget = math.ceil(math.log2(last_index() + 2)) - 4
    for zeros in (1, 3):
        req = SolveRequest(params, "odd", zeros)
        shot = shooting.shoot(req)
        whole = whole_grid_shot(req, monkeypatch)
        assert (shot.index, shot.lo, shot.hi) == (whole.index, whole.lo, whole.hi)
        assert shot.counts <= budget + whole.counts == 26, shot.counts


def test_a_lone_search_installs_its_solout_once(monkeypatch):
    # each count is one run, so one set_initial_value; the counter's solout
    # goes in on its first run and stays, since no other solout ran between
    calls = {"set_solout": 0, "set_initial_value": 0}
    for name in calls:
        inner = getattr(ode, name)

        def counted(self, *args, inner=inner, name=name):
            calls[name] += 1
            return inner(self, *args)
        monkeypatch.setattr(ode, name, counted)
    fresh_runners(monkeypatch)
    shot = shooting.shoot(SolveRequest(HOPF32, "odd", 5))
    assert calls == {"set_solout": 1, "set_initial_value": shot.counts}


@pytest.mark.parametrize("sign", [1, -1])
def test_provenance_is_formatted_from_the_shot(sign):
    req = SolveRequest(P33, "even", 2)
    shot = shooting.shoot(req, sign=sign)
    prof = find_solution(req, sign=sign)
    assert prof.provenance == shooting.finish(req, shot).provenance
    assert prof.provenance.startswith(f"shooting s*={sign * shot.hi:.17g} "
                                      f"(bracket width {shot.hi - shot.lo:.2e}), newton iters=")


# levels 1-10 at X=30 bracket parameters down to about 1e-5 of the scan cap
DEEP_MAPS = [pytest.param(ProblemParams(m, om), id=f"{m}-{om:g}")
             for m, om in ((3, 3.0), (2, 2.0), (3, 8.0), (4, 18.0))]


@pytest.mark.parametrize("params", DEEP_MAPS)
def test_sweep_finds_each_bracket_the_plain_search_finds(params, monkeypatch):
    # run_sweep starts each level's search from the shot of its class's
    # level two below; the index must be the one shoot finds from the whole
    # grid.  From level 3 on every level has a prior, and on (3,3) each takes
    # at most 8 counts: two to confirm the window of +-32 indices, six to
    # bisect it.  The closed-form step misses (4,18) level 3 by more than
    # the window, so that map takes the miss path.
    shots = {}
    inner = report.shoot

    def recording(req, **kwargs):
        shots[req.total_zeros] = shot = inner(req, **kwargs)
        return shot

    monkeypatch.setattr(report, "shoot", recording)
    rep = run_sweep(SweepConfig(params, 10, cutoff=30.0, grid_size=6001))
    assert not rep.failures and sorted(shots) == list(range(1, 11))
    for z, shot in shots.items():
        alone = whole_grid_shot(SolveRequest(params, class_of_level(z), z,
                                             cutoff=30.0, grid_size=6001), monkeypatch)
        assert (shot.index, shot.lo, shot.hi) == (alone.index, alone.lo, alone.hi), z
        assert (shot.step is None) == (z <= 2), z
        assert alone.step is None and alone.counts >= 14
        assert shot.counts <= alone.counts, (z, shot.counts, alone.counts)
    if params == ProblemParams(3, 3.0):
        assert all(shots[z].counts <= 8 for z in range(3, 11)), shots
    if params == ProblemParams(4, 18.0):
        assert abs(shots[3].step - shooting._level_step(params)) > shooting.CONTINUATION_WINDOW


@pytest.mark.parametrize("miss", [-300, -100, 100, 300])
def test_a_missed_window_doubles_on_the_side_that_missed(miss, monkeypatch):
    # a prediction `miss` indices from the bracket: the windows of +-32 and
    # +-64 indices miss it, and doubling on the side that missed holds it
    # within 128 (two counts past the first window) or 512 (four), leaving
    # fewer than 64 or 256 indices to bisect.  The search from the whole
    # grid takes 15 counts
    req = SolveRequest(P33, "even", 4)
    alone = whole_grid_shot(req, monkeypatch)
    assert alone.counts == 15
    prior = shooting.Shot(alone.index - miss - 1, 1.0, 1.001, 8, 1, 1)
    shot = shooting.shoot(req, prior=prior)
    assert (shot.index, shot.lo, shot.hi) == (alone.index, alone.lo, alone.hi)
    assert shot.counts <= (2 + 2 + 6 if abs(miss) == 100 else 2 + 4 + 8)


def test_no_prior_outside_the_hypothesis():
    # rho = exp(-(m-1) pi / (2 kappa)) has no kappa when (m-1)^2/4 >= omega
    req = SolveRequest(ProblemParams(15, 32.0), "odd", 1, cutoff=12.0, grid_size=1201)
    alone = shooting.shoot(req)
    prior = shooting.Shot(alone.index - 100, 1.0, 1.001, 8, 1, 50)
    assert shooting.shoot(req, prior=prior) == alone


@pytest.mark.parametrize("cutoff, grid_size", [(20.0, 8001), (20.0, 16001), (30.0, 12001),
                                               (20.0, 20001), (20.0, 32001)])
def test_fine_grids_solve_levels_one_to_four(cutoff, grid_size, monkeypatch):
    # with dx <= 0.005 a seed that departs before nearing the limit leaves a
    # jump whose residual (growing like 1/dx^2) is too rough for Newton; with
    # dx <= 0.002 an absolute stopping tolerance sits below the residual's
    # roundoff floor and the line search stalls
    def solve(zeros):
        return find_solution(SolveRequest(P33, "odd" if zeros % 2 else "even", zeros,
                                          cutoff=cutoff, grid_size=grid_size))

    loose = [solve(z) for z in (1, 2, 3, 4)]
    # level 1 is the closed-form profile of energy 8/3; on these grids the
    # discrete energy is off by 5.8e-8 to 1.5e-6 times dx^2
    dx = loose[0].grid[1] - loose[0].grid[0]
    assert abs(energy(loose[0]) - 8.0 / 3.0) < 2e-6 * dx * dx
    monkeypatch.setattr(shooting, "BRACKET_RTOL", 5e-15)
    for zeros, prof in zip((1, 2, 3, 4), loose):
        assert prof.zero_count == zeros
        assert verify_solution(prof).passed
        rep = morse_index(prof)
        assert (rep.index, rep.nullity_estimate) == (zeros, 0)
        assert energy(solve(zeros)) == pytest.approx(energy(prof), abs=1e-12)


def test_boundary_gap_failure_propagates():
    # level 6 at the default cutoff ends 1.27e-6 short of pi/2
    with pytest.raises(PolishDiverged, match="increase the cutoff"):
        find_solution(SolveRequest(P33, "even", 6))


@pytest.mark.parametrize("params, zeros, cutoff, grid", [
    (P33, 6, 21, 4201),
    # near the threshold (m-1)^2/4 = omega, where kappa is small
    (ProblemParams(4, 3.39), 4, 22, 4401),
    # below it
    (ProblemParams(5, 3.5), 1, 21, 4201)])
def test_a_boundary_gap_failure_names_a_cutoff_at_which_the_level_solves(params, zeros,
                                                                        cutoff, grid):
    # at X = 20 the gap exceeds BOUNDARY_TOL; the named cutoff, at the
    # default dx, gives a verified profile of the requested index
    cls = class_of_level(zeros)
    with pytest.raises(PolishDiverged, match=f"increase the cutoff to {cutoff} "
                                             fr"\(grid size {grid} keeps dx\)"):
        find_solution(SolveRequest(params, cls, zeros))
    prof = find_solution(SolveRequest(params, cls, zeros, cutoff=cutoff, grid_size=grid))
    assert prof.dx == pytest.approx(2.0 * DEFAULT_CUTOFF / (DEFAULT_GRID_SIZE - 1))
    assert verify_solution(prof).passed
    rep = morse_index(prof)
    assert (rep.index, rep.nullity_estimate) == (zeros, 0)


# -- newton polish -----------------------------------------------------------------

def test_newton_polish_fixes_perturbed_profile(exact_profile):
    xs = half_grid(exact_profile.cutoff, exact_profile.n)
    prof = Profile(P33, "odd", exact_profile.cutoff,
                   exact_profile.half_h + 1e-3 * np.sin(xs) / np.cosh(xs))
    req = SolveRequest(P33, "odd", 1)
    polished = newton_polish(prof, req)
    assert polished.residual_norm < 1e-9
    assert np.max(np.abs(polished.h - exact_profile.h)) < 2e-5
    assert "newton polish iters=" in polished.provenance


@pytest.mark.parametrize("grid_size", [4001, 16001])
def test_newton_polish_refuses_a_jump_at_the_cut_end(grid_size):
    # a jump of pi at the last node: residual 6.3e4 at N=4001, 1.0e6 at
    # N=16001; the guard scales with 1/dx^2 so both are refused
    h = 2.0 * np.arctan(np.exp(half_grid(20.0, grid_size))) - HALF_PI
    h[-1] = -h[-1]
    prof = Profile(P33, "odd", 20.0, h)
    req = SolveRequest(P33, "odd", 1, cutoff=20.0, grid_size=grid_size)
    with pytest.raises(PolishDiverged, match="too rough"):
        newton_polish(prof, req)


def record_newton(monkeypatch):
    """List that collects (args, kwargs, result) for every shooting._newton
    call made from here on, through the module global as finish and
    newton_polish make them."""
    seen = []
    real = shooting._newton

    def recording(*args, **kwargs):
        seen.append((args, kwargs, real(*args, **kwargs)))
        return seen[-1][2]

    monkeypatch.setattr(shooting, "_newton", recording)
    return seen


def assert_newton_is_the_reference(seen):
    # u's bytes, the residual max-norm and the iteration count, each the
    # same as the Newton finish that rebuilds its operands at every step
    assert seen
    for args, kwargs, (u, fnorm, iters) in seen:
        want_u, want_fnorm, want_iters = newton_reference(*args, **kwargs)
        assert (u.tobytes(), fnorm, iters) == (want_u.tobytes(), want_fnorm, want_iters)


@pytest.mark.parametrize("params, zeros", [
    *((P33, z) for z in (1, 2, 3, 4)),
    # its last residual is 0.85 of the tolerance, the closest of the
    # catalog's default finishes, so one changed bit could change its count
    (ProblemParams(2, 2.0), 3),
    (HOPF32, 5),
    (nu_params(), 2), (nu_params(), 3)])
def test_newton_is_bitwise_the_reference(params, zeros, monkeypatch):
    seen = record_newton(monkeypatch)
    prof = find_solution(SolveRequest(params, class_of_level(zeros), zeros))
    assert_newton_is_the_reference(seen)
    assert prof.provenance.endswith(f"newton iters={seen[0][2][2]}")


@pytest.mark.parametrize("zeros", [3, 4])
def test_refined_newton_is_bitwise_the_reference(zeros, monkeypatch):
    req = SolveRequest(P33, class_of_level(zeros), zeros, grid_size=16001)
    prof = find_solution(SolveRequest(P33, req.symmetry_class, zeros))
    seen = record_newton(monkeypatch)
    newton_polish(resample(prof, req.cutoff, req.grid_size), req)
    assert_newton_is_the_reference(seen)


def test_newton_stalls_below_the_roundoff_floor(ground33, monkeypatch):
    # no step lowers a converged residual any further
    monkeypatch.setattr(SolveRequest, "newton_tol", 0.0)
    with pytest.raises(PolishDiverged,
                       match=f"line search stalled at residual {ground33.residual_norm:.3e}"):
        newton_polish(ground33, SolveRequest(P33, "odd", 1))


def test_newton_gives_up_after_its_step_cap(monkeypatch):
    # level 1 takes 3 steps from its seed
    monkeypatch.setattr(shooting, "MAX_NEWTON_ITER", 1)
    with pytest.raises(PolishDiverged, match="no convergence after 1 Newton steps"):
        find_solution(SolveRequest(P33, "odd", 1))


def test_a_singular_newton_system_fails_only_its_level(sweep33, monkeypatch):
    real, failed = shooting.dgtsv, []
    half = half_grid(DEFAULT_CUTOFF, DEFAULT_GRID_SIZE).size

    def singular_once(dl, d, du, b, **kwargs):
        # the first system of an even level, which solves for u_0 too
        if d.size == half and not failed:
            failed.append(d.size)
            return dl, d, du, b, 1
        return real(dl, d, du, b, **kwargs)

    monkeypatch.setattr(shooting, "dgtsv", singular_once)
    rep = run_sweep(SweepConfig(P33, 4))
    (cls, zeros, message), = rep.failures
    assert (cls, zeros) == ("even", 2)
    assert message.startswith("singular Newton system at residual")
    want = sorted((r.profile for r in sweep33.records if r.profile.zero_count != 2),
                  key=lambda p: p.zero_count)
    got = sorted((r.profile for r in rep.records), key=lambda p: p.zero_count)
    assert [p.zero_count for p in got] == [1, 3, 4]
    assert [(p.half_h.tobytes(), p.provenance) for p in got] == \
        [(p.half_h.tobytes(), p.provenance) for p in want]


def test_newton_tolerance_follows_the_grid():
    # four times the roundoff floor eps (pi/2) / dx^2 of the discrete residual
    assert shooting.newton_tolerance(0.01) == pytest.approx(1.395e-11, rel=1e-3)
    assert shooting.newton_tolerance(0.005) == pytest.approx(
        4.0 * shooting.newton_tolerance(0.01), rel=1e-12)
    req = SolveRequest(P33, "odd", 1, cutoff=20.0, grid_size=8001)
    assert req.newton_tol == pytest.approx(shooting.newton_tolerance(0.005), rel=1e-12)


@pytest.mark.parametrize("cutoff, largest", [
    (5.0, 26773), (20.0, 107091), (30.0, 160635), (123.4, 660747)])
def test_request_refuses_a_grid_finer_than_the_certificate(cutoff, largest):
    # below dx = 3.735e-4 Newton stops above RESIDUAL_TOL, so the solve
    # could only end in a failed verify_solution
    req = SolveRequest(P33, "odd", 1, cutoff=cutoff, grid_size=largest)
    assert req.newton_tol <= shooting.RESIDUAL_TOL
    with pytest.raises(ValueError, match=f"grid_size {largest + 2} too fine for cutoff "
                                         f"{cutoff:g}: .* use grid_size <= {largest}$"):
        SolveRequest(P33, "odd", 1, cutoff=cutoff, grid_size=largest + 2)


def test_newton_polish_preserves_declared_parity(exact_profile):
    req = SolveRequest(P33, "odd", 1)
    polished = newton_polish(exact_profile, req)
    assert np.max(np.abs(polished.h + polished.h[::-1])) == 0.0


def test_solved_profiles_have_their_parity_bitwise(records33):
    # Newton runs on the half line, and the class mirrors it
    for (cls, zeros), rec in records33.items():
        h = rec.profile.h
        if cls == "odd":
            assert h[h.size // 2] == 0.0
            assert np.array_equal(h, -h[::-1]), zeros
        else:
            assert np.array_equal(h, h[::-1]), zeros


# -- verification ------------------------------------------------------------------

def test_verify_passes_on_solved_profile(ground33):
    diag = verify_solution(ground33)
    assert diag.passed
    assert diag.failures == ()
    assert diag.residual_max < 1e-8
    assert diag.energy_margin == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert diag.w_violation <= 1e-8
    assert not diag.singular_branch


def test_verify_passes_a_level_below_the_roundoff_of_its_energy(records55):
    # (5, 5) level 7 clears 10/3 by 8.5e-18, less than an ulp of its energy
    diag = verify_solution(records55[7].profile)
    assert diag.passed, diag.failures
    assert 0.0 < diag.energy_margin < 1e-16


def test_verify_flags_equator_branch():
    diag = verify_solution(singular_profile(P33))
    assert diag.singular_branch
    assert not diag.passed
    assert any("equator branch" in f for f in diag.failures)


def test_verify_flags_corrupted_profile(ground33):
    half_h = ground33.half_h.copy()
    half_h[1:500] += 1e-3
    bad = Profile(P33, "odd", ground33.cutoff, half_h)
    diag = verify_solution(bad)
    assert not diag.passed
    assert any("residual" in f for f in diag.failures)


def test_verify_flags_wrong_boundary():
    h = np.tanh(half_grid(20.0, 4001))     # odd, smooth, but tends to 1, far from pi/2
    prof = Profile(P33, "odd", 20.0, h)
    diag = verify_solution(prof)
    assert not diag.passed
    assert any("boundary gap" in f for f in diag.failures)
    # one gap, h(X)'s, which the mirror makes h(-X)'s too
    assert diag.boundary_gap == HALF_PI - math.tanh(20.0)
