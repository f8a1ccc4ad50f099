"""Shooting construction of connecting profiles, with a Newton finish.

Solutions with a prescribed number of interior zeros are found on the half
line by a two-stage process:

1. Count zeros of h on (0, cutoff), before the trajectory leaves the band
   |h| <= pi/2 + margin, as a function of the free initial value s (the
   slope at 0 for odd profiles, the height at 0 for even ones).  The count
   steps up as s decreases; each step is the parameter of a connecting
   orbit.  The scan grid s_k = cap (1 + BRACKET_RTOL)^-k, k = 0..K, runs
   geometrically from the scan cap down to cap 2^-SCAN_OCTAVES, as the
   connecting parameters of successive levels do, and a binary search over
   its indices finds the neighbours s_{i-1} > s_i across which the count
   passes the request: a bracket of relative width about 1e-3.  Under the
   hypothesis the levels of one class lie about L = _level_step indices
   apart, so the search counts first where that law puts the level (from
   the bracket of the class's level two below, shoot's prior, when
   run_sweep passes one), gallops toward the transition with doubling
   steps, and bisects the last step; outside it, the bisection takes the
   whole grid.  Every trajectory runs scipy's compiled DOP853.  The search
   only asks whether the count exceeds the request, so each run stops once
   that is settled (at the sign change that settles it, or earlier, once
   the Lyapunov function W says which zeros are left) and keeps no step
   record: a count only says which side of a transition s lies on, so it
   only has to see each sign change.  The counts that steer the gallop and
   the bisection run loose, at STEER_RTOL under STEER_STEP_FACTOR times
   integrate's step cap, and may answer wrongly within a few scan steps of
   a transition.  Two counts at COUNT_RTOL under COUNT_STEP_FACTOR times
   the cap, whose relative error in s, about steps * COUNT_RTOL, is far
   below the bracket's width, certify the bracket's two ends; where one
   fails, the same search goes on from it at those settings.  So the
   bracket is the one those counts alone find.

2. The trajectory at the bracket end without an extra zero, one run on the
   certifying counts' integrator that records every accepted step, blended
   into the linearised tail toward +-pi/2, seeds a damped Newton iteration on
   the central-difference discretisation of the boundary value problem on
   the half line [0, cutoff], which the class mirrors onto the full line.
   Row 0 is the class's condition at x = 0: for an even profile the
   equation with the ghost node u_-1 = u_1, for an odd one u_0 = 0, which
   is then not solved for.  The Robin condition (pi/2 -+ h)' =
   lambda_- (pi/2 -+ h) carries the exponential decay at the cut end
   x = cutoff.  Both of Newton's thresholds follow from the grid spacing
   dx, since the residual's second differences scale like 1/dx^2: it stops
   once the residual max-norm is below newton_tolerance(dx), four times the
   roundoff floor eps (pi/2) / dx^2, and it refuses a guess whose residual
   is above 1/dx^2 as too rough.  What the residual and its tridiagonal
   Jacobian take from the grid alone is built once per solve, and each step
   is one LAPACK gtsv solve; a singular system is refused.

The shooting stage only needs to deliver the topology (zero count and limit
signs); all quantitative accuracy comes from the Newton stage.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import ode, solve_ivp
from scipy.interpolate import BPoly
from scipy.linalg.lapack import dgtsv

from .core import (
    DEFAULT_CUTOFF,
    DEFAULT_GRID_SIZE,
    HALF_PI,
    Profile,
    ProblemParams,
    clearance,
    couplings,
    decay_rate,
    el_residual,
    energy,
    finite_cutoff,
    grid_spacing,
    half_grid,
    linear_tail,
    lyapunov_W,
    require_real_couplings,
)


# Fixed numerical controls of the solver.
EXIT_MARGIN = 1e-3      # how far past pi/2 the exit wall stands
EXIT_WALL = HALF_PI + EXIT_MARGIN   # a trajectory has exited once |h| > EXIT_WALL
BRACKET_RTOL = 1e-3     # ratio less one of neighbouring scan values: the bracket's relative width
MAX_NEWTON_ITER = 25
BOUNDARY_TOL = 1e-6     # largest accepted end gap pi/2 - |h|
RTOL = 1e-11            # integrate's relative tolerance: the tests' continuum reference
ATOL = 1e-13            # DOP853's absolute tolerance, integrate's and the compiled runs'
COUNT_RTOL = 1e-6       # the compiled DOP853's rtol: the certifying counts' and the seed's
COUNT_STEP_FACTOR = 2.0  # their step cap, in multiples of integrate's _max_step
STEER_RTOL = 1e-3       # the relative tolerance of the counts that only steer shoot's search
STEER_STEP_FACTOR = 4.0  # their step cap, in multiples of _max_step
CONTINUATION_WINDOW = 32  # shoot's first step, in scan indices, from a prior's prediction
SCAN_OCTAVES = 44       # the scan grid runs from scan_cap down to scan_cap 2^-SCAN_OCTAVES

# verify_solution's thresholds, besides BOUNDARY_TOL.
RESIDUAL_TOL = 1e-8     # interior residual max-norm
W_TOL = 1e-8            # allowed decrease of the Lyapunov quantity W outside nu's support


class OutcomeKind(Enum):
    OVERSHOOT_POSITIVE = "overshoot_positive"
    OVERSHOOT_NEGATIVE = "overshoot_negative"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Trajectory:
    """Half-line integration record: the zeros of h on (0, x_end), how it
    ended (kind); dense evaluation valid on [0, x_end]."""

    h0: float
    dh0: float
    x_end: float
    crossings: tuple
    kind: OutcomeKind
    dense: object = None

    @property
    def zero_count_half(self) -> int:
        return len(self.crossings)

    def sample(self, xs):
        xs = np.asarray(xs, dtype=float)
        if np.any(xs > self.x_end + 1e-12) or np.any(xs < 0):
            raise ValueError("trajectory sampled outside [0, x_end]")
        if self.dense is None:
            n = xs.shape
            return np.full(n, self.h0), np.full(n, self.dh0)
        y = self.dense(xs)
        return y[0], y[1]


class NoBracketFound(RuntimeError):
    """The requested zero-count transition was not seen in the scanned range."""


class PolishDiverged(RuntimeError):
    """The Newton finish failed or broke an invariant, or verification refused it."""


def class_of_level(zeros: int) -> str:
    """The symmetry class of the level with this total zero count."""
    return "odd" if zeros % 2 == 1 else "even"


@dataclass(frozen=True)
class SolveRequest:
    """What to solve for and with which discretisation controls.

    Parity ties the symmetry class to the total interior zero count: odd
    profiles have a zero at the origin (odd total), even ones do not (even
    total).  The cutoff must satisfy tanh(cutoff) >= 0.999 so the advection
    coefficient is saturated at the ends.
    """

    params: ProblemParams
    symmetry_class: str
    total_zeros: int
    cutoff: float = DEFAULT_CUTOFF
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        if self.symmetry_class not in ("odd", "even"):
            raise ValueError("symmetry_class must be 'odd' or 'even'")
        if self.total_zeros < 0:
            raise ValueError("total_zeros must be >= 0")
        if self.symmetry_class != class_of_level(self.total_zeros):
            raise ValueError(f"{self.symmetry_class} class requires an "
                             f"{self.symmetry_class} total zero count")
        if math.tanh(finite_cutoff(self.cutoff)) < 0.999:
            raise ValueError("cutoff too small: need tanh(cutoff) >= 0.999")
        if self.grid_size < 5 or self.grid_size % 2 == 0:
            raise ValueError("grid_size must be odd and >= 5")
        # the finest grid whose stopping tolerance verify_solution accepts
        finest = 1 + 2 * int(self.cutoff / math.sqrt(newton_tolerance(1.0) / RESIDUAL_TOL))
        if self.newton_tol > RESIDUAL_TOL:
            raise ValueError(
                f"grid_size {self.grid_size} too fine for cutoff {self.cutoff:g}: Newton "
                f"stops at residual {self.newton_tol:.3e}, above the certificate's "
                f"{RESIDUAL_TOL:.0e}; use grid_size <= {finest}")
        nu = self.params.nu
        rough = (self.params.omega * (1.0 + (0 if nu is None else np.max(nu.values, initial=0.0)))
                 * grid_spacing(self.cutoff, self.grid_size) ** 2)
        if rough >= 4.0:
            reach = 0.25 * (self.grid_size - 1) * math.sqrt(rough)   # (N - 1) / 2 must exceed it
            fix = (f"use grid_size >= {3 + 2 * int(reach)}" if reach < (finest - 1) // 2
                   else f"no grid_size <= {finest}, the certificate's bound, does")
            raise ValueError(f"grid_size {self.grid_size} too coarse for omega {self.params.omega:g}: "
                             f"omega (1 + max nu) dx^2 = {rough:.3g} >= 4, where the "
                             f"central-difference recurrence stops oscillating; {fix}")
        # the Morse count (spectral) symmetrises Newton's couplings
        require_real_couplings((self.params.m - 1) * math.tanh(self.cutoff), self.cutoff,
                               self.grid_size)

    @property
    def newton_tol(self) -> float:
        """Residual max-norm the Newton finish must reach on this grid."""
        return newton_tolerance(grid_spacing(self.cutoff, self.grid_size))

    @property
    def zeros_half(self) -> int:
        """Zeros requested on the open half line (0, inf)."""
        # the odd class's zero at the origin is on neither half line
        return self.total_zeros // 2

    def scan_cap(self) -> float:
        if self.symmetry_class == "even":
            return HALF_PI
        # odd-class slopes of connecting orbits satisfy s^2/2 < omega/2
        return 1.5 * math.sqrt(self.params.omega)


def _rhs(params: ProblemParams):
    """Right-hand side (h, h')' = f(x, (h, h')) of the profile equation.

    Scalar math rather than core.el_residual: DOP853 calls it thousands of
    times per integration, where numpy's per-call overhead would dominate.
    Python floats rather than numpy scalars (y.tolist()) for the same reason.
    Every call fills and returns the same 2-array, which spares building an
    array per call: the compiled DOP853 copies it into its own buffer, and
    integrate passes solve_ivp a copy, since solve_ivp keeps each stage's.
    """
    m1 = params.m - 1
    half_om = 0.5 * params.omega
    tanh, sin = math.tanh, math.sin
    out = np.empty(2)
    if params.nu is None:
        def rhs(x, y):
            h, dh = y.tolist()
            out[0] = dh
            out[1] = m1 * tanh(x) * dh - half_om * sin(2.0 * h)
            return out
    else:
        nu = params.nu

        def rhs(x, y):
            h, dh = y.tolist()
            out[0] = dh
            out[1] = m1 * tanh(x) * dh - half_om * (1.0 + float(nu(x))) * sin(2.0 * h)
            return out
    return rhs


def _max_step(params: ProblemParams) -> float:
    return 0.5 / math.sqrt(1.0 + params.omega)


def _check_start(h0: float) -> None:
    if abs(h0) > HALF_PI:
        raise ValueError("initial value must satisfy |h0| <= pi/2")


def integrate(h0: float, dh0: float, params: ProblemParams, cutoff: float) -> Trajectory:
    """Integrate the profile equation from (h, h')(0) = (h0, dh0) to cutoff.

    Stops at the first exit from |h| <= EXIT_WALL and records the
    zero crossings of h seen before the stop.  Crossing locations come from
    the integrator's root finder on its dense output.

    This is solve_ivp's DOP853, written in Python, with dense output and
    events.  find_solution does not call it: its counts and its seed run
    the compiled DOP853 (_zero_counter, _seed).  It is the reference those
    are tested against.
    """
    _check_start(h0)
    if h0 == 0.0 and dh0 == 0.0:     # the equilibrium at 0
        return Trajectory(h0, dh0, cutoff, (), OutcomeKind.UNDECIDED, None)

    def crossing(x, y):
        return y[0]

    def exit_up(x, y):
        return y[0] - EXIT_WALL

    def exit_down(x, y):
        return y[0] + EXIT_WALL

    crossing.terminal = False
    crossing.direction = 0.0
    exit_up.terminal = True
    exit_up.direction = 1.0
    exit_down.terminal = True
    exit_down.direction = -1.0

    rhs = _rhs(params)
    sol = solve_ivp(lambda x, y: rhs(x, y).copy(), (0.0, float(cutoff)),
                    (float(h0), float(dh0)), method="DOP853", dense_output=True,
                    events=(crossing, exit_up, exit_down),
                    rtol=RTOL, atol=ATOL, max_step=_max_step(params))

    # drop the event the root finder reports when the start itself sits at h = 0
    crossings = tuple(t for t in sol.t_events[0] if t > 1e-9)
    x_end = float(sol.t[-1])

    kind = OutcomeKind.UNDECIDED    # reached the cutoff, or the integrator stopped early
    if sol.status == 1:
        kind = (OutcomeKind.OVERSHOOT_POSITIVE if len(sol.t_events[1])
                else OutcomeKind.OVERSHOOT_NEGATIVE)
    return Trajectory(float(h0), float(dh0), x_end, crossings, kind, sol.sol)


_runners = threading.local()    # .dop853: this thread's compiled integrators, by key


def _dop853(params: ProblemParams, solout, rtol: float = COUNT_RTOL,
            step_factor: float = COUNT_STEP_FACTOR):
    """run(y0, x_end): one run of scipy's compiled DOP853 (Hairer's code,
    the method solve_ivp re-implements in Python) from y0 at x = 0 toward
    x_end.  solout(x, y) runs after each accepted step, the start included,
    and stops the run by returning -1.

    A run takes rtol with integrate's ATOL, and steps no longer than the
    cap step_factor _max_step.  The defaults, COUNT_RTOL under
    COUNT_STEP_FACTOR = 2, serve the seed and every count that decides a
    bracket: a cap of 1/sqrt(1 + omega), still about three accepted steps
    per shortest zero spacing pi/sqrt(omega (1 + nu)).  An error made along
    such a run maps back to a relative shift in s of about
    steps * COUNT_RTOL, some 2e-5 for the few dozen steps a run takes, 50
    times below the scan grid's spacing BRACKET_RTOL; the seed strays up to
    about 3e-5 from integrate, below the O(dx^2) gap (1e-4 at dx = 0.01)
    between the continuum orbit and the discrete solution, which Newton
    closes anyway.  shoot's steering counts run at STEER_RTOL under
    STEER_STEP_FACTOR = 4, the longest steps DOP853's error control then
    accepts: their answers only choose where the search counts next.  The
    first step tried is the cap.  DOP853's own (HINIT, Hairer, Norsett &
    Wanner, Solving ODEs I, II.4) weighs the launch component that is
    exactly 0 (h(0) of an odd profile, h'(0) of an even one) by ATOL alone,
    so it starts near 4e-7 and takes 8 steps to grow to the cap, some 100
    evaluations a run.  The error test still shrinks a first step that is
    too long.

    The integrator is built once for each problem and these settings,
    keyed by value (m, omega, nu's samples), since callers build a fresh
    ProblemParams for equal values, and every later run reuses it: scipy's
    dop853 wrapper never frees one that has run (about 1.3 KB with its
    right-hand side and last solout).  Runs bypass ode.set_initial_value,
    whose reset puts a new bound method _solout in call_args, which the
    compiled runner keeps, 64 B per run.  They rely on these internals of
    scipy.integrate._ode.dop853, the object at ode._integrator: one reset
    at build time makes its work, iwork and call_args; each run sets its
    solout attribute, which _solout calls, so callers' runs may interleave;
    re-zeroes iwork, where the runner leaves its step statistics, as reset
    does; and calls its run method with a fresh y0, which the runner
    overwrites.  Runs in two threads at once would overwrite each other's,
    so each thread builds its own integrators.
    """
    nu = params.nu
    key = (params.m, params.omega,
           None if nu is None else (nu.grid.tobytes(), nu.values.tobytes()),
           rtol, step_factor)
    made = vars(_runners).setdefault("dop853", {})
    if key not in made:
        cap = step_factor * _max_step(params)
        rhs = _rhs(params)
        # solve_ivp has no step limit, so neither has this run
        dop = ode(rhs).set_integrator("dop853", rtol=rtol, atol=ATOL, max_step=cap,
                                      first_step=cap, nsteps=2 ** 31 - 1)._integrator
        dop.set_solout(solout)      # with a solout set, reset asks for one after each step
        dop.reset(2, False)
        made[key] = rhs, dop
    rhs, dop = made[key]

    def run(y0, x_end: float) -> None:
        dop.solout = solout
        dop.iwork[:] = 0
        dop.run(rhs, None, np.array(y0, dtype=float), 0.0, x_end, (), ())
    return run


def _zero_counter(params: ProblemParams, cutoff: float, limit: int,
                  rtol: float = COUNT_RTOL, step_factor: float = COUNT_STEP_FACTOR):
    """count(h0, dh0): min(limit, the zero_count_half that integrate
    reports), without the dense output and events the search never uses.

    Each count is one run of the compiled DOP853 with integrate's exit
    wall.  After each accepted step, solout counts a sign change of h and
    stops the run once |h| > EXIT_WALL, or at the limit-th sign change: a
    solve only asks whether a count exceeds its request, so it passes the
    request plus one as the limit and integrates no zero past that.

    Past nu's support and inside |h| <= pi/2, the Lyapunov function
    W = h'^2/2 + omega sin^2(h)/2 never decreases (core.lyapunov_W), so
    solout ends the run as soon as W decides the rest of it:
    - if h heads toward 0, h'^2 = 2W - omega sin^2 h cannot shrink while
      |h| falls, so h meets 0 within |h/h'|.  When that bound lies before
      the cutoff and the zero is the limit-th one or W > omega/2, the run
      counts the zero and stops;
    - if h heads outward with W > omega/2, h' never vanishes, since
      h'^2 >= 2W - omega > 0: h leaves the band with no zero left, and the
      run stops.

    The run takes rtol and a step cap of step_factor times _max_step, with
    a first step at that cap (_dop853).  The defaults, COUNT_RTOL and
    COUNT_STEP_FACTOR, are the certifying counts': a count only decides
    which side of a transition s lies on, so it only has to see each sign
    change of h, and neighbouring values of the scan grid lie a relative
    BRACKET_RTOL apart.  The seed trajectory, which Newton starts from, runs
    on the same integrator (_seed): Newton takes its accuracy from the
    grid, not from the seed.  shoot steers its search with a second
    counter at STEER_RTOL and STEER_STEP_FACTOR, whose answers may be wrong
    within a few scan steps of a transition and decide no bracket.

    Every counter and seed of one problem and settings shares one compiled
    integrator (_dop853); each run installs its own solout.
    """
    state = [0.0, 0]            # h at the last accepted step, sign changes so far
    om = params.omega
    support = 0.0 if params.nu is None else params.nu.support_radius

    def solout(x, y):
        # Python floats: comparing numpy scalars costs a third more per step
        h, dh = y.tolist()
        h_prev = state[0]
        if h < 0.0 < h_prev or h_prev < 0.0 < h:
            state[1] += 1
            if state[1] >= limit:
                return -1
        state[0] = h
        if abs(h) > HALF_PI:
            return -1 if abs(h) > EXIT_WALL else 0
        if x <= support:        # the start (dop853 refuses a stop there) or nu's support
            return 0
        w_high = dh * dh + om * math.sin(h) ** 2 > om      # W > omega/2
        heading = h * dh
        if heading < 0.0:
            if x - h / dh < cutoff and (w_high or state[1] + 1 >= limit):
                state[1] += 1
                return -1
        elif heading > 0.0 and w_high:
            return -1
        return 0

    run = _dop853(params, solout, rtol, step_factor)

    def count(h0: float, dh0: float) -> int:
        _check_start(h0)
        if h0 == 0.0 and dh0 == 0.0:
            return 0
        state[:] = [h0, 0]
        run((h0, dh0), cutoff)
        return state[1]

    return count


def _launch(s: float, req: SolveRequest) -> tuple:
    """(h, h')(0) of the trajectory with shooting parameter s."""
    if req.symmetry_class == "odd":
        return 0.0, float(s)
    if abs(s) > HALF_PI:
        raise ValueError("even-class parameter must satisfy |s| <= pi/2")
    return float(s), 0.0


def _seed(s: float, req: SolveRequest) -> tuple:
    """(h_at, x_end, t_start) of the seed trajectory with shooting parameter s.

    One run of the certifying counts' compiled DOP853 (_dop853), to
    integrate's exit wall, records (x, h, h') after each accepted step;
    x_end is the last step.  h_at is the quintic Hermite interpolant of
    (h, h', h'') on [0, x_end], with h'' from the equation.  At COUNT_RTOL it strays up to
    about 3e-5 from integrate, below the O(dx^2) gap between the continuum
    orbit and the discrete solution that Newton closes anyway, so Newton
    takes as many iterations from it as from integrate's trajectory.  A
    cubic through (h, h') alone would stray up to 1.3e-3 on the cap's
    steps of up to 0.5, above that gap.  t_start is the step just before
    the last requested zero (0 with none): h has the limit's sign beyond
    that zero, and the opposite sign on the way to it.
    """
    steps = []

    def solout(x, y):
        h, dh = y.tolist()
        steps.append((x, h, dh))
        return -1 if abs(h) > EXIT_WALL else 0

    _dop853(req.params, solout)(_launch(s, req), req.cutoff)
    x, h, dh = np.array(steps).T
    # the integrator holds this solout, and so this list, until its next run
    steps.clear()
    d2h = -el_residual(x, h, dh, 0.0, req.params)
    # Bernstein coefficients on each step of width w that match (h, h', h'')
    # at both ends (BPoly.from_derivatives builds the same, 70x slower)
    w = np.diff(x)
    a, b, da, db = h[:-1], h[1:], dh[:-1], dh[1:]
    h_at = BPoly(np.array([a, a + w * da / 5, a + w * (2 * da + w * d2h[:-1] / 4) / 5,
                           b - w * (2 * db - w * d2h[1:] / 4) / 5, b - w * db / 5, b]), x)
    zeros = np.flatnonzero(np.sign(h[:-1]) * np.sign(h[1:]) < 0)[:req.zeros_half]
    t_start = float(x[zeros[-1]]) if zeros.size else 0.0
    return h_at, float(x[-1]), t_start


def _scan_value(req: SolveRequest, k: int) -> float:
    """s_k = scan_cap (1 + BRACKET_RTOL)^-k, the k-th value of the scan grid
    from the top: neighbours are BRACKET_RTOL / (1 + BRACKET_RTOL) of the
    upper one apart."""
    return req.scan_cap() * (1.0 + BRACKET_RTOL) ** -k


@dataclass(frozen=True)
class Shot:
    """What the bracket stage decided: the bracket (lo, hi) = (s_i, s_{i-1})
    of the scan grid at index i, in magnitude, for launches of the given
    sign, and the zero counts the search made, steering and certifying.  step is i less the prior's
    index when the search started from a prior, else None."""

    index: int
    lo: float
    hi: float
    counts: int
    sign: int
    step: int | None


def _level_step(params: ProblemParams) -> int:
    """ln(1/rho) / ln(1 + BRACKET_RTOL): the scan indices between two levels
    of one class, whose shooting parameters tend to the ratio
    rho = exp(-(m-1) pi / (2 kappa)), kappa = sqrt(omega - (m-1)^2/4)
    (Bizon 1995).  Only defined under the hypothesis."""
    m1 = params.m - 1
    kappa = math.sqrt(params.omega - 0.25 * m1 * m1)
    return round(m1 * math.pi / (2.0 * kappa) / math.log(1.0 + BRACKET_RTOL))


def _start(req: SolveRequest, prior: Shot | None) -> tuple | None:
    """(index, width): where shoot makes its first count, and its first step.

    Under the hypothesis the levels of one class lie about L = _level_step
    indices apart.  prior, the Shot of the same class's level two below,
    puts the level near its index plus its measured step (or L while it has
    none), within about CONTINUATION_WINDOW indices; alone, the level lies
    near index want L (want = req.zeros_half), within about L.  Outside the
    hypothesis rho does not exist: None, and the search takes the whole grid.
    """
    if not req.params.hypothesis():
        return None
    step = _level_step(req.params)
    if prior is not None:
        return prior.index + (step if prior.step is None else prior.step), CONTINUATION_WINDOW
    return req.zeros_half * step, max(1, step)


def shoot(req: SolveRequest, *, sign: int = 1, prior: Shot | None = None) -> Shot:
    """The bracket stage: the first pair of neighbours s_{i-1} > s_i of the
    scan grid, s_0 = scan_cap down to s_K, the first value at or below
    scan_cap 2^-SCAN_OCTAVES, across which the zero count passes the
    request.  The search assumes that the count does not decrease as s
    decreases along the grid.

    It counts first at _start's index, then steps toward the transition,
    doubling the step after each count, until the count changes side, and
    bisects the last step: a level d indices from the start costs about
    log2(width) + 2 log2(1 + d / width) counts, whatever K is.  A step past
    the end of the grid leaves the rest of it to the bisection.  Without a
    start, or with one outside 0..K, the bisection takes the whole grid, in
    at most ceil(log2(K + 2)) counts (15 at BRACKET_RTOL = 1e-3).

    These steering counts run at STEER_RTOL under STEER_STEP_FACTOR times
    _max_step, so near a transition they may answer wrongly.  Only the
    counts at the default settings certify: i is the bracket once they read
    the count at or below the request at s_{i-1} and above it at s_i (the
    grid's ends, -1 and K + 1, read so without a count).  Where one of the
    two does not, the same search goes on from that end at the default
    settings, first with a step of one index.  So every start, and every
    steering answer, finds the index that the default counts alone find.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    want = req.zeros_half
    made = 0

    def counts_above(rtol: float, step_factor: float):
        counter = _zero_counter(req.params, req.cutoff, want + 1, rtol, step_factor)

        def above(k: int) -> bool:
            nonlocal made
            made += 1
            return counter(*_launch(sign * _scan_value(req, k), req)) > want
        return above

    steer = counts_above(STEER_RTOL, STEER_STEP_FACTOR)
    exact = counts_above(COUNT_RTOL, COUNT_STEP_FACTOR)
    last = math.ceil(SCAN_OCTAVES * math.log(2.0) / math.log(1.0 + BRACKET_RTOL))

    def search(above, lo: int, hi: int, k: int, width: int) -> int:
        # the index lies in [lo, hi]: above(lo - 1) is False and above(hi)
        # True, with -1 and last + 1 standing for the ends of the grid.  A
        # count on the other side puts the next step past the last count's
        # index, outside [lo, hi), which ends the gallop
        while lo <= k < hi:
            if above(k):
                hi, k = k, k - width
            else:
                lo, k = k + 1, k + width
            width *= 2
        return bisect.bisect_left(range(last + 1), True, lo, hi, key=above)

    start = _start(req, prior)
    if start is not None and not 0 <= start[0] <= last:
        start = None        # off the grid: the gallop from its end costs more than the bisection
    # k = -1 skips the gallop and leaves the whole grid to the bisection
    k, width = (-1, 1) if start is None else start
    i = search(steer, 0, last + 1, k, width)
    if i > 0 and exact(i - 1):              # the transition lies before i
        i = search(exact, 0, i - 1, i - 2, 1)
    elif i <= last and not exact(i):        # it lies past i
        i = search(exact, i + 1, last + 1, i + 1, 1)
    if i == 0:
        raise NoBracketFound(
            f"zero count already exceeds {want} at the scan cap "
            f"{req.scan_cap():.6g}; the requested level may not exist "
            f"for these parameters")
    if i > last:
        raise NoBracketFound(
            f"no transition to zero count > {want} found while scanning down to "
            f"{_scan_value(req, last):.3e}; the requested level may not exist "
            f"for these parameters")
    return Shot(i, _scan_value(req, i), _scan_value(req, i - 1), made, sign,
                i - prior.index if start is not None and prior is not None else None)


def finish(req: SolveRequest, shot: Shot) -> Profile:
    """The Newton stage: the connecting profile seeded from the shot's
    bracket, checked for its zero count and its boundary gap."""
    # Seed from hi: its trajectory has no zero beyond the requested ones, so
    # it nears the limit, where _initial_guess blends in the tail.  A seed on
    # the lo side crosses once more first and leaves a jump at the cut end
    # whose residual grows like 1/dx^2.
    s_star = shot.sign * shot.hi
    limit = shot.sign * (1 if req.zeros_half % 2 == 0 else -1) * HALF_PI
    xs = half_grid(req.cutoff, req.grid_size)
    guess = _initial_guess(*_seed(s_star, req), req, xs, limit)
    u, res_norm, iters = _newton(xs, guess, req.params, req.symmetry_class, limit,
                                 tol=req.newton_tol)
    hyp = "" if req.params.hypothesis() else "; outside guaranteed regime"
    prof = Profile(req.params, req.symmetry_class, req.cutoff, u,
                   residual_norm=res_norm,
                   provenance=(f"shooting s*={s_star:.17g} "
                               f"(bracket width {shot.hi - shot.lo:.2e}), newton iters={iters}"
                               f"{hyp}"))
    if prof.zero_count != req.total_zeros:
        raise PolishDiverged(f"polished profile has {prof.zero_count} interior zeros, "
                             f"requested {req.total_zeros}")
    gap = HALF_PI - abs(float(u[-1]))
    if gap > BOUNDARY_TOL:
        # the gap shrinks like exp(decay_rate x): this cutoff, rounded up,
        # brings it to BOUNDARY_TOL, on as many more nodes as keep dx
        cutoff = math.ceil(req.cutoff + math.log(gap / BOUNDARY_TOL)
                           / abs(decay_rate(req.params)))
        grid = 2 * round((req.grid_size - 1) * cutoff / (2.0 * req.cutoff)) + 1
        raise PolishDiverged(
            f"boundary gap {gap:.3e} exceeds {BOUNDARY_TOL:.1e}; increase the cutoff "
            f"to {cutoff} (grid size {grid} keeps dx)")
    return prof


def find_solution(req: SolveRequest, *, sign: int = 1) -> Profile:
    """Connecting profile with the requested parity and total zero count:
    the bracket stage without a prior, then the Newton stage.

    sign = -1 launches the scan with negated shooting parameters and returns
    the pointwise negation of the sign = +1 solution (the two are related by
    the h -> -h symmetry of the energy).  Outside the instability regime the
    solver still runs but labels its output accordingly.
    """
    return finish(req, shoot(req, sign=sign))


def solve_level(req: SolveRequest, *, prior: Shot | None = None) -> tuple:
    """(shot, profile, diagnostics): shoot from the prior, finish, and
    verify_solution, whose refusal raises PolishDiverged naming its failures.
    solve and sweep run it; find_solution is the same without verification."""
    shot = shoot(req, prior=prior)
    prof = finish(req, shot)
    diag = verify_solution(prof)
    if not diag.passed:
        raise PolishDiverged("verification refused: " + "; ".join(diag.failures))
    return shot, prof, diag


def _initial_guess(h_at, x_end: float, t_start: float, req: SolveRequest,
                   xs: np.ndarray, limit: float) -> np.ndarray:
    """The seed trajectory on the half grid xs, with its tail blended.

    The seed is h_at(x) on [0, x_end], as _seed gives it, and limit is
    its value at +inf.  Beyond the last requested zero (past t_start) the
    trajectory is replaced, from the point where it first comes within 3
    percent of the limit, by the linearised approach to it.  This removes
    the spurious departure the finite bracket width produces at large x and
    pins the zero count.
    """
    h = np.full(xs.size, limit)
    inside = xs <= x_end
    h[inside] = h_at(xs[inside])

    tail = np.flatnonzero((xs > t_start) & (np.sign(limit) * h >= 0.97 * HALF_PI))
    if tail.size:
        i0 = int(tail[0])
        h[i0:] = linear_tail(xs[i0:], xs[i0], h[i0], limit, decay_rate(req.params))[0]
    return np.clip(h, -HALF_PI, HALF_PI, out=h)


# -- Newton stage -------------------------------------------------------------

def newton_tolerance(dx: float) -> float:
    """Residual max-norm at which Newton stops on a grid of spacing dx.

    Rounding h (|h| <= pi/2) leaves the central-difference residual a floor
    of about eps (pi/2) / dx^2; converged iterations plateau at 1.1-1.3
    times it, so four times it is reachable on every grid.
    """
    return 4.0 * np.finfo(float).eps * HALF_PI / (dx * dx)


def _interior_residual(grid, u, dx, params):
    """core.el_residual on second-order central differences, interior nodes."""
    d2 = ((u[2:] - u[1:-1]) - (u[1:-1] - u[:-2])) / (dx * dx)
    d1 = (u[2:] - u[:-2]) / (2.0 * dx)
    return el_residual(grid[1:-1], u[1:-1], d1, d2, params)


def _newton(xs, u0, params, symmetry_class, limit, *, tol):
    """Damped Newton on the half grid xs from u0, toward limit at the cut
    end: (u, residual max-norm, iterations).  An odd profile has u_0 = 0 and
    solves for u_1.. only.

    The residual's rows are row 0 with the ghost node u_-1 = u_1 (an even
    profile's), the interior rows, and the Robin row at X with its ghost node
    eliminated.  What they and their tridiagonal Jacobian take from the grid
    alone is built once, here; each step is one LAPACK gtsv solve.
    """
    first = 1 if symmetry_class == "odd" else 0
    lam = decay_rate(params)
    om = params.omega
    dx = xs[1] - xs[0]      # grid_spacing(X, N), bitwise
    # (m-1) tanh x, (omega/2)(1+nu), omega (1+nu) and the Robin row's
    # constants, each factor in core.el_residual's order; tanh and nu act
    # elementwise, so their samples on the whole grid are those of any slice
    mt = (params.m - 1) * np.tanh(xs)
    w = 1.0 + params.nu_at(xs)
    half_w, w = 0.5 * om * w, om * w
    robin_dx, robin_tanh = 2.0 * dx * lam, (params.m - 1) * math.tanh(xs[-1]) * lam
    diag_end = (-2.0 + robin_dx) / dx ** 2 - mt[-1] * lam
    # the off-diagonals: the ghost node u_-1 = u_1 doubles row 0's
    # super-diagonal entry, and the Robin row's doubles its sub-diagonal one
    du = np.empty(xs.size - 1)
    dl = np.empty(xs.size - 1)
    du[0] = dl[-1] = 2.0 / dx ** 2
    du[1:], dl[:-1] = couplings(mt[1:-1], dx)
    du, dl = du[first:], dl[first:]

    def residual(u):
        g = np.empty_like(u)
        g[0] = 2.0 * (u[1] - u[0]) / (dx * dx) + half_w[0] * np.sin(2.0 * u[0])
        # one expression, so that each temporary is freed once it is used
        g[1:-1] = ((u[2:] - u[1:-1]) - (u[1:-1] - u[:-2])) / (dx * dx) \
            - mt[1:-1] * ((u[2:] - u[:-2]) / (2.0 * dx)) + half_w[1:-1] * np.sin(2.0 * u[1:-1])
        g[-1] = (2.0 * (u[-2] - u[-1]) + robin_dx * (u[-1] - limit)) / (dx * dx) \
            - robin_tanh * (u[-1] - limit) + half_w[-1] * math.sin(2.0 * u[-1])
        return g[first:]

    u = np.array(u0, dtype=float)
    u[:first] = 0.0
    res = residual(u)
    fnorm = float(np.max(np.abs(res)))
    # A smooth guess has fnorm * dx^2 of a few 1e-3 at most; a jump of pi at
    # one node puts it at 3 to 6.
    if fnorm * dx * dx > 1.0:
        raise PolishDiverged(f"initial guess residual {fnorm:.3e} is above 1/dx^2 = "
                             f"{1.0 / (dx * dx):.3e}: too rough")
    iters = 0
    while fnorm > tol:
        if iters >= MAX_NEWTON_ITER:
            raise PolishDiverged(f"no convergence after {MAX_NEWTON_ITER} Newton steps "
                                 f"(residual {fnorm:.3e})")
        d = -2.0 / dx ** 2 + w * np.cos(2.0 * u)
        d[-1] = diag_end + w[-1] * math.cos(2.0 * u[-1])
        delta, info = dgtsv(dl, d[first:], du, -res, overwrite_d=1, overwrite_b=1)[3:]
        if info > 0:
            raise PolishDiverged(f"singular Newton system at residual {fnorm:.3e}")
        step = 1.0
        for _ in range(12):
            u_try = u.copy()
            u_try[first:] += step * delta
            res_try = residual(u_try)
            f_try = float(np.max(np.abs(res_try)))
            if f_try < fnorm:
                u, res, fnorm = u_try, res_try, f_try
                break
            step *= 0.5
        else:
            raise PolishDiverged(f"line search stalled at residual {fnorm:.3e}")
        iters += 1
    return u, fnorm, iters


def newton_polish(prof: Profile, req: SolveRequest) -> Profile:
    """Polish an approximate profile on its own grid.

    Only req.newton_tol is used, so build req on the profile's grid.  The
    limit sign for the Robin condition is read off the profile's value at
    the cut end.  The result keeps the input's symmetry class.
    """
    u, res_norm, iters = _newton(half_grid(prof.cutoff, prof.n), prof.half_h, prof.params,
                                 prof.symmetry_class,
                                 math.copysign(HALF_PI, prof.half_h[-1]), tol=req.newton_tol)
    return Profile(prof.params, prof.symmetry_class, prof.cutoff, u,
                   residual_norm=res_norm,
                   provenance=prof.provenance + f"; newton polish iters={iters}")


# -- diagnostics --------------------------------------------------------------

@dataclass(frozen=True)
class SolutionDiagnostics:
    """verify_solution output: residuals, the boundary gap, monotonicity of
    the Lyapunov quantity and energy margin below the singular level."""

    residual_max: float
    residual_rms: float
    boundary_gap: float
    w_violation: float
    energy_value: float
    energy_margin: float
    constraint_excess: float
    singular_branch: bool
    failures: tuple
    passed: bool


def verify_solution(prof: Profile) -> SolutionDiagnostics:
    """Independent checks on a claimed connecting profile.

    The equator branch (boundary value far from +-pi/2) is flagged rather
    than scored against the boundary and energy-margin checks it cannot
    meet: it is a genuine critical point but not a connecting profile.
    The profile is even or odd, so h(X) and W on x > 0 speak for both ends.
    """
    p = prof.params
    grid, h, dh = prof.grid, prof.h, prof.dh
    r = _interior_residual(grid, h, prof.dx, p)
    residual_max = float(np.max(np.abs(r)))
    residual_rms = float(np.sqrt(np.mean(r * r)))

    gap = float(HALF_PI - abs(h[-1]))
    singular = abs(float(h[-1])) < 0.25

    support = 0.0 if p.nu is None else p.nu.support_radius
    right = grid > support
    w = lyapunov_W(grid[right], h[right], dh[right], p)
    w_violation = max(0.0, -float(np.min(np.diff(w)))) if w.size > 1 else 0.0

    e = energy(prof)
    margin = clearance(prof)
    excess = max(0.0, prof.sup_norm - HALF_PI)

    failures = []
    if residual_max > RESIDUAL_TOL:
        failures.append(f"residual max {residual_max:.3e} exceeds {RESIDUAL_TOL:.1e}")
    if singular:
        failures.append("boundary values sit on the equator branch, not a connecting profile")
    elif gap > BOUNDARY_TOL:
        failures.append(f"boundary gap {gap:.3e} exceeds {BOUNDARY_TOL:.1e}")
    if w_violation > W_TOL:
        failures.append(f"Lyapunov monotonicity violated by {w_violation:.3e}")
    if not singular and not margin > 0:     # NaN too
        failures.append("energy does not sit strictly below the singular level")
    if excess > 0:
        failures.append(f"constraint band exceeded by {excess:.3e}")

    return SolutionDiagnostics(
        residual_max=residual_max, residual_rms=residual_rms,
        boundary_gap=gap,
        w_violation=w_violation, energy_value=e, energy_margin=margin,
        constraint_excess=excess,
        singular_branch=singular, failures=tuple(failures),
        passed=not failures)
