"""Shooting construction of connecting profiles, with a Newton finish.

Solutions with a prescribed number of interior zeros are found on the half
line by a two-stage process:

1. Count zeros of h on (0, cutoff), before the trajectory leaves the band
   |h| <= pi/2 + margin, as a function of the free initial value s (the
   slope at 0 for odd profiles, the height at 0 for even ones).  The count
   steps up as s decreases; each step is the parameter of a connecting
   orbit.  A binary search over a fixed grid of s values brackets the step
   for the requested count, and bisection narrows it to a relative width of
   1e-3 (never below 1e-14 absolute).  Every trajectory runs scipy's
   compiled DOP853.  The search and the bisection only ask whether the
   count exceeds the request, so each run stops at the sign change that
   settles it, keeps no step record and runs at the looser COUNT_RTOL: a
   count only says which side of a transition s lies on, and its relative
   error in s, about steps * COUNT_RTOL, is far below the bracket's width.
   The one seed trajectory runs at RTOL and records every accepted step.

2. The trajectory at the bracket end without an extra zero, mirrored by
   parity and blended into the linearised tail toward +-pi/2, seeds a
   damped Newton iteration on the central-difference discretisation of the
   full-line boundary value problem, with Robin conditions
   (pi/2 -+ h)' = lambda_- (pi/2 -+ h) carrying the exponential decay at
   the cut ends.  Both of Newton's thresholds follow from the grid spacing
   dx, since the residual's second differences scale like 1/dx^2: it stops
   once the residual max-norm is below newton_tolerance(dx), four times the
   roundoff floor eps (pi/2) / dx^2, and it refuses a guess whose residual
   is above 1/dx^2 as too rough.

The shooting stage only needs to deliver the topology (zero count and limit
signs); all quantitative accuracy comes from the Newton stage.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import ode, solve_ivp
from scipy.interpolate import BPoly
from scipy.linalg import solve_banded

from .core import (
    DEFAULT_CUTOFF,
    DEFAULT_GRID_SIZE,
    HALF_PI,
    TOL_SYM,
    Profile,
    ProblemParams,
    count_zero_crossings,
    decay_rate,
    derivative_samples,
    el_residual,
    energy,
    linear_tail,
    lyapunov_W,
    singular_energy,
    symmetric_grid,
)


# Fixed numerical controls of the solver.
EXIT_MARGIN = 1e-3      # how far past pi/2 the exit wall stands
EXIT_WALL = HALF_PI + EXIT_MARGIN   # a trajectory has exited once |h| > EXIT_WALL
BRACKET_RTOL = 1e-3     # width, relative to the scan bracket's top, that seeds the Newton finish
BRACKET_TOL = 1e-14     # absolute floor of that width
MAX_NEWTON_ITER = 25
BOUNDARY_TOL = 1e-6     # largest accepted end gap pi/2 - |h|
SCAN_POINTS = 24        # uniform scan values below the cap, before the geometric ones
RTOL = 1e-11            # DOP853 tolerances
ATOL = 1e-13
COUNT_RTOL = 1e-8       # DOP853 relative tolerance of the scan's zero counts

# verify_solution's thresholds, besides BOUNDARY_TOL and core.TOL_SYM.
RESIDUAL_TOL = 1e-8     # interior residual max-norm
W_TOL = 1e-8            # allowed decrease of the Lyapunov quantity W outside nu's support


class OutcomeKind(Enum):
    OVERSHOOT_POSITIVE = "overshoot_positive"
    OVERSHOOT_NEGATIVE = "overshoot_negative"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class ShootingOutcome:
    """Classification of one trajectory: exit direction (if any), number of
    zeros of h on (0, x_exit), and where integration stopped."""

    kind: OutcomeKind
    zero_count_half: int
    x_exit: float
    message: str = ""


@dataclass(frozen=True)
class Trajectory:
    """Half-line integration record; dense evaluation valid on [0, x_end]."""

    h0: float
    dh0: float
    x_end: float
    crossings: tuple
    outcome: ShootingOutcome
    dense: object = None

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
    """Newton polishing failed to converge or broke an invariant."""


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
        if self.symmetry_class == "odd" and self.total_zeros % 2 == 0:
            raise ValueError("odd class requires an odd total zero count")
        if self.symmetry_class == "even" and self.total_zeros % 2 == 1:
            raise ValueError("even class requires an even total zero count")
        if math.tanh(self.cutoff) < 0.999:
            raise ValueError("cutoff too small: need tanh(cutoff) >= 0.999")
        if self.grid_size < 5 or self.grid_size % 2 == 0:
            raise ValueError("grid_size must be odd and >= 5")
        if self.newton_tol > RESIDUAL_TOL:
            # finest spacing whose stopping tolerance verify_solution accepts
            dx_min = math.sqrt(newton_tolerance(1.0) / RESIDUAL_TOL)
            raise ValueError(
                f"grid_size {self.grid_size} too fine for cutoff {self.cutoff:g}: Newton "
                f"stops at residual {self.newton_tol:.3e}, above the certificate's "
                f"{RESIDUAL_TOL:.0e}; use grid_size <= {1 + 2 * int(self.cutoff / dx_min)}")

    @property
    def newton_tol(self) -> float:
        """Residual max-norm the Newton finish must reach on this grid."""
        return newton_tolerance(2.0 * self.cutoff / (self.grid_size - 1))

    @property
    def zeros_half(self) -> int:
        """Zeros requested on the open half line (0, inf)."""
        if self.symmetry_class == "odd":
            return (self.total_zeros - 1) // 2
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
    It returns a list because scipy's ode rejects tuples.
    """
    m1 = params.m - 1
    om = params.omega
    if params.nu is None:
        def rhs(x, y):
            h, dh = y.tolist()
            return [dh, m1 * math.tanh(x) * dh - 0.5 * om * math.sin(2.0 * h)]
    else:
        nu = params.nu

        def rhs(x, y):
            h, dh = y.tolist()
            return [dh, m1 * math.tanh(x) * dh
                    - 0.5 * om * (1.0 + float(nu(x))) * math.sin(2.0 * h)]
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
    if h0 == 0.0 and dh0 == 0.0:
        out = ShootingOutcome(OutcomeKind.UNDECIDED, 0, cutoff, "equilibrium at 0")
        return Trajectory(h0, dh0, cutoff, (), out, None)

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

    sol = solve_ivp(_rhs(params), (0.0, float(cutoff)), (float(h0), float(dh0)),
                    method="DOP853", dense_output=True,
                    events=(crossing, exit_up, exit_down),
                    rtol=RTOL, atol=ATOL, max_step=_max_step(params))

    # drop the event the root finder reports when the start itself sits at h = 0
    crossings = tuple(t for t in sol.t_events[0] if t > 1e-9)
    x_end = float(sol.t[-1])

    if sol.status == 1:
        if len(sol.t_events[1]):
            kind = OutcomeKind.OVERSHOOT_POSITIVE
        else:
            kind = OutcomeKind.OVERSHOOT_NEGATIVE
        out = ShootingOutcome(kind, len(crossings), x_end)
    elif sol.status == 0:
        out = ShootingOutcome(OutcomeKind.UNDECIDED, len(crossings), float(cutoff))
    else:
        out = ShootingOutcome(OutcomeKind.UNDECIDED, len(crossings), x_end,
                              f"integrator stopped early: {sol.message}")
    return Trajectory(float(h0), float(dh0), x_end, crossings, out, sol.sol)


def _dop853(params: ProblemParams, rtol: float, solout):
    """scipy's compiled DOP853 (Hairer's code, the method solve_ivp
    re-implements in Python) at rtol, with integrate's ATOL and step cap.
    solout(x, y) runs after each accepted step, the start included, and
    stops the run by returning -1."""
    # solve_ivp has no step limit, so neither has this run
    dop = ode(_rhs(params)).set_integrator("dop853", rtol=rtol, atol=ATOL,
                                           max_step=_max_step(params), nsteps=2 ** 31 - 1)
    dop.set_solout(solout)
    return dop


def _zero_counter(params: ProblemParams, cutoff: float, limit: int):
    """count(h0, dh0): min(limit, the zero_count_half that integrate
    reports), without the dense output and events the scan and the
    bisection never use.

    Each count is one run of the compiled DOP853 with integrate's exit
    wall.  After each accepted step, solout counts a sign change of h and
    stops the run once |h| > EXIT_WALL, or at the limit-th sign change: a
    solve only asks whether a count exceeds its request, so it passes the
    request plus one as the limit and integrates no zero past that.

    The relative tolerance is COUNT_RTOL, not RTOL.  A count only decides
    which side of a transition s lies on, and the bisection stops at a
    relative width of BRACKET_RTOL.  An error made along a run maps back to
    a relative shift in s of about steps * COUNT_RTOL, below 1e-6 for the
    few dozen accepted steps a run takes, so far below that width, and a
    solve makes 0.49-0.66 times the right-hand-side evaluations it makes at
    RTOL.  The seed trajectory, which Newton starts from, stays at RTOL in
    its own run (_seed).

    Build one counter per solve and reuse it for every count.  scipy's
    dop853 wrapper never frees an integrator: it keeps about 1.1 KB per new
    one, with its solout, and 64 B per set_initial_value.  It is not
    re-entrant either.  So a counter is neither made per count nor kept at
    module level.
    """
    state = [0.0, 0]            # h at the last accepted step, sign changes so far

    def solout(x, y):
        # a Python float: comparing numpy scalars costs a third more per step
        h, h_prev = y.item(0), state[0]
        if h < 0.0 < h_prev or h_prev < 0.0 < h:
            state[1] += 1
            if state[1] >= limit:
                return -1
        state[0] = h
        return -1 if abs(h) > EXIT_WALL else 0

    dop = _dop853(params, COUNT_RTOL, solout)

    def count(h0: float, dh0: float) -> int:
        _check_start(h0)
        if h0 == 0.0 and dh0 == 0.0:
            return 0
        state[:] = [h0, 0]
        dop.set_initial_value((h0, dh0), 0.0)
        dop.integrate(cutoff)
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

    One compiled DOP853 run at RTOL, to integrate's exit wall, records
    (x, h, h') after each accepted step; x_end is the last step.  h_at is
    the quintic Hermite interpolant of (h, h', h'') on [0, x_end], with h''
    from the equation.  A cubic through (h, h') alone would stray up to
    3e-6 from solve_ivp's dense output on steps of 0.2, enough to change a
    Newton iteration count; the quintic strays about 1e-9.  t_start is the
    step just before the last requested zero (0 with none): h has the
    limit's sign beyond that zero, and the opposite sign on the way to it.
    """
    steps = []

    def solout(x, y):
        h, dh = y.tolist()
        steps.append((x, h, dh))
        return -1 if abs(h) > EXIT_WALL else 0

    dop = _dop853(req.params, RTOL, solout)
    dop.set_initial_value(_launch(s, req), 0.0)
    dop.integrate(req.cutoff)
    x, h, dh = np.array(steps).T
    # scipy never frees the integrator, which holds solout and so this list
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


def _scan_values(req: SolveRequest) -> np.ndarray:
    cap = req.scan_cap()
    uniform = cap * np.arange(SCAN_POINTS, 0, -1) / SCAN_POINTS
    geometric = cap * 0.5 ** np.arange(1, 45)
    vals = np.unique(np.concatenate([uniform, geometric]))[::-1]
    return vals


def find_solution(req: SolveRequest, *, sign: int = 1) -> Profile:
    """Connecting profile with the requested parity and total zero count.

    The bracket is the first pair of neighbours in _scan_values(req), from
    the top down, across which the zero count passes the request.  A binary
    search finds it, so it assumes, as the bisection within the bracket
    does, that the count does not decrease as s decreases along the scan
    grid.

    sign = -1 launches the scan with negated shooting parameters and returns
    the pointwise negation of the sign = +1 solution (the two are related by
    the h -> -h symmetry of the energy).  Outside the instability regime the
    solver still runs but labels its output accordingly.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be +1 or -1")
    want = req.zeros_half
    counter = _zero_counter(req.params, req.cutoff, want + 1)

    def count(s_mag: float) -> int:
        return counter(*_launch(sign * s_mag, req))

    vals = _scan_values(req)
    i = bisect.bisect_left(vals, True, key=lambda s: count(s) > want)
    if i == 0:
        raise NoBracketFound(
            f"zero count already exceeds {want} at the scan cap "
            f"{req.scan_cap():.6g}; the requested level may not exist "
            f"for these parameters")
    if i == len(vals):
        raise NoBracketFound(
            f"no transition to zero count > {want} found while scanning down to "
            f"{vals[-1]:.3e}; the requested level may not exist "
            f"for these parameters")
    lo, hi = vals[i], vals[i - 1]

    width = max(BRACKET_RTOL * hi, BRACKET_TOL)
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        if count(mid) <= want:
            hi = mid
        else:
            lo = mid
    # Seed from hi: its trajectory has no zero beyond the requested ones, so
    # it nears the limit, where _initial_guess blends in the tail.  A seed on
    # the lo side crosses once more first and leaves a jump at the cut end
    # whose residual grows like 1/dx^2.
    l_plus = sign * (1 if want % 2 == 0 else -1) * HALF_PI
    l_minus = l_plus if req.symmetry_class == "even" else -l_plus
    grid = symmetric_grid(req.cutoff, req.grid_size)
    guess = _initial_guess(*_seed(sign * hi, req), req, grid, l_plus)
    u, res_norm, iters = _newton_finish(grid, guess, req.params, req.symmetry_class,
                                        l_plus, l_minus, tol=req.newton_tol)
    if res_norm > req.newton_tol:
        raise PolishDiverged(f"residual {res_norm:.3e} above tolerance after symmetrisation")

    zeros = count_zero_crossings(u)
    if zeros != req.total_zeros:
        raise PolishDiverged(
            f"polished profile has {zeros} interior zeros, requested {req.total_zeros}")
    gap_r = HALF_PI - abs(float(u[-1]))
    gap_l = HALF_PI - abs(float(u[0]))
    if max(gap_l, gap_r) > BOUNDARY_TOL:
        raise PolishDiverged(
            f"boundary gap {max(gap_l, gap_r):.3e} exceeds {BOUNDARY_TOL:.1e}; "
            f"increase the cutoff")

    hyp = "" if req.params.hypothesis() else "; outside guaranteed regime"
    prof = Profile(grid, u, derivative_samples(u, grid[1] - grid[0]), req.params,
                   symmetry_class=req.symmetry_class,
                   residual_norm=res_norm,
                   provenance=(f"shooting s*={sign * hi:.17g} "
                               f"(bracket width {hi - lo:.2e}), newton iters={iters}"
                               f"{hyp}"))
    return prof


def _initial_guess(h_at, x_end: float, t_start: float, req: SolveRequest,
                   grid: np.ndarray, limit: float) -> np.ndarray:
    """Mirror the seed trajectory onto the full grid and blend its tail.

    The seed is h_at(x) on [0, x_end], as _seed gives it, and limit is
    its value at +inf.  Beyond the last requested zero (past t_start) the
    trajectory is replaced, from the point where it first comes within 3
    percent of the limit, by the linearised approach to it.  This removes
    the spurious departure the finite bracket width produces at large x and
    pins the zero count.
    """
    xs = grid[grid.size // 2:]
    h = np.full(xs.size, limit)
    inside = xs <= x_end
    h[inside] = h_at(xs[inside])

    tail = np.flatnonzero((xs > t_start) & (np.sign(limit) * h >= 0.97 * HALF_PI))
    if tail.size:
        i0 = int(tail[0])
        h[i0:] = linear_tail(xs[i0:], xs[i0], h[i0], limit, decay_rate(req.params))[0]
    np.clip(h, -HALF_PI, HALF_PI, out=h)

    if req.symmetry_class == "odd":
        return np.concatenate([-h[:0:-1], h])
    return np.concatenate([h[:0:-1], h])


# -- Newton stage -------------------------------------------------------------

def newton_tolerance(dx: float) -> float:
    """Residual max-norm at which Newton stops on a grid of spacing dx.

    Rounding h (|h| <= pi/2) leaves the central-difference residual a floor
    of about eps (pi/2) / dx^2; converged iterations plateau at 1.1-1.3
    times it, so four times it is reachable on every grid.
    """
    return 4.0 * np.finfo(float).eps * HALF_PI / (dx * dx)


def _interior_residual(grid, u, params):
    """core.el_residual on second-order central differences, interior nodes."""
    dx = grid[1] - grid[0]
    d2 = ((u[2:] - u[1:-1]) - (u[1:-1] - u[:-2])) / (dx * dx)
    d1 = (u[2:] - u[:-2]) / (2.0 * dx)
    return el_residual(grid[1:-1], u[1:-1], d1, d2, params)


def _full_residual(grid, u, params, l_plus, l_minus, lam):
    """Discrete residual including the Robin rows (ghost nodes eliminated)."""
    m1 = params.m - 1
    om = params.omega
    dx = grid[1] - grid[0]
    nu = params.nu_at(grid[[0, -1]])
    g = np.empty_like(u)
    g[1:-1] = _interior_residual(grid, u, params)
    g[0] = (2.0 * (u[1] - u[0]) + 2.0 * dx * lam * (u[0] - l_minus)) / (dx * dx) \
        + m1 * math.tanh(grid[0]) * lam * (u[0] - l_minus) \
        + 0.5 * om * (1.0 + nu[0]) * math.sin(2.0 * u[0])
    g[-1] = (2.0 * (u[-2] - u[-1]) + 2.0 * dx * lam * (u[-1] - l_plus)) / (dx * dx) \
        - m1 * math.tanh(grid[-1]) * lam * (u[-1] - l_plus) \
        + 0.5 * om * (1.0 + nu[-1]) * math.sin(2.0 * u[-1])
    return g


def _jacobian_banded(grid, u, params, lam):
    m1 = params.m - 1
    om = params.omega
    dx = grid[1] - grid[0]
    nu = params.nu_at(grid)
    n = u.size
    ab = np.zeros((3, n))
    t = np.tanh(grid)
    # interior rows
    ab[0, 2:] = 1.0 / dx ** 2 - m1 * t[1:-1] / (2.0 * dx)          # super
    ab[1, 1:-1] = -2.0 / dx ** 2 + om * (1.0 + nu[1:-1]) * np.cos(2.0 * u[1:-1])
    ab[2, :-2] = 1.0 / dx ** 2 + m1 * t[1:-1] / (2.0 * dx)         # sub
    # Robin rows
    ab[1, 0] = (-2.0 + 2.0 * dx * lam) / dx ** 2 + m1 * t[0] * lam \
        + om * (1.0 + nu[0]) * math.cos(2.0 * u[0])
    ab[0, 1] = 2.0 / dx ** 2
    ab[1, -1] = (-2.0 + 2.0 * dx * lam) / dx ** 2 - m1 * t[-1] * lam \
        + om * (1.0 + nu[-1]) * math.cos(2.0 * u[-1])
    ab[2, -2] = 2.0 / dx ** 2
    return ab


def _newton(grid, u0, params, l_plus, l_minus, lam, *, tol):
    u = np.array(u0, dtype=float)
    res = _full_residual(grid, u, params, l_plus, l_minus, lam)
    fnorm = float(np.max(np.abs(res)))
    # A smooth guess has fnorm * dx^2 of a few 1e-3 at most; a jump of pi at
    # one node puts it at 3 to 6.
    dx = grid[1] - grid[0]
    if fnorm * dx * dx > 1.0:
        raise PolishDiverged(f"initial guess residual {fnorm:.3e} is above 1/dx^2 = "
                             f"{1.0 / (dx * dx):.3e}: too rough")
    iters = 0
    while fnorm > tol:
        if iters >= MAX_NEWTON_ITER:
            raise PolishDiverged(f"no convergence after {MAX_NEWTON_ITER} Newton steps "
                                 f"(residual {fnorm:.3e})")
        ab = _jacobian_banded(grid, u, params, lam)
        delta = solve_banded((1, 1), ab, -res)
        step = 1.0
        for _ in range(12):
            u_try = u + step * delta
            res_try = _full_residual(grid, u_try, params, l_plus, l_minus, lam)
            f_try = float(np.max(np.abs(res_try)))
            if f_try < fnorm:
                u, res, fnorm = u_try, res_try, f_try
                break
            step *= 0.5
        else:
            raise PolishDiverged(f"line search stalled at residual {fnorm:.3e}")
        iters += 1
    return u, iters


def _newton_finish(grid, u0, params, symmetry_class, l_plus, l_minus, *, tol):
    """Newton, then exact parity pinning, then the residual of the pinned
    profile: (u, residual max-norm, Newton iterations)."""
    lam = decay_rate(params)
    u, iters = _newton(grid, u0, params, l_plus, l_minus, lam, tol=tol)
    # parity is preserved by the symmetric discretisation; pin it exactly
    if symmetry_class == "odd":
        u = 0.5 * (u - u[::-1])
    elif symmetry_class == "even":
        u = 0.5 * (u + u[::-1])
    res_norm = float(np.max(np.abs(_full_residual(grid, u, params, l_plus, l_minus, lam))))
    return u, res_norm, iters


def newton_polish(prof: Profile, req: SolveRequest) -> Profile:
    """Polish an approximate profile on its own grid.

    Only req.newton_tol is used, so build req on the profile's grid.  Limit
    signs for the Robin conditions are read off the boundary values of
    the input.  The result keeps the input's symmetry class (re-pinned
    exactly when one is declared).
    """
    grid = prof.grid
    l_plus = math.copysign(HALF_PI, prof.h[-1])
    l_minus = math.copysign(HALF_PI, prof.h[0])
    u, res_norm, iters = _newton_finish(grid, prof.h, prof.params, prof.symmetry_class,
                                        l_plus, l_minus, tol=req.newton_tol)
    return Profile(grid, u, derivative_samples(u, grid[1] - grid[0]), prof.params,
                   symmetry_class=prof.symmetry_class,
                   residual_norm=res_norm,
                   provenance=prof.provenance + f"; newton polish iters={iters}")


# -- diagnostics --------------------------------------------------------------

@dataclass(frozen=True)
class SolutionDiagnostics:
    """verify_solution output: residuals, boundary gaps, monotonicity of the
    Lyapunov quantity, energy margin below the singular level, symmetry."""

    residual_max: float
    residual_rms: float
    boundary_gap_left: float
    boundary_gap_right: float
    w_violation: float
    energy_value: float
    energy_margin: float
    symmetry_defect: float
    constraint_excess: float
    singular_branch: bool
    failures: tuple
    passed: bool


def verify_solution(prof: Profile) -> SolutionDiagnostics:
    """Independent checks on a claimed connecting profile.

    The equator branch (boundary values far from +-pi/2) is flagged rather
    than scored against the boundary and energy-margin checks it cannot
    meet: it is a genuine critical point but not a connecting profile.
    """
    p = prof.params
    grid, h, dh = prof.grid, prof.h, prof.dh
    r = _interior_residual(grid, h, p)
    residual_max = float(np.max(np.abs(r)))
    residual_rms = float(np.sqrt(np.mean(r * r)))

    gap_l = float(HALF_PI - abs(h[0]))
    gap_r = float(HALF_PI - abs(h[-1]))
    singular = max(abs(float(h[0])), abs(float(h[-1]))) < 0.25

    support = 0.0 if p.nu is None else p.nu.support_radius
    w = lyapunov_W(grid, h, dh, p)
    right = grid > support
    left = grid < -support
    viol = 0.0
    if np.count_nonzero(right) > 1:
        viol = max(viol, -float(np.min(np.diff(w[right]))))
    if np.count_nonzero(left) > 1:
        viol = max(viol, float(np.max(np.diff(w[left]))))
    w_violation = max(0.0, viol)

    e = energy(prof)
    margin = singular_energy(p) - e
    sym = prof.symmetry_defect()
    excess = max(0.0, prof.sup_norm - HALF_PI)

    failures = []
    if residual_max > RESIDUAL_TOL:
        failures.append(f"residual max {residual_max:.3e} exceeds {RESIDUAL_TOL:.1e}")
    if singular:
        failures.append("boundary values sit on the equator branch, not a connecting profile")
    elif max(gap_l, gap_r) > BOUNDARY_TOL:
        failures.append(f"boundary gap {max(gap_l, gap_r):.3e} exceeds {BOUNDARY_TOL:.1e}")
    if w_violation > W_TOL:
        failures.append(f"Lyapunov monotonicity violated by {w_violation:.3e}")
    if not singular and margin <= 0:
        failures.append("energy does not sit strictly below the singular level")
    if prof.symmetry_class != "none" and sym > TOL_SYM:
        failures.append(f"symmetry defect {sym:.3e} exceeds {TOL_SYM:.1e}")
    if excess > 0:
        failures.append(f"constraint band exceeded by {excess:.3e}")

    return SolutionDiagnostics(
        residual_max=residual_max, residual_rms=residual_rms,
        boundary_gap_left=gap_l, boundary_gap_right=gap_r,
        w_violation=w_violation, energy_value=e, energy_margin=float(margin),
        symmetry_defect=sym, constraint_excess=excess,
        singular_branch=singular, failures=tuple(failures),
        passed=not failures)
