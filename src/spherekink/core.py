"""Shared substrate for the reduced equivariant harmonic-map problem.

A rotationally equivariant map between spheres built over an eigenmap with
eigenvalue omega reduces to a scalar profile h(x) on the real line, where
x = log tan((theta + pi/2)/2) flattens the polar angle theta in (-pi/2, pi/2).
The profile satisfies

    h'' - (m - 1) tanh(x) h' + (omega/2) (1 + nu(x)) sin(2h) = 0,

the Euler-Lagrange equation of the weighted energy

    E(h) = (1/2) int [ (h')^2 + omega (1 + nu) cos^2 h ] sech^(m-1)(x) dx.

Here m >= 2 is the domain sphere dimension and nu is an optional even
perturbation with compact support and sup |nu| < 1.  The paper asks nu to
be C^2; NuPerturbation interpolates its samples linearly, so it is only
continuous and piecewise linear, with a kink at each sample (ROADMAP item
22).  The constant profile h = 0 (the "equator" or singular map) is a
critical point for every parameter choice; genuine solutions connect -pi/2
to pi/2 inside the constraint band |h| <= pi/2.

This module holds problem parameters, sampled profiles, the energy, its
clearance below the singular energy and related functionals, and the
linearised tail toward +-pi/2 (its decay rate and its formula) that the
solvers and resampling continue profiles with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline
from scipy.special import beta, betainc, gammaln

# The band check is absolute.
TOL_CONSTRAINT = 1e-9

# The standard discretisation: domain half-width X and grid points N.
DEFAULT_CUTOFF = 20.0
DEFAULT_GRID_SIZE = 4001

# Simpson grid for the nu correction to the singular energy; the cutoff is
# widened to 1.25 times nu's support radius when that is larger.
SINGULAR_NU_CUTOFF = 40.0
SINGULAR_NU_GRID = 16001

HALF_PI = math.pi / 2.0


def sech(x):
    return 1.0 / np.cosh(x)


def weight(x, m):
    """Integration weight sech^(m-1)(x)."""
    return sech(x) ** (m - 1)


@dataclass(frozen=True)
class NuPerturbation:
    """Even, compactly supported perturbation of the eigenvalue term.

    Represented by samples on its own symmetric grid and evaluated by
    linear interpolation, identically zero outside the sample window.
    Required: finite samples, sup |nu| < 1, even symmetry, vanishing
    endpoints.
    """

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 3:
            raise ValueError("nu needs matching 1-d grids with >= 3 samples")
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(v))):
            raise ValueError("nu samples must be finite")
        if np.any(np.diff(g) <= 0):
            raise ValueError("nu grid must be strictly increasing")
        if np.max(np.abs(g + g[::-1])) > 1e-12 * max(1.0, abs(g[-1])):
            raise ValueError("nu grid must be symmetric about 0")
        if np.max(np.abs(v - v[::-1])) > 1e-12:
            raise ValueError("nu must be an even function")
        if np.max(np.abs(v)) >= 1.0:
            raise ValueError("need sup |nu| < 1")
        if abs(v[0]) > 1e-14 or abs(v[-1]) > 1e-14:
            raise ValueError("nu must vanish at the ends of its sample window")
        g.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def support_radius(self) -> float:
        return float(self.grid[-1])

    def __call__(self, x):
        return np.interp(x, self.grid, self.values, left=0.0, right=0.0)


@dataclass(frozen=True)
class ProblemParams:
    """Domain dimension m >= 2, eigenvalue 0 < omega < inf, optional perturbation."""

    m: int
    omega: float
    nu: NuPerturbation | None = None

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 2:
            raise ValueError("m must be an integer >= 2")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "omega", float(self.omega))
        if not 0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")

    def nu_at(self, x):
        """nu sampled at x (scalar or array); zero when unset."""
        if self.nu is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return self.nu(x)

    def hypothesis(self) -> bool:
        """Whether (m-1)^2/4 < omega, the regime with unstable equator map."""
        return 0.25 * (self.m - 1) ** 2 < self.omega


def decay_rate(params: ProblemParams) -> float:
    """The negative root lam of  l^2 - (m-1) l - omega = 0.

    A connecting profile approaches its limits like  pi/2 - |h| ~ C exp(lam |x|).
    """
    m1 = params.m - 1
    return 0.5 * (m1 - math.sqrt(m1 * m1 + 4.0 * params.omega))


def linear_tail(x, x0: float, h0: float, limit: float, lam: float):
    """(h, h') of the linearised approach  h = limit - (limit - h0) exp(lam (x - x0))
    toward limit = +-pi/2, through h0 at x0."""
    gap = limit - h0
    expo = np.exp(lam * (x - x0))
    return limit - gap * expo, -lam * gap * expo


def grid_spacing(cutoff: float, n: int) -> float:
    """2 cutoff / (n - 1): the spacing of symmetric_grid(cutoff, n), which
    the first step of half_grid(cutoff, n) equals bitwise."""
    return 2.0 * cutoff / (n - 1)


def finite_cutoff(cutoff: float) -> float:
    """cutoff as a float; ValueError unless it is positive and finite."""
    if not 0.0 < cutoff < math.inf:
        raise ValueError("cutoff must be positive and finite")
    return float(cutoff)


def half_grid(cutoff: float, n: int) -> np.ndarray:
    """The (n + 1) / 2 nodes x >= 0 of symmetric_grid(cutoff, n), from x = 0."""
    cutoff = finite_cutoff(cutoff)
    if n < 3 or n % 2 == 0:
        raise ValueError("grid size must be odd and >= 3")
    return np.linspace(0.0, cutoff, (n + 1) // 2)


def symmetric_grid(cutoff: float, n: int) -> np.ndarray:
    """Uniform grid on [-cutoff, cutoff] with an odd point count.

    Built by mirroring the half grid so the nodes are symmetric bitwise and
    x = 0 is an exact node.
    """
    half = half_grid(cutoff, n)
    return np.concatenate([-half[:0:-1], half])


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Profile:
    """A profile of symmetry class even or odd, held as its half line.

    half_h holds h at the nodes half_grid(cutoff, n) of [0, cutoff], so n
    is 2 len(half_h) - 1.  The class mirrors it onto symmetric_grid(cutoff,
    n), negated for odd, so h is even or odd bitwise, and an odd profile has
    h(0) = 0 exactly.  grid, h and dh = derivative_samples(h, dx) are
    derived from these fields on first read, read-only like half_h.
    Invariants: at least 3 values on the half line, a positive finite
    cutoff, |h| <= pi/2 within TOL_CONSTRAINT, and h(0) = 0 when odd.
    """

    params: ProblemParams
    symmetry_class: str
    cutoff: float
    half_h: np.ndarray
    residual_norm: float | None = None
    provenance: str = ""

    def __post_init__(self):
        object.__setattr__(self, "cutoff", finite_cutoff(self.cutoff))
        object.__setattr__(self, "half_h", _frozen(np.array(self.half_h, dtype=float)))
        half_h = self.half_h
        if self.symmetry_class not in ("even", "odd"):
            raise ValueError(f"symmetry_class must be 'even' or 'odd', not {self.symmetry_class!r}")
        if half_h.ndim != 1 or half_h.size < 3:
            raise ValueError("half_h must be a 1-d array of >= 3 values")
        if not np.all(np.abs(half_h) <= HALF_PI + TOL_CONSTRAINT):
            raise ValueError("profile leaves the band |h| <= pi/2")
        if self.symmetry_class == "odd" and half_h[0] != 0.0:
            raise ValueError(f"an odd profile has h(0) = 0, not {float(half_h[0])!r}")

    @property
    def n(self) -> int:
        return 2 * self.half_h.size - 1

    @cached_property
    def grid(self) -> np.ndarray:
        return _frozen(symmetric_grid(self.cutoff, self.n))

    @cached_property
    def h(self) -> np.ndarray:
        left = self.half_h[:0:-1]
        return _frozen(np.concatenate([-left if self.symmetry_class == "odd" else left,
                                       self.half_h]))

    @cached_property
    def dh(self) -> np.ndarray:
        return _frozen(derivative_samples(self.h, self.dx))

    @property
    def dx(self) -> float:
        return grid_spacing(self.cutoff, self.n)

    @property
    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.half_h)))

    @cached_property
    def zero_count(self) -> int:
        """Interior zeros of h, counted once on first read."""
        return count_zero_crossings(self.h)


def count_zero_crossings(values) -> int:
    """Sign changes along a sampled function; exact zeros collapse into one."""
    s = np.sign(np.asarray(values, dtype=float))
    s = s[s != 0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(s[1:] != s[:-1]))


def derivative_samples(y, dx):
    """Fourth-order finite-difference derivative of uniformly sampled data."""
    y = np.asarray(y, dtype=float)
    if y.size < 5:
        raise ValueError("need at least 5 samples")
    d = np.empty_like(y)
    d[2:-2] = (-y[4:] + 8.0 * y[3:-1] - 8.0 * y[1:-3] + y[:-4]) / (12.0 * dx)
    d[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * dx)
    d[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * dx)
    d[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * dx)
    d[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * dx)
    return d


def singular_profile(params: ProblemParams, cutoff: float = DEFAULT_CUTOFF,
                     n: int = DEFAULT_GRID_SIZE) -> Profile:
    """The constant equator profile h = 0 sampled on the standard grid."""
    return Profile(params, "even", cutoff, np.zeros_like(half_grid(cutoff, n)),
                   residual_norm=0.0, provenance="singular equator map")


# -- pointwise quantities ---------------------------------------------------

def el_residual(x, h, dh, d2h, params: ProblemParams):
    """Left-hand side of the profile equation at given samples."""
    m, om = params.m, params.omega
    return d2h - (m - 1) * np.tanh(x) * dh + 0.5 * om * (1.0 + params.nu_at(x)) * np.sin(2.0 * np.asarray(h, dtype=float))


def lyapunov_W(x, h, dh, params: ProblemParams):
    """W = (1/2)(h')^2 + (omega/2)(1+nu) sin^2 h.

    Along solutions W' = (m-1) tanh(x) (h')^2 + (omega/2) nu' sin^2 h, so W
    is nondecreasing for x > 0 once nu's support is passed.
    """
    om = params.omega
    return 0.5 * np.asarray(dh, dtype=float) ** 2 + 0.5 * om * (1.0 + params.nu_at(x)) * np.sin(np.asarray(h, dtype=float)) ** 2


# -- energy and norms --------------------------------------------------------

def energy_arrays(grid, h, dh, params: ProblemParams) -> float:
    """Weighted energy of sampled (h, dh) arrays on a grid, by Simpson."""
    w = weight(grid, params.m)
    nu = params.nu_at(grid)
    integrand = 0.5 * (dh ** 2 + params.omega * (1.0 + nu) * np.cos(h) ** 2) * w
    return float(simpson(integrand, x=grid))


def energy(prof: Profile) -> float:
    """Composite-Simpson value of the weighted energy over the stored grid.

    The tail for |x| > cutoff is dropped: for connecting profiles the
    integrand there is exponentially small; for the equator branch choose
    the cutoff large enough that the weight tail is below the quadrature
    target.
    """
    return energy_arrays(prof.grid, prof.h, prof.dh, prof.params)


def singular_energy(params: ProblemParams) -> float:
    """Energy of the equator map h = 0.

    The unperturbed part is exact,
        (omega/2) int sech^(m-1) = (omega/2) sqrt(pi) Gamma((m-1)/2) / Gamma(m/2),
    and a nonzero nu adds (omega/2) int nu sech^(m-1), evaluated by Simpson
    on a grid wide enough to contain the support.
    """
    m, om = params.m, params.omega
    base = 0.5 * om * math.sqrt(math.pi) * math.exp(gammaln((m - 1) / 2.0) - gammaln(m / 2.0))
    if params.nu is None:
        return base
    r = params.nu.support_radius
    g = symmetric_grid(max(SINGULAR_NU_CUTOFF, 1.25 * r), SINGULAR_NU_GRID)
    corr = 0.5 * om * simpson(params.nu(g) * weight(g, m), x=g)
    return base + float(corr)


def clearance(prof: Profile) -> float:
    """The profile's clearance below the singular energy, without cancellation.

    The paper's levels approach the singular energy from below, so the
    clearance is what a level certifies.  It equals singular_energy minus
    energy, but that difference falls to roundoff within a few levels.
    Directly it is

        (1/2) int_{-X}^{X} [ omega (1 + nu) sin^2 h - (h')^2 ] sech^(m-1) dx
          + (omega/2) int_{|x| > X} (1 + nu) sech^(m-1) dx,

    the first term by Simpson on the profile's grid as in energy.  With
    n = m - 1 the unperturbed tail is (omega/2) B(n/2, 1/2) I_t(n/2, 1/2),
    t = sech^2 X, and nu adds its part beyond X only when its support
    reaches past X.
    """
    p, x = prof.params, prof.grid
    m, om, cut = p.m, p.omega, prof.cutoff
    inner = (om * (1.0 + p.nu_at(x)) * np.sin(prof.h) ** 2 - prof.dh ** 2) * weight(x, m)
    a = 0.5 * (m - 1)
    beyond = beta(a, 0.5) * betainc(a, 0.5, float(sech(cut)) ** 2)   # int_{|x|>X} (1 + nu) sech^(m-1)
    if p.nu is not None and p.nu.support_radius > cut:
        g = np.linspace(cut, p.nu.support_radius, SINGULAR_NU_GRID)
        beyond += 2.0 * simpson(p.nu(g) * weight(g, m), x=g)
    return 0.5 * float(simpson(inner, x=x) + om * beyond)


def weighted_norm(prof: Profile) -> float:
    """Norm of the weighted space: sqrt(int [(h')^2 + h^2] sech^(m-1) dx)."""
    w = weight(prof.grid, prof.params.m)
    return float(math.sqrt(simpson((prof.dh ** 2 + prof.h ** 2) * w, x=prof.grid)))


# -- resampling ---------------------------------------------------------------

def resample(prof: Profile, cutoff: float, n: int) -> Profile:
    """The profile on half_grid(cutoff, n), of the same class.

    Inside the original window a cubic spline through the profile is
    sampled.  Beyond it the right-hand end is continued with the linearised
    tail toward +-pi/2 when its value is close to +-pi/2, and as a constant
    otherwise (the equator branch has no decaying tail to follow); the class
    mirrors that onto the left.
    """
    xs = half_grid(cutoff, n)
    x0 = prof.cutoff
    inside = xs <= x0
    half_h = np.empty_like(xs)
    half_h[inside] = CubicSpline(prof.grid, prof.h)(xs[inside])
    h_b = float(prof.half_h[-1])
    if abs(h_b) >= 0.5 * HALF_PI:
        half_h[~inside] = linear_tail(xs[~inside], x0, h_b, math.copysign(HALF_PI, h_b),
                                      decay_rate(prof.params))[0]
    else:
        half_h[~inside] = h_b
    return Profile(prof.params, prof.symmetry_class, cutoff, half_h,
                   residual_norm=prof.residual_norm,
                   provenance=prof.provenance + f"; resampled to X={cutoff}, N={n}")
