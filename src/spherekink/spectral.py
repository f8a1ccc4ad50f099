"""Second-variation analysis: Morse index, nullity, and witness subspaces.

The Hessian of the weighted energy at a profile h acts on variations v that
vanish at the ends.  Substituting w = v sech^((m-1)/2)x turns the weighted
form into the flat quadratic form of a Schrodinger operator -w'' + V w with

    V(x) = (m-1)^2/4 - ((m-1)^2/4 + (m-1)/2) sech^2 x - omega (1+nu) cos(2h).

Index and nullity are then read off the tridiagonal central-difference
matrix of that operator on the symmetric grid by Sylvester inertia counts:
A - sigma I has as many negative LDL^T pivots as eigenvalues below sigma.
LAPACK's stebz makes a count in one compiled O(N) pass per shift that reads
only pivot signs; no iterative eigensolve is trusted for counting.  An
eigenvalue within roundoff of sigma may be counted on either side of it,
which is why nullity is counted over a band of shifts, not at sigma = 0.
Dirichlet truncation at the grid ends can only undercount negative
directions, so reported indices are certified lower bounds, checked for
stability under domain growth.  Besides the counts, a report lists only the
margin pair: the two eigenvalues either side of the null band's lower edge,
each placed within a tenth of the band and its index certified by a count.
They show how far the potential must move before the index can change, and
where the upper one lies clear above the band they settle the nullity.

V is even for a profile of class even or odd, so a SchrodingerProblem holds
it on [0, X], and the matrix is built as its two reflection blocks (Cantoni
& Butler 1976): an even block on the nodes 0..X-dx, its first coupling
sqrt 2 times the others, and an odd block on the nodes dx..X-dx.  Its
eigenvalues are simple and eigenvector j changes sign exactly j times
(Sturm oscillation): an even one's sign changes pair off across the centre,
and an odd one, zero there between entries of opposite sign, has an odd
number.  So the eigenvalues alternate between the blocks, lambda_0 even,
lambda_1 odd, and so on, and a count is the sum of the blocks' counts.

stebz asked for eigenvalues by index first bisects the index range's ends
down from the Gershgorin bound, about 4/dx^2, most of the cost of a call.
So each block's wanted eigenvalues are first located on two coarser copies
of the block, at spacings about COARSE_SPACING and twice that, and
extrapolated to the fine grid (Richardson).  Inverse iteration at that
estimate, one LU factorisation and two or three solves, finds a Rayleigh
quotient with a small residual, and one count just below it certifies
which eigenvalue it is.  Where that count reads another index, or the
residual stays large, the index-range call runs instead.

A report takes one of two paths.  Where the margin pair for the count at
-10 null bands that the coarse copies guess, in O(N/s), clears the widest
band on both sides by the width it is placed to, its certifying counts fix
the index and an empty band, with no whole-block count.  Otherwise, as
where no stride fits, the six counts at +-10, +-1 and +-0.1 bands are made.

For the equator branch, where V tends to (m-1)^2/4 - omega < 0 at both
ends, families of disjoint tent functions placed in the far field give an
explicit negative-definite subspace of any requested dimension.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.linalg.lapack import dgttrf, dgttrs, dstebz

from .core import (ProblemParams, Profile, finite_cutoff, grid_spacing, half_grid, sech,
                   singular_profile)
from .serialize import floats, integer, listed, number, reading, refuse_unknown

NULL_BAND = 1e-6          # eigenvalues within +-band of 0 count toward the nullity
NODES_PER_UNIT = 100       # grid density of truncated_singular_count
QUAD_DIVISIONS = 64        # Simpson divisions per tent; half as many give the error estimate
COARSE_SPACING = 0.04      # node spacing of the finer coarse copy that estimates an eigenvalue
MAX_SOLVES = 4             # inverse iteration solves before an estimate falls back to bisection
ROUNDOFF = 64 * np.finfo(float).eps  # times |T|: the narrowest width that places an eigenvalue


@dataclass(frozen=True)
class SchrodingerProblem:
    """Flat-form operator -d^2/dx^2 + V on [-X, X], Dirichlet ends, for an
    even V held on the half line: grid is half_grid(X, n), from x = 0, and
    n and dx (Profile.dx, bitwise) are those of symmetric_grid(X, n)."""

    grid: np.ndarray
    potential: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.potential, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 4 or g[0] != 0.0:
            raise ValueError("need a matching 1-d grid on [0, X] and potential, >= 4 samples")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "potential", v)

    @property
    def dx(self) -> float:
        return grid_spacing(self.cutoff, self.n)

    @property
    def cutoff(self) -> float:
        return float(self.grid[-1])

    @property
    def n(self) -> int:
        return 2 * int(self.grid.size) - 1


def potential_samples(x, h, params: ProblemParams) -> np.ndarray:
    m1 = params.m - 1
    corner = 0.25 * m1 * m1
    return (corner - (corner + 0.5 * m1) * sech(x) ** 2
            - params.omega * (1.0 + params.nu_at(x)) * np.cos(2.0 * h))


def build_schrodinger(prof: Profile) -> SchrodingerProblem:
    """Potential of the flat-form Hessian along the profile's half line."""
    xs = half_grid(prof.cutoff, prof.n)
    return SchrodingerProblem(xs, potential_samples(xs, prof.half_h, prof.params))


# -- inertia counting ---------------------------------------------------------

def _blocks(problem: SchrodingerProblem):
    """The even and odd blocks (main, off) of the interior-node FD matrix on
    [-X, X].  Row 0 of an even vector reads main[0] v[0] + 2 off[0] v[1];
    scaling v[0] by sqrt 2 makes it symmetric."""
    main = 2.0 / problem.dx ** 2 + problem.potential[:-1]
    off = np.full(main.size - 1, -1.0 / problem.dx ** 2)
    even_off = off.copy()
    even_off[0] *= math.sqrt(2.0)
    return (main, even_off), (main[1:], off[1:])


def _stebz(main, off, by_index: bool, low, high, tol: float) -> np.ndarray:
    """The eigenvalues of the tridiagonal main, off with indices low..high
    (0-based), or in (low, high], ascending, bisected to tol by stebz."""
    if by_index:
        m, w, _, _, info = dstebz(main, off, 2, 0.0, 0.0, low + 1, high + 1, tol, "E")
    else:
        m, w, _, _, info = dstebz(main, off, 1, low, high, 0, 0, tol, "E")
    if info != 0:
        raise RuntimeError(f"stebz failed with info={info}")
    return w[:m]


def _count_below(main, off, shift: float) -> int:
    """Number of eigenvalues of the tridiagonal main, off below shift (see
    negative_count).  off[0] is its largest off-diagonal entry, so vl lies
    below the Gershgorin bound."""
    vl = float(np.min(main)) - 2.0 * abs(float(off[0])) - 1.0
    if shift <= vl:
        return 0
    return _stebz(main, off, False, vl, shift, shift - vl).size


def negative_count(problem: SchrodingerProblem, shift: float = 0.0) -> int:
    """Number of eigenvalues of the Dirichlet FD matrix below shift, the
    sum of its two blocks' counts.

    LAPACK's stebz counts the negative LDL^T pivots of a block minus
    shift, in compiled code, taking a pivot within underflow of zero as a
    small negative one (Kahan 1966; Barth, Martin & Wilkinson 1967).  With
    vl strictly below the Gershgorin bound and abstol = shift - vl, every
    eigenvalue in (vl, shift] counts as located at once, so stebz makes its
    two inertia counts, at vl and at shift, and no bisection steps.  An
    eigenvalue within roundoff of shift may be counted on either side.
    """
    return sum(_count_below(main, off, shift) for main, off in _blocks(problem))


def _stride(problem: SchrodingerProblem):
    """The stride s of _windowed's coarse copies: of the d >= 2 within a
    factor 2 of r = round(COARSE_SPACING / dx) such that 2d divides the half
    line's spacings, the one nearest r (the smaller on a tie), else None."""
    r = round(COARSE_SPACING / problem.dx)
    spacings = problem.grid.size - 1
    fits = [d for d in range(2, 2 * r + 1) if 2 * d >= r and spacings % (2 * d) == 0]
    return min(fits, key=lambda d: (abs(d - r), d), default=None)


def _coarse(main, off, dx: float, stride: int, even: bool):
    """The copy (main, off) of a block at spacing stride dx: its potential at
    every stride-th node, from the even block's mirror node or the odd
    block's node stride dx, the mirror node's sqrt 2 coupling kept."""
    first = 0 if even else stride - 1
    sub = main[first::stride] - 2.0 / dx ** 2 * (1.0 - 1.0 / stride ** 2)
    # each coupling is -1/dx^2 (sqrt 2 at a mirror node); at spacing
    # stride dx it is 1/stride^2 of that
    return sub, off[first::stride][:sub.size - 1] / stride ** 2


def _coarse_count(problem: SchrodingerProblem, s, shift: float):
    """negative_count(problem, shift) as the blocks' coarse copies at stride
    s read it, in O(N/s), or None where no stride fits (s is None) or a
    copy has fewer than two nodes.  The copies place a smooth state's
    eigenvalue about C (s dx)^2 low and miss a state narrower than s dx, so
    the guess may be off either way; schrodinger_index checks it."""
    if s is None:
        return None
    copies = [_coarse(main, off, problem.dx, s, b == 0)
              for b, (main, off) in enumerate(_blocks(problem))]
    if any(sub.size < 2 for sub, _ in copies):
        return None
    return sum(_count_below(sub, sub_off, shift) for sub, sub_off in copies)


def _inverse_iteration(main, off, mu: float, width: float):
    """The Rayleigh quotient rho = x^T T x of the unit vector x that inverse
    iteration on the tridiagonal T = main, off reaches at the shift mu, once
    the residual |T x - rho x| is at most width / 2, or None when MAX_SOLVES
    solves do not reach it.

    T - mu I is factored once (LAPACK gttrf, partial pivoting) and each
    solve (gttrs) is one O(n) pass.  Each solve shrinks every other
    eigenvector's share of x by the ratio of mu's distances to the two
    eigenvalues (Wilkinson 1965, ch. 9; Parlett 1998, ch. 4).  The start
    is a fixed pseudo-random vector, entries in [0, 1): a vector of ones is
    all but orthogonal to a state odd about a well off the centre.
    """
    dl, d, du, du2, ipiv, info = dgttrf(off, main - mu, off)
    if info != 0:
        # a pivot is exactly zero: mu is an eigenvalue to rounding
        return None
    x = np.random.default_rng(0).random(main.size)
    for _ in range(MAX_SOLVES):
        x, info = dgttrs(dl, d, du, du2, ipiv, x)
        x /= np.linalg.norm(x)
        tx = main * x
        tx[:-1] += off * x[1:]
        tx[1:] += off * x[:-1]
        rho = float(x @ tx)
        if np.linalg.norm(tx - rho * x) <= 0.5 * width:
            return rho
    return None


def _windowed(main, off, dx: float, s: int, even: bool, lo: int, hi: int, width: float):
    """Eigenvalues lo..hi of one block (see eigenvalues_below), or None when
    the estimates placed for them do not lead to them.

    The block's coarse copies at strides s and 2s (_coarse) have its
    Dirichlet ends, as s and 2s divide the half line's spacings (_stride).
    The central difference underestimates an eigenvalue by about C H^2 at
    spacing H, so the copies' eigenvalues l_s and l_2s extrapolate to the
    block's as mu = l_s + (l_s - l_2s)(1 - 1/s^2)/3.
    Inverse iteration at mu (_inverse_iteration) gives rho with a residual r
    <= width / 2.  T is symmetric, so some eigenvalue lies within r of rho;
    one count at rho - width that reads k then puts eigenvalue k in
    [rho - width, rho + r] (Barth, Martin & Wilkinson 1967), with no walk
    down from the Gershgorin bound and no bisection.
    """
    coarse = []
    for stride in (s, 2 * s):
        sub, sub_off = _coarse(main, off, dx, stride, even)
        # stebz wants an off-diagonal, so at least two nodes
        if sub.size <= max(hi, 1):
            return None
        coarse.append(_stebz(sub, sub_off, True, lo, hi, width))
    near, far = coarse
    found = []
    for k, mu in enumerate(near + (near - far) * (1.0 - 1.0 / s ** 2) / 3.0, lo):
        rho = _inverse_iteration(main, off, float(mu), width)
        if rho is None or _count_below(main, off, rho - width) != k:
            return None
        found.append(rho)
    return np.array(found)


def _width(problem: SchrodingerProblem, tol: float) -> float:
    """How close eigenvalues_below places each eigenvalue: the larger of
    tol and the rounding floor ROUNDOFF |T|, below which a residual or a
    count cannot resolve; max |V| + 5/dx^2 bounds either block's norm."""
    norm = float(np.max(np.abs(problem.potential))) + 5.0 / problem.dx ** 2
    return max(tol, ROUNDOFF * norm)


def eigenvalues_below(problem: SchrodingerProblem, count: int, first: int = 0,
                      tol: float = 0.0) -> np.ndarray:
    """Eigenvalues first..count-1 of the Dirichlet FD matrix, ascending.

    By default the lowest `count` to full precision, each within the
    rounding floor of _width; a positive tol places each within tol
    instead.  Index and nullity are certified by negative_count.

    Eigenvalue j is entry j // 2 of block j mod 2 (module docstring), so
    each block gives its share of the range, placed by j.

    A block finds its share by inverse iteration from estimates that two
    coarse copies of it place, each certified by one count (_windowed).
    Where no stride fits the grid (_stride), an estimate does not lead to
    its eigenvalue, or the copies are too small to hold the share, one
    index-range call (LAPACK stebz, bisection down from the Gershgorin
    bound) finds it instead.
    """
    if count <= first:
        return np.zeros(0)
    s = _stride(problem)
    width = _width(problem, tol)
    out = np.empty(count - first)
    for b, (main, off) in enumerate(_blocks(problem)):
        # block b holds j = 2k + b for k = lo..hi within first..count-1
        lo, hi = (first - b + 1) // 2, (count - 1 - b) // 2
        if lo <= hi:
            found = _windowed(main, off, problem.dx, s, b == 0, lo, hi, width) if s else None
            if found is None:
                found = _stebz(main, off, True, lo, hi, tol)
            out[2 * lo + b - first::2] = found
    return out


# -- index / nullity reports --------------------------------------------------

@dataclass(frozen=True)
class SpectralReport:
    index: int
    nullity_estimate: int
    margin_eigenvalues: tuple  # (lambda_{index-1}, lambda_index); (lambda_0,) at index 0
    cutoff: float
    n: int
    null_band: float
    band_sensitivity: tuple   # ((band, nullity at that band), ...)
    flags: tuple


def schrodinger_index(problem: SchrodingerProblem) -> SpectralReport:
    """Index = eigenvalues below -NULL_BAND; nullity = those inside the band.

    Discrete nullity is tolerance-relative, so the count is re-checked at
    bands 10x wider and 10x narrower; disagreement is flagged, not fatal.
    The margin eigenvalues are the pair that straddles the band's lower
    edge, lambda_{index-1} < -NULL_BAND <= lambda_index (the lowest
    eigenvalue alone at index 0), each placed within 0.1 NULL_BAND.  By
    Weyl's inequality no change of the potential smaller in max-norm than
    their distance from -NULL_BAND can change the index.

    The coarse copies guess the count c at -10 NULL_BAND (_coarse_count).
    When the pair for c, placed within w = _width, clears the widest band by
    w (lambda_c - w > 10 NULL_BAND, and lambda_{c-1} + w < -10 NULL_BAND for
    c > 0), its certifying counts fix the index c and an empty band, with no
    whole-block count.  Otherwise the six counts at +-10, +-1 and +-0.1
    NULL_BAND are made, and the pair found again for an index other than c.
    """
    wide, narrow, tol = 10.0 * NULL_BAND, 0.1 * NULL_BAND, 0.1 * NULL_BAND
    width = _width(problem, tol)

    def straddling(index):
        # with all n - 2 eigenvalues below the band, the margin is the highest alone
        return eigenvalues_below(problem, min(index + 1, problem.n - 2), max(index - 1, 0),
                                 tol=tol)

    guess = _coarse_count(problem, _stride(problem), -wide)
    margin = None if guess is None else straddling(guess)
    if (margin is not None and margin[-1] - width > wide
            and (guess == 0 or margin[0] + width < -wide)):
        index, nullity, sensitivity = guess, 0, ((wide, 0), (narrow, 0))
    else:
        count = {b: negative_count(problem, b)
                 for b in (-wide, wide, -NULL_BAND, NULL_BAND, -narrow, narrow)}
        index = count[-NULL_BAND]
        nullity = count[NULL_BAND] - index
        sensitivity = tuple((b, count[b] - count[-b]) for b in (wide, narrow))
        if index != guess:
            margin = straddling(index)
    flags = []
    if nullity >= 2:
        flags.append(f"nullity_estimate {nullity} >= 2: unexpected for an isolated critical point")
    if any(nb != nullity for _, nb in sensitivity):
        flags.append("nullity depends on the null band width: "
                     + ", ".join(f"{b:g} -> {nb}" for b, nb in sensitivity))
    return SpectralReport(index=index, nullity_estimate=nullity,
                          margin_eigenvalues=tuple(float(v) for v in margin),
                          cutoff=problem.cutoff, n=problem.n, null_band=NULL_BAND,
                          band_sensitivity=sensitivity, flags=tuple(flags))


def morse_index(prof: Profile) -> SpectralReport:
    if prof.n < 1000:
        raise ValueError("grid too coarse for a trustworthy count: need N >= 1000 "
                         "(resample the profile first)")
    return schrodinger_index(build_schrodinger(prof))


def truncated_singular_count(params: ProblemParams, cutoff: float) -> int:
    """Negative-direction count of the equator branch truncated at the cutoff.

    Node density is fixed per unit length so counts at different cutoffs are
    comparable; under the instability condition the count grows without
    bound as the cutoff does.
    """
    n = 2 * int(round(NODES_PER_UNIT * finite_cutoff(cutoff))) + 1
    prof = singular_profile(params, cutoff=cutoff, n=n)
    return negative_count(build_schrodinger(prof), 0.0)


def report_to_doc(rep: SpectralReport) -> dict:
    return asdict(rep)


def report_from_doc(doc: dict, what: str) -> SpectralReport:
    """report_to_doc's report; ValueError, its message prefixed by what, on a
    missing or unknown key, a wrong shape or a value of the wrong type."""
    with reading(what, refused_values=True):
        rep = SpectralReport(index=integer(doc["index"]),
                             nullity_estimate=integer(doc["nullity_estimate"]),
                             margin_eigenvalues=tuple(floats(doc, "margin_eigenvalues").tolist()),
                             cutoff=number(doc["cutoff"]), n=integer(doc["n"]),
                             null_band=number(doc["null_band"]),
                             band_sensitivity=tuple((number(b), integer(c))
                                                    for b, c in doc["band_sensitivity"]),
                             flags=tuple(listed(doc, "flags", "string")))
        refuse_unknown(doc, report_to_doc(rep))
    return rep


# -- witness families at the equator branch -----------------------------------

@dataclass(frozen=True)
class WitnessFunction:
    """Tent of slope +-1 supported on [start, start + 2 half_width]."""

    start: float
    half_width: float

    def __call__(self, x):
        peak = self.start + self.half_width
        return np.maximum(0.0, self.half_width - np.abs(np.asarray(x, dtype=float) - peak))


@dataclass(frozen=True)
class WitnessFamily:
    """Pairwise-orthogonal negative directions for the equator-branch Hessian.

    Supports are consecutive and touch only at endpoints, so the Gram
    matrix of the flat form is exactly diagonal; quadrature enters only
    through the sech^2 dent in the potential, and that error is estimated
    by grid halving and reported.
    """

    params: ProblemParams
    epsilon: float
    threshold_radius: float
    half_width: float
    starts: tuple
    functions: tuple
    gram_diagonal: tuple
    quadrature_error: float

    @property
    def size(self) -> int:
        return len(self.functions)


def _require_unstable(params: ProblemParams):
    m1 = params.m - 1
    floor = 0.25 * m1 * m1 - params.omega
    if not params.hypothesis():
        raise ValueError(
            f"no witness family exists: the far-field potential floor "
            f"(m-1)^2/4 - omega = {floor:g} is nonnegative, so tents far out "
            f"cannot be negative directions")
    return floor


def _tent_sech2_integral(start, a, divisions):
    """int sech^2(x) F(x)^2 dx over [start, start+2a], Simpson on a grid whose
    nodes include the tent's kink, so the piecewise structure is respected."""
    xs = np.linspace(start, start + 2.0 * a, 2 * divisions + 1)
    peak = start + a
    f = np.maximum(0.0, a - np.abs(xs - peak))
    return float(simpson(sech(xs) ** 2 * f * f, x=xs))


def witness_subspace(params: ProblemParams, k: int) -> WitnessFamily:
    """k disjoint tents in the far field, each a strictly negative direction.

    Beyond K, nu's support radius (0 without nu), V <= -2 epsilon at h = 0,
    with epsilon = |far-field floor|/2.  A tent of half-width a with
    a^2 > 3/epsilon has flat-form value 2a + int V F^2 <= 2a - 2 epsilon a^3/3
    < 0; half-width 2 sqrt(3/epsilon) is used for margin.  Tent i occupies
    [K + 2ai, K + 2a(i+1)]; a family that rounding leaves not negative is refused.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    floor = _require_unstable(params)
    epsilon = 0.5 * abs(floor)
    a = 2.0 * math.sqrt(3.0 / epsilon)
    kk = 0.0 if params.nu is None else params.nu.support_radius

    m1 = params.m - 1
    beta = 0.25 * m1 * m1 + 0.5 * m1
    starts = tuple(kk + 2.0 * a * i for i in range(1, k + 1))
    diag = []
    quad_err = 0.0
    for c in starts:
        coarse = _tent_sech2_integral(c, a, QUAD_DIVISIONS // 2)
        fine = _tent_sech2_integral(c, a, QUAD_DIVISIONS)
        quad_err = max(quad_err, abs(fine - coarse))
        diag.append(2.0 * a + floor * (2.0 * a ** 3 / 3.0) - beta * fine)
    if not all(q < 0.0 for q in diag):
        raise ValueError(f"no witness family at omega = {params.omega:g}: tents of half-width "
                         f"{a:.3g} give a Gram diagonal entry {max(diag):.3g}, not negative")
    return WitnessFamily(params=params, epsilon=epsilon,
                         threshold_radius=kk, half_width=a, starts=starts,
                         functions=tuple(WitnessFunction(c, a) for c in starts),
                         gram_diagonal=tuple(diag),
                         quadrature_error=quad_err)
