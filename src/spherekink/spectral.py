"""Second-variation analysis: Morse index, nullity, and witness subspaces.

The Hessian of the weighted energy at a profile h acts on variations v that
vanish at the ends.  Substituting w = v sech^((m-1)/2)x turns the weighted
form into the flat quadratic form of a Schrodinger operator -w'' + V w with

    V(x) = (m-1)^2/4 - ((m-1)^2/4 + (m-1)/2) sech^2 x - omega (1+nu) cos(2h).

Index and nullity are then read off the tridiagonal central-difference
matrix of that operator by Sylvester inertia counts: A - sigma I has as
many negative LDL^T pivots as eigenvalues below sigma.  A count is one
call to LAPACK's stebz, one compiled O(N) pass per shift that reads only
pivot signs; no iterative eigensolve is trusted for counting.  An
eigenvalue within roundoff of sigma may be counted on either side of it,
which is why nullity is counted over a band of shifts, not at sigma = 0.
Dirichlet truncation at the grid ends can only undercount negative
directions, so reported indices are certified lower bounds, checked for
stability under domain growth.  Besides the counts, a report lists only the
margin pair: the two eigenvalues either side of the null band's lower edge,
bisected by stebz to a tenth of the band.  They certify nothing; they show
how far the potential must move before the index can change.

A class even or odd profile has a bitwise even V, so the FD matrix on the
symmetric grid, whose interior has a centre node, commutes with the
reflection and splits into an even and an odd block of half size (Cantoni
& Butler 1976).  Its off-diagonal is nonzero, so its eigenvalues are simple
and eigenvector j, even or odd, changes sign exactly j times (Sturm
oscillation).  An even one is nonzero at the centre, so its sign changes
pair off across it; an odd one is zero there between entries of opposite
sign, so it has an odd number.  The eigenvalues therefore alternate between
the blocks, lambda_0 even, lambda_1 odd, and so on, and the margin pair is
bisected on the blocks.  The counts stay full size.

For the equator branch, where V tends to (m-1)^2/4 - omega < 0 at both
ends, families of disjoint tent functions placed in the far field give an
explicit negative-definite subspace of any requested dimension.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.lapack import dstebz

from .core import ProblemParams, Profile, sech, singular_profile
from .serialize import reading

NULL_BAND = 1e-6          # eigenvalues within +-band of 0 count toward the nullity
NODES_PER_UNIT = 100       # grid density of truncated_singular_count
QUAD_DIVISIONS = 64        # Simpson divisions per tent; half as many give the error estimate


@dataclass(frozen=True)
class SchrodingerProblem:
    """Flat-form operator -d^2/dx^2 + V on a uniform grid, Dirichlet ends."""

    grid: np.ndarray
    potential: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.potential, dtype=float)
        if g.ndim != 1 or g.shape != v.shape or g.size < 5:
            raise ValueError("grid and potential must be matching 1-d arrays, >= 5 samples")
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "potential", v)

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def cutoff(self) -> float:
        return float(self.grid[-1])

    @property
    def n(self) -> int:
        return int(self.grid.size)


def potential_samples(x, h, params: ProblemParams) -> np.ndarray:
    m1 = params.m - 1
    corner = 0.25 * m1 * m1
    return (corner - (corner + 0.5 * m1) * sech(x) ** 2
            - params.omega * (1.0 + params.nu_at(x)) * np.cos(2.0 * h))


def build_schrodinger(prof: Profile) -> SchrodingerProblem:
    """Potential of the flat-form Hessian along the profile's own grid."""
    return SchrodingerProblem(prof.grid, potential_samples(prof.grid, prof.h, prof.params))


# -- inertia counting ---------------------------------------------------------

def _tridiag(problem: SchrodingerProblem):
    """Main diagonal and off-diagonal of the interior-node FD matrix."""
    dx = problem.dx
    main = 2.0 / dx ** 2 + problem.potential[1:-1]
    return main, np.full(main.size - 1, -1.0 / dx ** 2)


def negative_count(problem: SchrodingerProblem, shift: float = 0.0) -> int:
    """Number of eigenvalues of the Dirichlet FD matrix below shift.

    LAPACK's stebz counts the negative LDL^T pivots of the matrix minus
    shift, in compiled code, taking a pivot within underflow of zero as a
    small negative one (Kahan 1966; Barth, Martin & Wilkinson 1967).  With
    vl strictly below the Gershgorin bound and abstol = shift - vl, every
    eigenvalue in (vl, shift] counts as located at once, so stebz makes its
    two inertia counts, at vl and at shift, and no bisection steps.  An
    eigenvalue within roundoff of shift may be counted on either side.
    """
    main, off = _tridiag(problem)
    vl = float(np.min(main)) - 2.0 * abs(float(off[0])) - 1.0
    if shift <= vl:
        return 0
    m, _, _, _, info = dstebz(main, off, 1, vl, shift, 0, 0, shift - vl, "E")
    if info != 0:
        raise RuntimeError(f"stebz failed with info={info} counting below shift {shift!r}")
    return int(m)


def _reflection_blocks(problem: SchrodingerProblem):
    """The even and odd reflection blocks of the FD matrix, or the matrix
    alone (see eigenvalues_below).  Row c of an even vector reads
    main[c] v[c] + 2 off[c] v[c+1]; scaling v[c] by sqrt 2 makes it symmetric."""
    main, off = _tridiag(problem)
    c = main.size // 2
    if main.size % 2 == 0 or not np.array_equal(main, main[::-1]):
        return ((main, off),)
    even_off = off[c:].copy()
    even_off[0] *= math.sqrt(2.0)
    return (main[c:], even_off), (main[c + 1:], off[c + 1:])


def eigenvalues_below(problem: SchrodingerProblem, count: int, first: int = 0,
                      tol: float = 0.0) -> np.ndarray:
    """Eigenvalues first..count-1 of the Dirichlet FD matrix, ascending.

    By default the lowest `count`, bisected to full precision; a positive
    tol stops each bisection once the eigenvalue's interval is that narrow.
    LAPACK's stebz bisects for them with the same Sturm counts that
    negative_count makes; index and nullity are certified by negative_count.

    Block rule: when the matrix has odd size n - 2 and its main diagonal
    equals its own reverse bitwise, it has p = 2 blocks about its centre
    index c: the even block main[c:], off[c:] with off[c] times sqrt 2, and
    the odd block main[c+1:], off[c+1:].  Otherwise p = 1, the whole
    matrix.  The eigenvalues alternate between the blocks (module
    docstring), so eigenvalue j is entry j // p of block j mod p, and each
    block gives its share of the range in one stebz call, placed by j.
    """
    if count <= first:
        return np.zeros(0)
    blocks = _reflection_blocks(problem)
    p = len(blocks)
    out = np.empty(count - first)
    for b, (main, off) in enumerate(blocks):
        # block b holds j = k p + b for k = lo..hi within first..count-1
        lo, hi = (first - b + p - 1) // p, (count - 1 - b) // p
        if lo <= hi:
            out[lo * p + b - first::p] = eigvalsh_tridiagonal(
                main, off, select="i", select_range=(lo, hi), tol=tol)
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
    eigenvalue alone at index 0), bisected to 0.1 NULL_BAND.  By Weyl's
    inequality no change of the potential smaller in max-norm than their
    distance from -NULL_BAND can change the index.

    The counts at -+10 NULL_BAND come first.  A count never decreases as
    the shift grows, which stebz's own bisection relies on, so when those
    two are equal every count between them equals them: the index is that
    count and the nullity is 0 at every band.  Only when they differ are
    the four inner counts made.
    """
    wide, narrow = 10.0 * NULL_BAND, 0.1 * NULL_BAND
    below, above = negative_count(problem, -wide), negative_count(problem, wide)
    if below == above:
        index, nullity, sensitivity = below, 0, ((wide, 0), (narrow, 0))
    else:
        index = negative_count(problem, -NULL_BAND)
        nullity = negative_count(problem, NULL_BAND) - index
        sensitivity = ((wide, above - below),
                       (narrow, negative_count(problem, narrow) - negative_count(problem, -narrow)))
    flags = []
    if nullity >= 2:
        flags.append(f"nullity_estimate {nullity} >= 2: unexpected for an isolated critical point")
    if any(nb != nullity for _, nb in sensitivity):
        flags.append("nullity depends on the null band width: "
                     + ", ".join(f"{b:g} -> {nb}" for b, nb in sensitivity))
    # the matrix has n - 2 eigenvalues: with all of them below the band,
    # the margin is the highest alone
    margin = eigenvalues_below(problem, min(index + 1, problem.n - 2), max(index - 1, 0),
                               tol=0.1 * NULL_BAND)
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
    n = 2 * int(round(NODES_PER_UNIT * cutoff)) + 1
    prof = singular_profile(params, cutoff=cutoff, n=n)
    return negative_count(build_schrodinger(prof), 0.0)


def report_to_doc(rep: SpectralReport) -> dict:
    return asdict(rep)


def _listed(doc: dict, key: str, types: tuple, noun: str) -> tuple:
    """doc[key] as a tuple; ValueError unless it is a list of values of the
    given types (a JSON true or false is not a number)."""
    values = doc[key]
    if not isinstance(values, list):
        raise ValueError(f"{key} is not a list: {values!r}")
    for v in values:
        if not isinstance(v, types) or isinstance(v, bool):
            raise ValueError(f"{key} holds {v!r}, not a {noun}")
    return tuple(values)


def report_from_doc(doc: dict, what: str) -> SpectralReport:
    """report_to_doc's report; ValueError, its message prefixed by what, on a
    missing key, a wrong shape or a value of the wrong type."""
    with reading(what, refused_values=True):
        return SpectralReport(index=int(doc["index"]),
                              nullity_estimate=int(doc["nullity_estimate"]),
                              margin_eigenvalues=_listed(doc, "margin_eigenvalues",
                                                         (int, float), "number"),
                              cutoff=float(doc["cutoff"]), n=int(doc["n"]),
                              null_band=float(doc["null_band"]),
                              band_sensitivity=tuple((float(b), int(c))
                                                     for b, c in doc["band_sensitivity"]),
                              flags=_listed(doc, "flags", (str,), "string"))


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
    [K + 2ai, K + 2a(i+1)].
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
    funcs = []
    diag = []
    quad_err = 0.0
    for c in starts:
        coarse = _tent_sech2_integral(c, a, QUAD_DIVISIONS // 2)
        fine = _tent_sech2_integral(c, a, QUAD_DIVISIONS)
        quad_err = max(quad_err, abs(fine - coarse))
        q = 2.0 * a + floor * (2.0 * a ** 3 / 3.0) - beta * fine
        funcs.append(WitnessFunction(c, a))
        diag.append(q)
    return WitnessFamily(params=params, epsilon=epsilon,
                         threshold_radius=kk, half_width=a, starts=starts,
                         functions=tuple(funcs), gram_diagonal=tuple(diag),
                         quadrature_error=quad_err)
