"""Spectral counts, eigenvalue extraction, quadratic forms, witness families.

Two independent oracles anchor this file:

* the potential along the one-zero (3,3) profile is exactly
  4 - 8 sech^2 x, a reflectionless well whose bound states are
  4 - ((sqrt(33) - 1)/2 - n)^2 for n = 0, 1, 2;
* on small grids the tridiagonal matrix is rebuilt densely and handed to
  numpy's symmetric eigensolver, so the Sturm counts and the bisected
  eigenvalues can be compared against a full diagonalisation.

On grids too fine for a dense matrix, the margin pair is checked against
shift-invert Lanczos (ARPACK on a sparse LU factorisation), which makes no
Sturm count.
"""

import math

import numpy as np
import pytest
from conftest import gudermann_profile
from reference import hessian_fd_check, hessian_form, schrodinger_form, symmetric_witnesses
from scipy import sparse
from scipy.integrate import quad
from scipy.sparse.linalg import eigsh

from spherekink.core import (
    NuPerturbation,
    ProblemParams,
    resample,
    singular_profile,
    symmetric_grid,
)
from spherekink import spectral
from spherekink.shooting import SolveRequest, find_solution, newton_polish
from spherekink.spectral import (
    NULL_BAND,
    SchrodingerProblem,
    WitnessFunction,
    _tridiag,
    build_schrodinger,
    eigenvalues_below,
    morse_index,
    negative_count,
    potential_samples,
    schrodinger_index,
    truncated_singular_count,
    witness_subspace,
)

P33 = ProblemParams(3, 3.0)
P22 = ProblemParams(2, 2.0)


def dense_eigs(problem):
    """Full diagonalisation of the same interior-node matrix."""
    dx = problem.dx
    main = 2.0 / dx ** 2 + problem.potential[1:-1]
    a = np.diag(main) + np.diag(np.full(main.size - 1, -1.0 / dx ** 2), 1) \
        + np.diag(np.full(main.size - 1, -1.0 / dx ** 2), -1)
    return np.linalg.eigvalsh(a)


# -- potential -------------------------------------------------------------------

def test_potential_point_values_at_equator():
    assert potential_samples(0.0, 0.0, P33) == pytest.approx(-4.0, abs=1e-14)
    assert potential_samples(30.0, 0.0, P33) == pytest.approx(-2.0, abs=1e-9)
    # (m-1)^2/4 - omega is the far-field floor
    assert potential_samples(30.0, 0.0, ProblemParams(7, 16.0)) == pytest.approx(
        9.0 - 16.0, abs=1e-9)


def test_potential_along_exact_profile_is_reflectionless():
    prof = gudermann_profile()
    v = potential_samples(prof.grid, prof.h, prof.params)
    ref = 4.0 - 8.0 / np.cosh(prof.grid) ** 2
    assert np.max(np.abs(v - ref)) < 1e-12


def test_build_schrodinger_carries_metadata():
    prob = build_schrodinger(gudermann_profile())
    assert prob.n == 4001
    assert prob.cutoff == 20.0


def test_problem_rejects_nonfinite_potential():
    g = symmetric_grid(5.0, 11)
    v = np.zeros(11)
    v[3] = np.inf
    with pytest.raises(ValueError):
        SchrodingerProblem(g, v)


# -- counting against dense diagonalisation ----------------------------------------

@pytest.mark.parametrize("n", [51, 101, 201])
def test_negative_count_matches_dense_eigensolver(n, records33):
    g = symmetric_grid(6.0, n)
    problems = [SchrodingerProblem(g, v) for v in (
        np.full(n, 1.0),
        np.full(n, -1.0),
        potential_samples(g, np.zeros(n), P33),
        4.0 - 8.0 / np.cosh(g) ** 2)]
    # a solved level's own potential, index 4, resampled to at most 801 nodes
    prof = records33[("even", 4)].profile
    problems.append(build_schrodinger(resample(prof, prof.cutoff, 4 * n - 3)))
    for prob in problems:
        lam = dense_eigs(prob)
        main, off = _tridiag(prob)
        below = float(np.min(main)) - 2.0 * abs(float(off[0])) - 1.0   # Gershgorin
        above = float(np.max(main)) + 2.0 * abs(float(off[0])) + 1.0
        assert negative_count(prob, below) == 0
        assert negative_count(prob, above) == prob.n - 2
        for shift in (0.0, -0.5, 1.0, 4.0, NULL_BAND, -NULL_BAND):
            assert negative_count(prob, shift) == int(np.sum(lam < shift))


def test_negative_count_survives_an_exactly_zero_pivot():
    # V = 0 and shift = 2/dx^2 zero every shifted diagonal entry, so the first
    # pivot is exactly 0.  shift is also the middle eigenvalue of the 49
    # interior nodes, so the count must land between the counts just below
    # and just above it: 24 and 25.  stebz takes the zero pivot as a tiny
    # negative one, counting the eigenvalue as below shift.
    g = symmetric_grid(6.0, 51)
    prob = SchrodingerProblem(g, np.zeros(51))
    main, _ = _tridiag(prob)
    shift = 2.0 / prob.dx ** 2
    assert main[0] - shift == 0.0
    lam = dense_eigs(prob)
    assert int(np.sum(lam < shift * (1.0 - 1e-12))) == 24
    assert int(np.sum(lam < shift * (1.0 + 1e-12))) == 25
    assert negative_count(prob, shift) == 25


def test_eigenvalues_below_match_dense_eigensolver():
    g = symmetric_grid(6.0, 201)
    prob = SchrodingerProblem(g, potential_samples(g, np.zeros(201), P33))
    got = eigenvalues_below(prob, 5)
    ref = np.sort(dense_eigs(prob))[:5]
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9


def test_eigenvalues_below_zero_request():
    g = symmetric_grid(6.0, 51)
    prob = SchrodingerProblem(g, np.zeros(51))
    assert eigenvalues_below(prob, 0).size == 0
    assert eigenvalues_below(prob, 3, 3).size == 0


def test_eigenvalues_below_from_an_index():
    g = symmetric_grid(6.0, 201)
    prob = SchrodingerProblem(g, potential_samples(g, np.zeros(201), P33))
    ref = np.sort(dense_eigs(prob))[3:6]
    got = eigenvalues_below(prob, 6, 3)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9
    coarse = eigenvalues_below(prob, 6, 3, tol=0.1 * NULL_BAND)
    assert np.max(np.abs(coarse - ref)) < 1e-7


def test_positive_box_has_no_negative_directions():
    g = symmetric_grid(10.0, 1001)
    prob = SchrodingerProblem(g, np.full(1001, 1.0))
    assert negative_count(prob, 0.0) == 0


# -- reflectionless-well oracle -----------------------------------------------------

def pt_levels(v_inf, depth):
    """Bound states of v_inf - depth * sech^2: v_inf - (s - n)^2, s(s+1) = depth."""
    s = 0.5 * (math.sqrt(1.0 + 4.0 * depth) - 1.0)
    return [v_inf - (s - k) ** 2 for k in range(int(math.floor(s)) + 1)]


def test_exact_profile_spectrum_m3():
    prob = build_schrodinger(gudermann_profile())
    ref = pt_levels(4.0, 8.0)
    assert len(ref) == 3
    assert ref[0] == pytest.approx(-1.6277186767309883, abs=1e-12)
    got = eigenvalues_below(prob, 3)
    assert np.max(np.abs(got - np.array(ref))) < 5e-4
    assert negative_count(prob, 0.0) == 1


def test_exact_profile_spectrum_m2():
    prob = build_schrodinger(gudermann_profile(m=2))
    ref = pt_levels(2.25, 4.75)
    assert ref[0] == pytest.approx(-0.7639320225002103, abs=1e-12)
    got = eigenvalues_below(prob, 2)
    assert np.max(np.abs(got - np.array(ref[:2]))) < 1e-3
    assert negative_count(prob, 0.0) == 1


def test_morse_index_of_exact_profile():
    rep = morse_index(gudermann_profile())
    assert rep.index == 1
    assert rep.nullity_estimate == 0
    assert rep.flags == ()
    assert rep.margin_eigenvalues[0] == pytest.approx(-1.6277186767309883, abs=5e-4)
    assert (rep.cutoff, rep.n, rep.null_band) == (20.0, 4001, 1e-6)


def test_morse_index_rejects_coarse_grids():
    with pytest.raises(ValueError):
        morse_index(gudermann_profile(n=999))


def record_shifts(monkeypatch):
    """List of the shifts of every negative_count call made from here on."""
    shifts = []

    def recording(problem, shift=0.0):
        shifts.append(shift)
        return negative_count(problem, shift)

    monkeypatch.setattr(spectral, "negative_count", recording)
    return shifts


@pytest.mark.parametrize("zeros", [1, 2, 3, 4])
def test_a_report_with_an_empty_band_makes_two_counts(zeros, records33, monkeypatch):
    # no eigenvalue within 10 NULL_BAND of 0, so the counts at -+10 NULL_BAND
    # agree and settle every inner count
    shifts = record_shifts(monkeypatch)
    rep = morse_index(records33[("odd" if zeros % 2 else "even", zeros)].profile)
    assert shifts == [-10.0 * NULL_BAND, 10.0 * NULL_BAND]
    assert (rep.index, rep.nullity_estimate, rep.flags) == (zeros, 0, ())
    assert rep.band_sensitivity == ((10.0 * NULL_BAND, 0), (0.1 * NULL_BAND, 0))


def test_report_flags_fire_at_the_fixed_band(monkeypatch):
    # the well 4 - 8 sech^2 x, shifted so that its lowest eigenvalue sits at
    # +5e-7: inside the null band, outside the band 10x narrower
    g = symmetric_grid(8.0, 401)
    v = 4.0 - 8.0 / np.cosh(g) ** 2
    prob = SchrodingerProblem(g, v + (5e-7 - dense_eigs(SchrodingerProblem(g, v))[0]))
    assert dense_eigs(prob)[0] == pytest.approx(5e-7, abs=1e-11)
    shifts = record_shifts(monkeypatch)
    rep = schrodinger_index(prob)
    assert len(shifts) == 6
    assert (rep.index, rep.nullity_estimate) == (0, 1)
    assert [nb for _, nb in rep.band_sensitivity] == [1, 0]
    assert len(rep.flags) == 1 and "depends on the null band" in rep.flags[0]

    # two such wells 10 apart: their ground states split by about 1e-8, and
    # the pair, shifted to straddle 0, lies inside every band
    g = symmetric_grid(16.0, 801)
    v = -8.0 / np.cosh(g - 5.0) ** 2 - 8.0 / np.cosh(g + 5.0) ** 2
    lam = dense_eigs(SchrodingerProblem(g, v))
    prob = SchrodingerProblem(g, v - 0.5 * (lam[0] + lam[1]))
    pair = dense_eigs(prob)[:2]
    assert 0.0 < pair[1] - pair[0] < 1e-7 and np.max(np.abs(pair)) < 1e-7
    shifts.clear()
    rep = schrodinger_index(prob)
    assert len(shifts) == 6
    assert (rep.index, rep.nullity_estimate) == (0, 2)
    assert [nb for _, nb in rep.band_sensitivity] == [2, 2]
    assert len(rep.flags) == 1 and "nullity_estimate 2" in rep.flags[0]


# -- the margin pair ---------------------------------------------------------------

def straddling_pair(problem):
    """The eigenvalues either side of -NULL_BAND (the one above alone when
    none lies below), by shift-invert Lanczos: no Sturm count, no bisection."""
    main, off = _tridiag(problem)
    a = sparse.diags([off, main, off], [-1, 0, 1], format="csc")
    lam = eigsh(a, k=6, sigma=-NULL_BAND, return_eigenvectors=False)
    below, above = lam[lam < -NULL_BAND], lam[lam >= -NULL_BAND]
    pair = (float(np.min(above)),)
    return (float(np.max(below)),) + pair if below.size else pair


def box_with_index(index, n=201):
    """The zero potential lowered until exactly `index` eigenvalues lie
    below zero, halfway between two of them."""
    g = symmetric_grid(10.0, n)
    mu = dense_eigs(SchrodingerProblem(g, np.zeros(n)))
    lower = mu[index - 1] if index else 0.0
    return SchrodingerProblem(g, np.full(n, -0.5 * (lower + mu[index])))


@pytest.fixture(scope="module")
def margin_profiles(records33):
    """(grid size, level) -> profile: identity-3 levels 1-4 at N = 4001 and
    refined to N = 16001, and level 12 at X = 30, N = 6001."""
    out = {}
    for (cls, zeros), rec in records33.items():
        out[4001, zeros] = rec.profile
        fine = resample(rec.profile, 20.0, 16001)
        out[16001, zeros] = newton_polish(fine, SolveRequest(P33, cls, zeros, grid_size=16001))
    out[6001, 12] = find_solution(SolveRequest(P33, "even", 12, cutoff=30.0, grid_size=6001))
    return out


@pytest.mark.parametrize("n, zeros", [(4001, 1), (4001, 2), (4001, 3), (4001, 4),
                                      (16001, 1), (16001, 2), (16001, 3), (16001, 4),
                                      (6001, 12)])
def test_margin_pair_matches_lanczos(n, zeros, margin_profiles):
    prof = margin_profiles[n, zeros]
    assert prof.n == n
    rep = morse_index(prof)
    assert (rep.index, rep.nullity_estimate) == (zeros, 0)
    pair = rep.margin_eigenvalues
    assert len(pair) == 2 and pair[0] < -NULL_BAND <= pair[1]
    ref = straddling_pair(build_schrodinger(prof))
    assert np.max(np.abs(np.array(pair) - ref)) < 1e-7


def test_margin_pair_matches_dense_eigensolver(margin_profiles):
    # the one full-size dense solve (a few seconds): level 4 at N = 4001
    prob = build_schrodinger(margin_profiles[4001, 4])
    rep = schrodinger_index(prob)
    assert np.max(np.abs(np.array(rep.margin_eigenvalues) - dense_eigs(prob)[3:5])) < 1e-7


def test_margin_is_the_lowest_eigenvalue_at_index_zero():
    prob = box_with_index(0)
    rep = schrodinger_index(prob)
    assert rep.index == 0
    assert len(rep.margin_eigenvalues) == 1
    assert rep.margin_eigenvalues[0] == pytest.approx(dense_eigs(prob)[0], abs=1e-7)
    assert rep.margin_eigenvalues[0] > NULL_BAND


@pytest.mark.parametrize("k", [0, 1])
def test_margin_shows_an_eigenvalue_near_the_band(k, monkeypatch):
    # the well 4 - 8 sech^2 x, shifted so that eigenvalue k sits at 5e-6:
    # outside the null band, inside the band 10x wider
    g = symmetric_grid(8.0, 401)
    v = 4.0 - 8.0 / np.cosh(g) ** 2
    prob = SchrodingerProblem(g, v + (5e-6 - dense_eigs(SchrodingerProblem(g, v))[k]))
    lam = dense_eigs(prob)
    assert lam[k] == pytest.approx(5e-6, abs=1e-11)
    shifts = record_shifts(monkeypatch)
    rep = schrodinger_index(prob)
    assert len(shifts) == 6
    assert (rep.index, rep.nullity_estimate) == (k, 0)
    assert rep.margin_eigenvalues[-1] == pytest.approx(5e-6, abs=1e-7)
    assert np.max(np.abs(np.array(rep.margin_eigenvalues) - lam[max(k - 1, 0):k + 1])) < 1e-7
    assert [nb for _, nb in rep.band_sensitivity] == [1, 0]
    assert len(rep.flags) == 1 and "1e-05 -> 1" in rep.flags[0]


@pytest.mark.parametrize("index", [0, 1, 4, 8, 20, 198])
def test_a_report_bisects_at_most_two_eigenvalues(index, monkeypatch):
    # 198 is every eigenvalue of the 199 interior nodes but the top one
    asked = []

    def recording(problem, count, first=0, tol=0.0):
        asked.append(count - first)
        return eigenvalues_below(problem, count, first, tol)

    monkeypatch.setattr(spectral, "eigenvalues_below", recording)
    prob = box_with_index(index)
    rep = schrodinger_index(prob)
    assert rep.index == index
    assert asked == [min(index + 1, 2)]
    lam = dense_eigs(prob)
    assert np.max(np.abs(np.array(rep.margin_eigenvalues) - lam[max(index - 1, 0):index + 1])) < 1e-7


def test_a_report_of_every_eigenvalue_below_the_band():
    # at index = size the matrix has no eigenvalue above the band, so the
    # margin holds the highest one alone
    g = symmetric_grid(10.0, 201)
    prob = SchrodingerProblem(g, np.full(201, -1e4))
    rep = schrodinger_index(prob)
    assert rep.index == 199
    assert rep.margin_eigenvalues == pytest.approx([dense_eigs(prob)[-1]], abs=1e-7)


# -- equator branch --------------------------------------------------------------

def test_singular_count_grows_with_cutoff():
    # Weyl scaling: about (2X/pi) sqrt(omega - (m-1)^2/4) negatives at cutoff X
    c20 = truncated_singular_count(P33, 20.0)
    c40 = truncated_singular_count(P33, 40.0)
    assert c20 == 18
    assert c40 == 36
    assert abs(c20 - 40.0 * math.sqrt(2.0) / math.pi) <= 1.0
    assert c40 > c20


def test_singular_count_saturates_when_hypothesis_fails():
    # (15, 32): floor 49/4 - 32 > 0... the potential floor is positive, so
    # only the sech^2 dent can produce finitely many negatives
    p = ProblemParams(15, 32.0)
    c20 = truncated_singular_count(p, 20.0)
    c40 = truncated_singular_count(p, 40.0)
    assert c20 == c40


# -- quadratic forms --------------------------------------------------------------

def test_hessian_form_zero_direction():
    prof = gudermann_profile()
    z = np.zeros(prof.n)
    assert hessian_form(prof, z, z) == 0.0


def test_hessian_form_is_symmetric():
    prof = gudermann_profile()
    g = prof.grid
    v = 1.0 / np.cosh(g) ** 2
    w = np.cos(g) / np.cosh(g) ** 2
    a = hessian_form(prof, v, w)
    b = hessian_form(prof, w, v)
    assert abs(a) > 0.1               # a nondegenerate pairing, not 0 == 0
    assert a == pytest.approx(b, rel=1e-13)


def test_hessian_form_rejects_nonvanishing_ends():
    prof = gudermann_profile()
    with pytest.raises(ValueError):
        hessian_form(prof, np.ones(prof.n), np.ones(prof.n))


def test_equator_branch_has_negative_direction():
    prof = singular_profile(P33)
    v = 1.0 / np.cosh(prof.grid) ** 2
    q = hessian_form(prof, v, v)
    # closed form: int (4 sech^6 tanh^2 - 3 sech^6) = -272/105; the sampled
    # derivative is fourth order, which caps the achievable agreement
    assert q == pytest.approx(-272.0 / 105.0, abs=1e-7)


def test_weighted_and_flat_forms_agree():
    # v and w = v sech^((m-1)/2) represent the same direction in the two
    # pictures; the forms must agree up to quadrature error
    prof = gudermann_profile()
    g = prof.grid
    w = np.sin(g) / np.cosh(g) ** 3
    v = w * np.cosh(g)              # m = 3: half weight is sech
    qv = hessian_form(prof, v, v)
    qw = schrodinger_form(build_schrodinger(prof), w, w)
    assert qw == pytest.approx(qv, rel=1e-7)


def test_hessian_fd_check_quadratic_consistency():
    prof = gudermann_profile()
    v = 1.0 / np.cosh(prof.grid) ** 2
    err_big = hessian_fd_check(prof, v, 1e-2)
    err_small = hessian_fd_check(prof, v, 1e-3)
    assert err_big < 1e-2
    assert err_small < 1e-4


def test_hessian_fd_check_validates_step():
    prof = gudermann_profile()
    v = 1.0 / np.cosh(prof.grid) ** 2
    with pytest.raises(ValueError):
        hessian_fd_check(prof, v, 0.0)


# -- witness families --------------------------------------------------------------

def test_witness_refused_outside_unstable_regime():
    for m, om in ((6, 6.0), (15, 32.0)):
        with pytest.raises(ValueError) as exc:
            witness_subspace(ProblemParams(m, om), 3)
        assert "no witness family exists" in str(exc.value)


def test_witness_family_shape_and_negativity():
    fam = witness_subspace(P33, 5)
    assert fam.size == 5
    assert fam.epsilon == pytest.approx(1.0)
    assert fam.half_width == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
    assert fam.threshold_radius == 0.0
    assert all(q < 0.0 for q in fam.gram_diagonal)
    assert fam.quadrature_error < 1e-4


def test_witness_values_against_quadrature_oracle():
    fam = witness_subspace(P33, 3)
    a = fam.half_width
    for start, got in zip(fam.starts, fam.gram_diagonal):
        peak = start + a

        def f2(x):
            return max(0.0, a - abs(x - peak)) ** 2

        unweighted, _ = quad(f2, start, start + 2 * a, points=[peak])
        dent, _ = quad(lambda x: f2(x) / math.cosh(x) ** 2,
                       start, start + 2 * a, points=[peak])
        ref = 2.0 * a - 2.0 * (unweighted + dent)
        assert unweighted == pytest.approx(2.0 * a ** 3 / 3.0, rel=1e-12)
        assert got == pytest.approx(ref, abs=1e-8)


def test_witness_values_against_flat_form():
    fam = witness_subspace(P33, 3)
    prof = singular_profile(P33, cutoff=60.0, n=12001)
    prob = build_schrodinger(prof)
    samples = [f(prob.grid) for f in fam.functions]
    for w, q in zip(samples, fam.gram_diagonal):
        assert schrodinger_form(prob, w, w) == pytest.approx(q, abs=5e-2)
    # disjoint interiors: the only cross contribution is the sampled
    # derivative leaking a few stencil widths past the shared endpoint
    assert abs(schrodinger_form(prob, samples[0], samples[1])) < 5e-3


def test_witness_starts_are_disjoint_and_ordered():
    fam = witness_subspace(P33, 6)
    a = fam.half_width
    for c1, c2 in zip(fam.starts, fam.starts[1:]):
        assert c2 == pytest.approx(c1 + 2.0 * a, rel=1e-15)
    assert fam.starts[0] >= fam.threshold_radius + 2.0 * a - 1e-12


def test_witness_threshold_respects_perturbation_support():
    g = np.linspace(-6.0, 6.0, 601)
    vals = -0.9 * np.exp(-(np.abs(g) - 3.0) ** 2)
    vals = vals - vals[0]             # force exact zeros at the ends
    vals = 0.5 * (vals + vals[::-1])
    p = ProblemParams(3, 3.0, NuPerturbation(g, vals))
    fam = witness_subspace(p, 2)
    assert fam.threshold_radius >= 6.0
    assert fam.starts[0] > 6.0
    assert all(q < 0.0 for q in fam.gram_diagonal)


def test_symmetric_witnesses_double_the_diagonal():
    base = witness_subspace(P33, 4)
    for cls in ("even", "odd"):
        fam = symmetric_witnesses(P33, 4, cls)
        assert fam.size == 4
        assert (fam.starts, fam.half_width, fam.epsilon) == (base.starts, base.half_width,
                                                             base.epsilon)
        assert fam.quadrature_error == 2.0 * base.quadrature_error
        got = np.asarray(fam.gram_diagonal)
        assert np.max(np.abs(got - 2.0 * np.asarray(base.gram_diagonal))) < 1e-12
    with pytest.raises(ValueError):
        symmetric_witnesses(P33, 2, "sideways")


def test_symmetric_witness_parity_pointwise():
    fam_even = symmetric_witnesses(P33, 2, "even")
    fam_odd = symmetric_witnesses(P33, 2, "odd")
    xs = symmetric_grid(40.0, 2001)   # bitwise-mirrored nodes
    fe = fam_even.functions[0](xs)
    fo = fam_odd.functions[0](xs)
    assert np.max(np.abs(fe - fe[::-1])) == 0.0
    assert np.max(np.abs(fo + fo[::-1])) == 0.0
    assert fo[1000] == 0.0
    assert np.max(np.abs(fe)) > 0.0


def test_witness_function_tent_geometry():
    f = WitnessFunction(2.0, 1.5)
    assert f(np.array([2.0]))[0] == 0.0
    assert f(np.array([3.5]))[0] == 1.5
    assert f(np.array([5.0]))[0] == 0.0
    assert f(np.array([6.0]))[0] == 0.0
