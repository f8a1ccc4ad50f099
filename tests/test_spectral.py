"""Spectral counts, eigenvalue extraction, quadratic forms, witness families.

The package counts on minus Newton's Jacobian, symmetrised.  Three
independent oracles anchor this file:

* the flat form's potential along the one-zero (3,3) profile is exactly
  4 - 8 sech^2 x, a reflectionless well whose bound states are
  4 - ((sqrt(33) - 1)/2 - n)^2 for n = 0, 1, 2, the eigenvalues of either
  form in the continuum;
* the flat form itself (reference.flat_form) is a second discretisation of
  the same operator: its counts match, its eigenvalues to O(dx^2);
* on small grids the tridiagonal matrix is rebuilt densely on the whole
  symmetric grid, its potential mirrored and its drift mirrored odd, and
  handed to numpy's symmetric eigensolver, so the Sturm counts and the
  eigenvalues, which the package takes from the two reflection blocks, can
  be compared against a full diagonalisation.

On grids too fine for a dense matrix, the margin pair is checked against
shift-invert Lanczos (ARPACK on a sparse LU factorisation), which makes no
Sturm count.  The equator branch's counts are checked against the closed
form of its Poschl-Teller phase.
"""

import math

import numpy as np
import pytest
from conftest import gudermann_profile, record_lapack
from reference import (
    _jacobian_banded,
    dense_eigs,
    flat_form,
    full_line,
    full_tridiagonal,
    hessian_fd_check,
    hessian_form,
    poschl_teller_phase,
    schrodinger_form,
    singular_count,
    symmetric_witnesses,
)
from scipy import sparse
from scipy.integrate import quad
from scipy.linalg import eigvalsh_tridiagonal
from scipy.sparse.linalg import eigsh

from spherekink.core import (
    NuPerturbation,
    ProblemParams,
    grid_spacing,
    half_grid,
    resample,
    singular_profile,
    symmetric_grid,
)
from spherekink import spectral
from spherekink.report import SweepConfig, run_sweep
from spherekink.shooting import SolveRequest, find_solution, newton_polish
from spherekink.spectral import (
    COARSE_SPACING,
    FLOOR_SHIFT,
    NULL_BAND,
    SchrodingerProblem,
    WitnessFunction,
    build_schrodinger,
    eigenvalues_below,
    morse_index,
    negative_count,
    potential_samples,
    report_to_doc,
    schrodinger_index,
    singular_grid_size,
    truncated_singular_count,
    witness_subspace,
)

P33 = ProblemParams(3, 3.0)
P22 = ProblemParams(2, 2.0)


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
    prof = gudermann_profile()
    prob = build_schrodinger(prof)
    assert prob.n == 4001
    assert prob.cutoff == 20.0
    # V on the half line, at the symmetric grid's own spacing
    assert np.array_equal(prob.grid, prof.grid[2000:])
    # minus Newton's Jacobian: sin h = tanh x, so -3 cos 2h = 3 - 6 sech^2 x
    assert np.max(np.abs(prob.potential - (3.0 - 6.0 / np.cosh(prob.grid) ** 2))) < 1e-12
    assert np.array_equal(prob.drift, 2.0 * np.tanh(prob.grid))
    assert prob.dx == prof.dx
    # the flat form, the tests' second discretisation
    flat = flat_form(prof)
    assert np.array_equal(flat.grid, prob.grid) and not np.any(flat.drift)
    assert np.array_equal(flat.potential,
                          potential_samples(prof.grid, prof.h, prof.params)[2000:])


def test_problem_rejects_nonfinite_potential():
    g = half_grid(5.0, 11)
    v = np.zeros(6)
    v[3] = np.inf
    with pytest.raises(ValueError):
        SchrodingerProblem(g, v)


def test_problem_is_a_half_line_of_at_least_four_nodes():
    # three nodes would leave the odd block one node and no coupling
    for g in (half_grid(5.0, 5), symmetric_grid(5.0, 11)):
        with pytest.raises(ValueError, match=r"on \[0, X\] and potential, >= 4 samples"):
            SchrodingerProblem(g, np.zeros(g.size))
    # five nodes 0.03 apart: stride 2, at which a coarse copy of either block
    # would be one node with no coupling, so both take the whole-range call
    g = half_grid(0.12, 9)
    prob = SchrodingerProblem(g, np.cos(g))
    assert spectral._stride(prob) == 2
    lam = dense_eigs(prob)
    for count in range(1, 8):
        assert np.max(np.abs(eigenvalues_below(prob, count) - lam[:count])) < 1e-9 / prob.dx ** 2


def test_a_grid_too_coarse_for_the_drift_is_refused_with_one_that_fits():
    # m = 60 at X = 20, N = 1001: dx (m-1) = 2.36, where the coupling
    # 1/dx^2 - (m-1) tanh x / (2 dx) turns negative and its square root NaN
    params = ProblemParams(60, 900.0)
    with pytest.raises(ValueError, match=r"dx max\|drift\| < 2, not 2.36; use a grid size "
                                         r"N >= 1183$"):
        build_schrodinger(singular_profile(params, cutoff=20.0, n=1001))
    prob = build_schrodinger(singular_profile(params, cutoff=20.0, n=1183))
    assert 1.99 < prob.dx * np.max(prob.drift) < 2.0
    assert all(np.all(off < 0.0) for _, off in spectral._blocks(prob))


@pytest.mark.parametrize("reach, stride", [(20.0, 4), (30.0, 2), (60.0, None)])
def test_a_coarse_copy_keeps_its_couplings_real(reach, stride, monkeypatch):
    # X = 4 at dx = 0.01: the rounded stride r = 4 fits, and so do 2, 5 and 8.
    # The copy at twice the stride, spacing 2 s dx, has real couplings only
    # while 2 s dx max|drift| < 2: stride 4 up to a drift of 25, stride 2
    # up to 50.  Past both no stride is left, and the report counts plainly
    g = half_grid(4.0, 801)
    prob = SchrodingerProblem(g, 1.0 - 8.0 / np.cosh(g) ** 2 - 0.25 * reach ** 2,
                              reach * np.tanh(g))
    assert spectral._stride(prob) == stride
    shifts = record_shifts(monkeypatch)
    rep = schrodinger_index(prob)
    lam = dense_eigs(prob)
    assert stride is not None or shifts == PLAIN_SHIFTS
    assert (rep.index, rep.nullity_estimate) == (np.sum(lam < -NULL_BAND), 0)
    assert np.max(np.abs(np.array(rep.margin_eigenvalues)
                         - lam[max(rep.index - 1, 0):rep.index + 1])) < 1e-7


# -- counting against dense diagonalisation ----------------------------------------

@pytest.mark.parametrize("n", [51, 101, 201])
def test_negative_count_matches_dense_eigensolver(n, records33):
    g = half_grid(6.0, n)
    problems = [SchrodingerProblem(g, v) for v in (
        np.full(g.size, 1.0),
        np.full(g.size, -1.0),
        4.0 - 8.0 / np.cosh(g) ** 2)]
    # the equator map's Poschl-Teller well in both forms, and a solved
    # level's own operator, index 4, resampled to at most 801 nodes
    equator = singular_profile(P33, cutoff=6.0, n=n)
    problems += [flat_form(equator), build_schrodinger(equator)]
    prof = records33[("even", 4)].profile
    problems.append(build_schrodinger(resample(prof, prof.cutoff, 4 * n - 3)))
    for prob in problems:
        lam = dense_eigs(prob)
        main, off = full_tridiagonal(prob)
        reach = 2.0 * float(np.max(np.abs(off))) + 1.0
        below, above = float(np.min(main)) - reach, float(np.max(main)) + reach   # Gershgorin
        assert negative_count(prob, below) == 0
        assert negative_count(prob, above) == prob.n - 2
        for shift in (0.0, -0.5, 1.0, 4.0, NULL_BAND, -NULL_BAND):
            assert negative_count(prob, shift) == int(np.sum(lam < shift))


def test_negative_count_survives_an_exactly_zero_pivot():
    # V = 0 and shift = 2/dx^2 zero every shifted diagonal entry of both
    # blocks, so each block's first pivot is exactly 0.  shift is also the
    # middle eigenvalue of the 49 interior nodes, lambda_24, an eigenvalue
    # of the even block, so the count must land between the counts just
    # below and just above it: 24 and 25.  stebz takes the zero pivot as a
    # tiny negative one, counting the eigenvalue as below shift.
    g = half_grid(6.0, 51)
    prob = SchrodingerProblem(g, np.zeros(26))
    shift = 2.0 / prob.dx ** 2
    assert [main[0] - shift for main, _ in spectral._blocks(prob)] == [0.0, 0.0]
    lam = dense_eigs(prob)
    assert int(np.sum(lam < shift * (1.0 - 1e-12))) == 24
    assert int(np.sum(lam < shift * (1.0 + 1e-12))) == 25
    assert negative_count(prob, shift) == 25


def test_eigenvalues_below_match_dense_eigensolver():
    prob = flat_form(singular_profile(P33, cutoff=6.0, n=201))
    got = eigenvalues_below(prob, 5)
    ref = np.sort(dense_eigs(prob))[:5]
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9


def test_eigenvalues_below_zero_request():
    g = half_grid(6.0, 51)
    prob = SchrodingerProblem(g, np.zeros(26))
    assert eigenvalues_below(prob, 0).size == 0
    assert eigenvalues_below(prob, 3, 3).size == 0


def test_eigenvalues_below_from_an_index():
    prob = flat_form(singular_profile(P33, cutoff=6.0, n=201))
    ref = np.sort(dense_eigs(prob))[3:6]
    got = eigenvalues_below(prob, 6, 3)
    assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-9
    coarse = eigenvalues_below(prob, 6, 3, tol=0.1 * NULL_BAND)
    assert np.max(np.abs(coarse - ref)) < 1e-7


def test_positive_box_has_no_negative_directions():
    g = half_grid(10.0, 1001)
    prob = SchrodingerProblem(g, np.full(501, 1.0))
    assert negative_count(prob, 0.0) == 0


def test_the_symmetrised_matrix_has_the_jacobians_spectrum():
    # minus the central-difference Jacobian on the whole grid of 201 nodes,
    # as it stands, unsymmetrised, by numpy's general eigensolver, whose
    # error on a matrix that is not normal reaches 1e-7 here
    prof = gudermann_profile(n=201)
    x, dx = prof.grid[1:-1], prof.dx
    d, v = 2.0 * np.tanh(x), -3.0 * np.cos(2.0 * prof.h[1:-1])
    a = (np.diag(2.0 / dx ** 2 + v) - np.diag(1.0 / dx ** 2 - d[:-1] / (2.0 * dx), 1)
         - np.diag(1.0 / dx ** 2 + d[1:] / (2.0 * dx), -1))
    lam = np.linalg.eigvals(a)
    assert np.max(np.abs(lam.imag)) < 1e-9
    assert np.max(np.abs(np.sort(lam.real) - dense_eigs(build_schrodinger(prof)))) < 1e-6


@pytest.mark.parametrize("zeros", [1, 2, 3, 4])
def test_the_morse_matrix_is_minus_newtons_jacobian(zeros, records33):
    # row for row against reference.newton_reference's banded Jacobian on
    # the half grid: the same diagonal negated, and each symmetrised
    # coupling the geometric mean of the two it joins
    prof = records33[("odd" if zeros % 2 else "even", zeros)].profile
    xs = half_grid(prof.cutoff, prof.n)
    ab = _jacobian_banded(xs, prof.half_h, prof.params, 0, 0.0)
    (main, even_off), (_, off) = spectral._blocks(build_schrodinger(prof))
    assert np.max(np.abs(main + ab[1, :-1]) * prof.dx ** 2) < 1e-15
    # ab[0, j + 1] is row j's coupling to j + 1, ab[2, j] row j + 1's to j
    coupled = ab[0, 1:-1] * ab[2, :-2]
    assert np.max(np.abs(even_off ** 2 - coupled) / coupled) < 1e-14
    assert np.array_equal(off, even_off[1:])


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


# the shifts of a report's plain path, in the order it counts at them
PLAIN_SHIFTS = [-10.0 * NULL_BAND, 10.0 * NULL_BAND, -NULL_BAND, NULL_BAND,
                -0.1 * NULL_BAND, 0.1 * NULL_BAND]


def record_shifts(monkeypatch):
    """List of the shifts of every negative_count call made from here on."""
    shifts = []

    def recording(problem, shift=0.0):
        shifts.append(shift)
        return negative_count(problem, shift)

    monkeypatch.setattr(spectral, "negative_count", recording)
    return shifts


@pytest.mark.parametrize("zeros", [1, 2, 3, 4])
def test_a_genuine_level_makes_no_negative_count(zeros, records33, monkeypatch):
    # the blocks' coarse copies at stride s guess the count at -10 NULL_BAND,
    # and the margin pair for the guess clears that shift on both sides and
    # places lambda_index far above +10 NULL_BAND: no eigenvalue lies in the
    # widest band, so the only whole-block counts are the two that certify
    # the pair
    prof = records33[("odd" if zeros % 2 else "even", zeros)].profile
    size = prof.n - 2
    shifts = record_shifts(monkeypatch)
    calls, fallbacks = record_lapack(monkeypatch)
    rep = morse_index(prof)
    assert shifts == [] and fallbacks == []
    s = spectral._stride(build_schrodinger(prof))
    assert s == 4
    solves = [n for n, kind in calls if kind == "solve"]
    even, odd = solves.count(size // 2 + 1), solves.count(size // 2)
    assert calls == ([(len(range(0, size // 2 + 1, s)), "value"),
                      (len(range(s - 1, size // 2, s)), "value")]
                     + windowed_calls(size // 2 + 1, s, lambda t: 0, even)
                     + windowed_calls(size // 2, s, lambda t: t - 1, odd))
    assert rep.margin_eigenvalues[1] > 1e-3
    assert (rep.index, rep.nullity_estimate, rep.flags) == (zeros, 0, ())
    assert rep.band_sensitivity == ((10.0 * NULL_BAND, 0), (0.1 * NULL_BAND, 0))


@pytest.mark.parametrize("zeros", range(1, 9))
def test_a_deep_level_makes_no_negative_count(zeros, records55, monkeypatch):
    # (5,5) levels 1-8 at X=30, N=6001 take the certified path too, each
    # eigenvalue of the pair found from its coarse estimate
    prof = records55[zeros].profile
    shifts = record_shifts(monkeypatch)
    _, fallbacks = record_lapack(monkeypatch)
    rep = morse_index(prof)
    assert shifts == [] and fallbacks == []
    assert (rep.index, rep.nullity_estimate, rep.flags) == (zeros, 0, ())
    assert rep.band_sensitivity == ((10.0 * NULL_BAND, 0), (0.1 * NULL_BAND, 0))


@pytest.mark.parametrize("miss", [-1, 1, None])
@pytest.mark.parametrize("zeros", [1, 2, 3, 4])
def test_a_wrong_guess_falls_back_to_the_same_report(zeros, miss, records33, monkeypatch):
    # a guess one too low or one too high finds a pair that does not clear
    # -10 NULL_BAND on both sides, and no guess finds no pair: the report
    # then makes its six plain counts and finds the pair for the index
    prob = build_schrodinger(records33[("odd" if zeros % 2 else "even", zeros)].profile)
    want = schrodinger_index(prob)
    monkeypatch.setattr(spectral, "_coarse_count",
                        lambda *args: None if miss is None else zeros + miss)
    shifts = record_shifts(monkeypatch)
    assert report_to_doc(schrodinger_index(prob)) == report_to_doc(want)
    assert shifts == PLAIN_SHIFTS


def test_a_guess_that_misses_the_spike_states_is_counted_again():
    # the coarse copies see the smooth well alone, so they guess one
    # eigenvalue below -10 NULL_BAND too few
    prob = spiked_well()
    wide = 10.0 * NULL_BAND
    guess = spectral._coarse_count(prob, spectral._stride(prob), -wide)
    assert guess < negative_count(prob, -wide)
    assert schrodinger_index(prob).index == negative_count(prob, -NULL_BAND) == 2


@pytest.mark.parametrize("k", [0, 1])
def test_an_eigenvalue_within_tol_above_the_wide_band_is_counted(k, monkeypatch):
    # the well 4 - 8 sech^2 x, shifted so that eigenvalue k sits 0.05 NULL_BAND
    # above +10 NULL_BAND: the margin pair, placed within 0.1 NULL_BAND, cannot
    # tell it from one inside the band, so the six plain counts are made
    g = half_grid(8.0, 401)
    v = 4.0 - 8.0 / np.cosh(g) ** 2
    at = 10.05 * NULL_BAND
    prob = SchrodingerProblem(g, v + (at - dense_eigs(SchrodingerProblem(g, v))[k]))
    lam = dense_eigs(prob)
    assert lam[k] == pytest.approx(at, abs=1e-11)
    shifts = record_shifts(monkeypatch)
    rep = schrodinger_index(prob)
    assert shifts == PLAIN_SHIFTS
    assert (rep.index, rep.nullity_estimate, rep.flags) == (k, 0, ())
    assert np.max(np.abs(np.array(rep.margin_eigenvalues) - lam[max(k - 1, 0):k + 1])) < 1e-7


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("past, certified", [(0.05, False), (0.2, True)])
def test_a_right_guess_takes_the_certified_path_only_clear_of_the_wide_band(
        k, side, past, certified, monkeypatch):
    # the well 4 - 8 sech^2 x, shifted so that eigenvalue k sits `past` NULL_BAND
    # outside +10 NULL_BAND (side 1) or -10 NULL_BAND (side -1), and the coarse
    # guess set to the true count at -10 NULL_BAND (the copies' own guess is
    # one too high here): the pair, placed within w = 0.1 NULL_BAND, clears
    # the widest band by w at 0.2 NULL_BAND, not at 0.05
    g = half_grid(8.0, 401)
    v = 4.0 - 8.0 / np.cosh(g) ** 2
    at = side * (10.0 + past) * NULL_BAND
    prob = SchrodingerProblem(g, v + (at - dense_eigs(SchrodingerProblem(g, v))[k]))
    lam = dense_eigs(prob)
    assert lam[k] == pytest.approx(at, abs=1e-11)
    index = k if side > 0 else k + 1
    assert spectral._width(prob, 0.1 * NULL_BAND) == 0.1 * NULL_BAND
    monkeypatch.setattr(spectral, "_coarse_count", lambda *args: index)
    shifts = record_shifts(monkeypatch)
    rep = schrodinger_index(prob)
    assert shifts == ([] if certified else PLAIN_SHIFTS)
    assert (rep.index, rep.nullity_estimate, rep.flags) == (index, 0, ())
    assert rep.band_sensitivity == ((10.0 * NULL_BAND, 0), (0.1 * NULL_BAND, 0))
    assert np.max(np.abs(np.array(rep.margin_eigenvalues)
                         - lam[max(index - 1, 0):index + 1])) < 1e-7


def test_report_flags_fire_at_the_fixed_band(monkeypatch):
    # the well 4 - 8 sech^2 x, shifted so that its lowest eigenvalue sits at
    # +5e-7: inside the null band, outside the band 10x narrower
    g = half_grid(8.0, 401)
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
    g = half_grid(16.0, 801)
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


@pytest.mark.parametrize("m, omega, top", [(3, 3.0, 12), (2, 2.0, 8), (4, 18.0, 8)])
def test_every_level_of_a_deep_sweep_takes_the_certified_path(m, omega, top, monkeypatch):
    # the deep sweeps at X=30, N=6001 besides (5,5), which
    # test_a_deep_level_makes_no_negative_count counts
    shifts = record_shifts(monkeypatch)
    rep = run_sweep(SweepConfig(ProblemParams(m, omega), top, cutoff=30.0, grid_size=6001))
    assert not rep.failures and shifts == []
    assert sorted((r.sequence_key[1], r.spectral.index, r.spectral.nullity_estimate)
                  for r in rep.records) == [(k, k, 0) for k in range(1, top + 1)]


# -- the flat form: a second discretisation -------------------------------------------

@pytest.fixture(scope="module")
def records22():
    return {rec.sequence_key[1]: rec for rec in run_sweep(SweepConfig(P22, 4)).records}


@pytest.mark.parametrize("zeros", [1, 2, 3, 4])
def test_the_flat_form_counts_what_the_jacobian_counts(zeros, records33, records22):
    # index, nullity, and the split of the negative directions between the
    # even and odd sectors, (zeros + 1) // 2 even and zeros // 2 odd
    for prof in (records33[("odd" if zeros % 2 else "even", zeros)].profile,
                 records22[zeros].profile):
        for prob in (build_schrodinger(prof), flat_form(prof)):
            rep = schrodinger_index(prob)
            assert (rep.index, rep.nullity_estimate) == (zeros, 0)
            for shift in (-NULL_BAND, NULL_BAND):
                assert [spectral._count_below(main, off, shift)
                        for main, off in spectral._blocks(prob)] == [(zeros + 1) // 2, zeros // 2]


@pytest.mark.parametrize("zeros", [1, 2])
def test_the_two_discretisations_agree_to_second_order(zeros, margin_profiles):
    # refining the grid 4x shrinks the gap between the two forms' margin
    # pairs 16x (16.0 measured at both levels)
    gap = []
    for n in (4001, 16001):
        prof = margin_profiles[n, zeros]
        pairs = [schrodinger_index(p).margin_eigenvalues
                 for p in (build_schrodinger(prof), flat_form(prof))]
        gap.append(float(np.max(np.abs(np.subtract(*pairs)))))
    assert 12.0 <= gap[0] / gap[1] <= 20.0


# -- the margin pair ---------------------------------------------------------------

def straddling_pair(problem):
    """The eigenvalues either side of -NULL_BAND (the one above alone when
    none lies below), by shift-invert Lanczos: no Sturm count, no bisection."""
    main, off = full_tridiagonal(problem)
    a = sparse.diags([off, main, off], [-1, 0, 1], format="csc")
    lam = eigsh(a, k=6, sigma=-NULL_BAND, return_eigenvectors=False)
    below, above = lam[lam < -NULL_BAND], lam[lam >= -NULL_BAND]
    pair = (float(np.min(above)),)
    return (float(np.max(below)),) + pair if below.size else pair


def box_with_index(index, n=201):
    """The zero potential lowered until exactly `index` eigenvalues lie
    below zero, halfway between two of them."""
    g = half_grid(10.0, n)
    mu = dense_eigs(SchrodingerProblem(g, np.zeros(g.size)))
    lower = mu[index - 1] if index else 0.0
    return SchrodingerProblem(g, np.full(g.size, -0.5 * (lower + mu[index])))


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


def test_every_refined_level_takes_the_certified_path(margin_profiles, monkeypatch):
    # the index-refine benchmark's reports: identity-3 levels 1-4 at N = 16001
    shifts = record_shifts(monkeypatch)
    assert [morse_index(margin_profiles[16001, k]).index for k in range(1, 5)] == [1, 2, 3, 4]
    assert shifts == []


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
    g = half_grid(8.0, 401)
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
    g = half_grid(10.0, 201)
    prob = SchrodingerProblem(g, np.full(101, -1e4))
    rep = schrodinger_index(prob)
    assert rep.index == 199
    assert rep.margin_eigenvalues == pytest.approx([dense_eigs(prob)[-1]], abs=1e-7)


def test_a_report_counts_where_a_coarse_copy_is_one_node():
    # X = 0.16 at dx = 0.04: stride 2 fits its 4 spacings, and the odd
    # block's copy at stride 2 is one node, too few to count on
    g = half_grid(0.16, 9)
    prob = SchrodingerProblem(g, np.full(g.size, -1e3))
    assert spectral._stride(prob) == 2
    assert spectral._coarse_count(prob, 2, -10.0 * NULL_BAND) is None
    rep = schrodinger_index(prob)
    lam = dense_eigs(prob)
    assert (rep.index, rep.nullity_estimate) == (np.sum(lam < 0.0), 0) == (3, 0)
    assert rep.margin_eigenvalues == pytest.approx(lam[2:4], abs=1e-7)


def windowed_calls(size, s, first, solves):
    """The LAPACK calls that find one eigenvalue of a block of the given
    size at stride s, whose coarse copy at stride t starts first(t) nodes
    in (0 at the even block's mirror node, else t - 1): an index-range
    stebz call on each coarse copy, one factorisation and `solves` solves
    of inverse iteration, and the count that certifies its index."""
    coarse = [(len(range(first(t), size, t)), "index") for t in (s, 2 * s)]
    return coarse + [(size, "factor")] + [(size, "solve")] * solves + [(size, "value")]


@pytest.mark.parametrize("zeros", [1, 2, 3, 4])
def test_the_margin_pair_is_bisected_on_the_reflection_blocks(zeros, records33, monkeypatch):
    # the pair's two eigenvalues, one even and one odd, come from the even
    # block (centre node onward) and the odd block (the nodes after it),
    # each estimated by bisection on two coarse copies of its block, found
    # by two or three solves of inverse iteration and certified by one
    # count; no call searches a whole block's range
    prob = build_schrodinger(records33[("odd" if zeros % 2 else "even", zeros)].profile)
    size = prob.n - 2
    rep = schrodinger_index(prob)
    assert rep.index == zeros
    main, off = full_tridiagonal(prob)
    whole = eigvalsh_tridiagonal(main, off, select="i", select_range=(zeros - 1, zeros))
    assert np.max(np.abs(np.array(rep.margin_eigenvalues) - whole)) <= 1e-7
    calls, fallbacks = record_lapack(monkeypatch)
    pair = eigenvalues_below(prob, zeros + 1, zeros - 1, tol=0.1 * NULL_BAND)
    assert np.array_equal(pair, rep.margin_eigenvalues)
    assert spectral._stride(prob) == round(COARSE_SPACING / prob.dx) == 4
    solves = [n for n, kind in calls if kind == "solve"]
    even, odd = solves.count(size // 2 + 1), solves.count(size // 2)
    assert 2 <= even <= 3 and 2 <= odd <= 3
    assert calls == (windowed_calls(size // 2 + 1, 4, lambda t: 0, even)
                     + windowed_calls(size // 2, 4, lambda t: t - 1, odd))
    assert fallbacks == []


def spiked_well():
    """The well 4 - 8 sech^2 x on [-20, 20], N = 4001, with a one-node well
    of depth 2/dx^2 either side of the centre node.  The spikes lie between
    the coarse copies' nodes, so the copies see the smooth well alone, and
    each block's lowest eigenvalue is one the copies do not have."""
    g = half_grid(20.0, 4001)
    v = 4.0 - 8.0 / np.cosh(g) ** 2
    v[1] = -2.0 / (g[-1] - g[-2]) ** 2
    return SchrodingerProblem(g, v)


def test_a_window_that_cannot_be_certified_falls_back(monkeypatch):
    # the copies estimate each block's lowest eigenvalue at the smooth
    # well's, which the spikes move by 0.09 or more: from there inverse
    # iteration does not reach a residual of tol / 2 within MAX_SOLVES
    # solves, so no count is made, and each block's share comes from the
    # whole-range call
    prob = spiked_well()
    blocks = spectral._blocks(prob)
    calls, fallbacks = record_lapack(monkeypatch)
    got = eigenvalues_below(prob, 4, tol=0.1 * NULL_BAND)
    assert fallbacks == [main.size for main, _ in blocks]
    # the coarse copies, no count, and each block's whole-range stebz call
    s = spectral._stride(prob)
    even, odd = (main.size for main, _ in blocks)
    assert calls == (windowed_calls(even, s, lambda t: 0, spectral.MAX_SOLVES)[:-1]
                     + [(even, "index")]
                     + windowed_calls(odd, s, lambda t: t - 1, spectral.MAX_SOLVES)[:-1]
                     + [(odd, "index")])
    # that call is the one scipy's index-range eigvalsh_tridiagonal makes
    for b, (main, off) in enumerate(blocks):
        assert np.array_equal(got[b::2], eigvalsh_tridiagonal(
            main, off, select="i", select_range=(0, 1), tol=0.1 * NULL_BAND))
    main, off = full_tridiagonal(prob)
    assert np.max(np.abs(got - eigvalsh_tridiagonal(main, off, select="i",
                                                    select_range=(0, 3)))) <= 1e-7


def test_a_start_that_converges_to_the_wrong_eigenvalue_falls_back(monkeypatch):
    # the odd block's eigenvalue 1 (overall eigenvalue 3): the copies'
    # eigenvalue 1 is the smooth well's first excited state, which in the
    # spiked block is eigenvalue 2.  Inverse iteration converges to it, and
    # the count below it reads 2, not 1, so the whole-range call runs
    prob = spiked_well()
    main, off = spectral._blocks(prob)[1]
    calls, fallbacks = record_lapack(monkeypatch)
    got = eigenvalues_below(prob, 4, 3, tol=0.1 * NULL_BAND)
    assert fallbacks == [main.size]
    s = spectral._stride(prob)
    solves = sum(kind == "solve" for _, kind in calls)
    assert solves < spectral.MAX_SOLVES
    assert calls == windowed_calls(main.size, s, lambda t: t - 1, solves) + [(main.size, "index")]
    lam = eigvalsh_tridiagonal(main, off, select="i", select_range=(1, 2))
    assert got == pytest.approx(lam[:1], abs=1e-7)
    assert lam[1] - lam[0] > 1.0


@pytest.mark.parametrize("cutoff, n, stride", [
    (20.0, 4001, 4), (20.0, 16001, 16), (16.0, 2001, 2), (30.0, 6001, 4),
    # 16 does not divide 5000 spacings, nor 8 550; 10 and 5 are the nearest
    # strides that do, 6 and 3 tying with them but not dividing
    (25.0, 10001, 10), (5.5, 1101, 5),
    # 45 spacings of 0.022: r = round(0.04 / 0.022) = 2, and no d in 2..4
    # has 2d dividing 45
    (1.0, 91, None)])
def test_the_coarse_stride_divides_the_half_line(cutoff, n, stride):
    g = half_grid(cutoff, n)
    assert spectral._stride(SchrodingerProblem(g, np.zeros(g.size))) == stride


def test_wells_on_a_grid_that_the_rounded_stride_does_not_divide(monkeypatch):
    # X = 5.5, N = 1101: 550 spacings of 0.01, which 2 round(COARSE_SPACING
    # / dx) = 8 does not divide.  At stride 4 the coarse copies' Dirichlet
    # end lies at 5.52, which moves a weakly bound state off the Richardson
    # line: 18 of these 36 wells then fall back.  At stride 5 none does
    g = half_grid(5.5, 1101)
    _, fallbacks = record_lapack(monkeypatch)
    for depth in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0):
        for width in (0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
            prob = SchrodingerProblem(g, 1.0 - depth / np.cosh(g / width) ** 2)
            bound = negative_count(prob, 1.0)
            got = eigenvalues_below(prob, bound, tol=1e-7)
            main, off = full_tridiagonal(prob)
            whole = eigvalsh_tridiagonal(main, off, select="i", select_range=(0, bound - 1))
            assert np.max(np.abs(got - whole)) <= 1e-6
    assert fallbacks == []


@pytest.mark.parametrize("depth", [4.0, 8.0, 16.0])
def test_states_odd_about_an_off_centre_well_need_no_fallback(depth, monkeypatch):
    # a well centred at x = 5 on the half line [0, 10], mirrored at -5: its
    # states odd about x = 5 are all but orthogonal to a vector of ones, so
    # inverse iteration from ones does not reach them within MAX_SOLVES
    # solves at depths 8 and 16, and starts from a pseudo-random vector
    g = half_grid(10.0, 1001)
    prob = SchrodingerProblem(g, 1.0 - depth / np.cosh(g - 5.0) ** 2)
    bound = negative_count(prob, 1.0)
    _, fallbacks = record_lapack(monkeypatch)
    main, off = full_tridiagonal(prob)
    for tol in (0.0, 1e-7):
        got = eigenvalues_below(prob, bound, tol=tol)
        whole = eigvalsh_tridiagonal(main, off, select="i", select_range=(0, bound - 1))
        assert np.max(np.abs(got - whole)) <= max(tol, 1e-10 * 5.0 / prob.dx ** 2)
    assert fallbacks == []


# -- equator branch --------------------------------------------------------------

def test_singular_count_grows_with_cutoff():
    # Weyl scaling: about (2X/pi) sqrt(omega - (m-1)^2/4) negatives at cutoff X
    c20 = truncated_singular_count(P33, 20.0)
    c40 = truncated_singular_count(P33, 40.0)
    assert c20 == 18
    assert c40 == 36
    assert abs(c20 - 40.0 * math.sqrt(2.0) / math.pi) <= 1.0
    assert c40 > c20


# ten maps in the regime (m-1)^2/4 < omega and six cutoffs on the 0.01 grid,
# fixed before the counts were compared; a case whose closed form lies
# within SINGULAR_MARGIN of an integer is skipped, since the FD count there
# may fall either side
SINGULAR_MAPS = ((3, 3.0), (2, 2.0), (4, 18.0), (3, 8.0), (5, 5.0), (4, 4.0), (2, 5.0),
                 (6, 10.0), (3, 2.5), (7, 12.0), (25, 144.75), (50, 601.0))
SINGULAR_CUTOFFS = (8.0, 12.5, 17.77, 23.31, 34.06, 45.0)
SINGULAR_MARGIN = 0.02


def test_singular_count_matches_the_poschl_teller_phase():
    # an oracle with no matrix: floor((2 q X + phi) / pi), q the lattice
    # wavenumber of the far field and phi the well's transmission phase,
    # against the sum of the two blocks' counts
    checked, skipped = 0, []
    for m, omega in SINGULAR_MAPS:
        params = ProblemParams(m, omega)
        assert params.hypothesis()
        for cutoff in SINGULAR_CUTOFFS:
            law = singular_count(params, cutoff)
            if abs(law - round(law)) < SINGULAR_MARGIN:
                skipped.append((m, omega, cutoff))
                continue
            assert truncated_singular_count(params, cutoff) == math.floor(law), (m, omega, cutoff)
            checked += 1
    assert checked + len(skipped) == 72 and len(skipped) <= 6, skipped


def test_singular_grid_keeps_the_drift_within_its_floor_shift():
    # the Jacobian form's far field sits about (m-1)^4 dx^2/64 above the flat
    # form's; at 100 nodes per unit length that read 17 negatives at
    # (25, 144.75), X = 20, for the Poschl-Teller law's 21.44
    for m in (2, 3, 6, 7, 25, 50, 80):
        n = singular_grid_size(ProblemParams(m, (m - 1) ** 2 / 4 + 0.75), 20.0)
        dx = grid_spacing(20.0, n)
        assert (m - 1) ** 4 * dx ** 2 / 64 <= FLOOR_SHIFT
        assert n == 4001 if m <= 6 else n > 4001


@pytest.mark.parametrize("a", [1, 2, 3])
def test_poschl_teller_phase_at_integer_depth(a):
    # for integer a the phase is 2 sum_{j=1}^{a} arctan(j / kappa)
    for kappa in (0.3, 1.0, math.sqrt(2.0), 4.0):
        want = 2.0 * sum(math.atan(j / kappa) for j in range(1, a + 1))
        assert poschl_teller_phase(a, kappa) == pytest.approx(want, abs=1e-12)


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
    qw = schrodinger_form(flat_form(prof), w, w)
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
    prob = flat_form(prof)
    grid, _ = full_line(prob)
    samples = [f(grid) for f in fam.functions]
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
