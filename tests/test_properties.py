"""Property tests: inertia counts and eigenvalues against a dense eigensolver
on random small potentials, exact float round trips through dumps, and the
h -> -h symmetry of the shooting solver."""

import json
import math

import numpy as np
import pytest
from conftest import record_lapack
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import dense_eigs, full_tridiagonal
from scipy.linalg import eigvalsh_tridiagonal

from spherekink import spectral
from spherekink.core import ProblemParams
from spherekink.serialize import dumps
from spherekink.shooting import NoBracketFound, PolishDiverged, SolveRequest, find_solution
from spherekink.spectral import (
    COARSE_SPACING,
    NULL_BAND,
    SchrodingerProblem,
    eigenvalues_below,
    negative_count,
    schrodinger_index,
)

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def problems(draw):
    """A random potential on 4 to 30 nodes of a half line [0, X], whose
    mirror is the even potential on [-X, X] that dense_eigs diagonalises."""
    half = draw(st.integers(4, 30))
    half_width = draw(st.floats(1.0, 10.0))
    v = draw(st.lists(st.floats(-50.0, 50.0), min_size=half, max_size=half))
    return SchrodingerProblem(np.linspace(0.0, half_width, half), np.array(v))


def spectral_scale(problem):
    return float(np.max(np.abs(problem.potential))) + 4.0 / problem.dx ** 2


@settings(max_examples=200, deadline=None)
@given(problems(), st.floats(-0.5, 1.5))
def test_negative_count_matches_dense(problem, t):
    lam = dense_eigs(problem)
    # shifts anywhere from below the spectrum to above it
    shift = float(lam[0] + t * (lam[-1] - lam[0]))
    assume(np.min(np.abs(lam - shift)) > 1e-8 * spectral_scale(problem))
    assert negative_count(problem, shift) == int(np.sum(lam < shift))


@settings(max_examples=200, deadline=None)
@given(problems(), st.integers(1, 8))
def test_eigenvalues_below_match_dense(problem, count):
    lam = dense_eigs(problem)
    count = min(count, lam.size)
    got = eigenvalues_below(problem, count)
    assert got.shape == (count,)
    assert np.max(np.abs(got - lam[:count])) <= 1e-10 * spectral_scale(problem)


@settings(max_examples=200, deadline=None)
@given(problems(), st.data())
def test_eigenvalues_of_an_even_potential_match_dense(problem, data):
    lam = dense_eigs(problem)
    # any range of indices: within one block's parity or across both, up to
    # the top eigenvalue
    first = data.draw(st.integers(0, lam.size - 1))
    count = data.draw(st.integers(first + 1, lam.size))
    got = eigenvalues_below(problem, count, first)
    assert got.shape == (count - first,)
    assert np.max(np.abs(got - lam[first:count])) <= 1e-10 * spectral_scale(problem)
    top = eigenvalues_below(problem, lam.size, lam.size - 1)
    assert abs(top[0] - lam[-1]) <= 1e-10 * spectral_scale(problem)


@st.composite
def wells(draw):
    """One to three sech^2 wells below a constant floor on a half line of
    501 to 2001 nodes, mirrored into an even potential on [-X, X].  The
    spacing is COARSE_SPACING / s for a stride s from 2 to 10, and the half
    line [0, X], 5 <= X <= 12, is a whole number of spacings 2 s dx, so that
    eigenvalues_below takes s for its coarse copies."""
    s = draw(st.integers(2, 10))
    k = draw(st.integers(max(63, -(-250 // s)), min(150, 1000 // s)))
    half_width = 2 * k * COARSE_SPACING
    floor = draw(st.floats(0.5, 4.0))
    g = np.linspace(0.0, half_width, 2 * s * k + 1)
    v = np.full(g.size, floor)
    for _ in range(draw(st.integers(1, 3))):
        depth, width = draw(st.floats(1.0, 20.0)), draw(st.floats(0.5, 3.0))
        centre = draw(st.floats(-0.5, 0.5)) * half_width
        v -= depth / np.cosh((g - centre) / width) ** 2
    problem = SchrodingerProblem(g, v)
    assert spectral._stride(problem) == s
    return problem, floor


@settings(max_examples=40, deadline=None)
@given(wells(), st.data())
def test_eigenvalues_of_smooth_wells_match_the_whole_range_call(well, data):
    # the grids are fine enough for the coarse copies that place each
    # block's estimates, and the bound states below the floor are resolved
    # there, so no block falls back to its whole-range call
    problem, floor = well
    bound = negative_count(problem, floor)
    assume(bound >= 1)
    first = data.draw(st.integers(0, bound - 1))
    count = data.draw(st.integers(first + 1, min(bound, first + 4)))
    main, off = full_tridiagonal(problem)
    with pytest.MonkeyPatch.context() as mp:
        _, fallbacks = record_lapack(mp)
        for tol, bound_diff in ((0.0, 1e-10 * spectral_scale(problem)), (1e-7, 1e-7)):
            got = eigenvalues_below(problem, count, first, tol)
            whole = eigvalsh_tridiagonal(main, off, select="i",
                                         select_range=(first, count - 1), tol=tol)
            assert got.shape == whole.shape
            assert np.max(np.abs(got - whole)) <= bound_diff
    assert fallbacks == []


def near_a_band_edge(problem, data, top):
    """problem with its potential shifted so that one of its lowest top
    eigenvalues lies within 20 NULL_BAND of -10, -1, 1 or 10 NULL_BAND."""
    j = data.draw(st.integers(0, top - 1))
    lam = eigvalsh_tridiagonal(*full_tridiagonal(problem), select="i", select_range=(j, j))[0]
    at = NULL_BAND * (data.draw(st.sampled_from([-10.0, -1.0, 1.0, 10.0]))
                      + data.draw(st.floats(-20.0, 20.0)))
    return SchrodingerProblem(problem.grid, problem.potential + (at - lam))


def assert_report_is_six_counts(problem):
    """schrodinger_index's index, nullity and band sensitivity are those of
    negative_count at -+10, -+1 and -+0.1 NULL_BAND."""
    rep = schrodinger_index(problem)
    count = {t: negative_count(problem, t * NULL_BAND)
             for t in (-10.0, -1.0, -0.1, 0.1, 1.0, 10.0)}
    assert (rep.index, rep.nullity_estimate) == (count[-1.0], count[1.0] - count[-1.0])
    assert rep.band_sensitivity == ((10.0 * NULL_BAND, count[10.0] - count[-10.0]),
                                    (0.1 * NULL_BAND, count[0.1] - count[-0.1]))


@settings(max_examples=100, deadline=None)
@given(wells(), st.data())
def test_a_report_near_a_band_edge_is_six_counts_on_smooth_wells(well, data):
    # the coarse copies guess the count at -10 NULL_BAND, which the report
    # takes only where its margin pair clears that shift
    problem, floor = well
    assert_report_is_six_counts(
        near_a_band_edge(problem, data, max(1, negative_count(problem, floor))))


@settings(max_examples=200, deadline=None)
@given(problems(), st.data())
def test_a_report_near_a_band_edge_is_six_counts(problem, data):
    # on these few nodes a stride seldom fits, so the count is made
    assert_report_is_six_counts(near_a_band_edge(problem, data, problem.n - 2))


def same_float(a, b):
    """Equal, a float, and with the same sign (which tells -0.0 from 0.0)."""
    return type(a) is float and a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@given(finite)
def test_dumps_round_trips_floats(x):
    assert json.loads(dumps(x)) == x
    for value in (x, np.float64(x)):
        assert same_float(json.loads(dumps(value)), x)


@given(st.lists(finite, max_size=20))
def test_dumps_round_trips_float_lists(xs):
    assert json.loads(dumps(xs)) == xs
    for value in (xs, np.array(xs, dtype=float)):
        back = json.loads(dumps(value))
        assert len(back) == len(xs)
        assert all(same_float(b, x) for b, x in zip(back, xs))


def solve_or_error(req, sign):
    try:
        return find_solution(req, sign=sign)
    except (NoBracketFound, PolishDiverged) as exc:
        return f"{type(exc).__name__}: {exc}"


# omega >= m keeps the decay rate at least 1, so most levels reach pi/2 within
# the cutoff, and m <= 5 keeps omega above the threshold (m-1)^2/4
@settings(max_examples=6, deadline=None)
@given(st.integers(2, 5), st.floats(0.0, 12.0), st.integers(1, 2))
def test_sign_flag_negates_exactly(m, extra, zeros):
    params = ProblemParams(m, m + extra)
    assert params.hypothesis()
    req = SolveRequest(params, "odd" if zeros % 2 else "even", zeros,
                       cutoff=16.0, grid_size=1001)
    plus, minus = solve_or_error(req, 1), solve_or_error(req, -1)
    if isinstance(plus, str):
        # a level the solver cannot reach fails the same way for either sign
        assert minus == plus
    else:
        assert not isinstance(minus, str), minus
        assert np.array_equal(minus.h, -plus.h)
        assert minus.zero_count == plus.zero_count == zeros
