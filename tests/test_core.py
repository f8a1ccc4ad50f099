"""Core types and functionals.

The exact reference solution used throughout: for omega = m the profile
h(x) = 2 atan(e^x) - pi/2 solves the equation with h' = sech x and
cos h = sech x, giving closed forms for every functional.
"""

import math

import numpy as np
import pytest
from conftest import gudermann_profile
from reference import energy_tail_bound
from scipy.integrate import quad

from spherekink.core import (
    HALF_PI,
    NuPerturbation,
    ProblemParams,
    Profile,
    clearance,
    count_zero_crossings,
    decay_rate,
    derivative_samples,
    el_residual,
    energy,
    half_grid,
    lyapunov_W,
    resample,
    singular_energy,
    singular_profile,
    symmetric_grid,
    weighted_norm,
)
from spherekink.shooting import SolveRequest, newton_polish


# -- grids and profiles --------------------------------------------------------

def test_symmetric_grid_is_bitwise_symmetric():
    g = symmetric_grid(20.0, 4001)
    assert g.size == 4001
    assert g[2000] == 0.0
    assert np.all(g + g[::-1] == 0.0)


def test_symmetric_grid_rejects_even_size():
    with pytest.raises(ValueError):
        symmetric_grid(10.0, 4000)


def test_profile_rejects_constraint_violation():
    with pytest.raises(ValueError, match="leaves the band"):
        Profile(ProblemParams(3, 3.0), "even", 10.0, np.full(51, HALF_PI + 1e-3))


def test_profile_rejects_wrong_symmetry_class():
    # a class is even or odd, and an odd profile vanishes at 0 exactly
    with pytest.raises(ValueError, match="must be 'even' or 'odd', not 'none'"):
        Profile(ProblemParams(3, 3.0), "none", 10.0, np.zeros(51))
    h = np.tanh(half_grid(10.0, 101)) + 1e-12
    with pytest.raises(ValueError, match=r"an odd profile has h\(0\) = 0, not 1e-12"):
        Profile(ProblemParams(3, 3.0), "odd", 10.0, h)


@pytest.mark.parametrize("cls, sign", [("even", 1.0), ("odd", -1.0)])
def test_profile_mirrors_its_half_line_by_class(cls, sign):
    half = half_grid(10.0, 101)
    prof = Profile(ProblemParams(3, 3.0), cls, 10.0, np.tanh(half) if sign < 0 else np.cos(half))
    assert prof.n == 101 and prof.grid.tobytes() == symmetric_grid(10.0, 101).tobytes()
    assert np.array_equal(prof.h[50:], prof.half_h)
    assert np.array_equal(prof.h, sign * prof.h[::-1])
    assert np.array_equal(prof.dh, derivative_samples(prof.h, prof.dx))


def test_profile_arrays_are_frozen():
    prof = gudermann_profile(n=201)
    with pytest.raises(ValueError):
        prof.h[0] = 1.0


def test_count_zero_crossings():
    assert count_zero_crossings(np.array([1.0, -1.0, 1.0])) == 2
    assert count_zero_crossings(np.array([1.0, 0.0, -1.0])) == 1
    assert count_zero_crossings(np.array([0.0, 1.0, 2.0])) == 0
    assert count_zero_crossings(np.array([-1.0, -2.0, -0.5])) == 0


def test_derivative_samples_fourth_order():
    g = symmetric_grid(2.0, 801)
    err = np.max(np.abs(derivative_samples(np.sin(g), g[1] - g[0]) - np.cos(g)))
    assert err < 1e-9


# -- nu perturbation ------------------------------------------------------------

def _bump_nu(radius=2.0, n=401, amp=0.3):
    g = np.linspace(-radius, radius, n)
    vals = amp * np.cos(np.pi * g / (2.0 * radius)) ** 2
    vals[0] = vals[-1] = 0.0
    return NuPerturbation(g, vals)


def test_nu_interpolates_and_vanishes_outside():
    nu = _bump_nu()
    assert nu(0.0) == pytest.approx(0.3, abs=1e-12)
    assert nu(5.0) == 0.0
    assert nu(-5.0) == 0.0
    assert nu.support_radius == 2.0


def test_nu_rejects_odd_part():
    g = np.linspace(-1.0, 1.0, 101)
    vals = 0.1 * g ** 3
    vals[0] = vals[-1] = 0.0
    with pytest.raises(ValueError):
        NuPerturbation(g, vals)


def test_nu_rejects_amplitude_one():
    g = np.linspace(-1.0, 1.0, 101)
    vals = 1.0 - g ** 2
    vals[0] = vals[-1] = 0.0
    with pytest.raises(ValueError):
        NuPerturbation(g, vals)


@pytest.mark.parametrize("where, at, value", [
    ("values", [50], math.nan), ("values", [50], math.inf), ("values", [50], -math.inf),
    ("grid", [50], math.nan), ("grid", [0], -math.inf), ("grid", [0, -1], math.inf),
], ids=["values-nan", "values-inf", "values-minus-inf", "grid-nan", "grid-minus-inf",
        "grid-both-inf"])
def test_nu_rejects_non_finite_samples(where, at, value):
    # a NaN fails no comparison, and -inf + inf is NaN: each check the
    # samples meet after the finiteness one would let some of these through
    g = np.linspace(-1.0, 1.0, 101)
    samples = {"grid": g, "values": 0.1 * (1.0 - g ** 2)}
    samples[where][at] = value
    if len(at) == 2:
        samples[where][0] = -value
    with pytest.raises(ValueError, match="nu samples must be finite"):
        NuPerturbation(samples["grid"], samples["values"])


# -- residual, Lyapunov quantity -----------------------------------------------

def test_el_residual_point_value():
    # x=0, h=pi/4, dh=0, d2h=0: residual is (omega/2) sin(pi/2) = 1.5
    p = ProblemParams(3, 3.0)
    assert el_residual(0.0, math.pi / 4, 0.0, 0.0, p) == pytest.approx(1.5, abs=1e-15)


def test_el_residual_vanishes_on_exact_solution():
    prof = gudermann_profile()
    g = prof.grid
    d2h = -np.tanh(g) / np.cosh(g)
    r = el_residual(g, prof.h, 1.0 / np.cosh(g), d2h, prof.params)
    assert np.max(np.abs(r)) < 1e-13


def test_lyapunov_point_value():
    p = ProblemParams(3, 3.0)
    # (1/2)*1 + (3/2) sin^2(pi/4) = 0.5 + 0.75
    assert lyapunov_W(0.0, math.pi / 4, 1.0, p) == pytest.approx(1.25, abs=1e-15)


def test_lyapunov_monotone_along_exact_solution():
    prof = gudermann_profile()
    w = lyapunov_W(prof.grid, prof.h, prof.dh, prof.params)
    right = prof.grid > 0
    assert np.min(np.diff(w[right])) > -1e-15


# -- energies -------------------------------------------------------------------

def test_singular_energy_closed_forms():
    assert singular_energy(ProblemParams(2, 2.0)) == pytest.approx(math.pi, abs=1e-9)
    assert singular_energy(ProblemParams(3, 3.0)) == pytest.approx(3.0, abs=1e-9)
    assert singular_energy(ProblemParams(5, 5.0)) == pytest.approx(10.0 / 3.0, abs=1e-9)


def test_singular_energy_matches_direct_quadrature():
    for m, om in ((2, 2.0), (3, 3.0), (5, 5.0), (7, 16.0)):
        val, _ = quad(lambda x: 0.5 * om / np.cosh(x) ** (m - 1), -40.0, 40.0)
        assert singular_energy(ProblemParams(m, om)) == pytest.approx(val, abs=1e-9)


def test_singular_profile_energy_agrees():
    p = ProblemParams(3, 3.0)
    prof = singular_profile(p, cutoff=25.0, n=8001)
    assert energy(prof) == pytest.approx(singular_energy(p), abs=1e-9)


def test_exact_profile_energy():
    # closed form: int [sech^2] sech^2 + 3 sech^2 sech^2 over R halved -> 8/3
    prof = gudermann_profile()
    assert energy(prof) == pytest.approx(8.0 / 3.0, abs=1e-9)


def test_exact_profile_energy_m2():
    prof = gudermann_profile(m=2)
    # (1/2) int [sech^2 + 2 sech^2 sech^2] sech dx = 3 pi / 4
    assert energy(prof) == pytest.approx(3.0 * math.pi / 4.0, abs=1e-9)


def test_energy_below_singular_level():
    prof = gudermann_profile()
    assert energy(prof) < singular_energy(prof.params)


# -- clearance below the singular energy -----------------------------------------

def test_clearance_agrees_with_the_subtraction_where_that_resolves_it(records33):
    # levels 1-4 of (3, 3) clear 3 by 0.33 down to 4.1e-4, far above the
    # roundoff of singular_energy - energy
    for key, rec in records33.items():
        want = singular_energy(rec.profile.params) - energy(rec.profile)
        assert abs(clearance(rec.profile) - want) <= 1e-14, key


@pytest.mark.parametrize("n", [1, 2, 3, 6])
@pytest.mark.parametrize("cutoff", [5.0, 20.0])
def test_clearance_tail_is_the_weight_beyond_the_cutoff(n, cutoff):
    # h = 0 has no interior clearance, so all of it is the closed-form tail
    # (omega/2) int_{|x| > X} sech^n; a nu inside the window adds nothing
    def sech_n(x):
        return (2.0 * math.exp(-x) / (1.0 + math.exp(-2.0 * x))) ** n

    want = 0.5 * 3.0 * 2.0 * quad(sech_n, cutoff, np.inf, epsabs=0.0, epsrel=1e-13)[0]
    g = np.linspace(-2.0, 2.0, 41)
    for nu in (None, NuPerturbation(g, 0.5 * np.cos(np.pi * g / 4.0) ** 2)):
        zero = Profile(ProblemParams(n + 1, 3.0, nu), "even", cutoff, np.zeros(101))
        assert clearance(zero) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_clearance_counts_nu_beyond_the_cutoff():
    # nu reaching past X adds (omega/2) int_{|x| > X} nu sech^2, the part of
    # singular_energy's nu correction that energy's window leaves out
    g = np.linspace(-3.0, 3.0, 601)
    p = ProblemParams(3, 3.0, NuPerturbation(g, 0.5 * np.cos(np.pi * g / 6.0) ** 2))
    zero = singular_profile(p, cutoff=1.0, n=4001)
    assert clearance(zero) == pytest.approx(singular_energy(p) - energy(zero), abs=1e-9)
    assert clearance(zero) > clearance(singular_profile(ProblemParams(3, 3.0), 1.0, 4001))


@pytest.mark.parametrize("k", [7, 8])
def test_clearance_below_roundoff_is_resolved_under_refinement(k, records55):
    # (5, 5) level k re-polished from N=6001 to N=11001 at X=30
    prof = records55[k].profile
    req = SolveRequest(prof.params, prof.symmetry_class, k, cutoff=30.0, grid_size=11001)
    fine = newton_polish(resample(prof, 30.0, 11001), req)
    assert 0.0 < clearance(prof) < 1e-16
    assert clearance(fine) == pytest.approx(clearance(prof), rel=1e-3)


def test_energy_tail_bound_controls_truncation():
    near = gudermann_profile(cutoff=14.0, n=2801)
    far = gudermann_profile(cutoff=30.0, n=6001)
    gap = abs(energy(far) - energy(near))
    bound = energy_tail_bound(near)
    assert bound >= 0.0
    assert gap <= bound + 1e-12
    assert bound < 1e-9


def test_z2_symmetry_of_energy():
    prof = gudermann_profile()
    neg = Profile(prof.params, "odd", prof.cutoff, -prof.half_h, residual_norm=0.0)
    assert energy(neg) == energy(prof)


def test_weighted_norm_constant():
    prof = Profile(ProblemParams(3, 3.0), "even", 20.0, np.ones(2001), residual_norm=0.0)
    assert weighted_norm(prof) == pytest.approx(math.sqrt(2.0), abs=1e-9)


def test_weighted_norm_tanh():
    # h = a x with a = pi / (2 X) rather than tanh x, because derivative_samples
    # is exact for a linear h, so the check sees the quadrature alone:
    # int a^2 (1 + x^2) sech^2 x dx = a^2 (2 + pi^2 / 6)
    a = HALF_PI / 20.0
    prof = Profile(ProblemParams(3, 3.0), "odd", 20.0, a * half_grid(20.0, 4001),
                   residual_norm=0.0)
    assert weighted_norm(prof) == pytest.approx(a * math.sqrt(2.0 + math.pi ** 2 / 6.0),
                                                abs=1e-9)


# -- decay rate -------------------------------------------------------------------

def test_decay_exponents_identity_maps():
    for m, om in ((3, 3.0), (2, 2.0)):
        lam = decay_rate(ProblemParams(m, om))
        assert lam == pytest.approx(-1.0, abs=1e-14)


def test_decay_exponent_hopf():
    lam = decay_rate(ProblemParams(7, 16.0))
    assert lam == pytest.approx(-2.0, abs=1e-14)


def test_exponent_product_is_minus_omega():
    for m, om in ((3, 3.0), (4, 18.0), (13, 45.0), (2, 2.0)):
        lam = decay_rate(ProblemParams(m, om))
        other = (m - 1) - lam
        assert lam * other == pytest.approx(-om, rel=1e-12)


# -- resampling -------------------------------------------------------------------

def test_resample_matches_exact_solution():
    coarse = gudermann_profile(cutoff=20.0, n=2001)
    fine = resample(coarse, 22.0, 3001)
    g = fine.grid
    exact = 2.0 * np.arctan(np.exp(g)) - HALF_PI
    assert np.max(np.abs(fine.h - exact)) < 1e-8
    # the continued tails on both sides approach +-pi/2 as the exact profile
    # does, its gap sign(x) pi/2 - h being sign(x) 2 atan(e^-|x|)
    tails = np.abs(g) > 20.0
    np.testing.assert_allclose(np.sign(g[tails]) * HALF_PI - fine.h[tails],
                               np.sign(g[tails]) * 2.0 * np.arctan(np.exp(-np.abs(g[tails]))),
                               rtol=1e-5, atol=0.0)


def test_resample_keeps_equator_branch_flat():
    p = ProblemParams(3, 3.0)
    prof = singular_profile(p, cutoff=20.0, n=2001)
    wide = resample(prof, 24.0, 2401)
    assert np.max(np.abs(wide.h)) == 0.0
