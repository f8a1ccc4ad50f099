"""Oracles the suite checks the package against, which the package never calls.

* hessian_form and schrodinger_form: the second variation of the energy as a
  bilinear form, in the weighted picture and in the flat Schrodinger one;
  hessian_fd_check holds the first to a centred second difference of the
  energy (acceptance criterion 7).
* flat_form: the second variation's second discretisation, the flat
  operator -w'' + V w of potential_samples with no drift, whose
  eigenvalues are those of build_schrodinger's Jacobian form to O(dx^2).
* full_tridiagonal and dense_eigs: the FD matrix of a SchrodingerProblem on
  the whole symmetric grid, its potential mirrored and its drift mirrored
  odd, symmetrised, and its spectrum by a dense eigensolver, so that no
  reflection block enters the oracle.
* poschl_teller_phase and singular_count: the equator branch's truncated
  count in closed form, from the transmission phase of its Poschl-Teller
  well (ROADMAP item 18).
* symmetric_witnesses: even and odd combinations of the equator branch's
  witness family (acceptance criterion 6).
* energy_tail_bound: a bound on the energy that truncation at the cutoff
  drops.
* newton_reference: the Newton finish as first written, which rebuilds its
  residual and Jacobian from the grid at every step and solves through
  scipy's solve_banded; shooting._newton must return its bytes.
"""

import dataclasses
import math

import numpy as np
from scipy.integrate import simpson
from scipy.linalg import solve_banded
from scipy.special import loggamma

from spherekink.core import (
    HALF_PI,
    ProblemParams,
    Profile,
    decay_rate,
    derivative_samples,
    el_residual,
    energy_arrays,
    grid_spacing,
    half_grid,
    weight,
)
from spherekink import shooting
from spherekink.spectral import (
    SchrodingerProblem,
    WitnessFamily,
    potential_samples,
    singular_grid_size,
    witness_subspace,
)


# -- the Hessian as a bilinear form -------------------------------------------

def _check_test_function(prof: Profile, v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != prof.grid.shape:
        raise ValueError("test function must be sampled on the profile grid")
    if max(abs(float(v[0])), abs(float(v[-1]))) > 1e-12:
        raise ValueError("test function must vanish at the grid endpoints")
    return v


def hessian_form(prof: Profile, v, w) -> float:
    """Second variation of the energy at prof, evaluated on directions v, w.

    Integrand: [v'w' - omega (1+nu) cos(2h) v w] sech^(m-1) x, by Simpson on
    the profile grid with fourth-order sampled derivatives.
    """
    v = _check_test_function(prof, v)
    w = _check_test_function(prof, w)
    dx = prof.dx
    dv = derivative_samples(v, dx)
    dw = derivative_samples(w, dx)
    p = prof.params
    integrand = (dv * dw - p.omega * (1.0 + p.nu_at(prof.grid))
                 * np.cos(2.0 * prof.h) * v * w) * weight(prof.grid, p.m)
    return float(simpson(integrand, x=prof.grid))


def flat_form(prof: Profile) -> SchrodingerProblem:
    """The Hessian at prof after the substitution w = v sech^((m-1)/2) x:
    -w'' + V w on its half line, V = potential_samples, no drift."""
    xs = half_grid(prof.cutoff, prof.n)
    return SchrodingerProblem(xs, potential_samples(xs, prof.half_h, prof.params))


def full_line(problem: SchrodingerProblem):
    """The problem's half grid and even potential mirrored onto [-X, X]."""
    g, v = problem.grid, problem.potential
    return np.concatenate([-g[:0:-1], g]), np.concatenate([v[:0:-1], v])


def schrodinger_form(problem: SchrodingerProblem, w1, w2) -> float:
    """Flat form int [w1' w2' + V w1 w2] dx over [-X, X] for samples on the
    symmetric grid that vanish at its ends."""
    grid, v = full_line(problem)
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if w1.shape != grid.shape or w2.shape != grid.shape:
        raise ValueError("arguments must be sampled on the symmetric grid")
    d1 = derivative_samples(w1, problem.dx)
    d2 = derivative_samples(w2, problem.dx)
    integrand = d1 * d2 + v * w1 * w2
    return float(simpson(integrand, x=grid))


def hessian_fd_check(prof: Profile, v, t: float) -> float:
    """Relative gap between a centred second difference of the energy and
    the Hessian form: |(E(h+tv)+E(h-tv)-2E(h))/t^2 - Q(v,v)| / |Q(v,v)|."""
    v = _check_test_function(prof, v)
    if not 0 < t < 1:
        raise ValueError("step t must lie in (0, 1)")
    dv = derivative_samples(v, prof.dx)
    e0 = energy_arrays(prof.grid, prof.h, prof.dh, prof.params)
    ep = energy_arrays(prof.grid, prof.h + t * v, prof.dh + t * dv, prof.params)
    em = energy_arrays(prof.grid, prof.h - t * v, prof.dh - t * dv, prof.params)
    second = (ep + em - 2.0 * e0) / (t * t)
    q = hessian_form(prof, v, v)
    return abs(second - q) / abs(q)


# -- the Hessian as a matrix --------------------------------------------------

def full_tridiagonal(problem: SchrodingerProblem):
    """Main diagonal and off-diagonal of the interior-node FD matrix of
    -w'' + d w' + V w on the whole symmetric grid, from the mirrored
    potential and the drift d mirrored odd.  Row i couples to node i+1 by
    -(1/dx^2 - d_i/(2dx)) and to node i-1 by -(1/dx^2 + d_i/(2dx)); the
    symmetric matrix of the same spectrum has off-diagonal entry i the
    signed geometric mean of the pair between nodes i and i+1."""
    _, v = full_line(problem)
    d = np.concatenate([-problem.drift[:0:-1], problem.drift])
    dx = problem.dx
    main = 2.0 / dx ** 2 + v[1:-1]
    right, left = 1.0 / dx ** 2 - 0.5 * d / dx, 1.0 / dx ** 2 + 0.5 * d / dx
    return main, -np.sqrt(right[1:-2] * left[2:-1])


def dense_eigs(problem: SchrodingerProblem) -> np.ndarray:
    """Every eigenvalue of full_tridiagonal's matrix, ascending, by numpy's
    dense symmetric eigensolver: no block, Sturm count or bisection."""
    main, off = full_tridiagonal(problem)
    return np.linalg.eigvalsh(np.diag(main) + np.diag(off, 1) + np.diag(off, -1))


# -- the equator branch's count in closed form ---------------------------------

def poschl_teller_phase(a: float, kappa: float) -> float:
    """phi = arg T(kappa), the transmission phase of the well -a(a+1) sech^2 x
    at wavenumber kappa > 0 (Poschl & Teller 1933; Landau & Lifshitz,
    section 25): Im[ln G(a+1-i kappa) + ln G(-a-i kappa) - ln G(-i kappa)
    - ln G(1-i kappa)] on loggamma's principal branches."""
    k = -1j * kappa
    return float((loggamma(a + 1 + k) + loggamma(-a + k) - loggamma(k) - loggamma(1 + k)).imag)


def singular_count(params: ProblemParams, cutoff: float) -> float:
    """(2 q X + phi) / pi, whose floor is the number of negative eigenvalues
    of truncated_singular_count's matrix, for (m-1)^2/4 < omega.

    On the equator branch the flat form's V = -kappa^2 - a(a+1) sech^2 x
    with a = (m-1)/2 and kappa^2 = omega - a^2.  A zero-energy solution of
    its FD equation oscillates at the lattice wavenumber
    q = (2/dx) arcsin(kappa dx/2), and crossing the well adds the phase
    phi = poschl_teller_phase(a, kappa).  By Sturm oscillation the solution
    that vanishes at x = -X has that many zeros in (-X, X).  The count's
    Jacobian form differs by its far field's floor, which singular_grid_size
    keeps within FLOOR_SHIFT of the flat form's.
    """
    a = 0.5 * (params.m - 1)
    kappa = math.sqrt(params.omega - a * a)
    dx = grid_spacing(cutoff, singular_grid_size(params, cutoff))
    q = 2.0 / dx * math.asin(0.5 * kappa * dx)
    return (2.0 * q * cutoff + poschl_teller_phase(a, kappa)) / math.pi


# -- symmetric witness families -----------------------------------------------

def _mirrored(tent, sign: float):
    """x -> tent(x) + sign tent(-x)."""
    return lambda x: tent(x) + sign * tent(-np.asarray(x, dtype=float))


def symmetric_witnesses(params: ProblemParams, k: int, symmetry_class: str) -> WitnessFamily:
    """Even/odd combinations F(x) +- F(-x) of witness_subspace's family.

    Supports sit in x > 0 and their mirrors in x < 0, so the combination
    doubles each diagonal value and keeps the Gram diagonal; the potential
    is even, making even and odd variants degenerate in value.
    """
    if symmetry_class not in ("even", "odd"):
        raise ValueError("symmetry_class must be 'even' or 'odd'")
    sign = 1.0 if symmetry_class == "even" else -1.0
    base = witness_subspace(params, k)
    return dataclasses.replace(base,
                               functions=tuple(_mirrored(f, sign) for f in base.functions),
                               gram_diagonal=tuple(2.0 * q for q in base.gram_diagonal),
                               quadrature_error=2.0 * base.quadrature_error)


# -- truncation ---------------------------------------------------------------

def energy_tail_bound(prof: Profile) -> float:
    """Bound on the dropped |x| > cutoff energy tail.

    Assumes the profile keeps approaching +-pi/2 at the linearised rate
    beyond the grid, i.e. pi/2 - |h| <= gap * exp(lam (x - X)) with the gap
    read off at the boundary.  Uses sech(x) <= 2 sech(X) exp(-(x-X)).
    """
    p = prof.params
    lam = decay_rate(p)
    m1 = p.m - 1
    nu_max = 0.0 if p.nu is None else float(np.max(np.abs(p.nu.values)))
    x_b = prof.cutoff
    total = 0.0
    for h_b in (prof.h[0], prof.h[-1]):
        gap = HALF_PI - abs(float(h_b))
        total += (0.5 * (lam * lam + p.omega * (1.0 + nu_max)) * gap * gap
                  * weight(x_b, p.m) * 2.0 ** m1 / (m1 + 2.0 * abs(lam)))
    return total


# -- the Newton finish ----------------------------------------------------------

def _half_residual(xs, u, params, first, limit, lam):
    """Rows first.. of the discrete residual on the half grid xs = [0, X]:
    row 0 with the ghost node u_-1 = u_1 (an even profile's; an odd one has
    first = 1), the interior rows, and the Robin row at X with its ghost
    node eliminated."""
    m1 = params.m - 1
    om = params.omega
    dx = xs[1] - xs[0]
    g = np.empty_like(u)
    g[0] = el_residual(0.0, u[0], 0.0, 2.0 * (u[1] - u[0]) / (dx * dx), params)
    d2 = ((u[2:] - u[1:-1]) - (u[1:-1] - u[:-2])) / (dx * dx)
    d1 = (u[2:] - u[:-2]) / (2.0 * dx)
    g[1:-1] = el_residual(xs[1:-1], u[1:-1], d1, d2, params)
    g[-1] = (2.0 * (u[-2] - u[-1]) + 2.0 * dx * lam * (u[-1] - limit)) / (dx * dx) \
        - m1 * math.tanh(xs[-1]) * lam * (u[-1] - limit) \
        + 0.5 * om * (1.0 + float(params.nu_at(xs[-1]))) * math.sin(2.0 * u[-1])
    return g[first:]


def _jacobian_banded(xs, u, params, first, lam):
    """The Jacobian of _half_residual's rows first.., in solve_banded's
    (1, 1) layout."""
    m1 = params.m - 1
    om = params.omega
    dx = xs[1] - xs[0]
    nu = params.nu_at(xs)
    n = u.size
    ab = np.zeros((3, n))
    t = np.tanh(xs)
    # row 0 and the interior rows; the ghost node u_-1 = u_1 doubles row 0's
    # super-diagonal entry
    ab[0, 1] = 2.0 / dx ** 2
    ab[0, 2:] = 1.0 / dx ** 2 - m1 * t[1:-1] / (2.0 * dx)          # super
    ab[1, :-1] = -2.0 / dx ** 2 + om * (1.0 + nu[:-1]) * np.cos(2.0 * u[:-1])
    ab[2, :-2] = 1.0 / dx ** 2 + m1 * t[1:-1] / (2.0 * dx)         # sub
    # Robin row
    ab[1, -1] = (-2.0 + 2.0 * dx * lam) / dx ** 2 - m1 * t[-1] * lam \
        + om * (1.0 + nu[-1]) * math.cos(2.0 * u[-1])
    ab[2, -2] = 2.0 / dx ** 2
    return ab[:, first:]


def newton_reference(xs, u0, params, symmetry_class, limit, *, tol):
    """shooting._newton's (u, residual max-norm, iterations), with the
    residual and the banded Jacobian rebuilt in full at every step."""
    first = 1 if symmetry_class == "odd" else 0
    lam = decay_rate(params)
    u = np.array(u0, dtype=float)
    u[:first] = 0.0
    res = _half_residual(xs, u, params, first, limit, lam)
    fnorm = float(np.max(np.abs(res)))
    dx = xs[1] - xs[0]
    if fnorm * dx * dx > 1.0:
        raise shooting.PolishDiverged(f"initial guess residual {fnorm:.3e} is above "
                                      f"1/dx^2 = {1.0 / (dx * dx):.3e}: too rough")
    iters = 0
    while fnorm > tol:
        if iters >= shooting.MAX_NEWTON_ITER:
            raise shooting.PolishDiverged(f"no convergence after {iters} Newton steps "
                                          f"(residual {fnorm:.3e})")
        delta = solve_banded((1, 1), _jacobian_banded(xs, u, params, first, lam), -res)
        step = 1.0
        for _ in range(12):
            u_try = u.copy()
            u_try[first:] += step * delta
            res_try = _half_residual(xs, u_try, params, first, limit, lam)
            f_try = float(np.max(np.abs(res_try)))
            if f_try < fnorm:
                u, res, fnorm = u_try, res_try, f_try
                break
            step *= 0.5
        else:
            raise shooting.PolishDiverged(f"line search stalled at residual {fnorm:.3e}")
        iters += 1
    return u, fnorm, iters
