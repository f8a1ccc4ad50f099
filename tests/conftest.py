"""Shared fixtures.

The identity-map problem on the 3-sphere (m = 3, omega = 3) is the workhorse:
its first connecting profile is known in closed form, h(x) = 2 atan(e^x) - pi/2,
so everything the solver produces can be checked against exact values.  The
four-level sweep is expensive enough to share across the whole session.
"""

import numpy as np
import pytest

from spherekink.core import HALF_PI, NuPerturbation, ProblemParams, Profile, half_grid
from spherekink.report import SweepConfig, run_sweep


@pytest.fixture(scope="session")
def sweep33():
    """Levels 1..4 of the (m=3, omega=3) problem on the standard grid."""
    return run_sweep(SweepConfig(ProblemParams(3, 3.0), 4))


@pytest.fixture(scope="session")
def records33(sweep33):
    return {rec.sequence_key: rec for rec in sweep33.records}


@pytest.fixture(scope="session")
def records55():
    """Levels 1..8 of (m=5, omega=5) at X=30, N=6001.  Levels 7 and 8 sit
    8.5e-18 and 1.6e-20 below the singular energy 10/3, under the roundoff
    of subtracting their energies from it."""
    report = run_sweep(SweepConfig(ProblemParams(5, 5.0), 8, cutoff=30.0, grid_size=6001))
    return {rec.sequence_key[1]: rec for rec in report.records}


@pytest.fixture(scope="session")
def ground33(records33):
    """The solved one-zero profile (the exact-solution level)."""
    return records33[("odd", 1)].profile


def gudermann_profile(m=3, cutoff=20.0, n=4001, *, nu=None, residual_norm=0.0,
                      provenance="exact"):
    """The closed-form one-zero profile 2 atan(e^x) - pi/2, which solves the
    equation for omega = m; its dh is derived from h, as every profile's."""
    h = 2.0 * np.arctan(np.exp(half_grid(cutoff, n))) - HALF_PI
    return Profile(ProblemParams(m, float(m), nu), "odd", cutoff, h,
                   residual_norm=residual_norm, provenance=provenance)


def nu_params(height=0.2):
    """(3, 3) with a smooth bump nu of that height supported on |x| < 1.5."""
    g = np.linspace(-1.5, 1.5, 301)
    vals = height * np.cos(np.pi * g / 3.0) ** 2
    vals[0] = vals[-1] = 0.0
    return ProblemParams(3, 3.0, NuPerturbation(g, vals))


def json_leaves(doc, path=()):
    """(path, value) of every scalar in a parsed JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for k, v in items:
        if isinstance(v, (dict, list)):
            yield from json_leaves(v, path + (k,))
        else:
            yield path + (k,), v


def other_kinds(value):
    """Values of JSON kinds other than value's, the float for an integer
    included."""
    kinds = [1.5, "x", True, None, [value], {"v": value}]
    if type(value) is int:
        kinds[0] = value + 0.5
    return [k for k in kinds if type(k) is not type(value)]


def put(doc, path, value):
    """Put value at path in doc; returns the value it replaces."""
    for k in path[:-1]:
        doc = doc[k]
    doc[path[-1]], old = value, doc[path[-1]]
    return old


@pytest.fixture()
def exact_profile():
    """Closed-form one-zero profile for (3, 3) on the standard grid."""
    return gudermann_profile()
