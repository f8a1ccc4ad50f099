"""Shared fixtures.

The identity-map problem on the 3-sphere (m = 3, omega = 3) is the workhorse:
its first connecting profile is known in closed form, h(x) = 2 atan(e^x) - pi/2,
so everything the solver produces can be checked against exact values.  The
four-level sweep is expensive enough to share across the whole session.
"""

import numpy as np
import pytest

from spherekink.core import HALF_PI, ProblemParams, Profile, symmetric_grid
from spherekink.report import SweepConfig, run_sweep


@pytest.fixture(scope="session")
def sweep33():
    """Levels 1..4 of the (m=3, omega=3) problem on the standard grid."""
    return run_sweep(SweepConfig(ProblemParams(3, 3.0), 4))


@pytest.fixture(scope="session")
def records33(sweep33):
    return {rec.sequence_key: rec for rec in sweep33.records}


@pytest.fixture(scope="session")
def ground33(records33):
    """The solved one-zero profile (the exact-solution level)."""
    return records33[("odd", 1)].profile


def gudermann_profile(m=3, cutoff=20.0, n=4001, *, nu=None, residual_norm=0.0,
                      provenance="exact"):
    """The closed-form one-zero profile 2 atan(e^x) - pi/2 with its analytic
    derivative sech x; it solves the equation for omega = m."""
    g = symmetric_grid(cutoff, n)
    h = 2.0 * np.arctan(np.exp(g)) - HALF_PI
    dh = 1.0 / np.cosh(g)
    return Profile(g, h, dh, ProblemParams(m, float(m), nu), symmetry_class="odd",
                   residual_norm=residual_norm, provenance=provenance)


def explicit_doc(prof):
    """The document of a profile without nu in the form written before the
    compact one: explicit grid, h and dh."""
    return {"m": prof.params.m, "omega": prof.params.omega, "nu": None,
            "grid": prof.grid, "h": prof.h, "dh": prof.dh,
            "symmetry_class": prof.symmetry_class, "residual_norm": prof.residual_norm,
            "zero_count": prof.zero_count, "provenance": prof.provenance}


@pytest.fixture()
def exact_profile():
    """Closed-form one-zero profile for (3, 3) on the standard grid."""
    return gudermann_profile()
