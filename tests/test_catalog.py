"""Eigenmap catalogue and the instability-regime predicate."""

import pytest

from spherekink.catalog import (
    CATALOG,
    catalog_rows,
    find_eigenmap,
    hypothesis_check,
    hypothesis_label,
)
from spherekink.core import ProblemParams


def test_catalog_has_expected_entries():
    names = {e.name for e in CATALOG}
    for required in ("identity-3", "hopf-3-2", "hopf-7-4", "eiconal-4",
                     "hopf-construction-5-4"):
        assert required in names


def test_find_eigenmap_by_name():
    e = find_eigenmap("hopf-3-2")
    assert (e.m, e.n, e.omega) == (3, 2, 8.0)


def test_find_eigenmap_unknown_name_lists_known():
    with pytest.raises(KeyError) as exc:
        find_eigenmap("nope")
    assert "identity-2" in str(exc.value)


@pytest.mark.parametrize("m,expected", [(2, True), (3, True), (4, True),
                                        (5, True), (6, False)])
def test_identity_maps_regime(m, expected):
    # (m-1)^2/4 < m holds exactly for m < 3 + 2 sqrt(2) ~ 5.83
    e = find_eigenmap(f"identity-{m}")
    assert e.omega == float(m)
    assert hypothesis_check(e) is expected


@pytest.mark.parametrize("name,expected", [
    ("hopf-3-2", True),        # m=3,  omega=8:  1    < 8
    ("hopf-7-4", True),        # m=7,  omega=16: 9    < 16
    ("hopf-15-8", False),      # m=15, omega=32: 49   >= 32
    ("eiconal-4", True),       # m=4,  omega=18: 2.25 < 18
    ("eiconal-7", True),       # m=7,  omega=27: 9    < 27
    ("eiconal-13", True),      # m=13, omega=45: 36   < 45
    ("eiconal-25", False),     # m=25, omega=81: 144  >= 81
])
def test_quadratic_eigenmap_regime(name, expected):
    assert hypothesis_check(find_eigenmap(name)) is expected


def test_harmonic_pairing_rows_are_indeterminate():
    for name in ("hopf-construction-5-4", "hopf-construction-9-8"):
        e = find_eigenmap(name)
        assert e.omega is None
        assert hypothesis_check(e) is None
        assert hypothesis_label(e) == "indeterminate"


def test_hypothesis_label_values():
    assert hypothesis_label(find_eigenmap("identity-3")) == "true"
    assert hypothesis_label(find_eigenmap("hopf-15-8")) == "false"


def test_catalog_rows_shape():
    rows = catalog_rows()
    assert len(rows) == len(CATALOG)
    for row in rows:
        assert len(row) == 6
        assert all(isinstance(cell, str) for cell in row)
        assert row[5] in ("true", "false", "indeterminate")
    blank_omega = [r for r in rows if r[3] == ""]
    assert len(blank_omega) == 2


def test_regime_matches_params_predicate():
    for e in CATALOG:
        if e.omega is None:
            continue
        p = ProblemParams(e.m, e.omega)
        assert p.hypothesis() is hypothesis_check(e)


def test_spec_rejects_bad_dimensions():
    from spherekink.catalog import EigenmapSpec
    with pytest.raises(ValueError):
        EigenmapSpec("bad", 0, 2, 1.0, None, "")
    with pytest.raises(ValueError):
        EigenmapSpec("bad", 3, 2, -1.0, None, "")
