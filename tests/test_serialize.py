"""Deterministic JSON writer and profile round trips."""

import dataclasses
import json
import math

import numpy as np
import pytest
from conftest import explicit_doc, gudermann_profile

from spherekink.core import NuPerturbation, ProblemParams, Profile, resample, symmetric_grid
from spherekink.serialize import (
    dumps,
    format_float,
    load_profile,
    profile_from_doc,
    profile_to_doc,
    read_json,
    save_profile,
)
from spherekink.shooting import SolveRequest, W_TOL, find_solution, verify_solution


def test_format_float_round_trips_exactly():
    for x in (0.0, -0.0, 1.0 / 3.0, math.pi, 2.666666666060948, 1e-300,
              -4.1107821e-4, 123456789.123456789):
        assert float(format_float(x)) == x


def test_format_float_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_float(bad)


def test_dumps_is_valid_json_and_ordered():
    doc = {"b": 1, "a": [1.5, None, True, False, "x\"y\n"], "c": {"z": 2.0}}
    s = dumps(doc)
    assert s.index('"b"') < s.index('"a"') < s.index('"c"')
    assert json.loads(s) == {"b": 1, "a": [1.5, None, True, False, "x\"y\n"],
                             "c": {"z": 2.0}}


def test_dumps_handles_numpy_scalars_and_arrays():
    doc = {"v": np.float64(0.1), "n": np.int64(7), "a": np.array([1.0, 2.0])}
    assert json.loads(dumps(doc)) == {"v": 0.1, "n": 7, "a": [1.0, 2.0]}


def test_dumps_same_value_same_bytes():
    doc = {"x": 1.0 / 3.0, "y": [math.pi] * 3}
    assert dumps(doc) == dumps(json.loads(dumps(doc)))


def _profile(nu=None):
    return gudermann_profile(cutoff=16.0, n=401, nu=nu, residual_norm=1.2e-11,
                             provenance="test")


def test_profile_doc_round_trip_is_exact():
    prof = _profile()
    back = profile_from_doc(profile_to_doc(prof))
    assert np.array_equal(back.grid, prof.grid)
    assert np.array_equal(back.h, prof.h)
    assert np.array_equal(back.dh, prof.dh)
    assert back.params == prof.params
    assert back.symmetry_class == "odd"
    assert back.residual_norm == prof.residual_norm
    assert back.zero_count == 1
    assert back.provenance == "test"


def _nu_bump(radius):
    g = np.linspace(-radius, radius, 81)
    vals = 0.25 * np.cos(np.pi * g / (2.0 * radius)) ** 2
    vals[0] = vals[-1] = 0.0
    return NuPerturbation(g, vals)


def test_profile_doc_round_trip_with_nu():
    # nu is stored as its own samples: exact everywhere, support included
    prof = _profile(_nu_bump(2.0))
    back = profile_from_doc(profile_to_doc(prof))
    assert back.params.nu is not None
    assert back.params.nu.support_radius == prof.params.nu.support_radius == 2.0
    assert np.array_equal(back.params.nu.grid, prof.params.nu.grid)
    assert np.array_equal(back.params.nu.values, prof.params.nu.values)
    xs = np.linspace(-3.0, 3.0, 301)
    assert np.array_equal(back.params.nu(xs), prof.params.nu(xs))


def test_nu_wider_than_the_profile_grid_round_trips():
    # sampled on the grid, this nu would not vanish at the grid's ends
    prof = _profile(_nu_bump(20.0))
    back = profile_from_doc(profile_to_doc(prof))
    assert back.params.nu.support_radius == 20.0
    assert np.array_equal(back.params.nu(prof.grid), prof.params.nu(prof.grid))


def test_round_trip_keeps_the_lyapunov_check_outside_nu():
    # W may decrease only inside nu's support; a kink put into dh outside it
    # must still be seen after the profile is saved and read back
    prof = _profile(_nu_bump(2.0))
    dh = prof.dh.copy()
    dh[np.searchsorted(prof.grid, 5.0)] -= 0.05
    tampered = Profile(prof.grid, prof.h, dh, prof.params, symmetry_class="odd",
                       residual_norm=prof.residual_norm)
    before = verify_solution(tampered).w_violation
    after = verify_solution(profile_from_doc(profile_to_doc(tampered))).w_violation
    assert before > W_TOL
    assert after == before


def test_profile_from_doc_names_a_missing_key(ground33):
    # the compact form and the explicit one
    for prof, key in ((ground33, "half_h"), (_profile(), "dh")):
        doc = profile_to_doc(prof)
        del doc[key]
        with pytest.raises(ValueError, match=f"not a profile document: no '{key}'"):
            profile_from_doc(doc)


def test_save_and_load_profile_bytes_stable(ground33, tmp_path):
    # the explicit form and the compact one
    for prof in (_profile(), ground33):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_profile(prof, p1)
        save_profile(load_profile(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")


def test_profile_with_default_metadata_round_trips(tmp_path):
    # residual_norm left unset is written as null and read back as None; the
    # zero count written is the samples' own, sin's three on [-4, 4]
    g = symmetric_grid(4.0, 41)
    prof = Profile(g, np.sin(g), np.cos(g), ProblemParams(3, 3.0))
    path = tmp_path / "bare.json"
    save_profile(prof, path)
    assert read_json(path)["zero_count"] == 3
    back = load_profile(path)
    assert back.residual_norm is None and back.zero_count == 3
    assert np.array_equal(back.h, prof.h)
    assert back.symmetry_class == "none"


def test_doc_shape_is_documented(ground33):
    # the solver's profile: cutoff, n and h on x >= 0
    doc = profile_to_doc(ground33)
    assert list(doc.keys()) == ["m", "omega", "nu", "cutoff", "n", "half_h", "symmetry_class",
                                "residual_norm", "zero_count", "provenance"]
    assert doc["nu"] is None
    assert (doc["cutoff"], doc["n"]) == (20.0, 4001)
    assert len(doc["half_h"]) == 2001
    # an exact derivative is not what the reader would rebuild: explicit arrays
    doc = profile_to_doc(_profile())
    assert list(doc.keys()) == ["m", "omega", "nu", "grid", "h", "dh", "symmetry_class",
                                "residual_norm", "zero_count", "provenance"]
    assert len(doc["grid"]) == len(doc["h"]) == len(doc["dh"]) == 401


# -- the compact form ---------------------------------------------------------------

def _assert_same_profile(back, prof):
    for name in ("grid", "h", "dh"):
        assert getattr(back, name).tobytes() == getattr(prof, name).tobytes(), name
    assert (back.params.m, back.params.omega) == (prof.params.m, prof.params.omega)
    if prof.params.nu is None:
        assert back.params.nu is None
    else:
        assert back.params.nu.grid.tobytes() == prof.params.nu.grid.tobytes()
        assert back.params.nu.values.tobytes() == prof.params.nu.values.tobytes()
    for name in ("symmetry_class", "residual_norm", "zero_count", "provenance"):
        assert getattr(back, name) == getattr(prof, name), name


@pytest.fixture(scope="module")
def solved_with_nu():
    g = np.linspace(-1.5, 1.5, 301)
    vals = 0.2 * np.cos(np.pi * g / 3.0) ** 2
    vals[0] = vals[-1] = 0.0
    params = ProblemParams(3, 3.0, NuPerturbation(g, vals))
    return find_solution(SolveRequest(params, "odd", 1, cutoff=16.0, grid_size=1601))


def test_solver_profiles_are_written_compact_and_read_back_bitwise(sweep33, solved_with_nu,
                                                                   tmp_path):
    profiles = [r.profile for r in sweep33.records] + [solved_with_nu]
    assert sorted(p.zero_count for p in profiles) == [1, 1, 2, 3, 4]
    for prof in profiles:
        doc = profile_to_doc(prof)
        assert "grid" not in doc and "dh" not in doc and "half_h" in doc
        path = tmp_path / "p.json"
        save_profile(prof, path)
        _assert_same_profile(load_profile(path), prof)


def _hand_edited_dh(prof):
    dh = prof.dh.copy()
    dh[prof.n // 3] = np.nextafter(dh[prof.n // 3], np.inf)
    return dataclasses.replace(prof, dh=dh)


@pytest.mark.parametrize("edit", [
    lambda p: dataclasses.replace(p, symmetry_class="none"),
    lambda p: resample(p, 18.0, 1801),
    _hand_edited_dh,
], ids=["class-none", "resampled", "hand-edited-dh"])
def test_other_profiles_are_written_explicit_and_read_back_bitwise(edit, ground33, tmp_path):
    prof = edit(ground33)
    doc = profile_to_doc(prof)
    assert "half_h" not in doc and "grid" in doc and "dh" in doc
    path = tmp_path / "p.json"
    save_profile(prof, path)
    _assert_same_profile(load_profile(path), prof)


def test_an_old_explicit_document_still_reads(ground33):
    _assert_same_profile(profile_from_doc(json.loads(dumps(explicit_doc(ground33)))), ground33)


@pytest.mark.parametrize("change", [lambda half: half[:-1], lambda half: half + half[-1:]],
                         ids=["short", "long"])
def test_a_compact_document_whose_half_does_not_match_n_is_refused(change, ground33):
    doc = json.loads(dumps(profile_to_doc(ground33)))
    doc["half_h"] = change(doc["half_h"])
    with pytest.raises(ValueError, match="not a profile document: 20(00|02) values in half_h, n = 4001"):
        profile_from_doc(doc)


def test_a_compact_document_needs_a_parity_class(ground33):
    doc = dict(profile_to_doc(ground33), symmetry_class="none")
    with pytest.raises(ValueError, match="not a profile document: compact samples need class"):
        profile_from_doc(doc)
