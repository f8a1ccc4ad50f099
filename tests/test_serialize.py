"""Deterministic JSON writer and profile round trips."""

import json
import math

import numpy as np
import pytest
from conftest import gudermann_profile

from spherekink.core import NuPerturbation, ProblemParams, Profile, symmetric_grid
from spherekink.serialize import (
    dumps,
    format_float,
    load_profile,
    profile_from_doc,
    profile_to_doc,
    save_profile,
)
from spherekink.shooting import W_TOL, verify_solution


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
                       residual_norm=prof.residual_norm, zero_count=1)
    before = verify_solution(tampered).w_violation
    after = verify_solution(profile_from_doc(profile_to_doc(tampered))).w_violation
    assert before > W_TOL
    assert after == before


def test_profile_from_doc_reads_nu_sampled_on_the_profile_grid():
    # the form written before nu kept its own grid
    prof = _profile(_nu_bump(2.0))
    doc = profile_to_doc(prof)
    doc["nu"] = prof.params.nu(prof.grid).tolist()
    back = profile_from_doc(doc)
    assert np.array_equal(back.params.nu.grid, prof.grid)
    assert np.array_equal(back.params.nu(prof.grid), prof.params.nu(prof.grid))


def test_profile_from_doc_names_a_missing_key():
    doc = profile_to_doc(_profile())
    del doc["grid"]
    with pytest.raises(ValueError, match="not a profile document: no 'grid'"):
        profile_from_doc(doc)


def test_save_and_load_profile_bytes_stable(tmp_path):
    prof = _profile()
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_profile(prof, p1)
    save_profile(load_profile(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_profile_with_default_metadata_round_trips(tmp_path):
    # residual_norm and zero_count left unset are written as null and read
    # back as None
    g = symmetric_grid(4.0, 41)
    prof = Profile(g, np.zeros_like(g), np.zeros_like(g), ProblemParams(3, 3.0))
    path = tmp_path / "bare.json"
    save_profile(prof, path)
    back = load_profile(path)
    assert back.residual_norm is None and back.zero_count is None
    assert np.array_equal(back.h, prof.h)
    assert back.symmetry_class == "none"


def test_doc_shape_is_documented():
    doc = profile_to_doc(_profile())
    assert list(doc.keys())[:3] == ["m", "omega", "nu"]
    assert doc["nu"] is None
    assert len(doc["grid"]) == len(doc["h"]) == len(doc["dh"]) == 401
