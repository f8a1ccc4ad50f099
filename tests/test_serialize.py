"""Deterministic JSON writer and profile round trips."""

import json
import math

import numpy as np
import pytest

from spherekink.core import NuPerturbation, ProblemParams, Profile, symmetric_grid
from spherekink.serialize import (
    Encoded,
    compose,
    dumps,
    format_float,
    load_profile,
    profile_from_doc,
    profile_to_doc,
    save_profile,
)


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
    g = symmetric_grid(16.0, 401)
    h = 2.0 * np.arctan(np.exp(g)) - math.pi / 2.0
    dh = 1.0 / np.cosh(g)
    return Profile(g, h, dh, ProblemParams(3, 3.0, nu), symmetry_class="odd",
                   residual_norm=1.2e-11, zero_count=1, provenance="test")


def test_compose_splices_encoded_text_as_dumps_would_write_it():
    inner = {"h": np.array([0.5, -0.0, 1e-05]), "name": "odd \u00e9"}
    doc = {"a\"b": 1, "list": [[], {}, (1.5, None)], "nested": [{"p": inner, "q": True}]}
    spliced = {"a\"b": 1, "list": [[], {}, (1.5, None)],
               "nested": [{"p": Encoded(dumps(inner)), "q": True}]}
    assert compose(spliced) == dumps(doc)
    assert compose(doc) == dumps(doc)
    assert compose(Encoded("[1]")) == "[1]"
    with pytest.raises(TypeError):
        dumps({"p": Encoded("[1]")})


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


def test_profile_doc_round_trip_with_nu():
    # nu is stored as its samples on the profile grid: exact there, linear
    # interpolation in between
    g = np.linspace(-2.0, 2.0, 81)
    vals = 0.25 * np.cos(np.pi * g / 4.0) ** 2
    vals[0] = vals[-1] = 0.0
    prof = _profile(NuPerturbation(g, vals))
    back = profile_from_doc(profile_to_doc(prof))
    assert back.params.nu is not None
    assert np.array_equal(back.params.nu(prof.grid), prof.params.nu(prof.grid))
    xs = np.linspace(-3.0, 3.0, 301)
    assert np.max(np.abs(back.params.nu(xs) - prof.params.nu(xs))) < 1e-3


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
