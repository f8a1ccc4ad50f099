"""Deterministic JSON writer and profile round trips."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
from conftest import gudermann_profile, json_leaves, other_kinds, put

from spherekink.core import NuPerturbation, ProblemParams, Profile, half_grid, resample
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
    # W may decrease only inside nu's support; a kink put into h outside it
    # must still be seen after the profile is saved and read back
    prof = _profile(_nu_bump(2.0))
    half_h = prof.half_h.copy()
    half_h[np.searchsorted(half_grid(prof.cutoff, prof.n), 5.0)] -= 0.05
    tampered = dataclasses.replace(prof, half_h=half_h)
    before = verify_solution(tampered).w_violation
    after = verify_solution(profile_from_doc(profile_to_doc(tampered))).w_violation
    assert before > W_TOL
    assert after == before


def test_profile_from_doc_names_a_missing_key(ground33):
    for key in ("half_h", "n", "m", "omega", "cutoff", "symmetry_class", "residual_norm"):
        doc = profile_to_doc(ground33)
        del doc[key]
        with pytest.raises(ValueError, match=f"not a profile document: no '{key}'"):
            profile_from_doc(doc)


def test_save_and_load_profile_bytes_stable(sweep33, tmp_path):
    # a closed-form profile and every level of the K=4 sweep
    for prof in (_profile(), *(r.profile for r in sweep33.records)):
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        save_profile(prof, p1)
        save_profile(load_profile(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")


def test_profile_with_default_metadata_round_trips(tmp_path):
    # residual_norm left unset is written as null and read back as None; the
    # zero count written is the samples' own, sin's three on [-4, 4]
    prof = Profile(ProblemParams(3, 3.0), "odd", 4.0, np.sin(half_grid(4.0, 41)))
    path = tmp_path / "bare.json"
    save_profile(prof, path)
    assert read_json(path)["zero_count"] == 3
    back = load_profile(path)
    assert back.residual_norm is None and back.zero_count == 3
    assert np.array_equal(back.h, prof.h)
    assert (back.symmetry_class, back.provenance) == ("odd", "")


def test_doc_shape_is_documented(ground33):
    # the solver's profile: cutoff, n and h on x >= 0
    doc = profile_to_doc(ground33)
    assert list(doc.keys()) == ["m", "omega", "nu", "cutoff", "n", "half_h", "symmetry_class",
                                "residual_norm", "zero_count", "provenance"]
    assert doc["nu"] is None
    assert (doc["cutoff"], doc["n"]) == (20.0, 4001)
    assert len(doc["half_h"]) == 2001


# -- the half-line form ------------------------------------------------------------

def _assert_same_profile(back, prof):
    for name in ("half_h", "grid", "h", "dh"):
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


def test_a_resampled_profile_is_written_compact_and_read_back_bitwise(ground33, tmp_path):
    prof = resample(ground33, 18.0, 1801)
    assert list(profile_to_doc(prof))[3:6] == ["cutoff", "n", "half_h"]
    path = tmp_path / "p.json"
    save_profile(prof, path)
    _assert_same_profile(load_profile(path), prof)


def _explicit_doc(prof):
    """A profile's document in the form written before the half-line one:
    explicit grid, h and dh."""
    return {"m": prof.params.m, "omega": prof.params.omega, "nu": None,
            "grid": prof.grid, "h": prof.h, "dh": prof.dh,
            "symmetry_class": prof.symmetry_class, "residual_norm": prof.residual_norm,
            "zero_count": prof.zero_count, "provenance": prof.provenance}


def test_an_old_explicit_document_is_refused(ground33):
    explicit = json.loads(dumps(_explicit_doc(ground33)))
    with pytest.raises(ValueError, match="not a profile document: no 'half_h'"):
        profile_from_doc(explicit)
    # nor is the half line read beside explicit arrays
    both = dict(profile_to_doc(ground33), grid=explicit["grid"], h=explicit["h"],
                dh=explicit["dh"])
    with pytest.raises(ValueError,
                       match=r"not a profile document: unknown keys \['dh', 'grid', 'h'\]"):
        profile_from_doc(both)


@pytest.mark.parametrize("change", [lambda half: half[:-1], lambda half: half + half[-1:]],
                         ids=["short", "long"])
def test_a_compact_document_whose_half_does_not_match_n_is_refused(change, ground33):
    doc = json.loads(dumps(profile_to_doc(ground33)))
    doc["half_h"] = change(doc["half_h"])
    with pytest.raises(ValueError, match="not a profile document: 20(00|02) values in half_h, n = 4001"):
        profile_from_doc(doc)


def test_a_compact_document_needs_a_parity_class(ground33):
    doc = dict(profile_to_doc(ground33), symmetry_class="none")
    with pytest.raises(ValueError, match="not a profile document: symmetry_class must be "
                                         "'even' or 'odd', not 'none'"):
        profile_from_doc(doc)


def test_an_odd_document_must_vanish_at_the_origin(ground33, tmp_path):
    # within 1e-9 of 0 is not 0: the class makes h(0) = 0 exactly
    doc = json.loads(dumps(profile_to_doc(ground33)))
    assert doc["half_h"][0] == 0.0
    doc["half_h"][0] = 1e-12
    path = tmp_path / "p.json"
    path.write_text(dumps(doc), encoding="ascii")
    with pytest.raises(ValueError, match=f"{path} is not a profile document: an odd "
                                         r"profile has h\(0\) = 0, not 1e-12"):
        load_profile(path)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_constant_is_not_json(constant, ground33, tmp_path):
    # dumps never writes these, so read_json does not read them either
    text = dumps(profile_to_doc(ground33))
    path = tmp_path / "p.json"
    for edited in (text.replace('"half_h":[0.0,', f'"half_h":[{constant},', 1),
                   text.replace('"omega":3.0', f'"omega":{constant}', 1)):
        assert edited != text
        path.write_text(edited, encoding="ascii")
        with pytest.raises(ValueError, match=f"{path} is not JSON: {constant} is not a number"):
            load_profile(path)


@pytest.mark.parametrize("edit, message", [
    (('"nu":null', '"nu":{"grid":[-1e999,0.0,1e999],"values":[0.0,0.1,0.0]}'),
     "grid holds -inf, not a finite number"),
    (('"nu":null', '"nu":{"grid":[-1.0,0.0,1.0],"values":[0.0,1e999,0.0]}'),
     "values holds inf, not a finite number"),
    (('"omega":3.0', '"omega":1' + "0" * 400), "1" + "0" * 400 + " is not a finite number"),
], ids=["nu-grid", "nu-values", "omega-integer"])
def test_a_number_beyond_the_float_range_is_refused(edit, message, ground33, tmp_path):
    # 1e999 parses as inf, and an integer this long has no float at all
    text = dumps(profile_to_doc(ground33))
    path = tmp_path / "p.json"
    path.write_text(text.replace(*edit, 1), encoding="ascii")
    assert path.read_text(encoding="ascii") != text
    with pytest.raises(ValueError) as refused:
        load_profile(path)
    assert str(refused.value) == f"{path} is not a profile document: {message}"


@pytest.mark.parametrize("key, value, message", [
    ("m", 3.9, "invalid literal for int(): 3.9"),
    ("m", True, "invalid literal for int(): True"),
    ("n", 4001.0, "invalid literal for int(): 4001.0"),
    ("omega", "3", "could not convert string to float: '3'"),
    ("omega", False, "could not convert boolean to float: False"),
    ("cutoff", None, "could not convert null to float: None"),
    ("residual_norm", [1e-12], "could not convert array to float: [1e-12]"),
    ("omega", 1e999, "inf is not a finite number"),
], ids=["m-float", "m-true", "n-float", "omega-string", "omega-false", "cutoff-null",
        "residual-list", "omega-overflow"])
def test_a_profile_value_of_the_wrong_kind_is_refused(key, value, message, ground33):
    doc = dict(profile_to_doc(ground33), **{key: value})
    with pytest.raises(ValueError, match=re.escape(f"not a profile document: {message}")):
        profile_from_doc(doc)


@pytest.mark.parametrize("entry", ["0.5", True, None, [0.5]], ids=["string", "true", "null",
                                                                    "list"])
def test_a_half_h_entry_that_is_not_a_number_is_refused(entry, ground33):
    doc = json.loads(dumps(profile_to_doc(ground33)))
    doc["half_h"][7] = entry
    with pytest.raises(ValueError, match=re.escape(f"half_h holds {entry!r}, not a number")):
        profile_from_doc(doc)


# leaves a reader keeps as free text or as null: another kind may read back
FREE_PROFILE_LEAVES = {("residual_norm",), ("provenance",)}


def test_every_leaf_of_a_solution_file_is_read_strictly(ground33):
    # each leaf set to another kind is refused or read back as written
    text = dumps(profile_to_doc(ground33))
    doc = json.loads(text)
    leaves = list(json_leaves(doc))
    assert len(leaves) == 9 + 2001
    for path, value in leaves:
        if path in FREE_PROFILE_LEAVES:
            continue
        for other in other_kinds(value):
            put(doc, path, other)
            try:
                back = profile_from_doc(doc)
            except ValueError:
                continue
            finally:
                put(doc, path, value)
            assert dumps(profile_to_doc(back)) == text, (path, other)

