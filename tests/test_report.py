"""Sweep orchestration, convergence checking, and the collector stage."""

import dataclasses
import functools
import json

import numpy as np
import pytest
from conftest import json_leaves, other_kinds, put

from spherekink import report, shooting

from spherekink.core import NuPerturbation, ProblemParams, clearance, energy
from spherekink.report import (
    CSV_COLUMNS,
    NORM_SLACK,
    SweepConfig,
    VERSION_STAMP,
    convergence_check,
    emit_plots,
    read_report,
    run_sweep,
    sweep_report_to_doc,
    write_report,
    write_sweep_csv,
)
from spherekink.serialize import dumps, profile_to_doc, read_json, write_json
from spherekink.shooting import PolishDiverged, class_of_level

P33 = ProblemParams(3, 3.0)
SMALL = dict(cutoff=16.0, grid_size=2001)


@pytest.fixture(scope="module")
def small_sweep():
    """A cheap two-level sweep used by the write/round-trip tests."""
    return run_sweep(SweepConfig(P33, 2, **SMALL))


def test_class_of_level():
    assert class_of_level(1) == "odd"
    assert class_of_level(2) == "even"
    assert class_of_level(0) == "even"


def test_empty_sweep():
    report = run_sweep(SweepConfig(P33, 0, **SMALL))
    assert report.records == ()
    assert report.failures == ()
    assert report.hypothesis is True
    check = convergence_check(report)
    assert check.status == "insufficient data"


def test_sweep_structure(sweep33):
    assert [r.sequence_key for r in sweep33.records] == [
        ("even", 2), ("even", 4), ("odd", 1), ("odd", 3)]
    assert sweep33.singular_energy == pytest.approx(3.0, abs=1e-12)
    assert sweep33.version == VERSION_STAMP
    assert len(sweep33.convergence_table) == 4
    for cls, zeros, gap, sup, hn in sweep33.convergence_table:
        assert gap > 0.0
        assert sup < np.pi / 2.0
        assert hn > 0.0


def test_sweep_records_have_expected_energies(sweep33):
    by_key = {r.sequence_key: r for r in sweep33.records}
    assert by_key[("odd", 1)].energy == pytest.approx(8.0 / 3.0, abs=1e-7)
    for rec in sweep33.records:
        assert rec.energy < 3.0
        assert rec.spectral.index == rec.sequence_key[1]
        assert rec.spectral.nullity_estimate == 0


def test_convergence_check_passes(sweep33):
    check = convergence_check(sweep33)
    assert check.status == "pass"
    assert check.failures == ()
    assert NORM_SLACK == 1e-6   # the margin criterion 5 reports


def test_convergence_check_catches_corrupted_energy(sweep33):
    # the level-2 profile squeezed onto a quarter of its window: four times
    # the gradient energy puts it above the singular level
    rec = sweep33.records[0]
    squeezed = dataclasses.replace(rec.profile, cutoff=rec.profile.cutoff / 4.0)
    bad_rec = dataclasses.replace(rec, profile=squeezed)
    assert bad_rec.clearance < 0.0
    report = dataclasses.replace(sweep33, records=(bad_rec,) + sweep33.records[1:])
    check = convergence_check(report)
    assert check.status == "fail"
    assert any("connecting-profile energy bound" in f for f in check.failures)


def test_convergence_check_catches_wrong_trend(sweep33):
    recs = list(sweep33.records)
    even2 = recs[0]
    bumped = dataclasses.replace(recs[1], H_norm=even2.H_norm + 1.0)
    report = dataclasses.replace(sweep33, records=(even2, bumped) + tuple(recs[2:]))
    check = convergence_check(report)
    assert check.status == "fail"
    assert any("H_norm fails to decrease" in f for f in check.failures)


def test_convergence_check_energy_trend_is_strict(sweep33):
    # a tie, smaller than any slack, must still fail: level 4's record
    # carrying level 2's profile has level 2's clearance
    recs = list(sweep33.records)
    even2 = recs[0]
    tied = dataclasses.replace(recs[1], profile=even2.profile)
    assert tied.clearance == even2.clearance
    report = dataclasses.replace(sweep33, records=(even2, tied) + tuple(recs[2:]))
    check = convergence_check(report)
    assert check.status == "fail"
    assert any("energy gap fails to decrease" in f for f in check.failures)


def test_configuration_errors_are_raised_not_recorded():
    # N = 501 is below morse_index's grid floor: a configuration error,
    # not a failure of the level
    with pytest.raises(ValueError, match="grid too coarse"):
        run_sweep(SweepConfig(P33, 1, cutoff=16.0, grid_size=501))


def test_failures_are_collected_not_raised():
    # levels above the first do not exist at these parameters
    report = run_sweep(SweepConfig(ProblemParams(15, 32.0), 3,
                                   cutoff=12.0, grid_size=1201))
    assert [r.sequence_key for r in report.records] == [("even", 2), ("odd", 1)]
    assert report.hypothesis is False
    assert len(report.failures) == 1
    cls, zeros, message = report.failures[0]
    assert (cls, zeros) == ("odd", 3)
    assert "transition" in message or "bracket" in message.lower()


def test_a_record_carries_its_profiles_energy_and_clearance():
    # the energy is verify_solution's, the clearance the record's own
    rep = run_sweep(SweepConfig(P33, 2, **SMALL))
    for rec in rep.records:
        assert (rec.energy, rec.clearance) == (energy(rec.profile), clearance(rec.profile))


def _fail_level_two(stage):
    """stage, shooting's finish or verify_solution, made to fail level 2."""
    real = getattr(shooting, stage)

    def finish(req, shot):
        if req.total_zeros == 2:
            raise PolishDiverged("refused")
        return real(req, shot)

    def verify_solution(prof):
        diag = real(prof)
        if prof.zero_count == 2:
            return dataclasses.replace(diag, failures=("refused",), passed=False)
        return diag
    return {"finish": finish, "verify_solution": verify_solution}[stage]


@pytest.mark.parametrize("stage, message", [("finish", "refused"),
                                            ("verify_solution", "verification refused: refused")],
                         ids=["finish", "verify_solution"])
def test_a_failed_level_leaves_its_class_without_a_prior(stage, message, monkeypatch):
    # level 2 fails to polish, or verification refuses it: the failure is
    # its message, and level 4's search starts from the level law, not from
    # level 2's shot, and finds the bracket it finds alone
    shots = {}
    shoot = shooting.shoot

    def recording(req, **kwargs):
        shots[req.total_zeros] = shot = shoot(req, **kwargs)
        return shot

    monkeypatch.setattr(shooting, stage, _fail_level_two(stage))
    with monkeypatch.context() as patched:
        patched.setattr(shooting, "shoot", recording)
        rep = run_sweep(SweepConfig(P33, 4))
    assert rep.failures == (("even", 2, message),)
    assert [r.sequence_key for r in rep.records] == [("even", 4), ("odd", 1), ("odd", 3)]
    assert shots[4].step is None and shots[3].step is not None
    alone = shoot(shooting.SolveRequest(P33, "even", 4))
    assert (shots[4].index, shots[4].lo, shots[4].hi) == (alone.index, alone.lo, alone.hi)


@pytest.mark.parametrize("config", [
    lambda: SweepConfig(ProblemParams(5, 5.0), 8, cutoff=30.0, grid_size=6001),
    lambda: SweepConfig(ProblemParams(8, 12.438), 4),
    lambda: SweepConfig(ProblemParams(3, 3.0, _nu_bump()), 8, cutoff=30.0, grid_size=6001),
], ids=["5-5", "8-12.438", "3-3-nu"])
def test_sweep_keeps_levels_that_clear_the_singular_energy_by_less_than_roundoff(config):
    # the deepest clearances here (down to 2.1e-22 at (8, 12.438) level 4)
    # lie below the roundoff of singular_energy - energy, and with nu the
    # subtraction misses nu's kinks; every level is genuine
    cfg = config()
    report = run_sweep(cfg)
    assert report.failures == ()
    got = sorted((r.sequence_key[1], r.spectral.index, r.spectral.nullity_estimate)
                 for r in report.records)
    assert got == [(k, k, 0) for k in range(1, cfg.max_zeros + 1)]
    assert all(r.clearance > 0.0 for r in report.records)


def test_record_round_trip_through_files(sweep33, tmp_path):
    write_report(sweep33, tmp_path)
    rec = sweep33.records[2]
    back = read_report(tmp_path / "sweep.json").records[2]
    assert back.sequence_key == rec.sequence_key
    assert back.energy == rec.energy
    assert back.H_norm == rec.H_norm
    assert back.spectral.index == rec.spectral.index
    assert back.spectral.margin_eigenvalues == rec.spectral.margin_eigenvalues
    assert np.array_equal(back.profile.h, rec.profile.h)


def test_sweep_report_round_trip_through_files(small_sweep, tmp_path):
    write_report(small_sweep, tmp_path)
    back = read_report(tmp_path / "sweep.json")
    assert back.singular_energy == small_sweep.singular_energy
    assert back.version == small_sweep.version
    assert len(back.records) == len(small_sweep.records)
    assert back.convergence_table == small_sweep.convergence_table
    assert dumps(sweep_report_to_doc(back)) == dumps(sweep_report_to_doc(small_sweep))
    for a, b in zip(back.records, small_sweep.records):
        assert dumps(profile_to_doc(a.profile)) == dumps(profile_to_doc(b.profile))


@pytest.mark.parametrize("name", ["../solution_odd_1.json", "/abs/solution_odd_1.json",
                                  "sub/solution_odd_1.json", "", ".", "..", 7])
def test_read_report_refuses_a_solution_that_is_not_a_file_name(name, small_sweep, tmp_path):
    write_report(small_sweep, tmp_path)
    doc = read_json(tmp_path / "sweep.json")
    doc["records"][0]["solution"] = name
    write_json(doc, tmp_path / "sweep.json")
    with pytest.raises(ValueError, match="is not a file name"):
        read_report(tmp_path / "sweep.json")


def test_read_report_names_a_missing_key(small_sweep, tmp_path):
    write_report(small_sweep, tmp_path)
    with pytest.raises(ValueError, match="is not a sweep report: no 'max_zeros'"):
        read_report(tmp_path / "solution_odd_1.json")
    # forms no longer read: a record holding its profile, and a spectral
    # report listing leading_eigenvalues in place of the margin pair
    doc = read_json(tmp_path / "sweep.json")
    rec = doc["records"][0]
    embedded = dict(rec, profile=profile_to_doc(small_sweep.records[0].profile))
    del embedded["solution"]
    listed = dict(rec["spectral"])
    listed["leading_eigenvalues"] = listed.pop("margin_eigenvalues")
    for old, message in ((embedded, "is not a sweep report: no 'solution'"),
                         (dict(rec, spectral=listed),
                          "not a spectral report: no 'margin_eigenvalues'")):
        write_json(dict(doc, records=[old]), tmp_path / "sweep.json")
        with pytest.raises(ValueError, match=message):
            read_report(tmp_path / "sweep.json")
    # a bad spectral block, and only that, is named by its file and level
    second = doc["records"][1]
    flagless = dict(second["spectral"])
    del flagless["flags"]
    write_json(dict(doc, records=[rec, dict(second, spectral=flagless)]), tmp_path / "sweep.json")
    with pytest.raises(ValueError) as refused:
        read_report(tmp_path / "sweep.json")
    assert str(refused.value) == (f"{tmp_path / 'sweep.json'}, level "
                                  f"{second['class']}/{second['zeros']}: "
                                  "not a spectral report: no 'flags'")


def test_convergence_table_follows_records(small_sweep):
    # the table is derived from the records' profiles, so it cannot go stale
    recs = list(small_sweep.records)
    recs[1] = dataclasses.replace(recs[1], profile=recs[0].profile)
    changed = dataclasses.replace(small_sweep, records=tuple(recs))
    cls, zeros, gap, sup, hn = changed.convergence_table[1]
    assert (cls, zeros) == recs[0].sequence_key
    assert gap == clearance(recs[0].profile)
    assert (gap, sup) == small_sweep.convergence_table[0][2:4]
    assert hn == small_sweep.convergence_table[1][4]


def test_read_report_refuses_unknown_keys(small_sweep, tmp_path):
    # an old file's newton_tol (the Newton tolerance was once a setting), and
    # a key the writer never wrote in a record or in its spectral block
    write_report(small_sweep, tmp_path)
    path = tmp_path / "sweep.json"
    doc = read_json(path)
    assert "newton_tol" not in doc
    rec = doc["records"][0]
    level = f"{path}, level {rec['class']}/{rec['zeros']}"
    for edited, where, key in (
            (dict(doc, newton_tol=1e-10), f"{path} is not a sweep report", "newton_tol"),
            (dict(doc, records=[dict(rec, index=2)]), f"{level}: not a sweep record", "index"),
            (dict(doc, records=[dict(rec, spectral=dict(rec["spectral"], index_even=1))]),
             f"{level}: not a spectral report", "index_even")):
        write_json(edited, path)
        with pytest.raises(ValueError) as refused:
            read_report(path)
        assert str(refused.value) == f"{where}: unknown keys [{key!r}]"


@pytest.mark.parametrize("entry", [["even", 3, "no bracket"], ["odd", 2, "no bracket"],
                                   ["none", 3, "no bracket"], ["odd", 3, None],
                                   ["odd", 3, ["no bracket"]]])
def test_read_report_refuses_a_failure_entry_of_the_wrong_form(entry, small_sweep, tmp_path):
    # an entry is [class of the level, level, message]
    write_report(small_sweep, tmp_path)
    path = tmp_path / "sweep.json"
    doc = read_json(path)
    write_json(dict(doc, failures=[["odd", 3, "no bracket"]]), path)
    assert read_report(path).failures == (("odd", 3, "no bracket"),)
    write_json(dict(doc, failures=[entry]), path)
    with pytest.raises(ValueError) as refused:
        read_report(path)
    assert str(refused.value) == (f"{path} is not a sweep report: failure {entry!r} "
                                  "is not [class, level, message]")


def test_csv_layout(small_sweep, tmp_path):
    path = tmp_path / "sweep.csv"
    write_sweep_csv(small_sweep, path)
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(small_sweep.records)
    row = dict(zip(CSV_COLUMNS, lines[2].split(",")))
    assert row["class"] == "odd"
    assert row["zeros"] == "1"
    assert float(row["energy"]) == pytest.approx(8.0 / 3.0, abs=1e-6)
    assert float(row["energy_gap"]) == pytest.approx(3.0 - float(row["energy"]),
                                                     abs=1e-12)
    assert row["index"] == "1"
    assert row["N"] == "2001"


def test_write_report_produces_expected_files(small_sweep, tmp_path):
    written = write_report(small_sweep, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["solution_even_2.json", "solution_odd_1.json",
                     "sweep.csv", "sweep.json"]
    doc = json.loads((tmp_path / "sweep.json").read_text())
    assert doc["version"] == VERSION_STAMP
    assert len(doc["records"]) == 2
    # sweep.json names each profile's file and holds no profile itself
    assert [r["solution"] for r in doc["records"]] == ["solution_even_2.json",
                                                      "solution_odd_1.json"]
    assert not any("profile" in r for r in doc["records"])


def test_write_report_is_byte_deterministic(small_sweep, tmp_path):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    w1 = write_report(small_sweep, d1)
    # a freshly recomputed sweep must serialise to identical bytes
    again = run_sweep(SweepConfig(P33, 2, **SMALL))
    w2 = write_report(again, d2)
    assert [p.name for p in w1] == [p.name for p in w2]
    for p1, p2 in zip(w1, w2):
        assert p1.read_bytes() == p2.read_bytes()


def test_solution_files_are_save_profile_bytes(small_sweep, tmp_path):
    from spherekink.serialize import save_profile
    write_report(small_sweep, tmp_path / "report")
    for rec in small_sweep.records:
        name = "solution_%s_%d.json" % rec.sequence_key
        save_profile(rec.profile, tmp_path / name)
        assert (tmp_path / "report" / name).read_bytes() == (tmp_path / name).read_bytes()


def test_emit_plots_files_and_warning(small_sweep, tmp_path):
    written = emit_plots(small_sweep, tmp_path)
    names = sorted(p.name for p in written)
    assert names == ["profile_even_2.svg", "profile_odd_1.svg", "summary.svg"]
    body = (tmp_path / "summary.svg").read_text(encoding="ascii")
    assert body.startswith("<svg")
    assert "energy" in body

    empty = run_sweep(SweepConfig(P33, 0, **SMALL))
    with pytest.warns(UserWarning, match="no plots"):
        assert emit_plots(empty, tmp_path / "none") == []


def test_solution_json_round_trips_through_loader(small_sweep, tmp_path):
    from spherekink.serialize import load_profile
    write_report(small_sweep, tmp_path)
    prof = load_profile(tmp_path / "solution_odd_1.json")
    assert prof.zero_count == 1
    assert prof.symmetry_class == "odd"
    rec = small_sweep.records[1]
    assert np.array_equal(prof.h, rec.profile.h)


def _nu_bump():
    g = np.linspace(-1.5, 1.5, 301)
    vals = 0.2 * np.cos(np.pi * g / 3.0) ** 2
    vals[0] = vals[-1] = 0.0
    return NuPerturbation(g, vals)


# the sweeps besides small_sweep whose written JSON is checked byte for byte
WRITTEN_SWEEPS = {
    "nu-plotted": lambda: SweepConfig(ProblemParams(3, 3.0, _nu_bump()), 2, **SMALL),
    "with-failure": lambda: SweepConfig(ProblemParams(15, 32.0), 3,
                                        cutoff=12.0, grid_size=1201),
    "empty": lambda: SweepConfig(P33, 0, **SMALL),
}


@pytest.mark.parametrize("name", ["small", *WRITTEN_SWEEPS])
def test_written_json_is_the_encoding_of_its_document(name, small_sweep, tmp_path):
    # each file is exactly its document's dumps
    report = small_sweep if name == "small" else run_sweep(WRITTEN_SWEEPS[name]())
    assert bool(report.failures) == (name == "with-failure")
    assert bool(report.records) == (name != "empty")
    write_report(report, tmp_path)
    if name == "nu-plotted":
        emit_plots(report, tmp_path)
    expected = dumps(sweep_report_to_doc(report)) + "\n"
    assert (tmp_path / "sweep.json").read_bytes() == expected.encode("ascii")
    for rec in report.records:
        expected = dumps(profile_to_doc(rec.profile)) + "\n"
        path = tmp_path / ("solution_%s_%d.json" % rec.sequence_key)
        assert path.read_bytes() == expected.encode("ascii")


# -- strict reading ----------------------------------------------------------------

@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_a_non_finite_constant_in_a_report_is_not_json(constant, small_sweep, tmp_path):
    write_report(small_sweep, tmp_path)
    path = tmp_path / "sweep.json"
    text = path.read_text(encoding="ascii")
    energy = repr(small_sweep.records[0].energy)
    assert text.count(f'"energy":{energy}') == 1
    path.write_text(text.replace(f'"energy":{energy}', f'"energy":{constant}'), encoding="ascii")
    with pytest.raises(ValueError, match=f"{path} is not JSON: {constant} is not a number"):
        read_report(path)


def test_a_margin_eigenvalue_beyond_the_float_range_is_refused(small_sweep, tmp_path):
    # 1e999 parses as inf; the reader names the file and the level
    write_report(small_sweep, tmp_path)
    path = tmp_path / "sweep.json"
    text = path.read_text(encoding="ascii")
    pair = dumps(list(small_sweep.records[0].spectral.margin_eigenvalues))
    assert text.count(pair) == 1
    path.write_text(text.replace(pair, "[-1e999," + pair[1:].split(",", 1)[1]), encoding="ascii")
    with pytest.raises(ValueError) as refused:
        read_report(path)
    assert str(refused.value) == (f"{path}, level even/2: not a spectral report: "
                                  "margin_eigenvalues holds -inf, not a finite number")


@pytest.mark.parametrize("edit, named, message", [
    (lambda doc: doc["records"][0]["spectral"].update(index=1.7),
     ", level even/2: not a spectral report", "invalid literal for int(): 1.7"),
    (lambda doc: doc["records"][0].update(energy=True),
     ", level even/2: not a sweep record", "could not convert boolean to float: True"),
    (lambda doc: doc["records"][0]["spectral"]["band_sensitivity"][0].__setitem__(1, True),
     ", level even/2: not a spectral report", "invalid literal for int(): True"),
    (lambda doc: doc.update(max_zeros=4.9), " is not a sweep report",
     "invalid literal for int(): 4.9"),
    (lambda doc: doc["records"][0]["spectral"].update(n=4001.5),
     ", level even/2: not a spectral report", "invalid literal for int(): 4001.5"),
    (lambda doc: doc.update(m=3.9), " is not a sweep report", "invalid literal for int(): 3.9"),
    (lambda doc: doc.update(omega="3"), " is not a sweep report",
     "could not convert string to float: '3'"),
], ids=["index-float", "energy-true", "band-count-true", "max-zeros-float", "n-float",
        "m-float", "omega-string"])
def test_a_report_value_of_the_wrong_kind_is_refused(edit, named, message, small_sweep,
                                                     tmp_path):
    write_report(small_sweep, tmp_path)
    path = tmp_path / "sweep.json"
    doc = read_json(path)
    edit(doc)
    write_json(doc, path)
    with pytest.raises(ValueError) as refused:
        read_report(path)
    assert str(refused.value) == f"{path}{named}: {message}"


# leaves a reader keeps as free text: another kind may read back
FREE_REPORT_LEAVES = {("version",)}


def test_every_leaf_of_a_report_is_read_strictly(sweep33, tmp_path, monkeypatch):
    # each leaf of a K=4 sweep.json set to another kind is refused or read
    # back as written; the solution files do not change, so each is read once
    write_report(sweep33, tmp_path)
    path = tmp_path / "sweep.json"
    text = path.read_text(encoding="ascii")
    doc = json.loads(text)
    monkeypatch.setattr(report, "load_profile", functools.cache(report.load_profile))
    leaves = list(json_leaves(doc))
    assert len(leaves) == 98
    for leaf, value in leaves:
        if leaf in FREE_REPORT_LEAVES:
            continue
        for other in other_kinds(value):
            put(doc, leaf, other)
            path.write_text(json.dumps(doc), encoding="ascii")
            put(doc, leaf, value)
            try:
                back = read_report(path)
            except ValueError:
                continue
            assert dumps(sweep_report_to_doc(back)) + "\n" == text, (leaf, other)
