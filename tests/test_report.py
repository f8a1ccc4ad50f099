"""Sweep orchestration, convergence checking, and the collector stage."""

import dataclasses
import json

import numpy as np
import pytest

from spherekink.core import NuPerturbation, ProblemParams
from spherekink.report import (
    CSV_COLUMNS,
    NORM_SLACK,
    SweepConfig,
    VERSION_STAMP,
    class_of_level,
    convergence_check,
    emit_plots,
    read_report,
    run_sweep,
    sweep_report_to_doc,
    write_report,
    write_sweep_csv,
)
from spherekink.serialize import dumps, profile_to_doc, read_json, write_json

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
    bad_rec = dataclasses.replace(sweep33.records[0],
                                  energy=sweep33.singular_energy + 0.1)
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
    # an even-class inversion far smaller than the slack must still fail
    recs = list(sweep33.records)
    even2 = recs[0]
    inverted = dataclasses.replace(recs[1], energy=even2.energy - 1e-9)
    report = dataclasses.replace(sweep33, records=(even2, inverted) + tuple(recs[2:]))
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
    # the table is derived from the records, so it cannot go stale
    recs = list(small_sweep.records)
    recs[1] = dataclasses.replace(recs[1], energy=recs[1].energy - 0.125)
    changed = dataclasses.replace(small_sweep, records=tuple(recs))
    cls, zeros, gap, sup, hn = changed.convergence_table[1]
    assert (cls, zeros) == recs[1].sequence_key
    assert gap == changed.singular_energy - recs[1].energy
    assert small_sweep.convergence_table[1][2] == gap - 0.125


def test_read_report_ignores_old_newton_tol(small_sweep, tmp_path):
    # files written while the Newton tolerance was a setting carry this key
    write_report(small_sweep, tmp_path)
    doc = read_json(tmp_path / "sweep.json")
    assert "newton_tol" not in doc
    write_json(dict(doc, newton_tol=1e-10), tmp_path / "sweep.json")
    back = read_report(tmp_path / "sweep.json")
    assert dumps(sweep_report_to_doc(back)) == dumps(doc)


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
