"""End-to-end command-line behaviour, exercised through main(argv)."""

import dataclasses
import json

import pytest
from conftest import explicit_doc

from spherekink.cli import main
from spherekink.core import ProblemParams, singular_profile
from spherekink.serialize import load_profile, read_json, save_profile, write_json
from spherekink.shooting import SolutionDiagnostics


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One small solved level shared by the read-only CLI tests."""
    path = tmp_path_factory.mktemp("solved") / "sol.json"
    code = main(["--quiet", "solve", "--m", "3", "--omega", "3",
                 "--zeros", "1",
                 "--cutoff", "16", "--grid", "2001", "--out", str(path)])
    assert code == 0
    return path


# -- catalog ---------------------------------------------------------------------

def test_catalog_table(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].split() == ["name", "m", "n", "omega", "degree", "hypothesis"]
    assert set(lines[1]) <= {"-", " "}
    assert any(ln.startswith("identity-3") for ln in lines)
    assert any("indeterminate" in ln for ln in lines)


def test_catalog_csv(capsys):
    assert main(["catalog", "--csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "name,m,n,omega,degree,hypothesis"
    assert len(lines) == 15           # header + 14 entries
    assert "hopf-3-2,3,2,8,,true" in lines


# -- usage errors ------------------------------------------------------------------

def test_no_command_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one(tmp_path):
    # --config is no longer a flag, even with a file it once read
    cfg = tmp_path / "run.cfg"
    cfg.write_text("quiet = true\n", encoding="ascii")
    for argv in (["catalog", "--bogus"], ["--config", str(cfg), "catalog"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1


def test_missing_problem_flags_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--zeros", "1"])
    assert exc.value.code == 1


def test_eigenmap_without_eigenvalue_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--eigenmap", "hopf-construction-5-4", "--max-zeros", "1"])
    assert exc.value.code == 1
    assert "--omega" in capsys.readouterr().err


# -- solve -------------------------------------------------------------------------

def test_solve_refuses_a_grid_finer_than_the_certificate(capsys):
    code = main(["solve", "--m", "3", "--omega", "3",
                 "--zeros", "1", "--grid", "200001"])
    assert code == 1
    err = capsys.readouterr().err
    assert "too fine for cutoff 20" in err
    assert "use grid_size <= 107091" in err


def test_solve_writes_verified_solution(solved, capsys):
    prof = load_profile(solved)
    assert prof.zero_count == 1
    assert prof.symmetry_class == "odd"
    code = main(["solve", "--m", "3", "--omega", "3",
                 "--zeros", "1", "--cutoff", "16", "--grid", "2001",
                 "--out", str(solved.parent / "again.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "solved odd/1" in out
    assert "wrote" in out
    # byte determinism across independent solves
    assert (solved.parent / "again.json").read_bytes() == solved.read_bytes()


def test_solve_takes_the_class_from_the_parity_of_zeros(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "solve", "--m", "3", "--omega", "3",
                 "--zeros", "2", "--cutoff", "16", "--grid", "2001"])
    assert code == 0
    assert "solved even/2" in capsys.readouterr().out
    prof = load_profile(tmp_path / "solution_even_2.json")
    assert (prof.symmetry_class, prof.zero_count) == ("even", 2)


def test_solve_exit_two_when_no_bracket(capsys):
    code = main(["solve", "--m", "15", "--omega", "32",
                 "--zeros", "3", "--cutoff", "12", "--grid", "1201"])
    assert code == 2
    assert "no bracket" in capsys.readouterr().err


def test_solve_respects_eigenmap_lookup(tmp_path, capsys):
    code = main(["--quiet", "solve", "--eigenmap", "identity-3",
                 "--zeros", "1",
                 "--cutoff", "16", "--grid", "2001",
                 "--out", str(tmp_path / "e.json")])
    assert code == 0
    prof = load_profile(tmp_path / "e.json")
    assert prof.params.m == 3
    assert prof.params.omega == 3.0


# -- verify ------------------------------------------------------------------------

def test_verify_passes_stored_solution(solved, capsys):
    assert main(["verify", "--solution", str(solved)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert doc["failures"] == []
    assert doc["residual_max"] < 1e-8
    assert doc["energy_margin"] > 0.3


def test_verify_document_is_the_diagnostics_record(solved, capsys):
    # SolutionDiagnostics' fields in order, with energy_value written as energy
    assert main(["verify", "--solution", str(solved)]) == 0
    keys = list(json.loads(capsys.readouterr().out))
    fields = [f.name for f in dataclasses.fields(SolutionDiagnostics)]
    assert keys == ["energy" if f == "energy_value" else f for f in fields]
    assert keys[5] == "energy"


@pytest.mark.parametrize("command", [["verify", "--solution"], ["index", "--solution"],
                                     ["plot", "--solution"], ["plot", "--report"]],
                         ids=["verify", "index", "plot-solution", "plot-report"])
def test_verify_missing_file(command, tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["--out", str(tmp_path)] + command + [missing]) == 1
    assert f"no such file: {missing}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_verify_flags_equator_branch(tmp_path, capsys):
    path = tmp_path / "equator.json"
    save_profile(singular_profile(ProblemParams(3, 3.0), cutoff=16.0, n=1601), path)
    assert main(["verify", "--solution", str(path)]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["singular_branch"] is True
    assert any("equator branch" in f for f in doc["failures"])


def test_verify_exit_four_on_corrupted_solution(solved, tmp_path, capsys):
    prof = load_profile(solved)
    g = prof.grid
    import dataclasses
    import numpy as np
    bad = dataclasses.replace(prof, h=prof.h + 1e-3 * g / np.cosh(g))
    path = tmp_path / "bad.json"
    save_profile(bad, path)
    assert main(["verify", "--solution", str(path)]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert any("residual" in f for f in doc["failures"])


# -- index -------------------------------------------------------------------------

def test_index_report(solved, capsys):
    assert main(["index", "--solution", str(solved)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["index"] == 1
    assert doc["nullity_estimate"] == 0
    assert doc["n"] == 2001
    assert doc["margin_eigenvalues"][0] == pytest.approx(-1.62772, abs=1e-3)


def test_index_with_resampling(solved, capsys):
    assert main(["index", "--solution", str(solved),
                 "--cutoff", "18", "--grid", "2401"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["index"] == 1
    assert doc["nullity_estimate"] == 0
    assert doc["cutoff"] == 18.0
    assert doc["n"] == 2401


def test_index_with_resampling_counts_zeros_when_unrecorded(solved, tmp_path, capsys):
    # a file's zero count is not read back, so one that holds null still
    # gives the polish request the count of its samples
    path = tmp_path / "bare.json"
    write_json(dict(read_json(solved), zero_count=None), path)
    assert load_profile(path).zero_count == 1
    assert main(["index", "--solution", str(path),
                 "--cutoff", "18", "--grid", "2401"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["index"] == 1
    assert doc["n"] == 2401


# -- singular-index ------------------------------------------------------------------

def test_singular_index_reports_witnesses(capsys):
    assert main(["singular-index", "--m", "3", "--omega", "3",
                 "--dims", "5", "--cutoff", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hypothesis"] is True
    assert doc["dims"] == 5
    assert len(doc["gram_diagonal"]) == 5
    assert all(q < 0 for q in doc["gram_diagonal"])
    assert doc["truncated_negative_count"] == 18


def test_singular_index_refuses_stable_regime(capsys):
    assert main(["singular-index", "--m", "15", "--omega", "32"]) == 4
    assert "refused" in capsys.readouterr().err


def test_singular_index_names_a_bad_cutoff(capsys):
    assert main(["singular-index", "--m", "3", "--omega", "3", "--cutoff", "-1"]) == 1
    assert capsys.readouterr().err == "spherekink: error: cutoff must be positive\n"


# -- sweep -------------------------------------------------------------------------

def test_sweep_writes_charts_only_with_plot(tmp_path, capsys):
    argv = ["--quiet", "sweep", "--m", "3", "--omega", "3", "--max-zeros", "2",
            "--cutoff", "16", "--grid", "2001"]
    plain, plotted = tmp_path / "plain", tmp_path / "plotted"
    assert main(argv + ["--out", str(plain)]) == 0
    assert main(argv + ["--plot", "--out", str(plotted)]) == 0
    files = sorted(p.name for p in plain.iterdir())
    assert files == ["solution_even_2.json", "solution_odd_1.json", "sweep.csv", "sweep.json"]
    charts = ["profile_even_2.svg", "profile_odd_1.svg", "summary.svg"]
    assert sorted(p.name for p in plotted.iterdir()) == sorted(files + charts)
    for name in files:
        assert (plotted / name).read_bytes() == (plain / name).read_bytes()


def test_sweep_too_coarse_grid_exits_one(tmp_path, capsys):
    code = main(["sweep", "--m", "3", "--omega", "3", "--max-zeros", "1",
                 "--cutoff", "16", "--grid", "501", "--out", str(tmp_path), "--quiet"])
    assert code == 1
    assert "grid too coarse" in capsys.readouterr().err


def test_sweep_names_failed_levels_and_exits_five(tmp_path, capsys):
    # at X = 20 levels 6 and 7 reach past the cutoff; levels 1-5 solve
    code = main(["--quiet", "sweep", "--m", "3", "--omega", "3", "--max-zeros", "7",
                 "--out", str(tmp_path)])
    assert code == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert [ln.partition(": ")[0] for ln in lines] == ["failed even/6", "failed odd/7"]
    assert all("boundary gap" in ln and "increase the cutoff" in ln for ln in lines)
    doc = read_json(tmp_path / "sweep.json")
    assert sorted(r["zeros"] for r in doc["records"]) == [1, 2, 3, 4, 5]
    assert [f[:2] for f in doc["failures"]] == [["even", 6], ["odd", 7]]


def test_sweep_exits_two_when_every_level_fails(tmp_path, capsys):
    code = main(["sweep", "--m", "3", "--omega", "3", "--max-zeros", "2",
                 "--cutoff", "5", "--grid", "1001", "--out", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert "failed" not in captured.out
    lines = captured.err.splitlines()
    assert [ln.partition(": ")[0] for ln in lines] == ["failed even/2", "failed odd/1",
                                                       "all levels failed"]


def test_out_named_like_a_subcommand(tmp_path, monkeypatch, capsys):
    # the value of --out is not taken for the subcommand
    monkeypatch.chdir(tmp_path)
    assert main(["--quiet", "--out", "catalog", "sweep", "--m", "3", "--omega", "3",
                 "--max-zeros", "1", "--cutoff", "16", "--grid", "2001"]) == 0
    assert (tmp_path / "catalog" / "solution_odd_1.json").exists()


def test_global_flags_after_subcommand(tmp_path, capsys):
    out = tmp_path / "after"
    code = main(["sweep", "--m", "3", "--omega", "3", "--max-zeros", "1",
                 "--cutoff", "16", "--grid", "2001",
                 "--out", str(out), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert (out / "sweep.csv").exists()


# -- plot --------------------------------------------------------------------------

def test_plot_single_solution(solved, tmp_path, capsys):
    assert main(["plot", "--solution", str(solved), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "profile_odd_1.svg").exists()
    assert "wrote" in capsys.readouterr().out


def test_plot_from_sweep_report(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["--quiet", "sweep", "--m", "3", "--omega", "3",
                 "--max-zeros", "1", "--cutoff", "16", "--grid", "2001",
                 "--out", str(out)]) == 0
    plots = tmp_path / "plots"
    assert main(["plot", "--report", str(out / "sweep.json"),
                 "--out", str(plots)]) == 0
    assert (plots / "profile_odd_1.svg").exists()
    assert (plots / "summary.svg").exists()


def test_plot_solution_matches_sweep_chart(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["--quiet", "sweep", "--m", "3", "--omega", "3",
                 "--max-zeros", "1", "--cutoff", "16", "--grid", "2001",
                 "--plot", "--out", str(out)]) == 0
    single = tmp_path / "single"
    assert main(["--quiet", "plot", "--solution", str(out / "solution_odd_1.json"),
                 "--out", str(single)]) == 0
    assert (single / "profile_odd_1.svg").read_bytes() == (out / "profile_odd_1.svg").read_bytes()


def test_plot_report_matches_sweep_charts(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["--quiet", "sweep", "--m", "3", "--omega", "3",
                 "--max-zeros", "2", "--cutoff", "16", "--grid", "2001",
                 "--plot", "--out", str(out)]) == 0
    plots = tmp_path / "plots"
    assert main(["--quiet", "plot", "--report", str(out / "sweep.json"),
                 "--out", str(plots)]) == 0
    names = sorted(p.name for p in plots.iterdir())
    assert names == ["profile_even_2.svg", "profile_odd_1.svg", "summary.svg"]
    for name in names:
        assert (plots / name).read_bytes() == (out / name).read_bytes()


@pytest.mark.parametrize("recorded", [None, 3], ids=["null", "wrong"])
def test_a_recorded_zero_count_is_not_read(recorded, tmp_path, capsys):
    # verify, plot --solution and plot --report take the count of the
    # samples, so the charts keep the names and bytes the sweep gave them
    out = tmp_path / "rep"
    assert main(["--quiet", "sweep", "--m", "3", "--omega", "3",
                 "--max-zeros", "1", "--cutoff", "16", "--grid", "2001",
                 "--plot", "--out", str(out)]) == 0
    path = out / "solution_odd_1.json"
    assert main(["verify", "--solution", str(path)]) == 0
    verified = capsys.readouterr().out
    write_json(dict(read_json(path), zero_count=recorded), path)
    assert main(["verify", "--solution", str(path)]) == 0
    assert capsys.readouterr().out == verified
    for argv, names in ((["--solution", str(path)], ["profile_odd_1.svg"]),
                        (["--report", str(out / "sweep.json")],
                         ["profile_odd_1.svg", "summary.svg"])):
        plots = tmp_path / f"plots{len(names)}"
        assert main(["--quiet", "plot", *argv, "--out", str(plots)]) == 0
        assert sorted(p.name for p in plots.iterdir()) == names
        for name in names:
            assert (plots / name).read_bytes() == (out / name).read_bytes()


def test_plot_report_with_a_missing_solution_file(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["--quiet", "sweep", "--m", "3", "--omega", "3",
                 "--max-zeros", "1", "--cutoff", "16", "--grid", "2001",
                 "--out", str(out)]) == 0
    (out / "solution_odd_1.json").unlink()
    assert main(["--quiet", "plot", "--report", str(out / "sweep.json"),
                 "--out", str(tmp_path / "plots")]) == 1
    err = capsys.readouterr().err
    assert err == f"spherekink: no such file: {out / 'solution_odd_1.json'}\n"


def test_plot_report_names_a_solution_file_of_the_wrong_shape(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["--quiet", "sweep", "--m", "3", "--omega", "3",
                 "--max-zeros", "1", "--cutoff", "16", "--grid", "2001",
                 "--out", str(out)]) == 0
    bad = out / "solution_odd_1.json"
    bad.write_text("[1, 2]\n", encoding="ascii")
    assert main(["--quiet", "plot", "--report", str(out / "sweep.json"),
                 "--out", str(tmp_path / "plots")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"spherekink: error: {bad} is not a profile document: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("edit, named, message", [
    (lambda doc: doc["records"][0].update(energy="y"), ", level odd/1: not a sweep record",
     "could not convert string to float: 'y'"),
    (lambda doc: doc["records"][0]["spectral"].update(index="x"),
     ", level odd/1: not a spectral report", "invalid literal for int()"),
    (lambda doc: doc.update(m="x"), " is not a sweep report", "invalid literal for int()"),
    (lambda doc: doc["records"][0]["spectral"].update(margin_eigenvalues="xy"),
     ", level odd/1: not a spectral report", "margin_eigenvalues is not a list: 'xy'"),
    (lambda doc: doc["records"][0]["spectral"]["margin_eigenvalues"].append("x"),
     ", level odd/1: not a spectral report", "margin_eigenvalues holds 'x', not a number"),
    (lambda doc: doc["records"][0]["spectral"].update(flags="oops"),
     ", level odd/1: not a spectral report", "flags is not a list: 'oops'"),
    (lambda doc: doc["records"][0]["spectral"].update(flags=[3]),
     ", level odd/1: not a spectral report", "flags holds 3, not a string"),
], ids=["energy", "spectral-index", "m", "margin-string", "margin-entry", "flags-string",
        "flags-entry"])
def test_plot_report_names_a_value_of_the_wrong_type(edit, named, message, tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["--quiet", "sweep", "--m", "3", "--omega", "3",
                 "--max-zeros", "1", "--cutoff", "16", "--grid", "2001",
                 "--out", str(out)]) == 0
    path = out / "sweep.json"
    doc = read_json(path)
    edit(doc)
    write_json(doc, path)
    assert main(["--quiet", "plot", "--report", str(path),
                 "--out", str(tmp_path / "plots")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"spherekink: error: {path}{named}: {message}")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "index", "plot"])
def test_solution_commands_refuse_a_sweep_report(command, tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["--quiet", "sweep", "--m", "3", "--omega", "3",
                 "--max-zeros", "0", "--out", str(out)]) == 0
    assert main([command, "--solution", str(out / "sweep.json"),
                 "--out", str(tmp_path / "plots")]) == 1
    err = capsys.readouterr().err
    assert err == f"spherekink: error: {out / 'sweep.json'} is not a profile document: no 'half_h'\n"


@pytest.mark.parametrize("argv, document", [
    (["verify", "--solution"], "not a profile document"),
    (["index", "--solution"], "not a profile document"),
    (["plot", "--solution"], "not a profile document"),
    (["plot", "--report"], "is not a sweep report"),
])
def test_a_document_of_the_wrong_shape_is_an_error(argv, document, solved, tmp_path, capsys):
    docs = [[1, 2]]
    if argv[-1] == "--solution":
        # nu sampled on the profile grid, a form no longer read
        doc = read_json(solved)
        docs.append(dict(doc, nu=[0.0] * doc["n"]))
    for doc in docs:
        path = tmp_path / "bad.json"
        write_json(doc, path)
        assert main(argv + [str(path), "--out", str(tmp_path / "plots")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"spherekink: error: {path} ") and document in err
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, in_sweep", [
    (["verify", "--solution"], False), (["index", "--solution"], False),
    (["plot", "--solution"], False), (["plot", "--report"], False),
    (["plot", "--report"], True),
], ids=["verify", "index", "plot-solution", "plot-report", "sweep-solution-file"])
def test_a_file_that_is_not_json_is_named(argv, in_sweep, tmp_path, capsys):
    arg = bad = tmp_path / "bad.json"
    if in_sweep:
        # the solution file a sweep.json names
        out = tmp_path / "rep"
        assert main(["--quiet", "sweep", "--m", "3", "--omega", "3",
                     "--max-zeros", "1", "--cutoff", "16", "--grid", "2001",
                     "--out", str(out)]) == 0
        arg, bad = out / "sweep.json", out / "solution_odd_1.json"
    bad.write_text("not json\n", encoding="ascii")
    assert main(argv + [str(arg), "--out", str(tmp_path / "plots")]) == 1
    err = capsys.readouterr().err
    assert err == (f"spherekink: error: {bad} is not JSON: "
                   "Expecting value: line 1 column 1 (char 0)\n")


def verify_error(doc, tmp_path, capsys):
    """What verify prints to stderr, with exit code 1, for a file holding doc."""
    path = tmp_path / "bad.json"
    write_json(doc, path)
    assert main(["verify", "--solution", str(path)]) == 1
    return path, capsys.readouterr().err


def test_a_profile_value_out_of_band_is_named(solved, tmp_path, capsys):
    doc = read_json(solved)
    doc["half_h"][3] = 2.0
    path, err = verify_error(doc, tmp_path, capsys)
    assert err == (f"spherekink: error: {path} is not a profile document: "
                   "profile leaves the band |h| <= pi/2\n")


def test_a_profile_of_even_size_is_named(solved, tmp_path, capsys):
    doc = read_json(solved)
    doc["n"] -= 1
    del doc["half_h"][-1]           # (n + 1) / 2 values for the even n
    path, err = verify_error(doc, tmp_path, capsys)
    assert err == (f"spherekink: error: {path} is not a profile document: "
                   "grid size must be odd and >= 3\n")


def test_compact_and_explicit_files_give_the_same_output(records33, tmp_path, capsys):
    prof = records33[("even", 4)].profile
    compact, explicit = tmp_path / "compact.json", tmp_path / "explicit.json"
    save_profile(prof, compact)
    write_json(explicit_doc(prof), explicit)
    assert "half_h" in read_json(compact) and "grid" in read_json(explicit)
    outputs = []
    for path in (compact, explicit):
        plots = tmp_path / f"plots-{path.stem}"
        got = []
        for argv in (["verify", "--solution", str(path)],
                     ["index", "--solution", str(path), "--cutoff", "25", "--grid", "10001"],
                     ["--quiet", "plot", "--solution", str(path), "--out", str(plots)]):
            assert main(argv) == 0
            got.append(capsys.readouterr().out)
        got.append((plots / "profile_even_4.svg").read_bytes())
        outputs.append(got)
    assert outputs[0] == outputs[1]


def test_a_sweep_record_of_the_wrong_shape_is_an_error(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["--quiet", "sweep", "--m", "3", "--omega", "3",
                 "--max-zeros", "0", "--out", str(out)]) == 0
    doc = json.loads((out / "sweep.json").read_text(encoding="ascii"))
    doc["records"] = [5]
    (out / "sweep.json").write_text(json.dumps(doc), encoding="ascii")
    assert main(["plot", "--report", str(out / "sweep.json"),
                 "--out", str(tmp_path / "plots")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"spherekink: error: {out / 'sweep.json'} is not a sweep report: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_plot_requires_an_input():
    with pytest.raises(SystemExit) as exc:
        main(["plot"])
    assert exc.value.code == 1
