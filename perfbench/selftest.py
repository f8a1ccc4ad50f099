"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

Uses the sizes of acceptance criterion 10 (cutoff 16, N = 2001, at most two
zeros) and one pass per run, and checks that

- every metric named in BENCHMARK.json is reported, and every end-to-end
  metric is printed by name, for every workload, timed and traced;
- a known-bad op is counted in fail_frac and does not stop the run.  The
  bad op solves identity-3 level 6 at the default cutoff, which raises
  PolishDiverged (boundary gap 1.27e-6 against a tolerance of 1e-6).

Exits 0 when all of that holds.  Takes about half a minute.
"""

import contextlib
import io
import json
import sys

import run
import tracing
import workloads
from spherekink import core, shooting

PRINTED = ("setup_s", "op_p50_s", "op_p50_ref", "op_tail_s", "ops_per_s", "ops_per_kref",
           "fail_frac", "peak_rss_mb")


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest failed: {what}")


def quiet_run(workload: str, seed: int, trace: bool):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        result = run.run(workload, seed, 0.0, trace, sizes=workloads.TINY, setup_repeats=1)
    return result, out.getvalue(), err.getvalue()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    expect([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads differ from workloads.WORKLOADS")
    expect(layer == set(tracing.metric_units()),
           "BENCHMARK.json per_layer differs from tracing.metric_units()")

    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result, text, err = quiet_run(name, 1, trace)
            mode = "traced" if trace else "timed"
            expect(result["failed"] == 0, f"{name} {mode}: {err}")
            expect(set(result["metrics"]) == (layer if trace else e2e),
                   f"{name} {mode}: reported {sorted(result['metrics'])}")
            printed = {line.split()[0] for line in text.splitlines() if line.strip()}
            missing = (layer if trace else set(PRINTED)) - printed
            expect(not missing, f"{name} {mode}: not printed: {sorted(missing)}")

    bad = workloads.Op(
        "identity-3/6 at the default cutoff",
        lambda: shooting.find_solution(
            shooting.SolveRequest(core.ProblemParams(3, 3.0), "even", 6)),
        lambda result: [])
    make = workloads.WORKLOADS["solve-catalog"]
    workloads.WORKLOADS["solve-catalog"] = lambda *args: make(*args) + [bad]
    try:
        result, text, err = quiet_run("solve-catalog", 0, False)
    finally:
        workloads.WORKLOADS["solve-catalog"] = make
    attempted = 2 * len(workloads.TINY.catalog_levels) + 1
    expect(result["attempted"] == attempted and result["failed"] == 1
           and not result["correct"], f"known-bad op: {result} {err}")
    expect("PolishDiverged" in err, f"known-bad op: failure not reported: {err}")
    fail_line = next(line for line in text.splitlines() if line.startswith("fail_frac"))
    expect(f"1 failed / {attempted} attempted" in fail_line, f"known-bad op: {fail_line}")

    print(f"selftest passed: {len(workloads.WORKLOADS)} workloads, timed and traced; "
          f"known-bad op counted ({fail_line.split()[1]} fail_frac)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
