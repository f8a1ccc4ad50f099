"""spherekink benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload closed-loop from one process and one thread: whole passes
of ops, one after the other, until S seconds have gone by.  Every op's
output is checked; an op that raises or fails a check counts in fail_frac
and the run goes on.  Between ops it times the yardstick (yardstick.py),
so that op times can also be given in units that cancel the host's speed
drift.  With --trace 0 it prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced passes and prints the per-layer metrics and
the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The package is imported from src/ of the checkout this file sits in; there
is nothing to build.  Generated files go under .perfbench/ at the checkout
root.  See README.md for the workloads and metrics.
"""

import os
import sys
import time

_T0 = time.perf_counter()
# one BLAS thread, so the numbers measure the program and not the scheduler
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy
import scipy
import spherekink

import tracing
import workloads
import yardstick

# imports, from the first line of this file (interpreter start-up before it
# is not included); every set-up sample starts with this
IMPORT_S = time.perf_counter() - _T0

OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
PROBE_TIMEOUT_S = 150
# ops needed beyond the tail percentile
TAIL_BEYOND = 10
# yardstick time after each op, as a share of the op's wall time
REF_SHARE = 0.1


@dataclass
class OpRecord:
    name: str
    seconds: float
    ref_s: float  # mean yardstick chunk time on either side of the op
    traced: bool
    problems: list = field(default_factory=list)

    @property
    def cost(self) -> float:
        """Wall time in yardstick units."""
        return self.seconds / self.ref_s


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        **{v: os.environ[v] for v in THREAD_VARS},
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


@contextmanager
def work_dir():
    """A fresh directory for this process's generated files, removed after."""
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def set_up(workload: str, seed: int, sizes, work: Path):
    """One set-up sample: imports plus warm-up plus the workload's inputs."""
    t = time.perf_counter()
    workloads.warm_up()
    ops = workloads.WORKLOADS[workload](seed, sizes, work)
    return IMPORT_S + time.perf_counter() - t, ops


def probe_set_up(workload: str, seed: int) -> float:
    """One set-up sample in a fresh interpreter, which pays the imports again."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}):\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def run_op(op, tracer, op_id: int, ruler):
    """Time one op, then the yardstick window after it, then check the
    op's output; returns (seconds, ref_s, result, problems)."""
    if tracer is not None:
        tracer.op = op_id
    t = time.perf_counter()
    try:
        result, problems = op.run(), []
    except Exception as exc:  # a failed op is counted in fail_frac, not fatal
        result, problems = None, [_describe(exc)]
    seconds = time.perf_counter() - t
    if tracer is not None:
        tracer.op = None
    ref_s = ruler.after(seconds)
    if not problems:
        try:
            problems = op.check(result)
        except Exception as exc:  # a check that cannot run fails the op
            problems = [f"check raised {_describe(exc)}"]
    return seconds, ref_s, result, problems


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_pass(ops, tracer, first_id: int, ruler) -> list:
    records, entries = [], []
    for i, op in enumerate(ops):
        seconds, ref_s, result, problems = run_op(op, tracer, first_id + i, ruler)
        records.append(OpRecord(op.name, seconds, ref_s, tracer is not None, problems))
        if not problems and op.energy is not None:
            entries.append((i, *op.energy(result)))
    for i, msg in workloads.energy_order_problems(entries):
        records[i].problems.append(msg)
    return records


def measure(ops, seconds: float, tracer) -> tuple:
    """Whole passes until `seconds` have gone by; with a tracer, untraced and
    traced passes alternate, starting untraced.  Returns the op records and
    the time spent on the yardstick."""
    modes = (False,) if tracer is None else (False, True)
    records = []
    start = time.perf_counter()
    ruler = yardstick.Yardstick(REF_SHARE)
    while True:
        for traced in modes:
            with tracer.installed() if traced else nullcontext():
                records += run_pass(ops, tracer if traced else None, len(records), ruler)
        if time.perf_counter() - start >= seconds:
            return records, ruler.seconds


def tail(times: list):
    """Highest percentile with at least TAIL_BEYOND samples beyond it, as
    (value, percentile); None with fewer than TAIL_BEYOND + 1 samples."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(records, setup_samples, ref_seconds: float) -> tuple:
    """The bounded metrics, and the report lines, which add the raw-second
    forms, the tail and fail_frac."""
    times = [r.seconds for r in records]
    costs = [r.cost for r in records]
    passed = sum(not r.problems for r in records)
    failed = len(records) - passed
    timed = sum(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_p50_ref": (statistics.median(costs), "ref"),
        "ops_per_kref": (1000.0 * passed / sum(costs), "1/kref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    t = tail(times)
    ref_ms = 1000.0 * statistics.median(r.ref_s for r in records)
    lines = [
        _line("setup_s", *metrics["setup_s"],
              f"median of {len(setup_samples)} set-ups: "
              + ", ".join(f"{s:.4f}" for s in setup_samples)),
        _line("op_p50_s", statistics.median(times), "s", f"n={len(times)}"),
        _line("op_p50_ref", *metrics["op_p50_ref"], "median of op wall time / yardstick chunk time"),
        (_line("op_tail_s", t[0], "s", f"p{t[1]:.1f}, n={len(times)}, {TAIL_BEYOND} beyond")
         if t else f"{'op_tail_s':<41} left out: {len(times)} ops, needs {TAIL_BEYOND + 1}"),
        _line("ops_per_s", passed / timed, "1/s", f"{passed} passed in {timed:.3f} s timed"),
        _line("ops_per_kref", *metrics["ops_per_kref"], "passed ops per 1000 yardstick chunks of op time"),
        _line("fail_frac", failed / len(records), "ratio", f"{failed} failed / {len(records)} attempted"),
        _line("peak_rss_mb", *metrics["peak_rss_mb"], "ru_maxrss of this process"),
        f"# yardstick chunk: median {ref_ms:.3f} ms; {ref_seconds:.3f} s of yardstick time in the run",
    ]
    return metrics, lines


def per_layer(records, tracer, ops_per_pass: int) -> tuple:
    traced = [r.seconds for r in records if r.traced]
    overhead = (sum(r.cost for r in records if r.traced)
                / sum(r.cost for r in records if not r.traced) - 1.0)
    passes = len(traced) // ops_per_pass
    metrics = tracer.metrics(passes, overhead)
    notes = dict(tracer.bases())
    notes.update((name, what) for name, _, what in tracing.DERIVED if name not in notes)
    lines = [_line(name, v, unit, notes.get(name, "")) for name, (v, unit) in metrics.items()]
    lines.append(f"# per traced pass, {passes} traced and {passes} untraced passes; spans cover "
                 f"{tracer.root_seconds() / sum(traced):.4f} of traced op wall time")
    return metrics, lines


def _line(name, value, unit, note="") -> str:
    return f"{name:<41} {value:<14.6g} {unit:<6} {note}".rstrip()


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        sizes=workloads.Sizes(), setup_repeats: int = SETUP_REPEATS) -> dict:
    """Set up, measure and check one workload; print the human-readable
    report and return the result object."""
    with work_dir() as work:
        setup_s, ops = set_up(workload, seed, sizes, work)
        samples = [setup_s]
        if not trace:
            samples += [probe_set_up(workload, seed) for _ in range(setup_repeats - 1)]
        tracer = tracing.Tracer() if trace else None
        records, ref_seconds = measure(ops, seconds, tracer)

    env = environment()
    print("env  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {workload}  seed={seed}  omega_factor={workloads.omega_factor(seed)!r}  "
          f"rotation={workloads.rotation(seed, len(ops))}  ops/pass={len(ops)}  "
          f"ops={len(records)}  closed loop, 1 process, 1 thread")
    if trace:
        metrics, lines = per_layer(records, tracer, len(ops))
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        with open(spans, "w", encoding="ascii") as f:
            f.write(json.dumps({"env": env, "workload": workload, "seed": seed}) + "\n")
            for name, start, end, parent, op in tracer.spans:
                f.write(json.dumps([name, start, end, parent, op]) + "\n")
        lines.append(f"# spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, lines = end_to_end(records, samples, ref_seconds)
    print("\n".join(lines))
    failed = [r for r in records if r.problems]
    for r in failed:
        print(f"FAIL {r.name}: " + "; ".join(r.problems), file=sys.stderr)
    return {"correct": not failed, "attempted": len(records), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="print one set-up time and exit (used for set-up samples)")
    args = p.parse_args(argv)

    src = (ROOT / "src" / "spherekink").resolve()
    if Path(spherekink.__file__).resolve().parent != src:
        print(f"spherekink was imported from {spherekink.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.setup_only:
        with work_dir() as work:
            print(repr(set_up(args.workload, args.seed, workloads.Sizes(), work)[0]))
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
