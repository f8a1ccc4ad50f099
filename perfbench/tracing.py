"""Per-layer spans and counts, recorded from outside the package.

While a Tracer is installed, each function in WRAPPED is replaced by a
wrapper wherever a spherekink module holds a reference to it: in its own
module and in every module that imported the name (for example
`report.find_solution`, `report.morse_index` and `cli.run_sweep`).  A
wrapper records a span only while `op` is set, so the harness's own checks
stay out of the trace.  Spans are kept in memory as
[name, start, end, parent span index, op id] and written out by the harness
when the run ends.  Nothing in the package changes.
"""

from __future__ import annotations

import functools
import os
import re
import sys
import time
from contextlib import contextmanager

from spherekink import shooting

WRAPPED = (
    "cli.main",
    "report.run_sweep", "report.write_report", "report.emit_plots",
    # _newton is wrapped because find_solution has no public entry point
    # for its Newton stage
    "shooting.find_solution", "shooting.integrate", "shooting._newton",
    "shooting.newton_polish", "shooting.verify_solution",
    "spectral.morse_index", "spectral.negative_count", "spectral.eigenvalues_below",
    "spectral.truncated_singular_count", "spectral.witness_subspace",
    "core.energy", "core.singular_energy", "core.resample", "core.weighted_norm",
    "serialize.dumps", "serialize.save_profile", "serialize.load_profile",
    "svg.line_chart",
)

# (name, unit, what it is); each is reported per traced pass
DERIVED = (
    ("shooting.integrate.steps", "count", "sum of len(traj.dense.ts) - 1 over returned trajectories"),
    ("shooting.integrate.per_level", "ratio", "integrate calls per level solved by find_solution"),
    ("shooting.newton.iters", "count", "Newton iterations parsed from returned profiles' provenance"),
    ("shooting.errors", "count", "NoBracketFound and PolishDiverged raised"),
    ("spectral.negative_count.per_index", "ratio", "negative_count calls per morse_index call"),
    ("spectral.pivots", "count", "computed: sum of (n - 2) over negative_count calls"),
    ("serialize.bytes_written", "bytes", "size of files written by save_profile and write_report"),
    ("serialize.bytes_read", "bytes", "size of files read by load_profile"),
    ("tracing_overhead", "ratio", "traced op cost / untraced op cost - 1, in yardstick units"),
)


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for qual in WRAPPED:
        out[f"{qual}.calls"] = "count"
        out[f"{qual}.self_s"] = "s"
    out.update((name, unit) for name, unit, _ in DERIVED)
    return out


_ITERS = re.compile(r"iters=(\d+)")


def _iters(prof) -> int:
    """Iterations of the last Newton stage recorded in the provenance."""
    found = _ITERS.findall(prof.provenance)
    return int(found[-1]) if found else 0


def _count_integrate(counts, args, kwargs, traj):
    if traj.dense is not None:
        counts["steps"] += len(traj.dense.ts) - 1


def _count_solved(counts, args, kwargs, prof):
    counts["levels"] += 1
    counts["newton_iters"] += _iters(prof)


def _count_polished(counts, args, kwargs, prof):
    counts["newton_iters"] += _iters(prof)


def _count_pivots(counts, args, kwargs, _):
    counts["pivots"] += args[0].n - 2


def _count_saved(counts, args, kwargs, _):
    counts["bytes_written"] += os.path.getsize(args[1])


def _count_report(counts, args, kwargs, written):
    counts["bytes_written"] += sum(os.path.getsize(p) for p in written)


def _count_loaded(counts, args, kwargs, _):
    counts["bytes_read"] += os.path.getsize(args[0])


_COUNTERS = {
    "shooting.integrate": _count_integrate,
    "shooting.find_solution": _count_solved,
    "shooting.newton_polish": _count_polished,
    "spectral.negative_count": _count_pivots,
    "serialize.save_profile": _count_saved,
    "report.write_report": _count_report,
    "serialize.load_profile": _count_loaded,
}

_SOLVER_ERRORS = (shooting.NoBracketFound, shooting.PolishDiverged)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self.counts = dict.fromkeys(("steps", "levels", "newton_iters", "errors",
                                     "pivots", "bytes_written", "bytes_read"), 0)
        self._counted_errors = []

    @contextmanager
    def installed(self):
        """Swap every reference to a WRAPPED function for its wrapper."""
        mods = [m for name, m in sys.modules.items() if name.startswith("spherekink.")]
        swaps = []
        try:
            for qual in WRAPPED:
                mod_name, fn_name = qual.split(".")
                orig = getattr(sys.modules[f"spherekink.{mod_name}"], fn_name)
                wrapper = self._wrap(qual, orig)
                for m in mods:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        swaps.append((m, attr, orig))
                        setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, orig in swaps:
                setattr(m, attr, orig)

    def _wrap(self, qual, fn):
        count = _COUNTERS.get(qual)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            span = [qual, 0.0, 0.0, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except _SOLVER_ERRORS as exc:
                # an error passes through several wrapped frames; count it once
                if not any(exc is e for e in self._counted_errors):
                    self._counted_errors.append(exc)
                    self.counts["errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def self_times(self) -> dict:
        """(calls, self seconds) per wrapped name.  Self time is a span's
        duration minus the durations of its direct children; calls nest
        without overlap in one thread, so that is the uncovered part."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {q: [0, 0.0] for q in WRAPPED}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return out

    def root_seconds(self) -> float:
        """Time covered by spans that have no wrapped parent."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None)

    def metrics(self, passes: int, overhead: float) -> dict:
        """Per-layer metrics per traced pass: name -> (value, unit)."""
        units = metric_units()
        st = self.self_times()
        vals = {}
        for qual, (calls, self_s) in st.items():
            vals[f"{qual}.calls"] = calls / passes
            vals[f"{qual}.self_s"] = self_s / passes
        c = self.counts
        vals["shooting.integrate.steps"] = c["steps"] / passes
        vals["shooting.integrate.per_level"] = _ratio(st["shooting.integrate"][0], c["levels"])
        vals["shooting.newton.iters"] = c["newton_iters"] / passes
        vals["shooting.errors"] = c["errors"] / passes
        vals["spectral.negative_count.per_index"] = _ratio(
            st["spectral.negative_count"][0], st["spectral.morse_index"][0])
        vals["spectral.pivots"] = c["pivots"] / passes
        vals["serialize.bytes_written"] = c["bytes_written"] / passes
        vals["serialize.bytes_read"] = c["bytes_read"] / passes
        vals["tracing_overhead"] = overhead
        return {name: (vals[name], unit) for name, unit in units.items()}

    def bases(self) -> dict:
        """The denominators of the two ratio metrics, totalled over the run."""
        st = self.self_times()
        return {"shooting.integrate.per_level": f"{st['shooting.integrate'][0]} calls / "
                                                f"{self.counts['levels']} levels",
                "spectral.negative_count.per_index": f"{st['spectral.negative_count'][0]} "
                                                     f"calls / {st['spectral.morse_index'][0]} "
                                                     f"morse_index calls"}


def _ratio(num, den) -> float:
    return num / den if den else 0.0
