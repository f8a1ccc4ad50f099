"""Sweeps over zero counts, convergence tables, and flat-file reporting.

run_sweep solves every level 1..max_zeros (the parity of the level fixes
its symmetry class) and attaches energies and spectral counts; it writes
nothing.  write_report writes the result as CSV and JSON, and emit_plots
draws its SVG charts.  Output bytes are a pure function of the
configuration: records are sorted, floats are written as their shortest
exact repr, and nothing stamps wall-clock time.

Each level's bracket search starts from the bracket of its class's level
two below (shooting.shoot's prior), which only narrows where the search
starts: every level gets the bracket find_solution finds for it alone.  A
level that fails to bracket or polish becomes a failure entry rather than
aborting the rest, and leaves the next level of its class without a prior.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy

from . import __version__, svg
from .core import (
    DEFAULT_CUTOFF,
    DEFAULT_GRID_SIZE,
    HALF_PI,
    ProblemParams,
    Profile,
    clearance,
    energy,
    singular_energy,
    weighted_norm,
)
from .serialize import (
    format_float,
    integer,
    load_profile,
    nu_from_doc,
    nu_to_doc,
    number,
    profile_to_doc,
    read_json,
    reading,
    refuse_unknown,
    write_json,
)
from .shooting import (
    NoBracketFound,
    PolishDiverged,
    SolveRequest,
    finish,
    shoot,
)
from .spectral import (
    NULL_BAND,
    SpectralReport,
    morse_index,
    potential_samples,
    report_from_doc,
    report_to_doc,
)

VERSION_STAMP = f"spherekink {__version__}; numpy {np.__version__}; scipy {scipy.__version__}"


@dataclass(frozen=True)
class SweepConfig:
    """One experiment: problem parameters, levels, and discretisation."""

    params: ProblemParams
    max_zeros: int
    cutoff: float = DEFAULT_CUTOFF
    grid_size: int = DEFAULT_GRID_SIZE

    def __post_init__(self):
        if self.max_zeros < 0:
            raise ValueError("max_zeros must be >= 0")


@dataclass(frozen=True)
class SolutionRecord:
    """One solved level with its derived quantities.

    Deliberately not self-validating, so diagnostic paths can build records
    that break the expected bounds (convergence_check points at them).
    """

    profile: Profile
    energy: float
    spectral: SpectralReport
    H_norm: float

    @property
    def sup_norm(self) -> float:
        return self.profile.sup_norm

    @cached_property
    def clearance(self) -> float:
        """The profile's clearance below the singular energy (core.clearance)."""
        return clearance(self.profile)

    @property
    def sequence_key(self) -> tuple:
        """(symmetry class, total zeros)"""
        return (self.profile.symmetry_class, self.profile.zero_count)


@dataclass(frozen=True)
class SweepReport:
    config: SweepConfig
    records: tuple
    failures: tuple        # (class, zeros, message)
    version: str = VERSION_STAMP

    @cached_property
    def singular_energy(self) -> float:
        """The equator map's energy, which every record must stay below."""
        return singular_energy(self.config.params)

    @property
    def hypothesis(self) -> bool:
        return self.config.params.hypothesis()

    @property
    def convergence_table(self) -> tuple:
        """(class, zeros, clearance, sup_norm, H_norm) per record."""
        return tuple((*r.sequence_key, r.clearance, r.sup_norm, r.H_norm)
                     for r in self.records)


def class_of_level(zeros: int) -> str:
    return "odd" if zeros % 2 == 1 else "even"


def solution_name(zeros: int) -> str:
    """The file name of a level's profile, in a sweep and from solve."""
    return f"solution_{class_of_level(zeros)}_{zeros}.json"


def _record(prof: Profile) -> SolutionRecord:
    rec = SolutionRecord(prof, energy(prof), morse_index(prof), weighted_norm(prof))
    if not rec.clearance > 0:
        raise PolishDiverged(
            f"clearance {rec.clearance!r} below the singular level is not "
            f"positive; the level did not converge to a connecting profile")
    return rec


def run_sweep(config: SweepConfig) -> SweepReport:
    """Solve all levels and assemble the report; it writes no file."""
    records = []
    failures = []
    shots = {}          # class -> Shot of its last level
    for zeros in range(1, config.max_zeros + 1):
        cls = class_of_level(zeros)
        req = SolveRequest(config.params, cls, zeros,
                           cutoff=config.cutoff, grid_size=config.grid_size)
        try:
            shots[cls] = shot = shoot(req, prior=shots.pop(cls, None))
            records.append(_record(finish(req, shot)))
        except (NoBracketFound, PolishDiverged) as exc:
            failures.append((cls, zeros, str(exc)))
    records.sort(key=lambda r: r.sequence_key)
    return SweepReport(config, tuple(records), tuple(sorted(failures)))


# -- convergence check ---------------------------------------------------------

NORM_SLACK = 1e-6   # sup_norm and H_norm may rise by less than this between levels


@dataclass(frozen=True)
class ConvergenceCheck:
    status: str            # "pass" | "fail" | "insufficient data"
    failures: tuple


def convergence_check(report: SweepReport) -> ConvergenceCheck:
    """Trend check per class: sup_norm, H_norm, and the clearance below the
    singular level must all decrease along increasing zero count.

    The clearance must decrease strictly.  sup_norm and H_norm may fail to
    decrease by less than NORM_SLACK (they can be separated by less than the
    discretisation noise, sup_norm especially).  Records whose clearance is
    not positive are reported regardless.
    """
    failures = []
    checked_any = False
    for rec in report.records:
        if not rec.clearance > 0:
            failures.append(
                f"record {rec.sequence_key} has clearance {rec.clearance!r} below the "
                f"singular level, not positive: violates the connecting-profile "
                f"energy bound")
    for cls in ("even", "odd"):
        recs = [r for r in report.records if r.sequence_key[0] == cls]
        if len(recs) < 2:
            continue
        checked_any = True
        for a, b in zip(recs, recs[1:]):
            for name, va, vb, tol in (
                    ("sup_norm", a.sup_norm, b.sup_norm, NORM_SLACK),
                    ("H_norm", a.H_norm, b.H_norm, NORM_SLACK),
                    ("energy gap", a.clearance, b.clearance, 0.0)):
                if vb >= va + tol:
                    failures.append(
                        f"{name} fails to decrease from {a.sequence_key} to "
                        f"{b.sequence_key}: {va!r} -> {vb!r}")
    if not checked_any and not failures:
        return ConvergenceCheck("insufficient data", ())
    return ConvergenceCheck("pass" if not failures else "fail", tuple(failures))


# -- serialisation --------------------------------------------------------------

def record_to_doc(rec: SolutionRecord) -> dict:
    """The record's entry in sweep.json; "solution" names its profile's file."""
    cls, zeros = rec.sequence_key
    return {
        "class": cls,
        "zeros": zeros,
        "energy": rec.energy,
        "sup_norm": rec.sup_norm,
        "H_norm": rec.H_norm,
        "spectral": report_to_doc(rec.spectral),
        "solution": solution_name(zeros),
    }


def record_from_doc(doc: dict, path: Path) -> SolutionRecord:
    """record_to_doc's entry in the sweep.json at path, with its profile read
    from the file it names beside that one.  The record's class and zeros
    are its profile's, and a bad value, a key record_to_doc does not write
    or a bad spectral block is refused naming path and that level."""
    name = doc["solution"]
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise ValueError(f"solution {name!r} is not a file name")
    prof = load_profile(path.parent / name)
    level = f"{path}, level {prof.symmetry_class}/{prof.zero_count}"
    spectral = report_from_doc(doc["spectral"], f"{level}: not a spectral report")
    with reading(f"{level}: not a sweep record", refused_values=True):
        rec = SolutionRecord(prof, number(doc["energy"]), spectral, number(doc["H_norm"]))
        refuse_unknown(doc, record_to_doc(rec))
    return rec


def sweep_report_to_doc(report: SweepReport) -> dict:
    cfg = report.config
    return {
        "version": report.version,
        "m": cfg.params.m,
        "omega": cfg.params.omega,
        "nu": nu_to_doc(cfg.params.nu),
        "max_zeros": cfg.max_zeros,
        "cutoff": cfg.cutoff,
        "grid_size": cfg.grid_size,
        "null_band": NULL_BAND,
        "hypothesis": report.hypothesis,
        "singular_energy": report.singular_energy,
        "records": [record_to_doc(r) for r in report.records],
        "failures": [[c, z, msg] for c, z, msg in report.failures],
        "convergence": [[c, z, g, s, h] for c, z, g, s, h in report.convergence_table],
    }


def read_report(path) -> SweepReport:
    """The report in the sweep.json at path, with the solution files beside it.

    ValueError names the file if a key is missing or is not one the writer
    writes, a value has the wrong shape or type, or a failure entry is not
    [class of the level, level, message], and the level too if that is in a
    record.  What the report derives is not read: null_band, hypothesis,
    singular_energy, the convergence table, and each record's class, zeros
    and sup_norm.
    """
    path = Path(path)
    doc = read_json(path)
    what = f"{path} is not a sweep report"
    with reading(what, refused_values=True):
        params = ProblemParams(integer(doc["m"]), number(doc["omega"]),
                               nu_from_doc(doc.get("nu")))
        cfg = SweepConfig(params, integer(doc["max_zeros"]), number(doc["cutoff"]),
                          integer(doc["grid_size"]))
        failures = tuple((c, integer(z), m) for c, z, m in doc["failures"])
        for c, z, m in failures:
            if c != class_of_level(z) or not isinstance(m, str):
                raise ValueError(f"failure {[c, z, m]!r} is not [class, level, message]")
        version = str(doc["version"])
    # record_from_doc's own ValueErrors already name the file they read
    with reading(what):
        records = tuple(record_from_doc(d, path) for d in doc["records"])
    report = SweepReport(cfg, records, failures, version)
    with reading(what, refused_values=True):
        refuse_unknown(doc, sweep_report_to_doc(report))
    return report


CSV_COLUMNS = ("class", "zeros", "energy", "energy_gap", "index", "nullity",
               "sup_norm", "H_norm", "residual", "X", "N")


def write_sweep_csv(report: SweepReport, path) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in report.records:
            cls, zeros = r.sequence_key
            w.writerow([cls, zeros,
                        format_float(r.energy),
                        format_float(r.clearance),
                        r.spectral.index, r.spectral.nullity_estimate,
                        format_float(r.sup_norm), format_float(r.H_norm),
                        format_float(r.profile.residual_norm),
                        format_float(r.profile.cutoff), r.profile.n])


def write_report(report: SweepReport, out_dir) -> list:
    """CSV, sweep.json, and one solution file per record (named by the
    record's entry in sweep.json); emit_plots draws the charts."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    p = out / "sweep.csv"
    write_sweep_csv(report, p)
    written.append(p)

    doc = sweep_report_to_doc(report)
    p = out / "sweep.json"
    write_json(doc, p)
    written.append(p)

    # not save_profile: a caller counting the bytes that both save_profile
    # and write_report write would count these files twice
    for rec, rec_doc in zip(report.records, doc["records"]):
        p = out / rec_doc["solution"]
        write_json(profile_to_doc(rec.profile), p)
        written.append(p)
    return written


# -- plots -----------------------------------------------------------------------

def profile_chart(prof: Profile) -> str:
    """SVG of h with its Schrodinger potential overlaid and +-pi/2 dashed."""
    xs, hs = svg.decimate(prof.grid, prof.h)
    return svg.line_chart(
        [svg.Series(xs, hs, "#1f6feb", label="h(x)"),
         svg.Series(xs, potential_samples(xs, hs, prof.params), "#d29922", label="V(x)",
                    dashed=True, axis="right")],
        hlines=((HALF_PI, "#8c959f", True, "left"),
                (-HALF_PI, "#8c959f", True, "left")),
        title=f"profile {prof.symmetry_class} class, {prof.zero_count} zeros "
              f"(m={prof.params.m}, omega={prof.params.omega:g})",
        xlabel="x", ylabel="h", ylabel_right="V")


def write_profile_chart(prof: Profile, out_dir) -> Path:
    """profile_chart(prof) as out_dir/profile_<class>_<zeros>.svg."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    p = out / f"profile_{prof.symmetry_class}_{prof.zero_count}.svg"
    p.write_text(profile_chart(prof), encoding="ascii", newline="\n")
    return p


def emit_plots(report: SweepReport, out_dir) -> list:
    """One profile chart per solution and a summary SVG of energy against
    zero count with the singular level dashed."""
    if not report.records:
        warnings.warn("empty report: no plots emitted")
        return []
    written = [write_profile_chart(r.profile, out_dir) for r in report.records]

    ks = [r.sequence_key[1] for r in sorted(report.records, key=lambda r: r.sequence_key[1])]
    es = [r.energy for r in sorted(report.records, key=lambda r: r.sequence_key[1])]
    doc = svg.line_chart(
        [svg.Series(tuple(float(k) for k in ks), tuple(es), "#1f6feb",
                    label="E(h_k)", markers=True)],
        hlines=((report.singular_energy, "#cf222e", True, "left"),),
        title=f"energies toward the singular level "
              f"(m={report.config.params.m}, omega={report.config.params.omega:g})",
        xlabel="total zeros", ylabel="energy")
    p = Path(out_dir) / "summary.svg"
    p.write_text(doc, encoding="ascii", newline="\n")
    written.append(p)
    return written
