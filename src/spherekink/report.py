"""Sweeps over zero counts, convergence tables, and flat-file reporting.

run_sweep solves every level 1..max_zeros (the parity of the level fixes
its symmetry class) and attaches energies and spectral counts; it writes
nothing.  write_report writes the result as CSV and JSON, and emit_plots
draws its SVG charts.  Output bytes are a pure function of the
configuration: records are sorted, floats are written as their shortest
exact repr, and nothing stamps wall-clock time.

Levels are solved independently of each other; a level that fails to
bracket or polish becomes a failure entry rather than aborting the rest.
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
    energy,
    singular_energy,
    weighted_norm,
)
from .serialize import (
    format_float,
    load_profile,
    nu_from_doc,
    nu_to_doc,
    profile_to_doc,
    read_json,
    reading,
    write_json,
)
from .shooting import (
    NoBracketFound,
    PolishDiverged,
    SolveRequest,
    find_solution,
)
from .spectral import (
    NULL_BAND,
    SpectralReport,
    build_schrodinger,
    morse_index,
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

    def energy_gap(self, rec: SolutionRecord) -> float:
        """The record's clearance below the singular energy."""
        return self.singular_energy - rec.energy

    @property
    def convergence_table(self) -> tuple:
        """(class, zeros, energy_gap, sup_norm, H_norm) per record."""
        return tuple((*r.sequence_key, self.energy_gap(r), r.sup_norm, r.H_norm)
                     for r in self.records)


def class_of_level(zeros: int) -> str:
    return "odd" if zeros % 2 == 1 else "even"


def solution_name(zeros: int) -> str:
    """The file name of a level's profile, in a sweep and from solve."""
    return f"solution_{class_of_level(zeros)}_{zeros}.json"


def _solve_level(config: SweepConfig, zeros: int, e_inf: float) -> SolutionRecord:
    req = SolveRequest(config.params, class_of_level(zeros), zeros,
                       cutoff=config.cutoff, grid_size=config.grid_size)
    prof = find_solution(req)
    spectral = morse_index(prof)
    e = energy(prof)
    if not e < e_inf:
        raise PolishDiverged(
            f"energy {e!r} is not below the singular level; the level "
            f"did not converge to a connecting profile")
    return SolutionRecord(prof, e, spectral, weighted_norm(prof))


def run_sweep(config: SweepConfig) -> SweepReport:
    """Solve all levels and assemble the report; it writes no file."""
    e_inf = singular_energy(config.params)
    records = []
    failures = []
    for zeros in range(1, config.max_zeros + 1):
        try:
            records.append(_solve_level(config, zeros, e_inf))
        except (NoBracketFound, PolishDiverged) as exc:
            failures.append((class_of_level(zeros), zeros, str(exc)))
    records.sort(key=lambda r: r.sequence_key)
    return SweepReport(config, tuple(records), tuple(sorted(failures)))


# -- convergence check ---------------------------------------------------------

NORM_SLACK = 1e-6   # sup_norm and H_norm may rise by less than this between levels


@dataclass(frozen=True)
class ConvergenceCheck:
    status: str            # "pass" | "fail" | "insufficient data"
    failures: tuple


def convergence_check(report: SweepReport) -> ConvergenceCheck:
    """Trend check per class: sup_norm, H_norm, and the energy gap to the
    singular level must all decrease along increasing zero count.

    The energy gap must decrease strictly.  sup_norm and H_norm may fail to
    decrease by less than NORM_SLACK (they can be separated by less than the
    discretisation noise, sup_norm especially).  Records violating the
    strict energy bound are reported regardless.
    """
    failures = []
    checked_any = False
    for rec in report.records:
        if not rec.energy < report.singular_energy:
            failures.append(
                f"record {rec.sequence_key} has energy {rec.energy!r} not strictly "
                f"below the singular level {report.singular_energy!r}: violates the "
                f"connecting-profile energy bound")
    for cls in ("even", "odd"):
        recs = [r for r in report.records if r.sequence_key[0] == cls]
        if len(recs) < 2:
            continue
        checked_any = True
        for a, b in zip(recs, recs[1:]):
            for name, va, vb, tol in (
                    ("sup_norm", a.sup_norm, b.sup_norm, NORM_SLACK),
                    ("H_norm", a.H_norm, b.H_norm, NORM_SLACK),
                    ("energy gap", report.energy_gap(a), report.energy_gap(b), 0.0)):
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
    are its profile's, and a bad spectral block is refused naming path and
    that level."""
    name = doc["solution"]
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise ValueError(f"solution {name!r} is not a file name")
    prof = load_profile(path.parent / name)
    level = f"{path}, level {prof.symmetry_class}/{prof.zero_count}: not a spectral report"
    return SolutionRecord(prof, float(doc["energy"]), report_from_doc(doc["spectral"], level),
                          float(doc["H_norm"]))


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

    ValueError names the file if a key is missing or a value has the wrong
    shape.  What the report derives is not read: null_band, hypothesis,
    singular_energy, the convergence table, and each record's class, zeros
    and sup_norm.
    """
    path = Path(path)
    doc = read_json(path)
    with reading(f"{path} is not a sweep report"):
        params = ProblemParams(int(doc["m"]), float(doc["omega"]), nu_from_doc(doc.get("nu")))
        cfg = SweepConfig(params, int(doc["max_zeros"]), float(doc["cutoff"]),
                          int(doc["grid_size"]))
        return SweepReport(cfg, tuple(record_from_doc(d, path) for d in doc["records"]),
                           tuple((c, int(z), m) for c, z, m in doc["failures"]),
                           str(doc["version"]))


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
                        format_float(report.energy_gap(r)),
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
    pot = build_schrodinger(prof).potential
    xs, hs = svg.decimate(prof.grid, prof.h)
    xv, vv = svg.decimate(prof.grid, pot)
    return svg.line_chart(
        [svg.Series(xs, hs, "#1f6feb", label="h(x)"),
         svg.Series(xv, vv, "#d29922", label="V(x)",
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
