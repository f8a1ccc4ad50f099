"""Command-line front end.

Subcommands: catalog | solve | sweep | index | singular-index | verify | plot.
Global flags, before or after the subcommand: --out DIR, --quiet.

Exit codes: 0 success, 1 usage error, 2 no shooting bracket (from sweep:
every level failed), 3 polish failure, 4 verification failure (including a
false instability hypothesis in singular-index), 5 some but not all levels
of a sweep failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import asdict
from pathlib import Path

from .catalog import catalog_rows, find_eigenmap
from .core import (
    DEFAULT_CUTOFF,
    DEFAULT_GRID_SIZE,
    ProblemParams,
    resample,
)
from .report import (
    SweepConfig,
    class_of_level,
    convergence_check,
    emit_plots,
    read_report,
    run_sweep,
    solution_name,
    write_profile_chart,
    write_report,
)
from .serialize import dumps, load_profile, save_profile
from .shooting import (
    NoBracketFound,
    PolishDiverged,
    SolveRequest,
    find_solution,
    newton_polish,
    verify_solution,
)
from .spectral import (
    morse_index,
    report_to_doc,
    truncated_singular_count,
    witness_subspace,
)

class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_global_flags(p, *, suppress: bool):
    # on subparsers the defaults are suppressed so they cannot clobber the
    # values the root parser already settled
    p.add_argument("--out", dest="out_dir", metavar="DIR",
                   default=argparse.SUPPRESS if suppress else ".",
                   help="directory for generated files (default: current)")
    p.add_argument("--quiet", action="store_true",
                   default=argparse.SUPPRESS if suppress else False,
                   help="suppress informational output")


def _build_parser() -> _Parser:
    p = _Parser(prog="spherekink",
                description="Connecting profiles of the reduced harmonic-map "
                            "equation between spheres: construction, energies, "
                            "Morse index counts, and reports.")
    _add_global_flags(p, suppress=False)

    def gp():
        # fresh parent per subparser: argparse shares parent actions by
        # reference, so one mutable instance must never serve two parsers
        parent = _Parser(add_help=False)
        _add_global_flags(parent, suppress=True)
        return parent

    sub = p.add_subparsers(dest="command", metavar="COMMAND")

    c = sub.add_parser("catalog", help="list built-in eigenmaps", parents=[gp()])
    c.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    c.set_defaults(func=_cmd_catalog)

    s = sub.add_parser("solve", parents=[gp()], conflict_handler="resolve",
                   help="solve one level; its parity fixes the symmetry class")
    _add_problem_flags(s)
    s.add_argument("--zeros", type=int, required=True, help="total interior zeros")
    _add_discretisation_flags(s)
    s.add_argument("--out", dest="out_file", metavar="FILE.json", default=None,
                   help="solution file (default: solution_<class>_<zeros>.json)")
    s.set_defaults(func=_cmd_solve)

    w = sub.add_parser("sweep", parents=[gp()], help="solve levels 1..K and write a report")
    _add_problem_flags(w)
    w.add_argument("--max-zeros", type=int, required=True, help="highest level K")
    _add_discretisation_flags(w)
    w.add_argument("--plot", action="store_true", help="also emit SVG charts")
    w.set_defaults(func=_cmd_sweep)

    i = sub.add_parser("index", parents=[gp()], help="Morse index report for a stored solution")
    i.add_argument("--solution", metavar="FILE.json", required=True)
    i.add_argument("--cutoff", type=float, default=None,
                   help="recompute after resampling to this half-width")
    i.add_argument("--grid", type=int, default=None,
                   help="recompute after resampling to this many points")
    i.set_defaults(func=_cmd_index)

    g = sub.add_parser("singular-index", parents=[gp()],
                       help="witness family and truncated counts at the equator map")
    g.add_argument("--m", type=int, required=True)
    g.add_argument("--omega", type=float, required=True)
    g.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    g.add_argument("--dims", type=int, default=10, help="requested family size")
    g.set_defaults(func=_cmd_singular_index)

    v = sub.add_parser("verify", parents=[gp()], help="check a stored solution against the equation")
    v.add_argument("--solution", metavar="FILE.json", required=True)
    v.set_defaults(func=_cmd_verify)

    t = sub.add_parser("plot", parents=[gp()], help="emit SVG charts from stored results")
    t.add_argument("--report", metavar="sweep.json", default=None)
    t.add_argument("--solution", metavar="FILE.json", default=None)
    t.set_defaults(func=_cmd_plot)
    return p


def _add_problem_flags(sp):
    sp.add_argument("--m", type=int, default=None, help="domain sphere dimension")
    sp.add_argument("--omega", type=float, default=None, help="eigenmap eigenvalue")
    sp.add_argument("--eigenmap", metavar="NAME", default=None,
                    help="take (m, omega) from the built-in catalog")


def _add_discretisation_flags(sp):
    sp.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF, help="domain half-width X")
    sp.add_argument("--grid", type=int, default=DEFAULT_GRID_SIZE, help="grid points N (odd)")


def _problem_params(args, parser) -> ProblemParams:
    if args.eigenmap is not None:
        try:
            spec = find_eigenmap(args.eigenmap)
        except KeyError as exc:
            parser.error(str(exc.args[0]))
        omega = args.omega if args.omega is not None else spec.omega
        if omega is None:
            parser.error(f"eigenmap {spec.name} has no stated eigenvalue; "
                         f"pass --omega explicitly")
        m = args.m if args.m is not None else spec.m
        return ProblemParams(m, omega)
    if args.m is None or args.omega is None:
        parser.error("need --m and --omega, or --eigenmap NAME")
    return ProblemParams(args.m, args.omega)


# -- subcommands -----------------------------------------------------------------

def _cmd_catalog(args, parser) -> int:
    rows = catalog_rows()
    header = ("name", "m", "n", "omega", "degree", "hypothesis")
    if args.csv:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        sys.stdout.write(buf.getvalue())
        return 0
    widths = [max(len(header[i]), max(len(r[i]) for r in rows)) for i in range(len(header))]
    def fmt(row):
        return "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
    print(fmt(header))
    print(fmt(tuple("-" * w for w in widths)))
    for r in rows:
        print(fmt(r))
    return 0


def _cmd_solve(args, parser) -> int:
    params = _problem_params(args, parser)
    cls = class_of_level(args.zeros)
    prof = find_solution(SolveRequest(params, cls, args.zeros,
                                      cutoff=args.cutoff, grid_size=args.grid))
    path = Path(args.out_file or solution_name(args.zeros))
    if not path.is_absolute():
        path = Path(args.out_dir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    save_profile(prof, path)

    diag = verify_solution(prof)
    if not args.quiet:
        print(f"solved {cls}/{args.zeros}: "
              f"energy={diag.energy_value:.12g} residual={diag.residual_max:.3e} "
              f"sup={prof.sup_norm:.12g}")
        print(f"wrote {path}")
    if not diag.passed:
        for f in diag.failures:
            print(f"verification: {f}", file=sys.stderr)
        return 4
    return 0


def _cmd_sweep(args, parser) -> int:
    report = run_sweep(SweepConfig(_problem_params(args, parser), args.max_zeros,
                                   cutoff=args.cutoff, grid_size=args.grid))
    write_report(report, args.out_dir)
    if args.plot:
        emit_plots(report, args.out_dir)
    if not args.quiet:
        if not report.hypothesis:
            print("NOTE: (m-1)^2/4 < omega fails for these parameters; the "
                  "infinite solution family is not guaranteed (hypothesis=false)")
        print("class  zeros  energy            gap_to_singular   index  nullity")
        for r in report.records:
            cls, z = r.sequence_key
            print(f"{cls:<5}  {z:<5}  {r.energy:<16.12g}  "
                  f"{report.energy_gap(r):<16.6e}  "
                  f"{r.spectral.index:<5}  {r.spectral.nullity_estimate}")
        chk = convergence_check(report)
        print(f"convergence: {chk.status}")
        print(f"wrote report to {args.out_dir}")
    for cls, z, msg in report.failures:
        print(f"failed {cls}/{z}: {msg}", file=sys.stderr)
    if not report.failures:
        return 0
    if not report.records:
        print("all levels failed", file=sys.stderr)
        return 2
    return 5


def _cmd_index(args, parser) -> int:
    prof = load_profile(args.solution)
    cutoff = args.cutoff if args.cutoff is not None else prof.cutoff
    n = args.grid if args.grid is not None else prof.n
    if cutoff != prof.cutoff or n != prof.n:
        prof = resample(prof, cutoff, n)
        # the request's grid sets the tolerance newton_polish stops at
        req = SolveRequest(prof.params, class_of_level(prof.zero_count),
                           prof.zero_count, cutoff=cutoff, grid_size=n)
        prof = newton_polish(prof, req)
    rep = morse_index(prof)
    print(dumps(report_to_doc(rep)))
    return 0


def _cmd_singular_index(args, parser) -> int:
    params = ProblemParams(args.m, args.omega)
    try:
        fam = witness_subspace(params, args.dims)
    except ValueError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 4
    count = truncated_singular_count(params, args.cutoff)
    family = {k: v for k, v in asdict(fam).items() if k not in ("params", "starts", "functions")}
    doc = {"m": args.m, "omega": args.omega, "hypothesis": params.hypothesis(),
           "dims": fam.size, **family,
           "cutoff": args.cutoff, "truncated_negative_count": count}
    print(dumps(doc))
    return 0


def _cmd_verify(args, parser) -> int:
    diag = verify_solution(load_profile(args.solution))
    doc = {"energy" if k == "energy_value" else k: v for k, v in asdict(diag).items()}
    print(dumps(doc))
    return 0 if diag.passed else 4


def _cmd_plot(args, parser) -> int:
    if args.report is None and args.solution is None:
        parser.error("plot needs --report and/or --solution")
    written = []
    if args.report is not None:
        written += emit_plots(read_report(args.report), args.out_dir)
    if args.solution is not None:
        written.append(write_profile_chart(load_profile(args.solution), args.out_dir))
    if not args.quiet:
        for p in written:
            print(f"wrote {p}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1

    try:
        return args.func(args, parser)
    except NoBracketFound as exc:
        print(f"spherekink: no bracket: {exc}", file=sys.stderr)
        return 2
    except PolishDiverged as exc:
        print(f"spherekink: polish failed: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"spherekink: no such file: {exc.filename}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"spherekink: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
