"""Command-line interface: uniform studies and adaptive runs.

Exit codes: 0 on success, 1 when a solve fails, 2 for bad arguments,
an unusable ``--out`` directory or an output file that cannot be written.
The output directory defaults to the INFLAP_OUT environment variable and
then to the current directory.  ``--log-level DEBUG`` prints one line per
fixed-point iteration, ``INFO`` one per level or cycle.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys

from .adapt import AdaptiveConfig, adaptive_solve
from .bench import convergence_study, registry, write_csv, write_vtu
from .errors import InvalidArgumentError, SolverFailure
from .mesh import build_initial_mesh
from .solver import SolverConfig


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inflap",
        description="Finite element solver for the Dirichlet problem of the "
                    "inhomogeneous infinity Laplacian on [-1, 1]^2.")
    parser.add_argument("-v", "--log-level", default="WARNING", type=str.upper,
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="log level of the inflap loggers (default WARNING)")
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of both subcommands, with the library's defaults
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--problem", required=True, choices=sorted(registry()))
    shared.add_argument("--tau", type=float, default=None,
                        help="relaxation parameter of the plain fixed-point step "
                             "(defaults to the problem's, for adapt its adaptive "
                             "value); the estimator does not read it")
    shared.add_argument("--tol-factor", type=float,
                        default=SolverConfig.increment_tol_factor,
                        help="stop the linearisation at tol-factor * h^2")
    shared.add_argument("--max-iters", type=int, default=SolverConfig.max_iterations,
                        help="fixed-point iterations per solve")
    shared.add_argument("--initial-n", type=int,
                        default=inspect.signature(convergence_study).parameters[
                            "initial_n"].default,
                        help="squares per side of the starting criss-cross mesh")
    shared.add_argument("--out", default=None,
                        help="output directory (None: INFLAP_OUT, then the current one)")

    def subcommand(name, summary):
        return sub.add_parser(name, parents=[shared], help=summary,
                              formatter_class=argparse.ArgumentDefaultsHelpFormatter)

    solve = subcommand("solve", "uniform-refinement convergence study")
    solve.add_argument("--levels", type=int, default=5, help="uniform levels to solve")

    adapt = subcommand("adapt", "adaptive solve-estimate-mark-refine run")
    adapt.add_argument("--tol", type=float, required=True,
                       help="estimator tolerance to refine down to")
    adapt.add_argument("--theta", type=float, default=AdaptiveConfig.theta,
                       help="bulk marking fraction")
    adapt.add_argument("--max-cycles", type=int, default=AdaptiveConfig.max_cycles,
                       help="largest number of solve-estimate-mark-refine cycles")
    adapt.add_argument("--dof-budget", type=int, default=AdaptiveConfig.dof_budget,
                       help="largest number of dofs to refine to")
    return parser


def _out_dir(argument):
    directory = argument or os.environ.get("INFLAP_OUT") or "."
    os.makedirs(directory, exist_ok=True)
    return directory


def _solver_config(args) -> SolverConfig:
    return SolverConfig(increment_tol_factor=args.tol_factor,
                        max_iterations=args.max_iters)


def _run_solve(args) -> int:
    out = _out_dir(args.out)
    written = []

    def on_level(level, mesh, report, indicators):
        path = os.path.join(out, f"{args.problem}_level{level}.vtu")
        write_vtu(mesh, {"solution": report.solution, "indicator": indicators}, path)
        written.append(path)

    csv_path = os.path.join(out, f"{args.problem}_eoc.csv")
    try:
        table = convergence_study(args.problem, args.levels, tau=args.tau,
                                  solver_config=_solver_config(args),
                                  initial_n=args.initial_n, on_level=on_level)
    except SolverFailure as failure:
        if failure.partial is not None and failure.partial.rows:
            write_csv(failure.partial, csv_path)
        print(f"error: {failure}", file=sys.stderr)
        return 1
    write_csv(table, csv_path)
    print(f"wrote {csv_path} and {len(written)} VTU files")
    header = f"{'level':>5} {'h':>12} {'dofs':>8} {'L2':>12} {'eoc':>6} " \
             f"{'H1':>12} {'eoc':>6} {'estimator':>12} {'its':>4}"
    print(header)
    for row in table.rows:
        print(f"{row.level:>5} {row.h:>12.4e} {row.dofs:>8} "
              f"{(row.l2_error if row.l2_error is not None else float('nan')):>12.4e} "
              f"{(f'{row.l2_eoc:.2f}' if row.l2_eoc is not None else '--'):>6} "
              f"{(row.h1_error if row.h1_error is not None else float('nan')):>12.4e} "
              f"{(f'{row.h1_eoc:.2f}' if row.h1_eoc is not None else '--'):>6} "
              f"{row.estimator:>12.4e} {row.iterations:>4}")
    return 0


def _run_adapt(args) -> int:
    out = _out_dir(args.out)
    problem = registry()[args.problem]
    tau = args.tau if args.tau is not None else problem.adaptive_tau
    config = AdaptiveConfig(estimator_tol=args.tol, theta=args.theta,
                            max_cycles=args.max_cycles, solver=_solver_config(args),
                            tau=tau, dof_budget=args.dof_budget)
    mesh = build_initial_mesh(args.initial_n)
    csv_path = os.path.join(out, f"{args.problem}_adapt_history.csv")
    try:
        report, final_mesh, history = adaptive_solve(problem.data, mesh, config)
    except SolverFailure as failure:
        if failure.partial is not None and failure.partial.records:
            write_csv(failure.partial, csv_path)
        print(f"error: {failure}", file=sys.stderr)
        return 1

    write_csv(history, csv_path)
    vtu_path = os.path.join(out, f"{args.problem}_adapt_final.vtu")
    write_vtu(final_mesh, {"solution": report.solution, "indicator": history.indicators},
              vtu_path)
    last = history.records[-1]
    print(f"wrote {csv_path} and {vtu_path}")
    print(f"{len(history.records)} cycles, final dofs {last.dofs}, "
          f"estimator {last.estimator:.4e} (tolerance {args.tol:g})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        return int(stop.code or 0)
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("inflap").setLevel(args.log_level)
    try:
        if args.command == "solve":
            return _run_solve(args)
        return _run_adapt(args)
    except (InvalidArgumentError, OSError) as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
