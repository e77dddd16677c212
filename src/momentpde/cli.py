"""Command line entry point.

Subcommands: sizes, solve, compare, oracle, export-sdpa, import-solution.
Exit codes: 0 success, 1 solver finished without reaching optimality,
2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from pathlib import Path

from .analytic import analytic_tables
from .compare import matching_percentages
from .config import ConfigError, RunConfig, load_config
from .galerkin import oracle_tables
from .indices import TruncationDegrees, count_matrix_basis, count_moment_vector
from .models import Linear, MeasureTag
from .relaxation import ConicProblem, build_problem, extract_pseudomoments
from .sdpa import export_sdpa, import_solution
from .solver import SolveReport, solve
from .tables import (
    MissingMomentError,
    MomentTable,
    read_table_csv,
    table_rows,
    write_table_csv,
)

DEFAULT_SIZE_ROWS = [
    (2, 2, 2),
    (4, 2, 2),
    (6, 2, 2),
    (6, 2, 4),
    (2, 4, 2),
    (4, 4, 2),
    (6, 4, 2),
    (4, 4, 4),
    (6, 4, 4),
    (6, 4, 6),
    (6, 6, 4),
    (6, 6, 6),
]


def _parse_triple(text: str) -> TruncationDegrees:
    parts = text.replace("(", "").replace(")", "").split(",")
    if len(parts) != 3:
        raise ConfigError(f"degree triple {text!r} must be time,algebraic,harmonic")
    try:
        return TruncationDegrees(*(int(p) for p in parts))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_sizes(args: argparse.Namespace) -> int:
    triples = [_parse_triple(t) for t in args.degrees] if args.degrees else [
        TruncationDegrees(*row) for row in DEFAULT_SIZE_ROWS
    ]
    lines = ["time,algebraic,harmonic,vector_size,matrix_size"]
    for deg in triples:
        lines.append(
            f"{deg.time},{deg.algebraic},{deg.harmonic},"
            f"{count_moment_vector(deg)},{count_matrix_basis(deg)}"
        )
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    return 0


def _write_pseudomoment_csv(
    path: Path, tables: dict[MeasureTag, MomentTable]
) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["measure", "ell", "freqs", "re", "im"])
        for measure in (MeasureTag.INITIAL, MeasureTag.TERMINAL, MeasureTag.OCCUPATION):
            writer.writerows([measure.value, *row] for row in table_rows(tables[measure]))


def _report_payload(
    cfg: RunConfig, problem: ConicProblem, report: SolveReport, seconds: float
) -> dict:
    """The report's fields, a non-finite one as None (JSON null), and the run's."""
    fields = report.as_dict()
    for key, value in fields.items():
        if isinstance(value, float) and not math.isfinite(value):
            fields[key] = None
    return {
        **fields,
        "runtime_seconds": seconds,
        "degrees": list(cfg.degrees.as_tuple()),
        "model": cfg.describe_model(),
        "num_vars": problem.num_vars,
        "num_equalities": problem.num_eq,
        "block_sizes": [b.size for b in problem.blocks],
    }


def _output_dir(args: argparse.Namespace, cfg: RunConfig) -> Path:
    """--output-dir if given, else the config's output_dir; created if missing."""
    out_dir = Path(args.output_dir) if args.output_dir else cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _oracle_tables(cfg: RunConfig, which: str) -> dict[MeasureTag, MomentTable]:
    """The closed-form ("analytic") or Fourier-Galerkin ("galerkin") tables."""
    if which == "analytic":
        return analytic_tables(cfg.initial, cfg.degrees)
    return oracle_tables(
        cfg.model, cfg.initial, cfg.degrees, step=cfg.oracle.step, cutoff=cfg.oracle.cutoff
    )


def _solve_config(cfg: RunConfig):
    problem = build_problem(cfg.model, cfg.degrees, cfg.initial)
    start = time.perf_counter()
    x, report = solve(problem, cfg.solver)
    return problem, x, report, time.perf_counter() - start


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out_dir = _output_dir(args, cfg)
    problem, x, report, seconds = _solve_config(cfg)
    _write_pseudomoment_csv(out_dir / "pseudomoments.csv", extract_pseudomoments(problem, x))
    payload = _report_payload(cfg, problem, report, seconds)
    (out_dir / "report.json").write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")
    print(
        f"{problem.description}: {report.status} after {report.iterations} iterations "
        f"({seconds:.1f}s), objective {report.primal_objective:.9g}, "
        f"equality residual {report.max_equality_residual:.2e}, "
        f"min block eigenvalue {report.min_block_eigenvalue:.2e}"
    )
    print(f"wrote {out_dir / 'pseudomoments.csv'} and {out_dir / 'report.json'}")
    return 0 if report.status == "optimal" else 1


def _reference_table(cfg: RunConfig, reference: str) -> MomentTable:
    # The analytic reference is the linear flow whatever the model: it grades
    # small-epsilon solves of the nonlinear models too.
    if reference in ("analytic", "galerkin"):
        return _oracle_tables(cfg, reference)[MeasureTag.OCCUPATION]
    path = Path(reference)
    if not path.exists():
        raise ConfigError(
            f"reference {reference!r} is neither 'analytic', 'galerkin' nor a CSV file"
        )
    return read_table_csv(path)


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out_dir = _output_dir(args, cfg)
    reference = _reference_table(cfg, args.reference)
    problem, x, report, seconds = _solve_config(cfg)
    computed = extract_pseudomoments(problem, x)[MeasureTag.OCCUPATION]
    try:
        rows = matching_percentages(computed, reference)
    except MissingMomentError as exc:
        raise ConfigError(str(exc)) from None
    with open(out_dir / "accuracy.csv", "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["threshold", "matched", "total", "percent"])
        for tau, matched, total, percent in rows:
            writer.writerow([repr(tau), matched, total, repr(percent)])
    print(f"solver: {report.status} ({seconds:.1f}s); reference: {args.reference}")
    for tau, matched, total, percent in rows:
        print(f"  relerr <= {tau:.0e}: {matched}/{total} ({percent:.1f}%)")
    print(f"wrote {out_dir / 'accuracy.csv'}")
    return 0 if report.status == "optimal" else 1


def cmd_oracle(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out_dir = _output_dir(args, cfg)
    linear = isinstance(cfg.model, Linear) or cfg.model.epsilon == 0
    if args.which == "analytic" and not linear:
        raise ConfigError("analytic oracle exists only for the linear heat flow (epsilon = 0)")
    for measure, table in _oracle_tables(cfg, args.which).items():
        path = out_dir / f"{args.which}_{measure.value}.csv"
        write_table_csv(table, path)
        print(f"wrote {path}")
    return 0


def cmd_export_sdpa(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    problem = build_problem(cfg.model, cfg.degrees, cfg.initial)
    export_sdpa(problem, args.out)
    print(
        f"wrote {args.out}: {problem.num_vars} variables, "
        f"{len(problem.blocks)} PSD blocks, {problem.num_eq} equalities"
    )
    return 0


def cmd_import_solution(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    out_dir = _output_dir(args, cfg)
    problem = build_problem(cfg.model, cfg.degrees, cfg.initial)
    try:
        x = import_solution(args.solution, problem)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _write_pseudomoment_csv(out_dir / "pseudomoments.csv", extract_pseudomoments(problem, x))
    print(f"wrote {out_dir / 'pseudomoments.csv'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentpde",
        description="Truncated moment relaxations for heat-type flows on the torus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sizes", help="moment vector and matrix sizes per truncation")
    p.add_argument("degrees", nargs="*", help="triples like 4,2,2 (default: builtin table)")
    p.add_argument("--out", help="also write the table to this file")
    p.set_defaults(func=cmd_sizes)

    p = sub.add_parser("solve", help="assemble and solve the relaxation")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("compare", help="accuracy histogram against a reference")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--reference",
        required=True,
        help="'analytic', 'galerkin', or a moment-table CSV path",
    )
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("oracle", help="dump oracle moment tables")
    p.add_argument("--config", required=True)
    p.add_argument("--which", required=True, choices=["analytic", "galerkin"])
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("export-sdpa", help="write the relaxation in SDPA sparse format")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_sdpa)

    p = sub.add_parser("import-solution", help="read an external solution vector")
    p.add_argument("--config", required=True)
    p.add_argument("--solution", required=True)
    p.add_argument("--output-dir")
    p.set_defaults(func=cmd_import_solution)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, FloatingPointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
