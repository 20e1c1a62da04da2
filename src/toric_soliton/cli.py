"""Command-line surface.

Commands: ``roots``, ``soliton``, ``verify``, ``decompose``, ``calabi``.
Exit codes are a stable contract: 0 success, 2 input or geometry
rejection, 3 solver failure, 4 verification failure.  Every command
runs on plain Python floats; none imports numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .errors import MalformedInputError, NonConvergenceError, ToricSolitonError
from .polytope import DelzantPolytope, parse_polytope
from .report import (
    POTENTIAL_KINDS,
    calabi_report,
    decompose_report,
    render_text,
    roots_report,
    soliton_report,
    to_json,
    verify_report,
)

EXIT_OK = 0
EXIT_GEOMETRY = 2
EXIT_SOLVER = 3
EXIT_VERIFICATION = 4

#: largest accepted ``--order``, which only ``verify`` reads, for the mean curvature:
#: at it ``verify`` takes about 2 s and up to 74 MB on Bl3P2 (6 * 203^2 nodes, stacked
#: ``potentials.BLOCK`` at a time)
MAX_ORDER = 200
#: largest accepted ``--grid``; ``verify`` at it takes about 2-3 s and up to 0.13 GB
#: (Bl3P2 on a shared 2-core Xeon, fresh process)
MAX_GRID = 500


def _load_polytope(path: str) -> DelzantPolytope:
    """Read and parse a polytope document.

    Delzant and Fano (the privileged center) are checked by the report
    builder, in that order, before anything else it computes.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"document is not UTF-8 text: {exc}") from exc
    return parse_polytope(text)


def _check_arguments(args: argparse.Namespace) -> None:
    """Reject flag values the pipeline cannot use, naming the value."""
    _check_range("--order", getattr(args, "order", 1), MAX_ORDER)
    for flag in ("tol", "margin"):
        value = getattr(args, flag, 1.0)
        if not (value > 0.0 and math.isfinite(value)):
            raise MalformedInputError(f"--{flag} must be finite and positive, got {value}")
    if args.command in ("verify", "decompose", "calabi"):
        _check_range("--grid", args.grid, MAX_GRID)


def _check_range(flag: str, value: int, maximum: int) -> None:
    if value < 1:
        raise MalformedInputError(f"{flag} must be at least 1, got {value}")
    if value > maximum:
        raise MalformedInputError(f"{flag} must be at most {maximum}, got {value}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(to_json(report) + "\n")
    else:
        sys.stdout.write(render_text(report))


def _add_common(parser: argparse.ArgumentParser, with_potential_flags: bool = False) -> None:
    parser.add_argument("polytope", help="path to the polytope JSON document")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--tol", type=float, default=1e-10, help="solver tolerance (default 1e-10)")
    if with_potential_flags:
        parser.add_argument("--potential", choices=POTENTIAL_KINDS, default="guillemin")
        parser.add_argument("--grid", type=int, default=21,
                            help=f"interior grid resolution, 1 to {MAX_GRID} (default 21)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric-soliton",
        description="Soliton vector, Demazure roots and weighted-Laplacian eigenbasis diagnostics "
                    "for toric Fano surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_roots = sub.add_parser("roots", help="normalized polytope, Demazure roots, automorphism dimensions")
    p_roots.add_argument("polytope")
    p_roots.add_argument("--format", choices=("text", "json"), default="text")

    p_soliton = sub.add_parser("soliton", help="solve the weighted-moment condition for the soliton vector")
    _add_common(p_soliton)

    p_verify = sub.add_parser("verify", help="full verification report for a potential")
    _add_common(p_verify, with_potential_flags=True)
    p_verify.add_argument("--order", type=int, default=10,
                          help=f"quadrature exactness order of the mean curvature, 1 to {MAX_ORDER} (default 10)")
    p_verify.add_argument("--margin", type=float, default=0.05,
                          help="interior margin as a fraction of the coordinate spread (default 0.05)")

    p_dec = sub.add_parser("decompose", help="eigenvalue blocks of the solitonic decomposition")
    _add_common(p_dec, with_potential_flags=True)

    p_cal = sub.add_parser("calabi", help="closed-form blow-up soliton profiles and residuals")
    p_cal.add_argument("--format", choices=("text", "json"), default="text")
    p_cal.add_argument("--grid", type=int, default=50,
                       help=f"profile sample points, 1 to {MAX_GRID} (default 50)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_arguments(args)
        if args.command == "roots":
            report = roots_report(_load_polytope(args.polytope))
        elif args.command == "soliton":
            report = soliton_report(_load_polytope(args.polytope), tol=args.tol)
        elif args.command == "verify":
            report = verify_report(
                _load_polytope(args.polytope), potential_kind=args.potential,
                tol=args.tol, grid_n=args.grid, margin=args.margin, order=args.order,
            )
        elif args.command == "decompose":
            report = decompose_report(_load_polytope(args.polytope), potential_kind=args.potential,
                                      tol=args.tol, grid_n=args.grid)
        else:  # calabi
            report = calabi_report(grid_points=args.grid)
    except NonConvergenceError as exc:
        sys.stderr.write(f"solver failure: {exc}\n")
        return EXIT_SOLVER
    except ToricSolitonError as exc:
        sys.stderr.write(f"rejected: {exc}\n")
        return EXIT_GEOMETRY
    except OSError as exc:
        sys.stderr.write(f"cannot read input: {exc}\n")
        return EXIT_GEOMETRY

    _emit(report, args.format)
    if args.command == "verify" and not report["all_passed"]:
        sys.stderr.write(f"verification failed: {report['first_failed']}\n")
        return EXIT_VERIFICATION
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
