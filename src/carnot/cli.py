"""Command-line interface.

Every analysis command takes a SOURCE: a path to an algebra file, a
catalog entry name, or an explicit ``catalog:NAME``.  Output goes to
stdout in the same ``key: value`` form as ``report``.  Exit codes:
0 for success with a true verdict, 1 for property-failure verdicts
(Jacobi violations, false verdicts, mismatched ``--expect``), 2 for
usage or parse errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import algfile, catalog, grading, report, tanaka
from .algfile import AlgebraFileError
from .catalog import UnknownEntryError
from .liealg import LieAlgebra, NotLieAlgebraError


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve(source: str) -> tuple[str, LieAlgebra, Optional[tuple[tuple[int, int], ...]]]:
    if source.startswith("catalog:"):
        name = source[len("catalog:"):]
        try:
            entry = catalog.get(name)
        except UnknownEntryError as e:
            raise CliError(str(e), 2) from None
        return f"catalog:{name}", entry.algebra, entry.declared_layers
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                parsed = algfile.parse(fh.read())
        except (AlgebraFileError, OSError, UnicodeDecodeError) as e:
            raise CliError(f"{source}: {e}", 2) from None
        return source, parsed.algebra, parsed.layer_ranges
    try:
        entry = catalog.get(source)
    except catalog.EntryParameterError as e:
        raise CliError(str(e), 2) from None
    except UnknownEntryError:
        raise CliError(f"no such file or catalog entry: {source}", 2) from None
    return f"catalog:{source}", entry.algebra, entry.declared_layers


def _require_lie(algebra: LieAlgebra) -> None:
    try:
        algebra.validated()
    except NotLieAlgebraError as e:
        raise CliError(str(e), 1) from None


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split("..")
    if len(parts) != 2:
        raise CliError(f"bad range (expected a..b): {text!r}", 2)
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"bad range (expected a..b): {text!r}", 2) from None
    if lo > hi:
        raise CliError(f"bad range (empty): {text!r}", 2)
    return lo, hi


def _require_nonnegative(option: str, value: int) -> None:
    if value < 0:
        raise CliError(f"{option} must be nonnegative, got {value}", 2)


def _cmd_check(args) -> int:
    _require_nonnegative("--limit", args.limit)
    label, algebra, _ = _resolve(args.source)
    defects = algebra.jacobi_defect()
    print(f"source: {label}")
    print(f"dim: {algebra.dim}")
    print(f"brackets: {algebra.bracket_count()}")
    if not defects:
        print("jacobi: ok")
        return 0
    print(f"jacobi: {len(defects)} violations")
    for i, j, k, residual in defects[:args.limit]:
        print(f"violation ({i + 1},{j + 1},{k + 1}): {report.fmt_vec_labels(residual)}")
    if len(defects) > args.limit:
        print(f"violations_truncated: {len(defects) - args.limit}")
    return 1


def _cmd_series(args) -> int:
    label, algebra, _ = _resolve(args.source)
    _require_lie(algebra)
    series = algebra.lower_central_series()
    print(f"source: {label}")
    print(f"nilpotent: {report.fmt_bool(series.nilpotent)}")
    print(f"step: {series.step if series.nilpotent else 'none'}")
    print(f"series_dims: {report.fmt_ints(series.dims)}")
    return 0


def _print_report_keys(args, cap: int, keys: tuple[str, ...]) -> report.Analysis:
    """Print the ``source`` line and the report lines with the given keys
    (``g0_basis`` names every ``g0_basis[i]``)."""
    label, algebra, ranges = _resolve(args.source)
    a = report.analyze(algebra, ranges, cap)
    if a.tower is None:
        raise CliError(a.problem, 1)
    for line in report.report_lines(label, algebra, a, ("source",) + keys):
        print(line)
    return a


def _cmd_g0(args) -> int:
    _print_report_keys(args, 0, ("g0_dim", "g0_basis"))
    return 0


def _cmd_prolong(args) -> int:
    _require_nonnegative("--max", args.max)
    _print_report_keys(args, args.max,
                       ("prolongation_cap", "prolongation_dims", "prolongation_finite"))
    return 0


def _cmd_rigid(args) -> int:
    a = _print_report_keys(args, 1, ("g0_dim", "ultrarigid", "g1_trivial"))
    ultrarigid = tanaka.rigidity_verdict(a.tower).infinitesimally_ultrarigid
    want = args.expect is None or args.expect == "ultrarigid"
    return 0 if ultrarigid == want else 1


def _cmd_stratifiable(args) -> int:
    label, algebra, _ = _resolve(args.source)
    _require_lie(algebra)
    try:
        verdict = grading.is_stratifiable(algebra)
    except grading.NotNilpotentError as e:
        raise CliError(str(e), 1) from None
    print(f"source: {label}")
    print(f"stratifiable: {report.fmt_bool(verdict.stratifiable)}")
    if verdict.derived_stratification is not None:
        print(f"layers: {report.fmt_layers(verdict.derived_stratification)}")
    if args.expect is not None:
        want = args.expect == "stratifiable"
        return 0 if verdict.stratifiable == want else 1
    return 0 if verdict.stratifiable else 1


def _cmd_gr(args) -> int:
    label, algebra, _ = _resolve(args.source)
    _require_lie(algebra)
    lo, hi = _parse_range(args.horizontal)
    if not (1 <= lo <= hi <= algebra.dim):
        raise CliError(f"horizontal range {lo}..{hi} out of 1..{algebra.dim}", 2)
    horizontal = grading.coordinate_layers(algebra.dim, [(lo, hi)])[0]
    try:
        result = grading.nilpotentisation(algebra, horizontal)
    except (grading.NotBracketGeneratingError, grading.StratificationError) as e:
        raise CliError(str(e), 1) from None
    ranges = grading.consecutive_ranges(result.stratification.layer_dims)
    sys.stdout.write(algfile.emit(result.algebra, ranges))
    return 0


def _cmd_catalog(args) -> int:
    if args.name is None:
        for name, description in catalog.list_entries():
            print(f"{name}: {description}")
        return 0
    try:
        entry = catalog.get(args.name)
    except UnknownEntryError as e:
        raise CliError(str(e), 2) from None
    if args.emit:
        sys.stdout.write(algfile.emit(entry.algebra, entry.declared_layers))
        return 0
    print(f"name: {entry.name}")
    print(f"dim: {entry.algebra.dim}")
    print(f"brackets: {entry.algebra.bracket_count()}")
    print("declared_layers: " +
          (report.fmt_ranges(entry.declared_layers) if entry.declared_layers else "none"))
    print(f"provenance: {entry.provenance}")
    return 0


def _cmd_report(args) -> int:
    _require_nonnegative("--max", args.max)
    label, algebra, ranges = _resolve(args.source)
    text, jacobi_ok = report.build_report(label, algebra, ranges, args.max)
    sys.stdout.write(text)
    return 0 if jacobi_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carnot",
        description="Exact computations with stratified nilpotent Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(p):
        p.add_argument("source", help="algebra file path, catalog name, or catalog:NAME")

    p = sub.add_parser("check", help="verify the Jacobi identity")
    add_source(p)
    p.add_argument("--limit", type=int, default=20, help="max violations to print")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("series", help="lower central series and nilpotency step")
    add_source(p)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("g0", help="strata-preserving derivations")
    add_source(p)
    p.set_defaults(func=_cmd_g0)

    p = sub.add_parser("prolong", help="graded prolongation dimensions")
    add_source(p)
    p.add_argument("--max", type=int, default=6, help="degree cap (default 6)")
    p.set_defaults(func=_cmd_prolong)

    p = sub.add_parser("rigid", help="infinitesimal ultrarigidity verdict")
    add_source(p)
    p.add_argument("--expect", choices=["ultrarigid", "not-ultrarigid"])
    p.set_defaults(func=_cmd_rigid)

    p = sub.add_parser("stratifiable", help="decide stratifiability")
    add_source(p)
    p.add_argument("--expect", choices=["stratifiable", "not-stratifiable"])
    p.set_defaults(func=_cmd_stratifiable)

    p = sub.add_parser("gr", help="nilpotentisation w.r.t. a horizontal span")
    add_source(p)
    p.add_argument("--horizontal", required=True, metavar="RANGE",
                   help="1-based index range a..b spanning the horizontal space")
    p.set_defaults(func=_cmd_gr)

    p = sub.add_parser("catalog", help="list catalog entries or show one")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--emit", action="store_true", help="print the algebra file")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("report", help="full canonical report")
    add_source(p)
    p.add_argument("--max", type=int, default=report.DEFAULT_PROLONG_CAP,
                   help="prolongation degree cap in the report")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"carnot: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
