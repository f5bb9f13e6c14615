"""Canonical machine-readable reports.

One flat ``key: value`` document with a fixed key order; all rationals
render as ``p`` or ``p/q`` and every value is derived from canonical
(RREF) data, so two runs on the same input are byte-identical.

:func:`analyze` is the one place a stratification is chosen and the
tower computed; :func:`report_lines` renders each key once, and the
``g0``, ``prolong`` and ``rigid`` commands ask it for their keys only.
"""

from __future__ import annotations

from typing import Container, Optional, Sequence

from . import grading, tanaka
from .liealg import JacobiDefect, LieAlgebra, NotLieAlgebraError, SeriesReport
from .linalg import Record, SparseRow, Vec

DEFAULT_PROLONG_CAP = 4


def fmt_bool(b: Optional[bool]) -> str:
    if b is None:
        return "none"
    return "true" if b else "false"


def fmt_ints(xs: Optional[Sequence[int]]) -> str:
    if xs is None:
        return "none"
    return " ".join(str(x) for x in xs)


def fmt_vec_labels(row: SparseRow) -> str:
    """Linear-combination rendering of a sparse row: ``e1 + 2*e3 + -1/2*e4``."""
    return " + ".join(f"e{c + 1}" if x == 1 else f"{x}*e{c + 1}" for c, x in row) or "0"


def fmt_ranges(ranges: Sequence[tuple[int, int]]) -> str:
    return "; ".join(f"{lo}..{hi}" for lo, hi in ranges)


def fmt_flat(vec: Vec) -> str:
    return " ".join(str(x) for x in vec)


def _coordinate_ranges(s: grading.Stratification) -> Optional[list[tuple[int, int]]]:
    """Index ranges when every layer is a span of consecutive basis
    vectors (as for the catalog gradings); None otherwise."""
    ranges = grading.consecutive_ranges(s.layer_dims)
    if any(v.rows != tuple(((i, 1),) for i in range(lo - 1, hi))
           for v, (lo, hi) in zip(s.layers, ranges)):
        return None
    return ranges


def fmt_layers(s: grading.Stratification) -> str:
    ranges = _coordinate_ranges(s)
    if ranges is not None:
        return fmt_ranges(ranges)
    rendered = []
    for v in s.layers:
        rendered.append("span(" + "; ".join(fmt_vec_labels(r) for r in v.rows) + ")")
    return " | ".join(rendered)


class Analysis(Record):
    """Everything a report says about one algebra.

    ``stratifiable`` and ``layers`` are the rendered report values, but
    ``stratifiable`` is None for invalid declared layers: the report decides it.
    ``tower`` is the prolongation up to ``cap`` over ``stratification``;
    both are None exactly when ``problem`` says why there is no
    stratification."""

    defects: tuple[JacobiDefect, ...]
    series: Optional[SeriesReport]
    stratifiable: Optional[str]
    layers: str
    stratification: Optional[grading.Stratification]
    tower: Optional[tanaka.ProlongationResult]
    cap: int
    problem: Optional[str]


def analyze(algebra: LieAlgebra, layer_ranges: Optional[Sequence[tuple[int, int]]],
            cap: int) -> Analysis:
    """Check Jacobi, then choose the stratification and prolong over it.

    Declared layers are used when they are a stratification; otherwise
    the one derived by :func:`grading.is_stratifiable` is used, unless
    layers were declared: an invalid declaration is reported, never
    replaced, and its stratifiability verdict is left to the report."""
    defects = tuple(algebra.jacobi_defect())
    if defects:
        try:
            algebra.validated()
        except NotLieAlgebraError as e:
            return Analysis(defects, None, "none", "none", None, None, cap, str(e))
    series = algebra.lower_central_series()
    strat: Optional[grading.Stratification] = None
    problem: Optional[str] = None
    stratifiable = layers = "none"
    if layer_ranges:
        try:
            strat = grading.verify_stratification(
                algebra, grading.coordinate_layers(algebra.dim, layer_ranges))
        except grading.StratificationError as e:
            return Analysis(defects, series, None, f"invalid ({type(e).__name__})", None, None,
                            cap, f"declared layers are not a stratification: {e}")
        stratifiable, layers = "true", fmt_ranges(layer_ranges)
    else:
        try:
            verdict = grading.is_stratifiable(algebra)
        except grading.NotNilpotentError as e:
            problem = str(e)
        else:
            stratifiable = fmt_bool(verdict.stratifiable)
            strat = verdict.derived_stratification
            if strat is None:
                problem = "the algebra admits no stratification"
            else:
                layers = fmt_layers(strat)
    tower = None if strat is None else tanaka.prolong(algebra, strat, cap)
    return Analysis(defects, series, stratifiable, layers, strat, tower, cap, problem)


def report_lines(label: str, algebra: LieAlgebra, a: Analysis,
                 keys: Optional[Container[str]] = None) -> list[str]:
    """The report of :func:`analyze`'s result, one ``key: value`` line
    each, only for the keys in ``keys`` when given (``g0_basis`` names
    every ``g0_basis[i]``).  The ``g0`` span is built only when its lines
    are asked for."""
    series = a.series
    stratifiable = a.stratifiable
    if stratifiable is None:
        try:
            stratifiable = fmt_bool(grading.is_stratifiable(algebra).stratifiable)
        except grading.NotNilpotentError:
            stratifiable = "none"
    strat, tower = a.stratification, a.tower
    verdict = tanaka.rigidity_verdict(tower) if tower else None
    g0 = ()
    if tower and (keys is None or "g0_basis" in keys):
        g0 = tanaka.endomorphism_span(tower.frame, tower.bases[0]).basis_rows()
    finite = ("true" if tower.finite else "unknown") if tower else "none"
    pairs = [("source", label),
             ("dim", algebra.dim),
             ("brackets", algebra.bracket_count()),
             ("jacobi", f"{len(a.defects)} violations" if a.defects else "ok"),
             ("nilpotent", fmt_bool(series.nilpotent if series else None)),
             ("step", series.step if series and series.nilpotent else "none"),
             ("series_dims", fmt_ints(series.dims) if series else "none"),
             ("stratifiable", stratifiable),
             ("layers", a.layers),
             ("layer_dims", fmt_ints(strat.layer_dims if strat else None)),
             ("Q", grading.homogeneous_dimension(strat) if strat else "none"),
             ("g0_dim", verdict.g0_dim if verdict else "none"),
             *((f"g0_basis[{i}]", fmt_flat(row)) for i, row in enumerate(g0)),
             ("prolongation_cap", a.cap if tower else "none"),
             ("prolongation_dims", fmt_ints(tower.dims if tower else None)),
             ("prolongation_finite", finite),
             ("ultrarigid", fmt_bool(verdict.infinitesimally_ultrarigid if verdict else None)),
             ("g1_trivial", fmt_bool(verdict.g1_trivial if verdict else None))]
    return [f"{key}: {value}" for key, value in pairs
            if keys is None or key.partition("[")[0] in keys]


def build_report(label: str, algebra: LieAlgebra,
                 layer_ranges: Optional[Sequence[tuple[int, int]]],
                 prolong_cap: int = DEFAULT_PROLONG_CAP) -> tuple[str, bool]:
    """The full report text and whether the table passed the Jacobi check."""
    a = analyze(algebra, layer_ranges, prolong_cap)
    return "\n".join(report_lines(label, algebra, a)) + "\n", not a.defects
