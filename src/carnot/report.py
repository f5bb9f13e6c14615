"""Canonical machine-readable reports.

One flat ``key: value`` document with a fixed key order; all rationals
render as ``p`` or ``p/q`` and every value is derived from canonical
(RREF) data, so two runs on the same input are byte-identical.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import grading, tanaka
from .liealg import LieAlgebra
from .linalg import Subspace, Vec

DEFAULT_PROLONG_CAP = 4


def fmt_bool(b: Optional[bool]) -> str:
    if b is None:
        return "none"
    return "true" if b else "false"


def fmt_ints(xs: Optional[Sequence[int]]) -> str:
    if xs is None:
        return "none"
    return " ".join(str(x) for x in xs)


def fmt_vec_labels(vec: Vec) -> str:
    """Linear-combination rendering: ``e1 + 2*e3 + -1/2*e4``."""
    terms = []
    for idx, c in enumerate(vec, start=1):
        if c == 0:
            continue
        terms.append(f"e{idx}" if c == 1 else f"{c}*e{idx}")
    return " + ".join(terms) if terms else "0"


def fmt_ranges(ranges: Sequence[tuple[int, int]]) -> str:
    return "; ".join(f"{lo}..{hi}" for lo, hi in ranges)


def fmt_flat(vec: Vec) -> str:
    return " ".join(str(x) for x in vec)


def _coordinate_ranges(s: grading.Stratification) -> Optional[list[tuple[int, int]]]:
    """Index ranges when every layer is a span of consecutive basis
    vectors (as for the catalog gradings); None otherwise."""
    start = 1
    out = []
    for v in s.layers:
        hi = start + v.dim - 1
        expected = Subspace.from_rows(
            [tuple(Fraction(1 if k == i else 0) for k in range(v.ambient_dim))
             for i in range(start - 1, hi)], v.ambient_dim)
        if v != expected:
            return None
        out.append((start, hi))
        start = hi + 1
    return out


def fmt_layers(s: grading.Stratification) -> str:
    ranges = _coordinate_ranges(s)
    if ranges is not None:
        return fmt_ranges(ranges)
    rendered = []
    for v in s.layers:
        rendered.append("span(" + "; ".join(fmt_vec_labels(r) for r in v.basis_rows()) + ")")
    return " | ".join(rendered)


def build_report(label: str, algebra: LieAlgebra,
                 layer_ranges: Optional[Sequence[tuple[int, int]]],
                 prolong_cap: int = DEFAULT_PROLONG_CAP) -> tuple[str, bool]:
    """The full report text and whether the table passed the Jacobi check."""
    lines = [f"source: {label}",
             f"dim: {algebra.dim}",
             f"brackets: {algebra.bracket_count()}"]
    defects = algebra.jacobi_defect()
    jacobi_ok = not defects
    lines.append("jacobi: ok" if jacobi_ok else f"jacobi: {len(defects)} violations")

    series = None
    strat: Optional[grading.Stratification] = None
    layers_value = "none"
    stratifiable_value = "none"
    if jacobi_ok:
        series = algebra.lower_central_series()
        declared_invalid = False
        if layer_ranges:
            try:
                strat = grading.verify_stratification(
                    algebra, grading.coordinate_layers(algebra.dim, layer_ranges))
                layers_value = fmt_ranges(layer_ranges)
            except grading.StratificationError as e:
                declared_invalid = True
                layers_value = f"invalid ({type(e).__name__})"
        if series.nilpotent:
            if strat is not None:
                stratifiable_value = "true"
            else:
                verdict = grading.is_stratifiable(algebra)
                stratifiable_value = fmt_bool(verdict.stratifiable)
                # a bad declared grading is reported, not silently replaced
                if not declared_invalid and verdict.derived_stratification is not None:
                    strat = verdict.derived_stratification
                    layers_value = fmt_layers(strat)

    lines.append(f"nilpotent: {fmt_bool(series.nilpotent if series else None)}")
    lines.append(f"step: {series.step if series and series.nilpotent else 'none'}")
    lines.append(f"series_dims: {fmt_ints(series.dims) if series else 'none'}")
    lines.append(f"stratifiable: {stratifiable_value}")
    lines.append(f"layers: {layers_value}")

    if strat is not None:
        lines.append(f"layer_dims: {fmt_ints(strat.layer_dims)}")
        lines.append(f"Q: {grading.homogeneous_dimension(strat)}")
        result = tanaka.prolong(algebra, strat, prolong_cap)
        verdict = tanaka.rigidity_verdict(result)
        g0 = tanaka.endomorphism_span(result.frame, result.bases[0])
        lines.append(f"g0_dim: {verdict.g0_dim}")
        for i, row in enumerate(g0.basis_rows()):
            lines.append(f"g0_basis[{i}]: {fmt_flat(row)}")
        lines.append(f"prolongation_cap: {prolong_cap}")
        lines.append(f"prolongation_dims: {fmt_ints(result.dims)}")
        lines.append("prolongation_finite: " +
                     ("true" if result.finite else "unknown"))
        lines.append(f"ultrarigid: {fmt_bool(verdict.infinitesimally_ultrarigid)}")
        lines.append(f"g1_trivial: {fmt_bool(verdict.g1_trivial)}")
    else:
        lines.extend(["layer_dims: none", "Q: none", "g0_dim: none",
                      "prolongation_cap: none", "prolongation_dims: none",
                      "prolongation_finite: none", "ultrarigid: none",
                      "g1_trivial: none"])
    return "\n".join(lines) + "\n", jacobi_ok
