"""Plain-text serialization of structure-constant tables.

The format is line based:

    # comment
    dim 16
    layers 1..10; 11..16
    bracket 1 2 = 11
    bracket 9 10 = -1*12
    bracket 1 4 = 1/2*14 + 3*16

``dim`` must come first.  ``layers`` (optional, at most once) lists
consecutive 1-based index ranges, one per layer, covering 1..N.  Each
``bracket a b = ...`` line requires a < b and may appear at most once per
pair; the right-hand side is a ``+``-separated sum of terms, each a bare
basis index (coefficient 1) or ``c*k`` with ``c`` an integer or a ``p/q``
fraction.  Parsing is whitespace-tolerant and locale-independent; errors
carry line numbers.  A dimension above :data:`MAX_DIM` is refused at its
``dim`` line, before anything of that size is built.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .liealg import LieAlgebra
from .linalg import Vec

_DIM_RE = re.compile(r"^dim\s+(\d+)$")
_BRACKET_RE = re.compile(r"^bracket\s+(\d+)\s+(\d+)\s*=\s*(.+)$")
_TERM_RE = re.compile(r"^(?:(-?\d+(?:\s*/\s*\d+)?)\s*\*\s*)?(\d+)$")
_RANGE_RE = re.compile(r"^(\d+)\.\.(\d+)$")

# The dimension ceiling of files and catalog families.  A bracket-free
# ``carnot check`` takes 0.11 s and 17 MB at dim 10,000 (2 vCPU, Python 3.11).
MAX_DIM = 10_000


class AlgebraFileError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ParsedAlgebra(NamedTuple):
    algebra: LieAlgebra
    layer_ranges: Optional[tuple[tuple[int, int], ...]]


def parse(text: str) -> ParsedAlgebra:
    dim: int | None = None
    layers: Optional[tuple[tuple[int, int], ...]] = None
    brackets: dict[tuple[int, int], list[Fraction]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _DIM_RE.match(line)
        if m:
            if dim is not None:
                raise AlgebraFileError(lineno, "duplicate dim line")
            dim = _int(m.group(1), lineno)
            if dim < 1:
                raise AlgebraFileError(lineno, "dimension must be positive")
            if dim > MAX_DIM:
                raise AlgebraFileError(lineno, f"dimension exceeds the ceiling {MAX_DIM}")
            continue
        if line.startswith("layers"):
            if dim is None:
                raise AlgebraFileError(lineno, "layers line before dim")
            if layers is not None:
                raise AlgebraFileError(lineno, "duplicate layers line")
            layers = _parse_layers(line[len("layers"):], dim, lineno)
            continue
        m = _BRACKET_RE.match(line)
        if m:
            if dim is None:
                raise AlgebraFileError(lineno, "bracket line before dim")
            a, b = _int(m.group(1), lineno), _int(m.group(2), lineno)
            if not (1 <= a <= dim and 1 <= b <= dim):
                raise AlgebraFileError(lineno, f"basis index out of range 1..{dim}")
            if a >= b:
                raise AlgebraFileError(lineno, f"bracket pair must satisfy a < b, got {a} {b}")
            key = (a - 1, b - 1)
            if key in brackets:
                raise AlgebraFileError(lineno, f"duplicate bracket pair {a} {b}")
            brackets[key] = _parse_terms(m.group(3), dim, lineno)
            continue
        raise AlgebraFileError(lineno, f"unrecognized line: {line!r}")
    if dim is None:
        raise AlgebraFileError(1, "missing dim line")
    algebra = LieAlgebra.from_brackets(dim, {k: tuple(v) for k, v in brackets.items()})
    return ParsedAlgebra(algebra, layers)


def _int(digits: str, lineno: int) -> int:
    """A numeral of the file; one past the interpreter's integer-string
    limit (4300 digits by default) is an AlgebraFileError."""
    try:
        return int(digits)
    except ValueError:
        raise AlgebraFileError(lineno, f"number of {len(digits)} digits is too long") from None


def _parse_layers(rest: str, dim: int, lineno: int) -> tuple[tuple[int, int], ...]:
    ranges = []
    for part in rest.split(";"):
        part = part.strip()
        m = _RANGE_RE.match(part)
        if not m:
            raise AlgebraFileError(lineno, f"bad layer range: {part!r}")
        lo, hi = _int(m.group(1), lineno), _int(m.group(2), lineno)
        if not (1 <= lo <= hi <= dim):
            raise AlgebraFileError(lineno, f"layer range {lo}..{hi} out of 1..{dim}")
        ranges.append((lo, hi))
    expected_start = 1
    for lo, hi in ranges:
        if lo != expected_start:
            raise AlgebraFileError(lineno, "layer ranges must be consecutive starting at 1")
        expected_start = hi + 1
    if expected_start != dim + 1:
        raise AlgebraFileError(lineno, f"layer ranges must cover 1..{dim}")
    return tuple(ranges)


def _parse_terms(rhs: str, dim: int, lineno: int) -> list[Fraction]:
    vec = [Fraction(0)] * dim
    for term in rhs.split("+"):
        term = term.strip()
        m = _TERM_RE.match(term)
        if not m:
            raise AlgebraFileError(lineno, f"bad term: {term!r}")
        coef_str, idx_str = m.group(1), m.group(2)
        idx = _int(idx_str, lineno)
        if not (1 <= idx <= dim):
            raise AlgebraFileError(lineno, f"basis index {idx} out of range 1..{dim}")
        if coef_str is None:
            coef = Fraction(1)
        else:
            try:
                coef = Fraction(coef_str.replace(" ", ""))
            except ZeroDivisionError:
                raise AlgebraFileError(lineno, f"bad fraction: {coef_str!r}") from None
            except ValueError:  # past the interpreter's integer-string limit
                raise AlgebraFileError(lineno, "coefficient is too long") from None
        vec[idx - 1] += coef
    return vec


def _format_coeff(c: Fraction) -> str:
    return str(c)  # Fraction renders as "p" or "p/q"


def format_vector(vec: Vec) -> str:
    """Canonical rendering of a coordinate vector as a bracket RHS."""
    terms = []
    for idx, c in enumerate(vec, start=1):
        if c == 0:
            continue
        if c == 1:
            terms.append(str(idx))
        else:
            terms.append(f"{_format_coeff(c)}*{idx}")
    return " + ".join(terms) if terms else "0*1"


def emit(algebra: LieAlgebra,
         layer_ranges: Optional[Sequence[tuple[int, int]]] = None) -> str:
    """Canonical text form; parse(emit(L)) reproduces L entry-wise."""
    lines = [f"dim {algebra.dim}"]
    if layer_ranges:
        lines.append("layers " + "; ".join(f"{lo}..{hi}" for lo, hi in layer_ranges))
    for (i, j), vec in algebra.table:
        lines.append(f"bracket {i + 1} {j + 1} = {format_vector(vec)}")
    return "\n".join(lines) + "\n"
