"""Exact linear algebra over the rationals.

Immutable ``Matrix`` values and row-reduced subspaces with
arbitrary-precision ``Fraction`` entries.  Everything here is exact:
floats are rejected at construction time and no tolerance appears
anywhere.  Subspaces are kept in canonical reduced row echelon form, so
equality of subspaces is plain entry-wise equality of their basis
matrices.  ``Matrix`` is the exchange format; hot paths read its nonzero
entries (``_sparse_cols``) rather than multiplying dense matrices.

One kernel does the elimination: ``RowReducer`` keeps sparse integer
pivot rows.  Every solution space (``solution_space``, ``nullspace``)
is read off its back-substituted rows already in canonical form, with
no dense pass and no second reduction.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction, str]
Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x: Scalar) -> Fraction:
    """Coerce an exact scalar to ``Fraction``.

    Accepts int, Fraction and strings like ``"-3/7"``.  Floats are
    rejected: this library never rounds.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def as_vec(values: Iterable[Scalar]) -> Vec:
    return tuple(rat(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (_ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c: Scalar, v: Vec) -> Vec:
    c = rat(c)
    return tuple(c * a for a in v)


def vec_dot(u: Vec, v: Vec) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), _ZERO)


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix of rationals (row-major)."""

    rows: int
    cols: int
    entries: tuple[Vec, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.rows:
            raise ValueError("row count mismatch")
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def from_rows(rows: Sequence[Iterable[Scalar]], cols: int | None = None) -> "Matrix":
        data = tuple(as_vec(r) for r in rows)
        if cols is None:
            if not data:
                raise ValueError("column count required for empty matrix")
            cols = len(data[0])
        return Matrix(len(data), cols, data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(unit_vec(n, i) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple(zero_vec(cols) for _ in range(rows)))

    def col(self, j: int) -> Vec:
        return tuple(row[j] for row in self.entries)

    def apply(self, v: Sequence[Scalar]) -> Vec:
        """Matrix times column vector."""
        vv = as_vec(v)
        if len(vv) != self.cols:
            raise ValueError(f"expected vector of length {self.cols}, got {len(vv)}")
        return tuple(vec_dot(row, vv) for row in self.entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("incompatible shapes for product")
        tcols = other.transpose().entries
        data = tuple(tuple(vec_dot(row, col) for col in tcols) for row in self.entries)
        return Matrix(self.rows, other.cols, data)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("incompatible shapes for sum")
        data = tuple(vec_add(a, b) for a, b in zip(self.entries, other.entries))
        return Matrix(self.rows, self.cols, data)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scaled(-1)

    def scaled(self, c: Scalar) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(vec_scale(c, row) for row in self.entries))

    def transpose(self) -> "Matrix":
        data = tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols))
        return Matrix(self.cols, self.rows, data)

    def flatten(self) -> Vec:
        """Row-major flattening; endomorphisms live in ambient dim rows*cols."""
        return tuple(x for row in self.entries for x in row)

    @staticmethod
    def from_flat(flat: Sequence[Scalar], rows: int, cols: int) -> "Matrix":
        vv = as_vec(flat)
        if len(vv) != rows * cols:
            raise ValueError("flat length mismatch")
        return Matrix(rows, cols, tuple(vv[i * cols:(i + 1) * cols] for i in range(rows)))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


class RowReducer:
    """Incremental exact Gaussian elimination over the rationals.

    Rows are stored as sparse integer dictionaries (column -> value) with
    their content (gcd) divided out, so all intermediate arithmetic stays
    in plain Python integers.  Feeding rows one at a time keeps large
    structured systems (a few thousand sparse equations) fast: a row is
    only combined with the pivot rows its support actually touches.

    With ``reverse`` a row's lead is its highest column, not its lowest;
    :meth:`sparse_nullspace` is then the canonical RREF solution basis.
    """

    def __init__(self, width: int, reverse: bool = False):
        if width < 0:
            raise ValueError("width must be nonnegative")
        self.width = width
        self._lead = max if reverse else min
        self._pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _to_sparse_int(self, row) -> dict[int, int]:
        """The nonzero entries of a row, coerced once and scaled to integers."""
        pairs = row.items() if isinstance(row, Mapping) else enumerate(row)
        width = self.width
        items = {}
        denom_lcm = 1
        for c, v in pairs:
            # test again after coercion: the string "0" is truthy
            if v and (x := rat(v)):
                if not 0 <= c < width:
                    raise ValueError(f"column {c} out of range 0..{width - 1}")
                items[c] = x
                denom_lcm = math.lcm(denom_lcm, x.denominator)
        return _reduce_content({c: v.numerator * (denom_lcm // v.denominator)
                                for c, v in items.items()})

    def add(self, row) -> bool:
        """Reduce ``row`` against the current pivots; returns True if it
        increased the rank (i.e. was independent)."""
        cur = self._to_sparse_int(row)
        while cur:
            lead = self._lead(cur)
            piv = self._pivots.get(lead)
            if piv is None:
                if cur[lead] < 0:
                    cur = {c: -v for c, v in cur.items()}
                self._pivots[lead] = cur
                return True
            cur = _eliminate(cur, piv, lead)
        return False

    def _reduced_rows(self) -> dict[int, dict[int, int]]:
        """The pivot rows back-substituted: row ``p`` keeps its positive
        lead at ``p`` and is zero in every other pivot column, so it is the
        reduced echelon row up to the integer factor ``row[p]``.

        Rows are reduced from the last pivot in lead order back to the
        first; each then meets only already reduced rows, so one
        elimination per pivot column in its support suffices (no new pivot
        columns are introduced)."""
        out: dict[int, dict[int, int]] = {}
        for p in sorted(self._pivots, reverse=self._lead is min):
            row = self._pivots[p]
            for c in [c for c in row if c != p and c in out]:
                row = _eliminate(row, out[c], c, keep_lead=p)
            out[p] = row
        return out

    def canonical_rows(self) -> list[Vec]:
        """The canonical RREF rows (pivot 1, zeros above and below pivots),
        sorted by pivot column."""
        rows = self._reduced_rows()
        return [_dense_vec(((col, Fraction(v, r[c])) for col, v in r.items()), self.width)
                for c, r in sorted(rows.items())]

    def sparse_nullspace(self) -> list[dict[int, Fraction]]:
        """A basis of the solution space of (rows)·x = 0, read off the
        sparse reduced rows: one ``{column: value}`` per free column ``f``
        in ascending order, 1 at ``f`` and ``-r_p[f] / r_p[p]`` at each
        pivot ``p``.  In a ``reverse`` reducer every such ``p`` exceeds
        ``f``, so the vectors are the canonical RREF basis."""
        solutions = {f: {f: _ONE} for f in range(self.width) if f not in self._pivots}
        for p, r in self._reduced_rows().items():
            lead = r[p]
            for c, v in r.items():
                if c != p:
                    solutions[c][p] = Fraction(-v, lead)
        return list(solutions.values())

    def nullspace_rows(self) -> list[Vec]:
        """:meth:`sparse_nullspace` as dense vectors."""
        return [_dense_vec(sol.items(), self.width) for sol in self.sparse_nullspace()]


def _reduce_content(row: dict[int, int]) -> dict[int, int]:
    g = 0
    for v in row.values():
        g = math.gcd(g, v)
        if g == 1:
            return row
    if g > 1:
        return {c: v // g for c, v in row.items()}
    return row


def _eliminate(row: dict[int, int], piv: dict[int, int], col: int,
               keep_lead: int | None = None) -> dict[int, int]:
    """Return a*row - b*piv (content-reduced) cancelling ``col``.

    With ``keep_lead`` set, the returned row is rescaled so that sign and
    content reduction never flips the sign of that leading entry.
    """
    a = piv[col]
    b = row[col]
    if a < 0:  # pivot rows are stored with positive lead, but be safe
        a, b = -a, -b
    out: dict[int, int] = {}
    for c, v in row.items():
        if c != col:
            out[c] = a * v
    for c, v in piv.items():
        if c == col:
            continue
        t = out.get(c, 0) - b * v
        if t:
            out[c] = t
        else:
            out.pop(c, None)
    out = _reduce_content(out)
    if keep_lead is not None and out.get(keep_lead, 0) < 0:
        out = {c: -v for c, v in out.items()}
    return out


def rref(m: Matrix) -> tuple[Matrix, int]:
    """The unique reduced row echelon form of ``m`` and its rank.

    Zero rows are kept, so the result has the same shape as the input.
    """
    red = RowReducer(m.cols)
    for row in m.entries:
        red.add(row)
    rows = red.canonical_rows()
    rank = len(rows)
    rows.extend(zero_vec(m.cols) for _ in range(m.rows - rank))
    return Matrix(m.rows, m.cols, tuple(rows)), rank


@dataclass(frozen=True)
class Subspace:
    """A linear subspace of Q^n, stored as a canonical RREF basis.

    Two subspaces are equal iff their basis matrices are entry-equal.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self) -> None:
        if self.basis.cols != self.ambient_dim:
            raise ValueError("basis width must equal ambient dimension")

    @staticmethod
    def from_rows(rows: Sequence[Iterable[Scalar]], ambient_dim: int) -> "Subspace":
        red = RowReducer(ambient_dim)
        for row in rows:
            red.add(row)
        canon = red.canonical_rows()
        return Subspace(ambient_dim, Matrix(len(canon), ambient_dim, tuple(canon)))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix(0, ambient_dim, ()))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_rows(self) -> tuple[Vec, ...]:
        return self.basis.entries

    def reduce_mod(self, v: Sequence[Scalar]) -> Vec:
        """Residual of ``v`` after subtracting its projection onto the
        pivot coordinates; zero iff ``v`` lies in the subspace."""
        vv = list(as_vec(v))
        if len(vv) != self.ambient_dim:
            raise ValueError("vector length mismatch")
        for row in self.basis.entries:
            lead = _leading_col(row)
            coeff = vv[lead]
            if coeff:
                for j in range(lead, self.ambient_dim):
                    vv[j] -= coeff * row[j]
        return tuple(vv)

    def contains(self, v: Sequence[Scalar]) -> bool:
        return is_zero_vec(self.reduce_mod(v))

    def __contains__(self, v) -> bool:
        return self.contains(v)

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return all(other.contains(row) for row in self.basis.entries)

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_rows(self.basis.entries + other.basis.entries, self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus intersection: row reduce [A|A / B|0]; rows whose left
        block vanished carry an intersection basis in the right block."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        red = RowReducer(2 * n)
        for row in self.basis.entries:
            red.add(row + row)
        for row in other.basis.entries:
            red.add(row + zero_vec(n))
        inter = [r[n:] for r in red.canonical_rows() if is_zero_vec(r[:n])]
        return Subspace.from_rows(inter, n)

    def quotient_functionals(self) -> list[Vec]:
        """Linear functionals cutting out this subspace: ``v`` belongs to
        the subspace iff every returned functional vanishes on ``v``.

        One functional per non-pivot coordinate (coordinates of the
        canonical projection onto the complement)."""
        n = self.ambient_dim
        pivots = [_leading_col(row) for row in self.basis.entries]
        pivot_set = set(pivots)
        out = []
        for q in range(n):
            if q in pivot_set:
                continue
            f = [_ZERO] * n
            f[q] = _ONE
            for row, p in zip(self.basis.entries, pivots):
                f[p] = -row[q]
            out.append(tuple(f))
        return out


def _dense_vec(pairs: Iterable[tuple[int, Fraction]], width: int) -> Vec:
    """The vector of length ``width`` with the given (index, value) entries."""
    out = [_ZERO] * width
    for i, x in pairs:
        out[i] = x
    return tuple(out)


def _sparse_cols(m: Matrix) -> list[dict[int, Fraction]]:
    """The nonzero entries of each column of ``m``, as ``{row: value}``."""
    cols: list[dict[int, Fraction]] = [{} for _ in range(m.cols)]
    for i, row in enumerate(m.entries):
        for j, x in enumerate(row):
            if x:
                cols[j][i] = x
    return cols


def _leading_col(row: Vec) -> int:
    for j, x in enumerate(row):
        if x:
            return j
    raise ValueError("zero row has no leading column")


def solution_space(rows: Iterable, width: int) -> Subspace:
    """The exact solution space {x : row·x = 0 for every row}, in canonical
    form, for dense rows of length ``width`` or sparse column mappings.

    The rows are eliminated by a ``reverse`` :class:`RowReducer`, whose
    leads are highest columns.  Every free column then lies before the
    pivots its solution touches, so the free-column solutions of
    :meth:`RowReducer.nullspace_rows` have a leading 1 in their own free
    column and zeros in every other one: they already are the canonical
    RREF basis (which is unique), and no second reduction is needed.
    """
    red = RowReducer(width, reverse=True)
    for row in rows:
        red.add(row)
    basis = tuple(red.nullspace_rows())
    return Subspace(width, Matrix(len(basis), width, basis))


def nullspace(m: Matrix) -> Subspace:
    """The exact solution space {x : m·x = 0}."""
    return solution_space(m.entries, m.cols)


class AffineSolution(NamedTuple):
    particular: Vec
    homogeneous: Subspace


def solve_affine(a: Matrix, b: Sequence[Scalar]) -> Optional[AffineSolution]:
    """Full solution set of a·x = b, or None when inconsistent.

    The particular solution is the canonical one with all free variables
    set to zero; the homogeneous part is nullspace(a).
    """
    bb = as_vec(b)
    if len(bb) != a.rows:
        raise ValueError("right-hand side length mismatch")
    rows = [row + (bi,) for row, bi in zip(a.entries, bb)]
    return solve_affine_rows(rows, a.cols)


def solve_affine_rows(rows: Iterable, width: int) -> Optional[AffineSolution]:
    """Like :func:`solve_affine` but takes augmented rows ``[coeffs | rhs]``
    (dense sequences of length width+1 or sparse mappings)."""
    red = RowReducer(width + 1)
    for row in rows:
        red.add(row)
    if width in red._pivots:
        return None  # a pivot in the RHS column: inconsistent
    reduced = red._reduced_rows()
    particular = [_ZERO] * width
    homo = RowReducer(width)
    for p, r in reduced.items():
        particular[p] = Fraction(r.get(width, 0), r[p])
        homo._pivots[p] = {col: v for col, v in r.items() if col < width}
    homogeneous = Subspace.from_rows(homo.nullspace_rows(), width)
    return AffineSolution(tuple(particular), homogeneous)


def quotient_basis(sub: Subspace, whole: Subspace) -> list[Vec]:
    """Vectors of ``whole`` extending a basis of ``sub`` to one of ``whole``.

    Deterministic lowest-pivot preference: candidates are the canonical
    basis rows of ``whole`` in order.  Raises when sub is not contained
    in whole.
    """
    if not sub.is_subspace_of(whole):
        raise ValueError("sub is not contained in whole")
    red = RowReducer(sub.ambient_dim)
    for row in sub.basis.entries:
        red.add(row)
    out = []
    for row in whole.basis.entries:
        if red.add(row):
            out.append(row)
    return out


def invert(m: Matrix) -> Optional[Matrix]:
    """Exact inverse, or None when singular."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    red = RowReducer(2 * n)
    for i, row in enumerate(m.entries):
        red.add(row + unit_vec(n, i))
    canon = red.canonical_rows()
    if len(canon) != n or any(_leading_col(r) != i for i, r in enumerate(canon)):
        return None
    return Matrix.from_rows([r[n:] for r in canon], n)

