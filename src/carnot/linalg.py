"""Exact linear algebra over the rationals.

Row-reduced subspaces and immutable ``Matrix`` values with
arbitrary-precision ``Fraction`` entries.  Everything here is exact:
floats are rejected at construction time and no tolerance appears
anywhere.

``Record`` is the immutable base of every value class of the package
(``Matrix``, ``Subspace``, ``LieAlgebra``, ``HomElement``, the verdicts
and reports): values compared by their fields, with no class decorator
and nothing generated at import time.

One row format: a sparse row is the tuple of its nonzero
``(column, Fraction)`` pairs in ascending columns (``SparseRow``, the
format of ``tanaka.HomElement.entries`` and of each bracket of
``liealg.LieAlgebra.table``).  A ``Subspace`` keeps its
canonical reduced row echelon basis as sparse rows, so equality of
subspaces is equality of those tuples; ``basis_rows()`` is the dense
view for rendering.  ``Matrix`` is the dense format of maps and
witnesses at the public boundary.  Basis vectors travel as sparse rows:
one elimination of the rows ``[p_a | r_a]`` (:func:`_solve_basis`) gives
the columns of ``P^-1`` for a basis change (``r_a = e_a``) and the
sparse columns of a map given on a basis in the original coordinates
(:func:`_conjugate_columns`, which :func:`conjugate` writes out densely),
with no dense inverse.

One coefficient rule: private sparse indexes (``LieAlgebra._ad``, basis
change columns, the tower's rows and bracket table) hold integral values
as ``int`` and the others as ``Fraction`` (:func:`_lean`), so integral
tables cost ``int`` arithmetic, which mixes exactly with ``Fraction``.
Public values (``Vec``, ``Matrix``, ``Subspace`` rows, ``HomElement``
entries, coordinates) are always ``Fraction``.

One kernel does the elimination: ``RowReducer`` keeps sparse integer
pivot rows, primitive with positive lead.  A pivot whose lead is 1 is
subtracted from the working row in place; any other goes through
``_eliminate``, which builds a new content-reduced row.  The content is
divided out again only when a row is stored.  Every canonical basis
(``Subspace.from_rows``, ``solution_space``) is read off its
back-substituted rows, with no dense pass and no second reduction, and
membership (``Subspace.contains``, ``quotient_basis``) is read off its
rank: there is no second reducer.
``solution_space``, the one entry for ``Der`` and every g_k, feeds its
rows shortest first (Markowitz's sparsest-row rule): rows that reduce to
zero and fill-in then cost less.  The canonical basis is unique, so the
order cannot change an answer.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction, str]
Vec = tuple[Fraction, ...]
SparseRow = tuple[tuple[int, Fraction], ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_setattr = object.__setattr__


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


def _lean(x):
    """``x`` as an ``int`` when it is integral: the private index format."""
    return x.numerator if x.denominator == 1 else x


def as_vec(values: Iterable[Scalar]) -> Vec:
    return tuple(rat(v) for v in values)


def unit_vec(n: int, i: int) -> Vec:
    return tuple(_ONE if j == i else _ZERO for j in range(n))


class Record:
    """An immutable value with named fields.

    A subclass's fields are its own annotated names, in order, and a class
    attribute of the same name is that field's default.  Instances are
    built positionally or by keyword; equality holds only between
    instances of the same class with equal field tuples, the hash is the
    hash of the field tuple, and the repr is ``Name(field=value, ...)``.
    Fields can be neither assigned nor deleted.  The values live in the
    instance ``__dict__``, where a ``functools.cached_property`` may also
    keep derived data, outside the fields.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # only the names are read: every module defining a record uses
        # ``from __future__ import annotations``, so no annotation is
        # evaluated, on any Python version
        fields = tuple(cls.__annotations__)
        cls._fields = fields
        cls._defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        if len(fields) == 1:
            get = attrgetter(fields[0])
            cls._values = staticmethod(lambda obj: (get(obj),))
        else:
            cls._values = staticmethod(attrgetter(*fields))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # through object.__setattr__, like a plain class's __init__: that
        # keeps CPython's shared-key attribute layout, which touching
        # ``self.__dict__`` would give up (slower attribute reads)
        for field, value in zip(fields, args):
            _setattr(self, field, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> tuple:
        """The full field tuple of a call with keywords, defaults or a
        wrong argument count."""
        name = cls.__qualname__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} arguments but {len(args)} were given")
        given = dict(zip(cls._fields, args))
        for key, value in kwargs.items():
            if key not in cls._fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            given[key] = value
        values = {**cls._defaults, **given}
        for field in cls._fields:
            if field not in values:
                raise TypeError(f"{name}() missing required argument: {field!r}")
        return tuple(values[field] for field in cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Matrix(Record):
    """Immutable dense matrix of rationals (row-major)."""

    rows: int
    cols: int
    entries: tuple[Vec, ...]

    def __init__(self, rows: int, cols: int, entries: tuple[Vec, ...]) -> None:
        if len(entries) != rows:
            raise ValueError("row count mismatch")
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
        super().__init__(rows, cols, entries)

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

    def flatten(self) -> Vec:
        """Row-major flattening; endomorphisms live in ambient dim rows*cols."""
        return tuple(x for row in self.entries for x in row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.rows}x{self.cols}: {body})"


class RowReducer:
    """Incremental exact Gaussian elimination over the rationals.

    Rows are stored as sparse integer dictionaries (column -> value) with
    their content (gcd) divided out and a positive lead, so all
    intermediate arithmetic stays in plain Python integers.  Feeding rows
    one at a time keeps large structured systems (a few thousand sparse
    equations) fast: a row is only combined with the pivot rows its
    support actually touches, in place when the pivot's lead is 1.

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
        width = self.width
        dense = not (type(row) is dict or isinstance(row, Mapping))
        if dense and len(row) != width:
            raise ValueError(f"column {width} out of range 0..{width - 1}" if len(row) > width
                             else f"dense row of length {len(row)} in width {width}")
        items = {}
        denom_lcm = 1
        for c, v in (enumerate(row) if dense else row.items()):
            if v and type(v) is not int:
                v = v if isinstance(v, Fraction) else rat(v)
                if v.denominator == 1:
                    v = v.numerator
                elif denom_lcm % v.denominator:
                    denom_lcm = math.lcm(denom_lcm, v.denominator)
            if v:  # tested after coercion: the string "0" is truthy
                if not 0 <= c < width:
                    raise ValueError(f"column {c} out of range 0..{width - 1}")
                items[c] = v
        if denom_lcm == 1:
            return _reduce_content(items)
        return _reduce_content({c: v.numerator * (denom_lcm // v.denominator)
                                for c, v in items.items()})

    def add(self, row) -> bool:
        """Reduce ``row`` (a dense sequence or a ``{column: value}``
        mapping) against the current pivots; returns True if it increased
        the rank (i.e. was independent).

        Against a pivot whose lead is 1, ``b * pivot`` is subtracted from
        the working row in place, with no new dict and no gcd pass; other
        pivots go through :func:`_eliminate`.  Every step scales the row
        by a positive factor only, so the content is divided out once, when
        the row is stored, and the stored pivot is the same primitive row
        with positive lead either way."""
        cur = self._to_sparse_int(row)  # a new dict: the caller's row is never touched
        pivots = self._pivots
        lead_of = self._lead
        while cur:
            lead = lead_of(cur)
            piv = pivots.get(lead)
            if piv is None:
                if cur[lead] < 0:
                    cur = {c: -v for c, v in cur.items()}
                pivots[lead] = _reduce_content(cur)
                return True
            if piv[lead] == 1:
                b = cur[lead]
                for c, v in piv.items():
                    t = cur.get(c, 0) - b * v
                    if t:
                        cur[c] = t
                    else:
                        del cur[c]
            else:
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

    def echelon(self) -> dict[int, SparseRow]:
        """The canonical reduced rows by ascending pivot column, as sparse
        rows: 1 at their pivot and 0 at every other pivot column.  With
        ``reverse`` each pivot is its row's highest column."""
        return {p: tuple(sorted((c, Fraction(v, r[p])) for c, v in r.items()))
                for p, r in sorted(self._reduced_rows().items())}

    def sparse_nullspace(self) -> list[dict[int, Fraction]]:
        """A basis of the solution space of (rows)·x = 0, read off the
        sparse reduced rows: one ``{column: value}`` per free column ``f``
        in ascending order, 1 at ``f`` and then ``-r_p[f] / r_p[p]`` at each
        pivot ``p`` by ascending ``p``.  In a ``reverse`` reducer every such
        ``p`` exceeds ``f``: the canonical RREF basis, in ascending columns."""
        solutions = {f: {f: _ONE} for f in range(self.width) if f not in self._pivots}
        for p, r in self._reduced_rows().items():
            lead = r[p]
            for c, v in r.items():
                if c != p:
                    solutions[c][p] = Fraction(-v) if lead == 1 else Fraction(-v, lead)
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


class Subspace(Record):
    """A linear subspace of Q^n, stored as its canonical RREF basis: one
    sparse row per pivot column, in ascending pivot order, each with 1 at
    its first (pivot) column and 0 at every other pivot.

    Two subspaces are equal iff their rows are equal.
    """

    ambient_dim: int
    rows: tuple[SparseRow, ...]

    @staticmethod
    def from_rows(rows: Iterable, ambient_dim: int) -> "Subspace":
        """The span of dense rows of length ``ambient_dim`` or sparse
        ``{column: value}`` mappings."""
        red = RowReducer(ambient_dim)
        for row in rows:
            red.add(row)
        return Subspace(ambient_dim, tuple(red.echelon().values()))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, tuple(((i, _ONE),) for i in range(ambient_dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def basis_rows(self) -> tuple[Vec, ...]:
        """The canonical basis as dense vectors."""
        return tuple(_dense_vec(row, self.ambient_dim) for row in self.rows)

    def contains(self, v) -> bool:
        """Whether ``v``, a dense vector of length ``ambient_dim`` or a
        ``{column: value}`` mapping, lies in the subspace: it adds no rank
        to the basis rows (one :class:`RowReducer`)."""
        red = RowReducer(self.ambient_dim)
        for row in self.rows:
            red.add(dict(row))
        return not red.add(v)

    def __add__(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_rows(map(dict, self.rows + other.rows), self.ambient_dim)


def _dense_vec(pairs: Iterable[tuple[int, Fraction]], width: int) -> Vec:
    """The ``Fraction`` vector of length ``width`` with the given entries."""
    out = [_ZERO] * width
    for i, x in pairs:
        out[i] = Fraction(x)
    return tuple(out)


def solution_space(rows: Iterable, width: int) -> Subspace:
    """The exact solution space {x : row·x = 0 for every row}, in canonical
    form, for dense rows of length ``width`` or sparse column mappings.

    The rows are eliminated by a ``reverse`` :class:`RowReducer`, whose
    leads are highest columns.  Every free column then lies before the
    pivots its solution touches, so the free-column solutions of
    :meth:`RowReducer.sparse_nullspace` have a leading 1 in their own free
    column and zeros in every other one: they already are the canonical
    RREF basis (which is unique), with ascending columns, so neither a
    second reduction nor a sort is needed.

    Rows are fed shortest first (a stable sort: equal lengths keep their
    order).  The canonical basis depends only on their span, so the order
    changes the work, never the answer.
    """
    red = RowReducer(width, reverse=True)
    for row in sorted(rows, key=len):
        red.add(row)
    return Subspace(width, tuple(tuple(sol.items()) for sol in red.sparse_nullspace()))


class AffineSolution(NamedTuple):
    particular: Vec
    homogeneous: Subspace


def solve_affine(a: Matrix, b: Sequence[Scalar]) -> Optional[AffineSolution]:
    """Full solution set of a·x = b, or None when inconsistent.

    The particular solution is the canonical one with all free variables
    set to zero; the homogeneous part is the solution space of a.
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
    # the solutions x of [a | b]·x = 0; the last free column is ``width``
    # unless a pivot lies there, which makes the system inconsistent
    solutions = red.sparse_nullspace()
    if not solutions or width not in solutions[-1]:
        return None
    particular = _dense_vec(((c, -x) for c, x in solutions[-1].items() if c < width), width)
    return AffineSolution(particular, Subspace.from_rows(solutions[:-1], width))


def quotient_basis(sub: Subspace, whole: Subspace) -> list[SparseRow]:
    """Rows of ``whole`` extending a basis of ``sub`` to one of ``whole``.

    Deterministic lowest-pivot preference: candidates are the canonical
    basis rows of ``whole`` in order.  Raises when the ambient dimensions
    differ or sub is not contained in whole, that is when the rows of
    both span more than ``whole``.
    """
    if sub.ambient_dim != whole.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    red = RowReducer(sub.ambient_dim)
    for row in sub.rows:
        red.add(dict(row))
    out = [row for row in whole.rows if red.add(dict(row))]
    if red.rank != whole.dim:
        raise ValueError("sub is not contained in whole")
    return out


def _solve_basis(basis: Sequence[Iterable[tuple[int, Fraction]]],
                 rhs: Sequence[Mapping[int, Fraction]]) -> Optional[list[dict[int, Fraction]]]:
    """Row reduce the rows [p_a | r_a] of n vectors p_a of Q^n, given as
    sparse rows, and their right-hand sides r_a, given as ``{column:
    value}``; return the right-hand rows of the result [I | X] as
    ``{column: _lean(value)}``, or None when the p_a are not a basis.

    With the p_a as the columns of P and the r_a as the rows of R,
    X = (P^-1)^T R.  So with r_a = e_a, row i of X is column i of P^-1."""
    n = len(basis)
    red = RowReducer(n + max((c + 1 for r in rhs for c in r), default=0))
    for p, r in zip(basis, rhs):
        red.add({**dict(p), **{n + c: x for c, x in r.items()}})
    reduced = red._reduced_rows()  # row a is zero at every other pivot
    if any(a not in reduced for a in range(n)):
        return None
    return [{c - n: _lean(Fraction(v, reduced[a][a])) for c, v in reduced[a].items() if c >= n}
            for a in range(n)]


def _conjugate_columns(basis: Sequence[SparseRow],
                       images: Sequence[Mapping[int, Fraction]]) -> list[dict[int, Fraction]]:
    """The columns of the map M of :func:`conjugate`, as the sparse rows
    of M^T that :func:`_solve_basis` leaves: row a holds the nonzero
    entries ``{s n + r: _lean(M_s[r][a])}`` of column a of the stacked M."""
    n = len(basis)
    rhs = []
    for image in images:
        row: dict[int, Fraction] = {}
        for r, c in image.items():
            off = r - r % n
            for col, x in basis[r % n]:
                row[off + col] = row.get(off + col, 0) + c * x
        rhs.append(row)
    m_t = _solve_basis(basis, rhs)
    if m_t is None:
        raise ValueError("the basis vectors are not a basis")
    return m_t


def conjugate(basis: Sequence[SparseRow], images: Sequence[Mapping[int, Fraction]]) -> Matrix:
    """The map M with M p_a = sum_r images[a][r] p_r for the basis vectors
    p_a given as sparse rows, in the coordinates the p_a are written in.
    A key r = s n + r' (r' < n) stands for p_r' in the s-th copy of the
    space, so several maps M_s, stacked as the rows of M, share one elimination.

    With the p_a as the columns of P and A[r][a] = images[a][r], M = P A
    P^-1 solves P^T M^T = A^T P^T: :func:`_solve_basis` of the rows
    [p_a | M p_a] leaves [I | M^T], with no inverse and no matrix product."""
    n = len(basis)
    e = max((r // n + 1 for image in images for r in image), default=1)
    return Matrix(e * n, n, tuple(zip(*(_dense_vec(row.items(), e * n)
                                        for row in _conjugate_columns(basis, images)))))


def invert(m: Matrix) -> Optional[Matrix]:
    """Exact inverse, or None when singular: [m | I] reduces to [I | m^-1]."""
    if m.rows != m.cols:
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    red = RowReducer(2 * n)
    for i, row in enumerate(m.entries):
        red.add({**{c: x for c, x in enumerate(row) if x}, n + i: _ONE})
    echelon = red.echelon()
    if list(echelon) != list(range(n)):
        return None
    return Matrix(n, n, tuple(_dense_vec(((c - n, x) for c, x in row if c >= n), n)
                              for row in echelon.values()))
