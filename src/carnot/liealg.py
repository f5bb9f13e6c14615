"""Lie algebras as structure-constant tables over the rationals.

A ``LieAlgebra`` stores a sparse antisymmetric bracket table: only pairs
``(i, j)`` with ``i < j`` are kept, so antisymmetry holds by construction
and the Jacobi identity is the only thing left to check.  Every reader of
the table (brackets, Jacobi, Leibniz rows, bracket spans, series) goes
through one sparse index with both orientations, built once per object, so
work scales with the nonzero brackets rather than with ``dim**3``.  The
index holds integral values as ``int`` (``linalg._lean``).  Basis
indices are 0-based internally; the default labels are ``e1..en``.

The Leibniz identity is assembled once, in :func:`_leibniz_system`, for
the n^2 entries of an endomorphism (:meth:`LieAlgebra.leibniz_rows`) or
the blocks of one degree of the tower (``tanaka._solve_component``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .linalg import (
    Matrix,
    Record,
    Scalar,
    Subspace,
    Vec,
    _dense_vec,
    _lean,
    _sparse_cols,
    as_vec,
    invert,
    is_zero_vec,
    solution_space,
)


class NotLieAlgebraError(ValueError):
    """Raised when an operation requires the Jacobi identity but the
    table violates it."""


class SingularMatrixError(ValueError):
    pass


JacobiDefect = tuple[int, int, int, Vec]


def _leibniz_system(ad, n: int, cols: Callable[[int], Sequence[int]],
                    terms: Callable[[int, int], Iterable[tuple[int, int, Fraction]]]):
    """Nonzero sparse rows of u([e_a, e_b]) - [u(e_a), e_b] - [e_a, u(e_b)]
    = 0, one per pair a < b and target coordinate q, for the table ``ad``
    (a ``LieAlgebra._ad``) of dimension n.

    The caller gives the layout of the unknowns of u: ``cols(c)`` lists
    the columns of u(e_c), one per target coordinate, and ``terms(a, b)``
    yields ``(q, col, x)``, each (q, col) once: unknown ``col`` times ``x``
    is a term of coordinate q of [e_b, u(e_a)].  The row is u([e_a, e_b])
    followed by ``terms(a, b)`` minus ``terms(b, a)`` (which never share
    a column) in ascending columns."""
    for a in range(n):
        ad_a = ad[a]
        for b in range(a + 1, n):
            cab = [(cols(l), c) for l, c in sorted(ad_a.get(b, {}).items())]
            parts: dict[int, dict[int, Fraction]] = {}
            for q, col, x in terms(a, b):
                parts.setdefault(q, {})[col] = x
            for q, col, x in terms(b, a):
                parts.setdefault(q, {})[col] = -x
            # every coordinate of [e_a, e_b] is in one degree, so all of
            # its unknown columns have the same number of targets
            for q in (range(len(cab[0][0])) if cab else sorted(parts)):
                row: dict[int, Fraction] = {cl[q]: c for cl, c in cab}
                part = parts.get(q, {})
                for col in sorted(part):
                    row[col] = row[col] + part[col] if col in row else part[col]
                row = {col: v for col, v in row.items() if v}
                if row:
                    yield row


class LieAlgebra(Record):
    """Structure-constant table of a (candidate) Lie algebra.

    ``table`` maps ordered basis pairs (i, j), i < j, to the coordinate
    vector of [e_i, e_j]; missing pairs bracket to zero.  Construction is
    "raw": the Jacobi identity is not enforced, so the checker itself can
    be exercised on broken tables.  Use :meth:`validated` when the table
    is supposed to be a Lie algebra.
    """

    dim: int
    labels: tuple[str, ...]
    table: tuple[tuple[tuple[int, int], Vec], ...]

    @staticmethod
    def from_brackets(dim: int,
                      brackets: Mapping[tuple[int, int], Iterable[Scalar]],
                      labels: Sequence[str] | None = None) -> "LieAlgebra":
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        if labels is None:
            labels = tuple(f"e{i + 1}" for i in range(dim))
        else:
            labels = tuple(labels)
            if len(labels) != dim:
                raise ValueError("label count must equal dimension")
        entries = {}
        for (i, j), value in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
            vec = as_vec(value)
            if len(vec) != dim:
                raise ValueError(f"bracket value for ({i}, {j}) has wrong length")
            if not is_zero_vec(vec):
                entries[(i, j)] = vec
        table = tuple(sorted(entries.items()))
        return LieAlgebra(dim, labels, table)

    def validated(self) -> "LieAlgebra":
        """Return self after checking Jacobi; raises NotLieAlgebraError
        with the violating triples otherwise."""
        defects = self.jacobi_defect()
        if defects:
            triples = ", ".join(f"({i + 1},{j + 1},{k + 1})" for i, j, k, _ in defects[:5])
            more = "" if len(defects) <= 5 else f" and {len(defects) - 5} more"
            raise NotLieAlgebraError(f"Jacobi identity fails at triples {triples}{more}")
        return self

    @cached_property
    def _ad(self) -> tuple[dict[int, dict[int, Fraction]], ...]:
        """Sparse index of the table in both orientations:
        ``_ad[i][j] = {k: c}`` with [e_i, e_j] = sum c e_k, nonzero
        brackets only, integral ``c`` as ``int``."""
        ad: tuple[dict[int, dict[int, Fraction]], ...] = tuple({} for _ in range(self.dim))
        for (i, j), vec in self.table:
            coords = {k: _lean(c) for k, c in enumerate(vec) if c}
            if coords:
                ad[i][j] = coords
                ad[j][i] = {k: -c for k, c in coords.items()}
        return ad

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[e_i, e_j] for basis indices, any order."""
        return _dense_vec(self._ad[i].get(j, {}).items(), self.dim)

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vec:
        """Bilinear antisymmetric extension of the table."""
        xx, yy = as_vec(x), as_vec(y)
        if len(xx) != self.dim or len(yy) != self.dim:
            raise ValueError(f"vectors must have length {self.dim}")
        acc: dict[int, Fraction] = {}
        for i, a in enumerate(xx):
            if a:
                for j, coords in self._ad[i].items():
                    b = yy[j]
                    if b:
                        c = a * b
                        for k, v in coords.items():
                            acc[k] = acc.get(k, 0) + c * v
        return _dense_vec(acc.items(), self.dim)

    def _triple_term(self, x: int, y: int, z: int, acc: dict[int, Fraction]) -> None:
        """acc += [[e_x, e_y], e_z]."""
        ad = self._ad
        for l, c in ad[x].get(y, {}).items():
            for k, v in ad[l].get(z, {}).items():
                acc[k] = acc.get(k, 0) + c * v

    @cached_property
    def _jacobi_defects(self) -> tuple[JacobiDefect, ...]:
        # [[e_a, e_b], e_c] is nonzero only if (a, b) is a stored pair and
        # c is a neighbour of an index in the support of [e_a, e_b]; every
        # other triple has three zero terms.
        ad = self._ad
        candidates = set()
        for a, row in enumerate(ad):
            for b, coords in row.items():
                if a < b:
                    for l in coords:
                        for c in ad[l]:
                            if c != a and c != b:
                                candidates.add(tuple(sorted((a, b, c))))
        out = []
        for i, j, k in sorted(candidates):
            acc: dict[int, Fraction] = {}
            self._triple_term(i, j, k, acc)
            self._triple_term(j, k, i, acc)
            self._triple_term(k, i, j, acc)
            if any(acc.values()):
                out.append((i, j, k, _dense_vec(acc.items(), self.dim)))
        return tuple(out)

    def jacobi_defect(self) -> list[JacobiDefect]:
        """All basis triples i < j < k where the Jacobi identity fails,
        with their exact residual vectors, in sorted order.  Empty iff
        this is a Lie algebra.  Computed once per object."""
        return list(self._jacobi_defects)

    def lower_central_series(self) -> "SeriesReport":
        """gamma_1 = g, gamma_{i+1} = [g, gamma_i], computed on subspaces
        once per object; every call returns the same report."""
        return self._series

    @cached_property
    def _series(self) -> "SeriesReport":
        # validated() raises before anything is cached, so a non-Lie
        # table raises on every call
        self.validated()
        n = self.dim
        full = Subspace.full(n)
        terms = [full]
        while True:
            prev = terms[-1]
            nxt = self.bracket_span(full, prev)
            if nxt.dim == 0:
                terms.append(nxt)
                return SeriesReport(tuple(terms), True, len(terms) - 1)
            if nxt == prev:
                return SeriesReport(tuple(terms), False, None)
            terms.append(nxt)

    def bracket_span(self, a: Subspace, b: Subspace) -> Subspace:
        """span [a, b]: every bracket of a basis row of ``a`` with one of
        ``b``, through the sparse rows and the sparse table."""
        ad = self._ad
        b_rows = [[(j, _lean(yj)) for j, yj in y] for y in b.rows]
        rows = []
        for x in a.rows:
            ad_x: dict[int, dict[int, Fraction]] = {}  # [x, e_j] per j
            for i, xi in x:
                xi = _lean(xi)
                for j, coords in ad[i].items():
                    acc = ad_x.setdefault(j, {})
                    for k, c in coords.items():
                        acc[k] = acc.get(k, 0) + xi * c
            for y in b_rows:
                w: dict[int, Fraction] = {}
                for j, yj in y:
                    for k, c in ad_x.get(j, {}).items():
                        w[k] = w.get(k, 0) + yj * c
                w = {k: c for k, c in w.items() if c}
                if w:
                    rows.append(w)
        return Subspace.from_rows(rows, self.dim)

    def leibniz_rows(self):
        """Sparse rows of the Leibniz system in the n^2 unknowns u[k][l]
        (row-major flat index k*n + l, u(e_l) = sum_k u[k][l] e_k).

        Yields one mapping per (pair, coordinate) equation:
        sum_l c_{ij}^l u[k][l] - sum_l u[l][i] c_{lj}^k - sum_l u[l][j] c_{il}^k = 0.
        """
        n = self.dim
        ad = self._ad

        def terms(a: int, b: int):
            # [e_b, u(e_a)] = sum_l u[l][a] [e_b, e_l]
            for l, coords in ad[b].items():
                for k, c in coords.items():
                    yield k, l * n + a, c

        return _leibniz_system(ad, n, lambda c: range(c, n * n, n), terms)

    def derivation_algebra(self) -> Subspace:
        """Solution space of the Leibniz system, as a subspace of the
        n^2-dimensional endomorphism space (row-major flattening),
        eliminated once per object; every call returns the same space."""
        return self._derivations

    @cached_property
    def _derivations(self) -> Subspace:
        self.validated()
        return solution_space(self.leibniz_rows(), self.dim ** 2)

    def change_of_basis(self, p: Matrix) -> "LieAlgebra":
        """The same algebra expressed in the basis given by the columns
        of the invertible matrix ``p``."""
        if p.rows != self.dim or p.cols != self.dim:
            raise ValueError("change of basis matrix shape mismatch")
        p_inv = invert(p)
        if p_inv is None:
            raise SingularMatrixError("change of basis matrix is singular")
        return self._changed_basis(p, p_inv)

    def _changed_basis(self, p: Matrix, p_inv: Matrix) -> "LieAlgebra":
        """:meth:`change_of_basis` for a caller that already holds
        ``p_inv``, the inverse of ``p``."""
        brackets = {ij: _dense_vec(w.items(), self.dim) for ij, w in self._transported(p, p_inv)}
        return LieAlgebra.from_brackets(self.dim, brackets, self.labels)

    def _transported(self, p: Matrix, p_inv: Matrix):
        """Yield ``((i, j), {k: c})`` for each nonzero [P e_i, P e_j],
        i < j, written in the basis of the columns of ``p``.

        Each column of ``p`` is bracketed sparsely through the table, and
        only the nonzero coordinates of a bracket are mapped through the
        sparse columns of ``p_inv``.  Integral coefficients are ``int``."""
        ad = self._ad
        cols = _sparse_cols(p)
        inv_cols = _sparse_cols(p_inv)
        for i, col_i in enumerate(cols):
            ad_i: dict[int, dict[int, Fraction]] = {}  # [P e_i, e_b] per b
            for a, x in col_i.items():
                for b, coords in ad[a].items():
                    acc = ad_i.setdefault(b, {})
                    for k, c in coords.items():
                        acc[k] = acc.get(k, 0) + x * c
            for j in range(i + 1, len(cols)):
                w: dict[int, Fraction] = {}
                for b, y in cols[j].items():
                    for k, c in ad_i.get(b, {}).items():
                        w[k] = w.get(k, 0) + y * c
                out: dict[int, Fraction] = {}
                for k, z in w.items():
                    if z:
                        for q, c in inv_cols[k].items():
                            out[q] = out.get(q, 0) + z * c
                out = {q: c for q, c in out.items() if c}
                if out:
                    yield (i, j), out

    def bracket_count(self) -> int:
        """Number of stored (nonzero) bracket pairs."""
        return len(self.table)

    def is_abelian(self) -> bool:
        return not self.table


class SeriesReport(Record):
    """Lower central series: terms gamma_1 > gamma_2 > ...; when the
    algebra is nilpotent the final term is the zero subspace and ``step``
    is the last index with a nonzero term."""

    terms: tuple[Subspace, ...]
    nilpotent: bool
    step: Optional[int]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)
