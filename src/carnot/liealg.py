"""Lie algebras as structure-constant tables over the rationals.

A ``LieAlgebra`` stores a sparse antisymmetric bracket table: only pairs
``(i, j)`` with ``i < j`` and a nonzero bracket are kept, each with the
sparse row (``linalg.SparseRow``) of [e_i, e_j], so antisymmetry holds by
construction and the Jacobi identity is the only thing left to check.
Every reader of the table (brackets, Jacobi, Leibniz rows, bracket spans,
series) goes through one sparse index with both orientations, built once
per object, so work scales with the nonzero brackets rather than with
``dim**3``, and neither the table nor a Jacobi residual costs a
``dim``-long vector: both are sparse rows.  The
index holds integral values as ``int`` (``linalg._lean``).  Basis
indices are 0-based internally and rendered ``e1..en``.

One walk, :meth:`LieAlgebra._brackets`, brackets sparse vectors for
``bracket``, ``bracket_span`` and basis changes (``_transported``).

The Leibniz identity is assembled once, in :func:`_leibniz_system`, for
the n^2 entries of an endomorphism (:meth:`LieAlgebra.leibniz_rows`) or
the blocks of one degree of the tower (``tanaka._solve_component``).
Both callers hand it data, not code: the unknown columns of each u(e_c)
and the action index of u(e_c)'s target space, the algebra's own index
read off ``_ad`` or a degree's ``tanaka._target_index``.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .linalg import (
    Matrix,
    Record,
    Scalar,
    SparseRow,
    Subspace,
    Vec,
    _dense_vec,
    _lean,
    _solve_basis,
    as_vec,
    rat,
    solution_space,
)


class NotLieAlgebraError(ValueError):
    """Raised when an operation requires the Jacobi identity but the
    table violates it."""


class SingularMatrixError(ValueError):
    pass


# (i, j, k, residual), the residual a nonempty sparse row of ``Fraction`` values
JacobiDefect = tuple[int, int, int, SparseRow]


def _leibniz_system(ad, n: int, cols: Sequence[Sequence[int]],
                    actions: Sequence[Mapping[int, Sequence[tuple[int, int, Fraction]]]]):
    """Nonzero sparse rows of u([e_a, e_b]) - [u(e_a), e_b] - [e_a, u(e_b)]
    = 0, one per pair a < b and target coordinate q, for the table ``ad``
    (a ``LieAlgebra._ad``) of dimension n.

    The caller gives the layout of the unknowns of u as data: ``cols[c]``
    lists the columns of u(e_c), one per generator w_r of its target
    space, and ``actions[c]`` is that space's action index, mapping b to
    ``(r, q, x)`` over the w_r with [e_b, w_r] != 0 and the coordinates
    q of [e_b, w_r], x != 0.  Each entry (r, q, x) at b of ``actions[a]``
    makes unknown ``cols[a][r]`` times x a term of coordinate q of
    [e_b, u(e_a)].  The row is, in this insertion order, u([e_a, e_b])
    and then the terms of [e_b, u(e_a)] minus those of [e_a, u(e_b)]
    (which never share a column) in ascending columns.  When
    [e_a, e_b] = 0 those terms are the row, taken with no merge and no
    zero filter; otherwise a term may cancel a column of u([e_a, e_b])."""
    for a in range(n):
        ad_a, cols_a, act_a = ad[a], cols[a], actions[a]
        for b in range(a + 1, n):
            parts: dict[int, dict[int, Fraction]] = {}
            for r, q, x in act_a.get(b, ()):
                parts.setdefault(q, {})[cols_a[r]] = x
            for r, q, x in actions[b].get(a, ()):
                parts.setdefault(q, {})[cols[b][r]] = -x
            if b not in ad_a:
                yield from (dict(sorted(parts[q].items())) for q in sorted(parts))
                continue
            cab = [(cols[l], c) for l, c in sorted(ad_a[b].items())]
            # every coordinate of [e_a, e_b] is in one degree, so all of
            # its unknown columns have the same number of targets
            for q in range(len(cab[0][0])):
                row: dict[int, Fraction] = {cl[q]: c for cl, c in cab}
                for col, x in sorted(parts.get(q, {}).items()):
                    row[col] = row[col] + x if col in row else x
                row = {col: v for col, v in row.items() if v}
                if row:
                    yield row


class LieAlgebra(Record):
    """Structure-constant table of a (candidate) Lie algebra.

    ``table`` pairs each ordered basis pair (i, j), i < j, with the sparse
    row of [e_i, e_j]: its nonzero ``(k, Fraction)`` coordinates in
    ascending k, never empty; missing pairs bracket to zero.
    :meth:`from_brackets` takes each bracket as a dense vector of length
    ``dim`` or a ``{k: value}`` mapping.  Construction is
    "raw": the Jacobi identity is not enforced, so the checker itself can
    be exercised on broken tables.  Use :meth:`validated` when the table
    is supposed to be a Lie algebra.
    """

    dim: int
    table: tuple[tuple[tuple[int, int], SparseRow], ...]

    @staticmethod
    def from_brackets(
            dim: int,
            brackets: Mapping[tuple[int, int], Iterable[Scalar] | Mapping[int, Scalar]]) -> "LieAlgebra":
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        entries = {}
        for (i, j), value in brackets.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket pair ({i}, {j}) must satisfy 0 <= i < j < dim")
            if not isinstance(value, Mapping):
                value = dict(enumerate(value))
                if len(value) != dim:
                    raise ValueError(f"bracket value for ({i}, {j}) has wrong length")
            if not all(0 <= k < dim for k in value):
                raise ValueError(f"bracket value for ({i}, {j}) has an index outside 0..{dim - 1}")
            row = tuple(sorted((k, x) for k, c in value.items() if (x := rat(c))))
            if row:
                entries[(i, j)] = row
        table = tuple(sorted(entries.items()))
        return LieAlgebra(dim, table)

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
        for (i, j), row in self.table:
            coords = {k: _lean(c) for k, c in row}
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
        x_pairs = [(i, a) for i, a in enumerate(xx) if a]
        y_pairs = [(j, b) for j, b in enumerate(yy) if b]
        w = next((w for _, _, w in self._brackets([x_pairs], [y_pairs])), {})
        return _dense_vec(w.items(), self.dim)

    def _brackets(self, xs: Sequence[Iterable[tuple[int, Fraction]]],
                  ys: Sequence[Iterable[tuple[int, Fraction]]], upper: bool = False):
        """Yield ``(i, j, {k: c})`` for each nonzero [x_i, y_j] of sparse
        vectors given as ``(index, value)`` pairs, in ascending (i, j),
        only j > i with ``upper``.  [x_i, e_b] is summed once per x_i; the
        y_j are indexed by their nonzero coordinates b, so only pairs that
        meet a nonzero bracket are visited.  Integral values are ``int``."""
        ad = self._ad
        by_coord: dict[int, list[tuple[int, Fraction]]] = {}  # b -> (j, y_j[b])
        for j, y in enumerate(ys):
            for b, yb in y:
                by_coord.setdefault(b, []).append((j, _lean(yb)))
        for i, x in enumerate(xs):
            ad_x: dict[int, dict[int, Fraction]] = {}  # [x_i, e_b] per b
            for a, xa in x:
                xa = _lean(xa)
                for b, coords in ad[a].items():
                    if b in by_coord:
                        acc = ad_x.setdefault(b, {})
                        for k, c in coords.items():
                            acc[k] = acc.get(k, 0) + xa * c
            out: dict[int, dict[int, Fraction]] = {}
            for b, col in ad_x.items():
                for j, yb in by_coord[b]:
                    if j > i or not upper:
                        w = out.setdefault(j, {})
                        for k, c in col.items():
                            w[k] = w.get(k, 0) + yb * c
            for j in sorted(out):
                w = {k: c for k, c in out[j].items() if c}
                if w:
                    yield i, j, w

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
                out.append((i, j, k, tuple(sorted((c, Fraction(x)) for c, x in acc.items() if x))))
        return tuple(out)

    def jacobi_defect(self) -> list[JacobiDefect]:
        """All basis triples i < j < k where the Jacobi identity fails,
        with their exact residuals as sparse rows, in sorted order.  Empty
        iff this is a Lie algebra.  Computed once per object."""
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
        """span [a, b]: every nonzero bracket of a basis row of ``a`` with
        one of ``b``, from :meth:`_brackets`."""
        return Subspace.from_rows((w for _, _, w in self._brackets(a.rows, b.rows)), self.dim)

    def leibniz_rows(self):
        """Sparse rows of the Leibniz system in the n^2 unknowns u[k][l]
        (row-major flat index k*n + l, u(e_l) = sum_k u[k][l] e_k).

        Yields one mapping per (pair, coordinate) equation:
        sum_l c_{ij}^l u[k][l] - sum_l u[l][i] c_{lj}^k - sum_l u[l][j] c_{il}^k = 0.
        """
        n = self.dim
        # u(e_c) = sum_l u[l][c] e_l, so its target space is g itself
        own = {b: [(l, k, c) for l, coords in ad_b.items() for k, c in coords.items()]
               for b, ad_b in enumerate(self._ad) if ad_b}
        return _leibniz_system(self._ad, n, [range(c, n * n, n) for c in range(n)], [own] * n)

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
        return self._changed_basis([tuple((i, row[j]) for i, row in enumerate(p.entries) if row[j])
                                    for j in range(self.dim)])

    def _changed_basis(self, basis: Sequence[SparseRow]) -> "LieAlgebra":
        """:meth:`change_of_basis` to the basis vectors ``basis``, given
        as sparse rows."""
        return LieAlgebra.from_brackets(self.dim, dict(self._transported(basis)))

    def _transported(self, basis: Sequence[SparseRow]):
        """Yield ``((i, j), {k: c})`` for each nonzero [p_i, p_j], i < j,
        written in the basis of the vectors p_i, given as sparse rows.

        The p_i are bracketed by :meth:`_brackets`, and only the nonzero
        coordinates of a bracket are mapped through the sparse columns of
        P^-1, read off one elimination of the rows [p_a | e_a]
        (``linalg._solve_basis``).  Raises :class:`SingularMatrixError`
        when the p_i are not a basis.  Integral coefficients are ``int``."""
        n = self.dim
        inv_cols = _solve_basis(basis, [{a: 1} for a in range(n)]) if len(basis) == n else None
        if inv_cols is None:
            raise SingularMatrixError("change of basis matrix is singular")
        for i, j, w in self._brackets(basis, basis, upper=True):
            out: dict[int, Fraction] = {}
            for k, z in w.items():
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
