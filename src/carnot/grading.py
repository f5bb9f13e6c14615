"""Stratifications, dilations, filtrations and the nilpotentisation.

A stratification splits a nilpotent algebra into layers
``V_1 + ... + V_s`` (direct sum) with ``[V_j, V_1] = V_{j+1}``; the first
layer then generates everything and the grading derivation D acts as
multiplication by j on V_j.

Stratifiability is decided exactly: an algebra is stratifiable iff there
is a derivation d with (d - id)(g) contained in [g, g].  The grading
derivation of any stratification is such a d.  Conversely such a d
preserves the lower central series and acts as i on gamma_i/gamma_{i+1},
so its eigenvalues are exactly 1..s and gamma_i = W_i + gamma_{i+1} for
its generalized eigenspaces W_j.  Each W_j lies in gamma_j, so
(d - j)W_j lies in W_j and in gamma_{j+1}, which meets W_j only in 0:
d is semisimple and W_j = ker(d - j), one kernel per layer.  The W_j
satisfy [W_a, W_b] in W_{a+b} (Leibniz identity), whence comparing the
W_{j+1}-components of gamma_{j+1} = [g, gamma_j] gives
[W_1, W_j] = W_{j+1}: the W_j form a stratification, and d is its
grading derivation.  This turns an existence question over all gradings
into one affine-linear feasibility problem over the rationals.  Since
the data are rational and feasibility of a linear system does not
change under field extension, the verdict over the rationals agrees
with the verdict over the reals.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple, Optional, Sequence

from .liealg import LieAlgebra
from .linalg import (
    Matrix,
    Record,
    RowReducer,
    Scalar,
    Subspace,
    Vec,
    _dense_vec,
    invert,
    quotient_basis,
    rat,
    residual,
    solution_space,
    solve_affine_rows,
)


class StratificationError(ValueError):
    """Base class; each invariant violation has its own subclass."""


class NotDirectSumError(StratificationError):
    pass


class LayerGenerationError(StratificationError):
    pass


class TrivialTopLayerError(StratificationError):
    pass


class SmallFirstLayerError(StratificationError):
    pass


class NotBracketGeneratingError(ValueError):
    pass


class NotNilpotentError(ValueError):
    pass


class Stratification(Record):
    """Validated layer decomposition; construct via verify_stratification."""

    layers: tuple[Subspace, ...]

    @property
    def step(self) -> int:
        return len(self.layers)

    @property
    def ambient_dim(self) -> int:
        return self.layers[0].ambient_dim

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return tuple(v.dim for v in self.layers)


class Filtration(Record):
    """Increasing chain L_1 <= L_2 <= ... <= L_s = whole space."""

    terms: tuple[Subspace, ...]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(t.dim for t in self.terms)


def verify_stratification(L: LieAlgebra, layers: Sequence[Subspace]) -> Stratification:
    """Check the stratification axioms and return the validated object.

    Reports the first violated condition as a distinct error type:
    direct sum, generation [V_j, V_1] = V_{j+1}, V_s nonzero, dim V_1 >= 2.
    """
    L.validated()
    if not layers:
        raise StratificationError("at least one layer required")
    n = L.dim
    for v in layers:
        if v.ambient_dim != n:
            raise StratificationError("layer ambient dimension mismatch")
    total = sum(v.dim for v in layers)
    joined = layers[0]
    for v in layers[1:]:
        joined = joined + v
    if total != n or joined.dim != n:
        raise NotDirectSumError(
            f"layers do not form a direct sum decomposition: dims sum to {total}, span has dim {joined.dim}, ambient is {n}")
    s = len(layers)
    for j in range(s):
        generated = L.bracket_span(layers[j], layers[0])
        expected = layers[j + 1] if j + 1 < s else Subspace.zero(n)
        if generated != expected:
            raise LayerGenerationError(
                f"[V_{j + 1}, V_1] != V_{j + 2}: generated dim {generated.dim}, expected dim {expected.dim}")
    if layers[-1].dim == 0:
        raise TrivialTopLayerError("top layer V_s is zero")
    if layers[0].dim < 2:
        raise SmallFirstLayerError("first layer must have dimension at least 2")
    return Stratification(tuple(layers))


def consecutive_ranges(dims: Sequence[int]) -> list[tuple[int, int]]:
    """1-based inclusive index ranges of consecutive blocks of sizes ``dims``."""
    return [(end - d + 1, end) for d, end in zip(dims, accumulate(dims))]


def coordinate_layers(n: int, ranges: Sequence[tuple[int, int]]) -> list[Subspace]:
    """Layers spanned by basis vectors, from 1-based inclusive index ranges."""
    out = []
    for lo, hi in ranges:
        if not (1 <= lo <= hi <= n):
            raise ValueError(f"range {lo}..{hi} out of 1..{n}")
        out.append(Subspace.from_rows([{i: 1} for i in range(lo - 1, hi)], n))
    return out


def _block_scalar_map(s: Stratification, factors: Sequence[Fraction]) -> Matrix:
    """The map M acting as factors[j] on layer j, in ambient coordinates.

    With the adapted vectors p_a as the columns of P and f_a the factor of
    p_a's layer, M = P F P^-1 solves P^T M^T = F P^T.  The layers form a
    direct sum, so P is invertible and row reducing the rows
    [p_a | f_a p_a] leaves the canonical rows [I | M^T]: one elimination,
    with no inverse and no matrix product."""
    n = s.ambient_dim
    red = RowReducer(2 * n)
    for f, v in zip(factors, s.layers):
        for p in v.rows:
            red.add({**dict(p), **{n + c: f * x for c, x in p}})
    m = [[Fraction(0)] * n for _ in range(n)]
    for i, row in red.echelon().items():
        for c, x in row:
            if c >= n:
                m[c - n][i] = x
    return Matrix(n, n, tuple(map(tuple, m)))


def grading_derivation(s: Stratification) -> Matrix:
    """D acting as multiplication by j on V_j."""
    return _block_scalar_map(s, [Fraction(j + 1) for j in range(s.step)])


def dilation(s: Stratification, lam: Scalar) -> Matrix:
    """The algebra dilation acting as lam^j on V_j; an automorphism for
    every nonzero lam."""
    q = rat(lam)
    if q == 0:
        raise ValueError("dilation factor must be nonzero")
    return _block_scalar_map(s, [q ** (j + 1) for j in range(s.step)])


def homogeneous_dimension(s: Stratification) -> int:
    return sum((j + 1) * v.dim for j, v in enumerate(s.layers))


def filtration_from_horizontal(L: LieAlgebra, h: Subspace) -> Filtration:
    """L_1 = h, L_{i+1} = L_i + [h, L_i], until the whole space is reached.

    Raises NotBracketGeneratingError when the recursion stabilizes below
    the full dimension.
    """
    L.validated()
    if h.ambient_dim != L.dim:
        raise ValueError("horizontal space ambient dimension mismatch")
    terms = [h]
    while terms[-1].dim < L.dim:
        prev = terms[-1]
        nxt = prev + L.bracket_span(h, prev)
        if nxt == prev:
            raise NotBracketGeneratingError(
                f"horizontal space generates only a dim-{prev.dim} subalgebra of the dim-{L.dim} algebra")
        terms.append(nxt)
    return Filtration(tuple(terms))


class GrResult(NamedTuple):
    algebra: LieAlgebra
    adapted_basis: Matrix  # rows are the adapted basis vectors
    stratification: Stratification


def nilpotentisation(L: LieAlgebra, h: Subspace) -> GrResult:
    """The associated graded algebra of the filtration generated by ``h``.

    An adapted basis is built level by level (canonical basis of L_1,
    then lowest-pivot completions of each L_i inside L_{i+1}); brackets of
    representatives of weights i and j are projected to the weight-(i+j)
    coordinates, discarding lower filtration levels.  The result carries
    the induced stratification by weight and is returned together with
    the adapted basis.
    """
    filt = filtration_from_horizontal(L, h)
    s = len(filt.terms)
    reps = list(filt.terms[0].rows)
    weights: list[int] = [1] * filt.terms[0].dim
    for i in range(1, s):
        new = quotient_basis(filt.terms[i - 1], filt.terms[i])
        reps.extend(new)
        weights.extend([i + 1] * len(new))
    n = L.dim
    adapted = Matrix(n, n, tuple(_dense_vec(r, n) for r in reps))
    a_cols = adapted.transpose()
    a_inv = invert(a_cols)
    assert a_inv is not None
    brackets: dict[tuple[int, int], Vec] = {}
    for (a, b), coords in L._transported(a_cols, a_inv):
        w = weights[a] + weights[b]
        # brackets respect the filtration: nothing above weight w
        assert all(weights[k] <= w for k in coords)
        if w > s:
            continue
        graded = {k: c for k, c in coords.items() if weights[k] == w}
        if graded:
            brackets[(a, b)] = tuple(graded.get(k, Fraction(0)) for k in range(n))
    gr = LieAlgebra.from_brackets(n, brackets).validated()
    ranges = consecutive_ranges([weights.count(w) for w in range(1, s + 1)])
    strat = verify_stratification(gr, coordinate_layers(n, ranges))
    return GrResult(gr, adapted, strat)


class StratifiabilityVerdict(Record):
    stratifiable: bool
    witness: Optional[Matrix]
    derived_stratification: Optional[Stratification]


def is_stratifiable(L: LieAlgebra) -> StratifiabilityVerdict:
    """Decide stratifiability via exact affine feasibility inside ``Der``.

    Seeks a feasible derivation d with f(d(e_i)) = f(e_i) for every basis
    vector e_i and every functional f cutting out [g, g], i.e. with
    (d - id)(g) in [g, g].  The unknowns are the coordinates of d on the
    sparse canonical basis of :meth:`LieAlgebra.derivation_algebra`, so
    the Leibniz system is not eliminated a second time.  The feasible set
    is p + W with W in ``Der``.  The witness is its canonical min-lead
    solution: the one element that is zero at the free columns of the
    same system written in all n^2 entries of d, the :func:`residual` of
    p modulo W in echelon form with leads at each vector's highest
    nonzero column.  Every feasible d is semisimple (module docstring),
    so the layers are the kernels ker(d - j), j = 1..s, validated as a
    stratification, and the witness is its grading derivation.
    """
    series = L.lower_central_series()
    if not series.nilpotent:
        raise NotNilpotentError("only nilpotent algebras can be stratified")
    n = L.dim
    gamma2 = series.terms[1] if len(series.terms) > 1 else Subspace.zero(n)
    functionals = gamma2.quotient_functionals()
    # the functionals reading coordinate k, as (functional, coefficient)
    readers: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for t, f in enumerate(functionals):
        for k, c in f.items():
            readers[k].append((t, c))
    der = L.derivation_algebra().rows
    m = len(der)
    # row (i, t): sum_a x_a f_t(D_a(e_i)) = f_t(e_i); D_a(e_i) has
    # coordinate k at flat index k*n + i
    rows: dict[tuple[int, int], dict[int, Fraction]] = {}
    for a, d in enumerate(der):
        for col, v in d:
            k, i = divmod(col, n)
            for t, c in readers[k]:
                row = rows.setdefault((i, t), {})
                row[a] = row.get(a, 0) + c * v
    for i in range(n):
        for t, c in readers[i]:
            rows.setdefault((i, t), {})[m] = c
    sol = solve_affine_rows(rows.values(), m)
    if sol is None:
        return StratifiabilityVerdict(False, None, None)

    def lift(x) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for a, xa in x:
            if xa:
                for col, v in der[a]:
                    out[col] = out.get(col, 0) + xa * v
        return out

    w = RowReducer(n * n, reverse=True)
    for h in sol.homogeneous.rows:
        w.add(lift(h))
    d_rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for col, v in residual(lift(enumerate(sol.particular)), w.echelon()).items():
        k, i = divmod(col, n)
        d_rows[k][i] = v
    layers = [solution_space([{**r, k: r.get(k, 0) - j} for k, r in enumerate(d_rows)], n)
              for j in range(1, series.step + 1)]
    try:
        strat = verify_stratification(L, layers)
    except (SmallFirstLayerError, TrivialTopLayerError):
        # ambient dimension 0 or 1: feasible, but below the
        # nondegeneracy floor for stratification objects
        strat = None
    witness = Matrix(n, n, tuple(_dense_vec(r.items(), n) for r in d_rows))
    return StratifiabilityVerdict(True, witness, strat)
