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
    SparseRow,
    Subspace,
    _dense_vec,
    conjugate,
    invert,  # noqa: F401 -- not called; bench/selftest.py checks that its tracer wraps it
    quotient_basis,
    rat,
    solution_space,
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
    joined = Subspace.from_rows((dict(row) for v in layers for row in v.rows), n)
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
    """The map acting as factors[j] on layer j, in ambient coordinates:
    the :func:`conjugate` of the adapted vectors, each to its multiple."""
    basis = [p for v in s.layers for p in v.rows]
    scale = [f for f, v in zip(factors, s.layers) for _ in v.rows]
    return conjugate(basis, [{a: f} for a, f in enumerate(scale)])


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
    adapted_basis: tuple[SparseRow, ...]  # the adapted basis vectors, in order
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
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (a, b), coords in L._transported(reps):
        w = weights[a] + weights[b]
        # brackets respect the filtration: nothing above weight w
        assert all(weights[k] <= w for k in coords)
        if w > s:
            continue
        graded = {k: c for k, c in coords.items() if weights[k] == w}
        if graded:
            brackets[(a, b)] = graded
    gr = LieAlgebra.from_brackets(L.dim, brackets).validated()
    ranges = consecutive_ranges([weights.count(w) for w in range(1, s + 1)])
    strat = verify_stratification(gr, coordinate_layers(L.dim, ranges))
    return GrResult(gr, tuple(reps), strat)


class StratifiabilityVerdict(Record):
    stratifiable: bool
    witness: Optional[Matrix]
    derived_stratification: Optional[Stratification]


def is_stratifiable(L: LieAlgebra) -> StratifiabilityVerdict:
    """Decide stratifiability by one homogeneous solve inside ``Der``.

    Seeks a derivation d with f(d(e_i)) = f(e_i) for every basis vector
    e_i and every functional f of the annihilator of [g, g], i.e. with
    (d - id)(g) in [g, g].  The unknowns are the coordinates x_a of d on
    the sparse canonical basis D_a of :meth:`LieAlgebra.derivation_algebra`,
    so the Leibniz system is not eliminated a second time, and one more,
    x_m, for the right-hand side.  For the feasible set p + W the rows
    [f_t(D_a e_i) | -f_t(e_i)] have the solutions W + span((p, 1)), so d
    exists iff some solution reaches column m; if none does, nothing is
    lifted.  The witness is the canonical min-lead feasible d: lifted to
    n^2 entries with x_m at column n^2, the solutions reduce, with leads
    at highest columns, to one row led by n^2, the one element with
    x_m = 1 that is zero at the leads of lift(W); without its last entry
    it is the witness.  Every feasible d is semisimple (module docstring),
    so the layers are the kernels ker(d - j), j = 1..s, validated as a
    stratification, and the witness is its grading derivation.
    """
    series = L.lower_central_series()
    if not series.nilpotent:
        raise NotNilpotentError("only nilpotent algebras can be stratified")
    n = L.dim
    gamma2 = series.terms[1] if len(series.terms) > 1 else Subspace.zero(n)
    # the functionals reading coordinate k, as (functional, coefficient)
    readers: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
    for t, f in enumerate(solution_space(map(dict, gamma2.rows), n).rows):
        for k, c in f:
            readers[k].append((t, c))
    der = L.derivation_algebra().rows
    m = len(der)
    # row (i, t): sum_a x_a f_t(D_a(e_i)) - x_m f_t(e_i) = 0; D_a(e_i) has
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
            rows.setdefault((i, t), {})[m] = -c
    solutions = solution_space(rows.values(), m + 1).rows
    if not any(x[-1][0] == m for x in solutions):
        return StratifiabilityVerdict(False, None, None)
    lift = der + (((n * n, 1),),)  # x_m at column n^2
    lifted = RowReducer(n * n + 1, reverse=True)
    for x in solutions:
        out: dict[int, Fraction] = {}
        for a, xa in x:
            for col, v in lift[a]:
                out[col] = out.get(col, 0) + xa * v
        lifted.add(out)
    d_rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for col, v in lifted.echelon()[n * n][:-1]:
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
