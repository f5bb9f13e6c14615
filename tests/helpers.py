"""Test-only constructions on top of the public ``LieAlgebra`` API."""

from fractions import Fraction

from carnot.grading import (
    NotNilpotentError,
    SmallFirstLayerError,
    StratifiabilityVerdict,
    TrivialTopLayerError,
    grading_derivation,
    verify_stratification,
)
from carnot.liealg import LieAlgebra
from carnot.linalg import (Matrix, Subspace, as_vec, is_zero_vec, nullspace, solve_affine_rows,
                           unit_vec, vec_add)
from carnot.tanaka import HomElement


class NotDerivationError(ValueError):
    pass


def ad_matrix(L: LieAlgebra, x) -> Matrix:
    """Matrix of y -> [x, y] (columns are images of basis vectors)."""
    xx = as_vec(x)
    if len(xx) != L.dim:
        raise ValueError(f"vector must have length {L.dim}")
    cols = [L.bracket(xx, unit_vec(L.dim, j)) for j in range(L.dim)]
    return Matrix.from_rows(cols, L.dim).transpose()


def reference_is_derivation(L: LieAlgebra, u: Matrix) -> bool:
    """The dense Leibniz check ``LieAlgebra.is_derivation`` used before it
    evaluated the sparse Leibniz rows: u[e_i, e_j] = [u e_i, e_j] + [e_i, u e_j]
    compared as dense vectors on every basis pair."""
    if u.rows != L.dim or u.cols != L.dim:
        raise ValueError("endomorphism shape mismatch")
    n = L.dim
    for i in range(n):
        ui = u.col(i)
        for j in range(i + 1, n):
            lhs = u.apply(L.bracket_basis(i, j))
            rhs = vec_add(L.bracket(ui, unit_vec(n, j)),
                          L.bracket(unit_vec(n, i), u.col(j)))
            if lhs != rhs:
                return False
    return True


def hom_blocks(el: HomElement) -> tuple[Matrix, ...]:
    """The dense blocks of a tower element, one per source layer, cut
    from its row-major flattening by its block shapes."""
    flat = el.flatten()
    blocks = []
    pos = 0
    for r, c in el.shapes:
        blocks.append(Matrix.from_flat(flat[pos:pos + r * c], r, c))
        pos += r * c
    return tuple(blocks)


def hom_from_blocks(degree: int, blocks) -> HomElement:
    """The tower element of ``degree`` with the given dense blocks."""
    flat = [x for b in blocks for x in b.flatten()]
    return HomElement.from_nonzeros(degree, tuple((b.rows, b.cols) for b in blocks),
                                    dict(enumerate(flat)))


def semidirect_with_derivation(L: LieAlgebra, d: Matrix) -> LieAlgebra:
    """Extend ``L`` by a new generator acting as the derivation ``d``:
    same table plus [e_{n+1}, e_i] = d(e_i)."""
    if not L.is_derivation(d):
        raise NotDerivationError("the supplied endomorphism is not a derivation")
    n = L.dim
    brackets = {(i, j): vec + (Fraction(0),) for (i, j), vec in L.table}
    for i in range(n):
        col = d.col(i)
        if not is_zero_vec(col):
            # stored pair (i, n) = [e_i, e_{n+1}] = -d(e_i)
            brackets[(i, n)] = tuple(-x for x in col) + (Fraction(0),)
    return LieAlgebra.from_brackets(n + 1, brackets, L.labels + (f"e{n + 1}",)).validated()


def reference_is_stratifiable(L: LieAlgebra) -> StratifiabilityVerdict:
    """The stratifiability decision as one affine solve over all n^2
    entries of d: the Leibniz rows plus f(d(e_i)) = f(e_i) for every
    functional f cutting out [g, g], eliminated together in n^2 + 1
    columns.  Its particular solution (zero at every free column) is the
    witness that ``grading.is_stratifiable`` must reproduce."""
    series = L.lower_central_series()
    if not series.nilpotent:
        raise NotNilpotentError("only nilpotent algebras can be stratified")
    n = L.dim
    gamma2 = series.terms[1] if len(series.terms) > 1 else Subspace.zero(n)
    functionals = gamma2.quotient_functionals()
    rows = list(L.leibniz_rows())
    for i in range(n):
        for f in functionals:
            row = {k * n + i: f[k] for k in range(n) if f[k]}
            row[n * n] = f[i]
            rows.append(row)
    sol = solve_affine_rows(rows, n * n)
    if sol is None:
        return StratifiabilityVerdict(False, None, None)
    delta = Matrix.from_flat(sol.particular, n, n)
    s = series.step
    layers = []
    for j in range(1, s + 1):
        expected = series.terms[j - 1].dim - series.terms[j].dim
        power = delta - Matrix.identity(n).scaled(j)
        exponent = 1
        ker = nullspace(power)
        while ker.dim < expected and exponent < n:
            power = power @ power
            exponent *= 2
            ker = nullspace(power)
        layers.append(ker)
    try:
        strat = verify_stratification(L, layers)
    except (SmallFirstLayerError, TrivialTopLayerError):
        return StratifiabilityVerdict(True, delta, None)
    return StratifiabilityVerdict(True, grading_derivation(strat), strat)
