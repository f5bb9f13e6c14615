"""Test-only constructions on top of the public ``LieAlgebra`` API."""

from fractions import Fraction

from carnot.liealg import LieAlgebra
from carnot.linalg import Matrix, as_vec, is_zero_vec, unit_vec


class NotDerivationError(ValueError):
    pass


def ad_matrix(L: LieAlgebra, x) -> Matrix:
    """Matrix of y -> [x, y] (columns are images of basis vectors)."""
    xx = as_vec(x)
    if len(xx) != L.dim:
        raise ValueError(f"vector must have length {L.dim}")
    cols = [L.bracket(xx, unit_vec(L.dim, j)) for j in range(L.dim)]
    return Matrix.from_rows(cols, L.dim).transpose()


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
