import random
from fractions import Fraction

import pytest

from carnot import catalog
from carnot.liealg import (
    LieAlgebra,
    NotLieAlgebraError,
    SingularMatrixError,
)
from carnot.linalg import Matrix, Subspace, solution_space, unit_vec

from helpers import (NotDerivationError, ad_matrix, apply, center, col, dense_table, from_flat,
                     is_derivation, is_zero_vec, reference_is_derivation,
                     semidirect_with_derivation, vec_add, zero_vec, zeros)

F = Fraction


# Reference implementations: the dense loops LieAlgebra used before it
# indexed its structure constants sparsely.  They read only the raw
# ``table``, so they are independent of the library's index.

def _ref_bracket_basis(table, n, i, j):
    if i == j:
        return zero_vec(n)
    if i < j:
        return table.get((i, j), zero_vec(n))
    v = table.get((j, i))
    return tuple(-c for c in v) if v is not None else zero_vec(n)


def _ref_bracket(L, x, y):
    acc = [F(0)] * L.dim
    for (i, j), vec in dense_table(L).items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, v in enumerate(vec):
                if v:
                    acc[k] += c * v
    return tuple(acc)


def ref_jacobi_defect(L):
    """O(n^3) over all triples i < j < k."""
    table = dense_table(L)
    out = []
    n = L.dim
    basis = [unit_vec(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            vij = _ref_bracket_basis(table, n, i, j)
            if is_zero_vec(vij):
                vij = None
            for k in range(j + 1, n):
                res = zero_vec(n)
                if vij is not None:
                    res = vec_add(res, _ref_bracket(L, vij, basis[k]))
                vjk = _ref_bracket_basis(table, n, j, k)
                if not is_zero_vec(vjk):
                    res = vec_add(res, _ref_bracket(L, vjk, basis[i]))
                vki = _ref_bracket_basis(table, n, k, i)
                if not is_zero_vec(vki):
                    res = vec_add(res, _ref_bracket(L, vki, basis[j]))
                if not is_zero_vec(res):
                    out.append((i, j, k, res))
    return out


def ref_leibniz_rows(L):
    """One row per (pair, coordinate), every coefficient looked up densely."""
    table = dense_table(L)
    n = L.dim
    for i in range(n):
        for j in range(i + 1, n):
            cij = _ref_bracket_basis(table, n, i, j)
            for k in range(n):
                row = {}
                for l in range(n):
                    if cij[l]:
                        row[k * n + l] = row.get(k * n + l, F(0)) + cij[l]
                for l in range(n):
                    clj = _ref_bracket_basis(table, n, l, j)[k]
                    if clj:
                        col = l * n + i
                        row[col] = row.get(col, F(0)) - clj
                    cil = _ref_bracket_basis(table, n, i, l)[k]
                    if cil:
                        col = l * n + j
                        row[col] = row.get(col, F(0)) - cil
                row = {c: v for c, v in row.items() if v}
                if row:
                    yield row


def _nonzeros(defects):
    """Dense reference defects with their residuals as sparse rows."""
    return [(i, j, k, tuple((c, x) for c, x in enumerate(res) if x)) for i, j, k, res in defects]


def _ordered_rows(rows):
    """Rows with their insertion order, so order differences show."""
    return [list(r.items()) for r in rows]


def _random_coeff(rng):
    return F(rng.randint(-4, 4), rng.randint(1, 3))


def _random_table(rng):
    """A random structure table of dim 1..9.  Kinds: sparse random
    coefficients (mostly not Lie), two-step with a central top block
    (always Lie), a two-step table in a random rational basis (Lie, dense
    fractions), and that last one with one coefficient shifted."""
    n = rng.randint(1, 9)
    kind = rng.randrange(4) if n >= 3 else 0
    if kind == 0:
        brackets = {(i, j): [_random_coeff(rng) if rng.random() < 0.3 else 0 for _ in range(n)]
                    for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
        return LieAlgebra.from_brackets(n, brackets)
    m = rng.randint(2, n - 1)
    brackets = {(i, j): [0] * m + [_random_coeff(rng) for _ in range(n - m)]
                for i in range(m) for j in range(i + 1, m) if rng.random() < 0.6}
    L = LieAlgebra.from_brackets(n, brackets)
    if kind == 1:
        return L
    p = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        c = _random_coeff(rng) or F(1)
        for k in range(n):
            p[i][k] += c * p[j][k]
    L = L.change_of_basis(Matrix.from_rows(p, n))
    if kind == 2 or not L.table:
        return L
    shifted = dense_table(L)
    pair = rng.choice(sorted(shifted))
    k = rng.randrange(n)
    shifted[pair] = tuple(v + (1 if c == k else 0) for c, v in enumerate(shifted[pair]))
    return LieAlgebra.from_brackets(n, shifted)


@pytest.mark.parametrize("seed", range(10))
def test_sparse_jacobi_and_leibniz_match_dense_reference(seed):
    rng = random.Random(1000 + seed)
    lie = broken = 0
    for _ in range(30):
        L = _random_table(rng)
        defects = L.jacobi_defect()
        assert defects == _nonzeros(ref_jacobi_defect(L)), L.table
        assert all(type(x) is F for *_, res in defects for _, x in res)
        assert _ordered_rows(L.leibniz_rows()) == _ordered_rows(ref_leibniz_rows(L)), L.table
        if defects:
            broken += 1
        else:
            lie += 1
    assert lie >= 5 and broken >= 5


@pytest.mark.parametrize("name", ["example1_16", "example2_17", "deformed_h_16",
                                  "free_step2_rank3"])
def test_catalog_jacobi_and_leibniz_match_dense_reference(name):
    L = catalog.get(name).algebra
    assert L.jacobi_defect() == ref_jacobi_defect(L) == []
    assert _ordered_rows(L.leibniz_rows()) == _ordered_rows(ref_leibniz_rows(L))


def test_leibniz_rows_cancel_where_a_term_meets_the_bracket_column():
    # the affine algebra [e_1, e_2] = e_2: in the q = 2 row of the pair
    # (1, 2), the column of u([e_1, e_2]) = u(e_2) meets the term of
    # [e_1, u(e_2)] and cancels, so the row keeps only u(e_1)'s column
    L = LieAlgebra.from_brackets(2, {(0, 1): (0, 1)})
    rows = _ordered_rows(L.leibniz_rows())
    assert rows == _ordered_rows(ref_leibniz_rows(L)) == [[(1, 1)], [(0, -1)]]
    assert L.derivation_algebra().basis_rows() == ((0, 0, 1, 0), (0, 0, 0, 1))


def test_sparse_bracket_matches_dense_reference(example1):
    rng = random.Random(17)
    for _ in range(10):
        x = [_random_coeff(rng) for _ in range(16)]
        y = [_random_coeff(rng) if rng.random() < 0.5 else F(0) for _ in range(16)]
        assert example1.bracket(x, y) == _ref_bracket(example1, x, y)


def heisenberg3() -> LieAlgebra:
    return LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})


def abelian(n: int) -> LieAlgebra:
    return LieAlgebra.from_brackets(n, {})


@pytest.fixture(scope="module")
def example1() -> LieAlgebra:
    return catalog.get("example1_16").algebra


@pytest.fixture(scope="module")
def example2() -> LieAlgebra:
    return catalog.get("example2_17").algebra


def test_from_brackets_validation():
    with pytest.raises(ValueError):
        LieAlgebra.from_brackets(3, {(1, 0): (0, 0, 1)})  # needs i < j
    with pytest.raises(ValueError):
        LieAlgebra.from_brackets(3, {(0, 1): (0, 0)})  # wrong length
    # zero values are dropped from the stored table
    L = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 0)})
    assert L.bracket_count() == 0
    assert LieAlgebra.from_brackets(3, {(0, 1): {2: 0, 0: "0"}}).bracket_count() == 0


@pytest.mark.parametrize("index", [3, -1, 10])
def test_from_brackets_rejects_mapping_index_out_of_range(index):
    with pytest.raises(ValueError, match="outside 0..2"):
        LieAlgebra.from_brackets(3, {(0, 1): {2: 1, index: 1}})


@pytest.mark.parametrize("name", [n for n, _ in catalog.list_entries()])
def test_from_brackets_dense_and_mapping_give_the_same_sparse_table(name):
    L = catalog.get(name).algebra
    dense = LieAlgebra.from_brackets(L.dim, dense_table(L))
    # mapping values as int, Fraction and str, keys out of order
    mapping = LieAlgebra.from_brackets(L.dim, {ij: {k: (str(c) if k % 2 else c)
                                                    for k, c in reversed(row)}
                                               for ij, row in L.table})
    assert dense.table == mapping.table == L.table
    for (i, j), row in L.table:
        assert i < j and row
        assert [k for k, _ in row] == sorted(k for k, _ in row)
        assert all(type(c) is Fraction and c for _, c in row)


def test_bracket_antisymmetry_on_vectors(example1):
    rng = random.Random(3)
    for _ in range(10):
        x = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(16)]
        y = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(16)]
        assert example1.bracket(x, x) == zero_vec(16)
        lhs = example1.bracket(x, y)
        rhs = tuple(-c for c in example1.bracket(y, x))
        assert lhs == rhs


def test_bracket_table_entries(example1):
    h3 = heisenberg3()
    assert h3.bracket(unit_vec(3, 0), unit_vec(3, 1)) == (0, 0, 1)
    # [e9, e10] = -e12
    v = example1.bracket(unit_vec(16, 8), unit_vec(16, 9))
    assert v == tuple(F(-1) if k == 11 else F(0) for k in range(16))


def test_jacobi_defect_empty_cases(example1, example2):
    assert abelian(5).jacobi_defect() == []
    assert example1.jacobi_defect() == []
    assert example2.jacobi_defect() == []


def test_jacobi_defect_detects_violation():
    # [e1,e2]=e3, [e1,e3]=e1 violates Jacobi at (1,2,3):
    # [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = 0 + 0 + [-e1,e2] = -e3
    bad = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    defects = bad.jacobi_defect()
    assert len(defects) == 1
    i, j, k, residual = defects[0]
    assert (i, j, k) == (0, 1, 2)
    assert residual == ((2, F(-1)),)
    with pytest.raises(NotLieAlgebraError):
        bad.validated()


def test_validated_raises_on_every_call():
    bad = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    for _ in range(3):
        with pytest.raises(NotLieAlgebraError):
            bad.validated()


def test_jacobi_defect_returns_a_fresh_list():
    bad = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    first = bad.jacobi_defect()
    expected = [(0, 1, 2, ((2, F(-1)),))]
    assert first == expected
    first.clear()
    first.append((0, 0, 0, ()))
    assert bad.jacobi_defect() == expected


def test_two_step_tables_satisfy_jacobi_for_any_signs(example1):
    # in a 2-step table the second layer is central, so every triple sum
    # vanishes identically; flipping the sign of [e9,e10] cannot break it
    flipped = dense_table(example1)
    flipped[(8, 9)] = tuple(F(1) if k == 11 else F(0) for k in range(16))
    L = LieAlgebra.from_brackets(16, flipped)
    assert L.jacobi_defect() == []


def test_lower_central_series(example1, example2):
    assert abelian(4).lower_central_series().dims == (4, 0)
    assert abelian(4).lower_central_series().step == 1
    s1 = example1.lower_central_series()
    assert s1.dims == (16, 6, 0) and s1.step == 2 and s1.nilpotent
    s2 = example2.lower_central_series()
    assert s2.dims == (17, 7, 1, 0) and s2.step == 3 and s2.nilpotent


def test_lower_central_series_non_nilpotent(example1):
    # adjoining the grading derivation makes the algebra non-nilpotent:
    # the series stabilizes at the original 16-dimensional ideal
    d_rows = [[F(1 if i == j else 0) * (1 if j < 10 else 2) for j in range(16)]
              for i in range(16)]
    D = Matrix.from_rows(d_rows, 16)
    td = semidirect_with_derivation(example1, D)
    s = td.lower_central_series()
    assert not s.nilpotent
    assert s.step is None
    assert s.dims == (17, 16)


def test_center(example1):
    assert center(abelian(3)) == Subspace.full(3)
    assert center(heisenberg3()) == Subspace.from_rows([unit_vec(3, 2)], 3)
    c = center(example1)
    assert c.dim == 6
    v2 = Subspace.from_rows([unit_vec(16, k) for k in range(10, 16)], 16)
    assert c == v2


def test_ad(example1):
    h3 = heisenberg3()
    assert ad_matrix(h3, zero_vec(3)) == zeros(3, 3)
    ad1 = ad_matrix(h3, unit_vec(3, 0))
    assert apply(ad1, unit_vec(3, 1)) == (0, 0, 1)
    assert apply(ad1, unit_vec(3, 2)) == (0, 0, 0)
    ad_e1 = ad_matrix(example1, unit_vec(16, 0))
    nonzero_cols = [j for j in range(16) if any(col(ad_e1, j))]
    assert nonzero_cols == [1, 2, 3, 4, 5]  # e2..e6


def test_is_derivation(example1):
    assert is_derivation(abelian(3), Matrix.identity(3))
    # the identity is not a derivation of a nonabelian algebra
    assert not is_derivation(heisenberg3(), Matrix.identity(3))
    rng = random.Random(9)
    for _ in range(5):
        x = [rng.randint(-2, 2) for _ in range(16)]
        assert is_derivation(example1, ad_matrix(example1, x))


@pytest.mark.parametrize("seed", range(3))
def test_is_derivation_matches_dense_reference(seed):
    # u ranges over combinations of the solution space of the reference
    # Leibniz rows (so Lie and non-Lie tables alike), and the same u with
    # one entry changed
    rng = random.Random(2000 + seed)
    verdicts = set()
    lie = broken = 0
    for _ in range(30):
        L = _random_table(rng)
        n = L.dim
        if L.jacobi_defect():
            broken += 1
        else:
            lie += 1
        der = solution_space(ref_leibniz_rows(L), n * n).basis_rows()
        for _ in range(2):
            flat = [F(0)] * (n * n)
            for d in der:
                c = _random_coeff(rng)
                flat = [x + c * y for x, y in zip(flat, d)]
            changed = list(flat)
            changed[rng.randrange(n * n)] += _random_coeff(rng) or F(1)
            for entries in (flat, changed):
                u = from_flat(entries, n, n)
                verdict = is_derivation(L, u)
                assert verdict == reference_is_derivation(L, u), (L.table, entries)
                verdicts.add(verdict)
    assert verdicts == {True, False}
    assert lie >= 3 and broken >= 3


def test_is_derivation_rejects_wrong_shapes():
    h3 = heisenberg3()
    for u in (zeros(3, 2), zeros(2, 3), Matrix.identity(4)):
        with pytest.raises(ValueError):
            is_derivation(h3, u)
        with pytest.raises(ValueError):
            reference_is_derivation(h3, u)


def test_derivation_algebra_abelian():
    assert abelian(2).derivation_algebra().dim == 4


def test_derivation_algebra_heisenberg():
    der = heisenberg3().derivation_algebra()
    assert der.dim == 6
    h3 = heisenberg3()
    for flat in der.basis_rows():
        assert is_derivation(h3, from_flat(flat, 3, 3))


def test_derivation_algebra_example1(example1):
    der = example1.derivation_algebra()
    # contains D and all inner derivations; inner ones mod center give 10,
    # D is independent of them, so dim >= 11
    assert der.dim >= 11
    # the full solution space: grading-preserving part (dim 1) plus every
    # map V1 -> V2 extended by zero (dim 60)
    assert der.dim == 61
    d_rows = [[F((1 if j < 10 else 2) if i == j else 0) for j in range(16)]
              for i in range(16)]
    assert der.contains(Matrix.from_rows(d_rows, 16).flatten())
    for i in range(16):
        assert der.contains(ad_matrix(example1, unit_vec(16, i)).flatten())


def test_derivation_algebra_requires_lie():
    bad = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    with pytest.raises(NotLieAlgebraError):
        bad.derivation_algebra()


def test_derivation_algebra_and_series_computed_once(example1):
    conj = example1.change_of_basis(Matrix.identity(16))
    assert conj.derivation_algebra() is conj.derivation_algebra()
    assert conj.lower_central_series() is conj.lower_central_series()
    assert conj.derivation_algebra() == example1.derivation_algebra()
    # the caches live outside the record fields
    assert conj == example1 and hash(conj) == hash(example1)


def test_non_lie_table_raises_on_every_series_and_der_call():
    bad = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    for _ in range(2):
        with pytest.raises(NotLieAlgebraError):
            bad.lower_central_series()
        with pytest.raises(NotLieAlgebraError):
            bad.derivation_algebra()


def test_semidirect_affine_line():
    affine = semidirect_with_derivation(abelian(1), Matrix.identity(1))
    assert affine.dim == 2
    # [e2, e1] = e1
    assert affine.bracket(unit_vec(2, 1), unit_vec(2, 0)) == (F(1), F(0))
    assert affine.jacobi_defect() == []


def test_semidirect_with_grading_derivation(example1):
    d_rows = [[F((1 if j < 10 else 2) if i == j else 0) for j in range(16)]
              for i in range(16)]
    D = Matrix.from_rows(d_rows, 16)
    td = semidirect_with_derivation(example1, D)
    assert td.dim == 17
    assert td.jacobi_defect() == []
    for i in range(16):
        expect = tuple(col(D, i)) + (F(0),)
        assert td.bracket(unit_vec(17, 16), unit_vec(17, i)) == expect
    assert center(td).dim == 0


def test_semidirect_with_zero_derivation():
    h3 = heisenberg3()
    ext = semidirect_with_derivation(h3, zeros(3, 3))
    assert ext.dim == 4
    assert center(ext).contains(unit_vec(4, 3))


def test_semidirect_rejects_non_derivation():
    with pytest.raises(NotDerivationError):
        semidirect_with_derivation(heisenberg3(), Matrix.identity(3))


def test_change_of_basis_identity(example1):
    assert example1.change_of_basis(Matrix.identity(16)).table == example1.table


def test_change_of_basis_swap():
    h3 = heisenberg3()
    p = Matrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]], 3)
    swapped = h3.change_of_basis(p)
    assert swapped.bracket(unit_vec(3, 0), unit_vec(3, 1)) == (0, 0, -1)


def test_change_of_basis_rejects_singular():
    with pytest.raises(SingularMatrixError):
        heisenberg3().change_of_basis(zeros(3, 3))


def test_change_of_basis_preserves_series(example1):
    rng = random.Random(31)
    m = [[F(1 if i == j else 0) for j in range(16)] for i in range(16)]
    for _ in range(5):
        i, j = rng.sample(range(16), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(16):
            m[i][k] += c * m[j][k]
    p = Matrix.from_rows(m, 16)
    conj = example1.change_of_basis(p)
    assert conj.jacobi_defect() == []
    assert conj.lower_central_series().dims == (16, 6, 0)


@pytest.mark.parametrize("seed", range(2))
def test_bracket_span_matches_dense_reference(seed):
    rng = random.Random(3000 + seed)
    for _ in range(30):
        L = _random_table(rng)
        n = L.dim
        spans = [Subspace.from_rows([[_random_coeff(rng) if rng.random() < 0.5 else 0
                                      for _ in range(n)] for _ in range(rng.randint(0, n))], n)
                 for _ in range(2)]
        spans.append(Subspace.full(n))
        for a in spans:
            for b in spans:
                want = Subspace.from_rows([_ref_bracket(L, x, y) for x in a.basis_rows()
                                           for y in b.basis_rows()], n)
                assert L.bracket_span(a, b) == want
