import random
from fractions import Fraction

import pytest

from carnot import catalog
from carnot.linalg import (
    Matrix,
    RowReducer,
    Subspace,
    invert,
    nullspace,
    quotient_basis,
    rat,
    rref,
    solution_space,
    solve_affine,
    unit_vec,
    zero_vec,
)

F = Fraction


def M(rows, cols=None):
    return Matrix.from_rows(rows, cols)


def span(rows, n):
    return Subspace.from_rows(rows, n)


def test_rat_rejects_floats():
    with pytest.raises(TypeError):
        rat(0.5)
    assert rat("3/7") == F(3, 7)
    assert rat(-4) == F(-4)


def test_rref_proportional_rows():
    r, rank = rref(M([[2, 4], [1, 2]]))
    assert r == M([[1, 2], [0, 0]])
    assert rank == 1


def test_rref_identity():
    r, rank = rref(Matrix.identity(3))
    assert r == Matrix.identity(3)
    assert rank == 3


def test_rref_full_rank_2x2():
    # hand elimination: R2 -= 3 R1 -> [[1,2],[0,-2]] -> normalize/back-substitute -> identity
    r, rank = rref(M([[1, 2], [3, 4]]))
    assert r == Matrix.identity(2)
    assert rank == 2


def test_rref_idempotent_on_seeded_randoms():
    rng = random.Random(11)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = M([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
               for _ in range(rows)], cols)
        r1, rank1 = rref(m)
        r2, rank2 = rref(r1)
        assert r1 == r2 and rank1 == rank2


def test_nullspace_identity_and_zero():
    assert nullspace(Matrix.identity(3)).dim == 0
    z = nullspace(Matrix.zeros(2, 2))
    assert z == Subspace.full(2)


def test_nullspace_single_row():
    ns = nullspace(M([[1, 1, 0]]))
    assert ns.dim == 2
    assert ns.contains([1, -1, 0])
    assert ns.contains([0, 0, 1])
    m = M([[1, 1, 0]])
    for row in ns.basis_rows():
        assert m.apply(row) == (F(0),)


def test_subspace_sum_idempotent_and_unit_spans():
    a = span([unit_vec(2, 0)], 2)
    b = span([unit_vec(2, 1)], 2)
    assert a + a == a
    assert a + b == Subspace.full(2)


def test_subspace_sum_diagonal_spans():
    # RREF of [[1,1,0],[1,-1,0]] is [[1,0,0],[0,1,0]]
    a = span([[1, 1, 0]], 3)
    b = span([[1, -1, 0]], 3)
    assert a + b == span([unit_vec(3, 0), unit_vec(3, 1)], 3)


def test_intersect_trivial_cases():
    a = span([[1, 2], [0, 1]], 2)
    assert a.intersect(Subspace.full(2)) == a
    e1 = span([unit_vec(2, 0)], 2)
    e2 = span([unit_vec(2, 1)], 2)
    assert e1.intersect(e2).dim == 0


def test_intersect_overlapping_planes():
    a = span([unit_vec(3, 0), unit_vec(3, 1)], 3)
    b = span([unit_vec(3, 1), unit_vec(3, 2)], 3)
    assert a.intersect(b) == span([unit_vec(3, 1)], 3)


def _intersect_oracle(a: Subspace, b: Subspace) -> Subspace:
    """Independent route: solve s.A - t.B = 0 via the nullspace of the
    stacked coefficient matrix, then map s back through A."""
    n = a.ambient_dim
    arows = a.basis_rows()
    brows = b.basis_rows()
    cols = []
    for k in range(n):
        cols.append([row[k] for row in arows] + [-row[k] for row in brows])
    system = Matrix.from_rows(cols, len(arows) + len(brows)) if cols else Matrix.zeros(0, len(arows) + len(brows))
    ker = nullspace(system)
    out = []
    for coeffs in ker.basis_rows():
        vec = zero_vec(n)
        for c, row in zip(coeffs[:len(arows)], arows):
            vec = tuple(x + c * y for x, y in zip(vec, row))
        out.append(vec)
    return Subspace.from_rows(out, n)


def test_intersect_against_independent_oracle():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 5)
        a = span([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        b = span([[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, n))], n)
        assert a.intersect(b) == _intersect_oracle(a, b)


def test_dimension_formula_examples():
    a = span([[1, 0, 0], [0, 1, 0]], 3)
    b = span([[0, 1, 0], [0, 0, 1]], 3)
    assert (a + b).dim + a.intersect(b).dim == a.dim + b.dim


def test_membership():
    s = span([unit_vec(3, 0), unit_vec(3, 1)], 3)
    assert s.contains(zero_vec(3))
    assert not span([unit_vec(2, 1)], 2).contains(unit_vec(2, 0))
    assert s.contains([1, 1, 0])
    assert not s.contains([1, 1, 1])


def test_solve_affine_identity():
    sol = solve_affine(Matrix.identity(3), [5, F(1, 2), -2])
    assert sol is not None
    assert sol.particular == (F(5), F(1, 2), F(-2))
    assert sol.homogeneous.dim == 0


def test_solve_affine_underdetermined():
    sol = solve_affine(M([[1, 1]]), [2])
    assert sol is not None
    assert sol.particular == (F(2), F(0))
    assert sol.homogeneous == span([[1, -1]], 2)
    # substitute back
    assert M([[1, 1]]).apply(sol.particular) == (F(2),)


def test_solve_affine_inconsistent():
    assert solve_affine(M([[1], [1]]), [0, 1]) is None


def test_solve_affine_random_consistency():
    rng = random.Random(77)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = M([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)], n)
        x0 = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        b = a.apply(x0)
        sol = solve_affine(a, b)
        assert sol is not None  # consistent by construction
        assert a.apply(sol.particular) == b
        for h in sol.homogeneous.basis_rows():
            assert a.apply(h) == zero_vec(m)
        assert sol.homogeneous == nullspace(a)


def test_quotient_basis():
    whole = span([unit_vec(2, 0), unit_vec(2, 1)], 2)
    sub = span([unit_vec(2, 0)], 2)
    assert quotient_basis(whole, whole) == []
    assert quotient_basis(Subspace.zero(2), sub) == [unit_vec(2, 0)]
    ext = quotient_basis(sub, whole)
    assert ext == [unit_vec(2, 1)]
    with pytest.raises(ValueError):
        quotient_basis(span([unit_vec(2, 1)], 2), sub)


def test_quotient_functionals_cut_out_subspace():
    s = span([[1, 2, 0], [0, 0, 1]], 3)
    fns = s.quotient_functionals()
    assert len(fns) == 1
    for row in s.basis_rows():
        assert all(sum(f[k] * row[k] for k in range(3)) == 0 for f in fns)
    v = (F(0), F(1), F(0))  # not in s
    assert any(sum(f[k] * v[k] for k in range(3)) != 0 for f in fns)


def _dense_rref_oracle(rows, cols):
    """Textbook Gauss-Jordan over Fractions: no sparsity, no integer
    tricks.  Independent route for checking the production reducer."""
    m = [list(map(F, r)) for r in rows]
    pivot_row = 0
    for col in range(cols):
        sel = next((r for r in range(pivot_row, len(m)) if m[r][col] != 0), None)
        if sel is None:
            continue
        m[pivot_row], m[sel] = m[sel], m[pivot_row]
        pv = m[pivot_row][col]
        m[pivot_row] = [x / pv for x in m[pivot_row]]
        for r in range(len(m)):
            if r != pivot_row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[pivot_row])]
        pivot_row += 1
    return [tuple(r) for r in m], pivot_row


def test_rref_matches_textbook_dense_oracle():
    rng = random.Random(12345)
    for _ in range(300):
        nr = rng.randint(0, 7)
        nc = rng.randint(1, 7)
        rows = [[F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(nc)]
                for _ in range(nr)]
        if nr >= 2 and rng.random() < 0.5:  # bias toward rank deficiency
            i, j = rng.sample(range(nr), 2)
            rows[i] = [rng.choice([-2, -1, 0, 1, 2]) * x for x in rows[j]]
        got, rank_got = rref(M(rows, nc))
        want_rows, rank_want = _dense_rref_oracle(rows, nc)
        assert rank_got == rank_want
        assert list(got.entries) == want_rows


def test_row_reducer_rank_matches_rref():
    rng = random.Random(5)
    for _ in range(20):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        data = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        red = RowReducer(cols)
        for r in data:
            red.add(r)
        _, rank = rref(M(data, cols))
        assert red.rank == rank


def test_invert():
    m = M([[2, 1], [1, 1]])
    mi = invert(m)
    assert mi is not None
    assert m @ mi == Matrix.identity(2)
    assert invert(M([[1, 2], [2, 4]])) is None


# Reference route: the dense nullspace extraction the reducer used before
# it read solutions off its sparse reduced rows, followed by a second
# reduction.  It reads only the reducer's ``_pivots`` and ``width`` and
# back-substitutes in Fractions, independently of the integer kernel.

def _ref_canonical_rows(red):
    rows = {c: [F(r.get(j, 0), r[c]) for j in range(red.width)]
            for c, r in red._pivots.items()}
    for c in sorted(rows, reverse=True):
        for c2, other in rows.items():
            if c2 != c and other[c]:
                f = other[c]
                rows[c2] = [a - f * b for a, b in zip(other, rows[c])]
    return [tuple(rows[c]) for c in sorted(rows)]


def ref_nullspace_rows(red):
    canon = _ref_canonical_rows(red)
    pivot_cols = sorted(red._pivots)
    pivot_row = {c: canon[i] for i, c in enumerate(pivot_cols)}
    out = []
    for f in (c for c in range(red.width) if c not in red._pivots):
        dense = [F(0)] * red.width
        dense[f] = F(1)
        for p in pivot_cols:
            dense[p] = -pivot_row[p][f]
        out.append(tuple(dense))
    return out


def ref_solution_space(rows, width):
    red = RowReducer(width)
    for row in rows:
        red.add(row)
    return Subspace.from_rows(ref_nullspace_rows(red), width)


def _random_system(rng):
    """Rows of a seeded random system: dense or mapping rows, zero rows,
    dependent rows, integer or fractional entries, any density."""
    width = rng.randint(1, 9)
    density = rng.choice([0.15, 0.4, 0.8, 1.0])
    fractional = rng.random() < 0.5
    rows = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.random()
        if kind < 0.1:
            dense = [0] * width
        elif kind < 0.3 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            ca, cb = rng.randint(-2, 2), F(rng.randint(-3, 3), rng.randint(1, 2))
            dense = [ca * x + cb * y for x, y in zip(a, b)]
        else:
            dense = [(F(rng.randint(-6, 6), rng.randint(1, 5)) if fractional
                      else rng.randint(-6, 6)) if rng.random() < density else 0
                     for _ in range(width)]
        rows.append(dense)
    fed = [row if rng.random() < 0.5 else {c: v for c, v in enumerate(row) if v}
           for row in rows]
    return rows, fed, width


def test_nullspace_matches_reference_route_on_seeded_systems():
    rng = random.Random(2024)
    kinds = set()
    for _ in range(400):
        rows, fed, width = _random_system(rng)
        kinds.update(type(r) for r in fed)
        red = RowReducer(width)
        for row in fed:
            red.add(row)
        assert red.nullspace_rows() == ref_nullspace_rows(red)
        want = ref_solution_space(fed, width)
        got = solution_space(fed, width)
        assert got.basis.entries == want.basis.entries
        assert all(type(x) is F for row in got.basis.entries for x in row)
        assert nullspace(M(rows, width)) == want
    assert kinds == {list, dict}


def _ref_center_rows(L):
    n = L.dim
    for j in range(n):
        for k in range(n):
            yield [L.bracket_basis(i, j)[k] for i in range(n)]


@pytest.mark.parametrize("name", ["example1_16", "example2_17", "deformed_h_16", "free_step2_rank3"])
def test_derivations_and_center_match_reference_route(name):
    L = catalog.get(name).algebra
    n = L.dim
    assert L.derivation_algebra().basis.entries == \
        ref_solution_space(L.leibniz_rows(), n * n).basis.entries
    assert L.center().basis.entries == ref_solution_space(_ref_center_rows(L), n).basis.entries


def test_solution_space_edges():
    assert solution_space([], 3) == Subspace.full(3)
    assert solution_space([{}, [0, 0, 0]], 3) == Subspace.full(3)
    assert solution_space([], 0) == Subspace.zero(0)
    assert solution_space([[1, 0, 0], [0, 0, 1]], 3) == span([unit_vec(3, 1)], 3)
    with pytest.raises(ValueError, match="column 5 out of range 0..3"):
        solution_space([{0: 1}, {5: 2}], 4)
    with pytest.raises(ValueError, match="column -1 out of range 0..3"):
        solution_space([{-1: 1}], 4)
    with pytest.raises(ValueError, match="column 4 out of range 0..3"):
        solution_space([[1, 0, 0, 0, 7]], 4)
    with pytest.raises(TypeError):
        solution_space([[1, 1.5]], 2)
    with pytest.raises(TypeError):
        solution_space([{1: 0.5}], 2)


def test_string_zero_entries_are_zero():
    # "0" is a truthy string: it must be coerced before the zero test, or
    # it is stored as a pivot with lead 0
    red = RowReducer(3)
    assert red.add({0: "0", 1: "1"})
    assert red.canonical_rows() == [(F(0), F(1), F(0))]
    assert not red.add(["0", "-2", "0"])
    assert rref(M([["0", "0", "1"], ["0", "2", "0"]]))[0] == M([[0, 1, 0], [0, 0, 1]])
    assert nullspace(M([["0", "1", "0"]])) == span([unit_vec(3, 0), unit_vec(3, 2)], 3)


def test_solution_space_string_zero_entries():
    assert solution_space([{0: "0", 1: "1"}], 3) == span([unit_vec(3, 0), unit_vec(3, 2)], 3)
    assert solution_space([["0", "0", "0"]], 3) == Subspace.full(3)
    # a string zero out of range is a zero, not a range error
    assert solution_space([{7: "0"}], 2) == Subspace.full(2)
