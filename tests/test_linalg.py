import math
import random
from fractions import Fraction

import pytest

from carnot import catalog
from carnot.linalg import (
    Matrix,
    RowReducer,
    Subspace,
    conjugate,
    invert,
    quotient_basis,
    rat,
    solution_space,
    solve_affine,
    unit_vec,
)

from helpers import (apply, center, col, intersect, matmul, nullspace, reference_add, rref,
                     zero_vec, zeros)
from propsuites import random_unimodular

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
    z = nullspace(zeros(2, 2))
    assert z == Subspace.full(2)


def test_nullspace_single_row():
    ns = nullspace(M([[1, 1, 0]]))
    assert ns.dim == 2
    assert ns.contains([1, -1, 0])
    assert ns.contains([0, 0, 1])
    m = M([[1, 1, 0]])
    for row in ns.basis_rows():
        assert apply(m, row) == (F(0),)


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
    assert intersect(a, Subspace.full(2)) == a
    e1 = span([unit_vec(2, 0)], 2)
    e2 = span([unit_vec(2, 1)], 2)
    assert intersect(e1, e2).dim == 0


def test_intersect_overlapping_planes():
    a = span([unit_vec(3, 0), unit_vec(3, 1)], 3)
    b = span([unit_vec(3, 1), unit_vec(3, 2)], 3)
    assert intersect(a, b) == span([unit_vec(3, 1)], 3)


def _intersect_oracle(a: Subspace, b: Subspace) -> Subspace:
    """Independent route: solve s.A - t.B = 0 via the nullspace of the
    stacked coefficient matrix, then map s back through A."""
    n = a.ambient_dim
    arows = a.basis_rows()
    brows = b.basis_rows()
    cols = []
    for k in range(n):
        cols.append([row[k] for row in arows] + [-row[k] for row in brows])
    system = Matrix.from_rows(cols, len(arows) + len(brows)) if cols else zeros(0, len(arows) + len(brows))
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
        assert intersect(a, b) == _intersect_oracle(a, b)


def test_dimension_formula_examples():
    a = span([[1, 0, 0], [0, 1, 0]], 3)
    b = span([[0, 1, 0], [0, 0, 1]], 3)
    assert (a + b).dim + intersect(a, b).dim == a.dim + b.dim


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
    assert apply(M([[1, 1]]), sol.particular) == (F(2),)


def test_solve_affine_inconsistent():
    assert solve_affine(M([[1], [1]]), [0, 1]) is None


def test_solve_affine_random_consistency():
    rng = random.Random(77)
    for _ in range(40):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = M([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)], n)
        x0 = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        b = apply(a, x0)
        sol = solve_affine(a, b)
        assert sol is not None  # consistent by construction
        assert apply(a, sol.particular) == b
        for h in sol.homogeneous.basis_rows():
            assert apply(a, h) == zero_vec(m)
        assert sol.homogeneous == nullspace(a)


def test_quotient_basis():
    whole = span([unit_vec(2, 0), unit_vec(2, 1)], 2)
    sub = span([unit_vec(2, 0)], 2)
    assert quotient_basis(whole, whole) == []
    assert quotient_basis(Subspace.zero(2), sub) == [((0, F(1)),)]
    ext = quotient_basis(sub, whole)
    assert ext == [((1, F(1)),)]
    with pytest.raises(ValueError, match="not contained"):
        quotient_basis(span([unit_vec(2, 1)], 2), sub)
    # a rank test alone would accept a whole of smaller ambient dimension
    for a, b in ((Subspace.full(2), Subspace.full(3)), (Subspace.zero(3), sub)):
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            quotient_basis(a, b)
        with pytest.raises(ValueError, match="ambient dimension mismatch"):
            quotient_basis(b, a)


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
    assert matmul(m, mi) == Matrix.identity(2)
    assert invert(M([[1, 2], [2, 4]])) is None
    # against the rref of [m | I]: [I | m^-1] when m is invertible, and a
    # left block other than I when it is singular
    rng = random.Random(263)
    cases = [M([], 0), M([[1, 2, 3], [2, 4, 6], [0, 1, 1]]), M([[0, 0], [0, 0]])]
    for n in range(1, 9):
        for _ in range(3):
            cases.append(M([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]))
            cases.append(M([[F(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)]
                            for _ in range(n)]))
        if n > 1:
            cases.append(random_unimodular(n, rng, shears=2 * n))
    inverted = singular = 0
    for m in cases:
        n = m.rows
        reduced, _ = rref(M([list(row) + list(unit_vec(n, i)) for i, row in enumerate(m.entries)],
                            2 * n))
        if all(row[:n] == unit_vec(n, i) for i, row in enumerate(reduced.entries)):
            assert invert(m) == Matrix(n, n, tuple(row[n:] for row in reduced.entries))
            inverted += 1
        else:
            assert invert(m) is None
            singular += 1
    assert inverted > 20 and singular >= 2
    with pytest.raises(ValueError, match="square"):
        invert(M([[1, 2, 3], [4, 5, 6]]))


def test_conjugate_matches_dense_product():
    # M p_a = sum_r A[r][a] p_r, so M = P A P^-1, for a full A: every
    # entry nonzero, so no block structure lines up with the basis
    rng = random.Random(83)
    for n in range(2, 8):
        for _ in range(5):
            p = random_unimodular(n, rng, shears=2 * n)
            a = M([[F(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for _ in range(n)]
                   for _ in range(n)], n)
            basis = [tuple((i, x) for i, x in enumerate(col(p, j)) if x) for j in range(n)]
            images = [{r: a.entries[r][j] for r in range(n)} for j in range(n)]
            assert conjugate(basis, images) == matmul(p, a, invert(p))
    assert conjugate([], []) == Matrix(0, 0, ())
    with pytest.raises(ValueError, match="not a basis"):
        conjugate([((0, F(1)),), ((0, F(2)),)], [{}, {}])


def test_conjugate_stacks_maps_on_copies_of_the_space():
    # an image key s n + r stands for p_r in the s-th copy of the space, so
    # one elimination gives the conjugates of several image sets, stacked
    rng = random.Random(89)
    for n in range(2, 6):
        p = random_unimodular(n, rng, shears=2 * n)
        basis = [tuple((i, x) for i, x in enumerate(col(p, j)) if x) for j in range(n)]
        sets = [[{r: F(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)) for r in range(n)}
                 for _ in range(n)] for _ in range(3)]
        stacked = [{s * n + r: x for s, images in enumerate(sets) for r, x in images[a].items()}
                   for a in range(n)]
        want = [row for images in sets for row in conjugate(basis, images).entries]
        assert conjugate(basis, stacked) == M(want, n)


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
        assert got.rows == want.rows
        assert all(type(x) is F and x for row in got.rows for _, x in row)
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
    assert L.derivation_algebra().rows == ref_solution_space(L.leibniz_rows(), n * n).rows
    assert center(L).rows == ref_solution_space(_ref_center_rows(L), n).rows


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


def test_dense_rows_of_the_wrong_length_are_rejected():
    # a dense row has exactly ``width`` entries; a longer one is rejected
    # even when its extra entries are zero
    for row in ([1, 0, 0, 0], [0, 0, 0], [1], []):
        red = RowReducer(2)
        with pytest.raises(ValueError):
            red.add(row)
        assert red.rank == 0
    with pytest.raises(ValueError, match="column 2 out of range 0..1"):
        solution_space([[1, 0, 0]], 2)
    with pytest.raises(ValueError, match="dense row of length 1 in width 2"):
        solution_space([[1]], 2)
    with pytest.raises(ValueError, match="dense row of length 2 in width 3"):
        Subspace.from_rows([[1, 0, 0], [0, 1]], 3)
    assert solution_space([[1, 0]], 2) == span([unit_vec(2, 1)], 2)


def test_string_zero_entries_are_zero():
    # "0" is a truthy string: it must be coerced before the zero test, or
    # it is stored as a pivot with lead 0
    red = RowReducer(3)
    assert red.add({0: "0", 1: "1"})
    assert red.echelon() == {1: ((1, F(1)),)}
    assert not red.add(["0", "-2", "0"])
    assert rref(M([["0", "0", "1"], ["0", "2", "0"]]))[0] == M([[0, 1, 0], [0, 0, 1]])
    assert nullspace(M([["0", "1", "0"]])) == span([unit_vec(3, 0), unit_vec(3, 2)], 3)


def test_solution_space_string_zero_entries():
    assert solution_space([{0: "0", 1: "1"}], 3) == span([unit_vec(3, 0), unit_vec(3, 2)], 3)
    assert solution_space([["0", "0", "0"]], 3) == Subspace.full(3)
    # a string zero out of range is a zero, not a range error
    assert solution_space([{7: "0"}], 2) == Subspace.full(2)


def test_subspace_rows_are_sparse_canonical():
    s = span([[0, 2, 4, 0], [0, 0, 0, 3], [0, 1, 2, 5]], 4)
    assert s.rows == (((1, F(1)), (2, F(2))), ((3, F(1)),))
    assert s.basis_rows() == ((0, 1, 2, 0), (0, 0, 0, 1))
    assert Subspace.full(2).rows == (((0, F(1)),), ((1, F(1)),))


def test_contains_matches_dense_oracle():
    # v lies in the span of the rows iff it adds no rank to them (rref) iff
    # it is orthogonal to every solution of rows . x = 0 (nullspace)
    rng = random.Random(61)
    for _ in range(200):
        rows, fed, width = _random_system(rng)
        sub = Subspace.from_rows(fed, width)
        rank = rref(M(rows, width))[1]
        kernel = nullspace(M(rows, width)).basis_rows()
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in rows]
        inside = [sum((c * row[i] for c, row in zip(coeffs, rows)), F(0)) for i in range(width)]
        outside = [F(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.6 else F(0)
                   for _ in range(width)]
        for v in (inside, outside, [0] * width):
            want = rref(M(rows + [v], width))[1] == rank
            assert want == all(sum(a * b for a, b in zip(v, k)) == 0 for k in kernel)
            assert sub.contains(v) == want
            assert sub.contains({c: x for c, x in enumerate(v) if x}) == want
        assert sub.contains(inside)
        for bad in ([0] * (width + 1), [1] * (width - 1), {width: 1}):
            with pytest.raises(ValueError):
                sub.contains(bad)
        # either lead order stores the canonical rows with 1 at the lead
        for reverse in (False, True):
            red = RowReducer(width, reverse=reverse)
            for row in fed:
                red.add(row)
            echelon = red.echelon()
            assert all(row[-1 if reverse else 0] == (p, 1) for p, row in echelon.items())
            assert len(echelon) == rank


# -- row order and the integral fast path of RowReducer._to_sparse_int ----------

def _mixed_scalar(rng):
    """A nonzero exact scalar of one of the accepted kinds."""
    p, q = rng.choice([-5, -3, -2, -1, 1, 2, 4, 7]), rng.randint(2, 6)
    return rng.choice([p, F(p), F(p, q), f"{p}/{q}"])


def _mixed_system(rng):
    """Rows of a seeded sparse system whose entries mix int, integral and
    non-integral Fractions and "p/q" strings (zeros as 0, F(0) or "0"),
    fed as dense lists or as mappings, which may carry explicit zeros;
    with dependent rows, and the dense rows as Fractions."""
    width = rng.randint(1, 12)
    rows, fed = [], []
    for _ in range(rng.randint(0, 14)):
        if rows and rng.random() < 0.25:
            a, b = rng.choice(rows), rng.choice(rows)
            c = F(rng.randint(-3, 3), rng.randint(1, 3))
            entries = {j: x + c * b[j] for j, x in enumerate(a) if x + c * b[j]}
            entries = {j: rng.choice([x, str(x)]) for j, x in entries.items()}
        else:
            entries = {j: _mixed_scalar(rng) for j in range(width) if rng.random() < 0.3}
        if rng.random() < 0.5:
            row = [entries.get(j, rng.choice([0, F(0), "0"])) for j in range(width)]
        else:
            row = dict(entries)
            for j in rng.sample(range(width), rng.randint(0, min(2, width))):
                row.setdefault(j, rng.choice([0, F(0), "0"]))
        rows.append(tuple(rat(entries.get(j, 0)) for j in range(width)))
        fed.append(row)
    return rows, fed, width


def test_solution_space_independent_of_row_order():
    rng = random.Random(1957)
    kinds = set()
    for _ in range(300):
        rows, fed, width = _mixed_system(rng)
        kinds.update(type(x) for row in fed for x in (row.values() if isinstance(row, dict) else row))
        want = nullspace(M(rows, width))
        assert want == ref_solution_space(fed, width)
        for _ in range(4):
            rng.shuffle(fed)
            assert solution_space(fed, width) == want
    assert kinds == {int, F, str}


def _conjugated_example1(seed):
    L = catalog.get("example1_16").algebra
    return L.change_of_basis(random_unimodular(L.dim, random.Random(seed)))


def test_derivations_independent_of_leibniz_row_order():
    L = _conjugated_example1(13)
    n2 = L.dim ** 2
    rows = list(L.leibniz_rows())
    want = nullspace(M([[row.get(c, 0) for c in range(n2)] for row in rows], n2))
    assert want.dim == 61
    assert L.derivation_algebra() == want
    rng = random.Random(14)
    for _ in range(3):
        rng.shuffle(rows)
        assert solution_space(rows, n2) == want


def test_solution_space_feeds_rows_shortest_first(monkeypatch):
    # the rows reach the reducer sorted by length (Markowitz's rule), and
    # the Leibniz rows are not generated in that order
    L = _conjugated_example1(13)
    n2 = L.dim ** 2
    lengths = []
    real_add = RowReducer.add

    def add(self, row):
        if self.width == n2:
            lengths.append(len(row))
        return real_add(self, row)

    with monkeypatch.context() as m:
        m.setattr(RowReducer, "add", add)
        assert L.derivation_algebra().dim == 61
    generated = [len(row) for row in L.leibniz_rows()]
    assert len(lengths) == len(generated)
    assert lengths == sorted(generated)
    assert generated != lengths


def _lcm_route(row, width):
    """The integer row of the coercion before the fast path: ``rat`` and
    ``math.lcm`` on every nonzero entry, then the content divided out."""
    pairs = row.items() if isinstance(row, dict) else enumerate(row)
    items = {c: rat(v) for c, v in pairs if rat(v)}
    lcm = math.lcm(1, *(x.denominator for x in items.values()))
    ints = {c: x.numerator * (lcm // x.denominator) for c, x in items.items()}
    g = math.gcd(*ints.values())
    return {c: v // g for c, v in ints.items()}


def test_to_sparse_int_fast_path_edges():
    red = RowReducer(3)
    with pytest.raises(TypeError):
        red.add([0.5, 0, 0])
    with pytest.raises(TypeError):
        red.add({1: 0.5})
    assert red.add({0: "0", 1: "1"})
    assert red._pivots == {1: {1: 1}}
    with pytest.raises(ValueError, match="column 3 out of range 0..2"):
        red.add({3: 1})
    with pytest.raises(ValueError, match="column 3 out of range 0..2"):
        red.add({0: F(1, 2), 3: F(7)})
    for zero in (0, F(0), "0"):
        assert not red.add({3: zero})
    assert red._pivots == {1: {1: 1}}


def test_add_on_int_and_mixed_rows_matches_all_fraction_rows():
    # plain ints (the private indexes' format for integral values), mixed
    # int / Fraction / "p/q" rows and int zeros give the same pivots,
    # ranks, echelon rows and nullspace as the same rows all in Fraction
    rows = [[2, 0, -4, 6, 0],
            {4: 1, 0: 0, 1: F(1, 2), 3: "-3/4"},
            [F(2, 3), "5", 0, 7, F(0)],
            {2: 3, 3: F(9, 2), 0: "0"},
            [0, 0, 0, 0, 0],
            {1: -1, 3: "3/2", 4: -2},  # -2 times row 1
            [2, 0, "-1", F(21, 2), 0]]  # rows 0 and 3 added
    for reverse in (False, True):
        red, ref = RowReducer(5, reverse), RowReducer(5, reverse)
        for row in rows:
            pairs = row.items() if isinstance(row, dict) else enumerate(row)
            assert red.add(row) == ref.add({c: rat(x) for c, x in pairs})
            assert red._pivots == ref._pivots
        assert red.rank == ref.rank == 4
        assert red.echelon() == ref.echelon()
        assert red.sparse_nullspace() == ref.sparse_nullspace()
        assert all(type(x) is F for row in red.echelon().values() for _, x in row)
    red = RowReducer(3)
    assert not red.add([0, 0, 0]) and not red.add({2: 0, 0: "0", 1: F(0)})
    for row in ([1, 2, 0.5], {0: 1, 2: 0.25}, {0: 1.0}, [F(1, 2), "1", 3.0]):
        with pytest.raises(TypeError):
            red.add(row)
    for row in ({3: 1}, {0: 2, 5: 1}, {-1: 4}):
        with pytest.raises(ValueError, match="out of range 0..2"):
            red.add(row)
    assert red.rank == 0


def test_to_sparse_int_matches_lcm_route():
    # denominators 2, 3 and 6 in every order: the running lcm is skipped
    # when a denominator already divides it, and all-integral rows take
    # the numerators directly
    rows = [{0: F(1, 2), 1: F(1, 3), 2: F(1, 6)},
            {0: F(5, 6), 1: "1/2", 2: F(4, 3)},
            [F(7, 6), F(3, 2), 1],
            {2: F(2, 3), 0: F(-1, 6), 1: F(3, 2)},
            [F(4), 6, "-10"]]
    for order in ([0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 0, 4, 3, 1]):
        red, ref = RowReducer(3), RowReducer(3)
        for i in order:
            assert red._to_sparse_int(rows[i]) == _lcm_route(rows[i], 3)
            red.add(rows[i])
            ref.add(_lcm_route(rows[i], 3))
        assert red._pivots == ref._pivots
    rng = random.Random(2)
    for _ in range(200):
        _, fed, width = _mixed_system(rng)
        red = RowReducer(width)
        assert all(red._to_sparse_int(row) == _lcm_route(row, width) for row in fed)


# -- the in-place unit-lead step of RowReducer.add -----------------------------

def test_unit_lead_step_reduces_content_when_stored():
    # (1, -1) minus the unit pivot (1, 1) leaves (0, -2), of content 2:
    # the stored pivot is the primitive row with positive lead
    for reverse, first, second, col in ((False, {0: 1, 1: 1}, {0: 1, 1: -1}, 1),
                                        (True, {1: 1, 0: 1}, {1: 1, 0: -1}, 0)):
        red = RowReducer(2, reverse)
        assert red.add(first) and red.add(second)
        assert red._pivots[col] == {col: 1}
        assert red.echelon() == {0: ((0, F(1)),), 1: ((1, F(1)),)}


def test_add_leaves_the_callers_row_unchanged():
    red = RowReducer(3)
    rows = [{0: 1, 1: 2}, {0: 1, 1: 2, 2: 4}, {0: 3, 1: 6, 2: 4}, {0: F(1, 2), 1: "1"}]
    copies = [dict(row) for row in rows]
    assert [red.add(row) for row in rows] == [True, True, False, False]
    assert rows == copies
    assert all(piv is not row for piv in red._pivots.values() for row in rows)


def test_add_matches_a_reduce_every_step_reference():
    # _eliminate at every step (a new content-reduced row each time) and
    # the in-place unit-lead step store the same pivots, so the echelon
    # rows and the nullspace agree too, on integral and mixed systems
    rng = random.Random(1616)
    unit_leads = set()
    for i in range(300):
        _, fed, width = (_random_system if i % 2 else _mixed_system)(rng)
        for reverse in (False, True):
            red, ref = RowReducer(width, reverse), RowReducer(width, reverse)
            for row in fed:
                assert red.add(row) == reference_add(ref, row)
                assert red._pivots == ref._pivots
            assert red.echelon() == ref.echelon()
            assert red.sparse_nullspace() == ref.sparse_nullspace()
            unit_leads.update(piv[p] == 1 for p, piv in red._pivots.items())
    assert unit_leads == {True, False}  # both kinds of step were taken


# -- Record: the immutable base of the value classes ---------------------------

def _record_classes():
    from carnot import grading, liealg, report, tanaka
    return [Matrix, Subspace, liealg.LieAlgebra, liealg.SeriesReport,
            grading.Stratification, grading.Filtration, grading.StratifiabilityVerdict,
            catalog.CatalogEntry, catalog.ExpectedFacts, report.Analysis,
            tanaka.AdaptedFrame, tanaka.HomElement, tanaka.ProlongationResult,
            tanaka.RigidityVerdict]


def _frozen_reference(cls):
    """A frozen dataclass with the annotations and defaults of ``cls``
    (and its own ``__repr__``, if it defines one)."""
    import dataclasses

    namespace = {"__annotations__": dict(cls.__annotations__), "__qualname__": cls.__qualname__}
    namespace.update((k, v) for k, v in vars(cls).items() if k in cls.__annotations__)
    if "__repr__" in vars(cls):
        namespace["__repr__"] = vars(cls)["__repr__"]
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def _sample_values(cls, salt=0):
    if cls is Matrix:
        return (1, 2, ((F(1), F(salt, 3)),))
    pool = [F(salt, 2), (salt, "x"), "y", None, ((0, F(1)),), True, 7]
    return tuple(pool[(i + salt) % len(pool)] for i in range(len(cls.__annotations__)))


@pytest.mark.parametrize("cls", _record_classes(), ids=lambda c: c.__name__)
def test_record_matches_frozen_dataclass(cls):
    import dataclasses

    ref = _frozen_reference(cls)
    assert cls._fields == tuple(f.name for f in dataclasses.fields(ref))
    for salt in range(3):
        values = _sample_values(cls, salt)
        a, b, r = cls(*values), cls(*values), ref(*values)
        assert repr(a) == repr(r)
        assert a == b and not (a != b) and hash(a) == hash(b) == hash(r)
        assert a.__eq__(r) is NotImplemented and a != r
        assert cls(**dict(zip(cls._fields, values))) == a
        other = cls(*_sample_values(cls, salt + 1))
        assert (a == other) == (r == ref(*_sample_values(cls, salt + 1))) is False
        for name in (cls._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, 0)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert tuple(getattr(a, name) for name in cls._fields) == values
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(**dict(zip(cls._fields[1:], values[1:])))
        with pytest.raises(TypeError):
            cls(*values, 0)
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})
        with pytest.raises(TypeError):
            cls(*values, unknown=0)
        with pytest.raises(TypeError):
            cls(*values[:-1], **{cls._fields[-1]: values[-1], "unknown": 0})


def test_records_are_the_fourteen_value_classes():
    from carnot.linalg import Record

    assert set(Record.__subclasses__()) == set(_record_classes())


def test_record_equal_fields_in_different_classes_are_unequal():
    from carnot.grading import Filtration, StratifiabilityVerdict, Stratification
    from carnot.tanaka import RigidityVerdict

    layers = (Subspace.full(2),)
    assert Stratification(layers) != Filtration(layers)
    assert Stratification(layers).__eq__(Filtration(layers)) is NotImplemented
    assert hash(Stratification(layers)) == hash(Filtration(layers)) == hash((layers,))
    assert RigidityVerdict(1, True, None) != StratifiabilityVerdict(1, True, None)
    classes = _record_classes()
    for cls in classes:
        for other in classes:
            # Matrix checks its shape, so it only takes its own sample values
            if other not in (cls, Matrix) and len(other._fields) == len(cls._fields):
                values = _sample_values(cls)
                assert cls(*values) != other(*values)


def test_record_keywords_and_defaults():
    from carnot.catalog import ExpectedFacts
    from carnot.tanaka import HomElement

    facts = ExpectedFacts(step=2, layer_dims=None)
    assert facts == ExpectedFacts(2, None, None, None, None)
    assert repr(facts) == ("ExpectedFacts(step=2, layer_dims=None, g0_dim=None, "
                           "ultrarigid=None, stratifiable=None)")
    assert ExpectedFacts(2, (1, 1), stratifiable=True).stratifiable is True
    with pytest.raises(TypeError, match="missing required argument: 'layer_dims'"):
        ExpectedFacts(step=2)
    with pytest.raises(TypeError, match="unexpected keyword argument 'steps'"):
        ExpectedFacts(steps=2, layer_dims=None)
    with pytest.raises(TypeError, match="multiple values for argument 'step'"):
        ExpectedFacts(2, None, step=3)
    u = HomElement(entries=((0, F(1)),), shapes=((1, 2),), degree=-1)
    assert u == HomElement(-1, ((1, 2),), ((0, F(1)),))
    # a cached index lives in the instance __dict__, outside the fields
    assert u._image(0) == {0: 1}
    assert u == HomElement(-1, ((1, 2),), ((0, F(1)),)) and "_images" in vars(u)
    assert hash(u) == hash((-1, ((1, 2),), ((0, F(1)),)))


def test_matrix_keeps_its_shape_check():
    with pytest.raises(ValueError, match="ragged matrix"):
        Matrix(2, 2, ((F(1), F(0)), (F(1),)))
    with pytest.raises(ValueError, match="row count mismatch"):
        Matrix(3, 1, ((F(1),),))
    with pytest.raises(ValueError, match="ragged matrix"):
        Matrix(rows=1, cols=2, entries=((F(1),),))
    assert Matrix(rows=1, cols=1, entries=((F(1),),)) == Matrix.identity(1)
    with pytest.raises(TypeError):
        Matrix(1, 1)
