import random
from fractions import Fraction
from math import comb, gcd

import pytest

from carnot import catalog
from carnot.algfile import parse
from carnot.grading import (coordinate_layers, grading_derivation, is_stratifiable,
                            nilpotentisation, verify_stratification)
from carnot.liealg import LieAlgebra
from carnot.linalg import Matrix, Subspace, invert, solution_space, solve_affine, unit_vec
from carnot.tanaka import (
    AdaptedFrame,
    ComponentNotComputedError,
    HomElement,
    MembershipError,
    ProlongationResult,
    _add_scaled,
    _solve_component,
    degree_zero_derivations,
    hom0_to_endo,
    prolong,
    ultrarigidity_check,
)

from helpers import (apply, basis_matrix, from_flat, grading_element, hom_blocks, hom_from_blocks,
                     intersect, is_derivation, is_zero_vec, nullspace, pair_rows, random_two_step,
                     reference_tower_rows, rref, transpose, two_step_dual, two_step_g0_dim,
                     two_step_type, zero_vec, zeros)
from propsuites import random_unimodular

F = Fraction


def heisenberg3():
    return LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})


def abelian(n):
    return LieAlgebra.from_brackets(n, {})


def strat_of(entry):
    return verify_stratification(
        entry.algebra, coordinate_layers(entry.algebra.dim, entry.declared_layers))


@pytest.fixture(scope="module")
def ex1():
    entry = catalog.get("example1_16")
    return entry.algebra, strat_of(entry)


@pytest.fixture(scope="module")
def ex2():
    entry = catalog.get("example2_17")
    return entry.algebra, strat_of(entry)


@pytest.fixture(scope="module")
def h3():
    L = heisenberg3()
    return L, verify_stratification(L, coordinate_layers(3, [(1, 2), (3, 3)]))


@pytest.fixture(scope="module")
def h3_prolonged(h3):
    L, s = h3
    return prolong(L, s, 4)


def contact_monomial_count(degree: int, n: int = 1) -> int:
    """Monomials in 2n variables of weight 1 and one of weight 2 with
    total weight ``degree``; the contact vector fields of weighted degree
    k are parametrized by Hamiltonians of weight k + 2, so this counts the
    degree-k prolongation component of the (2n+1)-dim Heisenberg symbol."""
    return sum(comb(degree - 2 * j + 2 * n - 1, 2 * n - 1) for j in range(degree // 2 + 1))


def block_diagonal_span(layer_dims):
    """Flattened endomorphisms preserving each coordinate layer."""
    n = sum(layer_dims)
    rows = []
    start = 0
    for d in layer_dims:
        for r in range(start, start + d):
            for c in range(start, start + d):
                rows.append(unit_vec(n * n, r * n + c))
        start += d
    return Subspace.from_rows(rows, n * n)


# ---------------------------------------------------------------------------
# degree 0
# ---------------------------------------------------------------------------

def test_g0_example1_is_spanned_by_grading_derivation(ex1):
    L, s = ex1
    g0 = degree_zero_derivations(L, s)
    assert g0.dim == 1
    D = grading_derivation(s)
    assert g0.basis_rows() == (D.flatten(),)


def test_g0_example2(ex2):
    L, s = ex2
    g0 = degree_zero_derivations(L, s)
    assert g0.dim == 1
    assert g0.basis_rows() == (grading_derivation(s).flatten(),)


def test_g0_heisenberg_equals_hand_family(h3):
    L, s = h3
    g0 = degree_zero_derivations(L, s)
    assert g0.dim == 4
    # a derivation preserving the layers is determined by its V1 block
    # [[a, d], [b, f]]; the center then scales by a + f
    def endo(a, b, d, f):
        return Matrix.from_rows([[a, d, 0], [b, f, 0], [0, 0, a + f]], 3)
    hand = Subspace.from_rows([
        endo(1, 0, 0, 0).flatten(),
        endo(0, 1, 0, 0).flatten(),
        endo(0, 0, 1, 0).flatten(),
        endo(0, 0, 0, 1).flatten(),
    ], 9)
    assert g0 == hand


@pytest.mark.parametrize("name", ["heisenberg_3", "free_step2_rank3",
                                  "heisenberg_2n1(2)", "example1_16"])
def test_g0_equals_derivations_intersect_layer_preserving(name):
    entry = catalog.get(name)
    L = entry.algebra
    s = strat_of(entry)
    g0 = degree_zero_derivations(L, s)
    dual = intersect(L.derivation_algebra(), block_diagonal_span(s.layer_dims))
    assert g0 == dual


def test_g0_heisenberg5_conformal_symplectic_count():
    entry = catalog.get("heisenberg_2n1(2)")
    L, s = entry.algebra, strat_of(entry)
    g0 = degree_zero_derivations(L, s)
    # independent count: the V1 block A must satisfy w(Ax, y) + w(x, Ay)
    # = lam * w(x, y) for the symplectic form w given by the bracket;
    # the constraint matrix A^T J + J A - lam J is antisymmetric 4x4,
    # so 6 equations in 17 unknowns
    rows = []
    for i in range(4):
        for j in range(i + 1, 4):
            row = [F(0)] * 17
            for l in range(4):
                row[l * 4 + j] += L.bracket_basis(i, l)[4]   # w(Ae_j, e_i) part
                row[l * 4 + i] += L.bracket_basis(l, j)[4]   # w(e_i, Ae_j) ... assembled below
            row[16] = -L.bracket_basis(i, j)[4]
            rows.append(row)
    _, rank = rref(Matrix.from_rows(rows, 17))
    assert g0.dim == 17 - rank == 11


def test_g0_free_contains_induced_maps():
    entry = catalog.get("free_step2_rank3")
    L, s = entry.algebra, strat_of(entry)
    g0 = degree_zero_derivations(L, s)
    assert g0.dim == 9
    # every A on the generators extends freely: on V2 = span of [e_a, e_b]
    # the extension acts as the induced derivation [A e_a, e_b] + [e_a, A e_b]
    rng = random.Random(2)
    pairs = [(0, 1), (0, 2), (1, 2)]
    for _ in range(5):
        A = [[F(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        rows = [[F(0)] * 6 for _ in range(6)]
        for i in range(3):
            for j in range(3):
                rows[i][j] = A[i][j]
        for t, (a, b) in enumerate(pairs):
            for u, (c, d) in enumerate(pairs):
                val = F(0)
                if b == d:
                    val += A[c][a]
                if b == c:
                    val -= A[d][a]
                if a == c:
                    val += A[d][b]
                if a == d:
                    val -= A[c][b]
                rows[3 + u][3 + t] = val
        induced = Matrix.from_rows(rows, 6)
        assert is_derivation(L, induced)
        assert g0.contains(induced.flatten())


def test_g0_elements_are_block_diagonal_derivations(ex1):
    L, s = ex1
    g0 = degree_zero_derivations(L, s)
    for flat in g0.basis_rows():
        u = from_flat(flat, 16, 16)
        assert is_derivation(L, u)
        for v in s.layers:
            for row in v.basis_rows():
                assert v.contains(apply(u, row))


# ---------------------------------------------------------------------------
# prolongation towers
# ---------------------------------------------------------------------------

def test_prolong_heisenberg_matches_contact_hamiltonian_count(h3_prolonged):
    result = h3_prolonged
    assert result.dims == (4, 6, 9, 12, 16)
    assert result.finite is None
    for k, d in enumerate(result.dims):
        assert d == contact_monomial_count(k + 2)


def test_prolong_heisenberg5_matches_contact_hamiltonian_count():
    entry = catalog.get("heisenberg_2n1(2)")
    result = prolong(entry.algebra, strat_of(entry), 4)
    assert result.dims == (11, 24, 46, 80, 130)
    assert result.finite is None
    assert result.dims == tuple(contact_monomial_count(k + 2, 2) for k in range(5))


def test_prolong_heisenberg9_matches_contact_hamiltonian_count():
    entry = catalog.get("heisenberg_2n1(4)")
    result = prolong(entry.algebra, strat_of(entry), 3)
    assert result.dims == (37, 128, 367, 920)
    assert result.dims == tuple(contact_monomial_count(k + 2, 4) for k in range(4))
    assert result.finite is None


def test_prolong_heisenberg11_matches_contact_hamiltonian_count():
    entry = catalog.get("heisenberg_2n1(5)")
    result = prolong(entry.algebra, strat_of(entry), 3)
    assert result.dims == (56, 230, 771, 2232)
    assert result.dims == tuple(contact_monomial_count(k + 2, 5) for k in range(4))
    assert result.finite is None


@pytest.mark.parametrize("name,cap", [
    ("heisenberg_2n1(1)", 3),
    ("heisenberg_2n1(2)", 3),
    ("heisenberg_2n1(3)", 3),
    ("example1_16", 2),
    ("free_step2_rank3", 2),
])
def test_sparse_bases_equal_dense_solution_space(name, cap, monkeypatch):
    # record the Leibniz rows each degree hands to solution_space, then
    # solve the same rows with the dense solution_space; independently of
    # the elimination order, each stored vector solves every row and the
    # count is width - rank from a plain (lowest-lead) reducer
    from carnot.linalg import RowReducer

    entry = catalog.get(name)
    s = strat_of(entry)
    result, systems = _recorded_tower_rows(entry.algebra, s, cap, monkeypatch)
    for k, ((width, rows), basis) in enumerate(zip(systems, result.bases)):
        flats = tuple(el.flatten() for el in basis)
        assert flats == solution_space(rows, width).basis_rows()
        assert all(el.degree == k and el.shapes == result._shapes(k) for el in basis)
        plain = RowReducer(width)
        by_col = {}
        for i, row in enumerate(rows):
            plain.add(row)
            for c, x in row.items():
                by_col.setdefault(c, []).append((i, x))
        assert len(basis) == width - plain.rank
        for el in basis:
            residual = {}
            for c, x in el.entries:
                for i, y in by_col.get(c, ()):
                    residual[i] = residual.get(i, 0) + x * y
            assert not any(residual.values())
    again = prolong(entry.algebra, s, cap)
    assert again == result and hash(again) == hash(result)


def _recorded_tower_rows(L, s, cap, monkeypatch):
    """The tower of ``L`` to ``cap`` and the (width, rows) that each degree
    handed to ``solution_space``, rows as generated."""
    import carnot.tanaka

    systems = []
    real = carnot.tanaka.solution_space

    def recording(rows, width):
        rows = [dict(row) for row in rows]
        systems.append((width, rows))
        return real(rows, width)

    with monkeypatch.context() as m:
        m.setattr(carnot.tanaka, "solution_space", recording)
        result = prolong(L, s, cap)
    assert len(systems) == len(result.bases)
    return result, systems


def test_tower_system_sizes_heisenberg7(monkeypatch):
    # (unknowns, Leibniz rows, rank) per degree of the contact tower of
    # heisenberg_2n1(3); rank = unknowns - dim g_k, dims (22, 62, 148, 314)
    entry = catalog.get("heisenberg_2n1(3)")
    result, systems = _recorded_tower_rows(entry.algebra, strat_of(entry), 3, monkeypatch)
    sizes = [(width, len(rows), width - len(basis))
             for (width, rows), basis in zip(systems, result.bases)]
    assert sizes == [(37, 15, 15), (138, 96, 76), (394, 366, 246), (950, 1062, 636)]


@pytest.mark.parametrize("name, cap", [("heisenberg_2n1(2)", 3), ("example2_17", 1),
                                       ("rational_heisenberg3", 3), ("free(2,3)", 4),
                                       ("ultrarigid_7", 3)])
def test_tower_rows_match_every_generator_assembly(name, cap, monkeypatch):
    # the target index walks only the generators w_r with [e_b, w_r] != 0;
    # the rows equal, row for row and in order, those of the assembly that
    # asks every generator.  The step-3 towers read each kept index in
    # three degrees
    if name == "rational_heisenberg3":
        L = rational_heisenberg3()
        s = is_stratifiable(L).derived_stratification
    elif name == "free(2,3)":
        L, s = free_2_3()
    else:
        entry = catalog.get(name)
        L, s = entry.algebra, strat_of(entry)
    result, systems = _recorded_tower_rows(L, s, cap, monkeypatch)
    for k, (width, rows) in enumerate(systems):
        assert rows == reference_tower_rows(result.frame, k, result.bases[:k], result.dims[:k])
        assert width == sum(r * c for r, c in result._shapes(k))
    assert any(rows for _, rows in systems)


def test_prolong_builds_each_target_index_once(monkeypatch):
    # degree t is read by the step degrees t+1..t+step; prolong builds it
    # once, with the stored basis of g_t, and drops it after degree t+step
    import carnot.tanaka

    built, kept = [], []
    real, real_solve = carnot.tanaka._target_index, carnot.tanaka._solve_component

    def counting(frame, t, bases):
        built.append(t)
        return real(frame, t, bases)

    def solve(frame, k, bases, dims, index):
        out = real_solve(frame, k, bases, dims, index)
        kept.append(sorted(index))
        return out

    monkeypatch.setattr(carnot.tanaka, "_target_index", counting)
    monkeypatch.setattr(carnot.tanaka, "_solve_component", solve)
    result = prolong(*free_2_3(), 6)
    assert result.dims == (4, 2, 1, 2, 0)
    assert built == list(range(-3, 4))
    assert kept == [list(range(k - 3, k)) for k in range(5)]


def test_add_scaled_by_one_adds_the_values_themselves():
    x, y = F(1, 3), F(-2, 5)
    acc = _add_scaled({0: F(1)}, 1, [(0, y), (2, x)])
    assert acc == {0: F(3, 5), 2: x} and acc[2] is x
    assert _add_scaled({2: 1}, F(1), [(2, -1)]) == {2: 0}
    assert _add_scaled({}, F(3, 2), [(1, 2), (4, x)]) == {1: 3, 4: F(1, 2)}


def test_prolong_stores_canonical_bases():
    entry = catalog.get("heisenberg_2n1(2)")
    result = prolong(entry.algebra, strat_of(entry), 3)
    for basis in result.bases:
        flats = tuple(el.flatten() for el in basis)
        assert Subspace.from_rows(flats, len(flats[0])).basis_rows() == flats


def test_prolong_heisenberg_g1_dim_against_hand_system(h3_prolonged):
    # unknowns (a1..a4, b1..b4, w1, w2): u(e1), u(e2) in g0 and u(e3) in V1;
    # the Leibniz condition on the three basis pairs reduces to 4 equations
    hand = Matrix.from_rows([
        [0, 0, -1, 0, 1, 0, 0, 0, 1, 0],   # w1 = a3 - b1
        [0, 0, 0, -1, 0, 1, 0, 0, 0, 1],   # w2 = a4 - b2
        [1, 0, 0, 1, 0, 0, 0, 0, 0, 1],    # a1 + a4 + w2 = 0
        [0, 0, 0, 0, 1, 0, 0, 1, -1, 0],   # b1 + b4 - w1 = 0
    ], 10)
    _, rank = rref(hand)
    assert 10 - rank == 6 == h3_prolonged.dims[1]


def test_prolong_abelian_matches_polynomial_vector_field_count():
    L = abelian(2)
    s = verify_stratification(L, [Subspace.full(2)])
    result = prolong(L, s, 6)
    assert result.finite is None
    assert result.dims == tuple(2 * (k + 2) for k in range(7))
    L3 = abelian(3)
    s3 = verify_stratification(L3, [Subspace.full(3)])
    r3 = prolong(L3, s3, 3)
    assert r3.dims == tuple(3 * comb(3 + k, k + 1) for k in range(4))


def test_prolong_example1_terminates_at_degree_one(ex1):
    L, s = ex1
    result = prolong(L, s, 2)
    assert result.dims == (1, 0)
    assert result.finite is True


def test_prolong_example2_terminates_at_degree_one(ex2):
    L, s = ex2
    result = prolong(L, s, 2)
    assert result.dims == (1, 0)
    assert result.finite is True


def test_prolong_free_step2_rank3_is_finite():
    entry = catalog.get("free_step2_rank3")
    L, s = entry.algebra, strat_of(entry)
    result = prolong(L, s, 6)
    assert result.dims == (9, 3, 3, 0)
    assert result.finite is True


def test_vanishing_is_monotone_when_computed_past_a_zero(ex1):
    # once a component vanishes, direct computation of the next degree
    # must also give zero (here: g1 = 0 forces g2 = 0)
    L, s = ex1
    frame = AdaptedFrame.build(L, s)
    g0 = _solve_component(frame, 0, [], [], {})
    g1 = _solve_component(frame, 1, [tuple(g0)], [len(g0)], {})
    assert g1 == []
    g2 = _solve_component(frame, 2, [tuple(g0), ()], [len(g0), 0], {})
    assert g2 == []


def test_basis_changes_build_no_dense_inverse(ex1, monkeypatch):
    # the frame, change_of_basis and nilpotentisation read P^-1 off one
    # sparse elimination; the dense inverse is only the tests' reference
    import carnot

    L, s = ex1
    q = random_unimodular(L.dim, random.Random(21), shears=6)
    q_inv = invert(q)

    def no_invert(m):
        raise AssertionError("a dense inverse was built")

    for module in (carnot.linalg, carnot.liealg, carnot.grading, carnot.tanaka):
        if hasattr(module, "invert"):
            monkeypatch.setattr(module, "invert", no_invert)
    conj = L.change_of_basis(q)
    conj_s = verify_stratification(conj, [
        Subspace.from_rows([apply(q_inv, row) for row in v.basis_rows()], L.dim) for v in s.layers])
    for M, strat in ((L, s), (conj, conj_s)):
        frame = AdaptedFrame.build(M, strat)
        p = basis_matrix([row for v in strat.layers for row in v.rows], M.dim)
        assert frame.graded == M.change_of_basis(p)
        # shear each horizontal vector by a layer-2 vector
        v1, v2 = (v.basis_rows() for v in strat.layers)
        sheared = Subspace.from_rows([tuple(x + y for x, y in zip(row, v2[i % len(v2)]))
                                      for i, row in enumerate(v1)], M.dim)
        assert sheared != strat.layers[0]
        gr = nilpotentisation(M, sheared)
        assert len(gr.adapted_basis) == M.dim
        assert gr.stratification.layer_dims == strat.layer_dims
        assert gr.algebra.lower_central_series().dims == M.lower_central_series().dims


def test_hom_element_shapes(h3_prolonged):
    for u in h3_prolonged.bases[1]:
        assert u.degree == 1
        assert u.shapes == ((4, 2), (2, 1))  # V1 -> g0, V2 -> V1
        assert tuple((b.rows, b.cols) for b in hom_blocks(u)) == u.shapes


def test_restriction_to_first_layer_is_injective(h3_prolonged):
    # an element of g_k (k >= 1) vanishing on V1 vanishes everywhere
    for k in (1, 2):
        basis = h3_prolonged.bases[k]
        flats = [hom_blocks(b)[0].flatten() for b in basis]
        _, rank = rref(Matrix.from_rows(flats, len(flats[0])))
        assert rank == len(basis)


def test_component_dim_beyond_terminal_zero(ex1):
    L, s = ex1
    result = prolong(L, s, 2)
    assert result.component_dim(5) == 0
    assert result.basis(5) == ()


def test_component_not_computed_error():
    L = abelian(2)
    s = verify_stratification(L, [Subspace.full(2)])
    result = prolong(L, s, 1)
    with pytest.raises(ComponentNotComputedError):
        result.component_dim(2)
    with pytest.raises(ComponentNotComputedError):
        result.basis(3)


def _brute_g1_dim_two_step(L, layer_dims):
    """Independent degree-1 solver for 2-step algebras with coordinate
    layers.  Elements are pairs (u1 : V1 -> g0, u2 : V2 -> V1) with g0
    realized as endomorphism matrices obtained from the derivation
    algebra (never from the graded solver); the Leibniz constraints are
    assembled densely in the original coordinates:

        u2([X, Y]) = u1(X)(Y) - u1(Y)(X)      for X, Y in V1,
        0 = u1(X)(Z) + [X, u2(Z)]             for X in V1, Z in V2.
    """

    n = L.dim
    d1, d2 = layer_dims
    g0 = intersect(L.derivation_algebra(), block_diagonal_span(layer_dims))
    g0_mats = [from_flat(flat, n, n) for flat in g0.basis_rows()]
    m = len(g0_mats)
    width = d1 * m + d2 * d1  # u1 coords then u2 coords (column-major per source)

    def u1_col(x):  # unknown index of coefficient t for source X = e_x
        return lambda t: x * m + t

    def u2_col(z, target):  # u2(e_{d1+z}) coefficient on e_target
        return d1 * m + z * d1 + target

    rows = []
    for x in range(d1):
        for y in range(x + 1, d1):
            z = L.bracket_basis(x, y)  # lives in V2
            for q in range(d1):  # equation coordinates in V1
                row = [F(0)] * width
                for zi in range(d2):
                    if z[d1 + zi]:
                        row[u2_col(zi, q)] += z[d1 + zi]
                for t, B in enumerate(g0_mats):
                    row[u1_col(x)(t)] -= B.entries[q][y]
                    row[u1_col(y)(t)] += B.entries[q][x]
                rows.append(row)
    for x in range(d1):
        for zi in range(d2):
            for q in range(d2):  # equation coordinates in V2
                row = [F(0)] * width
                for t, B in enumerate(g0_mats):
                    row[u1_col(x)(t)] += B.entries[d1 + q][d1 + zi]
                for target in range(d1):
                    c = L.bracket_basis(x, target)[d1 + q]
                    if c:
                        row[u2_col(zi, target)] += c
                rows.append(row)
    return nullspace(Matrix.from_rows(rows, width)).dim


@pytest.mark.parametrize("name,expected_g1", [
    ("example1_16", 0),
    ("heisenberg_3", 6),
    ("free_step2_rank3", 3),
    ("heisenberg_2n1(2)", None),  # computed, compared across routes only
])
def test_g1_matches_independent_two_step_assembly(name, expected_g1):
    entry = catalog.get(name)
    L, s = entry.algebra, strat_of(entry)
    result = prolong(L, s, 1)
    brute = _brute_g1_dim_two_step(L, s.layer_dims)
    assert result.dims[1] == brute
    if expected_g1 is not None:
        assert brute == expected_g1


# ---------------------------------------------------------------------------
# prolongation bracket
# ---------------------------------------------------------------------------

def test_bracket_with_grading_element(h3_prolonged):
    result = h3_prolonged
    D = grading_element(result.frame)
    assert result.coordinates_of(D) is not None  # D lies in g0
    # D has eigenvalue -t on g_t in this convention: [D, X] = j X for X in
    # the layer V_j = g_{-j}, and expanding the inductive bracket gives
    # [u, D] = k u on g_k
    for w in result.bases[0]:
        assert result.bracket(D, w).flatten() == tuple([F(0)] * len(w.flatten()))
    for k in (1, 2):
        for u in result.bases[k]:
            assert result.bracket(u, D).flatten() == u.scaled(k).flatten()
            assert result.bracket(D, u).flatten() == u.scaled(-k).flatten()


def test_bracket_antisymmetry_and_closure(h3_prolonged):
    result = h3_prolonged
    for u in result.bases[1]:
        assert result.bracket(u, u).is_zero()
    found_nonzero = False
    for u in result.bases[1]:
        for v in result.bases[1]:
            w = result.bracket(u, v)  # membership in g2 checked inside
            assert w.degree == 2
            if not w.is_zero():
                found_nonzero = True
            minus = result.bracket(v, u)
            assert w.flatten() == minus.scaled(-1).flatten()
    assert found_nonzero


def test_bracket_closure_g0_g1(h3_prolonged):
    result = h3_prolonged
    for w in result.bases[0]:
        for u in result.bases[1]:
            out = result.bracket(w, u)
            assert out.degree == 1
            result.coordinates_of(out)


def test_bracket_beyond_cap_raises(h3_prolonged):
    result = h3_prolonged
    u4 = result.bases[4][0]
    u1 = result.bases[1][0]
    # fill part of the table first, up to degree 4 itself
    for u in result.bases[2]:
        assert result.bracket(u, result.bases[2][-1]).degree == 4
    assert result.bracket(result.bases[3][0], u1).degree == 4
    with pytest.raises(ComponentNotComputedError):
        result.bracket(u4, u1)
    with pytest.raises(ComponentNotComputedError):
        result.bracket(u1, u4)


def test_bracket_rejects_non_member_in_either_slot(h3_prolonged):
    result = h3_prolonged
    u, v = result.bases[1][0], result.bases[1][1]
    # g_1 elements are determined by their V1 block, so changing only the
    # V2 block leaves g_1
    v1, v2 = hom_blocks(u)
    bumped = [list(row) for row in v2.entries]
    bumped[0][0] += 1
    bad = hom_from_blocks(1, (v1, Matrix.from_rows(bumped, v2.cols)))
    D = grading_element(result.frame)
    for other in (v, D):
        with pytest.raises(MembershipError):
            result.bracket(bad, other)
        with pytest.raises(MembershipError):
            result.bracket(other, bad)


def test_results_equal_and_hash_alike_after_brackets(h3):
    L, s = h3
    a, b = prolong(L, s, 3), prolong(L, s, 3)
    a.bracket(a.bases[1][0], a.bases[2][1])
    assert a == b and b == a
    assert hash(a) == hash(b)


# ---------------------------------------------------------------------------
# the recursive bracket the structure-constant table replaced, kept as the
# reference; it reads only ``bases`` and ``frame`` of a ProlongationResult
# ---------------------------------------------------------------------------

def _ref_dims_view(result, upto):
    return [len(result.bases[t]) for t in range(upto + 1)]


def _ref_zero_element(frame, k, dims):
    blocks = []
    for l in range(1, frame.step + 1):
        t = k - l
        td = frame.layer_dim(-t) if t < 0 else dims[t]
        blocks.append(zeros(td, frame.layer_dim(l)))
    return hom_from_blocks(k, tuple(blocks))


def _ref_coordinates(result, el, memo=None):
    """Coordinates of ``el`` by a dense affine solve; ``memo``, when given,
    keeps them under ``el``."""
    if memo is not None:
        if el not in memo:
            memo[el] = _ref_coordinates(result, el)
        return memo[el]
    basis = result.bases[el.degree]
    flat = el.flatten()
    if not basis:
        if not is_zero_vec(flat):
            raise MembershipError(f"nonzero element of vanishing component g_{el.degree}")
        return ()
    cols = transpose(Matrix.from_rows([b.flatten() for b in basis], len(flat)))
    sol = solve_affine(cols, flat)
    if sol is None:
        raise MembershipError(f"element does not lie in the computed g_{el.degree}")
    return sol.particular


def _ref_apply_value(result, w, deg, coords, memo):
    """[w, xi] for xi of degree ``deg`` given by coordinates (layer
    coordinates when deg < 0, basis coordinates when deg >= 0)."""
    out_deg = w.degree + deg
    if deg < 0:
        return out_deg, apply(hom_blocks(w)[-deg - 1], coords)
    acc = _ref_zero_element(result.frame, out_deg, _ref_dims_view(result, max(out_deg, 0)))
    for r, cr in enumerate(coords):
        if cr:
            key = (w, deg, r)
            if key not in memo:
                memo[key] = ref_bracket(result, w, result.bases[deg][r], memo)
            acc = acc + memo[key].scaled(cr)
    return out_deg, _ref_coordinates(result, acc, memo)


def ref_bracket(result, u, v, memo=None):
    """[u, v](X) = [u, [v, X]] - [v, [u, X]], recursing through
    ``_ref_apply_value`` and checking membership of the result.

    ``memo`` maps ``(w, t, r)`` to the inner bracket [w, b^t_r] against
    the r-th stored basis vector of g_t, and an element of g_t to its
    coordinates.  It belongs to the caller, who
    may share it across calls on one result; the library's table of
    structure constants is never read."""
    if memo is None:
        memo = {}
    K = u.degree + v.degree
    dims_view = _ref_dims_view(result, max(K, 0))
    frame = result.frame
    blocks = []
    for l in range(1, frame.step + 1):
        td = frame.layer_dim(-(K - l)) if K - l < 0 else dims_view[K - l]
        cols = []
        for c in range(frame.layer_dim(l)):
            x = unit_vec(frame.layer_dim(l), c)
            d1, c1 = _ref_apply_value(result, v, -l, x, memo)
            _, val1 = _ref_apply_value(result, u, d1, c1, memo)
            d2, c2 = _ref_apply_value(result, u, -l, x, memo)
            _, val2 = _ref_apply_value(result, v, d2, c2, memo)
            col = tuple(a - b for a, b in zip(val1, val2))
            cols.append(col if col else zero_vec(td))
        if td == 0:
            blocks.append(zeros(0, frame.layer_dim(l)))
        else:
            blocks.append(transpose(Matrix.from_rows(cols, td)))
    out = hom_from_blocks(K, tuple(blocks))
    _ref_coordinates(result, out, memo)
    return out


def random_element(result, k, rng):
    """A basis vector of g_k or a rational combination of up to three."""
    basis = result.bases[k]
    el = rng.choice(basis)
    for b in rng.sample(basis, min(len(basis), rng.randint(0, 2))):
        el = el + b.scaled(F(rng.randint(-3, 3), rng.randint(1, 3)))
    return el


@pytest.fixture(scope="module")
def towers_to_degree_2():
    out = {}
    for name in ("heisenberg_3", "free_step2_rank3"):
        entry = catalog.get(name)
        out[name] = prolong(entry.algebra, strat_of(entry), 2)
    return out


@pytest.mark.parametrize("name", ["heisenberg_3", "free_step2_rank3"])
def test_bracket_matches_reference_on_basis_pairs(towers_to_degree_2, name):
    result = towers_to_degree_2[name]
    memo = {}
    for k in range(3):
        for m in range(3 - k):
            for u in result.bases[k]:
                for v in result.bases[m]:
                    want = ref_bracket(result, u, v, memo).flatten()
                    assert result.bracket(u, v).flatten() == want


@pytest.mark.parametrize("name", ["heisenberg_3", "free_step2_rank3"])
def test_bracket_matches_reference_on_combinations(towers_to_degree_2, name):
    result = towers_to_degree_2[name]
    rng = random.Random(7)
    D = grading_element(result.frame)
    memo = {}
    for k in range(3):
        for m in range(3 - k):
            for _ in range(3):
                u, v = random_element(result, k, rng), random_element(result, m, rng)
                assert result.bracket(u, v).flatten() == ref_bracket(result, u, v, memo).flatten()
        for u in result.bases[k]:
            assert result.bracket(u, D).flatten() == ref_bracket(result, u, D, memo).flatten()
            assert result.bracket(D, u).flatten() == ref_bracket(result, D, u, memo).flatten()


@pytest.mark.parametrize("name,cap,seed", [
    ("heisenberg_3", 3, 11),
    ("free_step2_rank3", 2, 12),
    ("heisenberg_2n1(2)", 2, 13),
])
def test_tower_bracket_satisfies_jacobi(name, cap, seed):
    entry = catalog.get(name)
    result = prolong(entry.algebra, strat_of(entry), cap)
    degrees = [(k, m, n) for k in range(cap + 1) for m in range(cap + 1 - k)
               for n in range(cap + 1 - k - m)]
    rng = random.Random(seed)
    for _ in range(50):
        u, v, w = (random_element(result, d, rng) for d in rng.choice(degrees))
        total = (result.bracket(u, result.bracket(v, w))
                 + result.bracket(v, result.bracket(w, u))
                 + result.bracket(w, result.bracket(u, v)))
        assert total.is_zero()


def rational_heisenberg3():
    """heisenberg_3 in the basis of the columns of a rational matrix of
    determinant -5/12: non-integral structure constants, adapted frame and
    tower bases, so the private indexes mix ``int`` and ``Fraction``."""
    P = Matrix.from_rows([[1, F(1, 2), 0], [F(-2, 3), 1, 1], [0, 3, F(5, 2)]])
    return catalog.get("heisenberg_3").algebra.change_of_basis(P)


def test_bracket_matches_reference_on_a_non_integral_table():
    base = catalog.get("heisenberg_3").algebra
    L = rational_heisenberg3()
    assert any(x.denominator != 1 for _, row in L.table for _, x in row)
    verdict = is_stratifiable(L)
    assert L.derivation_algebra().dim == base.derivation_algebra().dim == 6
    assert (verdict.derived_stratification.layer_dims
            == is_stratifiable(base).derived_stratification.layer_dims == (2, 1))
    result = prolong(L, verdict.derived_stratification, 2)
    assert result.dims == (4, 6, 9)
    assert any(x.denominator != 1 for basis in result.bases for el in basis for _, x in el.entries)
    memo = {}
    for k in range(3):
        for m in range(3 - k):
            for u in result.bases[k]:
                for v in result.bases[m]:
                    want = ref_bracket(result, u, v, memo)
                    assert result.bracket(u, v).flatten() == want.flatten()


@pytest.mark.parametrize("name,cap", [("heisenberg_3", 3), ("heisenberg_2n1(2)", 2),
                                      ("rational_heisenberg3", 2)])
def test_bracket_table_does_not_depend_on_fill_order(name, cap):
    # each unordered basis pair is computed once and the other order stored
    # as its negation, so asking all pairs in ascending or in descending
    # order must give the same table and the reference bracket
    if name == "rational_heisenberg3":
        L = rational_heisenberg3()
        s = is_stratifiable(L).derived_stratification
    else:
        entry = catalog.get(name)
        L, s = entry.algebra, strat_of(entry)
    up, down = prolong(L, s, cap), prolong(L, s, cap)
    keys = sorted((k, i, m, j) for k in range(cap + 1) for m in range(cap + 1 - k)
                  for i in range(up.dims[k]) for j in range(up.dims[m]))
    got_up, got_down = ({key: result.bracket(result.bases[key[0]][key[1]],
                                             result.bases[key[2]][key[3]]) for key in order}
                        for result, order in ((up, keys), (down, keys[::-1])))
    assert up._table == down._table
    memo = {}
    for k, i, m, j in keys:
        want = ref_bracket(up, up.bases[k][i], up.bases[m][j], memo).flatten()
        assert got_up[k, i, m, j].flatten() == got_down[k, i, m, j].flatten() == want
        assert got_up[k, i, m, j] == got_up[m, j, k, i].scaled(-1)
    # the mirrored entries are cached, and both inputs are still checked:
    # g_1 is determined by its V1 block, so bumping its V2 block leaves g_1
    for result in (up, down):
        v1, v2 = hom_blocks(result.bases[1][0])
        bumped = [list(row) for row in v2.entries]
        bumped[0][0] += 1
        bad = hom_from_blocks(1, (v1, Matrix.from_rows(bumped, v2.cols)))
        for other in (result.bases[0][0], result.bases[1][-1]):
            with pytest.raises(MembershipError):
                result.bracket(bad, other)
            with pytest.raises(MembershipError):
                result.bracket(other, bad)


# ---------------------------------------------------------------------------
# a result reads its own stored basis vectors by identity; every other
# element, an equal copy or a basis vector of another tower, is read off
# ---------------------------------------------------------------------------

def identity_towers():
    """New towers to degree 3 of heisenberg_3 and of the half-Heisenberg
    algebra [e1, e2] = e3 / 2: the same block shapes in every degree, and
    g_1, g_2, g_3 differ."""
    entry = catalog.get("heisenberg_3")
    half = parse("dim 3\nlayers 1..2; 3..3\nbracket 1 2 = 1/2*3\n")
    half_strat = verify_stratification(half.algebra, coordinate_layers(3, half.layer_ranges))
    return {"heisenberg_3": prolong(entry.algebra, strat_of(entry), 3),
            "half_heisenberg_3": prolong(half.algebra, half_strat, 3)}


def rebuilt(el):
    """An equal copy of ``el`` that is not the same object."""
    return HomElement(el.degree, el.shapes, el.entries)


def count_read_offs(monkeypatch):
    """The degrees of every ``ProlongationResult._read_off`` call from now on."""
    calls = []
    read_off = ProlongationResult._read_off

    def counted(self, t, values):
        calls.append(t)
        return read_off(self, t, values)

    monkeypatch.setattr(ProlongationResult, "_read_off", counted)
    return calls


@pytest.mark.parametrize("name", ["heisenberg_3", "half_heisenberg_3"])
def test_stored_basis_brackets_equal_brackets_of_copies(name, monkeypatch):
    result = identity_towers()[name]
    calls = count_read_offs(monkeypatch)
    memo = {}
    for k in range(4):
        for m in range(4 - k):
            for u in result.bases[k]:
                for v in result.bases[m]:
                    got = result.bracket(u, v)
                    # every entry is now in the table: stored inputs read nothing
                    before = len(calls)
                    assert result.bracket(u, v) == got
                    assert len(calls) == before
                    # equal copies are read off, one read-off per input
                    assert result.bracket(rebuilt(u), rebuilt(v)) == got
                    assert calls[before:] == [k, m]
                    assert got.flatten() == ref_bracket(result, u, v, memo).flatten()


@pytest.mark.parametrize("name", ["heisenberg_3", "half_heisenberg_3"])
def test_coordinates_of_stored_basis_is_unit_vector(name, monkeypatch):
    result = identity_towers()[name]
    calls = count_read_offs(monkeypatch)
    for basis in result.bases:
        for i, u in enumerate(basis):
            coords = result.coordinates_of(u)
            assert coords == unit_vec(len(basis), i)
            assert all(type(x) is F for x in coords)
    assert calls == []
    for t, basis in enumerate(result.bases):
        for i, u in enumerate(basis):
            assert result.coordinates_of(rebuilt(u)) == unit_vec(len(basis), i)
    assert len(calls) == sum(result.dims)


def _outcome(f, *args):
    try:
        return f(*args)
    except MembershipError as exc:
        return ("MembershipError", str(exc))


@pytest.mark.parametrize("name,other", [("heisenberg_3", "half_heisenberg_3"),
                                        ("half_heisenberg_3", "heisenberg_3")])
def test_stored_basis_of_another_tower_gets_no_trust(name, other, monkeypatch):
    towers = identity_towers()
    result, foreign = towers[name], towers[other]
    calls = count_read_offs(monkeypatch)
    rejected = 0
    for t in range(4):
        for w in foreign.bases[t]:
            assert w.shapes == result.bases[t][0].shapes
            before = len(calls)
            got = _outcome(result.coordinates_of, w)
            assert calls[before:] == [t]
            assert got == _outcome(result.coordinates_of, rebuilt(w))
            rejected += got[0] == "MembershipError"
            for m in range(4 - t):
                for v in result.bases[m]:
                    assert _outcome(result.bracket, w, v) == _outcome(result.bracket, rebuilt(w), v)
                    assert _outcome(result.bracket, v, w) == _outcome(result.bracket, v, rebuilt(w))
    # g_0 is the same for both algebras; most of g_1..g_3 is not
    assert rejected > 0


@pytest.mark.parametrize("name", ["heisenberg_3", "half_heisenberg_3"])
def test_integer_assembly_is_exact_in_lowest_terms(name):
    # each stored vector is kept once as an integer row (d, d * b); a
    # bracket is assembled in int over one common denominator, and a single
    # unit coordinate returns the stored vector itself
    result = identity_towers()[name]
    assert any(d != 1 for t in range(4) for d, _ in result._degree(t)[2].values())
    memo, units = {}, 0
    for k in range(4):
        for m in range(4 - k):
            for u in result.bases[k]:
                for v in result.bases[m]:
                    got = result.bracket(u, v)
                    assert got.flatten() == ref_bracket(result, u, v, memo).flatten()
                    assert all(type(x) is F and x.denominator > 0
                               and gcd(x.numerator, x.denominator) == 1 for _, x in got.entries)
                    coords = [x for x in result.coordinates_of(got) if x]
                    if coords == [1]:
                        q = result.coordinates_of(got).index(1)
                        assert got is result.bases[k + m][q]
                        units += 1
                    else:
                        assert all(got is not w for w in result.bases[k + m])
    assert units > 0


@pytest.mark.parametrize("name", ["heisenberg_3", "half_heisenberg_3"])
def test_half_at_a_non_pivot_column_is_not_a_member(name):
    # the fraction-free reduction keeps the membership check and its message
    result = identity_towers()[name]
    for t in range(4):
        shapes, pivots = result._degree(t)[:2]
        width = sum(r * c for r, c in shapes)
        free = [c for c in range(width) if c not in pivots]
        for i, b in enumerate(result.bases[t]):
            values = dict(b.entries)
            c = free[i % len(free)]
            values[c] = values.get(c, 0) + F(1, 2)
            bumped = HomElement.from_nonzeros(t, shapes, values)
            message = f"^element does not lie in the computed g_{t}$"
            with pytest.raises(MembershipError, match=message):
                result.coordinates_of(bumped)
            with pytest.raises(MembershipError, match=message):
                result.bracket(bumped, result.bases[0][0])
    ex1 = catalog.get("example1_16")
    finite = prolong(ex1.algebra, strat_of(ex1), 1)
    assert finite.dims == (1, 0)
    with pytest.raises(MembershipError, match="^nonzero element of vanishing component g_1$"):
        finite.coordinates_of(HomElement.from_nonzeros(1, finite._degree(1)[0], {0: F(1, 2)}))


def _public_scalars(L):
    """Every scalar of the public values computed from ``L``, labelled."""
    n = L.dim
    out = [("bracket_basis", x) for i in range(n) for j in range(n) for x in L.bracket_basis(i, j)]
    out += [("bracket", x) for x in L.bracket(range(1, n + 1), [F(1, 3)] * n)]
    out += [("series", x) for t in L.lower_central_series().terms for row in t.rows for _, x in row]
    out += [("Der", x) for row in L.derivation_algebra().rows for _, x in row]
    shear = Matrix.from_rows([[1 if i == j else (2 if j == i + 1 else 0) for j in range(n)]
                              for i in range(n)])
    out += [("table", x) for _, row in L.table for _, x in row]
    out += [("change_of_basis", x) for _, row in L.change_of_basis(shear).table for _, x in row]
    verdict = is_stratifiable(L)
    out += [("witness", x) for row in verdict.witness.entries for x in row]
    strat = verdict.derived_stratification
    out += [("layers", x) for v in strat.layers for row in v.rows for _, x in row]
    result = prolong(L, strat, 2)
    for k, basis in enumerate(result.bases):
        for u in basis:
            out += [("bases", x) for _, x in u.entries]
            out += [("coordinates_of", x) for x in result.coordinates_of(u)]
            if k == 0:
                out += [("hom0_to_endo", x) for row in hom0_to_endo(result.frame, u).entries
                        for x in row]
            for m in range(3 - k):
                for v in result.basis(m):
                    out += [("ProlongationResult.bracket", x)
                            for _, x in result.bracket(u, v).entries]
    return out


@pytest.mark.parametrize("name", ["heisenberg_3", "example1_16", "half_heisenberg_3",
                                  "rational_heisenberg_3"])
def test_public_values_are_fractions(name):
    if name == "half_heisenberg_3":
        L = parse("dim 3\nbracket 1 2 = 1/2*3\n").algebra
    elif name == "rational_heisenberg_3":
        L = rational_heisenberg3()
    else:
        L = catalog.get(name).algebra
    scalars = _public_scalars(L)
    labels = {label for label, _ in scalars}
    assert {"bracket_basis", "Der", "change_of_basis", "witness", "layers", "bases",
            "coordinates_of", "hom0_to_endo"} <= labels
    # example1_16 is ultrarigid: its tower is span(D), and [D, D] = 0
    assert ("ProlongationResult.bracket" in labels) == (name != "example1_16")
    assert [(label, x) for label, x in scalars if type(x) is not F] == []


@pytest.mark.parametrize("coeff", [1, F(1, 2)])
def test_jacobi_residuals_are_fractions(coeff):
    broken = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, coeff), (0, 2): (1, 0, 0)})
    defects = broken.jacobi_defect()
    assert defects
    assert all(type(x) is F for *_, residual in defects for _, x in residual)


def test_reprs_show_fraction_entries():
    # the literals are the reprs printed before the private indexes held ints
    half = parse("dim 3\nbracket 1 2 = 1/2*3\n").algebra
    conj = rational_heisenberg3()
    assert repr(half.lower_central_series().terms[1]) == (
        "Subspace(ambient_dim=3, rows=(((2, Fraction(1, 1)),),))")
    assert repr(conj.lower_central_series().terms[1]) == (
        "Subspace(ambient_dim=3, rows=(((0, Fraction(1, 1)), (1, Fraction(-2, 1)), "
        "(2, Fraction(8, 3))),))")
    result = prolong(half, is_stratifiable(half).derived_stratification, 2)
    assert repr(result.bracket(result.bases[1][3], result.bases[1][0])) == (
        "HomElement(degree=2, shapes=((6, 2), (4, 1)), entries=((3, Fraction(-1, 1)), "
        "(5, Fraction(-3, 2)), (6, Fraction(-2, 1)), (13, Fraction(-1, 1))))")
    result = prolong(conj, is_stratifiable(conj).derived_stratification, 1)
    assert repr(result.bases[1][0]) == (
        "HomElement(degree=1, shapes=((4, 2), (2, 1)), entries=((0, Fraction(1, 1)), "
        "(6, Fraction(-1, 2)), (9, Fraction(1, 4))))")
    assert repr(result.bracket(result.bases[0][1], result.bases[1][0])) == (
        "HomElement(degree=1, shapes=((4, 2), (2, 1)), entries=((1, Fraction(-1, 1)), "
        "(2, Fraction(-3, 2)), (7, Fraction(1, 2)), (8, Fraction(1, 4))))")


# ---------------------------------------------------------------------------
# coordinates by pivot read-off, against the solve_affine reference
# ---------------------------------------------------------------------------

def free_2_3():
    """free(2,3), the free 3-step algebra on two generators, whose tower
    is the graded G_2 (Cartan 1910; Yamaguchi 1993)."""
    L = LieAlgebra.from_brackets(5, {(0, 1): (0, 0, 1, 0, 0),
                                     (0, 2): (0, 0, 0, 1, 0),
                                     (1, 2): (0, 0, 0, 0, 1)})
    return L, verify_stratification(L, coordinate_layers(5, [(1, 2), (3, 3), (4, 5)]))


@pytest.fixture(scope="module")
def read_off_towers():
    out = {}
    for name, cap in (("heisenberg_3", 4), ("free_step2_rank3", 3), ("heisenberg_2n1(2)", 2)):
        entry = catalog.get(name)
        out[name] = prolong(entry.algebra, strat_of(entry), cap)
    out["free(2,3)"] = prolong(*free_2_3(), 6)
    # [e1, e2] = 1/2 e3: stored basis rows with non-integral entries
    half = parse("dim 3\nlayers 1..2; 3..3\nbracket 1 2 = 1/2*3\n")
    out["half_heisenberg"] = prolong(half.algebra, verify_stratification(
        half.algebra, coordinate_layers(3, half.layer_ranges)), 3)
    return out


def _with_entry(el, pos, value):
    """``el`` with the entry at flat position ``pos`` replaced."""
    values = dict(el.entries)
    values[pos] = value
    return HomElement.from_nonzeros(el.degree, el.shapes, values)


@pytest.mark.parametrize("name", ["heisenberg_3", "free_step2_rank3",
                                  "heisenberg_2n1(2)", "free(2,3)", "half_heisenberg"])
def test_coordinates_read_off_matches_affine_reference(read_off_towers, name):
    result = read_off_towers[name]
    rng = random.Random(8)
    for k, basis in enumerate(result.bases):
        if not basis:
            continue
        members = list(basis)
        for _ in range(20):
            el = basis[0].scaled(0)
            for b in basis:
                el = el + b.scaled(F(rng.randint(-4, 4), rng.randint(1, 3)))
            members.append(el)
        pivots = {next(c for c, x in enumerate(b.flatten()) if x) for b in basis}
        free_cols = [c for c in range(len(basis[0].flatten())) if c not in pivots]
        for el in members:
            coords = result.coordinates_of(el)
            assert coords == _ref_coordinates(result, el)
            if el in basis:
                assert coords == unit_vec(len(basis), basis.index(el))
            if free_cols:
                c = rng.choice(free_cols)
                bad = _with_entry(el, c, el.flatten()[c] + F(rng.choice([-2, 1, 3]), 2))
                with pytest.raises(MembershipError):
                    result.coordinates_of(bad)
                with pytest.raises(MembershipError):
                    _ref_coordinates(result, bad)


def test_coordinates_in_vanishing_component(read_off_towers):
    result = read_off_towers["free(2,3)"]
    assert result.dims[4] == 0
    shapes = [(result.component_dim(4 - l), result.frame.layer_dim(l)) for l in (1, 2, 3)]
    zero = hom_from_blocks(4, tuple(zeros(r, c) for r, c in shapes))
    assert result.coordinates_of(zero) == _ref_coordinates(result, zero) == ()
    nonzero = _with_entry(zero, 5, F(1, 3))
    with pytest.raises(MembershipError):
        result.coordinates_of(nonzero)
    with pytest.raises(MembershipError):
        _ref_coordinates(result, nonzero)


def test_finite_tower_bracket_past_its_last_degree():
    result = prolong(*free_2_3(), 6)
    assert result.dims == (4, 2, 1, 2, 0)
    assert result.finite is True
    w = result.bracket(result.bases[3][0], result.bases[3][1])
    assert w.degree == 6
    assert w.shapes == ((0, 2), (0, 1), (2, 2))
    assert w.is_zero()


def test_coordinates_of_rejects_wrong_shapes_and_non_canonical_bases(h3):
    L, s = h3
    result = prolong(L, s, 1)
    u = result.bases[1][0]
    with pytest.raises(ValueError, match="shapes"):
        result.coordinates_of(HomElement(0, u.shapes, u.entries))
    g1 = result.bases[1]
    for bad_g1 in (tuple(b.scaled(2) for b in g1),                  # pivot entries 2
                   (g1[0], g1[0] + g1[1]) + g1[2:],                 # a repeated pivot
                   (g1[0] + g1[1],) + g1[1:]):                      # a nonzero above a pivot
        bad = ProlongationResult(result.dims, result.finite, (result.bases[0], bad_g1), result.frame)
        with pytest.raises(ValueError, match="canonical"):
            bad.coordinates_of(u)


# ---------------------------------------------------------------------------
# rigidity verdicts
# ---------------------------------------------------------------------------

def test_ultrarigidity_example1(ex1):
    L, s = ex1
    v = ultrarigidity_check(L, s)
    assert v.g0_dim == 1
    assert v.infinitesimally_ultrarigid
    assert v.g1_trivial is True


def test_ultrarigidity_example2(ex2):
    L, s = ex2
    v = ultrarigidity_check(L, s)
    assert v.g0_dim == 1 and v.infinitesimally_ultrarigid
    assert v.g1_trivial is True


def test_ultrarigidity_negative_controls(h3):
    L, s = h3
    v = ultrarigidity_check(L, s)
    assert v.g0_dim == 4
    assert not v.infinitesimally_ultrarigid
    assert v.g1_trivial is None
    a2 = abelian(2)
    sa = verify_stratification(a2, [Subspace.full(2)])
    va = ultrarigidity_check(a2, sa)
    assert va.g0_dim == 4 and not va.infinitesimally_ultrarigid


def test_ultrarigidity_invariant_under_conjugation(ex1):
    from carnot.linalg import invert

    L, s = ex1
    rng = random.Random(41)
    for _ in range(2):
        m = [[F(1 if i == j else 0) for j in range(16)] for i in range(16)]
        for _ in range(5):
            i, j = rng.sample(range(16), 2)
            c = rng.choice([-1, 1, 2])
            for k in range(16):
                m[i][k] += c * m[j][k]
        p = Matrix.from_rows(m, 16)
        p_inv = invert(p)
        conj = L.change_of_basis(p)
        layers = [Subspace.from_rows([apply(p_inv, row) for row in v.basis_rows()], 16)
                  for v in s.layers]
        strat = verify_stratification(conj, layers)
        v = ultrarigidity_check(conj, strat)
        assert v.g0_dim == 1 and v.infinitesimally_ultrarigid
        assert v.g1_trivial is True


def test_hom0_to_endo_roundtrip(h3, h3_prolonged):
    L, s = h3
    g0 = degree_zero_derivations(L, s)
    frame = h3_prolonged.frame
    for el in h3_prolonged.bases[0]:
        endo = hom0_to_endo(frame, el)
        assert g0.contains(endo.flatten())
        assert is_derivation(L, endo)


def _assert_dual_pair(L):
    m, k = two_step_type(L)
    dual = two_step_dual(L)
    assert two_step_type(dual) == (m, comb(m, 2) - k)
    # the dual of the dual has the same bracket kernel as L
    width = comb(m, 2)
    assert Subspace.from_rows(pair_rows(two_step_dual(dual)), width) == \
        Subspace.from_rows(pair_rows(L), width)
    g0 = two_step_g0_dim(L)
    assert two_step_g0_dim(dual) == g0
    return g0


@pytest.mark.parametrize("name,g0", [("example1_16", 1), ("heisenberg_2n1(3)", 22),
                                     ("free_step2_rank3", 9), ("abelian(3)", 9)])
def test_two_step_duality_preserves_g0(name, g0):
    # g_0 of a 2-step algebra is the stabiliser in gl(m) of the bracket's
    # kernel K, and the stabiliser of K^perp is its transpose: an oracle
    # independent of the tower code
    assert _assert_dual_pair(catalog.get(name).algebra) == g0


@pytest.mark.parametrize("m,k", [(4, 2), (5, 3), (6, 3), (5, 4), (6, 5)])
def test_two_step_duality_on_seeded_types(m, k):
    rng = random.Random(100 * m + k)
    for _ in range(2):
        _assert_dual_pair(random_two_step(m, k, rng))


def _two_step_g0_bound(m, k):
    """The counting bound on dim g_0 for a 2-step algebra of type (m,k):
    g_0 is the stabiliser in gl(m) of the bracket's kernel, a point of a
    Grassmannian of dimension k(C(m,2) - k), and g_0 holds the grading
    derivation."""
    return max(1, m * m - k * (comb(m, 2) - k))


@pytest.mark.parametrize("m,k", [(4, 2), (4, 3), (5, 2), (5, 3), (5, 4), (5, 5), (6, 3), (6, 4)])
def test_two_step_g0_counting_bound(m, k):
    # an inequality, never an equality: (6,3) can exceed its bound of 1
    rng = random.Random(1000 * m + k)
    for _ in range(2):
        assert two_step_g0_dim(random_two_step(m, k, rng)) >= _two_step_g0_bound(m, k)


def test_no_two_step_algebra_below_dimension_9_is_ultrarigid():
    # the bound is at least 2 whenever m + k <= 8, so g_0 = span(D) needs
    # dimension 9 or more in step 2 (abelian algebras, k = 0, never qualify)
    bounds = {(m, k): _two_step_g0_bound(m, k)
              for m in range(2, 8) for k in range(1, comb(m, 2) + 1) if m + k <= 8}
    assert min(bounds.values()) == 4
    assert sorted(t for t, b in bounds.items() if b == 4) == [(2, 1), (5, 3)]
    assert _two_step_g0_bound(5, 4) == 1
