"""The sparse basis changes against the dense formulas they replaced.

``change_of_basis``, ``AdaptedFrame`` and ``nilpotentisation`` take the
basis vectors as sparse rows and read ``P^-1`` off one elimination of
``[p_a | e_a]``; ``grading_derivation``, ``dilation``, ``hom0_to_endo``
and ``endomorphism_span`` go through ``linalg.conjugate``, the same
elimination of ``[p_a | M p_a]``.  Neither builds a dense inverse.  The
references below are the dense formulas of ``helpers``: ``P`` built
from the basis vectors, ``invert`` plus ``apply`` and ``P F P^-1``.
Arithmetic is exact and canonical forms are unique, so the two routes
must agree entry for entry, in each catalog basis and in seeded
unimodular conjugates.
"""

import random
from fractions import Fraction

import pytest

from carnot import catalog
from carnot.grading import (
    Stratification,
    coordinate_layers,
    dilation,
    grading_derivation,
    nilpotentisation,
    verify_stratification,
)
from carnot.liealg import LieAlgebra, SingularMatrixError
from carnot.linalg import Matrix, Subspace, invert
from carnot.tanaka import AdaptedFrame, endomorphism_span, hom0_to_endo, prolong

from helpers import (apply, basis_matrix, col, hom_blocks, hom_from_blocks, is_zero_vec, matmul,
                     scaled, zeros)
from propsuites import random_unimodular

F = Fraction

ENTRIES = ["example1_16", "example2_17", "heisenberg_3", "free_step2_rank3",
           "heisenberg_2n1(2)"]
CONJUGATES = 3


def ref_change_of_basis(L, p):
    p_inv = invert(p)
    n = L.dim
    cols = [col(p, i) for i in range(n)]
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = L.bracket(cols[i], cols[j])
            if not is_zero_vec(w):
                brackets[(i, j)] = apply(p_inv, w)
    return LieAlgebra.from_brackets(n, brackets)


def ref_block_scalar_map(s, factors):
    n = s.ambient_dim
    p = basis_matrix([row for v in s.layers for row in v.rows], n)
    scale = [f for f, v in zip(factors, s.layers) for _ in range(v.dim)]
    diag = Matrix.from_rows([[scale[i] if k == i else 0 for k in range(n)] for i in range(n)], n)
    return matmul(p, diag, invert(p))


def ref_hom0_to_endo(frame, el):
    n = frame.dim
    rows = [[F(0)] * n for _ in range(n)]
    for l in range(1, frame.step + 1):
        off = frame.offsets[l - 1]
        for r, row in enumerate(hom_blocks(el)[l - 1].entries):
            for c, x in enumerate(row):
                rows[off + r][off + c] = x
    p = basis_matrix([row for v in frame.stratification.layers for row in v.rows], n)
    return matmul(p, Matrix.from_rows(rows, n), invert(p))


def ref_gr_brackets(L, adapted, weights, step):
    """The graded bracket table of the nilpotentisation, from the adapted
    basis vectors (sparse rows) and the weight of each of them."""
    n = L.dim
    p = basis_matrix(adapted, n)
    a_inv = invert(p)
    reps = [col(p, a) for a in range(n)]
    brackets = {}
    for a in range(n):
        for b in range(a + 1, n):
            w = weights[a] + weights[b]
            z = L.bracket(reps[a], reps[b])
            if is_zero_vec(z) or w > step:
                continue
            coords = apply(a_inv, z)
            graded = tuple(coords[k] if weights[k] == w else F(0) for k in range(n))
            if not is_zero_vec(graded):
                brackets[(a, b)] = graded
    return LieAlgebra.from_brackets(n, brackets).table


def transported(L, s, p):
    """L and its stratification written in the basis of the columns of p."""
    p_inv = invert(p)
    layers = [Subspace.from_rows([apply(p_inv, row) for row in v.basis_rows()], L.dim)
              for v in s.layers]
    conj = L.change_of_basis(p)
    return conj, verify_stratification(conj, layers)


def cases(name):
    """(label, algebra, stratification): the catalog basis, then seeded
    unimodular conjugates."""
    entry = catalog.get(name)
    L = entry.algebra
    s = verify_stratification(L, coordinate_layers(L.dim, entry.declared_layers))
    yield "catalog", L, s
    rng = random.Random(name)
    for c in range(CONJUGATES):
        yield f"conjugate {c}", *transported(L, s, random_unimodular(L.dim, rng, shears=6))


@pytest.mark.parametrize("name", ENTRIES)
def test_change_of_basis_matches_dense_reference(name):
    rng = random.Random(5)
    for label, L, _ in cases(name):
        p = random_unimodular(L.dim, rng, shears=6)
        assert L.change_of_basis(p).table == ref_change_of_basis(L, p).table, label
        # a non-unimodular change: rational entries in P^-1
        q = Matrix.from_rows([[F(i + 1, 2) if j == i else F(1, 3) if j == i + 1 else 0
                               for j in range(L.dim)] for i in range(L.dim)], L.dim)
        assert L.change_of_basis(q).table == ref_change_of_basis(L, q).table, label


@pytest.mark.parametrize("name", ENTRIES)
def test_grading_derivation_and_dilation_match_dense_reference(name):
    for label, L, s in cases(name):
        js = [F(j + 1) for j in range(s.step)]
        assert grading_derivation(s) == ref_block_scalar_map(s, js), label
        for lam in (F(2), F(-3, 7)):
            powers = [lam ** (j + 1) for j in range(s.step)]
            assert dilation(s, lam) == ref_block_scalar_map(s, powers), (label, lam)


@pytest.mark.parametrize("name", ENTRIES)
def test_hom0_to_endo_matches_dense_reference(name):
    rng = random.Random(11)
    for label, L, s in cases(name):
        result = prolong(L, s, 0)
        frame = result.frame
        # g_0 basis elements, plus one random degree-0 element
        generic = hom_from_blocks(0, tuple(
            Matrix.from_rows([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
                              for _ in range(d)], d)
            for d in (frame.layer_dim(l) for l in range(1, frame.step + 1))))
        for el in result.bases[0] + (generic,):
            assert hom0_to_endo(frame, el) == ref_hom0_to_endo(frame, el), label


@pytest.mark.parametrize("name", ENTRIES)
def test_endomorphism_span_matches_dense_reference(name):
    # one stacked elimination for all elements against one dense conjugate each
    for label, L, s in cases(name):
        result = prolong(L, s, 0)
        frame, elements = result.frame, result.bases[0]
        want = Subspace.from_rows([ref_hom0_to_endo(frame, el).flatten() for el in elements],
                                  frame.dim ** 2)
        assert endomorphism_span(frame, elements) == want, label
        # zero elements anywhere, trailing ones too, span nothing
        zero = elements[0].scaled(0)
        assert endomorphism_span(frame, (zero,) + elements + (zero, zero)) == want, label
        assert endomorphism_span(frame, ()) == Subspace.zero(frame.dim ** 2), label


@pytest.mark.parametrize("name", ENTRIES + ["deformed_h_16"])
def test_nilpotentisation_matches_dense_reference(name):
    rng = random.Random(13)
    entry = catalog.get(name)
    if entry.declared_layers is None:
        # deformed_h_16 is not stratifiable; its first ten basis vectors
        # are horizontal, as in the golden gr run
        L = entry.algebra
        first = [Subspace.from_rows([[1 if k == i else 0 for k in range(L.dim)]
                                     for i in range(10)], L.dim)]
        all_cases = [("catalog", L, first)]
    else:
        all_cases = [(label, L, s.layers) for label, L, s in cases(name)]
    for label, L, layers in all_cases:
        # shear each horizontal vector by a random derived-algebra vector,
        # so brackets of representatives spill into lower levels
        derived = [row for v in layers[1:] for row in v.basis_rows()]
        h_rows = []
        for row in layers[0].basis_rows():
            if derived:
                extra = derived[rng.randrange(len(derived))]
                c = F(rng.randint(-2, 2))
                row = tuple(x + c * y for x, y in zip(row, extra))
            h_rows.append(row)
        for h in (layers[0], Subspace.from_rows(h_rows, L.dim)):
            gr = nilpotentisation(L, h)
            weights = [j + 1 for j, v in enumerate(gr.stratification.layers) for _ in range(v.dim)]
            assert gr.algebra.table == ref_gr_brackets(
                L, gr.adapted_basis, weights, gr.stratification.step), label


def test_dim_zero_and_one():
    for n in (0, 1):
        L = LieAlgebra.from_brackets(n, {})
        p = Matrix.from_rows([[F(-2)] * n], n) if n else Matrix(0, 0, ())
        assert L.change_of_basis(p) == L
        s = Stratification((Subspace.full(n),))
        assert grading_derivation(s) == Matrix.identity(n)
        assert dilation(s, F(-3, 7)) == scaled(Matrix.identity(n), F(-3, 7))
    L1 = LieAlgebra.from_brackets(1, {})
    frame = AdaptedFrame.build(L1, Stratification((Subspace.full(1),)))
    el = hom_from_blocks(0, (Matrix.from_rows([[F(5, 3)]], 1),))
    assert hom0_to_endo(frame, el) == Matrix.from_rows([[F(5, 3)]], 1)


def test_change_of_basis_rejects_bad_matrices():
    L = catalog.get("heisenberg_3").algebra
    rank_two = Matrix.from_rows([[1, 0, 1], [0, 1, 0], [2, 0, 2]], 3)
    with pytest.raises(SingularMatrixError):
        L.change_of_basis(rank_two)
    with pytest.raises(ValueError, match="shape mismatch"):
        L.change_of_basis(Matrix.identity(4))
    with pytest.raises(ValueError, match="shape mismatch"):
        L.change_of_basis(zeros(3, 2))


def test_dilation_rejects_zero_and_hom0_rejects_degree():
    entry = catalog.get("heisenberg_3")
    L = entry.algebra
    s = verify_stratification(L, coordinate_layers(L.dim, entry.declared_layers))
    for zero in (0, F(0), "0"):
        with pytest.raises(ValueError, match="nonzero"):
            dilation(s, zero)
    result = prolong(L, s, 1)
    with pytest.raises(ValueError, match="degree-0"):
        hom0_to_endo(result.frame, result.bases[1][0])
