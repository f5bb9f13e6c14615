import random
from fractions import Fraction

import pytest

from carnot import catalog
from carnot.grading import (
    LayerGenerationError,
    NotBracketGeneratingError,
    NotDirectSumError,
    NotNilpotentError,
    SmallFirstLayerError,
    TrivialTopLayerError,
    coordinate_layers,
    dilation,
    filtration_from_horizontal,
    grading_derivation,
    homogeneous_dimension,
    is_stratifiable,
    nilpotentisation,
    verify_stratification,
)
from carnot.liealg import LieAlgebra
from carnot.linalg import Matrix, Subspace, unit_vec

from helpers import (apply, col, from_flat, is_derivation, matmul, matsub, nullspace,
                     reference_feasible_set, reference_is_stratifiable, scaled,
                     semidirect_with_derivation)
from propsuites import random_unimodular

F = Fraction


def heisenberg3():
    return LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})


def abelian(n):
    return LieAlgebra.from_brackets(n, {})


def coord_span(n, lo, hi):
    return Subspace.from_rows([unit_vec(n, i) for i in range(lo - 1, hi)], n)


@pytest.fixture(scope="module")
def example1():
    return catalog.get("example1_16").algebra


@pytest.fixture(scope="module")
def example2():
    return catalog.get("example2_17").algebra


@pytest.fixture(scope="module")
def deformed():
    return catalog.get("deformed_h_16").algebra


@pytest.fixture(scope="module")
def strat1(example1):
    return verify_stratification(example1, coordinate_layers(16, [(1, 10), (11, 16)]))


@pytest.fixture(scope="module")
def strat2(example2):
    return verify_stratification(example2, coordinate_layers(17, [(1, 10), (11, 16), (17, 17)]))


def test_verify_stratification_example1(strat1):
    assert strat1.step == 2
    assert strat1.layer_dims == (10, 6)


def test_verify_stratification_rejects_deformed(deformed):
    # [e1, e11] = e14 means [V2, V1] != 0 = V3
    with pytest.raises(LayerGenerationError):
        verify_stratification(deformed, coordinate_layers(16, [(1, 10), (11, 16)]))


def test_verify_stratification_abelian():
    s = verify_stratification(abelian(2), [Subspace.full(2)])
    assert s.step == 1 and s.layer_dims == (2,)


def test_verify_stratification_named_errors(example1):
    with pytest.raises(NotDirectSumError):
        verify_stratification(example1, [coord_span(16, 1, 10), coord_span(16, 10, 16)])
    with pytest.raises(TrivialTopLayerError):
        verify_stratification(abelian(2), [Subspace.full(2), Subspace.zero(2)])
    with pytest.raises(SmallFirstLayerError):
        verify_stratification(abelian(1), [Subspace.full(1)])
    with pytest.raises(LayerGenerationError):
        # wrong split: [V1, V1] lands outside the declared V2
        verify_stratification(heisenberg3(), [coord_span(3, 2, 3), coord_span(3, 1, 1)])


def test_grading_derivation(example1, strat1, strat2):
    D = grading_derivation(strat1)
    expected = Matrix.from_rows(
        [[F((1 if j < 10 else 2) if i == j else 0) for j in range(16)] for i in range(16)], 16)
    assert D == expected
    assert is_derivation(example1, D)
    D2 = grading_derivation(strat2)
    diag = [1] * 10 + [2] * 6 + [3]
    assert D2 == Matrix.from_rows(
        [[F(diag[i] if i == j else 0) for j in range(17)] for i in range(17)], 17)
    s0 = verify_stratification(abelian(3), [Subspace.full(3)])
    assert grading_derivation(s0) == Matrix.identity(3)


def test_dilation_block_scalars(strat1):
    assert dilation(strat1, 1) == Matrix.identity(16)
    d2 = dilation(strat1, 2)
    diag = [2] * 10 + [4] * 6
    assert d2 == Matrix.from_rows(
        [[F(diag[i] if i == j else 0) for j in range(16)] for i in range(16)], 16)
    dm = dilation(strat1, -1)
    assert matmul(dm, dm) == Matrix.identity(16)
    with pytest.raises(ValueError):
        dilation(strat1, 0)


def test_dilation_is_automorphism(example1, strat1):
    lam = F(3, 2)
    d = dilation(strat1, lam)
    for (i, j), vec in example1.table:
        lhs = apply(d, vec)
        rhs = example1.bracket(col(d, i), col(d, j))
        assert lhs == rhs


def test_dilation_group_law(strat1):
    assert matmul(dilation(strat1, 2), dilation(strat1, F(1, 3))) == dilation(strat1, F(2, 3))


def test_homogeneous_dimension(strat1, strat2):
    assert homogeneous_dimension(strat1) == 22
    assert homogeneous_dimension(strat2) == 25
    h3 = heisenberg3()
    s = verify_stratification(h3, coordinate_layers(3, [(1, 2), (3, 3)]))
    assert homogeneous_dimension(s) == 4


def test_filtration_from_horizontal(example1, deformed):
    f1 = filtration_from_horizontal(example1, coord_span(16, 1, 10))
    assert f1.dims == (10, 16)
    fh = filtration_from_horizontal(deformed, coord_span(16, 1, 10))
    assert fh.dims == (10, 16)
    # e11 and e14 both enter at level 2
    assert fh.terms[1].contains(unit_vec(16, 10))
    assert fh.terms[1].contains(unit_vec(16, 13))
    with pytest.raises(NotBracketGeneratingError):
        filtration_from_horizontal(abelian(2), coord_span(2, 1, 1))


def test_filtration_respects_brackets(deformed):
    filt = filtration_from_horizontal(deformed, coord_span(16, 1, 10))
    s = len(filt.terms)
    for i, ti in enumerate(filt.terms, start=1):
        for j, tj in enumerate(filt.terms, start=1):
            target = filt.terms[min(i + j, s) - 1]
            for x in ti.basis_rows():
                for y in tj.basis_rows():
                    assert target.contains(deformed.bracket(x, y))


def test_nilpotentisation_of_stratified_is_identity(example1):
    gr = nilpotentisation(example1, coord_span(16, 1, 10))
    assert gr.algebra.table == example1.table
    assert gr.adapted_basis == Matrix.identity(16)
    assert gr.stratification.layer_dims == (10, 6)


def test_nilpotentisation_heisenberg():
    h3 = heisenberg3()
    gr = nilpotentisation(h3, coord_span(3, 1, 2))
    assert gr.algebra.table == h3.table


def test_nilpotentisation_of_deformed_recovers_example1(example1, deformed):
    gr = nilpotentisation(deformed, coord_span(16, 1, 10))
    assert gr.algebra.table == example1.table
    assert gr.adapted_basis == Matrix.identity(16)
    # idempotence: nilpotentising the result w.r.t. its first layer is stable
    again = nilpotentisation(gr.algebra, gr.stratification.layers[0])
    assert again.algebra.table == gr.algebra.table


def test_nilpotentisation_nontrivial_adapted_basis():
    # horizontal frame not aligned with unit vectors: e1+e2, e2 generate h3
    h3 = heisenberg3()
    horizontal = Subspace.from_rows([[1, 1, 0], [0, 1, 0]], 3)
    gr = nilpotentisation(h3, horizontal)
    assert gr.stratification.layer_dims == (2, 1)
    assert gr.algebra.lower_central_series().dims == (3, 1, 0)


def test_is_stratifiable_example1(example1):
    v = is_stratifiable(example1)
    assert v.stratifiable
    assert v.witness is not None and v.derived_stratification is not None
    assert is_derivation(example1, v.witness)
    gamma2 = example1.lower_central_series().terms[1]
    for i in range(16):
        image = list(col(v.witness, i))
        image[i] -= 1
        assert gamma2.contains(image)
    assert v.derived_stratification.layer_dims == (10, 6)


def test_is_stratifiable_deformed_is_false(deformed):
    v = is_stratifiable(deformed)
    assert not v.stratifiable
    assert v.witness is None and v.derived_stratification is None


def test_is_stratifiable_abelian():
    v = is_stratifiable(abelian(2))
    assert v.stratifiable
    assert v.witness == Matrix.identity(2)
    assert v.derived_stratification.layer_dims == (2,)
    # dimension one: feasible but below the stratification nondegeneracy floor
    v1 = is_stratifiable(abelian(1))
    assert v1.stratifiable and v1.derived_stratification is None


def _filiform4():
    # [e1,e2]=e3, [e1,e3]=e4: graded with layers (2, 1, 1)
    return LieAlgebra.from_brackets(4, {
        (0, 1): (0, 0, 1, 0),
        (0, 2): (0, 0, 0, 1),
    })


def test_is_stratifiable_filiform4():
    v = is_stratifiable(_filiform4())
    assert v.stratifiable
    assert v.derived_stratification.layer_dims == (2, 1, 1)


def _l5_nonstratifiable():
    # [e1,e2]=e3, [e1,e3]=e4, [e1,e4]=e5, [e2,e3]=e5: the smallest
    # nilpotent algebra that is not stratifiable
    return LieAlgebra.from_brackets(5, {
        (0, 1): (0, 0, 1, 0, 0),
        (0, 2): (0, 0, 0, 1, 0),
        (0, 3): (0, 0, 0, 0, 1),
        (1, 2): (0, 0, 0, 0, 1),
    }).validated()


def _centralizer_dim(L, space):
    rows = []
    for j in range(L.dim):
        for w in space.basis_rows():
            for k in range(L.dim):
                row = [L.bracket(unit_vec(L.dim, i), w)[k] for i in range(L.dim)]
                rows.append(row)
    return nullspace(Matrix.from_rows(rows, L.dim)).dim


def test_is_stratifiable_l5_negative_with_invariant_oracle():
    l5 = _l5_nonstratifiable()
    assert l5.lower_central_series().dims == (5, 3, 2, 1, 0)
    assert not is_stratifiable(l5).stratifiable
    # independent justification: a stratified algebra is isomorphic to the
    # graded algebra of its lower central series, but the centralizer of
    # the derived algebra distinguishes the two here (dim 3 vs dim 4)
    graded_model = LieAlgebra.from_brackets(5, {
        (0, 1): (0, 0, 1, 0, 0),
        (0, 2): (0, 0, 0, 1, 0),
        (0, 3): (0, 0, 0, 0, 1),
    }).validated()
    gamma2 = l5.lower_central_series().terms[1]
    assert gamma2 == graded_model.lower_central_series().terms[1]
    assert _centralizer_dim(l5, gamma2) == 3
    assert _centralizer_dim(graded_model, gamma2) == 4


def test_nilpotentisation_of_l5():
    # the tangent-cone construction still applies to the non-stratifiable
    # algebra: horizontal span(e1,e2) gives a step-3 graded quotient
    l5 = _l5_nonstratifiable()
    gr = nilpotentisation(l5, coord_span(5, 1, 2))
    assert gr.stratification.layer_dims == (2, 1, 2)
    assert is_stratifiable(gr.algebra).stratifiable


def test_is_stratifiable_requires_nilpotent(example1):
    d_rows = [[F((1 if j < 10 else 2) if i == j else 0) for j in range(16)]
              for i in range(16)]
    td = semidirect_with_derivation(example1, Matrix.from_rows(d_rows, 16))
    with pytest.raises(NotNilpotentError):
        is_stratifiable(td)


def test_is_stratifiable_invariant_under_conjugation(example1):
    rng = random.Random(17)
    for _ in range(3):
        m = [[F(1 if i == j else 0) for j in range(16)] for i in range(16)]
        for _ in range(5):
            i, j = rng.sample(range(16), 2)
            c = rng.choice([-1, 1, 2])
            for k in range(16):
                m[i][k] += c * m[j][k]
        conj = example1.change_of_basis(Matrix.from_rows(m, 16))
        v = is_stratifiable(conj)
        assert v.stratifiable
        assert v.derived_stratification is not None
        assert v.derived_stratification.layer_dims == (10, 6)


def _assert_same_verdict(L):
    got = is_stratifiable(L)
    want = reference_is_stratifiable(L)
    assert got.stratifiable == want.stratifiable
    assert got.witness == want.witness
    assert got.derived_stratification == want.derived_stratification


_REFERENCE_CASES = {name: (lambda name=name: catalog.get(name).algebra)
                    for name, _ in catalog.list_entries()}
_REFERENCE_CASES.update({"abelian(1)": lambda: abelian(1), "filiform4": _filiform4,
                         "l5": _l5_nonstratifiable})


@pytest.mark.parametrize("name", list(_REFERENCE_CASES))
def test_is_stratifiable_matches_full_affine_reference(name):
    _assert_same_verdict(_REFERENCE_CASES[name]())


@pytest.mark.parametrize("name", ["example1_16", "example2_17", "deformed_h_16",
                                  "heisenberg_3", "free_step2_rank3"])
def test_is_stratifiable_matches_full_affine_reference_conjugated(name):
    # the free columns of the affine system move with the basis, so the
    # canonical witness is checked away from the catalog's own basis too
    L = catalog.get(name).algebra
    rng = random.Random(71)
    for _ in range(2):
        _assert_same_verdict(L.change_of_basis(random_unimodular(L.dim, rng)))


def test_is_stratifiable_independent_of_der_call_order(example2):
    def fresh():
        return LieAlgebra(example2.dim, example2.labels, example2.table)

    der_first = fresh()
    der = der_first.derivation_algebra()
    after = is_stratifiable(der_first)
    strat_first = fresh()
    before = is_stratifiable(strat_first)
    assert before == after
    assert strat_first.derivation_algebra() == der


def _feasible_cases():
    # the stratifiable entries: those with declared layers
    cases = {name: catalog.get(name).algebra for name, _ in catalog.list_entries()
             if catalog.get(name).declared_layers is not None}
    cases["filiform4"] = _filiform4()
    rng = random.Random(83)
    for name in ("example1_16", "example2_17", "heisenberg_2n1(2)", "free_step2_rank3"):
        L = catalog.get(name).algebra
        cases[f"{name} conjugated"] = L.change_of_basis(random_unimodular(L.dim, rng))
    return cases


@pytest.mark.parametrize("name", list(_feasible_cases()))
def test_every_feasible_derivation_is_semisimple(name):
    # is_stratifiable reads each layer as one kernel ker(d - j): every
    # feasible d must have kernels of the dimensions of gamma_j/gamma_{j+1},
    # summing to n, so that no generalised eigenvector is missed
    L = _feasible_cases()[name]
    sol = reference_feasible_set(L)
    assert sol is not None
    series = L.lower_central_series()
    n = L.dim
    expected = [series.terms[j - 1].dim - series.terms[j].dim for j in range(1, series.step + 1)]
    rng = random.Random(97)
    homogeneous = sol.homogeneous.basis_rows()
    for _ in range(3):
        point = list(sol.particular)
        for w in homogeneous:
            c = F(rng.randint(-3, 3), rng.randint(1, 2))
            point = [x + c * y for x, y in zip(point, w)]
        d = from_flat(point, n, n)
        assert is_derivation(L, d)
        dims = [nullspace(matsub(d, scaled(Matrix.identity(n), j))).dim
                for j in range(1, series.step + 1)]
        assert dims == expected
        assert sum(dims) == n
