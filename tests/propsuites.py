"""Randomized property suites, shared between the property tests (small
case counts for quick localization) and the acceptance gate (full case
counts).  Every function runs ``cases`` randomized checks with exact
assertions and returns the number of cases executed.
"""

from fractions import Fraction
import random

from carnot import algfile, catalog
from carnot.grading import (
    coordinate_layers,
    dilation,
    grading_derivation,
    is_stratifiable,
    verify_stratification,
)
from carnot.liealg import LieAlgebra
from carnot.linalg import Matrix, Subspace, invert
from carnot.tanaka import degree_zero_derivations

from helpers import apply, col, intersect, matmul

F = Fraction

STRATIFIED_ENTRIES = ["example1_16", "example2_17", "heisenberg_3",
                      "heisenberg_2n1(2)", "free_step2_rank3", "abelian(3)"]


def entry_with_stratification(name):
    entry = catalog.get(name)
    strat = verify_stratification(
        entry.algebra, coordinate_layers(entry.algebra.dim, entry.declared_layers))
    return entry.algebra, strat


def random_nonzero_rational(rng) -> Fraction:
    while True:
        q = F(rng.randint(-6, 6), rng.randint(1, 4))
        if q != 0:
            return q


def random_unimodular(n: int, rng, shears: int = 4) -> Matrix:
    """Product of integer shears, a permutation and sign flips."""
    m = [[F(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        for k in range(n):
            m[i][k] += c * m[j][k]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[rng.choice([1, -1]) * m[p][k] for k in range(n)] for p in perm]
    return Matrix.from_rows(rows, n)


def dilation_group_law(cases: int, seed: int = 101) -> int:
    rng = random.Random(seed)
    strata = [entry_with_stratification(n)[1] for n in STRATIFIED_ENTRIES]
    for c in range(cases):
        s = strata[c % len(strata)]
        lam = random_nonzero_rational(rng)
        mu = random_nonzero_rational(rng)
        assert matmul(dilation(s, lam), dilation(s, mu)) == dilation(s, lam * mu)
    return cases


def dilation_automorphism_identity(cases: int, seed: int = 102) -> int:
    rng = random.Random(seed)
    pairs = [entry_with_stratification(n) for n in STRATIFIED_ENTRIES]
    for c in range(cases):
        L, s = pairs[c % len(pairs)]
        d = dilation(s, random_nonzero_rational(rng))
        for (i, j), vec in L.table:
            assert apply(d, vec) == L.bracket(col(d, i), col(d, j))
    return cases


def grading_derivation_in_g0(cases: int, seed: int = 103, heavy_every: int = 25) -> int:
    """Transported grading derivation lies in the transported g0."""
    rng = random.Random(seed)
    small = ["heisenberg_3", "heisenberg_2n1(2)", "free_step2_rank3"]
    for c in range(cases):
        name = "example1_16" if heavy_every and c % heavy_every == heavy_every - 1 \
            else small[c % len(small)]
        L, s = entry_with_stratification(name)
        p = random_unimodular(L.dim, rng)
        p_inv = invert(p)
        conj = L.change_of_basis(p)
        layers = [Subspace.from_rows([apply(p_inv, row) for row in v.basis_rows()], L.dim)
                  for v in s.layers]
        strat = verify_stratification(conj, layers)
        g0 = degree_zero_derivations(conj, strat)
        transported_d = matmul(p_inv, grading_derivation(s), p)
        assert g0.contains(transported_d.flatten())
        assert grading_derivation(strat) == transported_d
    return cases


def conjugation_invariance(name: str, cases: int, seed: int = 104) -> int:
    """Series dims, derivation-algebra dimension and the stratifiability
    verdict are basis-independent."""
    entry = catalog.get(name)
    L = entry.algebra
    base_series = L.lower_central_series().dims
    base_der = L.derivation_algebra().dim
    base_verdict = is_stratifiable(L)
    rng = random.Random(seed)
    for _ in range(cases):
        conj = L.change_of_basis(random_unimodular(L.dim, rng))
        assert conj.lower_central_series().dims == base_series
        assert conj.derivation_algebra().dim == base_der
        v = is_stratifiable(conj)
        assert v.stratifiable == base_verdict.stratifiable
        if v.stratifiable:
            assert v.derived_stratification.layer_dims == \
                base_verdict.derived_stratification.layer_dims
    return cases


def subspace_dimension_formula(cases: int, seed: int = 105) -> int:
    rng = random.Random(seed)
    for _ in range(cases):
        n = rng.randint(1, 7)
        a = Subspace.from_rows(
            [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(rng.randint(0, n))], n)
        b = Subspace.from_rows(
            [[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
             for _ in range(rng.randint(0, n))], n)
        assert (a + b).dim + intersect(a, b).dim == a.dim + b.dim
    return cases


def parse_emit_round_trip(cases: int, seed: int = 106) -> int:
    rng = random.Random(seed)
    coeffs = [F(1), F(-1), F(2), F(-3), F(1, 2), F(-5, 3), F(7, 4)]
    for _ in range(cases):
        n = rng.randint(1, 8)
        brackets = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.35:
                    vec = [F(0)] * n
                    for _ in range(rng.randint(1, min(3, n))):
                        vec[rng.randrange(n)] = rng.choice(coeffs)
                    brackets[(i, j)] = tuple(vec)
        L = LieAlgebra.from_brackets(n, brackets)
        ranges = None
        if n >= 2 and rng.random() < 0.5:
            cut = rng.randint(1, n - 1)
            ranges = ((1, cut), (cut + 1, n))
        text = algfile.emit(L, ranges)
        parsed = algfile.parse(text)
        assert parsed.algebra.table == L.table
        assert parsed.algebra.dim == L.dim
        assert parsed.layer_ranges == ranges
        assert algfile.emit(parsed.algebra, parsed.layer_ranges) == text
    return cases
