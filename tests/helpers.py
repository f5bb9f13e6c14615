"""Test-only constructions on top of the public ``LieAlgebra`` API, and
the references that tests compare the library against: dense ``Matrix``
arithmetic, ``rref``, ``nullspace``, the stratifiability decision with
its generalised eigenspaces by repeated squaring, the elimination step
without the unit-lead fast path, and the tower's Leibniz rows assembled
over every generator."""

import pkgutil
from fractions import Fraction
from itertools import accumulate, combinations

from carnot.grading import (
    NotNilpotentError,
    SmallFirstLayerError,
    StratifiabilityVerdict,
    TrivialTopLayerError,
    consecutive_ranges,
    coordinate_layers,
    grading_derivation,
    verify_stratification,
)
from carnot.liealg import LieAlgebra, _leibniz_system
from carnot.linalg import (Matrix, RowReducer, Subspace, Vec, _eliminate, as_vec, solution_space,
                           solve_affine_rows, unit_vec)
from carnot.tanaka import AdaptedFrame, HomElement, _block_shapes, prolong


# -- dense Matrix arithmetic ---------------------------------------------------

def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def is_zero_vec(v: Vec) -> bool:
    return all(a == 0 for a in v)


def dense_table(L: LieAlgebra) -> dict[tuple[int, int], Vec]:
    """The bracket table of ``L`` with each sparse row as its dense vector."""
    return {ij: tuple(dict(row).get(k, Fraction(0)) for k in range(L.dim)) for ij, row in L.table}


def zeros(rows: int, cols: int) -> Matrix:
    return Matrix(rows, cols, tuple(zero_vec(cols) for _ in range(rows)))


def from_flat(flat, rows: int, cols: int) -> Matrix:
    """The matrix with the given row-major flattening."""
    vv = as_vec(flat)
    if len(vv) != rows * cols:
        raise ValueError("flat length mismatch")
    return Matrix(rows, cols, tuple(vv[i * cols:(i + 1) * cols] for i in range(rows)))


def col(m: Matrix, j: int) -> Vec:
    return tuple(row[j] for row in m.entries)


def transpose(m: Matrix) -> Matrix:
    data = tuple(tuple(m.entries[i][j] for i in range(m.rows)) for j in range(m.cols))
    return Matrix(m.cols, m.rows, data)


def basis_matrix(rows, n: int) -> Matrix:
    """The dense n x n matrix P whose columns are the basis vectors given
    as sparse rows."""
    return transpose(Matrix.from_rows([[dict(row).get(k, 0) for k in range(n)] for row in rows], n))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def apply(m: Matrix, v) -> Vec:
    """Matrix times column vector."""
    vv = as_vec(v)
    if len(vv) != m.cols:
        raise ValueError(f"expected vector of length {m.cols}, got {len(vv)}")
    nonzero = [(j, b) for j, b in enumerate(vv) if b]
    return tuple(sum((row[j] * b for j, b in nonzero), Fraction(0)) for row in m.entries)


def matmul(*ms: Matrix) -> Matrix:
    """The product of the matrices, left to right."""
    out = ms[0]
    for m in ms[1:]:
        if out.cols != m.rows:
            raise ValueError("incompatible shapes for product")
        cols = transpose(m).entries
        out = Matrix(out.rows, m.cols, tuple(
            tuple(sum((a * b for a, b in zip(row, c)), Fraction(0)) for c in cols)
            for row in out.entries))
    return out


def scaled(m: Matrix, c) -> Matrix:
    c = Fraction(c)
    return Matrix(m.rows, m.cols, tuple(tuple(c * x for x in row) for row in m.entries))


def matsub(a: Matrix, b: Matrix) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError("incompatible shapes for difference")
    return Matrix(a.rows, a.cols, tuple(tuple(x - y for x, y in zip(r, s))
                                        for r, s in zip(a.entries, b.entries)))


def rref(m: Matrix) -> tuple[Matrix, int]:
    """The reduced row echelon form of ``m`` (zero rows kept, so the shape
    is unchanged) and its rank, from the canonical basis of its row space."""
    rows = Subspace.from_rows(m.entries, m.cols).basis_rows()
    rank = len(rows)
    return Matrix(m.rows, m.cols, rows + tuple(zero_vec(m.cols) for _ in range(m.rows - rank))), rank


def nullspace(m: Matrix) -> Subspace:
    """The exact solution space {x : m·x = 0}."""
    return solution_space(m.entries, m.cols)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus intersection: row reduce [A|A / B|0]; rows whose left
    block vanished carry an intersection basis in the right block."""
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    n = a.ambient_dim
    red = RowReducer(2 * n)
    for row in a.rows:
        red.add({**dict(row), **{n + c: x for c, x in row}})
    for row in b.rows:
        red.add(dict(row))
    inter = [{c - n: x for c, x in row} for p, row in red.echelon().items() if p >= n]
    return Subspace.from_rows(inter, n)


def reference_add(red: RowReducer, row) -> bool:
    """``RowReducer.add`` with the content-reduced ``_eliminate`` step
    against every pivot, unit lead or not: the elimination before the
    in-place unit-lead step, which must store the same pivots."""
    cur = red._to_sparse_int(row)
    while cur:
        lead = red._lead(cur)
        piv = red._pivots.get(lead)
        if piv is None:
            if cur[lead] < 0:
                cur = {c: -v for c, v in cur.items()}
            red._pivots[lead] = cur
            return True
        cur = _eliminate(cur, piv, lead)
    return False


# -- Lie algebra constructions ---------------------------------------------------

def center(L: LieAlgebra) -> Subspace:
    """{x : [x, e_i] = 0 for all i}; the nullspace of the stacked
    ad-action in the first argument."""
    rows = []
    # row for (j, k): sum_i x_i * c_{i j}^k = 0, with c_{i j}^k = -c_{j i}^k
    for ad_j in L._ad:
        eqs: dict[int, dict[int, Fraction]] = {}
        for i in sorted(ad_j):
            for k, c in ad_j[i].items():
                eqs.setdefault(k, {})[i] = -c
        rows.extend(eqs[k] for k in sorted(eqs))
    return solution_space(rows, L.dim)


class NotDerivationError(ValueError):
    pass


def ad_matrix(L: LieAlgebra, x) -> Matrix:
    """Matrix of y -> [x, y] (columns are images of basis vectors)."""
    xx = as_vec(x)
    if len(xx) != L.dim:
        raise ValueError(f"vector must have length {L.dim}")
    cols = [L.bracket(xx, unit_vec(L.dim, j)) for j in range(L.dim)]
    return transpose(Matrix.from_rows(cols, L.dim))


def is_derivation(L: LieAlgebra, u: Matrix) -> bool:
    """Leibniz identity u[x,y] = [u x, y] + [x, u y] on all basis pairs:
    every row of ``L.leibniz_rows()`` vanishes at the row-major
    flattening of ``u``."""
    if u.rows != L.dim or u.cols != L.dim:
        raise ValueError("endomorphism shape mismatch")
    flat = u.flatten()
    return not any(sum(x * flat[c] for c, x in row.items()) for row in L.leibniz_rows())


def reference_is_derivation(L: LieAlgebra, u: Matrix) -> bool:
    """The dense Leibniz check :func:`is_derivation` used before it
    evaluated the sparse Leibniz rows: u[e_i, e_j] = [u e_i, e_j] + [e_i, u e_j]
    compared as dense vectors on every basis pair."""
    if u.rows != L.dim or u.cols != L.dim:
        raise ValueError("endomorphism shape mismatch")
    n = L.dim
    for i in range(n):
        ui = col(u, i)
        for j in range(i + 1, n):
            lhs = apply(u, L.bracket_basis(i, j))
            rhs = vec_add(L.bracket(ui, unit_vec(n, j)),
                          L.bracket(unit_vec(n, i), col(u, j)))
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
        blocks.append(from_flat(flat[pos:pos + r * c], r, c))
        pos += r * c
    return tuple(blocks)


def hom_from_blocks(degree: int, blocks) -> HomElement:
    """The tower element of ``degree`` with the given dense blocks."""
    flat = [x for b in blocks for x in b.flatten()]
    return HomElement.from_nonzeros(degree, tuple((b.rows, b.cols) for b in blocks),
                                    dict(enumerate(flat)))


def grading_element(frame: AdaptedFrame) -> HomElement:
    """The grading derivation D as a degree-0 element (j times the
    identity on layer j)."""
    shapes = _block_shapes(frame, 0, lambda t: frame.layer_dim(-t))
    starts = accumulate((d * d for d, _ in shapes), initial=0)
    values = {start + r * (d + 1): Fraction(l)
              for l, (start, (d, _)) in enumerate(zip(starts, shapes), 1) for r in range(d)}
    return HomElement.from_nonzeros(0, shapes, values)


def reference_tower_rows(frame: AdaptedFrame, k: int, bases) -> list[dict]:
    """The degree-k Leibniz rows of ``tanaka._solve_component``, assembled
    from action indexes built as before its target index: the index of
    degree t = k - weight(a) walks every generator w_r of the degree-t
    space at every basis vector e_b and asks each for the coordinates of
    [e_b, w_r], zero or not."""
    weights = frame.weights

    def target_dim(t: int) -> int:
        return frame.layer_dim(-t) if t < 0 else len(bases[t])

    shapes = _block_shapes(frame, k, target_dim)
    offsets = list(accumulate((r * c for r, c in shapes), initial=0))
    cols = [range(offsets[l - 1] + a - frame.offsets[l - 1], offsets[l], shapes[l - 1][1])
            for a, l in enumerate(weights)]

    def action(t: int, r: int, b: int) -> list:
        if t < 0:
            g = frame.offsets[-t - 1] + r
            return [(q - frame.offsets[weights[b] - t - 1], x)
                    for q, x in frame.graded._ad[b].get(g, {}).items()]
        return [(q, -x) for q, x in bases[t][r]._image(b).items()]

    indexes = {t: {b: [(r, q, x) for r in range(target_dim(t)) for q, x in action(t, r, b)]
                   for b in range(frame.dim)}
               for t in {k - l for l in weights}}
    return list(_leibniz_system(frame.graded._ad, frame.dim, cols, [indexes[k - l] for l in weights]))


def semidirect_with_derivation(L: LieAlgebra, d: Matrix) -> LieAlgebra:
    """Extend ``L`` by a new generator acting as the derivation ``d``:
    same table plus [e_{n+1}, e_i] = d(e_i)."""
    if not is_derivation(L, d):
        raise NotDerivationError("the supplied endomorphism is not a derivation")
    n = L.dim
    brackets = {(i, j): dict(row) for (i, j), row in L.table}
    for i in range(n):
        image = col(d, i)
        if not is_zero_vec(image):
            # stored pair (i, n) = [e_i, e_{n+1}] = -d(e_i)
            brackets[(i, n)] = tuple(-x for x in image) + (Fraction(0),)
    return LieAlgebra.from_brackets(n + 1, brackets).validated()


def reference_feasible_set(L: LieAlgebra):
    """The derivations d with (d - id)(g) in [g, g], as one affine solve
    over all n^2 entries of d: the Leibniz rows plus f(d(e_i)) = f(e_i)
    for every functional f cutting out [g, g], eliminated together in
    n^2 + 1 columns.  None when infeasible."""
    series = L.lower_central_series()
    if not series.nilpotent:
        raise NotNilpotentError("only nilpotent algebras can be stratified")
    n = L.dim
    gamma2 = series.terms[1] if len(series.terms) > 1 else Subspace.zero(n)
    # one functional per non-pivot coordinate q of the canonical rows:
    # 1 at q and -row_p[q] at each pivot p
    pivots = {row[0][0]: dict(row) for row in gamma2.rows}
    functionals = [{q: Fraction(1), **{p: -row[q] for p, row in pivots.items() if q in row}}
                   for q in range(n) if q not in pivots]
    rows = list(L.leibniz_rows())
    for i in range(n):
        for f in functionals:
            row = {k * n + i: c for k, c in f.items()}
            if i in f:
                row[n * n] = f[i]
            rows.append(row)
    return solve_affine_rows(rows, n * n)


def reference_is_stratifiable(L: LieAlgebra) -> StratifiabilityVerdict:
    """The stratifiability decision on :func:`reference_feasible_set`.
    Its particular solution (zero at every free column) is the witness
    that ``grading.is_stratifiable`` must reproduce; the layers are the
    generalised eigenspaces ker((d - j)^e), squaring d - j until the
    kernel has the dimension of gamma_j/gamma_{j+1}."""
    sol = reference_feasible_set(L)
    if sol is None:
        return StratifiabilityVerdict(False, None, None)
    series = L.lower_central_series()
    n = L.dim
    delta = from_flat(sol.particular, n, n)
    layers = []
    for j in range(1, series.step + 1):
        expected = series.terms[j - 1].dim - series.terms[j].dim
        power = matsub(delta, scaled(Matrix.identity(n), j))
        exponent = 1
        ker = nullspace(power)
        while ker.dim < expected and exponent < n:
            power = matmul(power, power)
            exponent *= 2
            ker = nullspace(power)
        layers.append(ker)
    try:
        strat = verify_stratification(L, layers)
    except (SmallFirstLayerError, TrivialTopLayerError):
        return StratifiabilityVerdict(True, delta, None)
    return StratifiabilityVerdict(True, grading_derivation(strat), strat)


# -- the 2-step duality ---------------------------------------------------------

def two_step_type(L: LieAlgebra) -> tuple[int, int]:
    """(m, k) for a 2-step algebra whose brackets of the first m basis
    vectors span the last k (abelian algebras give k = 0)."""
    k = L.lower_central_series().dims[1] if L.dim else 0
    m = L.dim - k
    for (a, b), vec in dense_table(L).items():
        assert b < m and all(not x for x in vec[:m]), "not in 2-step normal form"
    return m, k


def pair_rows(L: LieAlgebra) -> list[list[Fraction]]:
    """The structure-constant rows of a 2-step algebra of type (m, k), one
    per top coordinate, over the C(m,2) pair columns (a, b), a < b."""
    m, k = two_step_type(L)
    table = dense_table(L)
    pairs = list(combinations(range(m), 2))
    return [[table.get(ab, zero_vec(L.dim))[m + l] for ab in pairs] for l in range(k)]


def two_step_dual(L: LieAlgebra) -> LieAlgebra:
    """L^perp of type (m, C(m,2) - k) for L of type (m, k): its brackets
    are the canonical basis of the solution space of :func:`pair_rows`, so
    the kernel of its bracket is the row space of L's, and the stabilisers
    of the two kernels in gl(m) correspond under the transposed action."""
    m, _ = two_step_type(L)
    pairs = list(combinations(range(m), 2))
    kernel = solution_space(pair_rows(L), len(pairs)).basis_rows()
    brackets = {ab: (0,) * m + tuple(v[q] for v in kernel) for q, ab in enumerate(pairs)}
    return LieAlgebra.from_brackets(m + len(kernel), brackets).validated()


def two_step_g0_dim(L: LieAlgebra) -> int:
    """dim g_0 of a 2-step algebra in the normal form of :func:`two_step_type`."""
    m, k = two_step_type(L)
    layers = coordinate_layers(L.dim, consecutive_ranges([m, k] if k else [m]))
    return prolong(L, verify_stratification(L, layers), 0).dims[0]


def random_two_step(m: int, k: int, rng) -> LieAlgebra:
    """A seeded 2-step algebra of type (m, k): k random integer rows of
    rank k over the C(m,2) pair columns."""
    pairs = list(combinations(range(m), 2))
    while True:
        rows = [[rng.randint(-2, 2) for _ in pairs] for _ in range(k)]
        red = RowReducer(len(pairs))
        if sum(red.add(r) for r in rows) == k:
            break
    brackets = {ab: (0,) * m + tuple(r[q] for r in rows) for q, ab in enumerate(pairs)}
    return LieAlgebra.from_brackets(m + k, brackets).validated()


# -- the dimension-7 certificate --------------------------------------------------

# N7, of type (3,2,2) and step 3, has g_0 = span(D) and g_1 = 0.  G7 is
# N7 without layers, with e7 added to [e1,e4] and two new brackets into
# e7; each change adds a vector of weight below its bracket's weight, so
# gr(G7) from the first layer is N7, while G7 has step 5 and is not
# stratifiable.  The texts are the catalog's data files, ultrarigid_7 and
# deformed_7.
N7_TEXT = pkgutil.get_data("carnot", "data/ultrarigid_7.alg").decode("utf-8")
G7_TEXT = pkgutil.get_data("carnot", "data/deformed_7.alg").decode("utf-8")
