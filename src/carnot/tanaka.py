"""Strata-preserving derivations and the graded prolongation tower.

Grading convention: the layers V_1..V_s of a stratification sit in
negative degrees -1..-s.  For k >= 0 the degree-k component g_k consists
of tuples of linear maps u_l : V_l -> (target of degree k - l), where a
negative-degree target is a layer and a nonnegative-degree target is the
previously computed component g_{k-l}, represented in its stored basis.
Membership in g_k is cut out by the Leibniz condition

    u([X, Y]) = [u(X), Y] + [X, u(Y)]

over all pairs of homogeneous basis vectors X, Y, where the bracket of a
nonnegative element w against a negative Y means applying w's stored
maps: [w, Y] = w(Y), recursively through the representation.  Degree 0
recovers exactly the layer-preserving (strata-preserving) derivations.
The rows come from ``liealg._leibniz_system``, the one Leibniz assembler
(its other layout is the n^2 entries of ``LieAlgebra.leibniz_rows``).
``degree_zero_derivations`` and ``ultrarigidity_check`` read g_0 and g_1
off :func:`prolong`; :func:`rigidity_verdict` turns a tower into a verdict.

The bracket of the computed tower is a table of structure constants:
the coordinates of [b^k_i, b^m_j] in the stored basis of g_{k+m}, for
the stored basis vectors b^k_i of g_k.  Entries are filled on first use
from [u, v](X) = [u, [v, X]] - [v, [u, X]], reading every inner bracket
of nonnegative degree from entries of lower total degree, and each entry
is checked to lie in the computed component.

Each component's basis is stored in canonical reduced row echelon form,
so membership needs no elimination: it is a pivot read-off plus an exact
residual check.  The coordinates of an element are its entries at the
basis pivot columns, and it is a member exactly when subtracting that
combination of the basis leaves no nonzero entry.

Everything is computed in an adapted basis in which each layer is a
coordinate block; results living in the original endomorphism space are
conjugated back at the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .grading import Stratification
from .liealg import LieAlgebra, _leibniz_system
from .linalg import (
    Matrix,
    Subspace,
    Vec,
    _sparse_cols,
    invert,
    is_zero_vec,
    solution_space,
    # not called here (coordinates are read off at pivots), but the
    # benchmark self-test bench/selftest.py checks that its tracer wraps
    # carnot.tanaka.solve_affine, so the name stays until that test changes
    solve_affine,  # noqa: F401
)


class ComponentNotComputedError(ValueError):
    pass


class MembershipError(ValueError):
    pass


@dataclass(frozen=True)
class AdaptedFrame:
    """An algebra re-expressed in a basis adapted to its stratification."""

    algebra: LieAlgebra
    stratification: Stratification
    adapted: Matrix          # rows are the adapted basis vectors
    cols: Matrix             # adapted vectors as columns
    cols_inv: Matrix
    graded: LieAlgebra       # the algebra in adapted coordinates
    weights: tuple[int, ...]  # layer weight of each adapted index (1..s)
    offsets: tuple[int, ...]  # start of each layer block; offsets[s] == dim

    @staticmethod
    def build(L: LieAlgebra, s: Stratification) -> "AdaptedFrame":
        if s.ambient_dim != L.dim:
            raise ValueError("stratification ambient dimension mismatch")
        rows = [row for v in s.layers for row in v.basis_rows()]
        adapted = Matrix.from_rows(rows, L.dim)
        cols = adapted.transpose()
        cols_inv = invert(cols)
        assert cols_inv is not None
        graded = L._changed_basis(cols, cols_inv)
        weights: list[int] = []
        offsets = [0]
        for j, v in enumerate(s.layers):
            weights.extend([j + 1] * v.dim)
            offsets.append(offsets[-1] + v.dim)
        frame = AdaptedFrame(L, s, adapted, cols, cols_inv, graded,
                             tuple(weights), tuple(offsets))
        frame._check_graded()
        return frame

    def _check_graded(self) -> None:
        # [V_i, V_j] lands entirely in V_{i+j} for a valid stratification
        sdeg = self.step
        for (i, j), vec in self.graded.table:
            w = self.weights[i] + self.weights[j]
            for k, x in enumerate(vec):
                if x and (w > sdeg or self.weights[k] != w):
                    raise ValueError("transported table is not graded; invalid stratification")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def step(self) -> int:
        return self.stratification.step

    def layer_dim(self, l: int) -> int:
        if 1 <= l <= self.step:
            return self.offsets[l] - self.offsets[l - 1]
        return 0


@dataclass(frozen=True)
class HomElement:
    """An element of g_k: one matrix block per source layer.

    ``blocks[l-1]`` maps layer-l coordinates to coordinates of the
    degree-(k-l) target (layer coordinates when k-l < 0, stored-basis
    coordinates of the computed component when k-l >= 0).
    """

    degree: int
    blocks: tuple[Matrix, ...]

    def flatten(self) -> Vec:
        return tuple(x for b in self.blocks for x in b.flatten())

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def scaled(self, c) -> "HomElement":
        return HomElement(self.degree, tuple(b.scaled(c) for b in self.blocks))

    def __add__(self, other: "HomElement") -> "HomElement":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return HomElement(self.degree, tuple(a + b for a, b in zip(self.blocks, other.blocks)))


def _block_shapes(frame: AdaptedFrame, k: int,
                  target_dim: Callable[[int], int]) -> list[tuple[int, int]]:
    """(rows, cols) of each block of a degree-k element: block l maps
    layer l into degree k - l, whose dimension is ``target_dim(k - l)``."""
    return [(target_dim(k - l), frame.layer_dim(l)) for l in range(1, frame.step + 1)]


def _element_from_flat(k: int, shapes: Sequence[tuple[int, int]], flat: Vec) -> HomElement:
    """Cut a flat vector into row-major blocks of the given shapes (every
    layer of a stratification is nonzero, so each block has c >= 1
    columns)."""
    blocks = []
    pos = 0
    for r, c in shapes:
        it = iter(flat[pos:pos + r * c])
        blocks.append(Matrix(r, c, tuple(zip(*[it] * c))))
        pos += r * c
    return HomElement(k, tuple(blocks))


def _solve_component(frame: AdaptedFrame, k: int,
                     bases: Sequence[Sequence[HomElement]],
                     dims: Sequence[int]) -> list[HomElement]:
    """Nullspace of the degree-k Leibniz system, as HomElements.

    ``bases``/``dims`` describe the previously computed components
    g_0..g_{k-1} (both empty for k = 0).
    """
    weights = frame.weights

    def target_dim(t: int) -> int:
        return frame.layer_dim(-t) if t < 0 else dims[t]

    shapes = _block_shapes(frame, k, target_dim)
    offsets = [0]
    for r, c in shapes:
        offsets.append(offsets[-1] + r * c)
    total = offsets[-1]
    if total == 0:
        return []

    def cols(a: int) -> range:
        # u(e_a) is the column of block l = weight(a) at a's position in layer l
        l = weights[a]
        return range(offsets[l - 1] + a - frame.offsets[l - 1], offsets[l], shapes[l - 1][1])

    actions: dict[tuple[int, int, int], list[tuple[int, Fraction]]] = {}

    def action(t: int, r: int, b: int) -> list[tuple[int, Fraction]]:
        """Nonzero home-coordinates (q, value) of [e_b, w] for w the r-th
        generator of the degree-t space; the result has degree
        t - weight(b)."""
        key = (t, r, b)
        if key in actions:
            return actions[key]
        j = weights[b]
        if t < 0:
            # [e_b, e_g] lies in layer j - t (the frame's table is graded),
            # so it is zero when that layer does not exist
            g = frame.offsets[-t - 1] + r
            out = [(q - frame.offsets[j - t - 1], x)
                   for q, x in frame.graded._ad[b].get(g, {}).items()]
        else:
            # [e_b, w] = -w(e_b)
            block = bases[t][r].blocks[j - 1]
            pos = b - frame.offsets[j - 1]
            out = [(q, -row[pos]) for q, row in enumerate(block.entries) if row[pos]]
        actions[key] = out
        return out

    def terms(a: int, b: int):
        # [e_b, u(e_a)] = sum_r u_r(e_a) [e_b, w_r]
        t = k - weights[a]
        for r, col in enumerate(cols(a)):
            for q, x in action(t, r, b):
                yield q, col, x

    sol = solution_space(_leibniz_system(frame.graded._ad, frame.dim, cols, terms), total)
    return [_element_from_flat(k, shapes, flat) for flat in sol.basis_rows()]


def hom0_to_endo(frame: AdaptedFrame, el: HomElement) -> Matrix:
    """A degree-0 element as an endomorphism P A P^-1 in the original
    basis, where A is block diagonal in adapted coordinates.  Column j is
    P A (P^-1 e_j), built from the sparse columns of P^-1 and of P."""
    if el.degree != 0:
        raise ValueError("only degree-0 elements are endomorphisms")
    n = frame.dim
    p_cols = _sparse_cols(frame.cols)
    out = []
    for v in _sparse_cols(frame.cols_inv):
        col = [Fraction(0)] * n
        for b, x in v.items():
            l = frame.weights[b]
            off = frame.offsets[l - 1]
            for r, row in enumerate(el.blocks[l - 1].entries):
                y = row[b - off] * x  # a term of (A v)[off + r]
                if y:
                    for i, z in p_cols[off + r].items():
                        col[i] += y * z
        out.append(col)
    return Matrix(n, n, tuple(zip(*out)))


def grading_element(frame: AdaptedFrame) -> HomElement:
    """The grading derivation D as a degree-0 element (j times the
    identity on layer j)."""
    blocks = []
    for l in range(1, frame.step + 1):
        d = frame.layer_dim(l)
        blocks.append(Matrix.identity(d).scaled(l))
    return HomElement(0, tuple(blocks))


def endomorphism_span(frame: AdaptedFrame, elements: Sequence[HomElement]) -> Subspace:
    """The span of degree-0 elements (such as a stored basis of g_0) as
    endomorphisms in the original basis, in canonical form."""
    rows = [hom0_to_endo(frame, el).flatten() for el in elements]
    return Subspace.from_rows(rows, frame.dim ** 2)


@dataclass(frozen=True)
class ProlongationResult:
    """Computed prolongation components g_0..g_K with witness bases.

    ``finite`` is True when some component vanished (every later one
    vanishes too, so computation stops there) and None when the cap was
    reached with the last component still nonzero.

    ``bracket`` reads a table of basis structure constants, and
    ``coordinates_of`` reads the pivot column and the nonzero entries of
    each stored basis vector, per degree.  Both are filled lazily and kept
    in the instance ``__dict__``, outside the dataclass fields, so equality
    and hashing see only the tower itself.
    """

    dims: tuple[int, ...]
    finite: Optional[bool]
    bases: tuple[tuple[HomElement, ...], ...]
    frame: AdaptedFrame

    def component_dim(self, t: int) -> int:
        if t < 0:
            return self.frame.layer_dim(-t)
        if t < len(self.dims):
            return self.dims[t]
        if self.finite:
            return 0
        raise ComponentNotComputedError(f"degree {t} not computed (cap {len(self.dims) - 1})")

    def basis(self, t: int) -> tuple[HomElement, ...]:
        if 0 <= t < len(self.bases):
            return self.bases[t]
        if self.finite:
            return ()
        raise ComponentNotComputedError(f"degree {t} not computed (cap {len(self.bases) - 1})")

    def _shapes(self, t: int) -> list[tuple[int, int]]:
        return _block_shapes(self.frame, t, self.component_dim)

    @cached_property
    def _sparse_bases(self) -> dict[int, tuple[tuple[int, dict[int, Fraction]], ...]]:
        """Filled on demand: degree t maps to the pivot column and the
        nonzeros ``{column: value}`` of each stored basis vector of g_t,
        flattened."""
        return {}

    def _sparse_basis(self, t: int) -> tuple[tuple[int, dict[int, Fraction]], ...]:
        """Pivot and nonzeros of the stored basis of g_t.  ``prolong``
        stores each basis in canonical RREF, so vector i is 1 at its pivot
        column and every other basis vector is 0 there; that is checked
        once per degree."""
        sparse = self._sparse_bases.get(t)
        if sparse is None:
            sparse = tuple((min(nz), nz) for nz in
                           ({c: x for c, x in enumerate(b.flatten()) if x} for b in self.basis(t)))
            pivots = {p for p, _ in sparse}
            if len(pivots) != len(sparse) or any(
                    nz[p] != 1 or len(pivots.intersection(nz)) != 1 for p, nz in sparse):
                raise ValueError(f"stored basis of g_{t} is not in canonical form")
            self._sparse_bases[t] = sparse
        return sparse

    def coordinates_of(self, el: HomElement) -> Vec:
        """Coordinates of ``el`` in the stored basis of its degree;
        raises MembershipError when it lies outside the component.

        Membership is a pivot read-off plus an exact residual check: the
        coordinates are the entries of ``el`` at the pivot columns of the
        canonical basis, and ``el`` is a member exactly when subtracting
        that combination of basis vectors leaves no nonzero entry."""
        basis = self._sparse_basis(el.degree)
        if [(b.rows, b.cols) for b in el.blocks] != self._shapes(el.degree):
            raise ValueError(f"element blocks do not have the shapes of g_{el.degree}")
        flat = el.flatten()
        if not basis:
            if not is_zero_vec(flat):
                raise MembershipError(f"nonzero element of vanishing component g_{el.degree}")
            return ()
        coords = tuple(flat[p] for p, _ in basis)
        residual = list(flat)
        for c, (_, nz) in zip(coords, basis):
            if c:
                for col, x in nz.items():
                    residual[col] -= c * x
        if any(residual):
            raise MembershipError(f"element does not lie in the computed g_{el.degree}")
        return coords

    @cached_property
    def _table(self) -> dict[tuple[int, int, int, int], Vec]:
        """Structure constants filled on demand: (k, i, m, j) maps to the
        coordinates of [b^k_i, b^m_j] in the stored basis of g_{k+m}."""
        return {}

    def _entry(self, k: int, i: int, m: int, j: int) -> Vec:
        """Table entry (k, i, m, j), computing it on first use from
        [u, v](X) = [u, [v, X]] - [v, [u, X]] over the basis vectors X of
        each layer.  An inner bracket of nonnegative degree has total
        degree below k + m and is read from the table; the result is
        checked to lie in the computed g_{k+m}."""
        key = (k, i, m, j)
        if key in self._table:
            return self._table[key]
        u, v = self.basis(k)[i], self.basis(m)[j]
        frame = self.frame
        blocks = []
        for l in range(1, frame.step + 1):
            d = frame.layer_dim(l)
            cols = [tuple(a - b if b else a for a, b in zip(self._outer(k, i, v, l, c),
                                                           self._outer(m, j, u, l, c)))
                    for c in range(d)]
            blocks.append(Matrix(self.component_dim(k + m - l), d, tuple(zip(*cols))))
        coords = self.coordinates_of(HomElement(k + m, tuple(blocks)))
        self._table[key] = coords
        return coords

    def _outer(self, k: int, i: int, w: HomElement, l: int, c: int) -> Vec:
        """[b^k_i, [w, X]] for X the c-th basis vector of layer l, in the
        coordinates of degree k + deg(w) - l (layer coordinates when
        negative)."""
        t = w.degree - l
        inner = w.blocks[l - 1].col(c)
        if t < 0:
            nz = [(r, x) for r, x in enumerate(inner) if x]
            return tuple(sum((row[r] * x for r, x in nz if row[r]), Fraction(0))
                         for row in self.basis(k)[i].blocks[-t - 1].entries)
        return self._bracket_coords(k, i, t, inner)

    def _bracket_coords(self, k: int, i: int, t: int, coords: Vec) -> Vec:
        """Coordinates of [b^k_i, w] for w in g_t given by ``coords``."""
        acc = [Fraction(0)] * self.component_dim(k + t)
        for r, x in enumerate(coords):
            if x:
                for q, y in enumerate(self._entry(k, i, t, r)):
                    if y:
                        acc[q] += x * y
        return tuple(acc)

    def bracket(self, u: HomElement, v: HomElement) -> HomElement:
        """The prolongation bracket of nonnegative u, v: the bilinear
        combination of table entries given by their coordinates.  Raises
        MembershipError when u or v lies outside its computed component
        and ComponentNotComputedError past the cap."""
        if u.degree < 0 or v.degree < 0:
            raise ValueError("both elements must have nonnegative degree")
        a, b = self.coordinates_of(u), self.coordinates_of(v)
        K = u.degree + v.degree
        acc = [Fraction(0)] * self.component_dim(K)
        for i, x in enumerate(a):
            if x:
                for q, y in enumerate(self._bracket_coords(u.degree, i, v.degree, b)):
                    acc[q] += x * y
        shapes = self._shapes(K)
        flat = [Fraction(0)] * sum(r * c for r, c in shapes)
        for c, (_, nz) in zip(acc, self._sparse_basis(K)):
            if c:
                for col, x in nz.items():
                    flat[col] += c * x
        return _element_from_flat(K, shapes, flat)


def prolong(L: LieAlgebra, s: Stratification, k_max: int = 6) -> ProlongationResult:
    """Compute g_0, g_1, ... up to degree ``k_max``, stopping early when
    a component vanishes (all later components vanish too)."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    frame = AdaptedFrame.build(L, s)
    dims: list[int] = []
    bases: list[tuple[HomElement, ...]] = []
    for k in range(k_max + 1):
        comps = _solve_component(frame, k, bases, dims)
        dims.append(len(comps))
        bases.append(tuple(comps))
        if not comps:
            return ProlongationResult(tuple(dims), True, tuple(bases), frame)
    return ProlongationResult(tuple(dims), None, tuple(bases), frame)


def degree_zero_derivations(L: LieAlgebra, s: Stratification) -> Subspace:
    """The strata-preserving derivations, g_0 of :func:`prolong`, in the
    n^2-dimensional endomorphism space of the original basis."""
    result = prolong(L, s, 0)
    return endomorphism_span(result.frame, result.bases[0])


@dataclass(frozen=True)
class RigidityVerdict:
    """Infinitesimal rigidity report.

    ``infinitesimally_ultrarigid`` means the strata-preserving
    derivations reduce to multiples of the grading derivation; the
    discrete part of the automorphism group is not decided here.  When
    the algebra is nonabelian and g_0 is one-dimensional,
    ``g1_trivial`` records the direct computation that g_1
    vanishes (so the whole prolongation is g + g_0).
    """

    g0_dim: int
    infinitesimally_ultrarigid: bool
    g1_trivial: Optional[bool]


def rigidity_verdict(result: ProlongationResult) -> RigidityVerdict:
    """The verdict read off a computed tower: ultrarigid when g_0 is
    one-dimensional, and ``g1_trivial`` from g_1 when the algebra is
    nonabelian, g_0 is one-dimensional and g_1 was computed."""
    dims = result.dims
    ultra = dims[0] == 1
    g1_trivial = None
    if ultra and not result.frame.algebra.is_abelian() and len(dims) > 1:
        g1_trivial = dims[1] == 0
    return RigidityVerdict(dims[0], ultra, g1_trivial)


def ultrarigidity_check(L: LieAlgebra, s: Stratification) -> RigidityVerdict:
    """:func:`rigidity_verdict` of the tower up to g_1."""
    return rigidity_verdict(prolong(L, s, 1))
