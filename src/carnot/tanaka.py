"""Strata-preserving derivations and the graded prolongation tower.

Grading convention: the layers V_1..V_s of a stratification sit in
negative degrees -1..-s.  For k >= 0 the degree-k component g_k consists
of tuples of linear maps u_l : V_l -> (target of degree k - l), where a
negative-degree target is a layer and a nonnegative-degree target is the
previously computed component g_{k-l}, represented in its stored basis.
Membership in g_k is cut out by the Leibniz condition

    u([X, Y]) = [u(X), Y] + [X, u(Y)]

over all pairs of homogeneous basis vectors X, Y, where [w, Y] = w(Y)
for nonnegative w, recursively through the representation.  Degree 0
gives exactly the layer-preserving (strata-preserving) derivations.  The
rows come from ``liealg._leibniz_system``, the one Leibniz assembler,
fed from a per-degree target index (:func:`_target_index`) that lists,
for each basis vector e_b, only the generators w of lower degree with
[e_b, w] != 0, so assembly walks nonzero actions only.
:func:`rigidity_verdict` turns a tower into a verdict.

Storage is sparse from the kernel on: each g_k basis vector is a
``HomElement`` holding the nonzero entries of its flattening plus its
block shapes: a row of the canonical reduced row echelon basis that
``linalg.solution_space`` returns, taken as it is.  No dense block is
built.  Each basis vector is also kept once as a scaled integer row.
Membership is a pivot read-off plus a fraction-free reduction against
those rows, which a result skips only for its own stored basis vectors,
indexed by ``id()`` and matched by ``is``: they are unit vectors in g_k
by construction.  The bracket is a table of structure constants, the
coordinates of [b^k_i, b^m_j] in the stored basis of g_{k+m}, filled on
first use from [u, v](X) = [u, [v, X]] - [v, [u, X]] with inner brackets
of nonnegative degree read from entries of lower total degree, each
checked to lie in the computed component.  The bracket is antisymmetric,
so each unordered pair of basis vectors is computed once and its mirror
stored as the exact negation.  A bracket's value sum_q c_q b_q is summed
over the integer rows in ``int``, over one common denominator.

The element images and the bracket table hold integral values as ``int``
(``linalg._lean``); every public value (``HomElement.entries``,
coordinates, ``hom0_to_endo``) is ``Fraction``.

Everything is computed in an adapted basis in which each layer is a
coordinate block; results living in the original endomorphism space are
conjugated back at the boundary: ``hom0_to_endo`` through
``linalg.conjugate``, and ``endomorphism_span`` straight from the sparse
columns of the same elimination, with no dense matrix.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Callable, Mapping, Optional, Sequence

from .grading import Stratification
from .liealg import LieAlgebra, _leibniz_system
from .linalg import (
    Matrix,
    Record,
    Subspace,
    Vec,
    _conjugate_columns,
    _dense_vec,
    _eliminate,
    _lean,
    conjugate,
    rat,
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


class AdaptedFrame(Record):
    """An algebra re-expressed in a basis adapted to its stratification."""

    algebra: LieAlgebra
    stratification: Stratification
    graded: LieAlgebra       # the algebra in adapted coordinates
    weights: tuple[int, ...]  # layer weight of each adapted index (1..s)
    offsets: tuple[int, ...]  # start of each layer block; offsets[s] == dim

    @staticmethod
    def build(L: LieAlgebra, s: Stratification) -> "AdaptedFrame":
        if s.ambient_dim != L.dim:
            raise ValueError("stratification ambient dimension mismatch")
        graded = L._changed_basis([row for v in s.layers for row in v.rows])
        weights: list[int] = []
        offsets = [0]
        for j, v in enumerate(s.layers):
            weights.extend([j + 1] * v.dim)
            offsets.append(offsets[-1] + v.dim)
        frame = AdaptedFrame(L, s, graded, tuple(weights), tuple(offsets))
        frame._check_graded()
        return frame

    def _check_graded(self) -> None:
        # [V_i, V_j] lands entirely in V_{i+j} for a valid stratification
        sdeg = self.step
        for (i, j), row in self.graded.table:
            w = self.weights[i] + self.weights[j]
            for k, _ in row:
                if w > sdeg or self.weights[k] != w:
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


class HomElement(Record):
    """An element of g_k as a sparse vector with block shapes.

    Block l (l = 1..s) has shape ``shapes[l-1]`` and maps layer-l
    coordinates to coordinates of the degree-(k-l) target (layer
    coordinates when k-l < 0, stored-basis coordinates of g_{k-l} when
    k-l >= 0).  The flattening is each block row-major, block after block;
    ``entries`` holds its nonzero ``(flat column, value)`` pairs in
    ascending columns, so equal elements have equal, hashable fields.
    """

    degree: int
    shapes: tuple[tuple[int, int], ...]
    entries: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def from_nonzeros(degree: int, shapes: Sequence[tuple[int, int]],
                      values: Mapping[int, Fraction]) -> "HomElement":
        """The element with ``values`` at its flat columns (zeros dropped), in ``Fraction``."""
        return HomElement(degree, tuple(shapes), tuple(sorted(
            (c, x if type(x) is Fraction else Fraction(x)) for c, x in values.items() if x)))

    def flatten(self) -> Vec:
        return _dense_vec(self.entries, sum(r * c for r, c in self.shapes))

    def is_zero(self) -> bool:
        return not self.entries

    def scaled(self, c) -> "HomElement":
        c = rat(c)
        return HomElement.from_nonzeros(self.degree, self.shapes,
                                        {col: c * x for col, x in self.entries})

    def __add__(self, other: "HomElement") -> "HomElement":
        if (self.degree, self.shapes) != (other.degree, other.shapes):
            raise ValueError("degree or shape mismatch")
        return HomElement.from_nonzeros(self.degree, self.shapes,
                                        _add_scaled(dict(self.entries), 1, other.entries))

    def _image(self, a: int) -> dict[int, Fraction]:
        """u(e_a) for the a-th adapted basis vector, as the nonzero target
        coordinates ``{q: _lean(value)}`` of its block's column.  Read-only."""
        return self._images.get(a, {})

    @cached_property
    def _images(self) -> dict[int, dict[int, Fraction]]:
        """Every nonzero column, indexed once on first use and kept in the
        instance ``__dict__``, outside the record's fields."""
        starts = list(accumulate((r * c for r, c in self.shapes), initial=0))
        layer_starts = list(accumulate((c for _, c in self.shapes), initial=0))
        out: dict[int, dict[int, Fraction]] = {}
        for pos, x in self.entries:
            l = bisect_right(starts, pos) - 1
            q, col = divmod(pos - starts[l], self.shapes[l][1])
            out.setdefault(layer_starts[l] + col, {})[q] = _lean(x)
        return out


def _add_scaled(acc: dict[int, Fraction], c, pairs) -> dict[int, Fraction]:
    """acc += c * v for the sparse vector v given by (index, value) pairs, x itself when c == 1."""
    if c == 1:
        for q, x in pairs:
            acc[q] = acc[q] + x if q in acc else x
        return acc
    for q, x in pairs:
        acc[q] = acc[q] + c * x if q in acc else c * x
    return acc


def _block_shapes(frame: AdaptedFrame, k: int,
                  target_dim: Callable[[int], int]) -> tuple[tuple[int, int], ...]:
    """(rows, cols) of each block of a degree-k element: block l maps
    layer l into degree k - l, whose dimension is ``target_dim(k - l)``."""
    return tuple((target_dim(k - l), frame.layer_dim(l)) for l in range(1, frame.step + 1))


def _target_index(frame: AdaptedFrame, t: int,
                  bases: Sequence[Sequence[HomElement]]) -> dict[int, list[tuple[int, int, Fraction]]]:
    """The nonzero actions of the adapted basis on the degree-t space:
    ``b`` maps to the flat list of ``(r, q, value)`` over the generators
    w_r with [e_b, w_r] != 0, in ascending r, and the nonzero coordinates
    q of [e_b, w_r] (degree t - weight(b)).

    The generators are the layer -t basis vectors e_g when t < 0, read off
    ``frame.graded._ad``, and the stored basis ``bases[t]`` of g_t when
    t >= 0, where [e_b, w] = -w(e_b) is read off ``HomElement._images``
    in one pass over the basis."""
    index: dict[int, list[tuple[int, int, Fraction]]] = {}
    if t >= 0:
        for r, w in enumerate(bases[t]):
            for b, image in w._images.items():
                index.setdefault(b, []).extend([(r, q, -x) for q, x in image.items()])
        return index
    lo, hi = frame.offsets[-t - 1], frame.offsets[-t]
    for b, ad_b in enumerate(frame.graded._ad):
        gs = sorted(g for g in ad_b if lo <= g < hi)
        if gs:
            # [e_b, e_g] lies in layer weight(b) - t (the frame's table is
            # graded), which exists because the bracket is nonzero
            off = frame.offsets[frame.weights[b] - t - 1]
            index[b] = [(g - lo, q - off, x) for g in gs for q, x in ad_b[g].items()]
    return index


def _solve_component(frame: AdaptedFrame, k: int,
                     bases: Sequence[Sequence[HomElement]],
                     dims: Sequence[int], index: dict) -> list[HomElement]:
    """Nullspace of the degree-k Leibniz system, as HomElements in
    canonical form: the sparse rows of ``solution_space``.

    ``bases``/``dims`` describe the previously computed components
    g_0..g_{k-1} (both empty for k = 0).  The term [e_b, u(e_a)] of a row
    is read from the :func:`_target_index` of degree k - weight(a) at b:
    only the generators w_r with [e_b, w_r] != 0, each at the unknown
    ``start + r * step`` of the column range of u(e_a).  ``index`` (the
    caller's dict, empty at first) keeps them across calls, with degree
    k - step - 1, read by no later k, dropped."""
    weights = frame.weights

    def target_dim(t: int) -> int:
        return frame.layer_dim(-t) if t < 0 else dims[t]

    shapes = _block_shapes(frame, k, target_dim)
    offsets = list(accumulate((r * c for r, c in shapes), initial=0))
    total = offsets[-1]
    if total == 0:
        return []

    def cols(a: int) -> range:
        # u(e_a) is the column of block l = weight(a) at a's position in layer l
        l = weights[a]
        return range(offsets[l - 1] + a - frame.offsets[l - 1], offsets[l], shapes[l - 1][1])

    index.pop(k - frame.step - 1, None)
    index.update({t: _target_index(frame, t, bases) for t in range(k - frame.step, k) if t not in index})

    def terms(a: int, b: int) -> list:
        # [e_b, u(e_a)] = sum_r u_r(e_a) [e_b, w_r], over the r with
        # [e_b, w_r] != 0 only; u_r(e_a) is unknown start + r * step
        if not (entries := index[k - weights[a]].get(b)):
            return []
        start, step = (col_a := cols(a)).start, col_a.step
        return [(q, start + r * step, x) for r, q, x in entries]

    return [HomElement(k, shapes, row) for row in
            solution_space(_leibniz_system(frame.graded._ad, frame.dim, cols, terms), total).rows]


def _endo_images(frame: AdaptedFrame, elements: Sequence[HomElement]) -> tuple[list, list]:
    """The adapted basis vectors p_a, as sparse rows, and the images of
    degree-0 elements under them, keyed for :func:`linalg.conjugate` with
    element s in the s-th copy: each element is block diagonal in adapted
    coordinates, so conjugating gives P A_s P^-1 in the original basis."""
    if any(el.degree != 0 for el in elements):
        raise ValueError("only degree-0 elements are endomorphisms")
    n, offsets, weights = frame.dim, frame.offsets, frame.weights
    basis = [p for v in frame.stratification.layers for p in v.rows]
    return basis, [{s * n + offsets[weights[a] - 1] + r: x
                     for s, el in enumerate(elements) for r, x in el._image(a).items()}
                    for a in range(n)]


def hom0_to_endo(frame: AdaptedFrame, el: HomElement) -> Matrix:
    """A degree-0 element as an endomorphism P A P^-1 in the original
    basis, where A is block diagonal in adapted coordinates."""
    return conjugate(*_endo_images(frame, [el]))


def endomorphism_span(frame: AdaptedFrame, elements: Sequence[HomElement]) -> Subspace:
    """The span of degree-0 elements (such as a stored basis of g_0) as
    endomorphisms in the original basis, in canonical form (row-major
    flattening, n^2 coordinates).  All are conjugated in one elimination,
    whose sparse columns are read straight into one row per element: entry
    s n + r of column a is entry (r, a) of element s, with no dense matrix."""
    n = frame.dim
    endos: list[dict[int, Fraction]] = [{} for _ in elements]
    for a, column in enumerate(_conjugate_columns(*_endo_images(frame, elements))):
        for key, x in column.items():
            s, r = divmod(key, n)
            endos[s][r * n + a] = x
    return Subspace.from_rows(endos, n * n)


class ProlongationResult(Record):
    """Computed prolongation components g_0..g_K with witness bases.

    ``finite`` is True when some component vanished (every later one
    vanishes too, so computation stops there) and None when the cap was
    reached with the last component still nonzero.

    ``bracket`` reads a table of basis structure constants, each unordered
    pair computed once and the other order stored as its exact negation, and
    ``coordinates_of`` reads, per degree, the block shapes, the pivot
    columns, one scaled integer row per basis vector and the index of each
    stored basis vector by ``id()``.  Both take this result's own
    basis vectors, matched by ``is``, as unit coordinates with no read-off;
    any other input, an equal copy too, is read off and not cached.  The
    caches are filled lazily and kept in the instance ``__dict__``, outside
    the record's fields, so equality and hashing see only the tower itself.
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

    def _shapes(self, t: int) -> tuple[tuple[int, int], ...]:
        return self._degree(t)[0]

    @cached_property
    def _degrees(self) -> dict[int, tuple]:
        """Filled on demand by :meth:`_degree`."""
        return {}

    def _degree(self, t: int) -> tuple:
        """The block shapes of g_t, the pivot columns of its stored basis,
        the basis as scaled integer rows ``{pivot: (d, d * b)}`` with d the
        lcm of the denominators of b, and the index i of each stored vector
        keyed by its ``id()``, cached per degree.  ``prolong`` stores each
        basis in canonical RREF: vector i is 1 at its pivot column (its
        first nonzero) and every other basis vector is 0 there, which is
        checked once per degree."""
        index = self._degrees.get(t)
        if index is None:
            basis = self.basis(t)
            pivots = tuple(b.entries[0][0] for b in basis if b.entries)
            pset = set(pivots)
            if len(pset) != len(basis) or any(
                    b.entries[0][1] != 1 or sum(c in pset for c, _ in b.entries) != 1
                    for b in basis):
                raise ValueError(f"stored basis of g_{t} is not in canonical form")
            rows = {}
            for p, b in zip(pivots, basis):
                d = lcm(*[x.denominator for _, x in b.entries])
                rows[p] = (d, {c: x.numerator * (d // x.denominator) for c, x in b.entries})
            index = self._degrees[t] = (_block_shapes(self.frame, t, self.component_dim),
                                        pivots, rows, {id(b): i for i, b in enumerate(basis)})
        return index

    def _read_off(self, t: int, values: Mapping[int, Fraction]) -> tuple:
        """The :func:`_lean` coordinates in the stored basis of g_t of the
        element with flat entries ``values``, or MembershipError: they are
        its entries at the pivot columns.  Scaled to integers by one common
        denominator, it is a member exactly when the fraction-free
        reduction (``linalg._eliminate``) at its pivots ends empty."""
        _, pivots, rows, _ = self._degree(t)
        den = lcm(*[x.denominator for x in values.values()])
        vec = {c: x.numerator * (den // x.denominator) for c, x in values.items() if x}
        for p in [p for p in vec if p in rows]:
            vec = _eliminate(vec, rows[p][1], p)
        if vec:
            if not pivots:
                raise MembershipError(f"nonzero element of vanishing component g_{t}")
            raise MembershipError(f"element does not lie in the computed g_{t}")
        return tuple([_lean(x) if (x := values.get(p)) else 0 for p in pivots])

    def _coordinates(self, el: HomElement) -> tuple:
        """The nonzero coordinates ``((i, value), ...)`` of ``el``.  This
        result's own stored basis vector b^t_i, matched by ``is``, is
        ``((i, 1),)``: it lies in g_t with its shapes by construction.  Any
        other element, an equal copy too, has its block shapes checked and
        goes through :meth:`_read_off`."""
        shapes, _, _, ids = self._degree(el.degree)
        if (i := ids.get(id(el))) is not None and self.bases[el.degree][i] is el:
            return ((i, 1),)
        if el.shapes != shapes:
            raise ValueError(f"element blocks do not have the shapes of g_{el.degree}")
        coords = self._read_off(el.degree, dict(el.entries))
        return tuple((i, x) for i, x in enumerate(coords) if x)

    def coordinates_of(self, el: HomElement) -> Vec:
        """Coordinates of ``el`` in the stored basis of its degree; raises
        MembershipError when it lies outside the component."""
        return _dense_vec(self._coordinates(el), len(self._degree(el.degree)[1]))

    @cached_property
    def _table(self) -> dict[tuple[int, int, int, int], dict[int, Fraction]]:
        """Structure constants filled on demand: (k, i, m, j) maps to the
        nonzero coordinates ``{q: value}`` of [b^k_i, b^m_j] in the stored
        basis of g_{k+m}, integral values as ``int``."""
        return {}

    def _entry(self, k: int, i: int, m: int, j: int) -> dict[int, Fraction]:
        """Table entry (k, i, m, j), computed once per unordered pair.  The
        canonical order (k, i) <= (m, j) is computed on first use from
        [u, v](X) = [u, [v, X]] - [v, [u, X]] over the basis vectors X of
        each layer.  An inner bracket of nonnegative degree has total
        degree below k + m and is read from the table; the result is
        checked to lie in the computed g_{k+m}.  The other order is the
        exact negation of the canonical entry, as the formula is
        antisymmetric term by term."""
        key = (k, i, m, j)
        if key in self._table:
            return self._table[key]
        if (m, j) < (k, i):
            self._table[key] = {q: -y for q, y in self._entry(m, j, k, i).items()}
            return self._table[key]
        u, v = self.basis(k)[i], self.basis(m)[j]
        values: dict[int, Fraction] = {}
        pos = 0
        for a0, (rows, d) in zip(self.frame.offsets, self._shapes(k + m)):
            for c in range(d):
                col = _add_scaled(self._outer(k, i, v, a0 + c), -1,
                                  self._outer(m, j, u, a0 + c).items())
                for q, y in col.items():
                    values[pos + q * d + c] = y
            pos += rows * d
        coords = self._read_off(k + m, values)
        self._table[key] = {q: y for q, y in enumerate(coords) if y}
        return self._table[key]

    def _outer(self, k: int, i: int, w: HomElement, a: int) -> dict[int, Fraction]:
        """A new dict of the coordinates of [b^k_i, [w, e_a]] for the a-th
        adapted basis vector, of layer l, in degree k + deg(w) - l (layer
        coordinates when negative)."""
        t = w.degree - self.frame.weights[a]
        if t < 0:
            # [w, e_a] lies in layer -t, on which b^k_i acts by its block
            b, off = self.basis(k)[i], self.frame.offsets[-t - 1]
            acc: dict[int, Fraction] = {}
            for r, x in w._image(a).items():
                _add_scaled(acc, x, b._image(off + r).items())
            return acc
        return self._bracket_coords(k, i, t, w._image(a).items())

    def _bracket_coords(self, k: int, i: int, t: int, coords) -> dict[int, Fraction]:
        """Coordinates of [b^k_i, w] for w in g_t given by its nonzero
        coordinate pairs ``(r, value)``, as a new dict."""
        acc: dict[int, Fraction] = {}
        for r, x in coords:
            _add_scaled(acc, x, self._entry(k, i, t, r).items())
        return acc

    def bracket(self, u: HomElement, v: HomElement) -> HomElement:
        """The prolongation bracket of nonnegative u, v: the bilinear
        combination c of table entries given by their coordinates, as
        sum_q c_q (d_q b_q) / d_q in ``int`` over one common denominator,
        or the stored b_q itself when c is one unit at q.  Raises
        MembershipError when u or v lies outside its computed component
        and ComponentNotComputedError past the cap."""
        if u.degree < 0 or v.degree < 0:
            raise ValueError("both elements must have nonnegative degree")
        a, b = self._coordinates(u), self._coordinates(v)
        k, m = u.degree, v.degree
        shapes, pivots, rows, _ = self._degree(k + m)
        acc: dict[int, Fraction] = {}
        for i, x in a:
            _add_scaled(acc, x, self._bracket_coords(k, i, m, b).items())
        terms = [(q, c) for q, c in acc.items() if c]
        if len(terms) == 1 and terms[0][1] == 1:
            return self.bases[k + m][terms[0][0]]
        den = lcm(*[rows[pivots[q]][0] * c.denominator for q, c in terms])
        values: dict[int, int] = {}
        for q, c in terms:
            d, row = rows[pivots[q]]
            _add_scaled(values, c.numerator * (den // (d * c.denominator)), row.items())
        return HomElement(k + m, shapes, tuple(sorted(
            (col, Fraction(x, den) if den != 1 else Fraction(x)) for col, x in values.items() if x)))


def prolong(L: LieAlgebra, s: Stratification, k_max: int = 6) -> ProlongationResult:
    """Compute g_0, g_1, ... up to degree ``k_max``, stopping early when
    a component vanishes (all later components vanish too).  Each degree's
    target index is built once, for the ``step`` degrees that read it."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    frame = AdaptedFrame.build(L, s)
    dims: list[int] = []
    bases: list[tuple[HomElement, ...]] = []
    index: dict = {}
    for k in range(k_max + 1):
        comps = _solve_component(frame, k, bases, dims, index)
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


class RigidityVerdict(Record):
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
