"""Built-in algebras: rigid examples of dimensions 16, 17 and 7, deformed
non-stratifiable algebras of dimensions 16 and 7, and classical controls.

The fixed tables are stored as data files in the CLI text format (one
bracket per line) so they can be reviewed line by line; parameterized
families (``abelian(n)``, ``heisenberg_2n1(n)``) are generated.
"""

from __future__ import annotations

import pkgutil
import re
from functools import lru_cache
from typing import Optional

from . import algfile
from .liealg import LieAlgebra
from .linalg import Record


class UnknownEntryError(ValueError):
    pass


class EntryParameterError(UnknownEntryError):
    """A family name whose parameter is not positive or gives a dimension
    above ``algfile.MAX_DIM``."""


class ExpectedFacts(Record):
    """Independently known facts; None where a value is deliberately left
    to be computed rather than asserted."""

    step: int
    layer_dims: Optional[tuple[int, ...]]
    g0_dim: Optional[int] = None
    ultrarigid: Optional[bool] = None
    stratifiable: Optional[bool] = None


class CatalogEntry(Record):
    name: str
    algebra: LieAlgebra
    declared_layers: Optional[tuple[tuple[int, int], ...]]
    expected: ExpectedFacts
    provenance: str


_FIXED: dict[str, tuple[str, ExpectedFacts, str]] = {
    "example1_16": (
        "example1_16.alg",
        ExpectedFacts(step=2, layer_dims=(10, 6), g0_dim=1, ultrarigid=True, stratifiable=True),
        "16-dimensional 2-step algebra whose strata-preserving derivations "
        "are spanned by the grading derivation",
    ),
    "example2_17": (
        "example2_17.alg",
        ExpectedFacts(step=3, layer_dims=(10, 6, 1), g0_dim=1, ultrarigid=True, stratifiable=True),
        "17-dimensional step-3 extension of example1_16 by the bracket "
        "[e1,e11] = e17 into a new top layer",
    ),
    "deformed_h_16": (
        "deformed_h_16.alg",
        ExpectedFacts(step=3, layer_dims=None, stratifiable=False),
        "deformation of example1_16 by the order-raising bracket "
        "[e1,e11] = e14; nilpotent but not stratifiable",
    ),
    "heisenberg_3": (
        "heisenberg_3.alg",
        ExpectedFacts(step=2, layer_dims=(2, 1), g0_dim=4, ultrarigid=False, stratifiable=True),
        "classical 3-dimensional Heisenberg algebra",
    ),
    "free_step2_rank3": (
        "free_step2_rank3.alg",
        # g0 dimension deliberately left to be computed, not asserted
        ExpectedFacts(step=2, layer_dims=(3, 3), stratifiable=True),
        "free 2-step nilpotent algebra on 3 generators",
    ),
    "ultrarigid_7": (
        "ultrarigid_7.alg",
        ExpectedFacts(step=3, layer_dims=(3, 2, 2), g0_dim=1, ultrarigid=True, stratifiable=True),
        "7-dimensional step-3 algebra of type (3,2,2) with g_0 = span(D) and g_1 = 0",
    ),
    "deformed_7": (
        "deformed_7.alg",
        ExpectedFacts(step=5, layer_dims=None, stratifiable=False),
        "step-5 deformation of ultrarigid_7 with gr = ultrarigid_7; not stratifiable",
    ),
}

_ABELIAN_RE = re.compile(r"^abelian\((\d+)\)$")
_HEISENBERG_RE = re.compile(r"^heisenberg_2n1\((\d+)\)$")


def _load_fixed(name: str) -> CatalogEntry:
    filename, expected, provenance = _FIXED[name]
    # pkgutil rather than importlib.resources, which imports inspect and
    # ast on Python 3.12 and later: every CLI call reads a data file
    text = pkgutil.get_data("carnot", f"data/{filename}").decode("utf-8")
    parsed = algfile.parse(text)
    return CatalogEntry(name, parsed.algebra.validated(), parsed.layer_ranges,
                        expected, provenance)


def _abelian(n: int) -> CatalogEntry:
    algebra = LieAlgebra.from_brackets(n, {})
    layers = ((1, n),) if n >= 2 else None
    expected = ExpectedFacts(step=1, layer_dims=(n,),
                             g0_dim=n * n,
                             ultrarigid=False if n >= 2 else None,
                             stratifiable=True)
    return CatalogEntry(f"abelian({n})", algebra, layers, expected,
                        f"abelian algebra of dimension {n}")


def _heisenberg(n: int) -> CatalogEntry:
    dim = 2 * n + 1
    brackets = {(i, n + i): {dim - 1: 1} for i in range(n)}
    algebra = LieAlgebra.from_brackets(dim, brackets).validated()
    expected = ExpectedFacts(step=2, layer_dims=(2 * n, 1),
                             ultrarigid=False, stratifiable=True)
    return CatalogEntry(f"heisenberg_2n1({n})", algebra, ((1, 2 * n), (dim, dim)),
                        expected, f"Heisenberg algebra of dimension {dim}")


def _parameter(name: str, digits: str, family: str, dim_of) -> int:
    """The parameter n of the name ``family(n)``, checked before anything
    of its dimension ``dim_of(n)`` is built."""
    try:
        n = int(digits)
    except ValueError:  # past the interpreter's integer-string limit
        n = None
    if n is not None and n < 1:
        raise EntryParameterError(f"{family}(n) needs n >= 1, got {name}")
    if n is None or dim_of(n) > algfile.MAX_DIM:
        raise EntryParameterError(f"{family}(n) has dimension above the ceiling {algfile.MAX_DIM}")
    return n


@lru_cache(maxsize=None)
def get(name: str) -> CatalogEntry:
    """Look up a catalog entry by name.

    Fixed names: example1_16, example2_17, deformed_h_16, heisenberg_3,
    free_step2_rank3, ultrarigid_7, deformed_7.  Parameterized: abelian(n)
    and heisenberg_2n1(n) for n >= 1, up to the dimension ceiling
    ``algfile.MAX_DIM``.
    """
    if name in _FIXED:
        return _load_fixed(name)
    m = _ABELIAN_RE.match(name)
    if m:
        return _abelian(_parameter(name, m.group(1), "abelian", lambda n: n))
    m = _HEISENBERG_RE.match(name)
    if m:
        return _heisenberg(_parameter(name, m.group(1), "heisenberg_2n1", lambda n: 2 * n + 1))
    raise UnknownEntryError(f"unknown catalog entry: {name}")


def list_entries() -> list[tuple[str, str]]:
    """Deterministically ordered (name, description) pairs; every listed
    name round-trips through :func:`get`."""
    names = ["example1_16", "example2_17", "deformed_h_16", "heisenberg_3", "heisenberg_2n1(2)",
             "abelian(2)", "abelian(3)", "free_step2_rank3", "ultrarigid_7", "deformed_7"]
    return [(name, get(name).provenance) for name in names]
