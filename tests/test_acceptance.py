"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with its runtime (run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they appear).

All assertions are exact; the stated wall-clock budgets are asserted
too.  Criterion 6b pins the infinite contact tower of the 3-dimensional
Heisenberg control: g_k has the dimension floor((k+4)^2/4) of the
weighted-degree-(k+2) contact Hamiltonians (4, 6, 9, 12, 16, ...), and
the verdict at the cap is unknown.  The originally stated (4, 2, 1, 0)
was the contact grading of sp(4, R), a finite subalgebra of the contact
algebra, not the Tanaka prolongation of the Heisenberg symbol.  The
same tower is cross-checked in tests/test_tanaka.py against a monomial
count and a hand-derived Leibniz system for g_1.
"""

import io
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stdout

import propsuites
import pytest
from carnot import catalog, cli
from carnot.grading import (
    coordinate_layers,
    grading_derivation,
    homogeneous_dimension,
    is_stratifiable,
    nilpotentisation,
    verify_stratification,
)
from carnot.linalg import Matrix, Subspace, unit_vec
from carnot.tanaka import (
    ComponentNotComputedError,
    degree_zero_derivations,
    prolong,
    ultrarigidity_check,
)

from helpers import center


@contextmanager
def criterion(cid: str, name: str, limit: float):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < limit, f"criterion {cid} exceeded its {limit:.0f}s budget: {elapsed:.2f}s"
        print(f"ACCEPTANCE {cid} {name}: PASS ({elapsed:.2f}s)", flush=True)
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {cid} {name}: FAIL ({elapsed:.2f}s)", flush=True)
        raise


def stratification_of(name):
    entry = catalog.get(name)
    return entry.algebra, verify_stratification(
        entry.algebra, coordinate_layers(entry.algebra.dim, entry.declared_layers))


def test_criterion_1_transcription_soundness():
    with criterion("1", "catalog transcription satisfies Jacobi", 1.0):
        entry = catalog.get("example1_16")
        assert entry.algebra.bracket_count() == 26
        assert entry.algebra.jacobi_defect() == []


def test_criterion_2_example1_structure():
    with criterion("2", "example1 step/layers/Q/center", 1.0):
        L, strat = stratification_of("example1_16")
        series = L.lower_central_series()
        assert series.step == 2
        assert strat.layer_dims == (10, 6)
        assert homogeneous_dimension(strat) == 22
        assert center(L).dim == 6


def test_criterion_3_example1_ultrarigidity():
    with criterion("3", "example1 g0 = span(D) and g1 = 0", 30.0):
        L, strat = stratification_of("example1_16")
        g0 = degree_zero_derivations(L, strat)
        assert g0.dim == 1
        assert g0.basis_rows() == (grading_derivation(strat).flatten(),)
        result = prolong(L, strat, 1)
        assert result.dims == (1, 0)
        assert result.finite is True


def test_criterion_4_example2_ultrarigidity_step3():
    with criterion("4", "example2 step-3 structure and rigidity", 60.0):
        L, strat = stratification_of("example2_17")
        series = L.lower_central_series()
        assert series.step == 3
        assert strat.layer_dims == (10, 6, 1)
        assert homogeneous_dimension(strat) == 25
        g0 = degree_zero_derivations(L, strat)
        assert g0.dim == 1
        result = prolong(L, strat, 1)
        assert result.dims == (1, 0) and result.finite is True


def test_criterion_5_deformed_reproduction():
    with criterion("5", "deformed algebra: not stratifiable, gr = example1", 30.0):
        h = catalog.get("deformed_h_16").algebra
        e1 = catalog.get("example1_16").algebra
        series = h.lower_central_series()
        assert series.nilpotent
        verdict = is_stratifiable(h)
        assert verdict.stratifiable is False
        horizontal = Subspace.from_rows([unit_vec(16, i) for i in range(10)], 16)
        gr = nilpotentisation(h, horizontal)
        assert gr.adapted_basis == Matrix.identity(16)
        assert gr.algebra.table == e1.table


def test_criterion_6a_heisenberg_negative_control():
    with criterion("6a", "heisenberg control: g0 dim 4, bracket closure", 10.0):
        L, strat = stratification_of("heisenberg_3")
        verdict = ultrarigidity_check(L, strat)
        assert verdict.g0_dim == 4
        assert not verdict.infinitesimally_ultrarigid
        result = prolong(L, strat, 2)
        for k in range(3):
            for m in range(3 - k):
                for u in result.bases[k]:
                    for v in result.bases[m]:
                        w = result.bracket(u, v)
                        assert w.degree == k + m
                        result.coordinates_of(w)  # membership in g_{k+m}


def test_criterion_6b_heisenberg_prolongation_terminates():
    """Name is historical: 6b now pins the non-terminating contact tower."""
    with criterion("6b", "heisenberg prolongation dims = contact Hamiltonian count, "
                   "verdict unknown", 10.0):
        L, strat = stratification_of("heisenberg_3")
        result = prolong(L, strat, 4)
        # monomials in (x, y, z) of weights (1, 1, 2) and weighted degree k + 2
        assert result.dims == tuple((k + 4) ** 2 // 4 for k in range(5))
        assert result.finite is None  # never a false "finite"
        with pytest.raises(ComponentNotComputedError):
            result.component_dim(5)


def test_criterion_7_abelian_infinite_prolongation_control():
    with criterion("7", "abelian(2) reaches the cap with verdict unknown", 10.0):
        entry = catalog.get("abelian(2)")
        strat = verify_stratification(entry.algebra, [Subspace.full(2)])
        result = prolong(entry.algebra, strat, 6)
        assert len(result.dims) == 7
        assert all(d > 0 for d in result.dims)
        assert result.finite is None  # never a false "finite"


def test_criterion_8_property_suites():
    with criterion("8", "randomized property suites (>= 100 cases each)", 300.0):
        assert propsuites.dilation_group_law(100) >= 100
        assert propsuites.dilation_automorphism_identity(100) >= 100
        assert propsuites.grading_derivation_in_g0(100) >= 100
        assert propsuites.conjugation_invariance("heisenberg_3", 100) >= 100
        assert propsuites.conjugation_invariance("example1_16", 100) >= 100
        assert propsuites.subspace_dimension_formula(120) >= 100
        assert propsuites.parse_emit_round_trip(120) >= 100


def _report_bytes(name: str) -> bytes:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["report", name])
    assert code == 0
    return buffer.getvalue().encode("utf-8")


def test_criterion_9_report_determinism():
    with criterion("9", "byte-identical reports for every catalog entry", 120.0):
        for name, _ in catalog.list_entries():
            assert _report_bytes(name) == _report_bytes(name), name
        # and across separate processes for one representative entry
        runs = [
            subprocess.run([sys.executable, "-m", "carnot.cli", "report", "example1_16"],
                           capture_output=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and runs[0]
