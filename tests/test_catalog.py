from fractions import Fraction

import pytest

import helpers
from carnot import algfile, catalog
from carnot.grading import coordinate_layers, is_stratifiable, verify_stratification
from carnot.tanaka import ultrarigidity_check
from carnot.catalog import UnknownEntryError

F = Fraction


def test_list_is_deterministic_and_round_trips():
    first = catalog.list_entries()
    second = catalog.list_entries()
    assert first == second
    assert [n for n, _ in first] == [
        "example1_16", "example2_17", "deformed_h_16", "heisenberg_3",
        "heisenberg_2n1(2)", "abelian(2)", "abelian(3)", "free_step2_rank3",
        "ultrarigid_7", "deformed_7",
    ]
    for name, _ in first:
        assert catalog.get(name).name == name


@pytest.mark.parametrize("name", [n for n, _ in catalog.list_entries()])
def test_every_entry_is_a_lie_algebra(name):
    entry = catalog.get(name)
    assert entry.algebra.jacobi_defect() == []


@pytest.mark.parametrize("name", [n for n, _ in catalog.list_entries()])
def test_declared_layers_validate_and_step_matches_series(name):
    entry = catalog.get(name)
    series = entry.algebra.lower_central_series()
    assert series.nilpotent
    assert series.step == entry.expected.step
    if entry.declared_layers is not None:
        strat = verify_stratification(
            entry.algebra, coordinate_layers(entry.algebra.dim, entry.declared_layers))
        assert strat.layer_dims == entry.expected.layer_dims


@pytest.mark.parametrize("name", [n for n, _ in catalog.list_entries()])
def test_expected_facts_that_are_asserted_hold(name):
    entry, facts = catalog.get(name), catalog.get(name).expected
    if facts.stratifiable is not None:
        assert is_stratifiable(entry.algebra).stratifiable is facts.stratifiable
    if facts.g0_dim is not None or facts.ultrarigid is not None:
        strat = verify_stratification(
            entry.algebra, coordinate_layers(entry.algebra.dim, entry.declared_layers))
        verdict = ultrarigidity_check(entry.algebra, strat)
        assert facts.g0_dim in (None, verdict.g0_dim)
        assert facts.ultrarigid in (None, verdict.infinitesimally_ultrarigid)


def test_example1_has_exactly_26_brackets():
    entry = catalog.get("example1_16")
    assert entry.algebra.bracket_count() == 26
    # the one negative structure constant
    v = entry.algebra.bracket_basis(8, 9)
    assert v[11] == F(-1) and sum(1 for x in v if x) == 1


def test_example2_is_example1_plus_top_bracket():
    e1 = catalog.get("example1_16").algebra
    e2 = catalog.get("example2_17").algebra
    assert e2.dim == 17
    extended = helpers.dense_table(e2)
    extra = extended.pop((0, 10))
    assert extra == tuple(F(1) if k == 16 else F(0) for k in range(17))
    assert sorted(extended) == sorted(dict(e1.table))
    for key, vec in helpers.dense_table(e1).items():
        assert extended[key] == vec + (F(0),)
    assert catalog.get("example2_17").expected.step == 3


def test_deformed_is_example1_plus_lowering_bracket():
    e1 = catalog.get("example1_16").algebra
    h = catalog.get("deformed_h_16").algebra
    table = helpers.dense_table(h)
    extra = table.pop((0, 10))
    assert extra == tuple(F(1) if k == 13 else F(0) for k in range(16))
    assert table == helpers.dense_table(e1)
    assert catalog.get("deformed_h_16").declared_layers is None
    assert catalog.get("deformed_h_16").expected.stratifiable is False


def test_parameterized_families():
    a4 = catalog.get("abelian(4)")
    assert a4.algebra.bracket_count() == 0
    assert a4.expected.step == 1 and a4.expected.g0_dim == 16
    h5 = catalog.get("heisenberg_2n1(2)")
    assert h5.algebra.dim == 5
    center = helpers.center(h5.algebra)
    assert center.dim == 1 and center.contains([0, 0, 0, 0, 1])
    h3_via_family = catalog.get("heisenberg_2n1(1)")
    assert h3_via_family.algebra.table == catalog.get("heisenberg_3").algebra.table
    assert catalog.get("abelian(1)").declared_layers is None


def test_unknown_names_rejected():
    for name in ["nope", "abelian(0)", "abelian(-1)", "heisenberg_2n1(0)", "abelian(x)"]:
        with pytest.raises(UnknownEntryError):
            catalog.get(name)


def test_family_dimension_ceiling():
    MAX_DIM = algfile.MAX_DIM
    assert catalog.get(f"abelian({MAX_DIM})").algebra.dim == MAX_DIM
    for name in [f"abelian({MAX_DIM + 1})", f"heisenberg_2n1({(MAX_DIM + 1) // 2})",
                 "abelian(" + "9" * 5000 + ")"]:
        with pytest.raises(UnknownEntryError, match=f"ceiling {MAX_DIM}"):
            catalog.get(name)


@pytest.mark.parametrize("name", ["example1_16", "example2_17", "deformed_h_16",
                                  "heisenberg_3", "free_step2_rank3"])
def test_data_files_match_loaded_entries(name):
    from importlib import resources

    entry = catalog.get(name)
    text = resources.files("carnot").joinpath("data", f"{name}.alg").read_text(encoding="utf-8")
    parsed = algfile.parse(text)
    assert parsed.algebra.table == entry.algebra.table
    assert parsed.layer_ranges == entry.declared_layers
