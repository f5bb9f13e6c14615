from fractions import Fraction

import pytest

from carnot import catalog
from carnot.algfile import MAX_DIM, AlgebraFileError, emit, parse
from carnot.liealg import LieAlgebra

F = Fraction


def test_parse_minimal_heisenberg():
    parsed = parse("dim 3\nbracket 1 2 = 3\n")
    assert parsed.algebra.dim == 3
    assert parsed.algebra.bracket_basis(0, 1) == (0, 0, 1)
    assert parsed.layer_ranges is None


def test_parse_layers_comments_and_whitespace():
    text = """
    # a comment line
    dim   4

    layers 1..2;  3..4   # trailing comment
    bracket 1   2 =  3 + 1/2*4
    bracket 3 4 = -2*1
    """
    parsed = parse(text)
    assert parsed.layer_ranges == ((1, 2), (3, 4))
    assert parsed.algebra.bracket_basis(0, 1) == (0, 0, 1, F(1, 2))
    assert parsed.algebra.bracket_basis(2, 3) == (-2, 0, 0, 0)


def test_parse_negative_and_fraction_coefficients():
    parsed = parse("dim 2\nbracket 1 2 = -3/2*1 + 2*2\n")
    assert parsed.algebra.bracket_basis(0, 1) == (F(-3, 2), F(2))


def test_parse_repeated_target_accumulates():
    parsed = parse("dim 3\nbracket 1 2 = 3 + 2*3\n")
    assert parsed.algebra.bracket_basis(0, 1) == (0, 0, 3)
    assert parsed.algebra.table == (((0, 1), ((2, F(3)),)),)


def test_parse_cancelling_terms_store_no_bracket():
    L = parse("dim 3\nbracket 1 2 = 3 + -1*3\n").algebra
    assert L.bracket_count() == 0
    assert L.bracket_basis(0, 1) == (0, 0, 0)
    text = emit(L)
    assert text == "dim 3\n"
    assert parse(text).algebra == L


@pytest.mark.parametrize("text,line,fragment", [
    ("bracket 1 2 = 3\n", 1, "before dim"),
    ("dim 3\ndim 4\n", 2, "duplicate dim"),
    ("dim 0\n", 1, "positive"),
    ("dim 3\nbracket 2 1 = 3\n", 2, "a < b"),
    ("dim 3\nbracket 1 1 = 3\n", 2, "a < b"),
    ("dim 3\nbracket 1 5 = 3\n", 2, "out of range"),
    ("dim 3\nbracket 1 2 = 9\n", 2, "out of range"),
    ("dim 3\nbracket 1 2 = 3\nbracket 1 2 = 3\n", 3, "duplicate bracket"),
    ("dim 3\nbracket 1 2 = 1/0*3\n", 2, "bad fraction"),
    ("dim 3\nbracket 1 2 = 1.5*3\n", 2, "bad term"),
    ("dim 3\nbracket 1 2 = e3\n", 2, "bad term"),
    ("dim 3\nwhat is this\n", 2, "unrecognized"),
    ("dim 4\nlayers 2..4\n", 2, "starting at 1"),
    ("dim 4\nlayers 1..2; 2..4\n", 2, "consecutive"),
    ("dim 4\nlayers 1..2\n", 2, "cover"),
    ("dim 4\nlayers 1..2; 3..4\nlayers 1..4\n", 3, "duplicate layers"),
    ("dim 4\nlayers 1-2; 3-4\n", 2, "bad layer range"),
    ("", 1, "missing dim"),
    (f"dim {MAX_DIM + 1}\n", 1, f"ceiling {MAX_DIM}"),
])
def test_parse_diagnostics_carry_line_numbers(text, line, fragment):
    with pytest.raises(AlgebraFileError) as err:
        parse(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_dimension_ceiling_itself_parses():
    assert parse(f"dim {MAX_DIM}\n").algebra.dim == MAX_DIM


def test_emit_golden_heisenberg():
    L = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})
    assert emit(L, [(1, 2), (3, 3)]) == "dim 3\nlayers 1..2; 3..3\nbracket 1 2 = 3\n"


def test_emit_golden_coefficients():
    L = LieAlgebra.from_brackets(3, {(0, 1): (0, F(-1), F(1, 2)), (0, 2): (3, 0, 0)})
    assert emit(L) == ("dim 3\n"
                       "bracket 1 2 = -1*2 + 1/2*3\n"
                       "bracket 1 3 = 3*1\n")


@pytest.mark.parametrize("name", [n for n, _ in catalog.list_entries()])
def test_round_trip_catalog_entries(name):
    entry = catalog.get(name)
    text = emit(entry.algebra, entry.declared_layers)
    parsed = parse(text)
    assert parsed.algebra.table == entry.algebra.table
    assert parsed.algebra.dim == entry.algebra.dim
    assert parsed.layer_ranges == entry.declared_layers
    # emitting again is stable
    assert emit(parsed.algebra, parsed.layer_ranges) == text
