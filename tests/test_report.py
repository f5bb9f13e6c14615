from fractions import Fraction

import pytest

from carnot import catalog, report, tanaka
from carnot.cli import main
from carnot.grading import coordinate_layers, verify_stratification
from carnot.liealg import LieAlgebra
from carnot.linalg import Matrix, Subspace

from helpers import semidirect_with_derivation

F = Fraction


def test_fmt_layers_coordinate_ranges():
    h3 = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})
    s = verify_stratification(h3, [
        Subspace.from_rows([[1, 0, 0], [0, 1, 0]], 3),
        Subspace.from_rows([[0, 0, 1]], 3),
    ])
    assert report.fmt_layers(s) == "1..2; 3..3"


def test_fmt_layers_general_spans():
    # shear e3 into e1 so the first layer is not a coordinate span
    h3 = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1)})
    p = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [1, 0, 1]], 3)
    conj = h3.change_of_basis(p)
    s = verify_stratification(conj, [
        Subspace.from_rows([[1, 0, -1], [0, 1, 0]], 3),
        Subspace.from_rows([[0, 0, 1]], 3),
    ])
    assert report.fmt_layers(s) == "span(e1 + -1*e3; e2) | span(e3)"


def test_fmt_vec_labels():
    assert report.fmt_vec_labels(()) == "0"
    assert report.fmt_vec_labels(((0, F(1)), (1, F(-1, 2)), (2, F(3)))) == "e1 + -1/2*e2 + 3*e3"
    assert report.fmt_vec_labels(((3, F(1)), (9, F(-1)))) == "e4 + -1*e10"


def test_build_report_shows_violations_and_stops():
    bad = LieAlgebra.from_brackets(3, {(0, 1): (0, 0, 1), (0, 2): (1, 0, 0)})
    text, ok = report.build_report("test", bad, None)
    assert not ok
    assert "jacobi: 1 violations" in text
    assert "nilpotent: none" in text
    assert "stratifiable: none" in text


def test_build_report_non_nilpotent():
    d = Matrix.identity(1)
    affine = semidirect_with_derivation(LieAlgebra.from_brackets(1, {}), d)
    text, ok = report.build_report("affine", affine, None)
    assert ok
    assert "nilpotent: false" in text
    assert "step: none" in text
    assert "series_dims: 2 1" in text
    assert "stratifiable: none" in text
    assert "g0_dim: none" in text


def _count_frames_and_degrees(monkeypatch):
    """Record each AdaptedFrame.build call and the degree of each
    _solve_component call."""
    calls = {"frame": 0, "degrees": []}
    build, solve = tanaka.AdaptedFrame.build, tanaka._solve_component

    def counting_build(*args):
        calls["frame"] += 1
        return build(*args)

    def counting_solve(frame, k, *args):
        calls["degrees"].append(k)
        return solve(frame, k, *args)

    monkeypatch.setattr(tanaka.AdaptedFrame, "build", staticmethod(counting_build))
    monkeypatch.setattr(tanaka, "_solve_component", counting_solve)
    return calls


def test_build_report_builds_one_frame_and_solves_g0_once(monkeypatch):
    calls = _count_frames_and_degrees(monkeypatch)
    entry = catalog.get("example1_16")
    text, ok = report.build_report("example1_16", entry.algebra, entry.declared_layers)
    assert ok
    assert calls["frame"] == 1 and calls["degrees"].count(0) == 1
    monkeypatch.undo()

    s = verify_stratification(entry.algebra,
                              coordinate_layers(entry.algebra.dim, entry.declared_layers))
    rows = tanaka.degree_zero_derivations(entry.algebra, s).basis_rows()
    expected = [f"g0_basis[{i}]: {report.fmt_flat(row)}" for i, row in enumerate(rows)]
    assert [line for line in text.splitlines() if line.startswith("g0_basis[")] == expected
    assert f"g0_dim: {len(rows)}" in text.splitlines()


def test_ultrarigidity_check_builds_one_frame_and_solves_g0_and_g1(monkeypatch):
    calls = _count_frames_and_degrees(monkeypatch)
    entry = catalog.get("example1_16")
    s = verify_stratification(entry.algebra,
                              coordinate_layers(entry.algebra.dim, entry.declared_layers))
    verdict = tanaka.ultrarigidity_check(entry.algebra, s)
    assert calls == {"frame": 1, "degrees": [0, 1]}
    assert (verdict.g0_dim, verdict.infinitesimally_ultrarigid, verdict.g1_trivial) == (1, True, True)


def _lines_with(out, keys):
    return [line for line in out.splitlines() if line.startswith(keys)]


# (command, the report options giving the same cap, the keys it prints)
_REPORT_SLICES = (
    (["rigid"], [], ("g0_dim:", "ultrarigid:", "g1_trivial:")),
    (["g0"], ["--max", "0"], ("g0_dim:", "g0_basis[")),
    (["prolong", "--max", "2"], ["--max", "2"], ("prolongation_",)),
)


def test_rigid_and_report_share_one_verdict(capsys):
    # rigid, g0 and prolong print exactly their keys of the report
    for command, report_options, keys in _REPORT_SLICES:
        compared = 0
        for name, _ in catalog.list_entries():
            main(["report", name, *report_options])
            report_out = capsys.readouterr().out
            if "g0_dim: none" in report_out.splitlines():
                continue
            assert main([command[0], name, *command[1:]]) in (0, 1)
            out = capsys.readouterr().out.splitlines()
            assert out[0] == f"source: catalog:{name}"
            assert out[1:] == _lines_with(report_out, keys), (command, name)
            compared += 1
        assert compared == 8  # every entry but deformed_h_16 and deformed_7
    main(["rigid", "abelian(2)"])
    assert "g1_trivial: none" in capsys.readouterr().out.splitlines()


def test_report_max_zero_keeps_g0_lines(capsys):
    assert main(["report", "heisenberg_3", "--max", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "g0_dim: 4" in out
    assert sum(line.startswith("g0_basis[") for line in out) == 4
    assert "prolongation_cap: 0" in out
    assert "prolongation_dims: 4" in out
    assert "g1_trivial: none" in out


def test_prolong_and_rigid_build_no_g0_span(capsys, monkeypatch):
    # neither command prints a g0_basis line, so report_lines is asked for
    # their keys only and never builds the g_0 span
    def no_span(frame, elements):
        raise AssertionError("the g_0 span was built")

    monkeypatch.setattr(tanaka, "endomorphism_span", no_span)
    for name in ("heisenberg_3", "example1_16", "heisenberg_2n1(2)"):
        assert main(["prolong", name, "--max", "1"]) == 0
        assert main(["rigid", name]) in (0, 1)
    out = capsys.readouterr().out.splitlines()
    assert "prolongation_dims: 4 6" in out and "ultrarigid: true" in out
    assert not any(line.startswith("g0_basis[") for line in out)
    with pytest.raises(AssertionError, match="g_0 span"):
        main(["g0", "heisenberg_3"])
