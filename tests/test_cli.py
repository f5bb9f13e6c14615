import os
import subprocess
import sys
from pathlib import Path

import pytest

from carnot.algfile import MAX_DIM
from carnot.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_catalog_entry(capsys):
    code, out, _ = run_cli(capsys, "check", "example1_16")
    assert code == 0
    assert "jacobi: ok" in out
    assert "brackets: 26" in out


def test_check_reports_violations_with_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.alg"
    bad.write_text("dim 3\nbracket 1 2 = 3\nbracket 1 3 = 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "jacobi: 1 violations" in out
    assert "violation (1,2,3)" in out


def test_check_rejects_negative_limit(capsys, tmp_path):
    # two violations: a negative limit used to print one and then claim
    # three more were truncated
    bad = tmp_path / "bad4.alg"
    bad.write_text("dim 4\nbracket 1 2 = 3\nbracket 1 3 = 1\nbracket 2 4 = 1\n",
                   encoding="utf-8")
    code, out, _ = run_cli(capsys, "check", str(bad))
    assert code == 1
    assert "jacobi: 2 violations" in out
    code, out, err = run_cli(capsys, "check", str(bad), "--limit", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("carnot: --limit must be nonnegative")


def test_check_bracket_free_dim_2000_subprocess(tmp_path):
    # Jacobi is checked over nonzero brackets only, so an empty table of
    # any dimension is instant
    f = tmp_path / "abelian2000.alg"
    f.write_text("dim 2000\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "carnot.cli", "check", str(f)],
        capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0
    assert "jacobi: ok" in proc.stdout


_LONG = "1" * 5000  # past the interpreter's integer-string limit of 4300 digits
_NO_DIGIT_LIMIT = not getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.parametrize("source,text,fragment", [
    (f"abelian({_LONG})", None, "ceiling"),
    (f"heisenberg_2n1({_LONG})", None, "ceiling"),
    ("abelian(999999999)", None, "ceiling"),
    ("heisenberg_2n1(99999999999)", None, "ceiling"),
    ("dim", "dim 999999999\n", "line 1: dimension exceeds the ceiling"),
    ("dim", f"dim {_LONG}\n", "line 1:"),
    ("layers", f"dim 3\nlayers 1..{_LONG}\n", "line 2:"),
    ("index", f"dim 3\nbracket 1 {_LONG} = 3\n", "line 2:"),
    pytest.param("coefficient", f"dim 3\nbracket 1 2 = {_LONG}*3\n", "line 2:",
                 marks=pytest.mark.skipif(_NO_DIGIT_LIMIT, reason="no integer-string limit")),
])
def test_huge_numbers_exit_2_with_a_message(capsys, tmp_path, source, text, fragment):
    if text is not None:
        source = tmp_path / f"{source}.alg"
        source.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "check", str(source))
    assert code == 2
    assert out == ""
    assert err.startswith("carnot: ") and fragment in err
    assert "Traceback" not in err
    if fragment == "ceiling":
        assert f"ceiling {MAX_DIM}" in err


def test_series_command(capsys):
    code, out, _ = run_cli(capsys, "series", "example2_17")
    assert code == 0
    assert "series_dims: 17 7 1 0" in out
    assert "step: 3" in out


def test_g0_command(capsys):
    code, out, _ = run_cli(capsys, "g0", "example1_16")
    assert code == 0
    assert "g0_dim: 1" in out
    assert "g0_basis[0]:" in out


def test_prolong_command(capsys):
    code, out, _ = run_cli(capsys, "prolong", "heisenberg_3", "--max", "3")
    assert code == 0
    assert "prolongation_dims: 4 6 9 12" in out
    assert "prolongation_finite: unknown" in out


def test_prolong_rejects_negative_max(capsys):
    code, out, err = run_cli(capsys, "prolong", "heisenberg_3", "--max", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("carnot: --max must be nonnegative")


def test_report_rejects_negative_max(capsys):
    code, out, err = run_cli(capsys, "report", "heisenberg_3", "--max", "-1")
    assert code == 2
    assert out == ""
    assert err.startswith("carnot: --max must be nonnegative")


def test_rigid_verdicts_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "rigid", "example1_16")
    assert code == 0
    assert "ultrarigid: true" in out and "g1_trivial: true" in out
    code, out, _ = run_cli(capsys, "rigid", "heisenberg_3")
    assert code == 1
    assert "g0_dim: 4" in out
    code, _, _ = run_cli(capsys, "rigid", "heisenberg_3", "--expect", "not-ultrarigid")
    assert code == 0
    code, _, _ = run_cli(capsys, "rigid", "example1_16", "--expect", "not-ultrarigid")
    assert code == 1


def test_stratifiable_verdicts_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "stratifiable", "deformed_h_16")
    assert code == 1
    assert "stratifiable: false" in out
    code, _, _ = run_cli(capsys, "stratifiable", "deformed_h_16",
                         "--expect", "not-stratifiable")
    assert code == 0
    code, out, _ = run_cli(capsys, "stratifiable", "example1_16")
    assert code == 0
    assert "stratifiable: true" in out
    assert "layers: 1..10; 11..16" in out


def test_gr_reproduces_example1_from_deformed(capsys):
    code, gr_out, _ = run_cli(capsys, "gr", "deformed_h_16", "--horizontal", "1..10")
    assert code == 0
    code, emit_out, _ = run_cli(capsys, "catalog", "example1_16", "--emit")
    assert code == 0
    assert gr_out == emit_out


def test_gr_not_bracket_generating(capsys):
    code, _, err = run_cli(capsys, "gr", "abelian(2)", "--horizontal", "1..1")
    assert code == 1
    assert "generates" in err


def test_catalog_listing_and_details(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    assert out.splitlines()[0].startswith("example1_16:")
    code, out, _ = run_cli(capsys, "catalog", "heisenberg_3")
    assert code == 0
    assert "declared_layers: 1..2; 3..3" in out


def test_explicit_catalog_prefix(capsys):
    code, out, _ = run_cli(capsys, "series", "catalog:heisenberg_3")
    assert code == 0
    assert "source: catalog:heisenberg_3" in out


def test_file_source(capsys, tmp_path):
    f = tmp_path / "h3.alg"
    f.write_text("dim 3\nlayers 1..2; 3..3\nbracket 1 2 = 3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "rigid", str(f))
    assert code == 1  # h3 is not rigid
    assert "g0_dim: 4" in out


def test_parse_error_exits_2_with_line_number(capsys, tmp_path):
    f = tmp_path / "broken.alg"
    f.write_text("dim 3\nbracket 2 1 = 3\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "check", str(f))
    assert code == 2
    assert "line 2" in err


def test_unknown_source_exits_2(capsys):
    code, _, err = run_cli(capsys, "check", "no_such_thing")
    assert code == 2
    assert "no such file or catalog entry" in err


def test_report_on_deformed(capsys):
    code, out, _ = run_cli(capsys, "report", "deformed_h_16")
    assert code == 0
    assert "stratifiable: false" in out
    assert "layers: none" in out
    assert "g0_dim: none" in out


def test_report_keeps_invalid_declared_layers_diagnostic(capsys, tmp_path):
    # bad layers on a perfectly stratifiable algebra: the report flags the
    # declaration instead of silently substituting a derived grading
    f = tmp_path / "h3_bad_layers.alg"
    f.write_text("dim 3\nlayers 1..1; 2..3\nbracket 1 2 = 3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "report", str(f))
    assert code == 0
    assert "layers: invalid (LayerGenerationError)" in out
    assert "stratifiable: true" in out
    assert "g0_dim: none" in out


_BAD_LAYERS = ("declared layers are not a stratification: "
               "[V_1, V_1] != V_2: generated dim 0, expected dim {}")
_NO_STRATIFICATION = "the algebra admits no stratification"


@pytest.mark.parametrize("command", ["g0", "prolong", "rigid"])
@pytest.mark.parametrize("source, message", [
    ("dim 3\nbracket 1 2 = 3\nbracket 1 3 = 1\n", "Jacobi identity fails at triples (1,2,3)"),
    ("dim 2\nbracket 1 2 = 2\n", "only nilpotent algebras can be stratified"),
    ("dim 2\nlayers 1..1; 2..2\nbracket 1 2 = 2\n", _BAD_LAYERS.format(1)),
    ("dim 3\nlayers 1..1; 2..3\nbracket 1 2 = 3\n", _BAD_LAYERS.format(2)),
    ("abelian(1)", _NO_STRATIFICATION),
    ("dim 1\n", _NO_STRATIFICATION),
], ids=["jacobi", "not-nilpotent", "not-nilpotent-declared", "h3-bad-layers",
        "abelian1", "dim1-file"])
def test_stratification_problems_exit_1(capsys, tmp_path, command, source, message):
    # the declared-layers message wins over the nilpotency one
    if source.startswith("dim"):
        f = tmp_path / "input.alg"
        f.write_text(source, encoding="utf-8")
        source = str(f)
    assert run_cli(capsys, command, source) == (1, "", f"carnot: {message}\n")


@pytest.mark.parametrize("command", ["g0", "prolong", "rigid"])
def test_invalid_declared_layers_exit_without_a_stratifiability_verdict(
        capsys, tmp_path, monkeypatch, command):
    # only the report prints the verdict, so these commands never decide it
    from carnot import grading

    def refuse(algebra):
        raise AssertionError("is_stratifiable ran")

    f = tmp_path / "h3_bad_layers.alg"
    f.write_text("dim 3\nlayers 1..1; 2..3\nbracket 1 2 = 3\n", encoding="utf-8")
    monkeypatch.setattr(grading, "is_stratifiable", refuse)
    assert run_cli(capsys, command, str(f)) == (1, "", f"carnot: {_BAD_LAYERS.format(2)}\n")
    with pytest.raises(AssertionError, match="is_stratifiable ran"):
        run_cli(capsys, "report", str(f))


def test_g0_derives_stratification_when_none_declared(capsys, tmp_path):
    f = tmp_path / "h3_plain.alg"
    f.write_text("dim 3\nbracket 1 2 = 3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "g0", str(f))
    assert code == 0
    assert "g0_dim: 4" in out


def test_report_determinism_in_process(capsys):
    _, first, _ = run_cli(capsys, "report", "example1_16")
    _, second, _ = run_cli(capsys, "report", "example1_16")
    assert first == second


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "carnot.cli", "rigid", "example1_16"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "ultrarigid: true" in proc.stdout


def test_usage_error_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "carnot.cli", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 2


def test_startup_imports_no_introspection_modules():
    # a report subprocess pays for every module it imports; dataclasses
    # alone pulls in inspect, ast, dis and tokenize.  Modules loaded before
    # the import (site .pth hooks) do not count, as in the CI stdlib step.
    script = """
import io, sys
from contextlib import redirect_stdout
before = set(sys.modules)
from carnot.algfile import MAX_DIM
from carnot.cli import main
with redirect_stdout(io.StringIO()):
    assert main(["report", "example1_16"]) == 0
heavy = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
print(" ".join(sorted(heavy & (set(sys.modules) - before))))
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


# The paper's certificate at dimension 9: a Carnot algebra N of type (5,4)
# with g_0 = span(D) and g_1 = 0, and a nilpotent, non-stratifiable G
# (N without layers, plus [e1,e6] = e7) with gr(G) = N.  e6 occurs only in
# [e1,e2], so the extra bracket keeps Jacobi, and [V_1, V_2] lands in
# filtration level 3, where gr does not see it.
_N9 = """dim 9
layers 1..5; 6..9
bracket 1 2 = 6
bracket 1 4 = 8
bracket 1 5 = 7
bracket 2 5 = 9
bracket 3 4 = 7 + -1*8 + 9
bracket 3 5 = 7
bracket 4 5 = 9
"""
_G9 = _N9.replace("layers 1..5; 6..9\n", "") + "bracket 1 6 = 7\n"


def test_dimension_9_certificate(capsys, tmp_path):
    n9, g9 = tmp_path / "n9.alg", tmp_path / "g9.alg"
    n9.write_text(_N9, encoding="utf-8")
    g9.write_text(_G9, encoding="utf-8")
    code, out, _ = run_cli(capsys, "report", str(n9))
    assert code == 0
    lines = out.splitlines()
    grading = [0] * 81
    for i in range(9):
        grading[10 * i] = 1 if i < 5 else 2
    for line in ("series_dims: 9 4 0", "stratifiable: true", "layer_dims: 5 4", "g0_dim: 1",
                 "g0_basis[0]: " + " ".join(map(str, grading)),
                 "prolongation_dims: 1 0", "prolongation_finite: true",
                 "ultrarigid: true", "g1_trivial: true"):
        assert line in lines
    code, out, _ = run_cli(capsys, "report", str(g9))
    assert code == 0
    lines = out.splitlines()
    for line in ("jacobi: ok", "nilpotent: true", "step: 3", "series_dims: 9 4 1 0",
                 "stratifiable: false"):
        assert line in lines
    code, out, _ = run_cli(capsys, "gr", str(g9), "--horizontal", "1..5")
    assert code == 0
    assert out == _N9
