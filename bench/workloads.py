"""The four benchmark workloads and the answers they are checked against.

A workload is a ``setup(seed)`` that imports carnot and builds the
inputs, and a ``make_pass(state, index)`` that yields ``(label, op)``
pairs.  Each ``op()`` performs one operation of the program and checks
its answer: it returns ``None`` when the answer is right and a short
message when it is not; an exception counts as a failure too.  One
pass is the workload's fixed operation list.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

REPORT_ENTRIES = ("example1_16", "example2_17", "deformed_h_16", "heisenberg_3",
                  "heisenberg_2n1(2)", "abelian(2)", "abelian(3)", "free_step2_rank3")
# the nilpotentisation of deformed_h_16 equals example1_16 entry for entry,
# so its output is the bytes of `catalog example1_16 --emit`
GR_ARGV = ("gr", "deformed_h_16", "--horizontal", "1..10")

# n = 4 (7-9 s, 189 MB) is left out: see "Noise" in README.md
TOWER_N = (1, 2, 3)
TOWER_CAP = 3
BRACKET_ENTRY = "heisenberg_3"
BRACKET_CAP = 3

CONJUGATION_ENTRIES = ("example1_16", "deformed_h_16", "example2_17")
# Where the shears sit and how the basis is reordered are drawn once from
# this fixed seed, not from the run seed.  The Jacobi check costs about the
# square of the number of nonzero brackets, and elimination work depends
# on the basis order (up to 2.5x across orders), so letting either vary
# would make the cost vary by seed.
CONJUGATION_SHAPE_SEED = 0
CONJUGATION_SHEARS = 4
CONJUGATION_POOL = 64  # passes of seeded matrices drawn in setup
# (series dims, dim Der, stratifiable, derived layer dims)
CONJUGATION_EXPECTED = {
    "example1_16": ((16, 6, 0), 61, True, (10, 6)),
    "deformed_h_16": ((16, 6, 1, 0), 57, False, None),
    "example2_17": ((17, 7, 1, 0), 65, True, (10, 6, 1)),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def golden_name(argv) -> str:
    if argv[0] == "report":
        return "report-" + argv[1].replace("(", "-").replace(")", "") + ".txt"
    return f"{argv[0]}-{argv[1]}.alg"


def read_golden(argv) -> bytes:
    return (GOLDEN / golden_name(argv)).read_bytes()


# -- reports -----------------------------------------------------------------

def subprocess_cli(argv) -> tuple[int, bytes]:
    """``python -m carnot.cli ARGV`` as a fresh process, the user's path."""
    proc = subprocess.run([sys.executable, "-m", "carnot.cli", *argv], cwd=ROOT,
                          env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, timeout=120, check=False)
    return proc.returncode, proc.stdout


def inprocess_cli(argv) -> tuple[int, bytes]:
    """``carnot.cli.main(ARGV)`` in this process, with the catalog cache
    emptied first so each call starts from what a fresh process has."""
    from carnot import catalog, cli

    catalog.get.cache_clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


def _cli_op(run, argv, expected: bytes):
    def op():
        code, out = run(argv)
        if code != 0:
            return f"exit code {code}"
        if out != expected:
            return "stdout differs from the golden bytes"
        return None
    return op


def setup_reports(seed: int):
    """The CLI runs as a subprocess; a traced run swaps ``run`` for
    :func:`inprocess_cli` so the wrappers see the calls."""
    argvs = [("report", name) for name in REPORT_ENTRIES] + [GR_ARGV]
    return {"run": subprocess_cli, "ops": [(argv, read_golden(argv)) for argv in argvs]}


def pass_reports(state, index: int):
    for argv, expected in state["ops"]:
        yield " ".join(argv), _cli_op(state["run"], argv, expected)


# -- tower -------------------------------------------------------------------

def contact_dims(n: int, cap: int) -> tuple[int, ...]:
    """dim g_k of the Heisenberg algebra of dimension 2n+1, k = 0..cap: the
    number of monomials of weighted degree k+2 in 2n variables of weight 1
    and one variable of weight 2 (contact Hamiltonians)."""
    return tuple(sum(comb(2 * n - 1 + k + 2 - 2 * j, 2 * n - 1) for j in range((k + 2) // 2 + 1))
                 for k in range(cap + 1))


def _stratified(name: str):
    from carnot import catalog, grading

    entry = catalog.get(name)
    layers = grading.coordinate_layers(entry.algebra.dim, entry.declared_layers)
    return entry.algebra, grading.verify_stratification(entry.algebra, layers)


def setup_tower(seed: int):
    return {n: (_stratified(f"heisenberg_2n1({n})"), contact_dims(n, TOWER_CAP)) for n in TOWER_N}


def _prolong_op(algebra, strat, cap, expected, keep=None):
    from carnot import tanaka

    def op():
        result = tanaka.prolong(algebra, strat, cap)
        if keep is not None:
            keep.append(result)
        if result.dims != expected or result.finite is not None:
            return f"tower dims {result.dims}, finite {result.finite}; expected {expected}, None"
        return None
    return op


def pass_tower(state, index: int):
    for n, ((algebra, strat), expected) in state.items():
        yield f"prolong heisenberg_2n1({n})", _prolong_op(algebra, strat, TOWER_CAP, expected)


# -- brackets ----------------------------------------------------------------

def setup_brackets(seed: int):
    return _stratified(BRACKET_ENTRY)


def _bracket_op(result, u, v, degree, where):
    def op():
        w = result.bracket(u, v)  # raises MembershipError outside g_{k+m}
        return None if w.degree == degree else f"{where}: degree {w.degree}, expected {degree}"
    return op


def pass_brackets(state, index: int):
    """The tower to degree 3, then every bracket [u, v] of basis elements
    u in g_k, v in g_m with k + m <= 3 (376 brackets)."""
    algebra, strat = state
    kept = []
    yield "prolong heisenberg_3", _prolong_op(algebra, strat, BRACKET_CAP,
                                              contact_dims(1, BRACKET_CAP), kept)
    if not kept:
        return
    result = kept[0]
    for k in range(BRACKET_CAP + 1):
        for m in range(BRACKET_CAP + 1 - k):
            for i, u in enumerate(result.basis(k)):
                for j, v in enumerate(result.basis(m)):
                    yield f"bracket g{k} g{m}", _bracket_op(result, u, v, k + m, f"[{i}] [{j}]")


# -- conjugation -------------------------------------------------------------

def conjugation_shape(n: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The shear positions and the column order, fixed for each dimension."""
    rng = random.Random(CONJUGATION_SHAPE_SEED)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(CONJUGATION_SHEARS)]
    perm = list(range(n))
    rng.shuffle(perm)
    return pairs, perm


def random_unimodular(n: int, rng: random.Random, pairs, perm) -> list[list[int]]:
    """Integer matrix of determinant +-1: the shears e_i += c e_j at the
    given index pairs with c drawn from {-2, -1, 1, 2}, then the columns
    put in the order ``perm`` with random signs.  The columns are the new
    basis, so the seed changes coefficients and signs while the sparsity
    of the conjugated table and the basis order stay the same."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in pairs:
        c = rng.choice((-2, -1, 1, 2))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[k] * row[perm[k]] for k in range(n)] for row in m]


def setup_conjugation(seed: int):
    """Loads the three algebras and draws, from ``seed``, one unimodular
    matrix per algebra for each of CONJUGATION_POOL passes."""
    from carnot import catalog
    from carnot.linalg import Matrix

    algebras = {name: catalog.get(name).algebra for name in CONJUGATION_ENTRIES}
    shapes = {name: conjugation_shape(a.dim) for name, a in algebras.items()}
    rng = random.Random(seed)
    pool = [[(name, Matrix.from_rows(random_unimodular(algebras[name].dim, rng, *shapes[name])))
             for name in CONJUGATION_ENTRIES] for _ in range(CONJUGATION_POOL)]
    return algebras, pool


def _conjugation_op(algebra, matrix, expected):
    from carnot import grading

    def op():
        conj = algebra.change_of_basis(matrix)
        series = conj.lower_central_series().dims
        der = conj.derivation_algebra().dim
        verdict = grading.is_stratifiable(conj)
        strat = verdict.derived_stratification
        got = (series, der, verdict.stratifiable, strat.layer_dims if strat is not None else None)
        return None if got == expected else f"got {got}, expected {expected}"
    return op


def pass_conjugation(state, index: int):
    algebras, pool = state
    for name, matrix in pool[index % len(pool)]:
        yield f"conjugate {name}", _conjugation_op(algebras[name], matrix, CONJUGATION_EXPECTED[name])


WORKLOADS = {
    "reports": (setup_reports, pass_reports),
    "tower": (setup_tower, pass_tower),
    "brackets": (setup_brackets, pass_brackets),
    "conjugation": (setup_conjugation, pass_conjugation),
}
