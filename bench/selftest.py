"""Self-tests of the benchmark harness (standard library only).

    python3 bench/selftest.py

They check that the harness measures what it claims: traced counters
repeat exactly, the wrappers change no output and are removed again,
and a wrong answer is counted as a failed operation.  Each test runs
only the first operations of a workload, so the file takes about a
minute.
"""

from __future__ import annotations

import itertools
import json
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# leading operations of pass 0 that each test runs, per workload
PREFIX = {"reports": 9, "tower": 3, "brackets": 40, "conjugation": 1}


def _state(name: str):
    setup, _ = workloads.WORKLOADS[name]
    state = setup(1)
    if name == "reports":
        state["run"] = workloads.inprocess_cli
    return state


def _ops(name: str, state):
    _, make_pass = workloads.WORKLOADS[name]
    return list(itertools.islice(make_pass(state, 0), PREFIX[name]))


def _carnot_namespaces() -> dict:
    """Every attribute of every carnot module and class, by identity."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "carnot" or mod_name.startswith("carnot."):
            for key, value in vars(module).items():
                out[(mod_name, key)] = value
                if isinstance(value, type) and value.__module__ == mod_name:
                    for attr, raw in vars(value).items():
                        out[(mod_name, key, attr)] = raw
    return out


class TracedCounters(unittest.TestCase):
    def test_two_traced_runs_give_identical_counters(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                state = _state(name)
                seen = []
                for _ in range(2):
                    t = tracer.Tracer()
                    with t:
                        result = run.run_pass(_ops(name, state))
                    self.assertEqual(result["failed"], 0, result["errors"])
                    seen.append(t.counters())
                self.assertTrue(seen[0])
                self.assertEqual(seen[0], seen[1])

    def test_wrapped_reports_match_golden_and_are_restored(self):
        state = _state("reports")
        before = _carnot_namespaces()
        t = tracer.Tracer()
        with t:
            import carnot
            self.assertIsNotNone(getattr(carnot.tanaka.solve_affine, "__wrapped__", None))
            self.assertIsNotNone(getattr(carnot.grading.invert, "__wrapped__", None))
            result = run.run_pass(_ops("reports", state))
        self.assertEqual(result, dict(result, attempted=9, failed=0))
        self.assertEqual(t.counters()["cli.main.calls"], 9)
        after = _carnot_namespaces()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["per_layer"]], tracer.metric_names())
        t = tracer.Tracer()
        self.assertEqual(list(t.metrics(1.0, 1.0)), tracer.metric_names())


class FailureAccounting(unittest.TestCase):
    def test_contact_dims_closed_form(self):
        self.assertEqual([workloads.contact_dims(n, 3) for n in (1, 2, 3, 4)],
                         [(4, 6, 9, 12), (11, 24, 46, 80), (22, 62, 148, 314), (37, 128, 367, 920)])

    def test_corrupted_expected_values_are_failures(self):
        reports = _state("reports")
        reports["ops"] = [(argv, golden + b"x") for argv, golden in reports["ops"][3:4]]
        tower = _state("tower")
        (alg, strat), dims = tower[2]
        tower = {2: ((alg, strat), dims[:-1] + (dims[-1] + 1,))}
        conj_entry = workloads.CONJUGATION_EXPECTED["deformed_h_16"]
        workloads.CONJUGATION_EXPECTED["deformed_h_16"] = (conj_entry[0], conj_entry[1] + 1) + conj_entry[2:]
        try:
            conj = _state("conjugation")
            cases = [
                ("reports", reports, 1),
                ("tower", tower, 1),
                ("conjugation", conj, 2),
            ]
            for name, state, prefix in cases:
                _, make_pass = workloads.WORKLOADS[name]
                ops = list(itertools.islice(make_pass(state, 0), prefix))
                result = run.run_pass(ops)
                with self.subTest(workload=name):
                    self.assertGreater(result["failed"], 0)
                    self.assertEqual(result["attempted"], prefix)
        finally:
            workloads.CONJUGATION_EXPECTED["deformed_h_16"] = conj_entry

    def test_exception_and_exit_code_are_failures(self):
        def boom():
            raise ValueError("broken")
        exit_one = workloads._cli_op(lambda argv: (1, b""), ("report", "x"), b"")
        result = run.run_pass([("boom", boom), ("exit", exit_one), ("ok", lambda: None)])
        self.assertEqual((result["attempted"], result["failed"]), (3, 2))


if __name__ == "__main__":
    unittest.main()
