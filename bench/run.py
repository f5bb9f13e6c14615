"""Benchmark harness for carnot (standard library only).

One run of one workload:

    python3 bench/run.py --workload tower --seed 1 --seconds 30 --trace 0

prints a line of environment and detail, then as its last line one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (``wall_ref``,
``cpu_ref``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1`` they are
the per-layer ones, from one untraced and one traced pass in the same
process, after a warm-up pass.

    python3 bench/run.py --suite BENCH_x.json
    python3 bench/run.py --compare BENCH_prev.json BENCH_x.json

``--suite`` runs each workload in fresh processes with seeds 1..10,
adds one traced run per workload, and writes medians, quartiles and
spreads; ``--compare`` prints the ratio table of two such files.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, child_env  # noqa: E402

BENCH_FILE = ROOT / "BENCHMARK.json"
DEFAULT_SEED = 1
SUITE_RUNS = 10
SETUP_SAMPLES = 5
REFERENCE_EVERY_S = 1.0
CHILD_GRACE_S = 120  # a run overshoots --seconds by at most one pass; runs must end in 180 s


def _cpu() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def run_pass(ops, after_op=None) -> dict:
    """Run one pass of ``(label, op)`` pairs; every exception or wrong
    answer counts as one failed operation.  Wall and CPU seconds are
    summed per label.  ``after_op`` runs untimed after each operation."""
    attempted = failed = 0
    errors = []
    wall: dict[str, float] = {}
    cpu: dict[str, float] = {}
    for label, op in ops:
        attempted += 1
        t0, c0 = time.perf_counter(), _cpu()
        try:
            error = op()
        except Exception as e:  # an operation that raises is a failed operation
            error = f"{type(e).__name__}: {e}"
        wall[label] = wall.get(label, 0.0) + time.perf_counter() - t0
        cpu[label] = cpu.get(label, 0.0) + _cpu() - c0
        if error is not None:
            failed += 1
            errors.append(f"{label}: {error}")
        if after_op is not None:
            after_op()
    return {"wall": sum(wall.values()), "op_wall": wall, "op_cpu": cpu,
            "attempted": attempted, "failed": failed, "errors": errors}


def _pass_time(passes: list[dict], key: str) -> float:
    """Sum over labels of each label's median across passes."""
    return sum(statistics.median(p[key].get(label, 0.0) for p in passes)
               for label in passes[0][key])


def _reference_loop() -> None:
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for i in range(1, 3000):
        q = Fraction(i % 97 - 48, i % 13 + 1)
        acc += q * q
        counts[i % 61] = counts.get(i % 61, 0) + len(tuple(q for _ in range(4)))


class ReferenceClock:
    """Samples the machine's current speed: the median time of three runs
    of a fixed stdlib loop of Fraction, tuple and dict work, at most once
    per REFERENCE_EVERY_S seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = float("-inf")
        self.sample()

    def sample(self) -> None:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - t0)
        self.samples.append(statistics.median(times))
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()


# -- the measuring process -----------------------------------------------------

def child_main(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> None:
    setup, make_pass = WORKLOADS[workload]
    state = setup(seed)
    print("ready", flush=True)
    if setup_only:
        return
    result = _traced(workload, state, make_pass) if trace else _timed(workload, seed, seconds, state, make_pass)
    print(json.dumps(result), flush=True)


def _timed(workload: str, seed: int, seconds: float, state, make_pass) -> dict:
    """Passes until ``seconds`` would be exceeded.  The reference loop is
    sampled between operations about once a second, and one set-up sample
    follows each of the first passes, so both spread over the run."""
    passes, setups = [], []
    clock = ReferenceClock()
    start = time.perf_counter()
    while True:
        passes.append(run_pass(make_pass(state, len(passes)), clock.maybe_sample))
        if len(setups) < SETUP_SAMPLES:
            setups.append(_setup_sample(workload, seed))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["wall"] for p in passes) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(_setup_sample(workload, seed))
    wall_s, cpu_s = _pass_time(passes, "op_wall"), _pass_time(passes, "op_cpu")
    reference_s = statistics.median(clock.samples)
    # the report workload's work happens in its subprocesses
    who = resource.RUSAGE_CHILDREN if workload == "reports" else resource.RUSAGE_SELF
    return {
        "metrics": {"wall_ref": wall_s / reference_s, "cpu_ref": cpu_s / reference_s,
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024},
        "detail": {"wall_s": wall_s, "cpu_s": cpu_s, "reference_s": reference_s,
                   "reference_samples": len(clock.samples),
                   "pass_wall_s": [p["wall"] for p in passes], "setup_samples_s": setups,
                   "op_s": {label: statistics.median(p["op_wall"].get(label, 0.0) for p in passes)
                            for label in passes[0]["op_wall"]}},
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]][:20],
    }


def _traced(workload: str, state, make_pass) -> dict:
    from tracer import Tracer

    if workload == "reports":
        state["run"] = workloads.inprocess_cli
    warm = run_pass(make_pass(state, 0))  # so both measured passes start warm
    untraced = run_pass(make_pass(state, 0))
    tracer = Tracer()
    with tracer:
        traced = run_pass(make_pass(state, 0))
    passes = (warm, untraced, traced)
    return {"metrics": tracer.metrics(traced["wall"], untraced["wall"]),
            "detail": {"pass_wall_s": [p["wall"] for p in passes],
                       "op_s": untraced["op_wall"], "counters": tracer.counters()},
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "errors": [e for p in passes for e in p["errors"]][:20]}


def _setup_sample(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh process to its first timed operation."""
    if workload == "reports":
        # every CLI call pays the interpreter start and the import of carnot.cli
        cmd = [sys.executable, "-m", "carnot.cli", "--help"]
    else:
        cmd = _child_cmd(workload, seed, 0, False, True)
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE) as proc:
        try:
            first = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=CHILD_GRACE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not first:
        raise RuntimeError(f"set-up of {workload} failed (exit code {code})")
    return elapsed


# -- one run -------------------------------------------------------------------

def _child_cmd(workload: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    return cmd + (["--setup-only"] if setup_only else [])


def _measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = _child_cmd(workload, seed, seconds, trace, False)
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=seconds + CHILD_GRACE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} run failed (exit code {proc.returncode})")
    return json.loads(lines[-1])


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _setup_sample(workload, seed)  # untimed warm-up: bytecode caches, file cache
    child = _measure(workload, seed, seconds, trace)
    env = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
           "python": platform.python_version(), "nproc": os.cpu_count(),
           **child["detail"], "errors": child["errors"]}
    print(json.dumps({"env": env}))
    for error in child["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in _spec()["per_layer" if trace else "end_to_end"]}
    return {"correct": child["failed"] == 0, "attempted": child["attempted"],
            "failed": child["failed"],
            "metrics": {name: {"value": child["metrics"][name], "unit": unit}
                        for name, unit in units.items()}}


def _spec() -> dict:
    return json.loads(BENCH_FILE.read_text())


# -- suite and compare ---------------------------------------------------------

def _summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def _run_self(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
                          timeout=seconds + 2 * CHILD_GRACE_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed (exit code {proc.returncode})")
    return {"env": json.loads(lines[-2])["env"], "result": json.loads(lines[-1])}


def suite(out: Path, seconds: float) -> None:
    seeds = list(range(1, SUITE_RUNS + 1))
    doc = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in WORKLOADS:
        runs_out = [_run_self(name, seed, seconds, False) for seed in seeds]
        results = [r["result"] for r in runs_out]
        traced = _run_self(name, DEFAULT_SEED, seconds, True)
        doc["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {m: dict(unit=v["unit"], **_summary([r["metrics"][m]["value"] for r in results]))
                        for m, v in results[0]["metrics"].items()},
            "raw": {m: _summary([r["env"][m] for r in runs_out]) for m in ("wall_s", "cpu_s")},
            "op_s": {label: statistics.median(r["env"]["op_s"][label] for r in runs_out)
                     for label in runs_out[0]["env"]["op_s"]},
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "traced_failed": traced["result"]["failed"],
            "runs": [r["env"] for r in runs_out],
        }
        w = doc["workloads"][name]
        for metric, s in list(w["metrics"].items()) + list(w["raw"].items()):
            print(f"{name:12s} {metric:12s} median {s['median']:.4f} spread {s['spread']:.3f}", flush=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")


def compare(base_path: Path, new_path: Path) -> None:
    """Ratio table new/base per workload and metric.  A row is marked
    unresolved when either side's run-to-run spread exceeds the bound."""
    base, new = json.loads(base_path.read_text()), json.loads(new_path.read_text())
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    print(f"{'workload':12s} {'metric':12s} {'base':>12s} {'new':>12s} {'ratio':>7s}  note")
    for name in sorted(set(base["workloads"]) & set(new["workloads"])):
        b_w, n_w = base["workloads"][name], new["workloads"][name]
        for metric, bound in bounds.items():
            b, n = b_w["metrics"].get(metric), n_w["metrics"].get(metric)
            if b is None or n is None:
                continue
            ratio = n["median"] / b["median"]
            if max(b["spread"], n["spread"]) > bound:
                note = "unresolved"
            elif ratio > 1 + bound:
                note = "worse"
            else:
                note = ""
            print(f"{name:12s} {metric:12s} {b['median']:12.4f} {n['median']:12.4f} {ratio:7.3f}  {note}")
        changed = sorted(k for k in set(b_w["per_layer"]) | set(n_w["per_layer"])
                         if not k.endswith(("self_share", "wall_s", "overhead_frac"))
                         and b_w["per_layer"].get(k) != n_w["per_layer"].get(k))
        for key in changed:
            print(f"{name:12s} {key}: {b_w['per_layer'].get(key)} -> {n_w['per_layer'].get(key)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--suite", type=Path, metavar="OUT")
    p.add_argument("--compare", type=Path, nargs=2, metavar=("BASE", "NEW"))
    p.add_argument("--child", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not (SRC / "carnot" / "__init__.py").is_file():
        print(f"bench: carnot sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.child:
        child_main(args.child, args.seed, args.seconds, bool(args.trace), args.setup_only)
        return 0
    if args.suite:
        suite(args.suite, args.seconds)
        return 0
    if not args.workload:
        p.error("one of --workload, --suite or --compare is required")
    try:
        result = one_run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"bench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
