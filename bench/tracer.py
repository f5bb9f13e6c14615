"""Outside-in spans and work counters around carnot's layer entry points.

``Tracer.install()`` replaces each entry point named in ``SPANS`` with a
timing wrapper, in its defining module or class and at every carnot
module that imported the same object by name; ``uninstall()`` puts the
originals back.  Nothing under ``src/`` changes.

Self time is a span's duration minus the durations of its child spans.
The wrapper's own bookkeeping (computing counters from arguments and
results) is charged to neither, so it shows up only in the traced run's
wall time, i.e. in ``trace.overhead_frac``.  Every counter is derived
from call arguments and return values, so it repeats exactly from run
to run on the same inputs.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Per-span counters beyond ``calls`` and self time.
_COUNTERS = {
    "liealg.leibniz_rows": ("rows",),
    "linalg.RowReducer.nullspace_rows": ("width", "nullity", "nonzeros", "max_bits"),
}
_COMPONENT_COUNTERS = ("unknowns", "equations", "dim")
MAX_COMPONENT_DEGREE = 4  # report prolongation cap; the tower uses 3

# (span name, module, attribute path, kind).  ``component`` is
# tanaka._solve_component, the one private name wrapped: no public
# function solves a single g_k, so its span is keyed by the degree.
SPANS = (
    ("cli.main", "cli", "main", "function"),
    ("report.build_report", "report", "build_report", "function"),
    ("algfile.parse", "algfile", "parse", "function"),
    ("grading.nilpotentisation", "grading", "nilpotentisation", "function"),
    ("grading.is_stratifiable", "grading", "is_stratifiable", "function"),
    ("grading.verify_stratification", "grading", "verify_stratification", "function"),
    ("liealg.jacobi_defect", "liealg", "LieAlgebra.jacobi_defect", "method"),
    ("liealg.leibniz_rows", "liealg", "LieAlgebra.leibniz_rows", "generator"),
    ("liealg.lower_central_series", "liealg", "LieAlgebra.lower_central_series", "method"),
    ("liealg.change_of_basis", "liealg", "LieAlgebra.change_of_basis", "method"),
    ("tanaka.AdaptedFrame.build", "tanaka", "AdaptedFrame.build", "staticmethod"),
    ("tanaka.g", "tanaka", "_solve_component", "component"),
    ("tanaka.bracket", "tanaka", "ProlongationResult.bracket", "method"),
    ("tanaka.coordinates_of", "tanaka", "ProlongationResult.coordinates_of", "method"),
    ("linalg.solve_affine", "linalg", "solve_affine", "function"),
    ("linalg.invert", "linalg", "invert", "function"),
    ("linalg.Subspace.from_rows", "linalg", "Subspace.from_rows", "staticmethod"),
    ("linalg.RowReducer.nullspace_rows", "linalg", "RowReducer.nullspace_rows", "method"),
    ("linalg.RowReducer.add", "linalg", "RowReducer.add", "method"),
)


def span_names() -> list[str]:
    out = []
    for name, _, _, kind in SPANS:
        if kind == "component":
            out.extend(f"{name}{k}" for k in range(MAX_COMPONENT_DEGREE + 1))
        else:
            out.append(name)
    return out


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    out = []
    for name in span_names():
        out += [f"{name}.calls", f"{name}.self_share"]
        extra = _COMPONENT_COUNTERS if name.startswith("tanaka.g") else _COUNTERS.get(name, ())
        out += [f"{name}.{c}" for c in extra]
    return out + ["untraced.self_share", "trace.wall_s", "trace.overhead_frac"]


def metric_unit(name: str) -> str:
    if name.endswith(".max_bits"):
        return "bits"
    if name.endswith("self_share") or name == "trace.overhead_frac":
        return "ratio"
    if name == "trace.wall_s":
        return "s"
    return "count"


class _Frame:
    __slots__ = ("name", "child")

    def __init__(self, name: str):
        self.name = name
        self.child = 0.0


def _is_component(frame: _Frame | None) -> bool:
    return frame is not None and frame.name.startswith("tanaka.g")


class Tracer:
    """Collects spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.covered = 0.0  # time inside top-level spans, bookkeeping included
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- measuring ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs, after=None):
        frame = _Frame(name)
        stack = self._stack
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            st = self.stats[name]
            st["calls"] += 1
            st["self_s"] += (t1 - t0) - frame.child
        if after is not None:
            after(self, stack[-1] if stack else None, args, result)
        self._charge(t0)
        return result

    def _charge(self, t0: float) -> None:
        elapsed = perf_counter() - t0
        if self._stack:
            self._stack[-1].child += elapsed
        else:
            self.covered += elapsed

    def _iterate(self, name, gen):
        """Time each step of a generator as its own span."""
        self.stats[name]["calls"] += 1
        while True:
            frame = _Frame(name)
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.stats[name]["self_s"] += (t1 - t0) - frame.child
                self._charge(t0)
            self.stats[name]["rows"] += 1
            yield item

    # -- counters from arguments and results ------------------------------

    @staticmethod
    def _after_add(tracer, parent, args, result):
        if _is_component(parent):
            tracer.stats[parent.name]["equations"] += 1

    @staticmethod
    def _after_nullspace(tracer, parent, args, rows):
        width = args[0].width
        st = tracer.stats["linalg.RowReducer.nullspace_rows"]
        st["width"] += width
        st["nullity"] += len(rows)
        bits = 0
        nonzeros = 0
        for row in rows:
            for x in row:
                if x:
                    nonzeros += 1
                    b = max(x.numerator.bit_length(), x.denominator.bit_length())
                    if b > bits:
                        bits = b
        st["nonzeros"] += nonzeros
        st["max_bits"] = max(st["max_bits"], bits)
        if _is_component(parent):
            tracer.stats[parent.name]["unknowns"] += width

    @staticmethod
    def _after_component(tracer, parent, args, result):
        tracer.stats[f"tanaka.g{args[1]}"]["dim"] += len(result)

    # -- installing -------------------------------------------------------

    def _wrapper(self, name, kind, original):
        tracer = self
        if kind == "generator":
            def wrapped(*args, **kwargs):
                return tracer._iterate(name, original(*args, **kwargs))
        elif kind == "component":
            def wrapped(*args, **kwargs):
                return tracer._call(f"{name}{args[1]}", original, args, kwargs,
                                    Tracer._after_component)
        else:
            after = {"linalg.RowReducer.add": Tracer._after_add,
                     "linalg.RowReducer.nullspace_rows": Tracer._after_nullspace}.get(name)

            def wrapped(*args, **kwargs):
                return tracer._call(name, original, args, kwargs, after)
        wrapped.__wrapped__ = original
        wrapped.__name__ = getattr(original, "__name__", name)
        return wrapped

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "carnot" or n.startswith("carnot."))]
        for name, module_name, path, kind in SPANS:
            owner = importlib.import_module(f"carnot.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            raw = owner.__dict__[attr]
            original = raw.__func__ if kind == "staticmethod" else raw
            wrapped = self._wrapper(name, kind, original)
            if classes:
                self._patch(owner, attr, staticmethod(wrapped) if kind == "staticmethod" else wrapped)
                continue
            # a function imported by name into other modules is patched there too
            for module in modules:
                for key, value in list(module.__dict__.items()):
                    if value is original:
                        self._patch(module, key, wrapped)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reporting --------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """The deterministic counters (everything except times)."""
        out = {}
        for span, st in self.stats.items():
            for key, value in st.items():
                if key != "self_s":
                    out[f"{span}.{key}"] = int(value)
        return dict(sorted(out.items()))

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Every name of :func:`metric_names`, for a traced pass that took
        ``traced_wall`` seconds and an untraced pass of ``untraced_wall``."""
        counters = self.counters()
        out = {}
        for metric in metric_names():
            span, _, key = metric.rpartition(".")
            if key == "self_share" and span != "untraced":
                out[metric] = self.stats[span]["self_s"] / traced_wall if span in self.stats else 0.0
            else:
                out[metric] = counters.get(metric, 0)
        out["untraced.self_share"] = (traced_wall - self.covered) / traced_wall
        out["trace.wall_s"] = traced_wall
        out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        return out
