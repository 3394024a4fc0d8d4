"""Spans and counters around the public functions of every c4distill module.

The wrappers are installed from outside the package: each traced function
is replaced on its defining module and on every module that imported it by
name (``montecarlo.evaluate_sequence``, ``enumeration.conjugate_through``,
...); traced methods are replaced on their class.  A span is
``[name, start, end, parent, request]``; spans stay in memory until
``dump`` writes them out.  ``Exact.__mul__`` and ``ExactPolynomial.__call__``
are hot enough that they only count calls.  ``sample_routine`` and
``run_blocked_pipeline`` also record their tracemalloc peak.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

MODULES = (
    "pauli", "exactalg", "circuits", "statevec", "identities",
    "enumeration", "routines", "planner", "montecarlo", "cli",
)

# (module, function) pairs timed with a span named "module.function".
FUNCTIONS = (
    ("pauli", "conjugate_through"),
    ("circuits", "insert_pattern"),
    ("circuits", "reference_outcomes"),
    ("statevec", "run"),
    ("statevec", "channel_distance"),
    ("identities", "verify_all"),
    ("enumeration", "exact_verdicts"),
    ("enumeration", "derive_polynomials"),
    ("routines", "builtin_models"),
    ("planner", "best_sequence"),
    ("planner", "evaluate_sequence"),
    ("planner", "threshold"),
    ("planner", "table_rows"),
    ("planner", "error_curves"),
    ("planner", "step_cost_curve"),
    ("planner", "curve_crossings"),
    ("montecarlo", "verdict_table"),
    ("montecarlo", "sample_routine"),
    ("montecarlo", "run_blocked_pipeline"),
    ("montecarlo", "pipeline_report"),
    ("cli", "main"),
)

# (module, class, method, span name) timed on the class.
METHODS = (
    ("enumeration", "FrameClassifier", "classify", "enumeration.frame_classify"),
    ("enumeration", "DenseClassifier", "classify", "enumeration.dense_classify"),
    ("routines", "RoutineModel", "acceptance", "routines.model_eval"),
    ("routines", "RoutineModel", "output_error", "routines.model_eval"),
    ("montecarlo", "SampleStats", "report", "montecarlo.report"),
)

# (module, class, method, counter name) counted without spans.
COUNTED = (
    ("exactalg", "Exact", "__mul__", "exactalg.exact_mul_calls"),
    ("exactalg", "ExactPolynomial", "__call__", "exactalg.poly_eval_calls"),
)

# Span name -> (argument holding the work size, counter, memory key).
MEMORY = {
    "montecarlo.sample_routine": ("trials", "montecarlo.trials", "sample"),
    "montecarlo.run_blocked_pipeline": ("k0", "montecarlo.pipeline_states", "pipeline"),
}

# Span name -> counter that adds up len(result).
RESULT_SIZES = {
    "statevec.run": "statevec.branches_kept",
    "identities.verify_all": "identities.checked",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        # memory key -> [(tracemalloc peak bytes, work size)], one per call
        self.peaks: dict[str, list[tuple[int, int]]] = defaultdict(list)
        self.request = 0
        self._stack: list[int] = []

    def timed(self, name, fn):
        spans, stack = self.spans, self._stack
        memory = MEMORY.get(name)
        sized = RESULT_SIZES.get(name)
        signature = inspect.signature(fn) if memory else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            if memory:
                tracemalloc.start()
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if memory:
                size = signature.bind(*args, **kwargs).arguments[memory[0]]
                self.counts[memory[1]] += size
                self.peaks[memory[2]].append((peak, size))
            if sized:
                self.counts[sized] += len(result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the package's functions and methods; call once per process,
        before the work to be traced."""
        modules = [importlib.import_module(f"c4distill.{m}") for m in MODULES]
        for mod_name, attr in FUNCTIONS:
            original = getattr(importlib.import_module(f"c4distill.{mod_name}"), attr)
            wrapper = self.timed(f"{mod_name}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
        for specs, make in ((METHODS, self.timed), (COUNTED, self.counted)):
            for mod_name, cls_name, method, name in specs:
                cls = getattr(importlib.import_module(f"c4distill.{mod_name}"), cls_name)
                setattr(cls, method, make(name, getattr(cls, method)))

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds (outermost spans of that
        name only), self seconds (minus time covered by child spans) and
        calls per parent span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": Counter()}
            )
            entry["calls"] += 1
            entry["parents"][self.spans[parent][0] if parent >= 0 else ""] += 1
            entry["self_s"] += end - start - child_time[i]
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                entry["total_s"] += end - start
        # A process's first call also pays one-time allocations; drop it.
        peaks = {key: values[1:] for key, values in self.peaks.items()}
        return {"spans": out, "counts": dict(self.counts), "peaks": peaks}

    def dump(self, path: str, process: str):
        """Append this process's spans to ``path`` as JSON lines."""
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps([process, *span]) + "\n")


def merge(summaries) -> dict:
    """Sum per-process summaries into one."""
    spans: dict[str, dict] = {}
    counts: Counter = Counter()
    peaks: dict[str, list] = defaultdict(list)
    for s in summaries:
        for name, entry in s["spans"].items():
            acc = spans.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": Counter()}
            )
            for key in ("calls", "total_s", "self_s"):
                acc[key] += entry[key]
            acc["parents"].update(entry["parents"])
        counts.update(s["counts"])
        for key, values in s["peaks"].items():
            peaks[key].extend(tuple(v) for v in values)
    return {"spans": spans, "counts": dict(counts), "peaks": dict(peaks)}
