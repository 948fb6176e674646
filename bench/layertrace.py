"""Outside-in layer trace of one benchmark operation.

`install()` wraps, inside the operation's own process, the public functions
of every pfzeros module, the names other modules imported from them, and the
`evaluate_grid` / `__call__` methods of the evaluator classes.  Each wrapped
call records a span (key, parent, start, end, work count, failed).  Nothing
under src/ changes; the wrappers are the only instrument.

A span's parent is the innermost open span of its thread.  A span opened on a
worker thread with no open span of its own (the scan and noise thread pools)
takes the innermost open span of the main thread, which is blocked in the
call that started the pool.  A layer's self time is its span minus the part
of that interval its child spans cover; with two worker threads, child spans
overlap and self times are summed over threads.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = ("model", "oracle", "circuits", "statevector", "evaluators", "zeros", "noise",
          "correlations", "cli")

# Private names that are layer boundaries of their own.
PRIVATE_BOUNDARIES = {"cli": ("_root_multiset_distance",)}

EVALUATOR_METHODS = ("evaluate_grid", "__call__")


def _transfer_points(args, kwargs, result):
    return max(int(np.size(a)) for a in args[2:5])


def _gates(args, kwargs, result):
    return len(result.gates)


def _full_bytes(args, kwargs, result):
    # computed, not measured: each gate reads and writes the whole register
    circuit = args[0]
    return len(circuit.gates) * 2 * 16 * (1 << circuit.n_qubits)


def _grid_points(args, kwargs, result):
    return int(np.size(args[1]))


def _cells(args, kwargs, result):
    return int(result.estimates.size)


WORK_COUNTS = {
    "oracle.transfer_matrix_Z_grid": _transfer_points,
    "circuits.compile_general": _gates,
    "circuits.compile_kicked": _gates,
    "statevector.run_full": _full_bytes,
    "noise.noisy_scan": _cells,
}

# metric -> (reduction, span keys).  A key ending in "." selects a whole layer.
# time: summed span time of the outermost matching spans; calls / work / failed:
# their number, summed work counts, and number that raised; self: summed self
# time of every matching span.
METRICS = {
    "model.build_s": ("time", ("model.",)),
    "model.builds": ("calls", ("model.",)),
    "oracle.dos_s": ("time", ("oracle.density_of_states",)),
    "oracle.dos_calls": ("calls", ("oracle.density_of_states",)),
    "oracle.transfer_s": ("time", ("oracle.transfer_matrix_Z_grid",)),
    "oracle.transfer_points": ("work", ("oracle.transfer_matrix_Z_grid",)),
    "oracle.brute_force_s": ("time", ("oracle.brute_force_Z", "oracle.brute_force_Z_with_scale",
                                      "oracle.correlation")),
    "circuits.compile_s": ("time", ("circuits.compile_general", "circuits.compile_kicked")),
    "circuits.circuits": ("calls", ("circuits.compile_general", "circuits.compile_kicked")),
    "circuits.gates": ("work", ("circuits.compile_general", "circuits.compile_kicked")),
    "statevector.streamed_s": ("time", ("statevector.run_streamed",)),
    "statevector.full_s": ("time", ("statevector.run_full",)),
    "statevector.effective_s": ("time", ("statevector.run_effective",)),
    "statevector.full_bytes": ("work", ("statevector.run_full",)),
    "evaluators.grid_s": ("self", ("evaluators.grid",)),
    "evaluators.point_s": ("self", ("evaluators.point",)),
    "evaluators.points": ("work", ("evaluators.grid", "evaluators.point")),
    "zeros.scan_s": ("self", ("zeros.scan",)),
    "zeros.minima_s": ("time", ("zeros.find_minima",)),
    "zeros.newton_s": ("time", ("zeros.refine_newton",)),
    "zeros.newton_calls": ("calls", ("zeros.refine_newton",)),
    "zeros.newton_failed": ("failed", ("zeros.refine_newton",)),
    "zeros.aberth_s": ("time", ("zeros.aberth_roots",)),
    "zeros.companion_s": ("time", ("zeros.companion_roots",)),
    "noise.noisy_scan_s": ("time", ("noise.noisy_scan",)),
    "noise.cells": ("work", ("noise.noisy_scan",)),
    "noise.detectability_s": ("time", ("noise.detectability",)),
    "correlations.estimate_s": ("time", ("correlations.corr_same_row", "correlations.corr_cross_row",
                                         "correlations.corr_norm_ratio")),
    "correlations.sign_table_s": ("time", ("correlations.probe_sign_table",)),
    "cli.root_match_s": ("time", ("cli._root_multiset_distance",)),
    "cli.write_s": ("time", ("cli.write_grid_csv", "cli.write_json")),
}

# Counted outside the spans: calls of statevector.apply_gate, and by the
# operation process, the size of the files its tasks wrote.
COUNTERS = ("statevector.gates_applied", "cli.bytes_written")

METRIC_UNITS = {name: ("s" if name.endswith("_s") else "count") for name in (*METRICS, *COUNTERS)}
METRIC_UNITS["statevector.full_bytes"] = "B"
METRIC_UNITS["cli.bytes_written"] = "B"


class Tracer:
    """Span store shared by every wrapper installed in one process."""

    def __init__(self):
        self.spans: dict[int, tuple] = {}  # id -> (key, parent, start, end, work, failed)
        self.gates_applied = itertools.count()  # next() is atomic under the GIL
        self._ids = itertools.count()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, key: str, work=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.spans[sid] = (key, parent, start, time.perf_counter(), 0, True)
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            count = work(args, kwargs, result) if work is not None else 1
            tracer.spans[sid] = (key, parent, start, end, count, False)
            return result

        return traced

    def count_calls(self, fn):
        counter = self.gates_applied

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        return counted

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans so far; call once, at the end of the operation."""
        out = reduce_spans(self.spans)
        out["statevector.gates_applied"] = next(self.gates_applied)
        return out


def _is_layer_function(obj, module_name: str) -> bool:
    if getattr(obj, "__module__", None) != module_name:
        return False
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


def install() -> Tracer:
    """Wrap every layer boundary of the already imported pfzeros package."""
    tracer = Tracer()
    replaced: dict[int, tuple[object, object]] = {}
    for layer in LAYERS:
        module = sys.modules[f"pfzeros.{layer}"]
        for name, obj in list(vars(module).items()):
            if not _is_layer_function(obj, module.__name__):
                continue
            if name.startswith("_") and name not in PRIVATE_BOUNDARIES.get(layer, ()):
                continue
            key = f"{layer}.{name}"
            if key == "statevector.apply_gate":
                wrapper = tracer.count_calls(obj)
            else:
                wrapper = tracer.wrap(obj, key, WORK_COUNTS.get(key))
            replaced[id(obj)] = (obj, wrapper)
        if layer == "evaluators":
            for cls in vars(module).values():
                if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
                    continue
                for meth in EVALUATOR_METHODS:
                    if meth in cls.__dict__:
                        kind = "grid" if meth == "evaluate_grid" else "point"
                        work = _grid_points if kind == "grid" else None
                        setattr(cls, meth, tracer.wrap(cls.__dict__[meth], f"evaluators.{kind}", work))
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "pfzeros" and not mod_name.startswith("pfzeros."):
            continue
        for name, obj in list(vars(module).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
    return tracer


def _matches(key: str, selectors) -> bool:
    return any(key.startswith(s) if s.endswith(".") else key == s for s in selectors)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def reduce_spans(spans: dict[int, tuple]) -> dict[str, float]:
    """Per-layer metrics of one operation from its spans (see METRICS)."""
    children: dict[int, list[int]] = {}
    for sid, (_, parent, *_rest) in spans.items():
        if parent is not None:
            children.setdefault(parent, []).append(sid)

    def has_matching_ancestor(sid: int, selectors) -> bool:
        parent = spans[sid][1]
        while parent is not None:
            if _matches(spans[parent][0], selectors):
                return True
            parent = spans[parent][1]
        return False

    out: dict[str, float] = {}
    for metric, (reduction, selectors) in METRICS.items():
        chosen = [sid for sid, span in spans.items() if _matches(span[0], selectors)]
        if reduction == "self":
            value = 0.0
            for sid in chosen:
                _, _, start, end, _, _ = spans[sid]
                inner = [(max(spans[c][2], start), min(spans[c][3], end)) for c in children.get(sid, ())]
                value += (end - start) - _covered([iv for iv in inner if iv[1] > iv[0]])
            out[metric] = value
            continue
        outer = [spans[sid] for sid in chosen if not has_matching_ancestor(sid, selectors)]
        if reduction == "time":
            out[metric] = sum((end - start for _, _, start, end, _, _ in outer), 0.0)
        elif reduction == "calls":
            out[metric] = len(outer)
        elif reduction == "work":
            out[metric] = sum(work for *_, work, failed in outer if not failed)
        else:
            out[metric] = sum(1 for *_, failed in outer if failed)
    return out
