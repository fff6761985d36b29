"""Per-layer spans around matchiso's public functions, installed from outside.

Each traced function is wrapped once and the wrapper is bound in place of
the original under every name, in every `matchiso` module, that holds it.
Calls within a module and calls across modules both go through module
globals, so both are caught.  Spans (name, start, end, parent, operation)
stay in memory until the run ends.  Cheap helpers that run millions of times
(`crossing`, `is_tight`, `delta_mask`, `vertex_mask`, `matching_weight`)
are left alone: a wrapper there would cost more than what it measures.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "graphs", "weights", "tutte", "faces", "engine", "smallgraphs")

FUNCTIONS = {
    "cli": ("main",),
    "graphs": ("parse_graph", "enumerate_perfect_matchings"),
    "weights": ("is_isolating", "separating_weights", "random_weights"),
    "tutte": ("determinant", "determinant_search"),
    "faces": (
        "tight_odd_sets",
        "extend_to_maximal_laminar",
        "contract_face",
        "bounded_circuit_vectors",
        "is_contractible",
        "goodness_check",
        "respects_face",
        "lift_contracted_vector",
        "min_weight_subface",
        "perfect_matching_face",
    ),
    "engine": (
        "isolate_derandomized",
        "isolate_randomized",
        "initial_state",
        "advance",
        "make_chains_contractible",
        "remove_circuits",
    ),
    "smallgraphs": ("connected_graphs", "canonical_key"),
}


def _entry_bits(matrix) -> int:
    return max((abs(x).bit_length() for row in matrix.rows for x in row), default=0)


# Counts taken at a layer boundary from a call's arguments and result:
# span name -> [(counter, "sum" or "max", value of (args, result))].
COUNTERS = {
    "graphs.enumerate_perfect_matchings": [("matchings", "sum", lambda a, r: len(r))],
    "weights.separating_weights": [
        ("k_sum", "sum", lambda a, r: r[0] if r else 0),
        ("k_max", "max", lambda a, r: r[0] if r else 0),
    ],
    "tutte.determinant": [
        ("bits_max", "max", lambda a, r: abs(r.value).bit_length()),
        ("entry_bits_max", "max", lambda a, r: _entry_bits(a[0])),
    ],
    "tutte.determinant_search": [
        ("isolation_failures", "sum", lambda a, r: int(r.status == "isolation-failure")),
    ],
    "faces.bounded_circuit_vectors": [("vectors", "sum", lambda a, r: len(r))],
    "faces.min_weight_subface": [
        ("matchings_in", "sum", lambda a, r: len(a[0])),
        ("matchings_out", "sum", lambda a, r: len(r)),
    ],
    "engine.isolate_randomized": [("trials", "sum", lambda a, r: getattr(r, "trials", 0) or 0)],
}

# Roll-ups that are not sums over spans.
EXTRA_METRICS = [
    ("faces.tight_cache.hit_ratio", "ratio"),
    ("cert_weight_bits_max", "bits"),
    ("trace.ops", "count"),
    ("trace.uncovered_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
]


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric, (name, unit), in report order."""
    out = []
    for layer in LAYERS:
        for fn in FUNCTIONS[layer]:
            span = f"{layer}.{fn}"
            out += [(f"{span}.calls", "count"), (f"{span}.s", "s"), (f"{span}.self_s", "s")]
            out += [(f"{span}.{c}", "count" if "bits" not in c else "bits") for c, _, _ in COUNTERS.get(span, [])]
    out += [(f"{layer}.self_s", "s") for layer in LAYERS]
    return out + EXTRA_METRICS


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.op = -1
        self._stack: list[int] = []
        self.sums: dict[str, int] = defaultdict(int)
        self.maxes: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        counters = COUNTERS.get(name, ())
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            for counter, how, value in counters:
                key = f"{name}.{counter}"
                try:
                    v = value(args, result)
                except (AttributeError, TypeError, IndexError):
                    continue  # the function's shape changed; leave the count out
                if how == "sum":
                    self.sums[key] += v
                else:
                    self.maxes[key] = max(self.maxes[key], v)
            return result

        traced.__perfbench_wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Bind a wrapper for every traced function present in this version
        of matchiso; absent names are skipped and report zero."""
        namespaces = [m for k, m in sys.modules.items() if k == "matchiso" or k.startswith("matchiso.")]
        for layer, names in FUNCTIONS.items():
            for fn_name in names:
                fn = getattr(modules[layer], fn_name, None)
                if not callable(fn):
                    continue
                wrapper = self.wrap(f"{layer}.{fn_name}", fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, fn))

    def uninstall(self) -> None:
        for ns, attr, fn in reversed(self._patched):
            setattr(ns, attr, fn)

    def leftover_wrappers(self) -> list[str]:
        """Names still bound to something other than their original function
        after uninstall; empty when untraced runs measure unpatched code."""
        bad = [f"{ns.__name__}.{attr}" for ns, attr, fn in self._patched if getattr(ns, attr) is not fn]
        for key, ns in list(sys.modules.items()):
            if key == "matchiso" or key.startswith("matchiso."):
                bad += [f"{key}.{a}" for a, v in vars(ns).items() if hasattr(v, "__perfbench_wrapped__")]
        return bad

    def summarize(self, op_seconds: list[float]) -> dict[str, float]:
        """Per-layer totals over the traced operations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        values: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        covered = 0.0
        for (name, start, end, parent, _), inner in zip(self.spans, child):
            own = end - start - inner
            calls[f"{name}.calls"] += 1
            values[f"{name}.s"] += end - start
            values[f"{name}.self_s"] += own
            values[f"{name.split('.')[0]}.self_s"] += own
            if parent < 0:
                covered += end - start
        values.update(calls)
        values.update(self.sums)
        values.update(self.maxes)
        total = sum(op_seconds)
        values["trace.ops"] = len(op_seconds)
        values["trace.uncovered_frac"] = (total - covered) / total if total else 0.0
        return values

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(
                    json.dumps({"name": name, "start": start - origin, "end": end - origin,
                                "parent": parent, "op": op}) + "\n"
                )
