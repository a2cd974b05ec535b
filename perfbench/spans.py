"""Span recorder for the traced benchmark run.

Each layer's public entry points are wrapped in the namespace where the
caller looks them up (``cli`` and ``harness`` import functions by name), so
the spans time the layer from outside without touching the program. A span
is (op id, name, start, end, parent); spans stay in memory until the run
ends. Counts are taken at the same boundaries, but only after the op has
finished, so computing them adds nothing to any span.
"""

from __future__ import annotations

import importlib
import statistics
import threading
import tracemalloc
from time import perf_counter

MIB = 1 << 20

# Provenance code that tvmerge's assignment side-file uses for elements
# placed by the residual-random fill.
RESIDUAL_RANDOM = 0

# (module, attribute, span name). The root span of every CLI call is "cli",
# opened by the worker around ``tvmerge.cli.main``.
ENTRY_POINTS = (
    ("tvmerge.cli", "decode_container", "container.decode"),
    ("tvmerge.cli", "encode_container", "container.encode"),
    ("tvmerge.merging", "_as_matrix", "merging.stack"),
    ("tvmerge.cli", "magmax_merge", "merging.select"),
    ("tvmerge.cli", "tunable_merge", "merging.select"),
    ("tvmerge.harness", "magmax_merge", "merging.select"),
    ("tvmerge.harness", "tunable_merge", "merging.select"),
    ("tvmerge.cli", "write_assignment", "merging.assignment_write"),
    ("tvmerge.cli", "preference_from_alpha", "preference.allocate"),
    ("tvmerge.cli", "preference_from_similarities", "preference.allocate"),
    ("tvmerge.harness", "preference_from_alpha", "preference.allocate"),
    ("tvmerge.harness", "preference_from_similarities", "preference.allocate"),
    ("tvmerge.harness", "similarity_vector", "similarity.vector"),
    ("tvmerge.similarity", "sinkhorn_ot", "similarity.sinkhorn"),
    ("tvmerge.similarity", "mmd_rbf", "similarity.mmd"),
    ("tvmerge.similarity", "median_heuristic_bandwidth", "similarity.bandwidth"),
    ("tvmerge.cli", "run_pipeline", "harness.pipeline"),
    ("tvmerge.harness", "generate_task_suite", "harness.suite"),
    ("tvmerge.harness", "mix_target_environment", "harness.suite"),
    ("tvmerge.harness", "sequential_finetune_analog", "harness.fit"),
    ("tvmerge.harness", "task_embeddings", "harness.embed"),
    ("tvmerge.harness", "environment_meta_embeddings", "harness.embed"),
    ("tvmerge.harness", "environment_meta_labels", "harness.embed"),
    ("tvmerge.harness", "evaluate", "harness.evaluate"),
)

# Per-layer metrics, in report order, with their units. Every "_s" metric
# is a self time: the span's duration minus the time its child spans cover.
LAYER_METRICS = (
    ("container.decode_s", "s"),
    ("container.decode_records", "count"),
    ("container.decode_mib_s", "MiB/s"),
    ("container.encode_s", "s"),
    ("container.encode_mib_s", "MiB/s"),
    ("merging.stack_s", "s"),
    ("merging.select_s", "s"),
    ("merging.peak_alloc_mib", "MiB"),
    ("merging.peak_alloc_ratio", "ratio"),
    ("merging.residual_fraction", "ratio"),
    ("merging.assignment_write_s", "s"),
    ("preference.allocate_s", "s"),
    ("similarity.vector_s", "s"),
    ("similarity.sinkhorn_s", "s"),
    ("similarity.sinkhorn_calls", "count"),
    ("similarity.sinkhorn_iters", "count"),
    ("similarity.sinkhorn_ms_per_iter", "ms"),
    ("similarity.sinkhorn_converged_ratio", "ratio"),
    ("similarity.mmd_s", "s"),
    ("similarity.bandwidth_s", "s"),
    ("harness.suite_s", "s"),
    ("harness.fit_s", "s"),
    ("harness.embed_s", "s"),
    ("harness.evaluate_s", "s"),
    ("harness.pipeline_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def _container_counts(pset) -> dict:
    return {"records": len(pset), "bytes": sum(arr.nbytes for _, arr in pset.items())}


def _input_bytes(taus) -> int:
    if hasattr(taus, "nbytes"):
        return int(taus.nbytes)
    return sum(_container_counts(t)["bytes"] for t in taus)


def _count_decode(args, kwargs, result) -> dict:
    return _container_counts(result)


def _count_encode(args, kwargs, result) -> dict:
    return _container_counts(args[0])


def _count_select(args, kwargs, result) -> dict:
    provenance = result[1].provenance
    return {
        "input_bytes": _input_bytes(args[0]),
        "residual": int((provenance == RESIDUAL_RANDOM).sum()),
        "elements": int(provenance.size),
    }


def _count_sinkhorn(args, kwargs, result) -> dict:
    return {"iters": int(result.iterations), "converged": int(result.converged)}


_COUNTERS = {
    "container.decode": _count_decode,
    "container.encode": _count_encode,
    "merging.select": _count_select,
    "similarity.sinkhorn": _count_sinkhorn,
}


class Tracer:
    """Records nested spans of one op at a time; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._thread = threading.get_ident()
        self._op = -1
        self._track_alloc = False
        self._patches = []
        for module_name, attribute, name in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute, None)
            if original is None:
                self.missing.append(f"{module_name}.{attribute}")
                continue
            self._patches.append((module, attribute, original, self._wrap(name, original)))

    def install(self, op: int, track_alloc: bool = False) -> None:
        """Patch the entry points; ``track_alloc`` runs tracemalloc inside each merge call."""
        self._op = op
        self._track_alloc = track_alloc
        for module, attribute, _, wrapper in self._patches:
            setattr(module, attribute, wrapper)

    def uninstall(self) -> None:
        for module, attribute, original, _ in self._patches:
            setattr(module, attribute, original)
        for index, counter, args, kwargs, result in self._pending:
            self.spans[index]["counts"].update(counter(args, kwargs, result))
        self._pending.clear()

    def call(self, name: str, fn, *args):
        index = self._open(name)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        if threading.get_ident() != self._thread:
            raise RuntimeError(f"span {name!r} opened off the main thread; run with TVM_THREADS unset")
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            {"op": self._op, "name": name, "start": 0.0, "end": 0.0, "parent": parent, "counts": {}}
        )
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index]["start"] = perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        is_merge = name == "merging.select"

        def wrapper(*args, **kwargs):
            track_alloc = is_merge and self._track_alloc
            index = self._open(name)
            if track_alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if track_alloc:
                    self.spans[index]["counts"]["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(index)
            if counter is not None:
                self._pending.append((index, counter, args, kwargs, result))
            return result

        return wrapper


def self_times(spans: list[dict]) -> list[float]:
    """Self time of each span; raises ValueError if the spans do not nest."""
    own = [s["end"] - s["start"] for s in spans]
    children: dict[int | None, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span["parent"], []).append(index)
    for parent, kids in children.items():
        kids.sort(key=lambda i: spans[i]["start"])
        for before, after in zip(kids, kids[1:]):
            if spans[before]["end"] > spans[after]["start"]:
                raise ValueError(f"sibling spans overlap: {spans[before]['name']}, {spans[after]['name']}")
        if parent is None:
            continue
        outer = spans[parent]
        for kid in kids:
            inner = spans[kid]
            if inner["start"] < outer["start"] or inner["end"] > outer["end"]:
                raise ValueError(f"span {inner['name']} leaves its parent {outer['name']}")
            own[parent] -= inner["end"] - inner["start"]
    return own


def op_metrics(spans: list[dict], own: list[float], op_seconds: float) -> dict[str, float]:
    """Per-layer values of one traced op from its spans, their self times and its wall time."""
    roots = [span for span in spans if span["parent"] is None]
    if any(span["name"] != "cli" for span in roots):
        raise ValueError("a layer span ran outside any cli call")
    root_seconds = sum(span["end"] - span["start"] for span in roots)
    if root_seconds > op_seconds:
        raise ValueError(f"cli spans cover {root_seconds:.6f} s of a {op_seconds:.6f} s op")

    seconds: dict[str, float] = {}
    counts: dict[tuple[str, str], float] = {}
    for span, self_seconds in zip(spans, own):
        name = span["name"]
        seconds[name] = seconds.get(name, 0.0) + self_seconds
        counts[name, "calls"] = counts.get((name, "calls"), 0) + 1
        for key, value in span["counts"].items():
            counts[name, key] = counts.get((name, key), 0) + value

    def s(name):
        return seconds.get(name, 0.0)

    def n(name, key):
        return counts.get((name, key), 0)

    def rate(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    return {
        "container.decode_s": s("container.decode"),
        "container.decode_records": n("container.decode", "records"),
        "container.decode_mib_s": rate(n("container.decode", "bytes") / MIB, s("container.decode")),
        "container.encode_s": s("container.encode"),
        "container.encode_mib_s": rate(n("container.encode", "bytes") / MIB, s("container.encode")),
        "merging.stack_s": s("merging.stack"),
        "merging.select_s": s("merging.select"),
        "merging.residual_fraction": rate(n("merging.select", "residual"), n("merging.select", "elements")),
        "merging.assignment_write_s": s("merging.assignment_write"),
        "preference.allocate_s": s("preference.allocate"),
        "similarity.vector_s": s("similarity.vector"),
        "similarity.sinkhorn_s": s("similarity.sinkhorn"),
        "similarity.sinkhorn_calls": n("similarity.sinkhorn", "calls"),
        "similarity.sinkhorn_iters": n("similarity.sinkhorn", "iters"),
        "similarity.sinkhorn_ms_per_iter": rate(1000 * s("similarity.sinkhorn"), n("similarity.sinkhorn", "iters")),
        "similarity.sinkhorn_converged_ratio": rate(n("similarity.sinkhorn", "converged"), n("similarity.sinkhorn", "calls")),
        "similarity.mmd_s": s("similarity.mmd"),
        "similarity.bandwidth_s": s("similarity.bandwidth"),
        "harness.suite_s": s("harness.suite"),
        "harness.fit_s": s("harness.fit"),
        "harness.embed_s": s("harness.embed"),
        "harness.evaluate_s": s("harness.evaluate"),
        "harness.pipeline_s": s("harness.pipeline"),
        # Argparse, census and report writes, and anything no layer span covers.
        "cli.self_s": op_seconds - sum(v for name, v in seconds.items() if name != "cli"),
    }


def run_metrics(spans: list[dict], ops: list[dict]) -> tuple[dict[str, float], float]:
    """Median per-layer values over the traced ops, plus the largest cli.self_s share of an op.

    ``trace.overhead_ratio`` compares the traced ops with the untraced ops
    of the same run, leaving out the warm-up op 0. The merging.peak_alloc
    metrics come from the spans of the untimed warm-up op, the only one run
    with tracemalloc, so its cost stays out of every timed span.
    """
    own = self_times(spans)
    by_op: dict[int, tuple[list, list]] = {}
    for span, self_seconds in zip(spans, own):
        group = by_op.setdefault(span["op"], ([], []))
        group[0].append(span)
        group[1].append(self_seconds)
    traced = [op for op in ops if op["traced"]]
    per_op = [op_metrics(*by_op.get(op["index"], ([], [])), op["seconds"]) for op in traced]
    values = {name: statistics.median(v[name] for v in per_op) for name in per_op[0]}
    allocs = [span["counts"] for span in spans if "peak_alloc" in span["counts"]]
    values["merging.peak_alloc_mib"] = max((c["peak_alloc"] / MIB for c in allocs), default=0.0)
    values["merging.peak_alloc_ratio"] = max((c["peak_alloc"] / c["input_bytes"] for c in allocs), default=0.0)
    plain = [op["seconds"] for op in ops if not op["traced"] and op["index"] > 0]
    values["trace.overhead_ratio"] = (
        statistics.median(op["seconds"] for op in traced) / statistics.median(plain) - 1.0
    )
    worst_self_share = max(v["cli.self_s"] / op["seconds"] for v, op in zip(per_op, traced))
    return values, worst_self_share
