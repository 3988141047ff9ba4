"""Layer spans recorded from outside the library.

The tracer replaces a layer function at the module attribute its caller
looks up (``pipeline.ward_linkage`` is what ``run()`` calls) with a wrapper
that passes every argument and the result through unchanged and records a
span: name, start, end and the span that was open when it was called.
Spans stay in memory until the run ends.

Hooks name functions that later versions of the library may rename or
stop calling. A missing attribute is skipped and reported, never an
error, so its layer reads as zero calls.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

ROOT = "cli.main"


def _pairs(rows: int) -> int:
    return rows * (rows - 1) // 2


def _count_pairwise(args, kwargs, result):
    rows, cols = args[0].shape
    return {"pairs": _pairs(rows), "ops": _pairs(rows) * cols}


def _count_leaves(args, kwargs, result):
    return {"leaves": result.leaf_count}


def _count_update(args, kwargs, result):
    return {"pairs": _pairs(len(args[1]))}


def _count_bytes(args, kwargs, result):
    return {"bytes": result.nbytes}


# (module under mpclust, attribute, span name, counter of (args, kwargs, result))
HOOKS = (
    ("cli", "load_matrix", "dataio.load_matrix", None),
    ("cli", "run", "pipeline.run", None),
    ("cli", "save_consensus_csv", "consensus.save_consensus", None),
    ("cli", "save_consensus_binary", "consensus.save_consensus", None),
    ("pipeline", "draw_uniform", "sampling.draw_uniform", None),
    ("pipeline", "ee_prob_next", "sampling.ee_prob_next", None),
    ("pipeline", "score_features", "sampling.score_features", None),
    ("pipeline", "update_feature_weights", "sampling.update_feature_weights", None),
    ("pipeline", "update_obs_weights", "sampling.update_obs_weights", None),
    ("pipeline", "consensus_of", "consensus.consensus_of", _count_bytes),
    ("pipeline", "update", "consensus.update", _count_update),
    ("pipeline", "pairwise", "dist.pairwise", _count_pairwise),
    ("pipeline", "ward_linkage", "hclust.ward_linkage", _count_leaves),
    ("pipeline", "cut_quantile", "hclust.cut_quantile", None),
    ("pipeline", "cut_k", "hclust.cut_k", None),
    ("pipeline", "finalize_hierarchical", "pipeline.finalize_hierarchical", None),
    ("sampling", "draw_uniform", "sampling.draw_uniform", None),
    ("sampling", "confusion", "consensus.confusion", None),
)


class Tracer:
    """Spans of one run, in call order; a span is (name, start, end, parent, counts).

    ``parent`` is the index of the enclosing span, or -1. The stack of open
    spans is shared by every thread, so a traced run uses one worker.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.missing: list[str] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append(None)
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = [name, start, end, parent, None]
            if counter is not None:
                try:
                    self.spans[index][4] = counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    pass  # signature changed: the layer keeps its time, loses its count
            return result

        return wrapper

    def install(self) -> None:
        for module, attr, name, counter in HOOKS:
            mod = sys.modules.get(f"mpclust.{module}")
            fn = getattr(mod, attr, None)
            if not callable(fn):
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(mod, attr, self.wrap(fn, name, counter))


def layers(spans: list):
    """Return ``lay(name, parent=None)``: calls, total and self seconds, summed counts.

    ``parent`` keeps only spans opened directly under a span of that name.
    Self time is a span's duration minus that of its direct children;
    children never outlive their parent on one thread.
    """
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def lay(name: str, parent: str | None = None) -> dict:
        total = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": defaultdict(int)}
        for i, (n, start, end, p, counts) in enumerate(spans):
            if n != name or (parent is not None and (p < 0 or spans[p][0] != parent)):
                continue
            total["calls"] += 1
            total["total_s"] += end - start
            total["self_s"] += end - start - child_time[i]
            for k, v in (counts or {}).items():
                total["counts"][k] += v
        return total

    return lay


def calibrate(n: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op function."""
    tracer = Tracer()
    noop = tracer.wrap(lambda: None, "noop")
    bare = lambda: None  # noqa: E731
    start = time.perf_counter()
    for _ in range(n):
        bare()
    base = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(n):
        noop()
    return max(0.0, (time.perf_counter() - start - base) / n)
