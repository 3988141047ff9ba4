"""One `mpclust cluster` invocation in a fresh interpreter, timed from outside.

Usage: python3 child.py SRC_DIR REQUEST_JSON

SRC_DIR holds the ``mpclust`` package under test. REQUEST_JSON names
``argv`` (the arguments to ``cli.main``), ``kind`` and ``result`` (the JSON
file this process writes). Kinds:

* ``full``: the whole command. Only ``cli.load_matrix`` and ``cli.run``
  are wrapped, each by one pair of clock reads.
* ``setup``: import and everything ``cli.main`` does before ``run()``;
  the call to ``run()`` is cut short.
* ``traced``: the whole command with every layer hook in tracer.HOOKS.

The import of ``mpclust`` is timed before anything else is loaded, since
the set-up a user waits for starts with it.
"""

import sys
import time

_t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from mpclust import cli  # noqa: E402

IMPORT_WINDOW = (_t0, time.perf_counter())

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402


class SetupDone(Exception):
    """Raised in place of ``run()`` by a set-up-only child."""


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _run_stats(result) -> dict:
    """Loop diagnostics read from the RunResult, tolerant of renamed fields."""
    trace = list(getattr(result, "trace", None) or [])
    pct = [rec.confusion_pct for rec in trace]
    deltas = [abs(b - a) for a, b in zip(pct[-6:], pct[-5:])]
    return {
        "iterations": getattr(result, "iterations_run", len(trace)),
        "early_stop": getattr(result, "stop_reason", "") == "early_stop",
        # the stop rule needs every one of the last 5 changes below 1e-5,
        # so the largest of them is the distance from stopping (< 1: stops)
        "stop_gap": max(deltas) / 1e-5 if deltas else None,
        "multi_cluster_patch_ratio": (
            sum(rec.n_clusters >= 2 for rec in trace) / len(trace) if trace else None
        ),
    }


def main() -> int:
    request = json.loads(Path(sys.argv[2]).read_text())
    kind = request["kind"]
    out: dict = {"kind": kind, "import_s": IMPORT_WINDOW[1] - IMPORT_WINDOW[0]}
    marks: dict = {}

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                marks[key] = (start, time.perf_counter())
                marks[key + "_rss_mb"] = _rss_mb()

        return wrapper

    run_results: list = []
    tr = None
    if kind == "traced":
        tr = tracer.Tracer()
        tr.install()
        out["missing_hooks"] = tr.missing
    if kind == "setup":
        def stop(*args, **kwargs):
            raise SetupDone

        cli.run = stop
    else:
        inner_run = cli.run

        def keep(*args, **kwargs):
            result = inner_run(*args, **kwargs)
            run_results.append(result)
            return result

        cli.run = timed(keep, "run")
    cli.load_matrix = timed(cli.load_matrix, "load")

    main_fn = tr.wrap(cli.main, tracer.ROOT) if tr else cli.main
    start = time.perf_counter()
    try:
        rc = main_fn(request["argv"])
    except SetupDone:
        rc = 0
    end = time.perf_counter()

    # windows are (start, end) on the system-wide monotonic clock the parent also reads
    out["rc"] = rc
    out["windows"] = {"import": IMPORT_WINDOW, "load": marks["load"], "main": (start, end)}
    out["load_s"] = marks["load"][1] - marks["load"][0]
    out["rss_after_load_mb"] = marks["load_rss_mb"]
    if kind != "setup":
        out["windows"]["run"] = marks["run"]
        out["total_s"] = end - start
        out["run_s"] = marks["run"][1] - marks["run"][0]
        out["export_s"] = end - marks["run"][1]
        out["rss_after_run_mb"] = marks["run_rss_mb"]
        out["peak_rss_mb"] = _rss_mb()
    if tr is not None:
        out["spans"] = tr.spans
        out["run_stats"] = _run_stats(run_results[0]) if run_results else {}
        out["wrapper_cost_s"] = tracer.calibrate()
    Path(request["result"]).write_text(json.dumps(out))
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
