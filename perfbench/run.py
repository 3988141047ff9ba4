"""End-to-end and per-layer benchmark of `mpclust cluster`.

Usage (from the repository root):

    python3 perfbench/run.py --workload wide-impacc --seed 1 --seconds 25 --trace 0

Each run generates a synthetic sparse dataset from ``--seed`` with
``mpclust.synthgen``, writes it as CSV and calls ``mpclust.cli.main(["cluster",
...])`` in fresh child processes, one at a time, for about ``--seconds``
seconds (always at least one). Set-up-only children (import plus
``load_matrix``) top the set-up samples up to three. Every child's artefacts
are checked, and labels.csv and the consensus file must be byte-identical
across all runs of one seed and one code version, including earlier runs
recorded under ``.perfbench/records``.

``--trace 0`` reports the end-to-end metrics (medians over the children).
``--trace 1`` adds one traced child, whose layer spans give the per-layer
metrics, and compares it with the untraced median for the tracing overhead.
The last line of standard output is one JSON object: correct, attempted,
failed, metrics. Lines before it print every metric with its unit, and
context.json in this directory records why the workloads and metrics are
what they are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

DEFAULT_SEED = 1  # the held-out seed for re-checking claims is in context.json
K = 4
MIN_SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # every child is killed by then; the contract allows 180 s
PROBE_REF_S = 1.6e-3  # probe time on the machine the benchmark was defined on (context.json)
PROBE_EVERY_S = 0.1

# synthgen "sparse" regime: 25 signal features, rho 0.5, SNR 6 (the paper's defaults)
WORKLOADS = {
    "wide-impacc": {"n_obs": 500, "n_features": 5000, "mode": "impacc", "binary": False},
    "tall-mpcc": {"n_obs": 3000, "n_features": 500, "mode": "mpcc", "binary": False},
    "tall-impacc": {"n_obs": 3000, "n_features": 500, "mode": "impacc", "binary": True},
}

# counts a traced run must reproduce exactly for one seed and one code version
REPEATING_COUNTS = (
    "pipeline.iterations",
    "dist.pairwise_pairs",
    "hclust.ward_linkage_leaves",
    "consensus.update_pairs",
    "consensus.consensus_of_bytes",
    "cli.consensus_bytes",
)

END_TO_END_UNITS = {"total_s": "s", "setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def _seeds(seed: int) -> tuple[int, int]:
    """Dataset seed and run seed, both derived from the benchmark seed."""
    import numpy as np

    data_seed, run_seed = np.random.SeedSequence(seed).generate_state(2)
    return int(data_seed) >> 1, int(run_seed) >> 1


def _write_csv(matrix, path: Path) -> None:
    """repr() of a float64 is its shortest exact decimal, so the CLI reads back the same bits.

    The file is synced before any child starts, so no child reads it while
    the kernel is still writing it back.
    """
    with path.open("w") as fh:
        fh.write("id," + ",".join(matrix.col_ids) + "\n")
        for rid, row in zip(matrix.row_ids, matrix.values.tolist()):
            fh.write(rid + "," + ",".join(map(repr, row)) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def _code_key() -> str:
    h = hashlib.sha256()
    for base in (SRC / "mpclust", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    import numpy
    import scipy

    h.update(f"{sys.version}|{numpy.__version__}|{scipy.__version__}".encode())
    return h.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _probe_kernel(n: int = 20_000) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s


class SpeedProbe:
    """Times a fixed pure-Python loop every 0.1 s on a background thread.

    The benchmark runs on shared hosts whose speed drifts by tens of percent
    over seconds to minutes while a child runs. The probe runs on the core the
    child leaves free, at under 2% of it, and its median over a child's time
    window says how fast the machine ran then. End-to-end times are reported
    at the reference speed PROBE_REF_S: measured seconds times PROBE_REF_S
    over that median. Raw seconds are printed beside them.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            start = time.perf_counter()
            _probe_kernel()
            end = time.perf_counter()
            self.samples.append(((start + end) / 2, end - start))

    def close(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, window) -> float:
        """PROBE_REF_S over the median probe time in ``window``, widened to hold 5 samples."""
        lo, hi = window
        pad = 0.0
        while True:
            inside = [d for t, d in self.samples if lo - pad <= t <= hi + pad]
            if len(inside) >= 5 or pad >= 5.0:
                break
            pad += 0.25
        return PROBE_REF_S / statistics.median(inside) if inside else 1.0


class Runner:
    """Starts children one at a time and kills any that outlive the deadline."""

    def __init__(self, work: Path, started: float, probe: SpeedProbe) -> None:
        self.work = work
        self.started = started
        self.probe = probe
        self.count = 0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("MPCLUST_")}

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def child(self, kind: str, argv: list[str]) -> dict:
        self.count += 1
        tag = f"{self.count:02d}-{kind}"
        request = self.work / f"{tag}.request.json"
        result = self.work / f"{tag}.result.json"
        log = self.work / f"{tag}.log"
        request.write_text(json.dumps({"kind": kind, "argv": argv, "result": str(result)}))
        cmd = [sys.executable, str(HERE / "child.py"), str(SRC), str(request)]
        start = time.perf_counter()
        with log.open("w") as fh:
            proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=self.work, env=self.env)
            try:
                proc.wait(timeout=max(1.0, self.remaining()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        wall = time.perf_counter() - start
        if proc.returncode != 0 or not result.is_file():
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            return {"kind": kind, "ok": False, "wall_s": wall, "tag": tag,
                    "reason": f"exit {proc.returncode}: " + " | ".join(tail)}
        out = json.loads(result.read_text())
        out.update(ok=True, wall_s=wall, tag=tag)
        out["setup_s"] = out["import_s"] + out["load_s"]
        scale = {k: self.probe.scale(w) for k, w in out["windows"].items()}
        out["ref"] = {"setup_s": out["import_s"] * scale["import"] + out["load_s"] * scale["load"]}
        if "run" in scale:
            out["ref"].update(total_s=out["total_s"] * scale["main"], run_s=out["run_s"] * scale["run"])
        out["probe_scale"] = scale["main"]
        return out


def _median(values):
    return statistics.median(values) if values else None


def _layer_metrics(traced: dict, untraced_total: float, csv_bytes: int, quality_ari: float) -> dict:
    import tracer

    lay = tracer.layers(traced["spans"])
    ward_patch = lay("hclust.ward_linkage", "pipeline.run")
    pairwise = lay("dist.pairwise")
    update = lay("consensus.update")
    cons_of = lay("consensus.consensus_of")
    score = lay("sampling.score_features")
    stats = traced.get("run_stats", {})
    load_s = traced["load_s"]
    spans = len(traced["spans"])
    return {
        "dataio.load_matrix_s": (load_s, "s"),
        "dataio.load_matrix_mb_per_s": (csv_bytes / 1e6 / load_s, "MB/s"),
        "dataio.rss_after_load_mb": (traced["rss_after_load_mb"], "MB"),
        "cli.export_s": (traced["export_s"], "s"),
        "cli.consensus_bytes": (traced["consensus_bytes"], "bytes"),
        "hclust.ward_linkage_s": (ward_patch["self_s"], "s"),
        "hclust.ward_linkage_calls": (ward_patch["calls"], "count"),
        "hclust.ward_linkage_leaves": (ward_patch["counts"]["leaves"], "count"),
        "hclust.final_ward_s": (lay("hclust.ward_linkage", "pipeline.finalize_hierarchical")["self_s"], "s"),
        "hclust.cut_quantile_s": (lay("hclust.cut_quantile", "pipeline.run")["self_s"], "s"),
        "pipeline.finalize_hierarchical_s": (lay("pipeline.finalize_hierarchical")["total_s"], "s"),
        "pipeline.rss_after_run_mb": (traced["rss_after_run_mb"], "MB"),
        "pipeline.run_self_s": (lay("pipeline.run")["self_s"], "s"),
        "pipeline.iterations": (stats.get("iterations", 0), "count"),
        "pipeline.stop_reason": (int(bool(stats.get("early_stop"))), "code"),
        "pipeline.stop_gap": (stats.get("stop_gap") or 0.0, "ratio"),
        "pipeline.multi_cluster_patch_ratio": (stats.get("multi_cluster_patch_ratio") or 0.0, "ratio"),
        "dist.pairwise_s": (pairwise["self_s"], "s"),
        "dist.pairwise_calls": (pairwise["calls"], "count"),
        "dist.pairwise_pairs": (pairwise["counts"]["pairs"], "count"),
        "dist.pairwise_ops": (pairwise["counts"]["ops"], "count"),
        "consensus.update_s": (update["self_s"], "s"),
        "consensus.update_pairs": (update["counts"]["pairs"], "count"),
        "consensus.consensus_of_s": (cons_of["self_s"], "s"),
        "consensus.consensus_of_calls": (cons_of["calls"], "count"),
        "consensus.consensus_of_bytes": (cons_of["counts"]["bytes"], "bytes"),
        "consensus.confusion_s": (lay("consensus.confusion")["self_s"], "s"),
        "sampling.update_obs_weights_s": (lay("sampling.update_obs_weights")["self_s"], "s"),
        "sampling.score_features_s": (score["self_s"], "s"),
        "sampling.score_features_calls": (score["calls"], "count"),
        "sampling.ee_prob_next_s": (lay("sampling.ee_prob_next")["self_s"], "s"),
        "sampling.update_feature_weights_s": (lay("sampling.update_feature_weights")["self_s"], "s"),
        "sampling.draw_uniform_s": (lay("sampling.draw_uniform")["self_s"], "s"),
        "trace.overhead_ratio": (traced["ref"]["total_s"] / untraced_total - 1.0, "ratio"),
        "trace.wrapper_s": (spans * traced["wrapper_cost_s"], "s"),
        "trace.spans": (spans, "count"),
        "trace.probe_scale": (traced["probe_scale"], "ratio"),
        "quality.ari": (quality_ari, "index"),
    }


def _write_spans(path: Path, traced: dict, run_id: str) -> None:
    with path.open("w") as fh:
        fh.write("run_id,index,name,start_s,end_s,parent\n")
        t0 = traced["spans"][0][1] if traced["spans"] else 0.0
        for i, (name, start, end, parent, _) in enumerate(traced["spans"]):
            fh.write(f"{run_id},{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")


def _compare_record(path: Path, digests: dict, counts: dict | None) -> list[str]:
    """Compare with earlier runs of the same seed and code; remember this one."""
    record = json.loads(path.read_text()) if path.is_file() else {}
    problems = [f"{k} digest differs from an earlier run" for k, v in digests.items()
                if record.get("digests", {}).get(k, v) != v]
    record["digests"] = digests
    if counts is not None:
        old = record.get("counts") or {}
        problems += [f"count {k} = {v}, an earlier traced run had {old[k]}"
                     for k, v in counts.items() if k in old and old[k] != v]
        record["counts"] = {**old, **counts}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    tmp.replace(path)
    return problems


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not (SRC / "mpclust" / "__init__.py").is_file():
        print(f"error: no mpclust package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mpclust

    if Path(mpclust.__file__).resolve().parent != (SRC / "mpclust").resolve():
        print(f"error: imported mpclust from {mpclust.__file__}, not {SRC}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    work = STATE / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so finally blocks reap children
    probe = SpeedProbe()
    try:
        return _bench(args, work, Runner(work, started, probe))
    finally:
        probe.close()
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, work: Path, runner: Runner) -> int:
    import numpy
    import scipy
    from mpclust.metrics import ari, f1_features, select_by_score
    from mpclust.synthgen import SynthSpec, generate

    import checks

    wl = WORKLOADS[args.workload]
    data_seed, run_seed = _seeds(args.seed)

    data = generate(SynthSpec(snr=6.0, n_obs=wl["n_obs"], n_features=wl["n_features"],
                              n_signal=25, rho=0.5, regime="sparse", seed=data_seed))
    csv_path = work / "matrix.csv"
    _write_csv(data.matrix, csv_path)
    csv_bytes = csv_path.stat().st_size
    row_ids, col_ids = data.matrix.row_ids, data.matrix.col_ids
    truth, mask = data.labels, data.signal_mask
    del data
    n = wl["n_obs"]
    print(f"workload {args.workload}: {n}x{wl['n_features']} {wl['mode']}, "
          f"consensus {'binary' if wl['binary'] else 'csv'}, seed {args.seed} "
          f"(dataset seed {data_seed}, run seed {run_seed})")
    print(f"input {csv_bytes / 1e6:.1f} MB sha256 {checks.sha256(csv_path)[:16]}; "
          f"pair counters {n * (n - 1) * 4 / 1e6:.1f} MB")
    print(f"context: nproc {os.cpu_count()}, {_cpu_model()}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, scipy {scipy.__version__}")

    def cluster_argv(out: Path) -> list[str]:
        argv = ["cluster", str(csv_path), "--mode", wl["mode"], "--k", str(K),
                "--seed", str(run_seed), "--out", str(out)]
        return argv + (["--consensus-format", "binary"] if wl["binary"] else [])

    record_path = STATE / "records" / f"{args.workload}-{args.seed}-{_code_key()}.json"
    failures: list[str] = []
    reference: dict = {}
    quality: dict = {}

    def full_child(kind: str) -> dict:
        out = work / f"out-{runner.count + 1:02d}"
        rec = runner.child(kind, cluster_argv(out))
        if rec["ok"]:
            try:
                found = checks.check_outputs(out, row_ids, col_ids, K, wl["binary"],
                                             scored=wl["mode"] == "impacc")
            except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                rec.update(ok=False, reason=f"output check: {exc}")
            else:
                rec["consensus_bytes"] = found["consensus_bytes"]
                rec["iterations"] = found["iterations"]
                rec["digests"] = found["digests"]
                if not reference:
                    reference.update(found["digests"])
                    quality["ari"] = ari(found["labels"], truth)
                    if found["scores"] is not None:
                        quality["feature_f1"] = f1_features(select_by_score(found["scores"]), mask)
                elif found["digests"] != reference:
                    rec.update(ok=False, reason="outputs differ between runs of one seed")
        if not rec["ok"]:
            failures.append(f"{rec['tag']}: {rec['reason']}")
        shutil.rmtree(out, ignore_errors=True)
        return rec

    measure_start = time.perf_counter()
    full: list[dict] = []
    while True:
        full.append(full_child("full"))
        typical = _median([r["wall_s"] for r in full])
        if time.perf_counter() - measure_start + typical > args.seconds:
            break
        if runner.remaining() < typical + 30:
            break
    setup_runs: list[dict] = []
    ok_full = [r for r in full if r["ok"]]
    if not args.trace:
        while len(ok_full) + len([r for r in setup_runs if r["ok"]]) < MIN_SETUP_SAMPLES:
            if runner.remaining() < 30:
                break
            rec = runner.child("setup", cluster_argv(work / "out-setup"))
            if not rec["ok"]:
                failures.append(f"{rec['tag']}: {rec['reason']}")
            setup_runs.append(rec)
    traced = full_child("traced") if args.trace and ok_full else None

    layers = None
    if traced and traced["ok"]:
        untraced_total = _median([r["ref"]["total_s"] for r in ok_full])
        layers = _layer_metrics(traced, untraced_total, csv_bytes, quality["ari"])
        if layers["pipeline.iterations"][0] != traced["iterations"]:
            failures.append("traced run: pipeline.iterations differs from the trace.csv rows")
    if reference:
        counts = {k: layers[k][0] for k in REPEATING_COUNTS} if layers else None
        failures += _compare_record(record_path, dict(reference), counts)

    attempted = len(full) + len(setup_runs) + (1 if traced else 0)
    ok_setup = ok_full + [r for r in setup_runs if r["ok"]]
    samples = {
        "total_s": [r["ref"]["total_s"] for r in ok_full],
        "setup_s": [r["ref"]["setup_s"] for r in ok_setup],
        "run_s": [r["ref"]["run_s"] for r in ok_full],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok_full],
    }
    raw = {"total_s": [r["total_s"] for r in ok_full], "setup_s": [r["setup_s"] for r in ok_setup],
           "run_s": [r["run_s"] for r in ok_full]}
    metrics: dict = {}
    print(f"{len(ok_full)} of {len(full)} full runs passed every output check")
    for name, unit in END_TO_END_UNITS.items():
        vals = samples[name]
        if not vals:
            continue
        metrics[name] = {"value": statistics.median(vals), "unit": unit}
        line = f"  {name:<12} {_fmt(statistics.median(vals)):>10} {unit:<6} median of {len(vals)}: "
        line += " ".join(f"{v:.4g}" for v in vals)
        if name in raw:
            line += f"; measured {_fmt(statistics.median(raw[name]))} s at probe scale "
            line += " ".join(f"{r['probe_scale']:.3f}" for r in ok_full)
        print(line)
    if "ari" in quality:
        print(f"  {'ari':<12} {_fmt(quality['ari']):>10} {'index':<6} labels.csv vs the true labels")
    f1 = quality.get("feature_f1")
    print(f"  {'feature_f1':<12} {_fmt(f1) if f1 is not None else 'n/a':>10} {'index':<6} "
          + ("top features vs the signal mask" if f1 is not None else "mpcc writes no feature scores"))
    n_failed = min(attempted, len(failures))
    print(f"  {'failed_runs':<12} {_fmt(n_failed / attempted):>10} {'ratio':<6} {n_failed} of {attempted} runs")
    for problem in failures:
        print(f"  FAILED {problem}", file=sys.stderr)

    if args.trace:
        metrics = {}
        if layers:
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
            if traced.get("missing_hooks"):
                print(f"  hooks not found (reported as zero calls): {', '.join(traced['missing_hooks'])}")
            print("per-layer (traced run):")
            for k, (v, u) in layers.items():
                print(f"  {k:<36} {_fmt(v):>12} {u}")
            _write_spans(STATE / f"spans-{args.workload}.csv", traced, f"{args.workload}-{args.seed}")

    result = {"correct": not failures and bool(metrics), "attempted": attempted,
              "failed": n_failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
