"""Checks on the artefacts one `mpclust cluster` run leaves on disk.

Each check raises CheckFailed with a one-line reason. ``check_outputs``
returns what later steps compare across runs: the digests of labels.csv
and of the consensus file, the parsed labels and feature scores, and the
consensus file size.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


def _read_rows(path: Path) -> list[list[str]]:
    _require(path.is_file(), f"{path.name} missing")
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _check_labels(path: Path, ids: tuple[str, ...], k: int) -> np.ndarray:
    rows = _read_rows(path)
    _require(rows[:1] == [["id", "label"]], "labels.csv header is not id,label")
    body = rows[1:]
    _require(len(body) == len(ids), f"labels.csv has {len(body)} rows for {len(ids)} ids")
    _require(tuple(r[0] for r in body) == ids, "labels.csv ids are not the input ids in order")
    labels = np.array([int(r[1]) for r in body])
    _require(np.unique(labels).size == k, f"labels.csv has {np.unique(labels).size} labels, not {k}")
    return labels


def _read_consensus_csv(path: Path, ids: tuple[str, ...]) -> np.ndarray:
    with path.open() as fh:
        head = fh.readline().rstrip("\n").split(",")
        _require(tuple(head[1:]) == ids, "consensus.csv header ids differ from the input ids")
        rows = []
        for i, line in enumerate(fh):
            name, _, rest = line.partition(",")
            _require(i < len(ids) and name == ids[i], f"consensus.csv row {i + 1} id mismatch")
            rows.append(np.array(rest.split(","), dtype=float))
    _require(len(rows) == len(ids), f"consensus.csv has {len(rows)} rows for {len(ids)} ids")
    _require(all(r.size == len(ids) for r in rows), "consensus.csv has ragged rows")
    return np.vstack(rows)


def _read_consensus_binary(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    _require(raw[:4] == b"MPCS", "consensus.bin has a bad magic")
    (n,) = struct.unpack("<I", raw[4:8])
    values = np.frombuffer(raw[8:], dtype="<f4")
    _require(values.size == n * n, f"consensus.bin holds {values.size} values, not {n}x{n}")
    return values.reshape(n, n).astype(float)


def _check_consensus(s: np.ndarray, n: int) -> None:
    _require(s.shape == (n, n), f"consensus is {s.shape}, not {n}x{n}")
    _require(bool(np.isfinite(s).all()), "consensus has non-finite values")
    _require(s.min() >= 0.0 and s.max() <= 1.0, "consensus leaves [0, 1]")
    _require(bool(np.array_equal(s, s.T)), "consensus is not symmetric")
    _require(bool((np.diag(s) == 1.0).all()), "consensus diagonal is not 1")


def _check_scores(path: Path, col_ids: tuple[str, ...]) -> np.ndarray:
    rows = _read_rows(path)
    _require(rows[:1] == [["feature_id", "score"]], "feature_scores.csv header is not feature_id,score")
    body = rows[1:]
    _require(len(body) == len(col_ids), f"feature_scores.csv has {len(body)} rows for {len(col_ids)} features")
    _require(tuple(r[0] for r in body) == col_ids, "feature_scores.csv ids are not the feature ids in order")
    scores = np.array([float(r[1]) for r in body])
    _require(bool(np.isfinite(scores).all()) and scores.min() >= 0 and scores.max() <= 1,
             "feature scores leave [0, 1]")
    return scores


def _check_trace(out: Path) -> int:
    manifest = json.loads((out / "manifest.json").read_text())
    iterations = manifest.get("iterations_run")
    trace_rows = len(_read_rows(out / "trace.csv")) - 1
    _require(iterations == trace_rows,
             f"manifest iterations_run {iterations} != {trace_rows} trace.csv rows")
    return trace_rows


def check_outputs(out: Path, row_ids: tuple[str, ...], col_ids: tuple[str, ...],
                  k: int, binary: bool, scored: bool) -> dict:
    labels = _check_labels(out / "labels.csv", row_ids, k)
    consensus = out / ("consensus.bin" if binary else "consensus.csv")
    _require(consensus.is_file(), f"{consensus.name} missing")
    s = _read_consensus_binary(consensus) if binary else _read_consensus_csv(consensus, row_ids)
    _check_consensus(s, len(row_ids))
    scores = _check_scores(out / "feature_scores.csv", col_ids) if scored else None
    return {
        "labels": labels,
        "scores": scores,
        "iterations": _check_trace(out),
        "consensus_bytes": consensus.stat().st_size,
        "digests": {"labels": sha256(out / "labels.csv"), "consensus": sha256(consensus)},
    }
