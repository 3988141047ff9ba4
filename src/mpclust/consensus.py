"""Co-clustering evidence accumulation, consensus matrix, and early stopping.

Pair counts are kept as 32-bit counters in condensed upper-triangle form
plus a diagonal vector (V(i,i) == D(i,i) == times i was sampled), which
halves the dominant O(N^2) memory cost.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.spatial.distance import squareform

__all__ = [
    "ConsensusState",
    "update",
    "consensus_of",
    "confusion",
    "StopTracker",
    "should_stop",
    "save_consensus_csv",
    "save_consensus_binary",
    "load_consensus_binary",
]


def _pair_index(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Condensed index for i < j (row-major upper triangle)."""
    return n * i - i * (i + 1) // 2 + (j - i - 1)


@lru_cache(maxsize=8)
def _triu_pairs(size: int) -> tuple[np.ndarray, np.ndarray]:
    ii, jj = np.triu_indices(size, k=1)
    ii.setflags(write=False)
    jj.setflags(write=False)
    return ii, jj


@dataclass
class ConsensusState:
    """Accumulated co-cluster (V) and co-sampling (D) counts."""

    n: int
    pair_same: np.ndarray  # condensed V, int32
    pair_seen: np.ndarray  # condensed D, int32
    diag: np.ndarray  # per-observation sampling count, int32

    @classmethod
    def empty(cls, n: int) -> "ConsensusState":
        if n < 2:
            raise ValueError("need at least 2 observations")
        npair = n * (n - 1) // 2
        return cls(
            n=n,
            pair_same=np.zeros(npair, dtype=np.int32),
            pair_seen=np.zeros(npair, dtype=np.int32),
            diag=np.zeros(n, dtype=np.int32),
        )


def update(
    state: ConsensusState,
    sampled: np.ndarray,
    labels: np.ndarray,
    confusion_rows: np.ndarray | None = None,
) -> ConsensusState:
    """Record one minipatch: every sampled pair co-sampled, same-label pairs co-clustered.

    When ``confusion_rows`` (length-N float array) is given, the
    off-diagonal row sums of S(1-S) are maintained incrementally, which
    lets callers track the confusion vector in O(patch^2) per iteration
    instead of recomputing over all N^2 pairs.
    """
    idx = np.asarray(sampled, dtype=np.intp)
    lab = np.asarray(labels)
    if idx.size != lab.size:
        raise ValueError("labels must be defined exactly on the sampled indices")
    if idx.size == 0:
        return state
    if idx.min() < 0 or idx.max() >= state.n:
        raise ValueError(f"sampled index out of range 0..{state.n - 1}")
    if np.unique(idx).size != idx.size:
        raise ValueError("sampled indices must be distinct")

    order = np.argsort(idx)
    idx = idx[order]
    lab = lab[order]
    ii, jj = _triu_pairs(idx.size)
    cond = _pair_index(state.n, idx[ii], idx[jj])

    if confusion_rows is not None:
        s_old = state.pair_same[cond] / np.maximum(1, state.pair_seen[cond])
        g_old = s_old * (1.0 - s_old)
    state.pair_seen[cond] += 1
    same = lab[ii] == lab[jj]
    state.pair_same[cond[same]] += 1
    state.diag[idx] += 1
    if confusion_rows is not None:
        s_new = state.pair_same[cond] / np.maximum(1, state.pair_seen[cond])
        delta = s_new * (1.0 - s_new) - g_old
        per_row = np.bincount(ii, weights=delta, minlength=idx.size)
        per_row += np.bincount(jj, weights=delta, minlength=idx.size)
        confusion_rows[idx] += per_row
    return state


def consensus_of(state: ConsensusState) -> np.ndarray:
    """Dense consensus matrix S = V / max(1, D); diagonal 1 where sampled."""
    s = state.pair_same / np.maximum(1, state.pair_seen)
    dense = squareform(s)
    np.fill_diagonal(dense, (state.diag > 0).astype(float))
    return dense


def confusion(s: np.ndarray) -> np.ndarray:
    """Per-observation instability (1/N) sum_j S_ij (1 - S_ij), diagonal included."""
    s = np.asarray(s, dtype=float)
    return (s * (1.0 - s)).sum(axis=1) / s.shape[0]


@dataclass(frozen=True)
class StopTracker:
    """Stops once the q-th confusion percentile stays put for ``patience`` steps."""

    q: float = 90.0
    c: float = 1e-5
    patience: int = 5
    prev_percentile: float = 0.0
    run_length: int = 0

    def step(self, percentile: float) -> tuple["StopTracker", bool]:
        eps = abs(percentile - self.prev_percentile)
        run = self.run_length + 1 if eps < self.c else 0
        run = min(run, self.patience)
        nxt = replace(self, prev_percentile=percentile, run_length=run)
        return nxt, run >= self.patience


def should_stop(tracker: StopTracker, s: np.ndarray) -> tuple[StopTracker, bool]:
    """Feed one consensus snapshot to the tracker; True means stop now."""
    pct = float(np.percentile(confusion(s), tracker.q))  # type-7 interpolation
    return tracker.step(pct)


# -- consensus matrix export ------------------------------------------------

_MAGIC = b"MPCS"


def save_consensus_csv(s: np.ndarray, path: str | Path, ids: tuple[str, ...] | None = None) -> None:
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    names = list(ids) if ids is not None else [f"obs{i}" for i in range(n)]
    with Path(path).open("w") as fh:
        fh.write("id," + ",".join(names) + "\n")
        for i in range(n):
            fh.write(names[i] + "," + ",".join(f"{x:.17g}" for x in s[i]) + "\n")


def save_consensus_binary(s: np.ndarray, path: str | Path) -> None:
    """Compact form: magic 'MPCS', little-endian u32 N, row-major f32 values."""
    s = np.asarray(s, dtype=np.float32)
    with Path(path).open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", s.shape[0]))
        fh.write(s.astype("<f4").tobytes())


def load_consensus_binary(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a consensus binary (bad magic)")
    (n,) = struct.unpack("<I", raw[4:8])
    vals = np.frombuffer(raw[8:], dtype="<f4")
    if vals.size != n * n:
        raise ValueError(f"{path}: expected {n * n} values, found {vals.size}")
    return vals.reshape(n, n).astype(float)
