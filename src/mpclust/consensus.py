"""Co-clustering evidence accumulation, consensus matrix, and early stopping.

Pair counts are kept as 32-bit counters in condensed upper-triangle form
plus a diagonal vector (V(i,i) == D(i,i) == times i was sampled), which
halves the dominant O(N^2) memory cost.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from functools import cache, lru_cache
from pathlib import Path

import numpy as np
from scipy.spatial.distance import squareform

from .dataio import _write_table

__all__ = [
    "ConsensusState",
    "update",
    "consensus_of",
    "confusion",
    "StopTracker",
    "write_consensus_csv",
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
    cond = _pair_index(state.n, idx, 0)[ii] + idx[jj]

    seen = state.pair_seen[cond]
    same_old = state.pair_same[cond]
    same_new = same_old + (lab[ii] == lab[jj])
    seen_new = seen + 1
    state.pair_seen[cond] = seen_new
    state.pair_same[cond] = same_new
    state.diag[idx] += 1
    if confusion_rows is not None:
        s_old = same_old / np.maximum(1, seen)
        s_new = same_new / seen_new
        delta = s_new * (1.0 - s_new) - s_old * (1.0 - s_old)
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


# -- consensus matrix export ------------------------------------------------

def write_consensus_csv(state: ConsensusState, ids: Sequence[str], path: str | Path) -> None:
    """Write S as a matrix CSV straight from the pair counters.

    The bytes are those of ``write_matrix(DataMatrix(consensus_of(state),
    ids, ids), path)``, but dense S is never built: each row is computed
    from the condensed counters, and since S holds few distinct values
    (ratios of small counts), each is formatted once with ``%.17g`` and
    the cells are filled in by table lookup.
    """
    if len(ids) != state.n:
        raise ValueError(f"got {len(ids)} ids for {state.n} observations")
    _write_table(path, ids, ids, _consensus_rows(state))


def _consensus_rows(state: ConsensusState) -> Iterator[str]:
    """Row i of S as comma-separated ``%.17g`` text, for i = 0 .. N-1."""
    n = state.n
    first = _pair_index(n, np.arange(n), np.arange(n) + 1)  # condensed index of (i, i + 1)
    above = first - np.arange(n) - 1  # condensed index of (j, i), j < i, is above[j] + i
    text = cache("%.17g".__mod__)
    for i in range(n):
        pairs = np.concatenate((above[:i] + i, [0], np.arange(first[i], first[i] + n - 1 - i)))
        row = state.pair_same[pairs] / np.maximum(1, state.pair_seen[pairs])
        row[i] = state.diag[i] > 0  # in place of pair 0, which filled the diagonal slot
        values, index = np.unique(row, return_inverse=True)
        cells = np.array([text(v) for v in values.tolist()], dtype=object)
        yield ",".join(cells[index].tolist()) + "\n"


_MAGIC = b"MPCS"


def save_consensus_binary(s: np.ndarray, path: str | Path) -> None:
    """Compact form: magic 'MPCS', little-endian u32 N, row-major f32 values."""
    values = np.ascontiguousarray(s, dtype="<f4")
    with Path(path).open("wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", values.shape[0]))
        fh.write(values.data)


def load_consensus_binary(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a consensus binary (bad magic)")
    (n,) = struct.unpack("<I", raw[4:8])
    vals = np.frombuffer(raw[8:], dtype="<f4")
    if vals.size != n * n:
        raise ValueError(f"{path}: expected {n * n} values, found {vals.size}")
    return vals.reshape(n, n).astype(float)
