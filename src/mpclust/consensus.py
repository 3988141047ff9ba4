"""Co-clustering evidence accumulation, consensus matrix, and early stopping.

Pair counts are kept in condensed upper-triangle form plus a diagonal
vector (V(i,i) == D(i,i) == times i was sampled), which halves the
dominant O(N^2) memory cost. The counters are the narrowest unsigned
integers that hold the run's largest possible count: 16-bit whenever a
run draws at most 65,535 minipatches (the default cap is 5,000), so 2
bytes per counter per pair and 200 MB for both counters at N=10,000;
32-bit beyond that. ``update`` raises ValueError, leaving the counters
as they were, rather than let a counter wrap.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

import numpy as np
from scipy.spatial.distance import squareform

from .dataio import _write_table

__all__ = [
    "ConsensusState",
    "PairScratch",
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


@dataclass
class ConsensusState:
    """Accumulated co-cluster (V) and co-sampling (D) counts."""

    n: int
    pair_same: np.ndarray  # condensed V
    pair_seen: np.ndarray  # condensed D, never above the diag of either observation
    diag: np.ndarray  # per-observation sampling count

    @classmethod
    def empty(cls, n: int, *, max_count: int = 2**32 - 1) -> "ConsensusState":
        """Zero counters: uint16 when ``max_count``, the most updates the
        caller will make (``run()`` passes its t_max), is at most 65,535;
        uint32 otherwise."""
        if n < 2:
            raise ValueError("need at least 2 observations")
        npair = n * (n - 1) // 2
        dtype = np.uint16 if max_count <= np.iinfo(np.uint16).max else np.uint32
        return cls(
            n=n,
            pair_same=np.zeros(npair, dtype=dtype),
            pair_seen=np.zeros(npair, dtype=dtype),
            diag=np.zeros(n, dtype=dtype),
        )


@dataclass(eq=False)
class PairScratch:
    """Per-pair work arrays for minipatches of one size, reused across iterations.

    ``ii``/``jj`` hold the patch positions of each pair (row-major upper
    triangle). The rest are filled through ``out=`` arguments: ``dist``
    and ``root`` by ``pairwise`` and ``ward_linkage``, the others by
    ``update``. A run that keeps one scratch maps these pages once instead
    of allocating and returning each temporary in every iteration.
    """

    ii: np.ndarray
    jj: np.ndarray
    cond: np.ndarray  # condensed counter index of each pair; first the labels at ii
    gather: np.ndarray  # idx or labels at jj
    seen: np.ndarray  # counter dtype
    same: np.ndarray  # counter dtype
    same_label: np.ndarray  # bool
    s_old: np.ndarray
    s_new: np.ndarray
    delta: np.ndarray
    dist: np.ndarray
    root: np.ndarray

    @classmethod
    def empty(cls, size: int, counter_dtype: np.dtype) -> "PairScratch":
        ii, jj = np.triu_indices(size, k=1)
        npair = ii.size
        return cls(
            ii=ii,
            jj=jj,
            cond=np.empty(npair, dtype=np.intp),
            gather=np.empty(npair, dtype=np.intp),
            seen=np.empty(npair, dtype=counter_dtype),
            same=np.empty(npair, dtype=counter_dtype),
            same_label=np.empty(npair, dtype=bool),
            s_old=np.empty(npair),
            s_new=np.empty(npair),
            delta=np.empty(npair),
            dist=np.empty(npair),
            root=np.empty(npair),
        )


def update(
    state: ConsensusState,
    sampled: np.ndarray,
    labels: np.ndarray,
    confusion_rows: np.ndarray | None = None,
    *,
    scratch: PairScratch | None = None,
) -> ConsensusState:
    """Record one minipatch: every sampled pair co-sampled, same-label pairs co-clustered.

    When ``confusion_rows`` (length-N float array) is given, the
    off-diagonal row sums of S(1-S) are maintained incrementally, which
    lets callers track the confusion vector in O(patch^2) per iteration
    instead of recomputing over all N^2 pairs.

    ``scratch`` is a ``PairScratch`` for this patch size and counter
    dtype; without one, fresh work arrays are allocated for this call.

    Raises ValueError, with every counter unchanged, if a sampled
    observation's count is already the largest its dtype holds.
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
    limit = np.iinfo(state.diag.dtype).max
    if state.diag[idx].max() >= limit:  # pair_seen never exceeds diag
        raise ValueError(
            f"an observation was already sampled {limit} times, the most "
            f"{state.diag.dtype} counters hold; use ConsensusState.empty(n, max_count=...)"
        )
    buf = PairScratch.empty(idx.size, state.pair_seen.dtype) if scratch is None else scratch
    if buf.ii.size != idx.size * (idx.size - 1) // 2 or buf.seen.dtype != state.pair_seen.dtype:
        raise ValueError(
            f"scratch is for other patches than {idx.size} observations "
            f"with {state.pair_seen.dtype} counters"
        )

    order = np.argsort(idx)
    idx = idx[order]
    _, lab = np.unique(lab[order], return_inverse=True)  # any labels as intp codes
    # np.take's default mode="raise" writes through a fresh copy of ``out``;
    # every index is in range (checked above), so "clip" never clips
    np.take(lab, buf.ii, out=buf.cond, mode="clip")
    np.take(lab, buf.jj, out=buf.gather, mode="clip")
    np.equal(buf.cond, buf.gather, out=buf.same_label)
    np.take(_pair_index(state.n, idx, 0), buf.ii, out=buf.cond, mode="clip")
    np.take(idx, buf.jj, out=buf.gather, mode="clip")
    cond = np.add(buf.cond, buf.gather, out=buf.cond)

    seen = np.take(state.pair_seen, cond, out=buf.seen, mode="clip")
    same = np.take(state.pair_same, cond, out=buf.same, mode="clip")
    if confusion_rows is not None:
        s_old = np.divide(same, np.maximum(seen, 1, out=buf.s_old), out=buf.s_old)
    np.add(seen, 1, out=seen)
    np.add(same, buf.same_label, out=same)
    state.pair_seen[cond] = seen
    state.pair_same[cond] = same
    state.diag[idx] += 1
    if confusion_rows is not None:
        # delta = s_new (1 - s_new) - s_old (1 - s_old), operation for operation
        s_new = np.divide(same, seen, out=buf.s_new)
        delta = np.multiply(s_new, np.subtract(1.0, s_new, out=buf.delta), out=buf.delta)
        np.multiply(s_old, np.subtract(1.0, s_old, out=s_new), out=s_old)
        np.subtract(delta, s_old, out=delta)
        per_row = np.bincount(buf.ii, weights=delta, minlength=idx.size)
        per_row += np.bincount(buf.jj, weights=delta, minlength=idx.size)
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
