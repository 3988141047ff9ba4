"""Co-clustering evidence accumulation, consensus matrix, and early stopping.

Pair counts are kept in condensed upper-triangle form plus a diagonal
vector (V(i,i) == D(i,i) == times i was sampled), which halves the
dominant O(N^2) memory cost. The counters, and the exports' codes, take
the narrowest unsigned dtype that holds their largest possible value
(``np.min_scalar_type``): 1 byte per counter per pair in a run of at most
255 minipatches, as at the default ``n_frac`` and ``epochs_e``, so 100 MB
for both counters at N=10,000. ``update`` raises ValueError, leaving the
counters as they were, rather than let a counter wrap.

``update`` does the float work of a minipatch on its live pairs alone: a
pair is live if it was co-clustered before or is in this patch. Any other
sampled pair has S = 0 before and after, so its S(1-S) change is exactly
0.0 - 0.0 = +0.0 and only its co-sampling count moves. Leaving those +0.0
terms out changes no bit of the confusion row sums: each sum starts at
+0.0 and adds deltas that are never -0.0 (a difference of two products
s(1-s) ≥ +0.0), so it is never -0.0 itself, and x + 0.0 == x for every
other float. The live pairs keep their ascending order, so every row adds
the same terms in the same order as it would over all the pairs.

Everything downstream reads the counters. The state also owns the confusion
row sums (off-diagonal S(1-S)), which ``update`` maintains; the weights,
the stop rule (``stop_gap``) and the tuner read them divided by N, as its
``confusion``. The final Ward reads the condensed 1 - S of
``dissimilarity_of`` (8 bytes per pair), and both
exports look S up by each pair's (seen, same) code in a per-run table of
values, indexed through a ``squareform`` matrix. Dense S (8 N^2 bytes),
exactly symmetric, is built by ``consensus_of`` alone: for the spectral
finaliser, and for a caller who asks for it.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from scipy.spatial.distance import squareform

from .dataio import _write_table

__all__ = [
    "ConsensusState",
    "PairScratch",
    "update",
    "consensus_of",
    "dissimilarity_of",
    "stop_gap",
    "save_consensus_csv",
    "save_consensus_binary",
    "load_consensus_binary",
]


def _pair_index(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Condensed index for i < j (row-major upper triangle)."""
    return n * i - i * (i + 1) // 2 + (j - i - 1)


@dataclass
class ConsensusState:
    """Accumulated co-cluster (V) and co-sampling (D) counts, and the S(1-S) row sums."""

    pair_same: np.ndarray  # condensed V
    pair_seen: np.ndarray  # condensed D, never above the diag of either observation
    diag: np.ndarray  # per-observation sampling count
    confusion_rows: np.ndarray  # float64 off-diagonal S(1-S) row sums

    @property
    def n(self) -> int:
        """The number of observations, read from ``diag``."""
        return self.diag.size

    @property
    def confusion(self) -> np.ndarray:
        """The confusion vector (1/N) sum_j S_ij (1 - S_ij), a new array: ``confusion_rows / n``."""
        return self.confusion_rows / self.n

    @staticmethod
    def counter_dtype(max_count: int) -> type[np.unsignedinteger]:
        """The narrowest unsigned dtype that holds ``max_count``, the most updates
        the caller will make; uint64, which no run fills, past its range."""
        return np.min_scalar_type(min(max_count, np.iinfo(np.uint64).max)).type

    @classmethod
    def empty(cls, n: int, *, max_count: int = 2**32 - 1) -> "ConsensusState":
        """Zero counters of ``counter_dtype(max_count)``; ``run()`` passes its t_max."""
        if n < 2:
            raise ValueError("need at least 2 observations")
        npair = n * (n - 1) // 2
        dtype = cls.counter_dtype(max_count)
        return cls(
            pair_same=np.zeros(npair, dtype=dtype),
            pair_seen=np.zeros(npair, dtype=dtype),
            diag=np.zeros(n, dtype=dtype),
            confusion_rows=np.zeros(n),
        )


@dataclass(eq=False)
class PairScratch:
    """Per-pair work arrays for minipatches of one size, reused across iterations.

    ``ii``/``jj`` hold the patch positions of each pair (row-major upper
    triangle). The rest are filled through ``out=`` arguments: ``dist``
    by ``pairwise`` (then Ward's square roots, in place), the others by
    ``update``, whose live-pair values fill prefixes of them. A run that
    keeps one scratch maps these pages once instead of allocating and
    returning each temporary in every iteration. ``dist_ahead``, built
    with ``ahead``, is a second distance buffer, which a loop that
    computes the next patch's distances while it folds this one fills by
    turns with ``dist``; it is empty otherwise.
    """

    ii: np.ndarray
    jj: np.ndarray
    cond: np.ndarray  # condensed counter index of each pair; first the labels at ii,
    # last the live pairs' ii, then their jj
    gather: np.ndarray  # idx or labels at jj; then the live pairs' counter index
    seen: np.ndarray  # counter dtype; then the live pairs' new same
    same: np.ndarray  # counter dtype; then the live pairs' new seen, then old same
    same_label: np.ndarray  # bool; then whether each pair is live
    s_old: np.ndarray
    s_new: np.ndarray
    delta: np.ndarray
    dist: np.ndarray
    dist_ahead: np.ndarray

    @classmethod
    def empty(cls, size: int, counter_dtype: np.dtype, ahead: bool = False) -> "PairScratch":
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
            dist_ahead=np.empty(npair if ahead else 0),
        )

    @classmethod
    def nbytes(cls, size: int, counter_dtype: np.dtype, ahead: bool = False) -> int:
        """Bytes that ``empty(size, counter_dtype, ahead)`` would allocate."""
        one_pair = cls.empty(2, counter_dtype, ahead)
        per_pair = sum(getattr(one_pair, f.name).nbytes for f in fields(cls))
        return per_pair * (size * (size - 1) // 2)


def update(
    state: ConsensusState,
    sampled: np.ndarray,
    labels: np.ndarray,
    *,
    scratch: PairScratch | None = None,
) -> ConsensusState:
    """Record one minipatch: every sampled pair co-sampled, same-label pairs co-clustered.

    The state's ``confusion_rows`` (off-diagonal row sums of S(1-S)) move
    by the change of each sampled pair's S(1-S), so the confusion vector
    costs O(patch^2) per update instead of a recount over all N^2 pairs.
    Every sampled pair has its co-sampling count raised; the S(1-S)
    arithmetic, the co-cluster counter and the row sums then visit only
    the live pairs, those co-clustered before or in this patch, in
    ascending order. The other pairs' S stays 0 and their change is +0.0,
    so the row sums are those of folding in every pair, bit for bit (see
    the module docstring).

    ``scratch`` is a ``PairScratch`` for this patch size and counter
    dtype; without one, fresh work arrays are allocated for this call.

    Raises ValueError, with the whole state unchanged, if a sampled
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
    np.add(seen, 1, out=seen)
    state.pair_seen[cond] = seen
    state.diag[idx] += 1
    same = np.take(state.pair_same, cond, out=buf.same, mode="clip")
    np.add(same, buf.same_label, out=same)
    # the live pairs (new same > 0), ascending; every other pair keeps S = 0
    live = np.flatnonzero(np.not_equal(same, 0, out=buf.same_label))
    m = live.size
    cond = np.take(cond, live, out=buf.gather[:m], mode="clip")
    same_new = np.take(same, live, out=buf.seen[:m], mode="clip")
    seen_new = np.take(state.pair_seen, cond, out=buf.same[:m], mode="clip")
    s_new = np.divide(same_new, seen_new, out=buf.s_new[:m])
    # s_old = same_old / max(seen_old, 1), seen_old being seen_new - 1
    s_old = np.subtract(seen_new, 1, out=buf.s_old[:m])
    np.maximum(s_old, 1, out=s_old)
    same_old = np.take(state.pair_same, cond, out=buf.same[:m], mode="clip")
    np.divide(same_old, s_old, out=s_old)
    state.pair_same[cond] = same_new
    # delta = s_new (1 - s_new) - s_old (1 - s_old), operation for operation
    delta = np.multiply(s_new, np.subtract(1.0, s_new, out=buf.delta[:m]), out=buf.delta[:m])
    np.multiply(s_old, np.subtract(1.0, s_old, out=s_new), out=s_old)
    np.subtract(delta, s_old, out=delta)
    ends = np.take(buf.ii, live, out=buf.cond[:m], mode="clip")
    per_row = np.bincount(ends, weights=delta, minlength=idx.size)
    ends = np.take(buf.jj, live, out=buf.cond[:m], mode="clip")
    per_row += np.bincount(ends, weights=delta, minlength=idx.size)
    state.confusion_rows[idx] += per_row
    return state


def consensus_of(state: ConsensusState) -> np.ndarray:
    """Dense consensus matrix S = V / max(1, D); diagonal 1 where sampled."""
    s = state.pair_same / np.maximum(1, state.pair_seen)
    dense = squareform(s)
    np.fill_diagonal(dense, (state.diag > 0).astype(float))
    return dense


def dissimilarity_of(state: ConsensusState) -> np.ndarray:
    """Condensed 1 - S straight from the counters, in one float64 buffer.

    The values are those of ``1 - squareform(consensus_of(state))``, bit
    for bit: 1 - V / max(1, D) for each pair.
    """
    d = np.maximum(state.pair_seen, 1, out=np.empty(state.pair_seen.size))
    np.divide(state.pair_same, d, out=d)
    return np.subtract(1.0, d, out=d)


STOP_PERCENTILE = 90.0  # q: the stop rule watches this percentile of the confusion vector
STOP_TOLERANCE = 1e-5  # c: a change of the percentile below c counts as no change
STOP_PATIENCE = 5  # a run stops once this many changes in a row are below c


def stop_gap(pct: Sequence[float]) -> float | None:
    """The largest of the last ``STOP_PATIENCE`` changes of ``pct`` over ``STOP_TOLERANCE``,
    or None for fewer than two values. Below 1 (x / c < 1 exactly when x < c, for
    doubles x ≥ 0 and normal c > 0), every one of those changes is below the tolerance."""
    last = pct[-STOP_PATIENCE - 1:]
    gaps = [abs(b - a) for a, b in zip(last, last[1:])]
    return max(gaps) / STOP_TOLERANCE if gaps else None


# -- consensus matrix export ------------------------------------------------

def save_consensus_csv(state: ConsensusState, ids: Sequence[str], path: str | Path) -> None:
    """Write S as a matrix CSV straight from the pair counters, without dense S.

    The bytes are those of ``write_matrix(DataMatrix(consensus_of(state),
    ids, ids), path)``; each value in ``_consensus_cells``' table is
    formatted once with ``%.17g``."""
    if len(ids) != state.n:
        raise ValueError(f"got {len(ids)} ids for {state.n} observations")
    values, cells = _consensus_cells(state)
    text = ["%.17g" % v for v in values.tolist()]
    parts = np.array([t + end for end in ",\n" for t in text], dtype=object)
    last = np.where(np.arange(state.n) == state.n - 1, len(text), 0)  # last column: "\n" half
    rows = ("".join(parts[row + last].tolist()) for row in cells)
    _write_table(path, ids, ids, rows)


_BLOCK_CELLS = 1 << 18
_TABLE_CODES = 1 << 16


def _consensus_cells(state: ConsensusState) -> tuple[np.ndarray, np.ndarray]:
    """A table of S's values, and the N x N matrix of S's indices into it.

    A pair's code is seen·W + same, W being the largest pair count + 1 (at
    least 2); the table holds same / max(1, seen) in float64, as
    ``consensus_of``. The codes, at most W² - 1, take the narrowest unsigned
    dtype that holds that. Bound: while W² ≤ ``_TABLE_CODES`` (65,536; any
    run of at most 255 minipatches) the codes index the table. Past it (W²
    is 25M at the 5,000-minipatch cap) the table holds only the codes that
    occur (``np.unique``), and a pair's index is its code's position there
    (``np.searchsorted``), in the narrowest unsigned dtype. A diagonal cell
    indexes 1/1 if its observation was sampled, else 0."""
    w = int(state.pair_seen.max(initial=1)) + 1
    cond = np.multiply(state.pair_seen, w, dtype=np.min_scalar_type(w * w - 1))
    cond += state.pair_same
    if w * w <= _TABLE_CODES:
        codes = np.arange(w * w)
    else:  # the codes that occur, and the diagonal's 0 and w + 1
        codes = np.union1d(np.unique(cond), np.array([0, w + 1], dtype=cond.dtype))
        cond = np.searchsorted(codes, cond)  # the codes go; with uint32 codes the peak is 12 bytes per pair
        cond = cond.astype(np.min_scalar_type(codes.size - 1))
    cells = squareform(cond)
    np.fill_diagonal(cells, np.where(state.diag > 0, np.searchsorted(codes, w + 1), 0))
    return np.divide(codes % w, np.maximum(codes // w, 1)), cells


_MAGIC = b"MPCS"


def save_consensus_binary(state: ConsensusState, path: str | Path) -> None:
    """Compact form: magic 'MPCS', little-endian u32 N, row-major f32 values.

    Rows of ``_consensus_cells``' matrix, about ``_BLOCK_CELLS`` cells at a
    time, read a ``<f4`` copy of its table: the values of
    ``consensus_of(state).astype("<f4")``, without dense S.
    """
    values, cells = _consensus_cells(state)
    values = values.astype("<f4")
    rows = max(1, _BLOCK_CELLS // state.n)
    with Path(path).open("wb") as fh:
        fh.write(_MAGIC + struct.pack("<I", state.n))
        for start in range(0, state.n, rows):
            fh.write(np.take(values, cells[start:start + rows]))


def load_consensus_binary(path: str | Path) -> np.ndarray:
    """S, in float64, from ``save_consensus_binary``'s file; ValueError, naming it, for any other."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a consensus binary (bad magic)")
    if len(raw) < 8:
        raise ValueError(f"{path}: truncated header ({len(raw)} bytes; magic and N take 8)")
    (n,) = struct.unpack_from("<I", raw, 4)
    if len(raw) - 8 != 4 * n * n:
        raise ValueError(f"{path}: expected {n * n} f32 values for N={n}, found {len(raw) - 8} bytes")
    return np.frombuffer(raw, dtype="<f4", offset=8).reshape(n, n).astype(float)
