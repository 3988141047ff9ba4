"""Agglomerative clustering: Ward linkage matrices and their cuts.

A tree over n leaves is scipy's (n-1)x4 float64 linkage matrix ``z``:
row i merges nodes ``z[i, 0]`` and ``z[i, 1]`` at height ``z[i, 2]`` into
node n + i of size ``z[i, 3]``; leaves are 0..n-1.

The linkage operates on dissimilarities as given (the R ``ward.D``
convention: inputs are not squared first) via the Lance-Williams
recurrence

    d(u, k) = ((n_i + n_k) d(i, k) + (n_j + n_k) d(j, k) - n_k d(i, j))
              / (n_i + n_j + n_k)

scipy's ``"ward"`` method applies the same recurrence to squared inputs,
so running it on ``sqrt(d)`` and squaring the heights back gives ward.D
with scipy's O(n^2) nearest-neighbor chain in C.

Ties are common (a consensus matrix is mostly ties), so the merge order
is that of scipy's ``nn_chain``:

- a chain starts at the lowest active slot;
- a tie for the nearest neighbor goes to the chain predecessor, then to
  the lowest slot;
- merging slots x < y keeps the merged cluster in slot y and retires x;
- merges are stably sorted by height, then renumbered so that merge i
  creates node n + i;
- a minipatch's slots are its observations in ascending index (every draw
  is sorted and the gather keeps its order), so its ties go by that index.

Ties are judged on scipy's floating-point values, which live on the
square-root scale, so values that are equal in exact arithmetic can
differ in the last bit: on 6 points at equal distance one of the five
merge heights comes out 1.1e-16 below the others and sorts first.
"""

from __future__ import annotations

import numpy as np
from scipy.cluster.hierarchy import linkage

__all__ = ["ward_linkage", "cut_quantile", "cut_k"]


def ward_linkage(d: np.ndarray) -> np.ndarray:
    """Full ward.D agglomeration of condensed dissimilarities, as ``pairwise``
    and ``dissimilarity_of`` return them: the linkage matrix, whose heights
    are ward.D's (scipy's, squared).

    ``d`` is overwritten with the square roots scipy reads: pass a buffer
    that is not read again. scipy's ``linkage`` raises ValueError on a
    length that is not n(n-1)/2 and on NaN or infinite values.
    """
    z = linkage(np.sqrt(d, out=d), "ward")
    z[:, 2] **= 2
    return z


def _labels_after(z: np.ndarray, r: int) -> np.ndarray:
    """Leaf labels once the first ``r`` merges are done, in first-leaf order."""
    n = z.shape[0] + 1
    parent = np.arange(2 * n - 1)
    kids = z[:r, :2].astype(np.intp)
    parent[kids[:, 0]] = parent[kids[:, 1]] = n + np.arange(r)
    while True:  # pointer doubling: every node ends pointing at its root
        grand = parent[parent]
        if np.array_equal(grand, parent):
            break
        parent = grand
    _, first, inverse = np.unique(parent[:n], return_index=True, return_inverse=True)
    rank = np.empty(first.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def cut_quantile(z: np.ndarray, h: float) -> np.ndarray:
    """Cut at the type-7 ``h`` quantile of merge heights.

    The first r merges are performed, r = #(heights <= threshold) (ties
    merge); remaining connected components are the clusters.  On a tree
    with non-decreasing heights, as ``ward_linkage`` returns, these are
    exactly the merges at or below the threshold.
    """
    heights = z[:, 2]
    tau = float(np.quantile(heights, h))  # numpy default == type 7
    return _labels_after(z, int(np.count_nonzero(heights <= tau)))


def cut_k(z: np.ndarray, k: int) -> np.ndarray:
    """Exactly k clusters: perform the first n-k merges in merge order."""
    n = z.shape[0] + 1
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    return _labels_after(z, n - k)
