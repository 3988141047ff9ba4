"""Clustering and feature-selection evaluation."""

from __future__ import annotations

import numpy as np

__all__ = ["ari", "f1_features", "select_by_score"]


def ari(a: np.ndarray, b: np.ndarray) -> float:
    """Adjusted Rand index between two partitions (label values arbitrary).

    Computed from the contingency table with the hypergeometric chance
    correction.  When the correction denominator vanishes (both
    partitions trivial in the same way, e.g. both single-cluster) the
    partitions agree and 1.0 is returned.
    """
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.size != b.size:
        raise ValueError(f"partition lengths differ: {a.size} vs {b.size}")
    n = a.size
    if n < 2:
        raise ValueError("need at least 2 observations")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    na, nb = ai.max() + 1, bi.max() + 1
    table = np.bincount(ai * nb + bi, minlength=na * nb).reshape(na, nb)

    def comb2(x: np.ndarray) -> np.ndarray:
        return x * (x - 1) / 2.0

    index = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    expected = sum_a * sum_b / comb2(np.array(n))
    max_index = (sum_a + sum_b) / 2.0
    denom = max_index - expected
    if denom == 0:
        return 1.0
    return float((index - expected) / denom)


def f1_features(selected: np.ndarray, truth: np.ndarray) -> float:
    """F1 of a boolean feature-selection mask against the true signal mask."""
    sel = np.asarray(selected, dtype=bool).ravel()
    tru = np.asarray(truth, dtype=bool).ravel()
    if sel.size != tru.size:
        raise ValueError(f"mask lengths differ: {sel.size} vs {tru.size}")
    if not tru.any():
        raise ValueError("truth mask has no positives")
    n_sel = int(sel.sum())
    if n_sel == 0:
        return 0.0
    tp = int((sel & tru).sum())
    precision = tp / n_sel
    recall = tp / int(tru.sum())
    if tp == 0:
        return 0.0
    return float(2 * precision * recall / (precision + recall))


def select_by_score(scores: np.ndarray, top_k: int | None = None) -> np.ndarray:
    """Mark features whose score exceeds mean + 1 population sd.

    ``top_k`` switches to taking the k highest scores instead (ties kept
    in ascending index order).
    """
    s = np.asarray(scores, dtype=float).ravel()
    if s.size == 0:
        raise ValueError("scores must be nonempty")
    if top_k is not None:
        if not 0 < top_k <= s.size:
            raise ValueError(f"top_k must be in 1..{s.size}, got {top_k}")
        order = np.argsort(-s, kind="stable")
        mask = np.zeros(s.size, dtype=bool)
        mask[order[:top_k]] = True
        return mask
    return s > s.mean() + s.std()  # population sd
