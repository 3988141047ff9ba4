"""Distance kernels and the feature-subsampling deviation checker."""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import pdist

from .dataio import DataMatrix
from .sampling import _stream

__all__ = [
    "METRICS",
    "pairwise",
    "hoeffding_bound",
    "deviation_experiment",
]

METRICS = ("manhattan", "sq_euclidean")
_SCIPY_NAMES = {"manhattan": "cityblock", "sq_euclidean": "sqeuclidean"}


def pairwise(
    values: np.ndarray,
    metric: str = "manhattan",
    *,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Condensed pairwise distances over the rows of a matrix view.

    manhattan sums |x_ij - x_i'j|; sq_euclidean sums squared differences.
    The result is ``pdist``'s float64 array, row-major upper triangle,
    length n(n-1)/2; it is ``out`` itself when one is given.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    x = np.asarray(values, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2 or x.shape[1] < 1:
        raise ValueError("need a 2-D view with >= 2 rows and >= 1 column")
    return pdist(x, _SCIPY_NAMES[metric], out=out)


def hoeffding_bound(m_feat: int, m_total: int, eps: float) -> float:
    """Worst-case probability that a size-m feature-mean distance deviates by eps.

    Returns min(1, 2 exp(-2 m eps^2 / (1 - (m-1)/M))) for a subsample of
    m features out of M, applicable when per-feature contributions lie in
    [0, 1].
    """
    if not 1 <= m_feat <= m_total:
        raise ValueError(f"need 1 <= m_feat <= m_total, got {m_feat}/{m_total}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    denom = 1.0 - (m_feat - 1) / m_total  # == (M - m + 1)/M, always positive
    return min(1.0, 2.0 * math.exp(-2.0 * m_feat * eps * eps / denom))


def deviation_experiment(
    m: DataMatrix,
    metric: str,
    m_feat: int,
    trials: int,
    eps_grid: list[float],
    seed: int,
) -> list[tuple[float, float, float]]:
    """Empirical exceedance of |d_hat - d_star| for one random row pair.

    The pair's rows are min-max rescaled by the whole matrix's range, so
    each per-feature contribution (and hence the deviation) lies in
    [0, 1], the regime where hoeffding_bound applies; no other row is
    copied.  d_star is the full-feature mean contribution and d_hat the
    mean over a uniform subsample of ``m_feat`` features, redrawn
    ``trials`` times.

    Returns rows of (eps, empirical exceedance, bound).
    """
    if trials < 100:
        raise ValueError(f"trials must be at least 100 for a meaningful estimate, got {trials}")
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; choose from {METRICS}")
    lo, hi = float(m.values.min()), float(m.values.max())
    if hi == lo:
        raise ValueError("constant matrix has zero range; cannot rescale")
    n, m_total = m.values.shape
    if not 1 <= m_feat <= m_total:
        raise ValueError(f"need 1 <= m_feat <= M={m_total}, got {m_feat}")
    if not eps_grid:
        raise ValueError("eps_grid must be nonempty")
    bounds = [hoeffding_bound(m_feat, m_total, eps) for eps in eps_grid]  # checks each eps before the draws

    rng = _stream(seed, 0)
    i, j = rng.choice(n, size=2, replace=False)
    diff = np.abs((m.values[i] - lo) / (hi - lo) - (m.values[j] - lo) / (hi - lo))
    contrib = diff if metric == "manhattan" else diff**2
    d_star = contrib.mean()

    # uniform m-subsets per trial: first m slots of a random permutation
    keys = rng.random((trials, m_total))
    idx = np.argpartition(keys, m_feat - 1, axis=1)[:, :m_feat]
    d_hat = contrib[idx].mean(axis=1)
    dev = np.abs(d_hat - d_star)

    return [(float(eps), float(np.mean(dev >= eps)), bound) for eps, bound in zip(eps_grid, bounds)]
