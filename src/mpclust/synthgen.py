"""Gaussian-mixture benchmark generators with block-correlated noise.

Three regimes are supported:

* ``sparse``       -- a few signal features with fixed sign-pattern means,
                      all noise features centered at zero.
* ``weak_sparse``  -- like ``sparse`` but noise-feature means are drawn
                      once per dataset from a standard normal.
* ``no_sparse``    -- low-dimensional, every feature informative, cluster
                      means jittered around half/half sign patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import DataMatrix

__all__ = ["SynthSpec", "SynthData", "generate", "REGIMES"]

REGIMES = ("sparse", "weak_sparse", "no_sparse")

_BLOCK = 5
# cluster-size fractions 20/80/120/280 at N=500
_SIZE_FRACTIONS = (0.04, 0.16, 0.24, 0.56)

# substream roles under the dataset seed
_ROLE_ROW = 0
_ROLE_MEANS = 1
_ROLE_SHUFFLE = 2


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic dataset."""

    snr: float
    n_obs: int = 500
    n_features: int | None = None  # None: 5000, or 100 in the low-dimensional no_sparse regime
    n_clusters: int = 4
    cluster_sizes: tuple[int, ...] | None = None
    n_signal: int = 25
    rho: float = 0.5
    regime: str = "sparse"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_features is None:
            object.__setattr__(self, "n_features", 100 if self.regime == "no_sparse" else 5000)

    def sizes(self) -> tuple[int, ...]:
        """Resolved cluster sizes (defaults follow the 4/16/24/56% split)."""
        if self.cluster_sizes is not None:
            return tuple(int(s) for s in self.cluster_sizes)
        if self.n_clusters == 4:
            raw = [int(round(f * self.n_obs)) for f in _SIZE_FRACTIONS[:-1]]
            return tuple(raw + [self.n_obs - sum(raw)])
        base = self.n_obs // self.n_clusters
        out = [base] * self.n_clusters
        out[-1] += self.n_obs - base * self.n_clusters
        return tuple(out)

    def validate(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; choose from {REGIMES}")
        if self.n_obs < 2:
            raise ValueError("need at least 2 observations")
        if self.n_clusters != 4:
            raise ValueError("mean patterns are defined for exactly 4 clusters")
        sizes = self.sizes()
        if len(sizes) != self.n_clusters or any(s <= 0 for s in sizes):
            raise ValueError(f"cluster_sizes {sizes} must be {self.n_clusters} positive counts")
        if sum(sizes) != self.n_obs:
            raise ValueError(f"cluster sizes {sizes} must sum to n_obs={self.n_obs}")
        if self.n_features % _BLOCK != 0:
            raise ValueError(f"n_features must be a multiple of {_BLOCK}")
        if not 0 < self.n_signal <= self.n_features:
            raise ValueError("n_signal must be in 1..n_features")
        if self.snr < 0:
            raise ValueError("snr must be nonnegative")
        if not 0 <= self.rho < 1:
            raise ValueError("rho must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass(frozen=True)
class SynthData:
    """Generated matrix plus ground truth."""

    matrix: DataMatrix
    labels: np.ndarray  # cluster ids in 1..K
    signal_mask: np.ndarray  # bool, length M


def _rng(seed: int, role: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(role, index)))


def _sign_patterns(amp: float, width: int) -> np.ndarray:
    """Four sign-pattern mean rows of the given width and amplitude."""
    hi = math.ceil(width / 2)
    p = np.empty((4, width))
    p[0] = amp
    p[1, :hi], p[1, hi:] = amp, -amp
    p[2, :hi], p[2, hi:] = -amp, amp
    p[3] = -amp
    return p


def cluster_means(spec: SynthSpec) -> np.ndarray:
    """The (K, M) matrix of cluster means the generator draws around.

    Deterministic given ``spec``; regimes with stochastic mean components
    (weak_sparse noise means, no_sparse jitter) use a dedicated substream
    of the dataset seed.
    """
    spec.validate()
    m = spec.n_features
    rng = _rng(spec.seed, _ROLE_MEANS, 0)
    if spec.regime == "no_sparse":
        # every feature informative; jitter each coordinate around the pattern
        base = _sign_patterns(spec.snr / math.sqrt(m), m)
        return base + math.sqrt(0.1) * rng.standard_normal((4, m))
    ns = spec.n_signal
    means = np.zeros((4, m))
    # amplitude snr/sqrt(n_signal) makes every cluster-mean L2 norm equal snr
    means[:, :ns] = _sign_patterns(spec.snr / math.sqrt(ns), ns)
    if spec.regime == "weak_sparse":
        means[:, ns:] += rng.standard_normal(m - ns)[None, :]
    return means


def generate(spec: SynthSpec) -> SynthData:
    """Draw one dataset: rows N(mu_k, Sigma) with 5x5 equicorrelated noise blocks.

    Sigma is block diagonal with unit variance and off-diagonal ``rho``
    inside each block of 5 consecutive features.  Rows are drawn from
    per-row substreams of the seed (parallelizable without changing the
    output) and the observation order is shuffled at the end, labels
    traveling with their rows.
    """
    spec.validate()
    n, m = spec.n_obs, spec.n_features
    sizes = spec.sizes()
    means = cluster_means(spec)

    # per-block Cholesky of the 5x5 equicorrelated block
    block = spec.rho * np.ones((_BLOCK, _BLOCK)) + (1 - spec.rho) * np.eye(_BLOCK)
    chol = np.linalg.cholesky(block)

    labels = np.repeat(np.arange(1, 5), sizes)
    values = np.empty((n, m))
    for i in range(n):
        z = _rng(spec.seed, _ROLE_ROW, i).standard_normal(m)
        noise = (z.reshape(-1, _BLOCK) @ chol.T).ravel()
        values[i] = means[labels[i] - 1] + noise

    perm = _rng(spec.seed, _ROLE_SHUFFLE, 0).permutation(n)
    values = values[perm]
    labels = labels[perm]
    row_ids = tuple(f"obs_{j:05d}" for j in perm)
    col_ids = tuple(f"feat_{j:05d}" for j in range(m))

    mask = np.ones(m, dtype=bool)
    if spec.regime != "no_sparse":
        mask[:] = False
        mask[: spec.n_signal] = True

    return SynthData(DataMatrix(values, row_ids, col_ids), labels, mask)

