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

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import DataMatrix
from .sampling import _stream

__all__ = ["SynthSpec", "SynthData", "generate", "REGIMES"]

REGIMES = ("sparse", "weak_sparse", "no_sparse")

_BLOCK = 5
# cluster-size fractions 20/80/120/280 at N=500
_SIZE_FRACTIONS = (0.04, 0.16, 0.24, 0.56)

# substream roles under the dataset seed
_ROLE_ROW = 0
_ROLE_MEANS = 1
_ROLE_SHUFFLE = 2


def _default_sizes(n_obs: int) -> tuple[int, ...]:
    raw = [int(round(f * n_obs)) for f in _SIZE_FRACTIONS[:-1]]
    return tuple(raw + [n_obs - sum(raw)])


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of one synthetic dataset, checked when built."""

    snr: float
    n_obs: int = 500
    n_features: int | None = None  # None: 5000, or 100 in the low-dimensional no_sparse regime
    cluster_sizes: tuple[int, ...] | None = None
    n_signal: int = 25
    rho: float = 0.5
    regime: str = "sparse"
    seed: int = 0

    def sizes(self) -> tuple[int, ...]:
        """Resolved cluster sizes (defaults follow the 4/16/24/56% split)."""
        if self.cluster_sizes is not None:
            return tuple(int(s) for s in self.cluster_sizes)
        return _default_sizes(self.n_obs)

    def __post_init__(self) -> None:
        if self.n_features is None:
            object.__setattr__(self, "n_features", 100 if self.regime == "no_sparse" else 5000)
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}; choose from {REGIMES}")
        if self.n_obs < 2:
            raise ValueError(f"n_obs must be >= 2, got {self.n_obs}")
        sizes = self.sizes()
        if self.cluster_sizes is None and min(sizes) <= 0:
            least = next(n for n in itertools.count(self.n_obs) if min(_default_sizes(n)) > 0)
            raise ValueError(f"n_obs must be >= {least} for the default 4/16/24/56% cluster split, "
                             f"got {self.n_obs}")
        if len(sizes) != 4 or any(s <= 0 for s in sizes):
            raise ValueError(f"cluster_sizes {sizes} must be 4 positive counts, one per mean pattern")
        if sum(sizes) != self.n_obs:
            raise ValueError(f"cluster sizes {sizes} must sum to n_obs={self.n_obs}")
        if self.n_features < _BLOCK or self.n_features % _BLOCK != 0:
            raise ValueError(f"n_features must be a positive multiple of {_BLOCK}, got {self.n_features}")
        if not 0 < self.n_signal <= self.n_features:
            raise ValueError(f"n_signal must be in 1..{self.n_features}, got {self.n_signal}")
        if not 0 <= self.snr < math.inf:
            raise ValueError(f"snr must be a finite number >= 0, got {self.snr}")
        if not 0 <= self.rho < 1:
            raise ValueError(f"rho must be in [0, 1), got {self.rho}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SynthData:
    """Generated matrix plus ground truth."""

    matrix: DataMatrix
    labels: np.ndarray  # cluster ids in 1..K
    signal_mask: np.ndarray  # bool, length M


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
    m = spec.n_features
    rng = _stream(spec.seed, _ROLE_MEANS, 0)
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

    Sigma is block diagonal with unit variance and off-diagonal ``rho`` inside each block of
    5 consecutive features.  Rows are drawn from per-row substreams of the seed (parallelizable
    without changing the output) and the observation order is shuffled at the end, labels
    traveling with their rows.  Each noise value adds its block's five Cholesky products left
    to right, with no BLAS call, so its bits do not depend on the kernel the CPU selects.
    """
    n, m = spec.n_obs, spec.n_features
    sizes = spec.sizes()
    means = cluster_means(spec)

    # per-block Cholesky of the 5x5 equicorrelated block
    block = spec.rho * np.ones((_BLOCK, _BLOCK)) + (1 - spec.rho) * np.eye(_BLOCK)
    chol = np.linalg.cholesky(block)

    labels = np.repeat(np.arange(1, 5), sizes)
    values = np.empty((n, m))
    for i in range(n):
        z = _stream(spec.seed, _ROLE_ROW, i).standard_normal(m)
        noise = np.add.accumulate(z.reshape(-1, 1, _BLOCK) * chol, axis=2)[..., -1].ravel()
        values[i] = means[labels[i] - 1] + noise

    perm = _stream(spec.seed, _ROLE_SHUFFLE, 0).permutation(n)
    values = values[perm]
    labels = labels[perm]
    row_ids = tuple(f"obs_{j:05d}" for j in perm)
    col_ids = tuple(f"feat_{j:05d}" for j in range(m))

    mask = np.ones(m, dtype=bool)
    if spec.regime != "no_sparse":
        mask[:] = False
        mask[: spec.n_signal] = True

    return SynthData(DataMatrix(values, row_ids, col_ids), labels, mask)

