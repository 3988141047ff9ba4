"""Seeded subsampling: uniform draws, weighted draws, and the EE+Prob scheme.

The exploration/exploitation-plus-probabilistic scheme runs in two
stages.  During burn-in (E epochs), the index set is reshuffled once per
epoch and partitioned into ceil(total/draw) blocks so every index is
visited E times (an epoch's last block is padded by wrap-around, so the
padded indices get one more visit).  Afterwards, a high-weight set is
exploited with weighted draws (a growing fraction gamma of it) while the
remainder of the minipatch explores the complement uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtrc

__all__ = [
    "SamplerState",
    "EEConfig",
    "draw_uniform",
    "update_obs_weights",
    "score_features",
    "update_feature_weights",
    "ee_prob_next",
]


def draw_uniform(count_total: int, count_draw: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample without replacement via partial Fisher-Yates.

    Stream contract: the draw consumes exactly one ``rng.random(count_draw)``
    call, and the sorted sample is a function of those values alone.  Step
    i swaps slot i with slot i + floor(u_i * (count_total - i)); the swaps
    run on Python ints, and only the slots touched so far are stored.
    """
    if not 0 < count_draw <= count_total:
        raise ValueError(f"cannot draw {count_draw} of {count_total}")
    spans = count_total - np.arange(count_draw)
    offsets = np.floor(rng.random(count_draw) * spans).astype(np.intp)
    moved: dict[int, int] = {}  # slot -> index now held there, where not its own
    drawn = []
    for i, offset in enumerate(offsets.tolist()):
        j = i + offset
        drawn.append(moved.get(j, j))
        moved[j] = moved.get(i, i)
    return np.sort(np.array(drawn, dtype=np.int_))


def draw_weighted(weights: np.ndarray, count_draw: int, rng: np.random.Generator) -> np.ndarray:
    """Weighted sample without replacement (exponential-keys method).

    Each index gets key -ln(U_i)/w_i and the ``count_draw`` smallest keys
    win; the draw law is invariant to rescaling the weights.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("weights must be a nonempty vector")
    if w.min() < 0 or w.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive total")
    positive = w > 0
    if count_draw > int(positive.sum()):
        raise ValueError(f"cannot draw {count_draw}: only {positive.sum()} nonzero weights")
    u = 1.0 - rng.random(w.size)  # in (0, 1]: keeps keys finite
    keys = np.full(w.size, np.inf)
    keys[positive] = -np.log(u[positive]) / w[positive]
    sel = np.argpartition(keys, count_draw - 1)[:count_draw]
    return np.sort(sel)


@dataclass
class SamplerState:
    """Weights and bookkeeping for one sampling axis."""

    axis: str  # "observations" or "features"
    weights: np.ndarray
    sample_counts: np.ndarray
    support_hits: np.ndarray | None = None  # features axis only
    epoch_blocks: list[np.ndarray] | None = None
    last_high_size: int = 0

    @classmethod
    def uniform(cls, total: int, axis: str) -> "SamplerState":
        if axis not in ("observations", "features"):
            raise ValueError(f"unknown axis {axis!r}")
        return cls(
            axis=axis,
            weights=np.full(total, 1.0 / total),
            sample_counts=np.zeros(total, dtype=np.int64),
            support_hits=np.zeros(total, dtype=np.int64) if axis == "features" else None,
        )

    def record(self, indices: np.ndarray) -> None:
        self.sample_counts[np.asarray(indices, dtype=np.intp)] += 1

    def importance(self) -> np.ndarray:
        """Raw support frequency: hits / max(1, samplings).  In [0, 1]."""
        if self.support_hits is None:
            raise ValueError("importance is defined for the features axis only")
        return self.support_hits / np.maximum(1, self.sample_counts)


@dataclass(frozen=True)
class EEConfig:
    """Knobs of the EE+Prob scheme for one axis."""

    frac: float
    epochs: int = 2
    threshold: str = "quantile"  # or "mean_plus_sd"
    threshold_param: float = 0.95  # theta for quantile, tau for mean_plus_sd
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.frac <= 1:
            raise ValueError("frac must be in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.threshold not in ("quantile", "mean_plus_sd"):
            raise ValueError(f"unknown threshold rule {self.threshold!r}")
        if not 0 <= self.alpha <= 1:
            raise ValueError("alpha must be in [0, 1]")

    def draw_count(self, total: int) -> int:
        return max(1, math.ceil(self.frac * total))

    def q_blocks(self, total: int) -> int:
        return math.ceil(total / self.draw_count(total))

    def burn_in(self, total: int) -> int:
        return self.epochs * self.q_blocks(total)

    def gamma_at(self, t: int, total: int) -> float:
        """Exploitation fraction in [0.5, 1], nondecreasing in t."""
        # linear ramp from 0.5 at the first adaptive iteration to 1.0
        # over the following burn_in-many iterations
        start = self.burn_in(total) + 1
        span = max(1, self.burn_in(total))
        return min(1.0, 0.5 + 0.5 * (t - start) / span)


def update_obs_weights(
    state: SamplerState, conf: np.ndarray, t: int, alpha_i: float
) -> SamplerState:
    """Blend observation weights toward count-adjusted confusion.

    ``conf`` is the confusion vector (1/N) sum_j S_ij (1 - S_ij) of the
    current consensus S; ``run()`` passes the consensus state's
    ``confusion_rows``, which ``update`` maintains, divided by N.
    u_i = conf_i * (t-1)/max(1, samplings_i); weights move by
    w <- alpha w + (1-alpha) u/sum(u).  A zero uncertainty vector leaves
    the weights untouched.
    """
    if t < 2:
        raise ValueError("observation weights update needs t >= 2")
    conf = np.asarray(conf, dtype=float)
    if conf.shape != state.weights.shape:
        raise ValueError(
            f"confusion must be a vector of length {state.weights.size}, "
            f"got shape {conf.shape}"
        )
    if not np.isfinite(conf).all():
        raise ValueError("confusion must be finite")
    u = conf * (t - 1) / np.maximum(1, state.sample_counts)
    total = u.sum()
    if total > 0:
        w = alpha_i * state.weights + (1.0 - alpha_i) * u / total
        state.weights = w / w.sum()  # guard fp drift; analytically already 1
    return state


def score_features(
    view: np.ndarray, labels: np.ndarray, eta: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-way ANOVA of each column of ``view`` against the cluster labels.

    Returns (support, pvalues): support holds the column indices whose
    p-value falls below the type-7 ``eta`` percentile of all p-values in
    this view; when that admits nothing but some p < 1, the single best
    column is admitted.  Degenerate columns (zero total variance) get
    p = 1; zero within-group variance with signal gets p = 0.

    Each group sum adds that group's centred rows one at a time in row
    order, starting from the first: the rows are stably sorted by group and
    each group's block is accumulated along its rows.  ``.sum(axis=0)`` on
    a block would not give these bits: for a single column numpy reduces
    along the contiguous axis with pairwise summation, which adds in
    another order.
    """
    x = np.asarray(view, dtype=float)
    if x.ndim != 2:
        raise ValueError("view must be 2-D")
    lab = np.asarray(labels)
    if lab.size != x.shape[0]:
        raise ValueError("labels must match the view rows")
    _, inv = np.unique(lab, return_inverse=True)
    k = int(inv.max()) + 1
    n = x.shape[0]
    if k < 2:
        raise ValueError("ANOVA needs at least two clusters on the minipatch")
    if n - k < 1:
        raise ValueError("ANOVA needs within-group degrees of freedom >= 1")

    xc = x - x.mean(axis=0)
    sizes = np.bincount(inv, minlength=k)
    rows = xc[np.argsort(inv, kind="stable")]
    ends = np.cumsum(sizes)
    for lo, hi in zip((ends - sizes).tolist(), ends.tolist()):
        block = rows[lo:hi]
        np.add.accumulate(block, axis=0, out=block)
    group_sums = rows[ends - 1]
    ssb = ((group_sums**2) / sizes[:, None]).sum(axis=0)
    sst = (xc**2).sum(axis=0)
    ssw = np.maximum(sst - ssb, 0.0)

    scale = np.maximum(1.0, (x**2).sum(axis=0))
    constant = sst <= 1e-20 * scale
    perfect = ~constant & (ssw <= 1e-12 * sst)

    p = np.ones(x.shape[1])
    regular = ~constant & ~perfect
    if regular.any():
        f_stat = (ssb[regular] / (k - 1)) / (ssw[regular] / (n - k))
        p[regular] = fdtrc(k - 1, n - k, f_stat)  # F survival via incomplete beta
    p[perfect] = 0.0

    cutoff = float(np.quantile(p, eta))
    support = np.flatnonzero(p < cutoff)
    if support.size == 0:
        best = int(np.argmin(p))
        if p[best] < 1.0:
            support = np.array([best])
    return support, p


def update_feature_weights(
    state: SamplerState, support: np.ndarray, sampled: np.ndarray, alpha_f: float
) -> SamplerState:
    """Fold one minipatch's feature support into hits, importance, and weights."""
    if state.support_hits is None:
        raise ValueError("feature weights update needs a features-axis state")
    support = np.asarray(support, dtype=np.intp)
    if support.size and not np.isin(support, np.asarray(sampled)).all():
        raise ValueError("support must be a subset of the sampled features")
    state.support_hits[support] += 1
    imp = state.importance()
    w = alpha_f * state.weights + (1.0 - alpha_f) * imp
    total = w.sum()
    if total > 0:
        state.weights = w / total  # renormalized for sampling; raw imp reported
    return state


def _high_set(weights: np.ndarray, config: EEConfig) -> np.ndarray:
    if config.threshold == "quantile":
        cut = float(np.quantile(weights, config.threshold_param))
    else:
        cut = float(weights.mean() + config.threshold_param * weights.std())
    return np.flatnonzero(weights > cut)


def ee_prob_next(
    config: EEConfig, state: SamplerState, t: int, rng: np.random.Generator
) -> np.ndarray:
    """Next minipatch index set for iteration t (1-based) on one axis."""
    total = state.weights.size
    draw = config.draw_count(total)
    if draw > total:
        raise ValueError(f"cannot draw {draw} of {total}")
    q = config.q_blocks(total)

    if t <= config.epochs * q:
        pos = (t - 1) % q
        if pos == 0 or state.epoch_blocks is None:
            perm = rng.permutation(total)
            blocks = [perm[i * draw : (i + 1) * draw] for i in range(q)]
            if blocks[-1].size < draw:  # pad by wrap-around for full coverage
                blocks[-1] = np.concatenate([blocks[-1], perm[: draw - blocks[-1].size]])
            state.epoch_blocks = blocks
        state.last_high_size = 0
        return np.sort(state.epoch_blocks[pos])

    high = _high_set(state.weights, config)
    state.last_high_size = int(high.size)
    if high.size == 0:
        return draw_uniform(total, draw, rng)

    gamma = config.gamma_at(t, total)
    exploit_n = min(draw, int(math.floor(gamma * high.size + 0.5)))  # half rounds up
    exploit = (
        high[draw_weighted(state.weights[high], exploit_n, rng)]
        if exploit_n > 0
        else np.empty(0, dtype=int)
    )
    chosen = [exploit]
    explore_n = draw - exploit_n
    if explore_n > 0:
        mask = np.ones(total, dtype=bool)
        mask[high] = False
        pool = np.flatnonzero(mask)
        take = min(explore_n, pool.size)
        if take > 0:
            chosen.append(pool[draw_uniform(pool.size, take, rng)])
        shortfall = explore_n - take
        if shortfall > 0:
            # high set nearly covers everything: fill from its unchosen part
            rest = np.setdiff1d(high, exploit)
            chosen.append(rest[draw_uniform(rest.size, shortfall, rng)])
    return np.sort(np.concatenate(chosen))
