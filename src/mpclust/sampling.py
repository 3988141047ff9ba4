"""Seeded subsampling: uniform draws, weighted draws, and the EE+Prob scheme.

The exploration/exploitation-plus-probabilistic scheme runs in two
stages.  Burn-in is E epochs of ceil(total/draw) iterations: each epoch
reshuffles the index set once and cuts it into that many blocks of
``draw``, so every index is visited E times (the last block wraps to the
epoch's start, whose indices get one more visit).  Afterwards, a
high-weight set is exploited with weighted draws (a growing fraction gamma
of it) while the remainder of the minipatch explores the complement
uniformly.

Each axis is one ``SamplerState``: its weights, patch size, schedule,
high-set rule and burn-in bookkeeping, checked once when built.  The rules
that move the weights are functions of the weight vector, which return the
new one.  Observations follow count-adjusted confusion
(``update_obs_weights``), features their ``importance``, ANOVA support hits
over draws (``update_feature_weights``).  The caller keeps the counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtrc

__all__ = [
    "SamplerState",
    "draw_uniform",
    "update_obs_weights",
    "score_features",
    "importance",
    "update_feature_weights",
    "ee_prob_next",
]


def _stream(seed: int, *key: int) -> np.random.Generator:
    """The one rule from a seed to a generator, ``SeedSequence(seed, spawn_key=key)``.  Keys:
    ``()`` hoeffding-check's uniform matrix (``default_rng(seed)``'s bits), ``(0,)`` its
    ``deviation_experiment``; ``pipeline``'s (0, t) and (1, t) for iteration t's observation and
    feature draws, (2, 1) the spectral k-means; ``synthgen``'s (0, i) row i's noise, (1, 0) the
    means, (2, 0) the shuffle.  A run seeded like its data draws patch t < N from row t's state."""
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


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
    """One axis's EE+Prob sampler, alike for observations and features: its weights, patch
    size ``draw``, ``epochs`` burn-in epochs of ``q_blocks`` = ceil(total/draw) iterations,
    high-set rule and burn-in bookkeeping.  In burn-in, ``epoch_order`` is the epoch's
    permutation wrapped to ``q_blocks * draw``, its last block wrapping to its start.  The
    caller keeps the draw counts: ``ConsensusState.diag``, and ``run()``'s for features."""

    weights: np.ndarray
    draw: int
    epochs: int
    threshold: str  # "quantile" or "mean_plus_sd"
    threshold_param: float  # theta for quantile, tau for mean_plus_sd
    epoch_order: np.ndarray | None = None
    last_high_size: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.draw <= self.weights.size:
            raise ValueError(f"cannot draw {self.draw} of {self.weights.size}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.threshold not in ("quantile", "mean_plus_sd"):
            raise ValueError(f"unknown threshold rule {self.threshold!r}")

    @classmethod
    def uniform(
        cls, total: int, draw: int, epochs: int, threshold: str, threshold_param: float
    ) -> "SamplerState":
        return cls(np.full(total, 1.0 / total), draw, epochs, threshold, threshold_param)

    @property
    def q_blocks(self) -> int:
        return math.ceil(self.weights.size / self.draw)

    @property
    def burn_in(self) -> int:
        return self.epochs * self.q_blocks

    def gamma_at(self, t: int) -> float:
        """Exploitation fraction in [0.5, 1], nondecreasing in t."""
        # linear ramp from 0.5 at the first adaptive iteration to 1.0
        # over the following burn_in-many iterations (burn_in >= 1)
        return min(1.0, 0.5 + 0.5 * (t - self.burn_in - 1) / self.burn_in)


def update_obs_weights(
    weights: np.ndarray, conf: np.ndarray, counts: np.ndarray, t: int, alpha_i: float
) -> np.ndarray:
    """Observation weights blended toward count-adjusted confusion, as a new vector.

    ``conf`` is the confusion vector (1/N) sum_j S_ij (1 - S_ij) of the current
    consensus S, ``counts`` the times each observation was sampled: ``run()``
    passes the consensus state's ``confusion`` and ``diag``.
    u_i = conf_i * (t-1)/max(1, counts_i); weights move by
    w <- alpha w + (1-alpha) u/sum(u).  An uncertainty vector that sums to 0
    returns ``weights`` itself; the input is never written.
    """
    if t < 2:
        raise ValueError("observation weights update needs t >= 2")
    conf = np.asarray(conf, dtype=float)
    if conf.shape != weights.shape:
        raise ValueError(
            f"confusion must be a vector of length {weights.size}, "
            f"got shape {conf.shape}"
        )
    if not np.isfinite(conf).all():
        raise ValueError("confusion must be finite")
    u = conf * (t - 1) / np.maximum(1, counts)
    total = u.sum()
    if total > 0:
        w = alpha_i * weights + (1.0 - alpha_i) * u / total
        return w / w.sum()  # guard fp drift; analytically already 1
    return weights


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


def importance(hits: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Each feature's support frequency, hits / max(1, draws): in [0, 1], 0 where never drawn."""
    return hits / np.maximum(1, draws)


def update_feature_weights(weights: np.ndarray, scores: np.ndarray, alpha_f: float) -> np.ndarray:
    """Feature weights blended toward the ``importance`` scores and renormalised, as a new
    vector: w <- alpha w + (1-alpha) scores, divided by its sum; ``weights`` itself unless that
    is positive.  The input is never written."""
    w = alpha_f * weights + (1.0 - alpha_f) * scores
    total = w.sum()
    if total > 0:
        return w / total  # renormalized for sampling; raw scores reported
    return weights


def _high_set(state: SamplerState) -> np.ndarray:
    if state.threshold == "quantile":
        cut = float(np.quantile(state.weights, state.threshold_param))
    else:
        cut = float(state.weights.mean() + state.threshold_param * state.weights.std())
    return np.flatnonzero(state.weights > cut)


def ee_prob_next(state: SamplerState, t: int, rng: np.random.Generator) -> np.ndarray:
    """Next minipatch index set for iteration t (1-based) on one axis.  Burn-in, epochs *
    ceil(total/draw) iterations, cuts each epoch's permutation into blocks wrapped to its start."""
    total, draw = state.weights.size, state.draw

    if t <= state.burn_in:
        q = state.q_blocks
        pos = (t - 1) % q
        if pos == 0 or state.epoch_order is None:
            state.epoch_order = np.resize(rng.permutation(total), q * draw)
        state.last_high_size = 0
        return np.sort(state.epoch_order[pos * draw : (pos + 1) * draw])

    high = _high_set(state)
    state.last_high_size = int(high.size)
    if high.size == 0:
        return draw_uniform(total, draw, rng)

    gamma = state.gamma_at(t)
    # half rounds up, so gamma >= 0.5 exploits at least one index
    exploit_n = min(draw, int(math.floor(gamma * high.size + 0.5)))
    exploit = high[draw_weighted(state.weights[high], exploit_n, rng)]
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
