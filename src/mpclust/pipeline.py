"""Orchestration of the minipatch consensus loop and final clustering.

Three modes share one loop: ``mpcc`` samples observations and features
uniformly; ``mpacc`` samples observations adaptively (EE+Prob driven by
count-adjusted confusion); ``impacc`` additionally samples features
adaptively (EE+Prob driven by ANOVA support frequencies) and reports
per-feature importance scores.

Randomness is derived from one root seed through per-(phase, iteration)
substreams, so the draws of iteration t depend on the seed, t and the
sampler state alone, never on how many random numbers earlier
iterations or other phases consumed.
"""

from __future__ import annotations

import math
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.cluster.vq import ClusterError, kmeans2
from scipy.linalg import eigh
from scipy.spatial.distance import cdist

from . import dist
from .consensus import (
    STOP_PATIENCE,
    STOP_PERCENTILE,
    ConsensusState,
    PairScratch,
    consensus_of,
    dissimilarity_of,
    stop_gap,
    update,
)
from .dataio import DataMatrix
from .dist import METRICS, pairwise
from .hclust import cut_k, cut_quantile, ward_linkage
from .sampling import (
    SamplerState,
    _stream,
    draw_uniform,
    ee_prob_next,
    importance,
    score_features,
    update_feature_weights,
    update_obs_weights,
)

__all__ = [
    "MODES",
    "HyperParams",
    "IterationRecord",
    "RunResult",
    "TuneResult",
    "run",
    "finalize_hierarchical",
    "finalize_spectral",
    "tune_minipatch_size",
]

MODES = ("mpcc", "mpacc", "impacc")
FINAL_ALGOS = ("hierarchical", "spectral")

_PHASE_OBS = 0
_PHASE_FEAT = 1
_PHASE_FINAL = 2

_T_MAX_CAP = 5000

# mpcc computes the next patch's distances on a helper thread from a patch's pairs times its
# features of 3e6 (see _looks_ahead). Measured on a 2-vCPU Xeon as the median time of 160-patch
# loops with the helper over without it, in 7-9 alternating pairs at the default fractions:
# 0.54-0.75 from 4.8e6 (1250 x 1000 to 3000 x 500); at 3.1e6, 0.83 (2000 x 250) and 1.00-1.03
# (1000 x 1000); below, 1.04-1.07 from 5.6e5 to 1.6e6 and 1.13 at 1.2e4 (200 x 100), where the
# handoff, about 70-100 us a patch, hides less than it costs
_AHEAD_MIN_WORK = 3 * 10**6


@dataclass(frozen=True)
class HyperParams:
    """Run configuration, checked when built: one value fixes a run; defaults are the recommended universal values.

    Each field but ``early_stop`` is also the CLI's flag --NAME, variable MPCLUST_NAME
    and config key NAME, which take its type, default, None-policy, choices and help.
    """

    m_frac: float = field(default=0.1, metadata={"help": "minipatch feature fraction"})
    n_frac: float = field(default=0.25, metadata={"help": "minipatch observation fraction"})
    h: float = field(default=0.95, metadata={"help": "tree-height cut quantile"})
    eta: float = field(default=0.05, metadata={"help": "p-value percentile cutoff"})
    alpha_f: float = field(default=0.5, metadata={"help": "feature learning rate"})
    tau: float = field(default=1.0, metadata={"help": "high-importance cutoff (mean + tau*sd)"})
    alpha_i: float = field(default=0.5, metadata={"help": "observation learning rate"})
    theta: float = field(default=0.95, metadata={"help": "high-uncertainty weight quantile"})
    epochs_e: int = field(default=2, metadata={"help": "burn-in epochs per axis"})
    # None: 20 * epochs * ceil(N/n) capped at 5000
    t_max: int | None = field(default=None, metadata={"help": "iteration cap (none: automatic)"})
    k: int | None = field(default=None, metadata={"help": "final cluster count (omit or none for quantile cut)"})
    final_algo: str = field(default="hierarchical", metadata={
        "help": "final clustering of the consensus", "choices": FINAL_ALGOS})
    seed: int = field(default=0, metadata={"help": "root seed of every random draw"})
    metric: str = field(default="manhattan", metadata={"help": "per-patch dissimilarity", "choices": METRICS})
    mode: str = field(default="mpcc", metadata={"help": "uniform (mpcc) or adaptive sampling", "choices": MODES})
    early_stop: bool = True  # False runs to t_max; the rule is consensus.stop_gap's

    def __post_init__(self) -> None:
        for f in fields(self):
            choices, value = f.metadata.get("choices"), getattr(self, f.name)
            if choices is not None and value not in choices:
                raise ValueError(f"{f.name} must be one of {choices}, got {value!r}")
        for name in ("m_frac", "n_frac", "h"):
            v = getattr(self, name)
            if not 0 < v <= 1:
                raise ValueError(f"{name} must be in (0.0, 1.0], got {v}")
        for name in ("eta", "alpha_f", "alpha_i", "theta"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not 0 <= self.tau < math.inf:
            raise ValueError(f"tau must be a finite number >= 0, got {self.tau}")
        if self.epochs_e < 1:
            raise ValueError(f"epochs_e must be >= 1, got {self.epochs_e}")
        if self.t_max is not None and self.t_max < 1:
            raise ValueError(f"t_max must be >= 1 (no iterations possible), got {self.t_max}")
        if self.k is not None and self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    def n_count(self, n_obs: int) -> int:
        return math.ceil(self.n_frac * n_obs)

    def m_count(self, n_features: int) -> int:
        return math.ceil(self.m_frac * n_features)

    def resolve_t_max(self, n_obs: int) -> int:
        if self.t_max is not None:
            return self.t_max
        budget = 20 * self.epochs_e * math.ceil(n_obs / self.n_count(n_obs))
        return min(_T_MAX_CAP, budget)


@dataclass(frozen=True)
class IterationRecord:
    """One iteration's diagnostics, each field with a format a column of the CLI's trace.csv, and,
    with ``run(..., collect_arrays=True)``, its own copies of its patch I_t, its labels, and the
    observation weights and (impacc) feature scores after it; None otherwise. ``seconds`` is the
    calling thread's wall time for the iteration, its wait for the patch's distances included
    where a helper thread computes them (see ``run()``)."""

    iteration: int = field(metadata={"format": "%d"})
    n_clusters: int = field(metadata={"format": "%d"})
    confusion_pct: float = field(metadata={"format": "%.17g"})
    high_obs: int = field(metadata={"format": "%d"})
    high_feat: int = field(metadata={"format": "%d"})
    seconds: float = field(metadata={"format": "%.6f"})
    obs_idx: np.ndarray | None = None
    labels: np.ndarray | None = None
    obs_weights: np.ndarray | None = None
    feature_scores: np.ndarray | None = None


@dataclass
class RunResult:
    labels: np.ndarray
    consensus: ConsensusState  # the pair counters; consensus_of builds dense S from them
    feature_scores: np.ndarray | None
    obs_weights: np.ndarray
    stop_reason: str  # "early_stop" or "t_max"
    trace: list[IterationRecord]  # one record per iteration run

    @property
    def iterations_run(self) -> int:
        return len(self.trace)


# v2, then v1's memory controller: (mount, limit file, the /proc/self/cgroup line naming the cgroup)
_CGROUP_LIMITS = (("/sys/fs/cgroup", "memory.max", r"^0::(.*)"),
                  ("/sys/fs/cgroup/memory", "memory.limit_in_bytes", r"^\d+:(?:[^:]*,)?memory(?:,[^:]*)?:(.*)"))


def _read_text(path: str) -> str | None:
    """A small file's text, or None if it cannot be read."""
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return None


def _available_bytes() -> int | None:
    """Memory a run may use: the smaller of the host's and the cgroup's; None if unknown.

    The host's is MemAvailable from /proc/meminfo, else physical memory.
    The cgroup's is the smallest limit from the mount down to the process's own
    cgroup (a SLURM job's or a systemd scope's), named in /proc/self/cgroup: in
    v2's memory.max files (``max``: no limit) or, where none can be read, v1's.
    """
    host = re.search(r"^MemAvailable:\s+(\d+) kB", _read_text("/proc/meminfo") or "", re.M)
    try:
        known = [int(host[1]) * 1024 if host else os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")]
    except (OSError, ValueError, AttributeError):
        known = []
    own = _read_text("/proc/self/cgroup") or ""
    for mount, name, line in _CGROUP_LIMITS:
        found = re.search(line, own, re.M)
        dirs = [d for d in found[1].split("/") if d] if found else []  # not named: the mount's alone
        read = [_read_text("/".join([mount, *dirs[:i], name])) for i in range(len(dirs) + 1)]
        read = [limit.strip() for limit in read if limit is not None]
        if read:
            known += [int(limit) for limit in read if limit.isdigit()]  # not v2's "max"
            break
    return min(known, default=None)


def _peak_bytes(n: int, m: int, hp: HyperParams, final: bool = True) -> int:
    """Estimated peak of a run's N^2, N x k and patch^2 buffers on N=``n`` observations of ``m``
    features; with ``final`` False, of its loop alone.

    The counters (two per pair, ``ConsensusState.counter_dtype(t_max)``
    wide: 1 byte each up to 255 minipatches) live throughout. The loop's
    ``PairScratch``, with a second distance buffer where the loop looks
    ahead, is released before the final clustering. Ward holds
    the condensed 1 - S and scipy's working copy of it (16 bytes per
    pair). The spectral finaliser holds dense S and, while
    ``consensus_of`` builds it, the condensed S: 12 N^2 bytes. S is freed
    once ``eigh`` returns; the N x k embedding and the k-means
    temporaries then take about three N x k and three k x k float64
    arrays (measured with tracemalloc), more than 12 N^2 from k = 0.37 N.
    Without ``hp.k``, k is at most the quantile cut's N - ⌊h(N-2)⌋ - 1.
    """
    npair = n * (n - 1) // 2
    dtype = np.dtype(ConsensusState.counter_dtype(hp.resolve_t_max(n)))
    if hp.final_algo == "spectral":
        k = hp.k if hp.k is not None else n - math.floor(hp.h * (n - 2)) - 1
        last = max(12 * n * n, 24 * (n * k + k * k))
    else:
        last = 16 * npair
    scratch = PairScratch.nbytes(hp.n_count(n), dtype, _looks_ahead(hp, n, m))
    return 2 * dtype.itemsize * npair + max(scratch, last if final else 0)


def _check_run(data: DataMatrix, hp: HyperParams, final: bool = True) -> None:
    """ValueError, before any minipatch, for settings that cannot run on ``data`` (see ``run()``);
    ``hp``'s fractions in (0, 1] keep every patch within it. ``final``: count the final step's memory."""
    n, n_count = data.n_obs, hp.n_count(data.n_obs)
    if n_count < 3:
        raise ValueError(f"n_frac {hp.n_frac} gives minipatches of {n_count} observation(s) "
                         f"for N={n}, infeasible: need at least 3")
    one_pass, t_max = math.ceil(n / n_count), hp.resolve_t_max(n)
    if t_max < one_pass:
        raise ValueError(f"t_max {t_max} is below {one_pass}, the iterations that minipatches "
                         f"of {n_count} observation(s) take to sample each of N={n} once")
    if hp.k is not None and hp.k > n:
        raise ValueError(f"k {hp.k} exceeds the N={n} observations")
    peak, available = _peak_bytes(n, data.n_features, hp, final), _available_bytes()
    if available is not None and peak > available:
        raise ValueError(
            f"N={n} observations need about {peak / 1e6:,.1f} MB at the run's peak, "
            f"but {available / 1e6:,.1f} MB of memory are available"
        )


def run(data: DataMatrix, hp: HyperParams, collect_arrays: bool = False) -> RunResult:
    """Execute the consensus loop and final clustering.

    Each iteration draws a minipatch (``_draw``; mpcc's from the seed and
    t alone), labels it (Ward on the ``hp.metric`` distances of its
    values, ``_gather``'s, cut at the ``h`` quantile: from the data,
    ``hp`` and the patch alone) and folds it: scores its features
    (impacc), updates the consensus, checks the stop rule and appends its
    ``IterationRecord`` to ``RunResult.trace``. ``collect_arrays`` also
    keeps each iteration's patch and weights in its record. The
    observation weights and the stop percentile read the state's
    ``confusion``.

    In mpcc, where a patch's pairs times its features reach 3e6
    (``_looks_ahead``), one helper thread, joined before ``run()`` returns
    or raises, computes patch t + 1's distances into a second buffer while
    the calling thread labels and folds patch t; every output is the
    sequential loop's, bit for bit. Nothing sets it: the adaptive modes,
    whose draws read the state each update leaves, and smaller patches
    run on the calling thread alone.

    Raises ValueError before the first iteration for patches of fewer
    than 3 observations, t_max < ⌈N / n_count⌉, k > N or a peak above
    the memory available (``HyperParams`` checks its values when built),
    and RuntimeError after the loop if an observation was never sampled.
    """
    _check_run(data, hp)
    state, *rest = _loop(data, hp, collect_arrays)
    return RunResult(_final_labels(state, hp), state, *rest)


def _loop(data: DataMatrix, hp: HyperParams, collect_arrays: bool = False) -> tuple:
    """``run()`` without the final clustering, on settings ``_check_run`` passed: every
    ``RunResult`` field but ``labels``, in its order. It reads neither ``k`` nor ``final_algo``."""
    n, m = data.n_obs, data.n_features
    n_count, t_max = hp.n_count(n), hp.resolve_t_max(n)
    obs = SamplerState.uniform(n, n_count, hp.epochs_e, "quantile", hp.theta)
    feat = SamplerState.uniform(m, hp.m_count(m), hp.epochs_e, "mean_plus_sd", hp.tau)
    # the features' draws and (impacc) ANOVA support hits; the observations' draws are state.diag
    feat_draws, feat_hits = np.zeros(m, dtype=np.int64), np.zeros(m, dtype=np.int64)
    state = ConsensusState.empty(n, max_count=t_max)
    ahead = _looks_ahead(hp, n, m)
    scratch = PairScratch.empty(n_count, state.pair_seen.dtype, ahead)
    armed = [0.0]  # the rule's first reference value: no stop before STOP_PATIENCE armed iterations
    adaptive_obs, adaptive_feat = hp.mode in ("mpacc", "impacc"), hp.mode == "impacc"
    trace: list[IterationRecord] = []
    stop_reason = "t_max"

    with ThreadPoolExecutor(1) if ahead else nullcontext() as helper:  # joined on every exit

        def staged(t: int) -> tuple:
            """Patch t drawn and gathered, and a callable that returns its distances: the helper
            thread's, into the buffer that patch t - 1's are not in, when there is one; else
            computed when called."""
            obs_idx, feat_idx = _draw(t, hp, obs, feat, state)
            view = _gather(data.values, obs_idx, feat_idx)
            if helper is None:
                return obs_idx, feat_idx, view, lambda: pairwise(view, hp.metric, out=scratch.dist)
            out = (scratch.dist, scratch.dist_ahead)[t % 2]
            return obs_idx, feat_idx, view, helper.submit(dist.pairwise, view, hp.metric, out=out).result

        following = None
        for t in range(1, t_max + 1):
            started = time.perf_counter()
            obs_idx, feat_idx, view, distances = following or staged(t)
            following = staged(t + 1) if ahead and t < t_max else None
            feat_draws[feat_idx] += 1
            labels = cut_quantile(ward_linkage(distances()), hp.h)  # Ward overwrites the distances
            # fold; impacc's ANOVA needs two clusters and within-group degrees of
            # freedom, and a patch without them is sampled but scores no support
            k_patch = int(labels.max()) + 1
            if adaptive_feat and k_patch >= 2 and obs_idx.size - k_patch >= 1:
                support, _ = score_features(view, labels, hp.eta)
                feat_hits[feat_idx[support]] += 1
                feat.weights = update_feature_weights(feat.weights, importance(feat_hits, feat_draws), hp.alpha_f)
            update(state, obs_idx, labels, scratch=scratch)
            pct = float(np.percentile(state.confusion, STOP_PERCENTILE))
            if hp.early_stop and state.diag.min() > 0 and (not adaptive_obs or t > obs.burn_in):
                armed.append(pct)
            seconds = time.perf_counter() - started
            arrays = (obs_idx.copy(), labels.copy(), obs.weights.copy(),  # the scores are a new array
                      importance(feat_hits, feat_draws) if adaptive_feat else None) if collect_arrays else ()
            trace.append(IterationRecord(t, k_patch, pct, obs.last_high_size, feat.last_high_size, seconds, *arrays))
            if len(armed) > STOP_PATIENCE and stop_gap(armed) < 1:
                stop_reason = "early_stop"
                break  # patch t + 1's distances, if staged, go unread, as the sequential loop never computes them

    if int(state.diag.min()) == 0:
        missing = int((state.diag == 0).sum())
        raise RuntimeError(f"{missing} observation(s) never sampled after {len(trace)} iterations; "
                           f"raise t_max above {len(trace)}")
    scores = importance(feat_hits, feat_draws) if adaptive_feat else None
    return state, scores, obs.weights.copy(), stop_reason, trace


def _looks_ahead(hp: HyperParams, n: int, m: int) -> bool:
    """Whether ``_loop`` computes patch t + 1's distances on a helper thread while it labels and
    folds patch t, for N=``n`` observations of ``m`` features: in mpcc alone, whose patches the
    seed and t fix, and only for patches whose pairs times features reach ``_AHEAD_MIN_WORK``."""
    n_count = hp.n_count(n)
    return hp.mode == "mpcc" and n_count * (n_count - 1) // 2 * hp.m_count(m) >= _AHEAD_MIN_WORK


def _draw(t: int, hp: HyperParams, obs: SamplerState, feat: SamplerState,
          state: ConsensusState) -> tuple[np.ndarray, np.ndarray]:
    """Iteration t's patch, (obs_idx, feat_idx), each sorted: mpcc draws both axes uniformly,
    from ``hp.seed`` and t alone; the adaptive modes draw EE+Prob on ``obs`` and, in impacc,
    ``feat``, once past burn-in moving the observation weights by ``state``'s confusion."""
    rng_obs, rng_feat = _stream(hp.seed, _PHASE_OBS, t), _stream(hp.seed, _PHASE_FEAT, t)
    if hp.mode == "impacc":
        feat_idx = ee_prob_next(feat, t, rng_feat)
    else:
        feat_idx = draw_uniform(feat.weights.size, feat.draw, rng_feat)
    if hp.mode == "mpcc":
        return draw_uniform(obs.weights.size, obs.draw, rng_obs), feat_idx
    if t > obs.burn_in:
        obs.weights = update_obs_weights(obs.weights, state.confusion, state.diag, t, hp.alpha_i)
    return ee_prob_next(obs, t, rng_obs), feat_idx


def _gather(values: np.ndarray, obs_idx: np.ndarray, feat_idx: np.ndarray) -> np.ndarray:
    """A patch's values, whose distances its labels are read from: one take of flat indices from the
    table in place (C or Fortran order, as ``DataMatrix`` holds it), the bytes of
    ``values[np.ix_(obs_idx, feat_idx)]``."""
    obs_step, feat_step = (stride // values.itemsize for stride in values.strides)
    return np.take(values.ravel(order="K"), obs_idx[:, None] * obs_step + feat_idx * feat_step)


def _final_labels(state: ConsensusState, hp: HyperParams) -> np.ndarray:
    """Final labels from the counters; no tree at a given k."""
    if hp.k is not None:
        if hp.final_algo == "spectral":
            return finalize_spectral(state, hp.k, seed=hp.seed)
        return finalize_hierarchical(state, hp.k)
    labels = cut_quantile(ward_linkage(dissimilarity_of(state)), hp.h)  # frees 1 - S before S
    if hp.final_algo == "spectral":
        return finalize_spectral(state, int(labels.max()) + 1, seed=hp.seed)
    return labels


def finalize_hierarchical(state: ConsensusState, k: int) -> np.ndarray:
    """Cluster the consensus: Ward linkage on 1 - S, cut to k.

    1 - S comes from the pair counters (``RunResult.consensus``) into a
    fresh buffer, which receives Ward's square roots.
    """
    if not 1 <= k <= state.n:
        raise ValueError(f"k must be in 1..{state.n}, got {k}")
    return cut_k(ward_linkage(dissimilarity_of(state)), k)


def finalize_spectral(state: ConsensusState, k: int, seed: int = 0) -> np.ndarray:
    """Normalized spectral clustering with S, built from the pair counters
    (``RunResult.consensus``), as the similarity matrix.

    The bottom k eigenvectors of the symmetric normalized Laplacian
    I - D^-1/2 S D^-1/2 are the top k of the normalized affinity
    D^-1/2 S D^-1/2, which ``scipy.linalg.eigh`` computes alone. Their
    rows are scaled to unit length and clustered by ``kmeans2``
    (k-means++ seeding, at most 100 Lloyd steps, stopped once the labels
    repeat) in 10 restarts drawn from one seeded stream; the restart with
    the lowest SSE wins.

    Empty clusters: a restart in which ``kmeans2`` empties a cluster
    raises ``ClusterError`` and is discarded; if all 10 are, ValueError.
    """
    if not 1 <= k <= state.n:
        raise ValueError(f"k must be in 1..{state.n}, got {k}")
    return _spectral(consensus_of(state), k, seed)


def _spectral(s: np.ndarray, k: int, seed: int) -> np.ndarray:
    """``finalize_spectral`` on dense S, which it takes over and frees.

    ``s`` must be exactly symmetric, as ``consensus_of`` builds it, and own
    its buffer. D holds S's row sums. S's transpose view, which is S and
    is in LAPACK's (Fortran) order, is scaled in place into the affinity,
    so ``eigh`` copies nothing, and the buffer is freed as soon as ``eigh``
    returns, before the N x k embedding is normalised and clustered.
    """
    n = s.shape[0]
    deg = s.sum(axis=1)
    if (deg <= 0).any():
        raise ValueError("similarity matrix has an all-zero row")
    inv_sqrt = 1.0 / np.sqrt(deg)
    affinity = s.T
    affinity *= inv_sqrt[:, None]
    affinity *= inv_sqrt[None, :]
    _, emb = eigh(affinity, subset_by_index=[n - k, n - 1], overwrite_a=True)
    del affinity
    s.resize(0, refcheck=False)  # frees S now; Python 3.10 keeps call arguments alive until return
    norms = np.linalg.norm(emb, axis=1)
    emb = emb / np.where(norms > 0, norms, 1.0)[:, None]
    rng = _stream(seed, _PHASE_FINAL, 1)
    best_labels: np.ndarray | None = None
    best_sse = np.inf
    for _ in range(10):
        try:
            centers, labels = _kmeans(emb, k, rng)
        except ClusterError:
            continue
        sse = float(((emb - centers[labels]) ** 2).sum())
        if sse < best_sse:
            best_sse = sse
            best_labels = labels
    if best_labels is None:
        raise ValueError(f"k-means emptied a cluster in all 10 restarts for k={k}")
    return best_labels.astype(np.int64)  # kmeans2 labels are int32; cut_k's are int64


def _kmeans(emb: np.ndarray, k: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``kmeans2(emb, k, iter=100, minit="++", missing="raise", rng=rng)``,
    one Lloyd step at a time, stopped once the labels repeat.

    Repeated labels give the same centers again, bit for bit, so every
    later step would return the same centers and labels.
    """
    centers, labels = kmeans2(emb, _kpp(emb, k, rng), iter=1, minit="matrix", missing="raise")
    for _ in range(99):
        centers, step = kmeans2(emb, centers, iter=1, minit="matrix", missing="raise")
        if np.array_equal(step, labels):
            break
        labels = step
    return centers, labels


def _kpp(emb: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """The k-means++ seeds of ``kmeans2(emb, k, minit="++", rng=rng)``, bit for bit.

    The same draws as scipy's: the first seed by ``rng.integers(n)``, each
    later one by ``rng.uniform()`` against the cumulative squared distance
    to the nearest seed. That distance is kept as a running minimum over
    one ``cdist`` row per seed: O(k N) distances in all, where scipy
    recomputes those to every seed so far, O(k² N).
    """
    seeds = np.empty((k, emb.shape[1]))
    seeds[0] = emb[rng.integers(emb.shape[0])]
    nearest = np.full(emb.shape[0], np.inf)
    for i in range(1, k):
        np.minimum(nearest, cdist(seeds[i - 1:i], emb, "sqeuclidean")[0], out=nearest)
        seeds[i] = emb[np.searchsorted((nearest / nearest.sum()).cumsum(), rng.uniform())]
    return seeds


@dataclass(frozen=True)
class TuneResult:
    m_frac: float
    n_frac: float
    max_confusion: float
    converged: bool
    cells: tuple[tuple[float, float, float, int], ...]
    # (m_frac, n_frac, max_confusion, iterations_run) per evaluated cell


def tune_minipatch_size(
    data: DataMatrix,
    grid: list[tuple[float, float]],
    hp: HyperParams | None = None,
) -> TuneResult:
    """Pick the cheapest (m_frac, n_frac) whose final max confusion < 0.01.

    Cells are tried in ascending m*n^2 cost order and the search stops at
    the first qualifying cell; if none qualifies, the evaluated cell with
    the smallest max confusion is returned flagged as not converged.
    Every cell passes ``run()``'s checks first, but for the final step's memory; each then runs the loop alone.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    hp = hp or HyperParams()
    ordered = sorted(grid, key=lambda mn: (mn[0] * mn[1] ** 2, mn))
    for m_frac, n_frac in ordered:  # every cell, before the first run
        _check_run(data, replace(hp, m_frac=m_frac, n_frac=n_frac), final=False)
    cells: list[tuple[float, float, float, int]] = []
    for m_frac, n_frac in ordered:
        state, *_, trace = _loop(data, replace(hp, m_frac=m_frac, n_frac=n_frac))
        max_conf = float(state.confusion.max())
        cells.append((m_frac, n_frac, max_conf, len(trace)))
        if max_conf < 0.01:
            return TuneResult(m_frac, n_frac, max_conf, True, tuple(cells))
    return TuneResult(*min(cells, key=lambda c: c[2])[:3], False, tuple(cells))
