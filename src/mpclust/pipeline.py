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
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.cluster.vq import ClusterError, kmeans2
from scipy.linalg import eigh
from scipy.spatial.distance import cdist

from .consensus import (
    ConsensusState,
    PairScratch,
    StopTracker,
    consensus_of,
    dissimilarity_of,
    update,
)
from .dataio import DataMatrix
from .dist import METRICS, DistanceMatrix, pairwise
from .hclust import cut_k, cut_quantile, ward_linkage
from .sampling import (
    EEConfig,
    SamplerState,
    draw_uniform,
    ee_prob_next,
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


def _stream(seed: int, phase: int, t: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(phase, t)))


@dataclass(frozen=True)
class HyperParams:
    """Run configuration; defaults are the recommended universal values."""

    m_frac: float = 0.1
    n_frac: float = 0.25
    h: float = 0.95
    eta: float = 0.05
    alpha_f: float = 0.5
    tau: float = 1.0
    alpha_i: float = 0.5
    theta: float = 0.95
    epochs_e: int = 2
    t_max: int | None = None  # None: 20 * epochs * ceil(N/n) capped at 5000
    k_final: int | None = None  # None: quantile cut on the consensus tree
    final_algo: str = "hierarchical"
    seed: int = 0
    metric: str = "manhattan"
    early_stop: bool = True  # the rule and its constants are StopTracker's

    def validate(self) -> None:
        for name, lo, hi in (
            ("m_frac", 0.0, 1.0),
            ("n_frac", 0.0, 1.0),
            ("h", 0.0, 1.0),
        ):
            v = getattr(self, name)
            if not lo < v <= hi:
                raise ValueError(f"{name} must be in ({lo}, {hi}], got {v}")
        for name in ("eta", "alpha_f", "alpha_i", "theta"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.epochs_e < 1:
            raise ValueError("epochs_e must be >= 1")
        if self.t_max is not None and self.t_max < 1:
            raise ValueError("t_max must be >= 1 (no iterations possible)")
        if self.k_final is not None and self.k_final < 1:
            raise ValueError("k_final must be >= 1")
        if self.final_algo not in FINAL_ALGOS:
            raise ValueError(f"final_algo must be one of {FINAL_ALGOS}")
        if self.metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

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
    """Per-iteration diagnostics."""

    iteration: int
    n_clusters: int
    confusion_pct: float
    high_obs: int
    high_feat: int
    seconds: float


@dataclass
class RunResult:
    labels: np.ndarray
    consensus: ConsensusState  # the pair counters; consensus_of builds dense S from them
    feature_scores: np.ndarray | None
    obs_weights: np.ndarray
    iterations_run: int
    stop_reason: str  # "early_stop" or "t_max"
    trace: list[IterationRecord]
    patches: list[tuple[np.ndarray, np.ndarray]] | None = None  # (I_t, labels)
    weight_trace: list[tuple[int, np.ndarray, np.ndarray | None]] | None = None


_CGROUP_LIMITS = ("/sys/fs/cgroup/memory.max", "/sys/fs/cgroup/memory/memory.limit_in_bytes")


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
    The cgroup's is the limit in v2's memory.max (``max``: no limit) or,
    where that file cannot be read, in v1's memory.limit_in_bytes.
    """
    host = re.search(r"^MemAvailable:\s+(\d+) kB", _read_text("/proc/meminfo") or "", re.M)
    try:
        known = [int(host[1]) * 1024 if host else os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")]
    except (OSError, ValueError, AttributeError):
        known = []
    for path in _CGROUP_LIMITS:
        limit = _read_text(path)
        if limit is not None:
            if limit.strip().isdigit():  # not v2's "max"
                known.append(int(limit))
            break
    return min(known, default=None)


def _peak_bytes(n: int, hp: HyperParams) -> int:
    """Estimated peak of a run's N^2, N x k and patch^2 buffers.

    The counters (two per pair) live throughout. The loop's
    ``PairScratch`` is released before the final clustering. Ward holds
    the condensed 1 - S and scipy's working copy of it (16 bytes per
    pair). The spectral finaliser holds dense S and, while
    ``consensus_of`` builds it, the condensed S: 12 N^2 bytes. S is freed
    once ``eigh`` returns; the N x k embedding and the k-means
    temporaries then take about three N x k and three k x k float64
    arrays (measured with tracemalloc), more than 12 N^2 from k = 0.37 N.
    Without ``k_final``, k is at most the quantile cut's N - ⌊h(N-2)⌋ - 1.
    """
    npair = n * (n - 1) // 2
    dtype = np.dtype(ConsensusState.counter_dtype(hp.resolve_t_max(n)))
    if hp.final_algo == "spectral":
        k = hp.k_final if hp.k_final is not None else n - math.floor(hp.h * (n - 2)) - 1
        final = max(12 * n * n, 24 * (n * k + k * k))
    else:
        final = 16 * npair
    return 2 * dtype.itemsize * npair + max(PairScratch.nbytes(hp.n_count(n), dtype), final)


def run(
    data: DataMatrix,
    mode: str,
    hp: HyperParams,
    collect_patches: bool = False,
    collect_weight_trace: bool = False,
) -> RunResult:
    """Execute the consensus loop and final clustering.

    Each iteration draws a minipatch, clusters it, scores its features
    (impacc), folds it into the consensus and checks the stop rule.
    ``collect_patches`` retains the per-iteration (indices, labels) log,
    ``collect_weight_trace`` the per-iteration observation weights and
    feature scores.

    The per-observation confusion that drives the adaptive observation
    weights and the early-stop percentile is the consensus state's
    ``confusion_rows``, which ``update`` maintains, divided by N.
    Every patch has ``n_count`` observations, so the per-pair temporaries
    of ``pairwise``, ``ward_linkage`` and ``update`` live in one
    ``PairScratch`` for the whole loop, released with the last minipatch
    before the final clustering. That clustering reads the counters:
    Ward the condensed 1 - S built from them, the spectral finaliser the
    dense S it builds itself. ``consensus_of(result.consensus)`` builds S.

    Raises ValueError before the first iteration when the estimated peak
    of the run's pair buffers exceeds the memory available.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    hp.validate()
    n, m = data.n_obs, data.n_features
    n_count = hp.n_count(n)
    m_count = hp.m_count(m)
    if not 3 <= n_count <= n:
        raise ValueError(f"minipatch observation count {n_count} infeasible for N={n}")
    if not 1 <= m_count <= m:
        raise ValueError(f"minipatch feature count {m_count} infeasible for M={m}")
    t_max = hp.resolve_t_max(n)
    peak, available = _peak_bytes(n, hp), _available_bytes()
    if available is not None and peak > available:
        raise ValueError(
            f"N={n} observations need about {peak / 1e6:,.1f} MB at the run's peak, "
            f"but {available / 1e6:,.1f} MB of memory are available"
        )

    obs_cfg = EEConfig(
        frac=hp.n_frac,
        epochs=hp.epochs_e,
        threshold="quantile",
        threshold_param=hp.theta,
        alpha=hp.alpha_i,
    )
    feat_cfg = EEConfig(
        frac=hp.m_frac,
        epochs=hp.epochs_e,
        threshold="mean_plus_sd",
        threshold_param=hp.tau,
        alpha=hp.alpha_f,
    )
    obs_state = SamplerState.uniform(n, "observations")
    feat_state = SamplerState.uniform(m, "features")
    state = ConsensusState.empty(n, max_count=t_max)
    scratch = PairScratch.empty(n_count, state.pair_seen.dtype)
    flat_values = data.values.ravel()  # a view unless data.values is not in C order
    tracker = StopTracker()
    adaptive_obs = mode in ("mpacc", "impacc")
    adaptive_feat = mode == "impacc"
    obs_burn = obs_cfg.burn_in(n)

    trace: list[IterationRecord] = []
    patches: list[tuple[np.ndarray, np.ndarray]] | None = [] if collect_patches else None
    wtrace: list[tuple[int, np.ndarray, np.ndarray | None]] | None = (
        [] if collect_weight_trace else None
    )
    stop_reason = "t_max"

    for t in range(1, t_max + 1):
        started = time.perf_counter()
        rng_obs = _stream(hp.seed, _PHASE_OBS, t)
        rng_feat = _stream(hp.seed, _PHASE_FEAT, t)

        if adaptive_feat:
            feat_idx = ee_prob_next(feat_cfg, feat_state, t, rng_feat)
            feat_state.record(feat_idx)
        else:
            feat_idx = draw_uniform(m, m_count, rng_feat)

        if adaptive_obs:
            if t > obs_burn:
                update_obs_weights(obs_state, state.confusion_rows / n, t, hp.alpha_i)
            obs_idx = ee_prob_next(obs_cfg, obs_state, t, rng_obs)
            obs_state.record(obs_idx)
        else:
            obs_idx = draw_uniform(n, n_count, rng_obs)

        # one take of flat indices: the bytes of data.values[np.ix_(obs_idx, feat_idx)]
        view = np.take(flat_values, obs_idx[:, None] * m + feat_idx)
        dist = pairwise(view, hp.metric, out=scratch.dist)
        labels = cut_quantile(ward_linkage(dist, out=dist.condensed), hp.h)
        k_patch = int(labels.max()) + 1
        # ANOVA needs two clusters and within-group degrees of freedom;
        # a patch without them is sampled but scores no support
        if adaptive_feat and k_patch >= 2 and obs_idx.size - k_patch >= 1:
            support, _ = score_features(view, labels, hp.eta)
            update_feature_weights(feat_state, feat_idx[support], feat_idx, hp.alpha_f)

        update(state, obs_idx, labels, scratch=scratch)
        pct = float(np.percentile(state.confusion_rows / n, tracker.q))
        stop = False
        if hp.early_stop and state.diag.min() > 0 and (not adaptive_obs or t > obs_burn):
            tracker, stop = tracker.step(pct)
        trace.append(
            IterationRecord(
                iteration=t,
                n_clusters=k_patch,
                confusion_pct=pct,
                high_obs=obs_state.last_high_size,
                high_feat=feat_state.last_high_size,
                seconds=time.perf_counter() - started,
            )
        )
        if patches is not None:
            patches.append((obs_idx.copy(), labels.copy()))
        if wtrace is not None:
            wtrace.append(
                (
                    t,
                    obs_state.weights.copy(),
                    feat_state.importance().copy() if adaptive_feat else None,
                )
            )
        if stop:
            stop_reason = "early_stop"
            break
    del scratch, dist, view

    if int(state.diag.min()) == 0:
        missing = int((state.diag == 0).sum())
        raise RuntimeError(
            f"{missing} observation(s) never sampled after {len(trace)} "
            f"iterations; raise t_max above the burn-in length"
        )

    return RunResult(
        labels=_final_labels(state, hp),
        consensus=state,
        feature_scores=feat_state.importance() if adaptive_feat else None,
        obs_weights=obs_state.weights.copy(),
        iterations_run=len(trace),
        stop_reason=stop_reason,
        trace=trace,
        patches=patches,
        weight_trace=wtrace,
    )


def _final_labels(state: ConsensusState, hp: HyperParams) -> np.ndarray:
    """Final labels from the counters; no tree at a given k."""
    if hp.k_final is not None:
        if hp.final_algo == "spectral":
            return finalize_spectral(state, hp.k_final, seed=hp.seed)
        return finalize_hierarchical(state, hp.k_final)
    d = DistanceMatrix(state.n, dissimilarity_of(state))
    labels = cut_quantile(ward_linkage(d, out=d.condensed), hp.h)
    if hp.final_algo == "spectral":
        del d  # 1 - S goes before the finaliser builds S
        return finalize_spectral(state, int(labels.max()) + 1, seed=hp.seed)
    return labels


def finalize_hierarchical(state: ConsensusState, k: int) -> np.ndarray:
    """Cluster the consensus: Ward linkage on 1 - S, cut to k.

    1 - S comes from the pair counters (``RunResult.consensus``) into a
    fresh buffer, which receives Ward's square roots.
    """
    if not 1 <= k <= state.n:
        raise ValueError(f"k must be in 1..{state.n}")
    d = DistanceMatrix(state.n, dissimilarity_of(state))
    return cut_k(ward_linkage(d, out=d.condensed), k)


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
        raise ValueError(f"k must be in 1..{state.n}")
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
    cells: tuple[tuple[float, float, float, int], ...] = field(default_factory=tuple)
    # (m_frac, n_frac, max_confusion, iterations_run) per evaluated cell


def tune_minipatch_size(
    data: DataMatrix,
    mode: str,
    grid: list[tuple[float, float]],
    hp: HyperParams | None = None,
) -> TuneResult:
    """Pick the cheapest (m_frac, n_frac) whose final max confusion < 0.01.

    Cells are tried in ascending m*n^2 cost order and the search stops at
    the first qualifying cell; if none qualifies, the evaluated cell with
    the smallest max confusion is returned flagged as not converged.
    Confusion is read from ``result.consensus.confusion_rows / N``: no dense S.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    hp = hp or HyperParams()
    ordered = sorted(grid, key=lambda mn: (mn[0] * mn[1] ** 2, mn))
    cells: list[tuple[float, float, float, int]] = []
    for m_frac, n_frac in ordered:
        cell_hp = replace(hp, m_frac=m_frac, n_frac=n_frac)
        result = run(data, mode, cell_hp)
        max_conf = float(result.consensus.confusion_rows.max() / data.n_obs)
        cells.append((m_frac, n_frac, max_conf, result.iterations_run))
        if max_conf < 0.01:
            return TuneResult(m_frac, n_frac, max_conf, True, tuple(cells))
    best = min(cells, key=lambda c: c[2])
    return TuneResult(best[0], best[1], best[2], False, tuple(cells))
