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
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.cluster.vq import ClusterError, kmeans2
from scipy.linalg import eigh
from scipy.spatial.distance import squareform

from .consensus import (
    ConsensusState,
    StopTracker,
    confusion,
    consensus_of,
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
    s: np.ndarray
    consensus: ConsensusState  # the pair counters S is built from
    feature_scores: np.ndarray | None
    obs_weights: np.ndarray
    iterations_run: int
    stop_reason: str  # "early_stop" or "t_max"
    trace: list[IterationRecord]
    patches: list[tuple[np.ndarray, np.ndarray]] | None = None  # (I_t, labels)
    weight_trace: list[tuple[int, np.ndarray, np.ndarray | None]] | None = None


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
    weights and the early-stop percentile is one vector: the off-diagonal
    S(1-S) row sums that ``update`` maintains incrementally, divided by N.
    The dense consensus matrix is built once, for the final clustering.
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
    state = ConsensusState.empty(n)
    tracker = StopTracker()
    adaptive_obs = mode in ("mpacc", "impacc")
    adaptive_feat = mode == "impacc"
    obs_burn = obs_cfg.burn_in(n)

    trace: list[IterationRecord] = []
    patches: list[tuple[np.ndarray, np.ndarray]] | None = [] if collect_patches else None
    wtrace: list[tuple[int, np.ndarray, np.ndarray | None]] | None = (
        [] if collect_weight_trace else None
    )
    confusion_rows = np.zeros(n)  # incremental off-diagonal S(1-S) row sums
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
                update_obs_weights(obs_state, confusion_rows / n, t, hp.alpha_i)
            obs_idx = ee_prob_next(obs_cfg, obs_state, t, rng_obs)
            obs_state.record(obs_idx)
        else:
            obs_idx = draw_uniform(n, n_count, rng_obs)

        view = data.values[np.ix_(obs_idx, feat_idx)]
        labels = cut_quantile(ward_linkage(pairwise(view, hp.metric)), hp.h)
        k_patch = int(labels.max()) + 1
        # ANOVA needs two clusters and within-group degrees of freedom;
        # a patch without them is sampled but scores no support
        if adaptive_feat and k_patch >= 2 and obs_idx.size - k_patch >= 1:
            support, _ = score_features(view, labels, hp.eta)
            update_feature_weights(feat_state, feat_idx[support], feat_idx, hp.alpha_f)

        update(state, obs_idx, labels, confusion_rows)
        pct = float(np.percentile(confusion_rows / n, tracker.q))
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

    if int(state.diag.min()) == 0:
        missing = int((state.diag == 0).sum())
        raise RuntimeError(
            f"{missing} observation(s) never sampled after {len(trace)} "
            f"iterations; raise t_max above the burn-in length"
        )

    s = consensus_of(state)
    labels = _final_labels(s, hp)
    return RunResult(
        labels=labels,
        s=s,
        consensus=state,
        feature_scores=feat_state.importance() if adaptive_feat else None,
        obs_weights=obs_state.weights.copy(),
        iterations_run=len(trace),
        stop_reason=stop_reason,
        trace=trace,
        patches=patches,
        weight_trace=wtrace,
    )


def _final_labels(s: np.ndarray, hp: HyperParams) -> np.ndarray:
    if hp.k_final is None:
        dend = ward_linkage(DistanceMatrix(s.shape[0], 1 - squareform(s, checks=False)))
        labels = cut_quantile(dend, hp.h)
        if hp.final_algo == "spectral":
            k = int(labels.max()) + 1
            return finalize_spectral(s, k, seed=hp.seed)
        return labels
    if hp.final_algo == "spectral":
        return finalize_spectral(s, hp.k_final, seed=hp.seed)
    return finalize_hierarchical(s, hp.k_final)


def finalize_hierarchical(s: np.ndarray, k: int) -> np.ndarray:
    """Cluster the consensus matrix: ward linkage on 1 - S, cut to k."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    return cut_k(ward_linkage(DistanceMatrix(n, 1 - squareform(s, checks=False))), k)


def finalize_spectral(s: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Normalized spectral clustering with S as the similarity matrix.

    The bottom k eigenvectors of the symmetric normalized Laplacian
    I - D^-1/2 S D^-1/2 are the top k of the normalized affinity
    D^-1/2 S D^-1/2, which ``scipy.linalg.eigh`` computes alone. Their
    rows are scaled to unit length and clustered by ``kmeans2``
    (k-means++ seeding, 100 iterations) in 10 restarts drawn from one
    seeded stream; the restart with the lowest SSE wins.

    Empty clusters: a restart in which ``kmeans2`` empties a cluster
    raises ``ClusterError`` and is discarded; if all 10 are, ValueError.
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    deg = s.sum(axis=1)
    if (deg <= 0).any():
        raise ValueError("similarity matrix has an all-zero row")
    inv_sqrt = 1.0 / np.sqrt(deg)
    affinity = s * inv_sqrt[:, None]  # a copy: S is the caller's (RunResult.s)
    affinity *= inv_sqrt[None, :]
    _, emb = eigh(affinity, subset_by_index=[n - k, n - 1], overwrite_a=True)
    norms = np.linalg.norm(emb, axis=1)
    emb = emb / np.where(norms > 0, norms, 1.0)[:, None]
    rng = _stream(seed, _PHASE_FINAL, 1)
    best_labels: np.ndarray | None = None
    best_sse = np.inf
    for _ in range(10):
        try:
            centers, labels = kmeans2(emb, k, iter=100, minit="++", missing="raise", rng=rng)
        except ClusterError:
            continue
        sse = float(((emb - centers[labels]) ** 2).sum())
        if sse < best_sse:
            best_sse = sse
            best_labels = labels
    if best_labels is None:
        raise ValueError(f"k-means emptied a cluster in all 10 restarts for k={k}")
    return best_labels.astype(np.int64)  # kmeans2 labels are int32; cut_k's are int64


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
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    hp = hp or HyperParams()
    ordered = sorted(grid, key=lambda mn: (mn[0] * mn[1] ** 2, mn))
    cells: list[tuple[float, float, float, int]] = []
    for m_frac, n_frac in ordered:
        cell_hp = replace(hp, m_frac=m_frac, n_frac=n_frac)
        result = run(data, mode, cell_hp)
        max_conf = float(confusion(result.s).max())
        cells.append((m_frac, n_frac, max_conf, result.iterations_run))
        if max_conf < 0.01:
            return TuneResult(m_frac, n_frac, max_conf, True, tuple(cells))
    best = min(cells, key=lambda c: c[2])
    return TuneResult(best[0], best[1], best[2], False, tuple(cells))
