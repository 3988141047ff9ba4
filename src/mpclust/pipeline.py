"""Orchestration of the minipatch consensus loop and final clustering.

Three modes share one loop: ``mpcc`` samples observations and features
uniformly; ``mpacc`` samples observations adaptively (EE+Prob driven by
count-adjusted confusion); ``impacc`` additionally samples features
adaptively (EE+Prob driven by ANOVA support frequencies) and reports
per-feature importance scores.

Randomness is derived from one root seed through per-(phase, iteration)
substreams, so uniform-mode iterations are independent and can be
computed by parallel workers without changing any output bit.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

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
    early_stop: bool = True
    stop_q: float = 90.0
    stop_c: float = 1e-5
    stop_patience: int = 5

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
    feature_scores: np.ndarray | None
    obs_weights: np.ndarray
    iterations_run: int
    stop_reason: str  # "early_stop" or "t_max"
    trace: list[IterationRecord]
    patches: list[tuple[np.ndarray, np.ndarray]] | None = None  # (I_t, labels)
    weight_trace: list[tuple[int, np.ndarray, np.ndarray | None]] | None = None


def _cluster_patch(
    values: np.ndarray, obs_idx: np.ndarray, feat_idx: np.ndarray, hp: HyperParams
) -> np.ndarray:
    view = values[np.ix_(obs_idx, feat_idx)]
    dend = ward_linkage(pairwise(view, hp.metric))
    return cut_quantile(dend, hp.h)


def run(
    data: DataMatrix,
    mode: str,
    hp: HyperParams,
    workers: int = 1,
    collect_patches: bool = False,
    collect_weight_trace: bool = False,
) -> RunResult:
    """Execute the consensus loop and final clustering.

    ``workers`` > 1 parallelizes minipatch clustering in mpcc mode only
    (adaptive modes are history-dependent and run sequentially); results
    are identical to the sequential run.  ``collect_patches`` retains the
    per-iteration (indices, labels) log, ``collect_weight_trace`` the
    per-iteration observation weights and feature scores.

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
    if t_max < 1:
        raise ValueError("t_max must allow at least one iteration")

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
    tracker = StopTracker(q=hp.stop_q, c=hp.stop_c, patience=hp.stop_patience)
    adaptive_obs = mode in ("mpacc", "impacc")
    adaptive_feat = mode == "impacc"
    obs_burn = obs_cfg.burn_in(n)

    trace: list[IterationRecord] = []
    patches: list[tuple[np.ndarray, np.ndarray]] | None = [] if collect_patches else None
    wtrace: list[tuple[int, np.ndarray, np.ndarray | None]] | None = (
        [] if collect_weight_trace else None
    )
    prev_patch: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None  # I, F, labels
    confusion_rows = np.zeros(n)  # incremental off-diagonal S(1-S) row sums
    iterations_run = 0
    stop_reason = "t_max"

    def consume(t: int, obs_idx: np.ndarray, labels: np.ndarray, patch_seconds: float) -> bool:
        """Fold one clustered minipatch into the state; True means stop."""
        nonlocal tracker, stop_reason, iterations_run
        started = time.perf_counter()
        update(state, obs_idx, labels, confusion_rows)
        pct = float(np.percentile(confusion_rows / n, hp.stop_q))
        covered = int(state.diag.min()) > 0
        gated = covered and (not adaptive_obs or t > obs_burn)
        stop = False
        if hp.early_stop and gated:
            tracker, stop = tracker.step(pct)
        trace.append(
            IterationRecord(
                iteration=t,
                n_clusters=int(labels.max()) + 1,
                confusion_pct=pct,
                high_obs=obs_state.last_high_size,
                high_feat=feat_state.last_high_size,
                seconds=patch_seconds + (time.perf_counter() - started),
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
        iterations_run = t
        if stop:
            stop_reason = "early_stop"
        return stop

    if mode == "mpcc" and workers > 1:
        _mpcc_parallel(data.values, hp, n_count, m_count, t_max, workers, consume)
    else:
        for t in range(1, t_max + 1):
            started = time.perf_counter()
            rng_obs = _stream(hp.seed, _PHASE_OBS, t)
            rng_feat = _stream(hp.seed, _PHASE_FEAT, t)

            if adaptive_feat:
                if prev_patch is not None:
                    p_obs, p_feat, p_labels = prev_patch
                    k_prev = int(p_labels.max()) + 1
                    if k_prev >= 2 and p_obs.size - k_prev >= 1:
                        view = data.values[np.ix_(p_obs, p_feat)]
                        support, _ = score_features(view, p_labels, hp.eta)
                        update_feature_weights(
                            feat_state, p_feat[support], p_feat, hp.alpha_f
                        )
                    # single-cluster patch: scoring skipped, support deferred
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

            labels = _cluster_patch(data.values, obs_idx, feat_idx, hp)
            prev_patch = (obs_idx, feat_idx, labels)
            if consume(t, obs_idx, labels, time.perf_counter() - started):
                break

    if int(state.diag.min()) == 0:
        missing = int((state.diag == 0).sum())
        raise RuntimeError(
            f"{missing} observation(s) never sampled after {iterations_run} "
            f"iterations; raise t_max above the burn-in length"
        )

    s = consensus_of(state)
    labels = _final_labels(s, hp)
    return RunResult(
        labels=labels,
        s=s,
        feature_scores=feat_state.importance() if adaptive_feat else None,
        obs_weights=obs_state.weights.copy(),
        iterations_run=iterations_run,
        stop_reason=stop_reason,
        trace=trace,
        patches=patches,
        weight_trace=wtrace,
    )


def _mpcc_parallel(values, hp, n_count, m_count, t_max, workers, consume) -> None:
    """Compute uniform-mode minipatches in a pool, fold them in t order."""
    n, m = values.shape

    def patch(t: int) -> tuple[int, np.ndarray, np.ndarray, float]:
        started = time.perf_counter()
        obs_idx = draw_uniform(n, n_count, _stream(hp.seed, _PHASE_OBS, t))
        feat_idx = draw_uniform(m, m_count, _stream(hp.seed, _PHASE_FEAT, t))
        labels = _cluster_patch(values, obs_idx, feat_idx, hp)
        return t, obs_idx, labels, time.perf_counter() - started

    chunk = max(4 * workers, 16)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        stopped = False
        for start in range(1, t_max + 1, chunk):
            ts = range(start, min(start + chunk, t_max + 1))
            for t, obs_idx, labels, elapsed in pool.map(patch, ts):
                if stopped:
                    break  # discard work past the stopping iteration
                stopped = consume(t, obs_idx, labels, elapsed)
            if stopped:
                break


def _final_labels(s: np.ndarray, hp: HyperParams) -> np.ndarray:
    if hp.k_final is None:
        dend = ward_linkage(_dissimilarity(s))
        labels = cut_quantile(dend, hp.h)
        if hp.final_algo == "spectral":
            k = int(labels.max()) + 1
            return finalize_spectral(s, k, seed=hp.seed)
        return labels
    if hp.final_algo == "spectral":
        return finalize_spectral(s, hp.k_final, seed=hp.seed)
    return finalize_hierarchical(s, hp.k_final)


def _dissimilarity(s: np.ndarray) -> DistanceMatrix:
    n = s.shape[0]
    d = 1.0 - s
    ii, jj = np.triu_indices(n, k=1)
    return DistanceMatrix(n, d[ii, jj])


def finalize_hierarchical(s: np.ndarray, k: int) -> np.ndarray:
    """Cluster the consensus matrix: ward linkage on 1 - S, cut to k."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    return cut_k(ward_linkage(_dissimilarity(s)), k)


def finalize_spectral(s: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Normalized spectral clustering with S as the similarity matrix.

    Symmetric normalized Laplacian, bottom-k eigenvectors, row
    normalization, then k-means (k-means++ init, 10 restarts, best SSE).
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}")
    deg = s.sum(axis=1)
    if (deg <= 0).any():
        raise ValueError("similarity matrix has an all-zero row")
    inv_sqrt = 1.0 / np.sqrt(deg)
    lap = np.eye(n) - inv_sqrt[:, None] * s * inv_sqrt[None, :]
    _, eigvecs = np.linalg.eigh(lap)
    emb = eigvecs[:, :k]
    norms = np.linalg.norm(emb, axis=1)
    emb = emb / np.where(norms > 0, norms, 1.0)[:, None]
    rng = _stream(seed, _PHASE_FINAL, 1)
    return _kmeans(emb, k, rng, restarts=10)


def _kmeans(x: np.ndarray, k: int, rng: np.random.Generator, restarts: int = 10) -> np.ndarray:
    n = x.shape[0]
    best_labels: np.ndarray | None = None
    best_sse = np.inf
    for _ in range(restarts):
        centers = _kmeanspp(x, k, rng)
        labels = np.zeros(n, dtype=int)
        for _ in range(100):
            d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = d2.argmin(axis=1)
            for c in range(k):  # re-seed empty clusters with the worst point
                if not (new_labels == c).any():
                    far = int(d2[np.arange(n), new_labels].argmax())
                    new_labels[far] = c
            if (new_labels == labels).all():
                labels = new_labels
                break
            labels = new_labels
            for c in range(k):
                centers[c] = x[labels == c].mean(axis=0)
        sse = float(((x - centers[labels]) ** 2).sum())
        if sse < best_sse:
            best_sse = sse
            best_labels = labels.copy()
    assert best_labels is not None
    return best_labels


def _kmeanspp(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[int(rng.integers(n))]
    d2 = ((x - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[c] = x[int(rng.integers(n))]
            continue
        target = rng.random() * total
        idx = int(np.searchsorted(np.cumsum(d2), target, side="right"))
        idx = min(idx, n - 1)
        centers[c] = x[idx]
        d2 = np.minimum(d2, ((x - centers[c]) ** 2).sum(axis=1))
    return centers


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
