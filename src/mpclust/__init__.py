"""Minipatch consensus clustering with adaptive observation and feature sampling."""

__version__ = "0.1.0"

from .consensus import (
    ConsensusState,
    StopTracker,
    confusion,
    consensus_of,
    update,
)
from .dataio import DataMatrix, load_matrix, log2_plus_one, rescale_unit, write_matrix
from .dist import DistanceMatrix, deviation_experiment, hoeffding_bound, pairwise
from .hclust import Dendrogram, cut_k, cut_quantile, ward_linkage
from .metrics import ari, f1_features, select_by_score
from .pipeline import (
    HyperParams,
    RunResult,
    TuneResult,
    finalize_hierarchical,
    finalize_spectral,
    run,
    tune_minipatch_size,
)
from .sampling import (
    EEConfig,
    SamplerState,
    draw_uniform,
    draw_weighted,
    ee_prob_next,
    score_features,
    update_feature_weights,
    update_obs_weights,
)
from .synthgen import SynthData, SynthSpec, cluster_means, generate, snr_of

__all__ = [
    "__version__",
    "ConsensusState",
    "StopTracker",
    "confusion",
    "consensus_of",
    "update",
    "DataMatrix",
    "load_matrix",
    "log2_plus_one",
    "rescale_unit",
    "write_matrix",
    "DistanceMatrix",
    "deviation_experiment",
    "hoeffding_bound",
    "pairwise",
    "Dendrogram",
    "cut_k",
    "cut_quantile",
    "ward_linkage",
    "ari",
    "f1_features",
    "select_by_score",
    "HyperParams",
    "RunResult",
    "TuneResult",
    "finalize_hierarchical",
    "finalize_spectral",
    "run",
    "tune_minipatch_size",
    "EEConfig",
    "SamplerState",
    "draw_uniform",
    "draw_weighted",
    "ee_prob_next",
    "score_features",
    "update_feature_weights",
    "update_obs_weights",
    "SynthData",
    "SynthSpec",
    "cluster_means",
    "generate",
    "snr_of",
]
