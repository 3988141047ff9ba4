"""Minipatch consensus clustering with adaptive observation and feature sampling.

The namespace holds the README's library; per-layer kernels stay in their modules.
"""

__version__ = "0.1.0"

from .consensus import ConsensusState, consensus_of
from .dataio import DataMatrix, load_matrix, log2_plus_one, write_matrix
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
from .synthgen import SynthData, SynthSpec, generate

__all__ = [
    "__version__",
    "DataMatrix",
    "load_matrix",
    "write_matrix",
    "log2_plus_one",
    "HyperParams",
    "run",
    "RunResult",
    "ConsensusState",
    "consensus_of",
    "finalize_hierarchical",
    "finalize_spectral",
    "tune_minipatch_size",
    "TuneResult",
    "ari",
    "f1_features",
    "select_by_score",
    "SynthSpec",
    "SynthData",
    "generate",
]
