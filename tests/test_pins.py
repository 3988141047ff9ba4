"""Cross-commit pins: literal digests of the outputs, so a golden change is a diff of digests.

Each digest was taken on numpy 2.4.6 and scipy 1.17.1 from the code as it
was when its test was written. A change that moves a draw, a weight, a
partition or an output byte moves a digest here, and must name it.

The pins hold integers, and floats as raw bytes or ``%.17g`` text: ratios
of pair counts, and the weights and scores the adaptive modes compute from
them. Labels that pass through LAPACK's ``eigh`` (the spectral final step)
are pinned as partitions only, because another build can move an
eigenvector's last bits.
``test_pipeline.py::TestRun::test_adaptive_draws_are_pinned`` holds the
wide 60 x 50 shape's pins for all three modes.
"""

import hashlib
import os

import numpy as np
import pytest

from mpclust import (
    DataMatrix,
    HyperParams,
    SynthSpec,
    finalize_hierarchical,
    finalize_spectral,
    generate,
    run,
    tune_minipatch_size,
    write_matrix,
)
from mpclust.cli import main
from mpclust.consensus import save_consensus_binary, save_consensus_csv

WIDE = SynthSpec(snr=6, n_obs=60, n_features=50, n_signal=5, seed=1, cluster_sizes=(3, 9, 14, 34))
TALL = SynthSpec(snr=6, n_obs=150, n_features=30, n_signal=5, seed=2)


def _digest(a, dtype="<f8"):
    return hashlib.sha256(np.asarray(a, dtype).tobytes()).hexdigest()


def _partition(labels):
    """Labels renumbered by first appearance: equal for equal partitions."""
    first: dict[int, int] = {}
    return [first.setdefault(label, len(first)) for label in labels.tolist()]


def test_tall_mpcc_is_pinned(tmp_path):
    data = generate(TALL).matrix
    res = run(data, HyperParams(seed=1, t_max=40, early_stop=False))
    save_consensus_csv(res.consensus, data.row_ids, tmp_path / "consensus.csv")
    save_consensus_binary(res.consensus, tmp_path / "consensus.bin")
    assert {
        "labels": _digest(res.labels, "<i8"),
        "labels_k4": _digest(finalize_hierarchical(res.consensus, 4), "<i8"),
        "trace": _digest([(r.n_clusters, r.confusion_pct) for r in res.trace]),
        "consensus_csv": hashlib.sha256((tmp_path / "consensus.csv").read_bytes()).hexdigest(),
        "consensus_bin": hashlib.sha256((tmp_path / "consensus.bin").read_bytes()).hexdigest(),
    } == {
        "labels": "485a33a885a4d8c11105379991c88c5be937cd9b2000b3e44e5de87a93f4c253",
        "labels_k4": "61741c516adc50f5e66475bc37321fcb8be38c99198b52211d2d75ba874b76e7",
        "trace": "b9cfe1cd63ed4b324ae6577ac8d89db9512758aa82bb0a39d3d6e8ac4eecf0c2",
        "consensus_csv": "376e33e890e82e66d84dda21a4903296df8d012a5dd510a8e6718526759f8508",
        "consensus_bin": "0b61479d57eefe04b13b2912289346d0517eecdfa9fe176aa4614cbd4793a638",
    }


@pytest.mark.parametrize("spec, digests", [
    (WIDE, {"without_k": "eaebcbbee17f58b3bc808f751554fdd0ff46130168bbfb3b29b94479b8bf8051",
            "k3": "6a1ec5d5e1766dd937ff5d06bc0fd8ea7e347aef34157905322db91fad763c73"}),
    (TALL, {"without_k": "3dd4a2cecfe6f306d17792a80bad192541ffd5101a796166a969b31da99e8343",
            "k3": "654651ce9351d79a0e79de060482d82bc1b1224fbd92558a3bbefdcce2ec92b9"}),
], ids=["wide", "tall"])
def test_spectral_partitions_are_pinned(spec, digests):
    res = run(generate(spec).matrix, HyperParams(seed=1, t_max=40, early_stop=False,
                                                 final_algo="spectral"))
    assert {
        "without_k": _digest(_partition(res.labels), "<i8"),
        "k3": _digest(_partition(finalize_spectral(res.consensus, 3, seed=1)), "<i8"),
    } == digests


def test_early_stop_is_pinned():
    # C7's separable blobs (tests/test_acceptance.py)
    rng = np.random.default_rng(1)
    x = np.vstack([rng.normal(0, 1, (40, 30)), rng.normal(9.0, 1, (40, 30))])
    data = DataMatrix(x, tuple(f"r{i}" for i in range(80)), tuple(f"c{j}" for j in range(30)))
    res = run(data, HyperParams(k=2, seed=3))
    assert (res.iterations_run, res.stop_reason) == (18, "early_stop")


def test_tune_cells_are_pinned():
    grid = [(m_frac, n_frac) for m_frac in (0.1, 0.3) for n_frac in (0.2, 0.4)]
    result = tune_minipatch_size(generate(WIDE).matrix, grid, HyperParams(seed=1))
    text = "\n".join(f"{m:.17g},{n:.17g},{c:.17g},{t}" for m, n, c, t in result.cells)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "2e072ad51e420f87de11d38a837f606131d5e4948a77993e6c2d379e33d52dd4")


def test_weight_trace_files_are_pinned(tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("MPCLUST_"):
            monkeypatch.delenv(key)
    source, out = tmp_path / "matrix.csv", tmp_path / "out"
    write_matrix(generate(WIDE).matrix, source)
    assert main(["cluster", str(source), "--mode", "impacc", "--seed", "1", "--t-max", "40",
                 "--weight-trace", "--out", str(out)]) == 0
    assert {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("obs_weight_trace.csv", "feature_score_trace.csv")
    } == {
        "obs_weight_trace.csv": "d8ae2f1cc0f2725ce10b34d266fb37d43c0523a898d4c0c7199072e0ce4b1658",
        "feature_score_trace.csv": "754ec539cad5281f084850e50e1e38bc1bb965b5776a3092ba8c4933c3392612",
    }
