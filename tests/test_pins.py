"""Cross-commit pins: literal digests of the outputs, so a golden change is a diff of digests.

Each digest was taken on numpy 2.4.6 and scipy 1.17.1 from the code as it
was when its test was written. A change that moves a draw, a weight, a
partition or an output byte moves a digest here, and must name it.

The pins hold integers, and floats as raw bytes or ``%.17g`` text: ratios
of pair counts, and the weights and scores the adaptive modes compute from
them. Labels that pass through LAPACK's ``eigh`` (the spectral final step)
are pinned as partitions only, because another build can move an
eigenvector's last bits. Every synthetic matrix passes through LAPACK's
``cholesky`` (``synthgen.generate`` correlates the noise in blocks of 5),
so each pin below that starts from ``generate`` reads its bits:
``simulate``'s ``matrix.csv`` directly, the others through the runs on it.
The factor came out the same under every OpenBLAS kernel tried, and the
noise adds its products in a fixed order with no BLAS call, so these pins
hold on FMA and non-FMA kernels alike (CI runs them under both).
``hoeffding-check``'s bound passes through libm's ``exp`` and is checked
against ``hoeffding_bound`` instead of by digest.
"""

import hashlib

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
from mpclust.dist import hoeffding_bound

WIDE = SynthSpec(snr=6, n_obs=60, n_features=50, n_signal=5, seed=1, cluster_sizes=(3, 9, 14, 34))
TALL = SynthSpec(snr=6, n_obs=150, n_features=30, n_signal=5, seed=2)


def _digest(a, dtype="<f8"):
    """sha256 of ``a``: bytes as they are, anything else as an array of ``dtype``."""
    return hashlib.sha256(a if isinstance(a, bytes) else np.asarray(a, dtype).tobytes()).hexdigest()


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
        "consensus_csv": _digest((tmp_path / "consensus.csv").read_bytes()),
        "consensus_bin": _digest((tmp_path / "consensus.bin").read_bytes()),
    } == {
        "labels": "485a33a885a4d8c11105379991c88c5be937cd9b2000b3e44e5de87a93f4c253",
        "labels_k4": "61741c516adc50f5e66475bc37321fcb8be38c99198b52211d2d75ba874b76e7",
        "trace": "b9cfe1cd63ed4b324ae6577ac8d89db9512758aa82bb0a39d3d6e8ac4eecf0c2",
        "consensus_csv": "376e33e890e82e66d84dda21a4903296df8d012a5dd510a8e6718526759f8508",
        "consensus_bin": "0b61479d57eefe04b13b2912289346d0517eecdfa9fe176aa4614cbd4793a638",
    }


@pytest.mark.parametrize("mode, digests", [
    ("mpacc", {
        "labels": "9ce2c299a80425f7348d58f9a5dbdadacb60cb0aa12cfab3c05f2d52639ab4d0",
        "labels_k3": "8891a0261d8e5b5d9f62275e0d1fef56b9701a2dd5dadf21fe700ea3fcee0376",
        "obs_weights": "01e107a87738b93d79a2a9796e315839d9e8888b7f87f85f7f99ea6071ffedb9",
        "feature_scores": None,
        "trace": "5f04b64e7c8dfcfb4cdc90318ed957b2cfd03913ab09f39491f21767e83fe353",
        "consensus_csv": "431659f1b73bf2c12663435f43d218bbf1fb688119710a8a7c8e6328d410403a",
        "consensus_bin": "34c538980a60ab6abdd559eedb127a4a9b5f1059734e7b0cb8c197e2ab43b72c",
    }),
    ("impacc", {
        "labels": "e255debca95c76b8055d85dfbcc33db542710c89110836acd08118b8ca35a9ef",
        "labels_k3": "7bb707ae2da536f3b98b2d4cfda97b8c784836cde20b9d4d84b5f799b449fbcc",
        "obs_weights": "30acc8ad5eac5bb4ae7eae36cccb026580ba3c0d8ac41af587a933d5d0fad090",
        "feature_scores": "7aa3262e4b69e1f4bc02b6439539f5160a322318484d5def9415b18bfcb54ae8",
        "trace": "9362a543a930a546d39f9fe0bfd661722c9f5449f20795040410f2f1105abbdf",
        "consensus_csv": "909fab77d8fa7b35c53a6d1eb830e4fc590f57343c7c674c3a5b6c9c44d33507",
        "consensus_bin": "f6585a45d5fd6e68888a1bee349a2132e877f8d7787923b6fb6bd49200c00ced",
    }),
    ("mpcc", {
        "labels": "0dd4a488a8490ae404ffe280bbda636ddebac48d102eeea927ab47a9911bbecf",
        "labels_k3": "e9db02a134e49082e9eec91961fa86420c15914772533d3bcac04822e6c33450",
        "obs_weights": "e5557c83508eb848f8e7d8a2bc18a7db0de38e1f0141a69c498e65ab8def44ed",
        "feature_scores": None,
        "trace": "15926b61d91a6fdd545210c505ff58e8f1533ad4658773d9d2d2b01f335cc27e",
        "consensus_csv": "519fc8c066044e19d60e97756ac5d417c6d3c649b6bb146199f03043f36c1c74",
        "consensus_bin": "6752f053886b0092e8e06b241019502bda79ac1c8f4168522c0f928a03b4d607",
    }),
])
def test_adaptive_draws_are_pinned(mode, digests, tmp_path):
    # the wide shape in every mode: in the adaptive modes, 8 burn-in and 32 adaptive
    # iterations. Labels without k (the quantile cut) and at k = 3, and both exports
    data = generate(WIDE).matrix
    res = run(data, HyperParams(mode=mode, seed=1, t_max=40, early_stop=False))
    trace = [(r.n_clusters, r.confusion_pct, r.high_obs, r.high_feat) for r in res.trace]
    save_consensus_csv(res.consensus, data.row_ids, tmp_path / "consensus.csv")
    save_consensus_binary(res.consensus, tmp_path / "consensus.bin")
    assert {
        "labels": _digest(res.labels, "<i8"),
        "labels_k3": _digest(finalize_hierarchical(res.consensus, 3), "<i8"),
        "obs_weights": _digest(res.obs_weights),
        "feature_scores": None if res.feature_scores is None else _digest(res.feature_scores),
        "trace": _digest(trace),
        "consensus_csv": _digest((tmp_path / "consensus.csv").read_bytes()),
        "consensus_bin": _digest((tmp_path / "consensus.bin").read_bytes()),
    } == digests


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
    assert _digest(text.encode()) == (
        "2e072ad51e420f87de11d38a837f606131d5e4948a77993e6c2d379e33d52dd4")


def test_weight_trace_files_are_pinned(tmp_path, no_mpclust_env):
    source, out = tmp_path / "matrix.csv", tmp_path / "out"
    write_matrix(generate(WIDE).matrix, source)
    assert main(["cluster", str(source), "--mode", "impacc", "--seed", "1", "--t-max", "40",
                 "--weight-trace", "--out", str(out)]) == 0
    assert {
        name: _digest((out / name).read_bytes())
        for name in ("obs_weight_trace.csv", "feature_score_trace.csv")
    } == {
        "obs_weight_trace.csv": "d8ae2f1cc0f2725ce10b34d266fb37d43c0523a898d4c0c7199072e0ce4b1658",
        "feature_score_trace.csv": "754ec539cad5281f084850e50e1e38bc1bb965b5776a3092ba8c4933c3392612",
    }


@pytest.mark.parametrize("metric, digests", [
    ("manhattan", {"random": "20c8b1b3be2c0988fcb5ee19271bacd493c64e6db4299a0f538d5f5986fcfad2",
                   "input": "aba394725f7cf674993ab3b5fdfe0d43fd3dce48a6467daaf663aad0cb215b73"}),
    ("sq_euclidean", {"random": "e4187224f36e18c5c69bf8e374211c88488709dd9c20a8d47bb8bac2e57cfee4",
                      "input": "e368af8078d53b2a91e8f8caec6fb0ae10aa42cbb8713c62f6a2f4374ab024e5"}),
])
def test_hoeffding_table_is_pinned(metric, digests, tmp_path, no_mpclust_env):
    # the m_feat, eps and empirical columns: the empirical values are ratios of counts
    source = tmp_path / "matrix.csv"
    write_matrix(generate(SynthSpec(snr=6, n_obs=30, n_features=40, n_signal=5, seed=3)).matrix,
                 source)
    runs = {"random": (["--n-obs", "20", "--n-features", "50", "--m-feat", "5,10",
                        "--trials", "500", "--seed", "2"], 50),
            "input": (["--input", str(source), "--m-feat", "4,10",
                       "--eps", "0.01,0.02,0.05,0.1", "--trials", "300", "--seed", "7"], 40)}
    got = {}
    for name, (argv, m_total) in runs.items():
        out = tmp_path / f"{name}.csv"
        assert main(["hoeffding-check", *argv, "--metric", metric, "--out", str(out)]) == 0
        rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
        for m_feat, eps, _, bound in rows:
            assert float(bound) == hoeffding_bound(int(m_feat), m_total, float(eps))
        got[name] = _digest("\n".join(",".join(row[:3]) for row in rows).encode())
    assert got == digests


@pytest.mark.parametrize("regime, digests", [
    ("sparse", {
        "labels.csv": "2ea5b47383f6529e8bc772e5bee0f86eceb4c5d8614724b1ec8ba24128a74b18",
        "mask.csv": "0e0ad270d1c7b0b9633c52212350b0046e718b24fb5f0267a5285efc77eeb6c8",
        "matrix.csv": "36c637033df766adf7f7d36a06aacff39cb356185cb0f8078466957f7ee4eeba",
    }),
    ("weak_sparse", {
        "labels.csv": "2ea5b47383f6529e8bc772e5bee0f86eceb4c5d8614724b1ec8ba24128a74b18",
        "mask.csv": "0e0ad270d1c7b0b9633c52212350b0046e718b24fb5f0267a5285efc77eeb6c8",
        "matrix.csv": "02d13fbce9e61b822c13eb06bbb59e22b6d2640cf5f69a003d1e50bbbd4450e2",
    }),
    ("no_sparse", {
        "labels.csv": "2ea5b47383f6529e8bc772e5bee0f86eceb4c5d8614724b1ec8ba24128a74b18",
        "mask.csv": "f36b43c14b510a868ede2ceec00fd572fefb3b11e44ec98c415bc735fc8e829c",
        "matrix.csv": "c2c52ab4f155457344822d6a73203a27da28ed91db4d9fac69afa2e03d307b47",
    }),
], ids=["sparse", "weak_sparse", "no_sparse"])
def test_simulate_files_are_pinned(regime, digests, tmp_path, no_mpclust_env):
    out = tmp_path / "sim"
    assert main(["simulate", "--regime", regime, "--snr", "6", "--n-obs", "40", "--n-features", "20",
                 "--n-signal", "5", "--seed", "1", "--out", str(out)]) == 0
    assert {name: _digest((out / name).read_bytes())
            for name in ("labels.csv", "mask.csv", "matrix.csv")} == digests


def test_benchmark_rows_are_pinned(tmp_path, no_mpclust_env):
    # every column but seconds, as text: ARI and F1 are ratios of counts
    out = tmp_path / "bench.csv"
    assert main(["benchmark", "--snr", "3,6", "--reps", "1", "--n-obs", "60", "--n-features", "50",
                 "--n-signal", "10", "--methods", "mpcc,mpacc,impacc,hclust", "--seed", "1",
                 "--out", str(out)]) == 0
    assert [row.rsplit(",", 1)[0] for row in out.read_text().splitlines()] == [
        "method,snr,seed,ari,f1",
        "hclust,3,1,0.129213,",
        "hclust,6,1,0.557778,",
        "impacc,3,1,0.179709,0.470588",
        "impacc,6,1,0.582716,0.750000",
        "mpacc,3,1,0.124364,",
        "mpacc,6,1,0.552976,",
        "mpcc,3,1,0.122422,",
        "mpcc,6,1,0.627905,",
    ]
