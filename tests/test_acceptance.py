"""Acceptance gate: every criterion asserted at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import numpy as np

from mpclust.consensus import ConsensusState, consensus_of, update
from mpclust.cli import main
from mpclust.dataio import DataMatrix, write_matrix
from mpclust.dist import deviation_experiment, pairwise
from mpclust.hclust import cut_k, ward_linkage
from mpclust.metrics import ari, f1_features, select_by_score
from mpclust.pipeline import HyperParams, finalize_hierarchical, run, tune_minipatch_size
from mpclust.sampling import draw_uniform
from mpclust.synthgen import SynthSpec, generate

from oracles import confusion, naive_ward, pair_counting_ari, partitions_of_labels


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _blobs(n_half, n_feat, gap, seed):
    rng = np.random.default_rng(seed)
    x = np.vstack(
        [rng.normal(0, 1, (n_half, n_feat)), rng.normal(gap, 1, (n_half, n_feat))]
    )
    data = DataMatrix(
        x,
        tuple(f"r{i}" for i in range(2 * n_half)),
        tuple(f"c{j}" for j in range(n_feat)),
    )
    return data, np.array([0] * n_half + [1] * n_half)


def test_c01_ward_linkage_matches_naive_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 13))
        x = rng.random((n, int(rng.integers(1, 5))))
        dm = pairwise(x, "manhattan")
        dend = ward_linkage(dm)
        oracle_heights, oracle_partitions = naive_ward(n, dm.condensed)
        gap = float(np.abs(np.sort(dend.heights()) - np.sort(oracle_heights)).max())
        worst = max(worst, gap)
        assert gap < 1e-9
        for k in range(1, n + 1):
            assert partitions_of_labels(cut_k(dend, k)) == oracle_partitions[k]
    elapsed = time.perf_counter() - started
    _report(
        "C1 ward-linkage oracle",
        elapsed < 10.0,
        f"200 instances, max height gap {worst:.2e}, {elapsed:.1f}s < 10s",
    )


def test_c02_ari_matches_pair_counting():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        a = rng.integers(0, int(rng.integers(2, 7)), n)
        b = rng.integers(0, int(rng.integers(2, 7)), n)
        worst = max(worst, abs(ari(a, b) - pair_counting_ari(a, b)))
    assert worst < 1e-12
    vals = [ari(rng.integers(0, 4, 100), rng.integers(0, 4, 100)) for _ in range(1000)]
    mean = float(np.mean(vals))
    _report(
        "C2 ARI oracle",
        worst < 1e-12 and abs(mean) < 0.01,
        f"max |diff| {worst:.2e}, mean random ARI {mean:+.4f} within 0.01",
    )


def test_c03_consensus_matches_logged_recomputation():
    data, _ = _blobs(25, 10, 6.0, seed=42)  # 50 observations
    hp = HyperParams(k_final=2, seed=5, t_max=60, early_stop=False)
    res = run(data, "mpcc", hp, collect_patches=True)

    from oracles import brute_consensus

    brute = brute_consensus(50, res.patches)
    s = consensus_of(res.consensus)
    exact = bool(np.array_equal(brute, s))
    symmetric = bool(np.array_equal(s, s.T))
    in_range = bool(s.min() >= 0.0 and s.max() <= 1.0)
    conf = confusion(s)
    conf_ok = bool(conf.min() >= 0.0 and conf.max() <= 0.25)
    _report(
        "C3 consensus correctness",
        exact and symmetric and in_range and conf_ok,
        f"brute-force equality={exact}, symmetric={symmetric}, "
        f"S in [0,1]={in_range}, confusion in [0,0.25]={conf_ok}",
    )


def test_c04_hoeffding_bound_holds_empirically():
    started = time.perf_counter()
    rng = np.random.default_rng(11)
    vals = rng.random((30, 100))
    vals[0, 0], vals[-1, -1] = 0.0, 1.0
    data = DataMatrix(
        vals, tuple(f"r{i}" for i in range(30)), tuple(f"c{j}" for j in range(100))
    )
    trials = 10_000
    worst_margin = math.inf
    for m_feat in (5, 10, 20):
        table = deviation_experiment(
            data, "manhattan", m_feat, trials, [0.05, 0.1, 0.2, 0.3], seed=13
        )
        for eps, empirical, bound in table:
            se = math.sqrt(bound * (1 - bound) / trials)
            margin = bound + 3 * se - empirical
            worst_margin = min(worst_margin, margin)
            assert empirical <= bound + 3 * se, (m_feat, eps, empirical, bound)
    elapsed = time.perf_counter() - started
    _report(
        "C4 deviation bound",
        elapsed < 30.0,
        f"12 cells x {trials} subsamples, min slack {worst_margin:.4f}, "
        f"{elapsed:.1f}s < 30s",
    )


def test_c05_desk_scale_sparse_study():
    started = time.perf_counter()
    results = {}
    for snr in (4, 6, 8):
        impacc_ari, impacc_f1, hclust_ari = [], [], []
        for seed in range(5):
            spec = SynthSpec(
                snr=snr, n_obs=200, n_features=1000, n_signal=10,
                cluster_sizes=(8, 32, 48, 112), rho=0.5, seed=seed,
            )
            sd = generate(spec)
            res = run(sd.matrix, "impacc", HyperParams(k_final=4, seed=seed))
            impacc_ari.append(ari(res.labels, sd.labels))
            impacc_f1.append(
                f1_features(select_by_score(res.feature_scores), sd.signal_mask)
            )
            full = cut_k(ward_linkage(pairwise(sd.matrix.values, "manhattan")), 4)
            hclust_ari.append(ari(full, sd.labels))
        results[snr] = (
            float(np.median(impacc_ari)),
            float(np.median(impacc_f1)),
            float(np.median(hclust_ari)),
        )
    elapsed = time.perf_counter() - started

    ari8, f18, _ = results[8]
    ordering = all(results[s][0] >= results[s][2] for s in (4, 6, 8))
    ok = f18 >= 0.9 and ari8 >= 0.8 and ordering and elapsed < 300.0
    _report(
        "C5 desk-scale sparse study",
        ok,
        f"snr=8 median ARI {ari8:.3f} >= 0.8, F1 {f18:.3f} >= 0.9; "
        f"impacc beats full hclust at snr 4/6/8: {ordering}; {elapsed:.0f}s < 300s",
    )


def test_c06_no_sparse_matches_full_consensus_baseline():
    spec = SynthSpec(snr=10, n_obs=200, n_features=100, regime="no_sparse", seed=42)
    sd = generate(spec)
    hp = HyperParams(k_final=4, seed=42)

    t0 = time.perf_counter()
    res = run(sd.matrix, "mpcc", hp)
    mpcc_time = time.perf_counter() - t0
    mpcc_ari = ari(res.labels, sd.labels)

    # classic consensus baseline: 80% of observations, all features, oracle
    # K per subsample, identical iteration budget and bookkeeping
    values = sd.matrix.values
    n = values.shape[0]
    n_count = math.ceil(0.8 * n)
    t0 = time.perf_counter()
    state = ConsensusState.empty(n)
    for t in range(1, res.iterations_run + 1):
        rng = np.random.default_rng(np.random.SeedSequence(42, spawn_key=(9, t)))
        idx = draw_uniform(n, n_count, rng)
        labels = cut_k(ward_linkage(pairwise(values[idx], "manhattan")), 4)
        update(state, idx, labels)
        np.percentile(state.confusion_rows / n, 90)
    base_labels = finalize_hierarchical(state, 4)
    base_time = time.perf_counter() - t0
    base_ari = ari(base_labels, sd.labels)

    diff = abs(mpcc_ari - base_ari)
    ratio = mpcc_time / base_time
    _report(
        "C6 no-sparse regime",
        diff <= 0.05 and ratio < 0.5,
        f"ARI mpcc {mpcc_ari:.3f} vs baseline {base_ari:.3f} (|diff| {diff:.3f} "
        f"<= 0.05), time ratio {ratio:.2f} < 0.5 over {res.iterations_run} iterations",
    )


def test_c07_early_stopping_contract():
    data, _ = _blobs(40, 30, 9.0, seed=1)
    hp = HyperParams(k_final=2, seed=3)
    res = run(data, "mpcc", hp)
    t_max = hp.resolve_t_max(data.n_obs)
    stopped_early = res.stop_reason == "early_stop" and res.iterations_run < t_max
    tail = [r.confusion_pct for r in res.trace[-6:]]
    non_increasing = all(b <= a + 1e-5 for a, b in zip(tail, tail[1:]))
    _report(
        "C7 early stopping",
        stopped_early and non_increasing,
        f"stopped at {res.iterations_run}/{t_max} ({res.stop_reason}); "
        f"final-5 percentile trace within 1e-5: {non_increasing}",
    )


def test_c08_per_iteration_scaling():
    spec = SynthSpec(snr=6, n_obs=2000, n_features=500, n_signal=25, seed=4)
    sd = generate(spec)

    def per_iteration_seconds(n_frac, seed):
        hp = HyperParams(
            m_frac=0.05, n_frac=n_frac, seed=seed, early_stop=False,
            t_max=200, k_final=4,
        )
        t0 = time.perf_counter()
        res = run(sd.matrix, "mpcc", hp)
        return (time.perf_counter() - t0) / res.iterations_run

    per_iteration_seconds(0.0625, seed=1)  # warm-up
    base, quad = [], []
    for rep in range(3):  # alternate configs so load drift hits both equally
        base.append(per_iteration_seconds(0.0625, seed=9 + rep))
        quad.append(per_iteration_seconds(0.25, seed=9 + rep))
    ratio = float(np.median(quad)) / float(np.median(base))
    _report(
        "C8 complexity scaling",
        3.0 <= ratio <= 6.0,
        f"n_count 125 -> 500 at fixed m_count=25: median per-iteration time "
        f"x{ratio:.2f} in [3, 6]",
    )


def test_c09_determinism(tmp_path):
    rng = np.random.default_rng(17)
    x = np.vstack([rng.normal(0, 1, (30, 15)), rng.normal(7, 1, (30, 15))])
    m = DataMatrix(
        x, tuple(f"r{i}" for i in range(60)), tuple(f"c{j}" for j in range(15))
    )
    csv_path = tmp_path / "in.csv"
    write_matrix(m, csv_path)

    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = main(
            ["cluster", str(csv_path), "--mode", "impacc", "--k", "2",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    byte_identical = all(
        (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
        for f in ("labels.csv", "consensus.csv", "feature_scores.csv")
    )
    _report(
        "C9 determinism",
        byte_identical,
        f"impacc CLI reruns byte-identical: {byte_identical}",
    )


def test_c10_tuner_picks_cheapest_adequate_cell():
    data, _ = _blobs(40, 40, 10.0, seed=4)
    grid = [(0.1, 0.4), (0.05, 0.25), (0.1, 0.25)]
    result = tune_minipatch_size(data, "mpcc", grid, HyperParams(seed=6))
    cheapest = min(grid, key=lambda mn: mn[0] * mn[1] ** 2)
    ok = (
        (result.m_frac, result.n_frac) == cheapest
        and result.converged
        and result.max_confusion < 0.01
    )
    _report(
        "C10 minipatch tuner",
        ok,
        f"chose ({result.m_frac}, {result.n_frac}) == cheapest {cheapest}, "
        f"max confusion {result.max_confusion:.2e} < 0.01",
    )
