import numpy as np
import pytest

from mpclust.consensus import ConsensusState, confusion, consensus_of, update
from mpclust.dataio import DataMatrix
from mpclust.metrics import ari
from mpclust.pipeline import (
    HyperParams,
    finalize_hierarchical,
    finalize_spectral,
    run,
    tune_minipatch_size,
)
from mpclust.sampling import EEConfig, SamplerState, update_obs_weights
from mpclust.synthgen import SynthSpec, generate

from oracles import brute_consensus


def _blobs(n_half=30, n_feat=20, gap=8.0, seed=0):
    rng = np.random.default_rng(seed)
    x = np.vstack(
        [rng.normal(0, 1, (n_half, n_feat)), rng.normal(gap, 1, (n_half, n_feat))]
    )
    data = DataMatrix(
        x,
        tuple(f"r{i}" for i in range(2 * n_half)),
        tuple(f"c{j}" for j in range(n_feat)),
    )
    truth = np.array([0] * n_half + [1] * n_half)
    return data, truth


class TestRun:
    def test_blobs_saturated_consensus(self):
        data, truth = _blobs()
        hp = HyperParams(k_final=2, seed=7, early_stop=False, t_max=300)
        res = run(data, "mpcc", hp)
        n = 30
        within = min(res.s[:n, :n].min(), res.s[n:, n:].min())
        across = max(res.s[:n, n:].max(), 0.0)
        assert within > 0.9 and across < 0.1
        assert ari(res.labels, truth) == 1.0

    def test_t_max_zero_rejected(self):
        data, _ = _blobs()
        with pytest.raises(ValueError):
            run(data, "mpcc", HyperParams(k_final=2, t_max=0))

    def test_bitwise_determinism(self):
        data, _ = _blobs(seed=3)
        hp = HyperParams(k_final=2, seed=11)
        a = run(data, "mpcc", hp)
        b = run(data, "mpcc", hp)
        assert np.array_equal(a.s, b.s)
        assert np.array_equal(a.labels, b.labels)
        assert a.iterations_run == b.iterations_run
        assert [r.confusion_pct for r in a.trace] == [r.confusion_pct for r in b.trace]

    def test_parallel_matches_sequential(self):
        data, _ = _blobs(seed=5)
        hp = HyperParams(k_final=2, seed=13)
        seq = run(data, "mpcc", hp)
        par = run(data, "mpcc", hp, workers=4)
        assert np.array_equal(seq.s, par.s)
        assert np.array_equal(seq.labels, par.labels)
        assert seq.iterations_run == par.iterations_run

    def test_bad_mode(self):
        data, _ = _blobs()
        with pytest.raises(ValueError, match="mode"):
            run(data, "kmeans", HyperParams())

    def test_infeasible_counts(self):
        data, _ = _blobs(n_half=3)
        with pytest.raises(ValueError, match="infeasible"):
            run(data, "mpcc", HyperParams(n_frac=0.01))

    def test_isolated_observations_abort(self):
        data, _ = _blobs()
        with pytest.raises(RuntimeError, match="never sampled"):
            run(data, "mpcc", HyperParams(k_final=2, t_max=2, seed=0))

    def test_patch_log_consistent(self):
        data, _ = _blobs(seed=9)
        hp = HyperParams(k_final=2, seed=1, t_max=40, early_stop=False)
        res = run(data, "mpcc", hp, collect_patches=True)
        assert len(res.patches) == res.iterations_run
        assert np.array_equal(brute_consensus(60, res.patches), res.s)

    def test_trace_percentile_matches_exact_recompute(self):
        data, _ = _blobs(seed=2)
        hp = HyperParams(k_final=2, seed=4, t_max=25, early_stop=False)
        res = run(data, "mpcc", hp, collect_patches=True)
        # replay the log and compare the final percentile
        state = ConsensusState.empty(60)
        for idx, labels in res.patches:
            update(state, idx, labels)
        expected = float(np.percentile(confusion(consensus_of(state)), 90))
        assert res.trace[-1].confusion_pct == pytest.approx(expected, abs=1e-12)

    def test_adaptive_modes_run_and_score(self):
        spec = SynthSpec(
            snr=8, n_obs=120, n_features=300, n_signal=10, seed=2,
            cluster_sizes=(5, 19, 29, 67),
        )
        sd = generate(spec)
        res = run(sd.matrix, "impacc", HyperParams(k_final=4, seed=3))
        assert res.feature_scores is not None
        assert res.feature_scores.min() >= 0 and res.feature_scores.max() <= 1
        sig = res.feature_scores[sd.signal_mask].mean()
        noise = res.feature_scores[~sd.signal_mask].mean()
        assert sig > noise
        res_a = run(sd.matrix, "mpacc", HyperParams(k_final=4, seed=3))
        assert res_a.feature_scores is None
        assert abs(res_a.obs_weights.sum() - 1) < 1e-9

    def test_auto_k_quantile_cut(self):
        data, truth = _blobs(gap=12.0, seed=8)
        res = run(data, "mpcc", HyperParams(seed=5, early_stop=False, t_max=200))
        assert ari(res.labels, truth) == 1.0

    def test_weight_trace_collection(self):
        spec = SynthSpec(snr=6, n_obs=60, n_features=50, n_signal=5, seed=1,
                         cluster_sizes=(3, 9, 14, 34))
        sd = generate(spec)
        res = run(sd.matrix, "impacc", HyperParams(k_final=4, seed=2, t_max=30,
                                                   early_stop=False),
                  collect_weight_trace=True)
        assert len(res.weight_trace) == res.iterations_run
        t, obs_w, feat_scores = res.weight_trace[-1]
        assert obs_w.shape == (60,) and feat_scores.shape == (50,)

    def test_obs_weights_match_exact_confusion_replay(self):
        # run() feeds the incrementally kept confusion rows to the weights;
        # replaying its patch log with confusion of the dense consensus must
        # reproduce every traced weight vector
        data, _ = _blobs(gap=1.5, seed=6)
        hp = HyperParams(k_final=2, seed=7, t_max=40, early_stop=False)
        res = run(data, "mpacc", hp, collect_patches=True, collect_weight_trace=True)
        assert len(res.patches) == len(res.weight_trace) == 40

        n = data.n_obs
        burn = EEConfig(frac=hp.n_frac, epochs=hp.epochs_e).burn_in(n)
        state = ConsensusState.empty(n)
        obs = SamplerState.uniform(n, "observations")
        for t, ((idx, labels), (t_rec, weights, _)) in enumerate(
            zip(res.patches, res.weight_trace), start=1
        ):
            if t > burn:
                update_obs_weights(obs, confusion(consensus_of(state)), t, hp.alpha_i)
            obs.record(idx)
            update(state, idx, labels)
            assert t_rec == t
            assert np.abs(weights - obs.weights).max() <= 1e-12
        assert np.ptp(obs.weights) > 0  # the weights did move off uniform


class TestFinalize:
    def test_hierarchical_perfect_blocks(self):
        s = np.zeros((9, 9))
        for blk in (slice(0, 2), slice(2, 6), slice(6, 9)):
            s[blk, blk] = 1.0
        labels = finalize_hierarchical(s, 3)
        assert ari(labels, [0, 0, 1, 1, 1, 1, 2, 2, 2]) == 1.0

    def test_hierarchical_extremes(self):
        s = np.eye(5)
        assert finalize_hierarchical(s, 1).max() == 0
        assert len(np.unique(finalize_hierarchical(s, 5))) == 5

    def test_hierarchical_k_out_of_range(self):
        with pytest.raises(ValueError):
            finalize_hierarchical(np.eye(4), 5)

    def test_spectral_perfect_blocks(self):
        s = np.zeros((12, 12))
        truth = []
        for b, blk in enumerate((slice(0, 4), slice(4, 8), slice(8, 12))):
            s[blk, blk] = 1.0
            truth += [b] * 4
        assert ari(finalize_spectral(s, 3, seed=1), truth) == 1.0

    def test_spectral_identity_singletons(self):
        labels = finalize_spectral(np.eye(5), 5, seed=0)
        assert len(np.unique(labels)) == 5

    def test_spectral_all_ones_single(self):
        assert finalize_spectral(np.ones((4, 4)), 1, seed=0).max() == 0

    def test_spectral_zero_row_rejected(self):
        s = np.eye(4)
        s[2, 2] = 0.0
        with pytest.raises(ValueError, match="zero"):
            finalize_spectral(s, 2)


class TestTuner:
    def test_separable_picks_cheapest(self):
        data, _ = _blobs(n_half=40, n_feat=40, gap=10.0, seed=4)
        grid = [(0.1, 0.4), (0.05, 0.25), (0.1, 0.25)]
        result = tune_minipatch_size(data, "mpcc", grid, HyperParams(seed=6))
        assert (result.m_frac, result.n_frac) == (0.05, 0.25)  # smallest m*n^2
        assert result.converged and result.max_confusion < 0.01
        assert len(result.cells) == 1  # search stopped at the first qualifying cell

    def test_single_cell_grid(self):
        data, _ = _blobs(seed=6)
        result = tune_minipatch_size(data, "mpcc", [(0.2, 0.3)], HyperParams(seed=1))
        assert (result.m_frac, result.n_frac) == (0.2, 0.3)

    def test_pure_noise_flags_non_convergence(self):
        rng = np.random.default_rng(0)
        data = DataMatrix(
            rng.standard_normal((40, 10)),
            tuple(f"r{i}" for i in range(40)),
            tuple(f"c{j}" for j in range(10)),
        )
        result = tune_minipatch_size(
            data, "mpcc", [(0.5, 0.3)], HyperParams(seed=2, t_max=60, early_stop=False)
        )
        assert not result.converged
        assert result.max_confusion >= 0.01

    def test_empty_grid(self):
        data, _ = _blobs()
        with pytest.raises(ValueError):
            tune_minipatch_size(data, "mpcc", [], HyperParams())


class TestHyperParams:
    def test_defaults_valid(self):
        HyperParams().validate()

    @pytest.mark.parametrize(
        "field,value",
        [("m_frac", 0.0), ("n_frac", 1.5), ("h", 0.0), ("eta", -0.1),
         ("alpha_i", 2.0), ("tau", -1.0), ("final_algo", "dbscan"),
         ("metric", "cosine"), ("seed", -1)],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            HyperParams(**{field: value}).validate()

    def test_t_max_budget_capped(self):
        hp = HyperParams(n_frac=0.001)
        assert hp.resolve_t_max(10_000) == 5000
