import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.cluster.vq import ClusterError, kmeans2

from mpclust import dist, pipeline, sampling
from mpclust.cli import main
from mpclust.consensus import (
    ConsensusState,
    PairScratch,
    consensus_of,
    save_consensus_binary,
    save_consensus_csv,
    update,
)
from mpclust.dataio import DataMatrix, write_matrix
from mpclust.dist import pairwise
from mpclust.hclust import cut_k, cut_quantile, ward_linkage
from mpclust.metrics import ari
from mpclust.pipeline import (
    HyperParams,
    _final_labels,
    finalize_hierarchical,
    finalize_spectral,
    run,
    tune_minipatch_size,
)
from mpclust.sampling import SamplerState, update_obs_weights
from mpclust.synthgen import SynthSpec, generate

from oracles import (
    add_at_score_features,
    array_fisher_yates,
    brute_consensus,
    confusion,
    dense_index_dissimilarity,
    dense_laplacian_embedding,
    sequential_mpcc,
)


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
        hp = HyperParams(k=2, seed=7, early_stop=False, t_max=300)
        res = run(data, hp)
        n, s = 30, consensus_of(res.consensus)
        within = min(s[:n, :n].min(), s[n:, n:].min())
        across = max(s[:n, n:].max(), 0.0)
        assert within > 0.9 and across < 0.1
        assert ari(res.labels, truth) == 1.0

    def test_t_max_zero_rejected(self):
        data, _ = _blobs()
        with pytest.raises(ValueError):
            run(data, HyperParams(k=2, t_max=0))

    def test_bitwise_determinism(self):
        data, _ = _blobs(seed=3)
        hp = HyperParams(k=2, seed=11)
        a = run(data, hp)
        b = run(data, hp)
        assert np.array_equal(consensus_of(a.consensus), consensus_of(b.consensus))
        assert np.array_equal(a.labels, b.labels)
        assert a.iterations_run == b.iterations_run
        assert [r.confusion_pct for r in a.trace] == [r.confusion_pct for r in b.trace]

    @pytest.mark.parametrize("metric", ["manhattan", "sq_euclidean"])
    @pytest.mark.parametrize("mode", ["mpcc", "mpacc", "impacc"])
    def test_unit_rescale_changes_no_output(self, mode, metric):
        # one global min-max map scales every patch distance by one constant, which
        # moves no Ward merge, quantile cut or ANOVA F statistic: the reason the CLI
        # has no --rescale. The 60x50 run of test_pins.py::test_adaptive_draws_are_pinned
        spec = SynthSpec(snr=6, n_obs=60, n_features=50, n_signal=5, seed=1,
                         cluster_sizes=(3, 9, 14, 34))
        data = generate(spec).matrix
        hp = HyperParams(mode=mode, metric=metric, seed=1, t_max=40, early_stop=False)
        v = data.values
        unit = DataMatrix((v - v.min()) / (v.max() - v.min()), data.row_ids, data.col_ids)
        a, b = run(data, hp), run(unit, hp)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.consensus.pair_same, b.consensus.pair_same)
        assert np.array_equal(a.consensus.pair_seen, b.consensus.pair_seen)
        assert np.array_equal(a.obs_weights, b.obs_weights)
        if mode == "impacc":
            assert np.array_equal(a.feature_scores, b.feature_scores)
        else:
            assert a.feature_scores is None and b.feature_scores is None

        def trace(res):
            return [(r.n_clusters, r.confusion_pct, r.high_obs, r.high_feat) for r in res.trace]

        assert trace(a) == trace(b)

    def test_bad_mode(self, monkeypatch):
        def no_patches(*args, **kwargs):
            raise AssertionError("a minipatch was clustered")

        with pytest.raises(ValueError, match=r"^mode must be one of .*, got 'bogus'$"):
            HyperParams(mode="bogus")
        monkeypatch.setattr(pipeline, "pairwise", no_patches)
        data, _ = _blobs()
        with pytest.raises(ValueError, match=r"^mode must be one of"):
            run(data, HyperParams(mode="bogus"))

    @pytest.mark.parametrize("setting, value, message", [
        ("epochs_e", 0, "epochs_e must be >= 1, got 0"),
        ("t_max", 0, "t_max must be >= 1 (no iterations possible), got 0"),
        ("k", 0, "k must be >= 1, got 0"),
        ("seed", -1, "seed must be nonnegative, got -1"),
        ("final_algo", "x", "final_algo must be one of ('hierarchical', 'spectral'), got 'x'"),
        ("metric", "x", "metric must be one of ('manhattan', 'sq_euclidean'), got 'x'"),
        ("mode", "x", "mode must be one of ('mpcc', 'mpacc', 'impacc'), got 'x'"),
    ], ids=["epochs_e", "t_max", "k", "seed", "final_algo", "metric", "mode"])
    def test_rejection_names_the_value(self, setting, value, message):
        with pytest.raises(ValueError) as exc:
            HyperParams(**{setting: value})
        assert str(exc.value) == message

    def test_choices_are_checked_first(self):
        with pytest.raises(ValueError, match=r"^final_algo must be one of"):
            HyperParams(final_algo="x", n_frac=0.0)

    def test_infeasible_counts(self):
        data, _ = _blobs(n_half=3)
        with pytest.raises(ValueError, match="infeasible"):
            run(data, HyperParams(n_frac=0.01))

    @pytest.mark.parametrize("final_algo", ["hierarchical", "spectral"])
    def test_k_above_n_rejected_before_the_loop(self, monkeypatch, final_algo):
        def no_patches(*args, **kwargs):
            raise AssertionError("a minipatch was clustered")

        monkeypatch.setattr(pipeline, "pairwise", no_patches)
        data, _ = _blobs()
        with pytest.raises(ValueError, match=r"k 61 exceeds the N=60 "):
            run(data, HyperParams(k=61, final_algo=final_algo))
        finalize = finalize_hierarchical if final_algo == "hierarchical" else finalize_spectral
        with pytest.raises(ValueError, match=r"^k must be in 1\.\.60, got 61$"):
            finalize(ConsensusState.empty(60), 61)

    def test_isolated_observations_abort(self):
        # 4 patches of 15 could cover all 60 rows; this seed's uniform draws miss 18
        data, _ = _blobs()
        with pytest.raises(RuntimeError, match="^18 observation.s. never sampled after 4 iterations; "
                                               "raise t_max above 4$"):
            run(data, HyperParams(k=2, t_max=4, seed=0))

    @pytest.mark.parametrize("mode", ["mpcc", "mpacc"])
    def test_t_max_below_one_pass_rejected_before_the_loop(self, monkeypatch, mode):
        def no_patches(*args, **kwargs):
            raise AssertionError("a minipatch was clustered")

        monkeypatch.setattr(pipeline, "pairwise", no_patches)
        data, _ = _blobs()
        with pytest.raises(ValueError, match=r"^t_max 3 is below 4, the iterations that minipatches "
                                             r"of 15 observation\(s\) take to sample each of N=60 once$"):
            run(data, HyperParams(k=2, t_max=3, mode=mode))

    def test_patch_log_consistent(self):
        data, _ = _blobs(seed=9)
        hp = HyperParams(k=2, seed=1, t_max=40, early_stop=False)
        res = run(data, hp, collect_arrays=True)
        patches = [(rec.obs_idx, rec.labels) for rec in res.trace]
        assert len(patches) == res.iterations_run
        assert np.array_equal(brute_consensus(60, patches), consensus_of(res.consensus))

    def test_mpcc_patches_are_a_function_of_the_data_the_settings_and_t(self):
        # every patch drawn and labelled from (data, hp, t) alone, last t first, with
        # fresh samplers and no consensus, then folded in patch order: the run, bit for bit
        data = generate(SynthSpec(snr=6, n_obs=90, n_features=80, n_signal=8, seed=5)).matrix
        hp = HyperParams(k=3, seed=4)
        res = run(data, hp, collect_arrays=True)
        (n, m), n_count = data.values.shape, hp.n_count(data.n_obs)
        patches = {}
        for t in range(res.iterations_run, 0, -1):
            obs = SamplerState.uniform(n, n_count, hp.epochs_e, "quantile", hp.theta)
            feat = SamplerState.uniform(m, hp.m_count(m), hp.epochs_e, "mean_plus_sd", hp.tau)
            obs_idx, feat_idx = pipeline._draw(t, hp, obs, feat, None)
            view = pipeline._gather(data.values, obs_idx, feat_idx)
            patches[t] = obs_idx, cut_quantile(ward_linkage(pairwise(view, hp.metric)), hp.h)
        state = ConsensusState.empty(n, max_count=hp.resolve_t_max(n))
        for t, rec in enumerate(res.trace, 1):
            obs_idx, labels = patches[t]
            assert obs_idx.tobytes() == rec.obs_idx.tobytes() and labels.tobytes() == rec.labels.tobytes()
            update(state, obs_idx, labels)
        for name in ("pair_same", "pair_seen", "diag", "confusion_rows"):
            assert getattr(state, name).tobytes() == getattr(res.consensus, name).tobytes()
        assert _final_labels(state, hp).tobytes() == res.labels.tobytes()

    @pytest.mark.parametrize("mode", ["mpcc", "mpacc", "impacc"])
    def test_ties_inside_a_patch_go_by_ascending_observation_index(self, mode):
        # row 1 is at Hamming distance 1 from rows 0 and 2, which are 2 apart: Ward's
        # first merge is a tie, which the patch's rows, gathered in index order, decide
        binary = np.array([[1, 0], [0, 0], [0, 1]], dtype=float)
        data = DataMatrix(binary, ("a", "b", "c"), ("x", "y"))
        hp = HyperParams(n_frac=1.0, m_frac=1.0, t_max=3, h=0.5, k=2, early_stop=False, mode=mode)
        res = run(data, hp, collect_arrays=True)
        assert [(rec.obs_idx.tolist(), rec.labels.tolist()) for rec in res.trace] == [([0, 1, 2], [0, 0, 1])] * 3
        view = pipeline._gather(binary, np.array([2, 1, 0]), np.arange(2))
        labels = cut_quantile(ward_linkage(pairwise(view, hp.metric)), hp.h)
        assert labels.tolist() == [0, 0, 1]  # gathered the other way round, row 1 joins row 2
        # so a reordered input file reorders the ties: read bottom up, b joins c
        flipped = run(DataMatrix(binary[::-1].copy(), ("c", "b", "a"), ("x", "y")), hp, collect_arrays=True)
        assert flipped.trace[0].labels.tolist() == [0, 0, 1]
        patches = run(_blobs()[0], HyperParams(k=2, seed=3, t_max=30, mode=mode), collect_arrays=True).trace
        assert all((np.diff(rec.obs_idx) > 0).all() for rec in patches)

    def test_trace_percentile_matches_exact_recompute(self):
        data, _ = _blobs(seed=2)
        hp = HyperParams(k=2, seed=4, t_max=25, early_stop=False)
        res = run(data, hp, collect_arrays=True)
        # replay the log and compare the final percentile
        state = ConsensusState.empty(60)
        for rec in res.trace:
            update(state, rec.obs_idx, rec.labels)
        expected = float(np.percentile(confusion(consensus_of(state)), 90))
        assert res.trace[-1].confusion_pct == pytest.approx(expected, abs=1e-12)

    def test_records_hold_no_arrays_without_the_flag(self):
        data, _ = _blobs(seed=2)
        for mode in ("mpcc", "impacc"):
            res = run(data, HyperParams(k=2, seed=4, t_max=25, early_stop=False, mode=mode))
            assert len(res.trace) == res.iterations_run == 25
            assert all(rec.obs_idx is rec.labels is rec.obs_weights is rec.feature_scores is None
                       for rec in res.trace)

    def test_records_hold_their_own_arrays_with_the_flag(self):
        data, _ = _blobs(seed=2)
        hp = HyperParams(k=2, seed=4, t_max=25, early_stop=False)
        for mode in ("mpcc", "impacc"):
            res = run(data, replace(hp, mode=mode), collect_arrays=True)
            for rec in res.trace:
                assert rec.obs_idx.shape == rec.labels.shape == (hp.n_count(60),)
                assert rec.obs_weights.shape == (60,)
                assert (rec.feature_scores is None) == (mode == "mpcc")
            arrays = [a for rec in res.trace for a in (rec.obs_idx, rec.labels, rec.obs_weights)]
            assert len({id(a) for a in arrays}) == len(arrays)  # no two records share an array
            assert np.array_equal(res.trace[-1].obs_weights, res.obs_weights)

    def test_counters_sized_from_t_max(self):
        data, _ = _blobs()
        for t_max, dtype in ((30, np.uint8), (256, np.uint16)):
            res = run(data, HyperParams(k=2, seed=1, t_max=t_max))
            assert res.consensus.pair_seen.dtype == res.consensus.diag.dtype == dtype

    @pytest.mark.parametrize("n_frac_b", [0.25, 0.4])
    def test_interleaved_runs_keep_their_own_buffers(self, monkeypatch, n_frac_b):
        # run b starts inside run a's loop, between a's distances and its
        # Ward tree, in another mode and with the same or another patch size;
        # each result must be what that run gives alone
        data = generate(SynthSpec(snr=6, n_obs=80, n_features=60, n_signal=6, seed=4)).matrix
        runs = {
            "a": HyperParams(seed=3, n_frac=0.25, t_max=30, early_stop=False),
            "b": HyperParams(seed=8, n_frac=n_frac_b, t_max=25, early_stop=False, mode="impacc"),
        }

        def outcome(res):
            trace = [(r.iteration, r.n_clusters, r.confusion_pct, r.high_obs, r.high_feat)
                     for r in res.trace]
            patches = [(rec.obs_idx.tolist(), rec.labels.tolist()) for rec in res.trace]
            s = consensus_of(res.consensus)
            return s.tobytes(), res.labels.tolist(), res.feature_scores, trace, patches

        alone = {k: run(data, runs[k], collect_arrays=True) for k in runs}
        nested = []
        calls = []
        real_ward = pipeline.ward_linkage

        def ward_starting_b(*args, **kwargs):
            calls.append(None)
            if len(calls) == 10:
                nested.append(run(data, runs["b"], collect_arrays=True))
            return real_ward(*args, **kwargs)

        monkeypatch.setattr(pipeline, "ward_linkage", ward_starting_b)
        together = {"a": run(data, runs["a"], collect_arrays=True), "b": nested[0]}
        for k in runs:
            got, want = outcome(together[k]), outcome(alone[k])
            assert got[:2] == want[:2] and got[3:] == want[3:]
            assert np.array_equal(got[2], want[2]) if k == "b" else got[2] is None
            assert all(rec.obs_idx.flags.owndata and rec.labels.flags.owndata
                       for rec in together[k].trace)

    @pytest.mark.parametrize("mode", ["mpcc", "impacc"])
    def test_reference_kernels_give_the_same_run(self, monkeypatch, mode):
        # the ANOVA and the uniform draws swapped for their row-by-row
        # references must leave every output of the run bit for bit
        data = generate(SynthSpec(snr=6, n_obs=90, n_features=80, n_signal=8, seed=5)).matrix
        hp = HyperParams(seed=4, t_max=40, early_stop=False, mode=mode)

        def outcome(res):
            c = res.consensus
            counters = [a.tobytes() for a in (c.pair_same, c.pair_seen, c.diag, c.confusion_rows)]
            scores = None if res.feature_scores is None else res.feature_scores.tobytes()
            pct = [r.confusion_pct for r in res.trace]
            return res.labels.tobytes(), counters, scores, res.obs_weights.tobytes(), pct

        plain = outcome(run(data, hp))
        calls = {"score": 0, "draw": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(pipeline, "score_features", counted("score", add_at_score_features))
        monkeypatch.setattr(pipeline, "draw_uniform", counted("draw", array_fisher_yates))
        monkeypatch.setattr(sampling, "draw_uniform", counted("draw", array_fisher_yates))
        assert outcome(run(data, hp)) == plain
        assert calls["draw"] > 0 and (calls["score"] > 0) == (mode == "impacc")

    def test_single_patch_support_is_scored(self):
        # one iteration over every observation: the only patch's support
        # is all the importance there is, so it must reach the scores
        data, _ = _blobs(n_feat=20, seed=6)
        hp = HyperParams(k=2, seed=5, n_frac=1.0, t_max=1, mode="impacc")
        res = run(data, hp, collect_arrays=True)
        assert res.iterations_run == 1 and res.trace[0].n_clusters >= 2
        scored = np.flatnonzero(res.feature_scores)
        assert 1 <= scored.size <= hp.m_count(20)
        assert (res.feature_scores[scored] == 1.0).all()  # one hit in one sampling
        assert np.array_equal(res.trace[-1].feature_scores, res.feature_scores)

    def test_adaptive_modes_run_and_score(self):
        spec = SynthSpec(
            snr=8, n_obs=120, n_features=300, n_signal=10, seed=2,
            cluster_sizes=(5, 19, 29, 67),
        )
        sd = generate(spec)
        res = run(sd.matrix, HyperParams(mode="impacc", k=4, seed=3))
        assert res.feature_scores is not None
        assert res.feature_scores.min() >= 0 and res.feature_scores.max() <= 1
        sig = res.feature_scores[sd.signal_mask].mean()
        noise = res.feature_scores[~sd.signal_mask].mean()
        assert sig > noise
        res_a = run(sd.matrix, HyperParams(mode="mpacc", k=4, seed=3))
        assert res_a.feature_scores is None
        assert abs(res_a.obs_weights.sum() - 1) < 1e-9

    def test_auto_k_quantile_cut(self):
        data, truth = _blobs(gap=12.0, seed=8)
        res = run(data, HyperParams(seed=5, early_stop=False, t_max=200))
        assert ari(res.labels, truth) == 1.0

    def test_weight_trace_collection(self):
        spec = SynthSpec(snr=6, n_obs=60, n_features=50, n_signal=5, seed=1,
                         cluster_sizes=(3, 9, 14, 34))
        sd = generate(spec)
        res = run(sd.matrix, HyperParams(mode="impacc", k=4, seed=2, t_max=30,
                                                   early_stop=False),
                  collect_arrays=True)
        assert len(res.trace) == res.iterations_run
        obs_w, feat_scores = res.trace[-1].obs_weights, res.trace[-1].feature_scores
        assert obs_w.shape == (60,) and feat_scores.shape == (50,)

    def test_obs_weights_match_exact_confusion_replay(self):
        # run() feeds the incrementally kept confusion rows to the weights;
        # replaying its patch log with confusion of the dense consensus must
        # reproduce every traced weight vector
        data, _ = _blobs(gap=1.5, seed=6)
        hp = HyperParams(k=2, seed=7, t_max=40, early_stop=False, mode="mpacc")
        res = run(data, hp, collect_arrays=True)
        assert len(res.trace) == 40

        n = data.n_obs
        burn = SamplerState.uniform(n, hp.n_count(n), hp.epochs_e, "quantile", hp.theta).burn_in
        state = ConsensusState.empty(n)
        weights = np.full(n, 1.0 / n)
        for t, rec in enumerate(res.trace, start=1):
            if t > burn:
                conf = confusion(consensus_of(state))
                weights = update_obs_weights(weights, conf, state.diag, t, hp.alpha_i)
            update(state, rec.obs_idx, rec.labels)
            assert rec.iteration == t
            assert np.abs(rec.obs_weights - weights).max() <= 1e-12
        assert np.ptp(weights) > 0  # the weights did move off uniform

    def test_feature_scores_match_recount_from_log(self, monkeypatch):
        # log each iteration's feature draw and the features its ANOVA supports
        # through pass-through wrappers; support hits over draws, recounted from
        # the log, must be every traced score vector and the run's, bit for bit
        spec = SynthSpec(snr=6, n_obs=60, n_features=50, n_signal=5, seed=1,
                         cluster_sizes=(3, 9, 14, 34))
        data = generate(spec).matrix
        hp = HyperParams(mode="impacc", k=4, seed=2, t_max=60, early_stop=False)
        drawn, supported = [], {}

        def logged_draw(state, t, rng):
            idx = sampling.ee_prob_next(state, t, rng)
            if state.weights.size == data.n_features:  # the observations' draw is n = 60
                drawn.append(idx)
            return idx

        def logged_score(view, labels, eta):
            support, p = sampling.score_features(view, labels, eta)
            supported[len(drawn)] = drawn[-1][support]
            return support, p

        monkeypatch.setattr(pipeline, "ee_prob_next", logged_draw)
        monkeypatch.setattr(pipeline, "score_features", logged_score)
        res = run(data, hp, collect_arrays=True)
        assert len(drawn) == len(res.trace) == 60 and sum(map(len, supported.values())) > 0

        draws = np.zeros(data.n_features, dtype=np.int64)
        hits = np.zeros(data.n_features, dtype=np.int64)
        for t, (idx, rec) in enumerate(zip(drawn, res.trace), start=1):
            draws[idx] += 1
            hits[supported.get(t, [])] += 1
            assert rec.feature_scores.tobytes() == (hits / np.maximum(1, draws)).tobytes()
        assert res.feature_scores.tobytes() == res.trace[-1].feature_scores.tobytes()

    @pytest.mark.parametrize("mode", pipeline.MODES)
    def test_every_patch_has_n_count_observations(self, mode):
        # n_frac 0.23 of N=60: patches of 14 in 5 blocks per epoch, the
        # last of which wraps to its epoch's start; t_max runs well past burn-in
        data, _ = _blobs()
        hp = HyperParams(k=2, seed=2, n_frac=0.23, t_max=40, early_stop=False, mode=mode)
        res = run(data, hp, collect_arrays=True)
        assert len(res.trace) == 40
        for rec in res.trace:
            assert rec.obs_idx.size == np.unique(rec.obs_idx).size == hp.n_count(data.n_obs)

    @pytest.mark.parametrize("mode", ["mpcc", "impacc"])
    def test_one_ward_linkage_per_patch_then_one_final(self, monkeypatch, mode):
        # log every Ward tree through a pass-through wrapper: one per iteration
        # over the patch's n_count leaves, then one over all N for the final step
        data, _ = _blobs()
        hp = HyperParams(k=2, seed=2, t_max=30, mode=mode)
        shapes = []

        def logged_ward(d):
            z = ward_linkage(d)
            assert type(z) is np.ndarray and z.dtype == np.float64
            shapes.append(z.shape)
            return z

        monkeypatch.setattr(pipeline, "ward_linkage", logged_ward)
        res = run(data, hp)
        n_count = hp.n_count(data.n_obs)
        assert shapes == [(n_count - 1, 4)] * len(res.trace) + [(data.n_obs - 1, 4)]

    def test_fortran_order_values_read_in_place(self):
        # a Fortran-order table is gathered in place, without a C-order copy,
        # and gives the C-order table's labels, counters and trace
        rng = np.random.default_rng(3)
        x = rng.random((40, 3000))
        ids = tuple(f"r{i}" for i in range(40)), tuple(f"c{j}" for j in range(3000))
        hp = HyperParams(k=2, seed=4, t_max=10, early_stop=False, mode="impacc")

        def traced(values):
            data = DataMatrix(values, *ids)
            tracemalloc.start()
            try:
                res = run(data, hp)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            trace = [replace(rec, seconds=0.0) for rec in res.trace]
            counters = [res.consensus.pair_seen, res.consensus.pair_same, res.consensus.diag]
            return peak, res.labels, counters, res.feature_scores, trace

        c_peak, *c_out = traced(x)
        f_peak, *f_out = traced(np.asfortranarray(x))
        _, *strided_out = traced(np.hstack([x, x])[:, :3000])  # neither order: copied to C
        assert f_peak <= c_peak + x.nbytes // 20
        labels, counters, scores, trace = c_out
        for out in (f_out, strided_out):
            assert np.array_equal(out[0], labels)
            assert all(np.array_equal(a, b) for a, b in zip(out[1], counters))
            assert np.array_equal(out[2], scores)
            assert out[3] == trace

    @pytest.mark.parametrize("mode", pipeline.MODES)
    def test_a_strided_view_runs_as_its_contiguous_copy(self, mode):
        # the view is copied to C order once, when the DataMatrix is built
        x = generate(SynthSpec(snr=6, n_obs=60, n_features=100, n_signal=10, seed=2)).matrix.values
        ids = tuple(f"r{i}" for i in range(60)), tuple(f"c{j}" for j in range(50))
        hp = HyperParams(k=3, seed=5, t_max=30, mode=mode)
        view, copy = (run(DataMatrix(v, *ids), hp) for v in (x[:, ::2], x[:, ::2].copy()))
        assert view.labels.tobytes() == copy.labels.tobytes()
        for name in ("pair_same", "pair_seen", "diag", "confusion_rows"):
            assert getattr(view.consensus, name).tobytes() == getattr(copy.consensus, name).tobytes()
        assert view.obs_weights.tobytes() == copy.obs_weights.tobytes()
        assert np.array_equal(view.feature_scores, copy.feature_scores)  # None outside impacc
        assert [replace(r, seconds=0.0) for r in view.trace] == [replace(r, seconds=0.0) for r in copy.trace]


def _wide_for_look_ahead(n=200, seed=7):
    """Two blobs of N=``n`` whose mpcc patches, at ``_look_ahead_hp``, just reach the look-ahead rule."""
    hp = _look_ahead_hp()
    n_count = hp.n_count(n)
    m = -(-pipeline._AHEAD_MIN_WORK // (n_count * (n_count - 1) // 2))
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, (n, m))
    x[n // 2:, : m // 10] += 1.5
    return DataMatrix(x, tuple(f"r{i}" for i in range(n)), tuple(f"c{j}" for j in range(m)))


def _look_ahead_hp(**kw):
    return HyperParams(**{"n_frac": 0.25, "m_frac": 1.0, "k": 2, "seed": 3, "t_max": 24, "early_stop": False, **kw})


def _same_as_sequential(data, hp, res):
    """``res`` against ``oracles.sequential_mpcc``, bit for bit: counters, patches, trace but
    ``seconds``, and the final labels, which the counters decide."""
    same, seen, diag, rows, trace, patches = sequential_mpcc(
        data.values, hp.n_frac, hp.m_frac, hp.resolve_t_max(data.n_obs), hp.seed, hp.h, hp.metric, hp.early_stop)
    for name, want in zip(("pair_same", "pair_seen", "diag", "confusion_rows"), (same, seen, diag, rows)):
        got = getattr(res.consensus, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert [(r.iteration, r.n_clusters, r.confusion_pct, r.high_obs, r.high_feat) for r in res.trace] == [
        (*row, 0, 0) for row in trace]
    for rec, (obs_idx, labels) in zip(res.trace, patches, strict=True):
        assert rec.obs_idx.tolist() == obs_idx.tolist() and rec.labels.tolist() == labels.tolist()
    state = ConsensusState(same, seen, diag, rows)
    assert res.labels.tobytes() == _final_labels(state, hp).tobytes()


class TestLookAhead:
    """mpcc computes patch t + 1's distances on a helper thread while it labels and folds
    patch t, where ``_looks_ahead`` says so; every output is the sequential loop's."""

    def test_above_the_rule_matches_the_sequential_loop(self):
        data, hp = _wide_for_look_ahead(), _look_ahead_hp()
        assert pipeline._looks_ahead(hp, data.n_obs, data.n_features)
        assert not pipeline._looks_ahead(replace(hp, m_frac=0.9), data.n_obs, data.n_features)
        _same_as_sequential(data, hp, run(data, hp, collect_arrays=True))

    def test_below_the_rule_matches_the_sequential_loop(self):
        data, _ = _blobs()
        hp = HyperParams(k=2, seed=2, t_max=30, early_stop=False)
        assert not pipeline._looks_ahead(hp, data.n_obs, data.n_features)
        _same_as_sequential(data, hp, run(data, hp, collect_arrays=True))

    def test_an_early_stop_throws_the_patch_ahead_away(self, monkeypatch):
        # C7's blobs, with every patch looked ahead: the stop leaves patch t + 1's distances unread
        data, _ = _blobs(40, 30, 9.0, seed=1)
        hp = HyperParams(k=2, seed=3)
        monkeypatch.setattr(pipeline, "_AHEAD_MIN_WORK", 0)
        computed = []
        real = dist.pairwise
        monkeypatch.setattr(dist, "pairwise", lambda *a, **kw: computed.append(1) or real(*a, **kw))
        res = run(data, hp, collect_arrays=True)
        assert res.stop_reason == "early_stop" and len(computed) == res.iterations_run + 1
        _same_as_sequential(data, hp, res)

    def test_only_the_distances_leave_the_main_thread(self, monkeypatch):
        # the hooked layers (pipeline's attributes) run on the caller's thread; the helper
        # reads the distance kernel from the dist module alone
        data, hp = _wide_for_look_ahead(), _look_ahead_hp()
        threads = {}
        for module, name in [(pipeline, "draw_uniform"), (pipeline, "pairwise"), (pipeline, "ward_linkage"),
                             (pipeline, "cut_quantile"), (pipeline, "update"), (dist, "pairwise")]:
            def logged(*a, _fn=getattr(module, name), _key=f"{module.__name__}.{name}", **kw):
                threads.setdefault(_key, set()).add(threading.get_ident())
                return _fn(*a, **kw)
            monkeypatch.setattr(module, name, logged)
        run(data, hp)
        main = {threading.get_ident()}
        assert {key: ids for key, ids in threads.items() if key != "mpclust.dist.pairwise"} == {
            "mpclust.pipeline.draw_uniform": main, "mpclust.pipeline.ward_linkage": main,
            "mpclust.pipeline.cut_quantile": main, "mpclust.pipeline.update": main}
        assert len(threads["mpclust.dist.pairwise"]) == 1 and threads["mpclust.dist.pairwise"] != main

    def test_concurrent_runs_under_fast_thread_switches_match_the_sequential_loop(self):
        # three look-ahead runs at once, six threads on the machine's cores, switching every
        # microsecond: a distance buffer read before the helper filled it would show here
        data, hp = _wide_for_look_ahead(), _look_ahead_hp()
        results = [None] * 3
        threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, run(data, hp, collect_arrays=True)))
                   for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for res in results:
            _same_as_sequential(data, hp, res)

    def test_no_thread_outlives_a_return_or_an_early_stop(self, monkeypatch):
        before = threading.active_count()
        assert run(_wide_for_look_ahead(), _look_ahead_hp()).stop_reason == "t_max"
        assert threading.active_count() == before
        monkeypatch.setattr(pipeline, "_AHEAD_MIN_WORK", 0)
        assert run(_blobs(40, 30, 9.0, seed=1)[0], HyperParams(k=2, seed=3)).stop_reason == "early_stop"
        assert threading.active_count() == before

    def test_an_exception_on_the_main_thread_reaches_the_caller(self, monkeypatch):
        boom, calls = RuntimeError("update failed"), []

        def failing(*a, **kw):
            calls.append(1)
            if len(calls) == 3:
                raise boom
            return update(*a, **kw)

        monkeypatch.setattr(pipeline, "update", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as raised:
            run(_wide_for_look_ahead(), _look_ahead_hp())
        assert raised.value is boom and len(calls) == 3
        assert threading.active_count() == before

    def test_an_exception_on_the_helper_reaches_the_caller(self, monkeypatch):
        boom = MemoryError("no room for the distances")

        def failing(*a, **kw):
            raise boom

        monkeypatch.setattr(dist, "pairwise", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError) as raised:
            run(_wide_for_look_ahead(), _look_ahead_hp())
        assert raised.value is boom
        assert threading.active_count() == before


class TestFinalize:
    def test_hierarchical_perfect_blocks(self):
        truth = [0, 0, 1, 1, 1, 1, 2, 2, 2]
        state = update(ConsensusState.empty(9), np.arange(9), np.array(truth))
        assert ari(finalize_hierarchical(state, 3), truth) == 1.0

    def test_hierarchical_extremes(self):
        state = update(ConsensusState.empty(5), np.arange(5), np.arange(5))  # S = I
        assert finalize_hierarchical(state, 1).max() == 0
        assert len(np.unique(finalize_hierarchical(state, 5))) == 5

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 40), st.integers(0, 2**32 - 1))
    def test_hierarchical_matches_dense_index_reference(self, n, seed):
        # consensus-like S: ratios of small counts, so 1 - S is heavily tied
        rng = np.random.default_rng(seed)
        seen = rng.integers(1, 9, (n, n))
        same = rng.integers(0, 9, (n, n)) % (seen + 1)
        upper = np.triu_indices(n, 1)
        state = ConsensusState.empty(n)
        state.pair_same[:], state.pair_seen[:], state.diag[:] = same[upper], seen[upper], 1
        s = consensus_of(state)
        ref = ward_linkage(dense_index_dissimilarity(s))
        for k in range(1, n + 1):
            assert np.array_equal(finalize_hierarchical(state, k), cut_k(ref, k))
        hp = HyperParams(h=float(rng.uniform(0.05, 1.0)))
        assert np.array_equal(_final_labels(state, hp), cut_quantile(ref, hp.h))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 30), st.integers(0, 2**32 - 1))
    def test_hierarchical_reads_counters_without_writing_them(self, n, seed):
        rng = np.random.default_rng(seed)
        state = ConsensusState.empty(n)
        for _ in range(8):
            idx = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
            update(state, idx, rng.integers(0, 3, idx.size))
        before = [a.tobytes() for a in
                  (state.pair_same, state.pair_seen, state.diag, state.confusion_rows)]
        dense = consensus_of(state)
        ref = ward_linkage(dense_index_dissimilarity(dense))
        for k in range(1, n + 1):
            assert np.array_equal(finalize_hierarchical(state, k), cut_k(ref, k))
        assert before == [a.tobytes() for a in
                          (state.pair_same, state.pair_seen, state.diag, state.confusion_rows)]
        assert dense.tobytes() == consensus_of(state).tobytes()

    def test_hierarchical_k_out_of_range(self):
        with pytest.raises(ValueError):
            finalize_hierarchical(ConsensusState.empty(4), 5)

    def test_spectral_perfect_blocks(self):
        truth = np.repeat([0, 1, 2], 4)
        state = update(ConsensusState.empty(12), np.arange(12), truth)
        assert ari(finalize_spectral(state, 3, seed=1), truth) == 1.0

    def test_spectral_identity_singletons(self):
        state = update(ConsensusState.empty(5), np.arange(5), np.arange(5))  # S = I
        assert len(np.unique(finalize_spectral(state, 5, seed=0))) == 5

    def test_spectral_all_ones_single(self):
        state = update(ConsensusState.empty(4), np.arange(4), np.zeros(4))  # S = 1
        assert finalize_spectral(state, 1, seed=0).max() == 0

    def test_spectral_zero_row_rejected(self):
        # observation 2 never sampled: its row of S is all zero
        state = update(ConsensusState.empty(4), np.array([0, 1, 3]), np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="zero"):
            finalize_spectral(state, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(4, 40), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_spectral_embedding_spans_bottom_of_dense_laplacian(self, n, k, seed):
        k = min(k, n // 2)
        rng = np.random.default_rng(seed)
        block = rng.permutation(np.arange(n) % k)
        s = np.triu(rng.uniform(0.0, 0.2, (n, n)) + 0.8 * (block[:, None] == block[None, :]), 1)
        s = s + s.T
        np.fill_diagonal(s, 1.0)
        affinity_eigvals = np.linalg.eigvalsh(s / np.sqrt(np.outer(s.sum(1), s.sum(1))))[::-1]
        assume(affinity_eigvals[k - 1] - affinity_eigvals[k] > 0.05)
        ref = dense_laplacian_embedding(s, k)
        seen = []
        real = pipeline.eigh

        def recording_eigh(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "eigh", recording_eigh)
            pipeline._spectral(s.copy(), k, seed)
        ((_, emb),) = seen
        assert emb.shape == (n, k)
        assert np.abs(emb @ emb.T - ref @ ref.T).max() <= 1e-8

    @pytest.mark.parametrize("seed", range(40))
    def test_kmeans_stopped_at_repeated_labels_matches_100_steps(self, seed):
        # the 100-step result bit for bit, after the same draws from the stream
        rng = np.random.default_rng(seed)
        n, k = int(rng.integers(5, 200)), int(rng.integers(1, 7))
        emb = rng.normal(size=(n, 3)) + 4 * rng.integers(0, 3, size=(n, 1))
        ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        got = pipeline._kmeans(emb, k, ours)
        want = kmeans2(emb, k, iter=100, minit="++", missing="raise", rng=theirs)
        assert all(a.tobytes() == b.tobytes() and a.dtype == b.dtype for a, b in zip(got, want))
        assert ours.random() == theirs.random()

    @pytest.mark.parametrize("seed", range(40))
    def test_kpp_draws_scipys_seeds(self, seed):
        # scipy's seeds and draws: one k-means step from them matches kmeans2's
        # own "++" step, and the stream is left in the same state
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        emb = rng.normal(size=(n, int(rng.integers(1, 6)))) + 4 * rng.integers(0, 3, size=(n, 1))
        for k in sorted({1, 2, 4, 30, n} & set(range(1, n + 1))):
            ours, theirs = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # kmeans2 warns of a cluster emptied by the step
                got = kmeans2(emb, pipeline._kpp(emb, k, ours), iter=1, minit="matrix")
                want = kmeans2(emb, k, iter=1, minit="++", rng=theirs)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
            assert ours.random() == theirs.random()

    # finalize_spectral(consensus_of(state), k) at commit 9259552, the last
    # to take dense S: (quantile k, labels at k=4, labels at the quantile k)
    PINNED_SPECTRAL = {
        0: (7,
            "003322221010010000131023102101221202333322220003013311130101003120010333301210300330003133132002231313211220",
            "336611440303503533020516034050110434226214113332506600023030532043305262650105635663356062021331160206400443"),
        1: (5,
            "23311331030030022113332300310103100312013100013231202302103020102030233012230",
            "41102112313313344221114133103031033124321033321410434134231343034313411304413"),
        2: (7,
            "03001030212131320320203202210321112003300222111101130222303130122012200221201300102310032201233032322200101",
            "02003020131323540260102106640214331002200666333403320116205320411036600663604200401530056603155026264400304"),
        3: (7,
            "00001120033233022003312332202111332221310011303012203013032233022211022033232203112020113113130212313300",
            "00006150034544025004315332505111332521310011403015204063032233022511025034232203615050164613640565413300"),
        4: (6,
            "11311102322313031032102120111123131302323210300322213211200033311330211022302201301303222101011010",
            "33533342122135453412342320333325353502125230104522035233240055133110233422102203143141222303433430"),
        5: (6,
            "131200213220233333130132221311132020003101221332031230111231013302213022132332002311332310020",
            "101255314235244404145103231011142535550151321402541205111341510052210032143443503411043415535"),
    }

    @pytest.mark.parametrize("seed", range(6))
    def test_spectral_from_counters_matches_dense_s(self, seed):
        # labels pinned at k=4 and at the quantile cut's k; eigh overwrites
        # S's own buffer, handed over in LAPACK's order without a copy
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 120))
        block = rng.integers(0, 4, n)
        state = ConsensusState.empty(n)
        update(state, np.arange(n), block)
        for _ in range(30):
            idx = rng.choice(n, n // 3, replace=False)
            update(state, idx, np.where(rng.random(idx.size) < 0.8, block[idx], rng.integers(0, 4, idx.size)))
        hp = HyperParams(seed=seed, final_algo="spectral")
        k_quantile = int(_final_labels(state, replace(hp, final_algo="hierarchical")).max()) + 1
        pinned_k, *pinned = self.PINNED_SPECTRAL[seed]
        assert k_quantile == pinned_k
        real = pipeline.eigh

        def checking_eigh(a, **kwargs):
            assert a.flags.f_contiguous and kwargs["overwrite_a"]
            return real(a, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "eigh", checking_eigh)
            for k, want in zip((4, k_quantile), pinned):
                got = finalize_spectral(state, k, seed=seed)
                assert got.dtype == np.int64 and "".join(map(str, got)) == want
            assert "".join(map(str, _final_labels(state, hp))) == pinned[1]

    def test_spectral_restarts_with_an_empty_cluster_are_discarded(
        self, monkeypatch, tmp_path, capsys
    ):
        rng = np.random.default_rng(3)
        block = rng.permutation(np.arange(30) % 3)
        s = np.triu(rng.uniform(0.0, 0.5, (30, 30)) + 0.5 * (block[:, None] == block[None, :]), 1)
        s = s + s.T
        np.fill_diagonal(s, 1.0)
        real = pipeline._kmeans
        calls, kept = [], []

        def flaky(emb, k, rng):
            # restart 4 returns a poor partition, restart 9 scipy's; the rest raise
            calls.append(k)
            if len(calls) == 4:
                labels = np.arange(len(emb)) % k
                centers = np.array([emb[labels == c].mean(axis=0) for c in range(k)])
            elif len(calls) == 9:
                centers, labels = real(emb, k, rng)
            else:
                raise ClusterError("One of the clusters is empty.")
            kept.append((float(((emb - centers[labels]) ** 2).sum()), labels))
            return centers, labels

        monkeypatch.setattr(pipeline, "_kmeans", flaky)
        labels = pipeline._spectral(s.copy(), 3, 2)
        assert len(calls) == 10 and kept[0][0] > kept[1][0]
        assert np.array_equal(labels, kept[1][1]) and ari(labels, block) == 1.0

        def empty(emb, k, rng):
            raise ClusterError("One of the clusters is empty.")

        monkeypatch.setattr(pipeline, "_kmeans", empty)
        with pytest.raises(ValueError, match="all 10 restarts for k=3"):
            pipeline._spectral(s.copy(), 3, 2)
        data, _ = _blobs(n_half=15, n_feat=8)
        write_matrix(data, tmp_path / "blobs.csv")
        argv = ["cluster", str(tmp_path / "blobs.csv"), "--final-algo", "spectral", "--k", "2",
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "k=2" in err and "Traceback" not in err


class TestCondensedFinal:
    """run() clusters the condensed 1 - S; dense S is built only for the spectral finaliser."""

    @pytest.mark.parametrize("mode", ["mpcc", "impacc"])
    @pytest.mark.parametrize("k", [2, None])
    def test_hierarchical_path_never_builds_dense_s(self, monkeypatch, mode, k):
        data, _ = _blobs(seed=5)
        hp = HyperParams(k=k, seed=2, t_max=40, mode=mode)

        def no_dense(state):
            raise AssertionError("dense S built")

        monkeypatch.setattr(pipeline, "consensus_of", no_dense)
        res = run(data, hp)
        monkeypatch.undo()
        ref = ward_linkage(dense_index_dissimilarity(consensus_of(res.consensus)))
        assert np.array_equal(res.labels, cut_k(ref, k) if k else cut_quantile(ref, hp.h))

    @pytest.mark.parametrize("k", [2, None])
    def test_spectral_builds_s_from_the_counters(self, monkeypatch, k):
        data, _ = _blobs(seed=6)
        calls, trees = [], []
        real, real_tree = pipeline.consensus_of, pipeline.dissimilarity_of
        monkeypatch.setattr(pipeline, "consensus_of", lambda state: calls.append(state) or real(state))
        monkeypatch.setattr(pipeline, "dissimilarity_of",
                            lambda state: trees.append(state) or real_tree(state))
        res = run(data, HyperParams(k=k, seed=3, t_max=40, final_algo="spectral"))
        assert calls == [res.consensus]  # the finaliser's own S
        assert len(trees) == (0 if k else 1)  # only the quantile cut needs the tree

    def test_run_allocates_less_than_one_dense_s(self, monkeypatch):
        # N=1000: the counters (1 MB) with the loop's scratch (2.1 MB, 2.3 MB with the
        # look-ahead's second distance buffer), or with the final clustering's 1 - S (4 MB),
        # stay below dense S (8 MB); scipy's working copy inside linkage is not traced.
        rng = np.random.default_rng(1)
        n = 1000
        data = DataMatrix(rng.random((n, 4)), tuple(map(str, range(n))), ("a", "b", "c", "d"))
        hp = HyperParams(k=3, seed=1, t_max=60, early_stop=False)
        for ahead in (False, True):
            if ahead:
                monkeypatch.setattr(pipeline, "_AHEAD_MIN_WORK", 0)
            assert pipeline._looks_ahead(hp, n, 4) == ahead
            tracemalloc.start()
            try:
                run(data, hp)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * n * n


def _spectral_step_peak(n: int, k: int) -> tuple[int, int]:
    """The estimate's final-step term and the tracemalloc peak of
    ``finalize_spectral`` at k, on counters of 40 patches of N/4."""
    t_max = 40
    rng = np.random.default_rng(4)
    state = ConsensusState.empty(n, max_count=t_max)
    update(state, np.arange(n), rng.integers(0, 4, n))
    for _ in range(t_max - 1):
        idx = rng.choice(n, n // 4, replace=False)
        update(state, idx, rng.integers(0, 4, idx.size))
    hp = HyperParams(n_frac=3 / n, t_max=t_max, k=k, final_algo="spectral")
    final = pipeline._peak_bytes(n, 1, hp) - 2 * state.pair_seen.nbytes
    tracemalloc.start()
    try:
        finalize_spectral(state, k, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return final, peak


class TestMemoryCeiling:
    def test_estimate(self):
        n, m, npair = 10_000, 500, 10_000 * 9_999 // 2
        hp = HyperParams(t_max=5_000)  # patches of 2,500
        spectral = replace(hp, final_algo="spectral")
        assert pipeline._peak_bytes(n, m, hp) == 4 * npair + 16 * npair
        assert pipeline._peak_bytes(n, m, replace(hp, t_max=70_000)) == 8 * npair + 16 * npair
        # a default run (160 minipatches) keeps 1-byte counters: 100 MB for both at N = 10,000
        assert pipeline._peak_bytes(n, m, HyperParams()) == 2 * npair + 16 * npair
        # the quantile cut leaves at most 501 clusters: dense S and the condensed S
        assert pipeline._peak_bytes(n, m, spectral) == 4 * npair + 12 * n * n
        assert pipeline._peak_bytes(n, m, replace(spectral, k=3_000)) == 4 * npair + 12 * n * n
        # past k = 0.37 N the N x k and k x k arrays outweigh S
        for k in (5_000, n):
            assert pipeline._peak_bytes(n, m, replace(spectral, k=k)) == (
                4 * npair + 24 * (n * k + k * k))
        assert pipeline._peak_bytes(n, m, replace(spectral, h=0.1)) == (  # k <= 10,000 - 999 - 1
            4 * npair + 24 * (n * 9_000 + 9_000**2))
        # a patch of every observation: the loop's scratch outweighs the final step
        assert pipeline._peak_bytes(n, m, replace(hp, n_frac=1.0)) == (
            4 * npair + PairScratch.nbytes(n, np.uint16, ahead=True))
        # the loop alone, as tune runs it: the counters and the scratch, whose
        # second distance buffer (8 bytes a patch pair) only mpcc's look-ahead holds
        ahead = pipeline._peak_bytes(n, m, hp, final=False)
        assert ahead == 4 * npair + PairScratch.nbytes(2_500, np.uint16, ahead=True)
        for inline in (replace(hp, mode="mpacc"), replace(hp, mode="impacc")):
            assert pipeline._peak_bytes(n, m, inline, final=False) == ahead - 8 * (2_500 * 2_499 // 2)

    @pytest.mark.parametrize("ahead", [False, True])
    def test_the_loop_estimate_is_what_the_loop_allocates(self, monkeypatch, ahead):
        # the pair counters and the patch scratch, which holds a second distance
        # buffer (8 bytes a patch pair) only where the loop looks ahead
        rng = np.random.default_rng(2)
        data = DataMatrix(rng.random((400, 40)), tuple(map(str, range(400))), tuple(map(str, range(40))))
        hp = HyperParams(m_frac=1.0, seed=1, t_max=40, early_stop=False)
        monkeypatch.setattr(pipeline, "_AHEAD_MIN_WORK", 0 if ahead else pipeline._AHEAD_MIN_WORK)
        assert pipeline._looks_ahead(hp, 400, 40) == ahead
        built, real = [], PairScratch.empty
        monkeypatch.setattr(PairScratch, "empty", staticmethod(lambda *a: built.append(real(*a)) or built[-1]))
        state, *_ = pipeline._loop(data, hp)
        (scratch,) = built
        assert scratch.dist_ahead.nbytes == (8 * (100 * 99 // 2) if ahead else 0)
        allocated = state.pair_same.nbytes + state.pair_seen.nbytes + sum(
            getattr(scratch, f.name).nbytes for f in fields(PairScratch))
        assert pipeline._peak_bytes(400, 40, hp, final=False) == allocated

    def test_spectral_step_from_the_counters_stays_within_the_estimate(self):
        # the estimate counts dense S and the condensed S it is built from;
        # the step's O(N) vectors fit in 1 MB beside them
        n = 1000
        final, peak = _spectral_step_peak(n, 4)
        assert final == 12 * n * n and peak <= final + 2**20

    @pytest.mark.parametrize("share", [0.01, 0.5, 1.0])
    def test_spectral_estimate_follows_k(self, share):
        # k = 4, N/2 and N; S is freed once eigh returns, so at k = N the
        # peak is the embedding's and k-means' 48 N^2, not 56 N^2 with S
        n = 400
        final, peak = _spectral_step_peak(n, int(share * n))
        assert peak <= final + 256 * n  # 32 float64 vectors of N beside the estimate

    def test_raises_before_the_first_iteration(self, monkeypatch):
        data, _ = _blobs()
        hp = HyperParams(k=2, seed=1, t_max=30)
        need = pipeline._peak_bytes(60, 20, hp)

        def no_iteration(*args, **kwargs):
            raise AssertionError("iterated")

        monkeypatch.setattr(pipeline, "_available_bytes", lambda: need - 1)
        monkeypatch.setattr(pipeline, "update", no_iteration)
        with pytest.raises(ValueError, match=r"N=60 observations need about 0\.0 MB"):
            run(data, hp)
        monkeypatch.undo()
        monkeypatch.setattr(pipeline, "_available_bytes", lambda: need)
        assert run(data, hp).labels.size == 60

    def test_tune_counts_the_loop_alone(self, monkeypatch):
        # tune runs no final step, so memory between the loop's peak and the run's is enough for it
        data, _ = _blobs()
        hp = HyperParams(seed=1, t_max=30)
        loop = pipeline._peak_bytes(60, 20, hp, final=False)
        assert loop < pipeline._peak_bytes(60, 20, hp)
        monkeypatch.setattr(pipeline, "_available_bytes", lambda: loop)
        assert len(tune_minipatch_size(data, [(hp.m_frac, hp.n_frac)], hp).cells) == 1
        with pytest.raises(ValueError, match="at the run's peak"):
            run(data, hp)

    def test_unknown_available_memory_skips_the_check(self, monkeypatch):
        data, _ = _blobs()
        monkeypatch.setattr(pipeline, "_available_bytes", lambda: None)
        assert run(data, HyperParams(k=2, seed=1, t_max=30)).labels.size == 60

    def test_available_bytes_falls_back_to_physical_memory(self, monkeypatch):
        def unreadable(*args, **kwargs):
            raise OSError("no /proc here")

        monkeypatch.setattr(pipeline, "open", unreadable, raising=False)
        monkeypatch.setattr(pipeline.os, "sysconf",
                            {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": 4096}.__getitem__)
        assert pipeline._available_bytes() == 4_096_000

    @pytest.mark.parametrize("files, want", [
        ({"/sys/fs/cgroup/memory.max": "1048576\n"}, 1_048_576),  # v2 limit
        ({"/sys/fs/cgroup/memory/memory.limit_in_bytes": "2097152\n"}, 2_097_152),  # v1
        ({"/sys/fs/cgroup/memory.max": "max\n",  # v2 without a limit; v1 not read
          "/sys/fs/cgroup/memory/memory.limit_in_bytes": "1\n"}, 4_096_000),
        ({"/sys/fs/cgroup/memory.max": "8192000000\n"}, 4_096_000),  # above MemAvailable
        ({}, 4_096_000),  # neither file can be read
        # the run's own cgroup, named in /proc/self/cgroup: the smallest limit from the mount down
        ({"/proc/self/cgroup": "0::/system.slice/run-7.scope\n",  # a systemd-run -p MemoryMax scope
          "/sys/fs/cgroup/system.slice/memory.max": "max\n",
          "/sys/fs/cgroup/system.slice/run-7.scope/memory.max": "1048576\n"}, 1_048_576),
        ({"/proc/self/cgroup": "0::/a/b\n",  # the parent's limit binds the child
          "/sys/fs/cgroup/a/memory.max": "2097152\n", "/sys/fs/cgroup/a/b/memory.max": "max\n"}, 2_097_152),
        ({"/proc/self/cgroup": "5:cpu:/\n4:memory:/slurm/uid_1/job_7\n0::/\n",  # a v1 SLURM job
          "/sys/fs/cgroup/memory/memory.limit_in_bytes": "9223372036854771712\n",
          "/sys/fs/cgroup/memory/slurm/memory.limit_in_bytes": "9223372036854771712\n",
          "/sys/fs/cgroup/memory/slurm/uid_1/job_7/memory.limit_in_bytes": "3145728\n"}, 3_145_728),
        ({"/proc/self/cgroup": "0::/\n", "/sys/fs/cgroup/memory.max": "1048576\n"}, 1_048_576),  # the mount's
        ({"/proc/self/cgroup": "4:memory:/job\n0::/job\n"}, 4_096_000),  # no limit file can be read
    ])
    def test_available_bytes_takes_the_cgroup_limit(self, monkeypatch, files, want):
        files = {"/proc/meminfo": "MemTotal:  8000 kB\nMemAvailable:  4000 kB\n", **files}
        monkeypatch.setattr(pipeline, "_read_text", files.get)
        assert pipeline._available_bytes() == want

    def test_cgroup_limit_when_host_memory_is_unknown(self, monkeypatch):
        def unknown(name):
            raise ValueError(name)

        monkeypatch.setattr(pipeline.os, "sysconf", unknown)
        monkeypatch.setattr(pipeline, "_read_text", {"/sys/fs/cgroup/memory.max": "4096\n"}.get)
        assert pipeline._available_bytes() == 4096
        monkeypatch.setattr(pipeline, "_read_text", {}.get)
        assert pipeline._available_bytes() is None

    def test_available_bytes_reads_memavailable(self):
        available = pipeline._available_bytes()
        assert isinstance(available, int) and available > 0


class TestTuner:
    def test_separable_picks_cheapest(self):
        data, _ = _blobs(n_half=40, n_feat=40, gap=10.0, seed=4)
        grid = [(0.1, 0.4), (0.05, 0.25), (0.1, 0.25)]
        result = tune_minipatch_size(data, grid, HyperParams(seed=6))
        assert (result.m_frac, result.n_frac) == (0.05, 0.25)  # smallest m*n^2
        assert result.converged and result.max_confusion < 0.01
        assert len(result.cells) == 1  # search stopped at the first qualifying cell

    def test_single_cell_grid(self):
        data, _ = _blobs(seed=6)
        result = tune_minipatch_size(data, [(0.2, 0.3)], HyperParams(seed=1))
        assert (result.m_frac, result.n_frac) == (0.2, 0.3)

    def test_pure_noise_flags_non_convergence(self):
        rng = np.random.default_rng(0)
        data = DataMatrix(
            rng.standard_normal((40, 10)),
            tuple(f"r{i}" for i in range(40)),
            tuple(f"c{j}" for j in range(10)),
        )
        result = tune_minipatch_size(
            data, [(0.5, 0.3)], HyperParams(seed=2, t_max=60, early_stop=False)
        )
        assert not result.converged
        assert result.max_confusion >= 0.01

    def test_reads_the_runs_confusion_rows_without_dense_s(self, monkeypatch):
        rng = np.random.default_rng(0)
        data = DataMatrix(
            rng.standard_normal((40, 10)),
            tuple(f"r{i}" for i in range(40)),
            tuple(f"c{j}" for j in range(10)),
        )
        hp = HyperParams(seed=2, t_max=60, early_stop=False)

        def no_dense(state):
            raise AssertionError("dense S built")

        monkeypatch.setattr(pipeline, "consensus_of", no_dense)
        result = tune_minipatch_size(data, [(0.5, 0.3), (0.5, 0.5)], hp)
        monkeypatch.undo()
        assert len(result.cells) == 2
        for m_frac, n_frac, max_conf, _ in result.cells:
            res = run(data, replace(hp, m_frac=m_frac, n_frac=n_frac))
            assert abs(max_conf - confusion(consensus_of(res.consensus)).max()) <= 1e-12

    def test_a_cell_builds_patch_trees_only_and_matches_run(self, monkeypatch):
        # log every Ward tree through a pass-through wrapper: a cell runs the loop
        # alone, so one patch tree per iteration and no N-leaf tree; a cell is
        # run()'s counters bit for bit, whatever run()'s k
        rng = np.random.default_rng(0)
        data = DataMatrix(
            rng.standard_normal((40, 10)),
            tuple(f"r{i}" for i in range(40)),
            tuple(f"c{j}" for j in range(10)),
        )
        hp = HyperParams(seed=2, t_max=30, early_stop=False)
        grid = [(0.5, 0.3), (0.5, 0.5)]
        shapes = []

        def logged_ward(d):
            z = ward_linkage(d)
            shapes.append(z.shape)
            return z

        monkeypatch.setattr(pipeline, "ward_linkage", logged_ward)
        result = tune_minipatch_size(data, grid, hp)
        monkeypatch.undo()
        assert [c[:2] for c in result.cells] == grid  # neither cell converged
        assert shapes == [(replace(hp, n_frac=n_frac).n_count(40) - 1, 4)
                          for _, n_frac, _, iterations in result.cells for _ in range(iterations)]
        for m_frac, n_frac, max_conf, iterations in result.cells:
            res = run(data, replace(hp, m_frac=m_frac, n_frac=n_frac, k=3))
            assert (max_conf, iterations) == (float(res.consensus.confusion_rows.max() / 40),
                                              res.iterations_run)

    def test_every_cell_checked_before_the_first_run(self, monkeypatch):
        calls = []
        counted = pipeline._loop

        def counting_loop(*args, **kwargs):
            calls.append(args)
            return counted(*args, **kwargs)

        monkeypatch.setattr(pipeline, "_loop", counting_loop)
        data, _ = _blobs()
        with pytest.raises(ValueError, match=r"n_frac must be in \(0.0, 1.0\], got 1.5"):
            tune_minipatch_size(data, [(0.05, 0.25), (0.05, 1.5)], HyperParams(seed=1))
        assert calls == []

    def test_empty_grid(self):
        data, _ = _blobs()
        with pytest.raises(ValueError):
            tune_minipatch_size(data, [], HyperParams())


class TestHyperParams:
    def test_defaults_valid(self):
        HyperParams()

    @pytest.mark.parametrize(
        "field,value",
        [("m_frac", 0.0), ("n_frac", 1.5), ("h", 0.0), ("eta", -0.1),
         ("alpha_i", 2.0), ("tau", -1.0), ("tau", math.nan), ("tau", math.inf),
         ("final_algo", "dbscan"), ("metric", "cosine"), ("seed", -1)],
    )
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            HyperParams(**{field: value})

    def test_replace_checks_again(self):
        with pytest.raises(ValueError, match=r"^n_frac must be in \(0.0, 1.0\], got 0$"):
            HyperParams(n_frac=0)
        with pytest.raises(ValueError, match=r"^tau must be a finite number >= 0, got nan$"):
            replace(HyperParams(), tau=math.nan)

    def test_t_max_budget_capped(self):
        hp = HyperParams(n_frac=0.001)
        assert hp.resolve_t_max(10_000) == 5000
