import numpy as np
import pytest

from mpclust.consensus import confusion
from mpclust.sampling import (
    EEConfig,
    SamplerState,
    draw_uniform,
    draw_weighted,
    ee_prob_next,
    score_features,
    update_feature_weights,
    update_obs_weights,
)

from oracles import f_sf_by_quadrature


class TestDrawUniform:
    def test_draw_all(self):
        rng = np.random.default_rng(0)
        assert draw_uniform(6, 6, rng).tolist() == [0, 1, 2, 3, 4, 5]

    def test_one_of_one(self):
        assert draw_uniform(1, 1, np.random.default_rng(0)).tolist() == [0]

    def test_over_draw_rejected(self):
        with pytest.raises(ValueError):
            draw_uniform(4, 5, np.random.default_rng(0))

    def test_inclusion_frequency(self):
        rng = np.random.default_rng(42)
        trials = 100_000
        counts = np.zeros(20)
        for _ in range(trials):
            counts[draw_uniform(20, 5, rng)] += 1
        freq = counts / trials
        assert np.abs(freq - 0.25).max() < 0.01

    def test_deterministic_given_stream(self):
        a = draw_uniform(50, 10, np.random.default_rng(123))
        b = draw_uniform(50, 10, np.random.default_rng(123))
        assert np.array_equal(a, b)


class TestDrawWeighted:
    def test_point_mass(self):
        w = np.array([0.0, 1.0, 0.0])
        assert draw_weighted(w, 1, np.random.default_rng(0)).tolist() == [1]

    def test_insufficient_support(self):
        with pytest.raises(ValueError):
            draw_weighted(np.array([0.0, 1.0]), 2, np.random.default_rng(0))

    def test_two_to_one_marginal(self):
        rng = np.random.default_rng(7)
        trials = 100_000
        hits = 0
        w = np.array([2.0, 1.0])
        for _ in range(trials):
            if draw_weighted(w, 1, rng)[0] == 0:
                hits += 1
        assert abs(hits / trials - 2 / 3) < 0.01

    def test_equal_weights_uniform_marginals(self):
        rng = np.random.default_rng(11)
        trials = 100_000
        counts = np.zeros(8)
        w = np.ones(8)
        for _ in range(trials):
            counts[draw_weighted(w, 2, rng)] += 1
        assert np.abs(counts / trials - 0.25).max() < 0.01

    def test_scale_invariant_draws(self):
        w = np.array([0.5, 1.5, 3.0, 0.1])
        a = draw_weighted(w, 2, np.random.default_rng(5))
        b = draw_weighted(w * 100, 2, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestUpdateObsWeights:
    def test_zero_uncertainty_keeps_weights(self):
        state = SamplerState.uniform(4, "observations")
        before = state.weights.copy()
        update_obs_weights(state, confusion(np.eye(4)), t=3, alpha_i=0.5)
        assert np.array_equal(state.weights, before)

    def test_derived_example(self):
        # confusions (0.2, 0.1), counts (1, 2), t=3 -> u=(0.4, 0.1) -> (0.8, 0.2)
        x = (1 - np.sqrt(0.2)) / 2  # x(1-x) == 0.2 exactly
        s = np.array([[x, x], [x, 1.0]])
        assert np.allclose(confusion(s), [0.2, 0.1])
        state = SamplerState.uniform(2, "observations")
        state.sample_counts[:] = [1, 2]
        update_obs_weights(state, confusion(s), t=3, alpha_i=0.0)
        assert np.allclose(state.weights, [0.8, 0.2])

    def test_ema_endpoints(self):
        base = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        frozen = SamplerState.uniform(3, "observations")
        frozen.sample_counts[:] = 1
        w0 = frozen.weights.copy()
        update_obs_weights(frozen, confusion(base), t=2, alpha_i=1.0)
        assert np.allclose(frozen.weights, w0)

    def test_requires_t_at_least_two(self):
        state = SamplerState.uniform(3, "observations")
        with pytest.raises(ValueError):
            update_obs_weights(state, np.zeros(3), t=1, alpha_i=0.5)

    @pytest.mark.parametrize(
        "conf",
        [np.eye(4), np.zeros(3), np.zeros(5), np.zeros((4, 1)), np.array([0.1, np.nan, 0.1, 0.1])],
    )
    def test_rejects_non_confusion_vector(self, conf):
        state = SamplerState.uniform(4, "observations")
        before = state.weights.copy()
        with pytest.raises(ValueError, match="confusion"):
            update_obs_weights(state, conf, t=3, alpha_i=0.5)
        assert np.array_equal(state.weights, before)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        state = SamplerState.uniform(10, "observations")
        state.sample_counts[:] = rng.integers(1, 5, 10)
        for t in range(2, 30):
            s = rng.random((10, 10))
            s = (s + s.T) / 2
            update_obs_weights(state, confusion(s), t=t, alpha_i=0.5)
            assert abs(state.weights.sum() - 1) < 1e-12


class TestScoreFeatures:
    def test_perfect_separation(self):
        view = np.array([[0.0], [0.0], [1.0], [1.0]])
        support, p = score_features(view, np.array([1, 1, 2, 2]), eta=0.05)
        assert p[0] == 0.0 and 0 in support

    def test_constant_feature_p_one(self):
        view = np.column_stack([np.ones(4), [0.0, 0.0, 1.0, 1.0]])
        support, p = score_features(view, np.array([1, 1, 2, 2]), eta=0.05)
        assert p[0] == 1.0
        assert 0 not in support

    def test_f_distribution_example(self):
        view = np.array([[1.0], [2.0], [3.0], [4.0]])
        _, p = score_features(view, np.array([1, 1, 2, 2]), eta=0.05)
        # F = 8 on (1, 2) df
        assert p[0] == pytest.approx(0.10557280900008414, abs=1e-10)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(6, 16))
            k = int(rng.integers(2, 4))
            labels = rng.integers(0, k, n)
            while len(np.unique(labels)) < 2:
                labels = rng.integers(0, k, n)
            view = rng.random((n, 1))
            _, p = score_features(view, labels, eta=0.05)
            kk = len(np.unique(labels))
            xc = view[:, 0] - view[:, 0].mean()
            ssb = sum(
                (xc[labels == g].sum()) ** 2 / (labels == g).sum()
                for g in np.unique(labels)
            )
            sst = (xc**2).sum()
            f_stat = (ssb / (kk - 1)) / ((sst - ssb) / (n - kk))
            assert p[0] == pytest.approx(f_sf_by_quadrature(f_stat, kk - 1, n - kk), abs=1e-6)

    def test_single_cluster_rejected(self):
        with pytest.raises(ValueError, match="two clusters"):
            score_features(np.random.rand(4, 2), np.array([1, 1, 1, 1]), eta=0.05)

    def test_floor_of_one_admitted(self):
        rng = np.random.default_rng(3)
        view = rng.random((10, 3))
        support, p = score_features(view, rng.integers(0, 2, 10), eta=0.0)
        if p.min() < 1.0:
            assert support.size >= 1


class TestUpdateFeatureWeights:
    def test_importance_ratios(self):
        state = SamplerState.uniform(3, "features")
        state.sample_counts[:] = [4, 4, 0]
        for _ in range(3):
            update_feature_weights(state, np.array([0]), np.array([0, 1]), alpha_f=0.5)
        imp = state.importance()
        assert imp[0] == 0.75 and imp[1] == 0.0 and imp[2] == 0.0

    def test_always_supported_reaches_one(self):
        state = SamplerState.uniform(2, "features")
        state.sample_counts[:] = [5, 5]
        state.support_hits[:] = [5, 0]
        assert state.importance()[0] == 1.0

    def test_support_subset_enforced(self):
        state = SamplerState.uniform(3, "features")
        with pytest.raises(ValueError, match="subset"):
            update_feature_weights(state, np.array([2]), np.array([0, 1]), alpha_f=0.5)

    def test_weights_sum_to_one(self):
        state = SamplerState.uniform(5, "features")
        rng = np.random.default_rng(0)
        for _ in range(20):
            sampled = np.sort(rng.choice(5, 3, replace=False))
            state.record(sampled)
            support = sampled[:1]
            update_feature_weights(state, support, sampled, alpha_f=0.5)
            assert abs(state.weights.sum() - 1) < 1e-12


class TestEEProbNext:
    def test_burn_in_full_coverage(self):
        cfg = EEConfig(frac=0.3, epochs=2)
        state = SamplerState.uniform(10, "observations")
        counts = np.zeros(10, dtype=int)
        q = cfg.q_blocks(10)
        for t in range(1, cfg.epochs * q + 1):
            idx = ee_prob_next(cfg, state, t, np.random.default_rng(t))
            counts[idx] += 1
        assert counts.min() >= cfg.epochs  # wrap-around padding can only add

    def test_burn_in_epoch_partition(self):
        cfg = EEConfig(frac=0.25, epochs=1)
        state = SamplerState.uniform(8, "observations")
        seen = []
        for t in range(1, cfg.q_blocks(8) + 1):
            seen.extend(ee_prob_next(cfg, state, t, np.random.default_rng(99)).tolist())
        assert sorted(seen) == list(range(8))

    def test_adaptive_uniform_when_no_high_set(self):
        cfg = EEConfig(frac=0.5, epochs=1)
        state = SamplerState.uniform(6, "observations")
        t = cfg.burn_in(6) + 1
        idx = ee_prob_next(cfg, state, t, np.random.default_rng(0))
        assert idx.size == cfg.draw_count(6)
        assert state.last_high_size == 0  # equal weights: nothing above quantile

    def test_full_exploitation_from_high_set(self):
        cfg = EEConfig(frac=0.5, epochs=1, gamma=lambda t: 1.0, threshold="mean_plus_sd", threshold_param=0.0)
        state = SamplerState.uniform(8, "features")
        state.weights = np.array([0.3, 0.3, 0.3, 0.02, 0.02, 0.02, 0.02, 0.02])
        t = cfg.burn_in(8) + 1
        idx = ee_prob_next(cfg, state, t, np.random.default_rng(1))
        # high set is {0,1,2}; gamma=1 exploits min(draw, |H|) = 3 of 4 from it
        assert set(idx) >= {0, 1, 2} or len(set(idx) & {0, 1, 2}) == 3

    def test_gamma_one_large_high_set_exploits_only(self):
        # theta=0.5 puts the median cut between the two weight levels, so
        # the high set is the six heavy indices, more than the draw of 3
        cfg = EEConfig(frac=0.25, epochs=1, gamma=lambda t: 1.0, threshold_param=0.5)
        state = SamplerState.uniform(12, "observations")
        weights = np.full(12, 0.01)
        weights[:6] = (1 - 0.06) / 6
        state.weights = weights / weights.sum()
        t = cfg.burn_in(12) + 1
        idx = ee_prob_next(cfg, state, t, np.random.default_rng(2))
        assert state.last_high_size == 6
        assert set(idx.tolist()) <= set(range(6))

    def test_draw_size_always_exact(self):
        cfg = EEConfig(frac=0.4, epochs=1)
        state = SamplerState.uniform(11, "observations")
        rng = np.random.default_rng(5)
        state.weights = rng.dirichlet(np.ones(11))
        for t in range(1, 40):
            idx = ee_prob_next(cfg, state, t, rng)
            assert idx.size == cfg.draw_count(11)
            assert len(set(idx.tolist())) == idx.size

    def test_burn_in_min_counts_by_epoch_end(self):
        cfg = EEConfig(frac=0.23, epochs=3)
        state = SamplerState.uniform(13, "observations")
        counts = np.zeros(13, dtype=int)
        for t in range(1, cfg.burn_in(13) + 1):
            idx = ee_prob_next(cfg, state, t, np.random.default_rng(1000 + t))
            counts[idx] += 1
        assert counts.min() >= cfg.epochs - 1

    def test_gamma_schedule_monotone(self):
        cfg = EEConfig(frac=0.25, epochs=2)
        lo = cfg.burn_in(100) + 1
        gammas = [cfg.gamma_at(t, 100) for t in range(lo, lo + 3 * cfg.burn_in(100))]
        assert gammas[0] == pytest.approx(0.5)
        assert all(b >= a for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] == 1.0

    def test_sample_counts_match_recount_from_log(self):
        cfg = EEConfig(frac=0.3, epochs=2)
        state = SamplerState.uniform(15, "observations")
        rng = np.random.default_rng(8)
        state.weights = rng.dirichlet(np.ones(15))
        log = []
        for t in range(1, 31):
            idx = ee_prob_next(cfg, state, t, np.random.default_rng(500 + t))
            state.record(idx)
            log.append(idx)
        recount = np.zeros(15, dtype=int)
        for idx in log:
            recount[idx] += 1
        assert np.array_equal(state.sample_counts, recount)


class TestFeatureWeightEndpoints:
    def test_alpha_one_freezes_weights(self):
        state = SamplerState.uniform(4, "features")
        state.sample_counts[:] = [2, 2, 2, 0]
        before = state.weights.copy()
        update_feature_weights(state, np.array([0]), np.array([0, 1, 2]), alpha_f=1.0)
        assert np.allclose(state.weights, before)

    def test_alpha_zero_equals_normalized_importance(self):
        state = SamplerState.uniform(4, "features")
        state.sample_counts[:] = [2, 2, 2, 0]
        update_feature_weights(state, np.array([0]), np.array([0, 1, 2]), alpha_f=0.0)
        imp = np.array([0.5, 0.0, 0.0, 0.0])
        assert np.allclose(state.weights, imp / imp.sum())
