import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpclust.sampling import (
    SamplerState,
    draw_uniform,
    draw_weighted,
    ee_prob_next,
    importance,
    score_features,
    update_feature_weights,
    update_obs_weights,
)

from oracles import (
    add_at_score_features,
    array_fisher_yates,
    block_list_burn_in,
    confusion,
    f_sf_by_quadrature,
)


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

    @pytest.mark.parametrize("weights, message", [
        (np.array([]), "weights must be a nonempty vector"),
        (np.ones((2, 2)), "weights must be a nonempty vector"),
        (np.array([0.5, -0.1, 1.0]), "weights must be nonnegative with positive total"),
        (np.zeros(3), "weights must be nonnegative with positive total"),
    ], ids=["empty", "2-d", "negative", "all-zero"])
    def test_bad_weights_rejected(self, weights, message):
        with pytest.raises(ValueError) as err:
            draw_weighted(weights, 1, np.random.default_rng(0))
        assert str(err.value) == message

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
        weights = np.full(4, 0.25)
        before = weights.copy()
        counts = np.zeros(4, dtype=int)
        after = update_obs_weights(weights, confusion(np.eye(4)), counts, t=3, alpha_i=0.5)
        assert np.array_equal(after, before) and np.array_equal(weights, before)

    def test_derived_example(self):
        # confusions (0.2, 0.1), counts (1, 2), t=3 -> u=(0.4, 0.1) -> (0.8, 0.2)
        x = (1 - np.sqrt(0.2)) / 2  # x(1-x) == 0.2 exactly
        s = np.array([[x, x], [x, 1.0]])
        assert np.allclose(confusion(s), [0.2, 0.1])
        counts = np.array([1, 2], dtype=np.uint16)
        weights = update_obs_weights(np.full(2, 0.5), confusion(s), counts, t=3, alpha_i=0.0)
        assert np.allclose(weights, [0.8, 0.2])

    def test_ema_endpoints(self):
        base = np.array([[1.0, 0.5, 0.0], [0.5, 1.0, 0.5], [0.0, 0.5, 1.0]])
        w0 = np.full(3, 1 / 3)
        frozen = update_obs_weights(w0, confusion(base), np.ones(3, dtype=int), t=2, alpha_i=1.0)
        assert np.allclose(frozen, w0)

    def test_requires_t_at_least_two(self):
        with pytest.raises(ValueError):
            update_obs_weights(np.full(3, 1 / 3), np.zeros(3), np.zeros(3, dtype=int), t=1,
                               alpha_i=0.5)

    @pytest.mark.parametrize(
        "conf",
        [np.eye(4), np.zeros(3), np.zeros(5), np.zeros((4, 1)), np.array([0.1, np.nan, 0.1, 0.1])],
    )
    def test_rejects_non_confusion_vector(self, conf):
        weights = np.full(4, 0.25)
        before = weights.copy()
        with pytest.raises(ValueError, match="confusion"):
            update_obs_weights(weights, conf, np.zeros(4, dtype=int), t=3, alpha_i=0.5)
        assert np.array_equal(weights, before)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(2)
        weights = np.full(10, 0.1)
        counts = rng.integers(1, 5, 10)
        for t in range(2, 30):
            s = rng.random((10, 10))
            s = (s + s.T) / 2
            before = weights.copy()
            new = update_obs_weights(weights, confusion(s), counts, t=t, alpha_i=0.5)
            assert np.array_equal(weights, before)  # the input vector is not written
            weights = new
            assert abs(weights.sum() - 1) < 1e-12


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

    @pytest.mark.parametrize("view, labels, message", [
        (np.arange(4.0), np.array([1, 1, 2, 2]), "view must be 2-D"),
        (np.ones((4, 2)), np.array([1, 1, 2]), "labels must match the view rows"),
        (np.ones((2, 2)), np.array([1, 2]), "ANOVA needs within-group degrees of freedom >= 1"),
    ], ids=["1-d-view", "label-count", "no-within-group-df"])
    def test_rejections(self, view, labels, message):
        with pytest.raises(ValueError) as err:
            score_features(view, labels, eta=0.05)
        assert str(err.value) == message

    def test_floor_of_one_admitted(self):
        rng = np.random.default_rng(3)
        view = rng.random((10, 3))
        support, p = score_features(view, rng.integers(0, 2, 10), eta=0.0)
        if p.min() < 1.0:
            assert support.size >= 1


class TestSamplerState:
    def test_one_shape_for_both_axes(self):
        # the draw counts are the caller's: ConsensusState.diag, run()'s feature counts
        names = [f.name for f in dataclasses.fields(SamplerState)]
        assert names == ["weights", "draw", "epochs", "threshold", "threshold_param",
                         "epoch_order", "last_high_size"]
        state = SamplerState.uniform(4, 2, 1, "quantile", 0.95)
        assert state.weights.tolist() == [0.25] * 4
        assert state.epoch_order is None and state.last_high_size == 0


class TestUpdateFeatureWeights:
    def test_importance_ratios(self):
        imp = importance(np.array([3, 0, 0]), np.array([4, 4, 0]))
        assert imp.tolist() == [0.75, 0.0, 0.0]

    def test_always_supported_reaches_one(self):
        assert importance(np.array([5, 0]), np.array([5, 5]))[0] == 1.0

    def test_weights_sum_to_one(self):
        weights = np.full(5, 0.2)
        draws, hits = np.zeros(5, dtype=np.int64), np.zeros(5, dtype=np.int64)
        rng = np.random.default_rng(0)
        for _ in range(20):
            sampled = np.sort(rng.choice(5, 3, replace=False))
            draws[sampled] += 1
            hits[sampled[:1]] += 1
            before = weights.copy()
            new = update_feature_weights(weights, importance(hits, draws), alpha_f=0.5)
            assert np.array_equal(weights, before)  # the input vector is not written
            weights = new
            assert abs(weights.sum() - 1) < 1e-12


class TestEEProbNext:
    def test_burn_in_full_coverage(self):
        state = SamplerState.uniform(10, 3, 2, "quantile", 0.95)
        counts = np.zeros(10, dtype=int)
        q = state.q_blocks
        for t in range(1, state.epochs * q + 1):
            idx = ee_prob_next(state, t, np.random.default_rng(t))
            counts[idx] += 1
        assert counts.min() >= state.epochs  # wrap-around padding can only add

    def test_burn_in_epoch_partition(self):
        state = SamplerState.uniform(8, 2, 1, "quantile", 0.95)
        seen = []
        for t in range(1, state.q_blocks + 1):
            seen.extend(ee_prob_next(state, t, np.random.default_rng(99)).tolist())
        assert sorted(seen) == list(range(8))

    def test_adaptive_uniform_when_no_high_set(self):
        state = SamplerState.uniform(6, 3, 1, "quantile", 0.95)
        t = state.burn_in + 1
        idx = ee_prob_next(state, t, np.random.default_rng(0))
        assert idx.size == state.draw
        assert state.last_high_size == 0  # equal weights: nothing above quantile

    def test_full_exploitation_from_high_set(self):
        state = SamplerState.uniform(8, 4, 1, "mean_plus_sd", 0.0)
        state.weights = np.array([0.3, 0.3, 0.3, 0.02, 0.02, 0.02, 0.02, 0.02])
        t = 2 * state.burn_in + 1
        assert state.gamma_at(t) == 1.0
        idx = ee_prob_next(state, t, np.random.default_rng(1))
        # high set is {0,1,2}; gamma=1 exploits min(draw, |H|) = 3 of 4 from it
        assert set(idx) >= {0, 1, 2} or len(set(idx) & {0, 1, 2}) == 3

    def test_gamma_one_large_high_set_exploits_only(self):
        # theta=0.5 puts the median cut between the two weight levels, so
        # the high set is the six heavy indices, more than the draw of 3
        state = SamplerState.uniform(12, 3, 1, "quantile", 0.5)
        weights = np.full(12, 0.01)
        weights[:6] = (1 - 0.06) / 6
        state.weights = weights / weights.sum()
        t = 2 * state.burn_in + 1
        assert state.gamma_at(t) == 1.0
        idx = ee_prob_next(state, t, np.random.default_rng(2))
        assert state.last_high_size == 6
        assert set(idx.tolist()) <= set(range(6))

    def test_high_set_covering_most_fills_the_shortfall_from_it(self):
        # 10 of 20 weights lie above the median; gamma = 0.5 exploits 5 of them, and the
        # explore share of 13 finds only the 10 outside, so 3 more come from the high set
        state = SamplerState.uniform(20, 18, 1, "quantile", 0.5)
        state.weights = np.r_[np.full(10, 0.01), np.full(10, 0.09)]
        t = state.burn_in + 1
        assert state.gamma_at(t) == 0.5
        idx = ee_prob_next(state, t, np.random.default_rng(4))
        assert state.last_high_size == 10
        assert idx.size == 18 and np.all(np.diff(idx) > 0)
        assert set(range(10)) <= set(idx.tolist())

    def test_draw_size_always_exact(self):
        state = SamplerState.uniform(11, 5, 1, "quantile", 0.95)
        rng = np.random.default_rng(5)
        state.weights = rng.dirichlet(np.ones(11))
        for t in range(1, 40):
            idx = ee_prob_next(state, t, rng)
            assert idx.size == state.draw
            assert len(set(idx.tolist())) == idx.size

    def test_burn_in_min_counts_by_epoch_end(self):
        state = SamplerState.uniform(13, 3, 3, "quantile", 0.95)
        counts = np.zeros(13, dtype=int)
        for t in range(1, state.burn_in + 1):
            idx = ee_prob_next(state, t, np.random.default_rng(1000 + t))
            counts[idx] += 1
        assert counts.min() >= state.epochs - 1

    def test_gamma_schedule_monotone(self):
        state = SamplerState.uniform(100, 25, 2, "quantile", 0.95)
        lo = state.burn_in + 1
        gammas = [state.gamma_at(t) for t in range(lo, lo + 3 * state.burn_in)]
        assert gammas[0] == pytest.approx(0.5)
        assert all(b >= a for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] == 1.0


class TestFeatureWeightEndpoints:
    def test_alpha_one_freezes_weights(self):
        before = np.full(4, 0.25)
        after = update_feature_weights(before, np.array([0.5, 0.0, 0.0, 0.0]), alpha_f=1.0)
        assert np.allclose(after, before)

    def test_alpha_zero_equals_normalized_importance(self):
        imp = importance(np.array([1, 0, 0, 0]), np.array([2, 2, 2, 0]))
        weights = update_feature_weights(np.full(4, 0.25), imp, alpha_f=0.0)
        assert np.allclose(weights, imp / imp.sum())

    def test_alpha_zero_without_support_keeps_weights(self):
        # nothing to renormalise: the input vector itself comes back
        before = np.array([0.1, 0.2, 0.3, 0.4])
        assert update_feature_weights(before, np.zeros(4), alpha_f=0.0) is before


def _assert_distinct_in_range(idx: np.ndarray, total: int, size: int) -> None:
    assert idx.shape == (size,)
    assert np.issubdtype(idx.dtype, np.integer)
    assert len(set(idx.tolist())) == size
    assert idx.min() >= 0 and idx.max() < total


@st.composite
def _weights(draw):
    """Nonnegative weight vectors with some zeros and a positive total."""
    w = np.array(draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1e3)), min_size=1, max_size=40,
    )))
    if w.sum() <= 0:
        w[draw(st.integers(0, w.size - 1))] = 1.0
    return w


class TestDrawProperties:
    @settings(max_examples=150, deadline=None)
    @given(total=st.integers(1, 200), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_uniform_exact_distinct_in_range(self, total, data, seed):
        size = data.draw(st.integers(1, total))
        idx = draw_uniform(total, size, np.random.default_rng(seed))
        _assert_distinct_in_range(idx, total, size)
        assert np.array_equal(idx, np.sort(idx))

    @settings(max_examples=150, deadline=None)
    @given(w=_weights(), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_weighted_exact_distinct_in_range(self, w, data, seed):
        size = data.draw(st.integers(1, int((w > 0).sum())))
        idx = draw_weighted(w, size, np.random.default_rng(seed))
        _assert_distinct_in_range(idx, w.size, size)
        assert (w[idx] > 0).all()  # a zero weight is never drawn

    @settings(max_examples=150, deadline=None)
    @given(
        w=_weights(),
        data=st.data(),
        epochs=st.integers(1, 3),
        rule=st.sampled_from([("quantile", 0.95), ("quantile", 0.5), ("mean_plus_sd", 1.0),
                              ("mean_plus_sd", 0.0)]),
        t_offset=st.integers(0, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ee_prob_exact_distinct_in_range(self, w, data, epochs, rule, t_offset, seed):
        draw = data.draw(st.integers(1, w.size))
        state = SamplerState.uniform(w.size, draw, epochs, rule[0], rule[1])
        state.weights = w / w.sum()
        rng = np.random.default_rng(seed)
        # one draw anywhere in burn-in, then one past it, where the weights decide
        for t in (1 + t_offset % state.burn_in, state.burn_in + 1 + t_offset):
            idx = ee_prob_next(state, t, rng)
            _assert_distinct_in_range(idx, w.size, draw)

    @settings(max_examples=100, deadline=None)
    @given(
        total=st.integers(1, 60),
        data=st.data(),
        epochs=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_burn_in_visits_every_index_epochs_times(self, total, data, epochs, seed):
        """Each epoch covers every index once; its last block's wrap to the
        epoch's start (q * draw - total indices) adds one more visit each."""
        draw = data.draw(st.integers(1, total))
        state = SamplerState.uniform(total, draw, epochs, "quantile", 0.95)
        q = state.q_blocks
        rng = np.random.default_rng(seed)
        counts = np.zeros(total, dtype=int)
        for epoch in range(epochs):
            visits = np.zeros(total, dtype=int)
            for t in range(epoch * q + 1, (epoch + 1) * q + 1):
                np.add.at(visits, ee_prob_next(state, t, rng), 1)
            assert visits.min() == 1
            assert np.count_nonzero(visits == 2) == q * draw - total
            assert visits.max() <= 2
            counts += visits
        if total % draw == 0:
            assert (counts == epochs).all()

    @settings(max_examples=150, deadline=None)
    @given(
        total=st.integers(1, 80),
        data=st.data(),
        epochs=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_burn_in_matches_block_list_oracle(self, total, data, epochs, seed):
        """The wrapped permutation gives the padded block list's patches, bit for bit."""
        draw = data.draw(st.integers(1, total))
        state = SamplerState.uniform(total, draw, epochs, "quantile", 0.95)
        expected = block_list_burn_in(total, draw, epochs, np.random.default_rng(seed))
        assert len(expected) == state.burn_in
        rng = np.random.default_rng(seed)
        for t, want in enumerate(expected, start=1):
            got = ee_prob_next(state, t, rng)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_draw_validated(self):
        # checked once, when the sampler is built
        for draw in (0, 5):
            with pytest.raises(ValueError, match=f"cannot draw {draw} of 4"):
                SamplerState.uniform(4, draw, 1, "quantile", 0.95)

    def test_schedule_and_rule_validated(self):
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            SamplerState.uniform(4, 2, 0, "quantile", 0.95)
        with pytest.raises(ValueError, match="unknown threshold rule 'median'"):
            SamplerState.uniform(4, 2, 1, "median", 0.95)


@st.composite
def _anova_cases(draw):
    """(view, labels): shuffled rows under distinct, possibly negative labels.

    Group shapes include groups of eight rows or more (pairwise summation
    of one column would reorder their additions), singleton groups and
    k = n - 1; columns include constant, perfectly separated and rounded
    ones with exact ties.
    """
    m = draw(st.sampled_from([1, 1, 2, 3, 8, 50]))
    shape = draw(st.sampled_from(["large", "mixed", "n_minus_1"]))
    if shape == "large":
        sizes = draw(st.lists(st.integers(8, 60), min_size=2, max_size=6))
    elif shape == "mixed":
        sizes = draw(st.lists(st.integers(1, 30), min_size=2, max_size=12))
        if sum(sizes) - len(sizes) < 1:
            sizes[0] += 1
    else:
        sizes = [2] + [1] * draw(st.integers(1, 60))
    values = draw(st.lists(st.integers(-10**6, 10**6), min_size=len(sizes),
                           max_size=len(sizes), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = rng.permutation(np.repeat(values, sizes))
    scale = 10.0 ** draw(st.integers(-3, 3))
    view = rng.normal(draw(st.floats(-100, 100)), scale, size=(labels.size, m))
    kind = draw(st.sampled_from(["plain", "rounded", "constant", "perfect"]))
    col = draw(st.integers(0, m - 1))
    if kind == "rounded":
        view = np.round(view / scale, 1)
    elif kind == "constant":
        view[:, col] = view[0, col]
    elif kind == "perfect":
        view[:, col] = np.searchsorted(np.sort(values), labels) * scale
    return view, labels


class TestReferenceKernels:
    """The kernels give the bits of their row-by-row references."""

    @settings(max_examples=200, deadline=None)
    @given(case=_anova_cases(), eta=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    def test_score_features_matches_add_at(self, case, eta):
        view, labels = case
        support, p = score_features(view, labels, eta)
        ref_support, ref_p = add_at_score_features(view, labels, eta)
        assert support.dtype == ref_support.dtype and p.dtype == ref_p.dtype
        assert np.array_equal(support, ref_support)
        assert np.array_equal(p, ref_p)

    def test_single_column_sums_in_row_order(self):
        # one column of twenty rows: numpy's pairwise .sum() gives other
        # bits than adding in row order, and the scores must not follow it
        col = np.random.default_rng(0).normal(size=20)
        xc = col - col.mean()
        in_order = [0.0, 0.0]
        for i, v in enumerate(xc):
            in_order[i // 10] += v
        assert [xc[:10].sum(), xc[10:].sum()] != in_order
        view, labels = col[:, None], np.repeat([3, -1], 10)
        support, p = score_features(view, labels, 0.05)
        ref_support, ref_p = add_at_score_features(view, labels, 0.05)
        assert np.array_equal(support, ref_support) and np.array_equal(p, ref_p)

    @settings(max_examples=300, deadline=None)
    @given(
        total=st.integers(1, 6000),
        data=st.data(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draw_uniform_matches_array_fisher_yates(self, total, data, seed):
        size = data.draw(st.one_of(st.just(1), st.just(total), st.integers(1, total)))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw_uniform(total, size, rng)
        want = array_fisher_yates(total, size, ref_rng)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert rng.random() == ref_rng.random()  # the stream is left where it was
