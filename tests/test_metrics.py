import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpclust.metrics import ari, f1_features, select_by_score

from oracles import pair_counting_ari


class TestAri:
    def test_identical(self):
        assert ari([1, 1, 2, 2], [1, 1, 2, 2]) == 1.0

    def test_crossed_example(self):
        assert ari([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5)

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(3, 51))
            a = rng.integers(0, int(rng.integers(2, 6)), n)
            b = rng.integers(0, int(rng.integers(2, 6)), n)
            assert ari(a, b) == pytest.approx(pair_counting_ari(a, b), abs=1e-12)

    def test_both_single_cluster(self):
        assert ari([1, 1, 1], [2, 2, 2]) == 1.0

    def test_both_all_singletons(self):
        assert ari([1, 2, 3], [3, 1, 2]) == 1.0

    def test_label_values_irrelevant(self):
        a = np.array([0, 0, 1, 1, 2])
        relabeled = np.array([7, 7, 3, 3, 9])
        b = np.array([0, 1, 1, 2, 2])
        assert ari(a, b) == ari(relabeled, b)

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 3), min_size=2, max_size=20))
    def test_symmetric(self, labels):
        rng = np.random.default_rng(len(labels))
        other = rng.integers(0, 3, len(labels))
        assert ari(labels, other) == pytest.approx(ari(other, labels))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ari([1, 2], [1, 2, 3])

    def test_random_partitions_chance_level(self):
        rng = np.random.default_rng(123)
        vals = [
            ari(rng.integers(0, 4, 100), rng.integers(0, 4, 100)) for _ in range(300)
        ]
        assert abs(float(np.mean(vals))) < 0.01


class TestF1Features:
    def test_perfect(self):
        truth = np.zeros(10, dtype=bool)
        truth[:3] = True
        assert f1_features(truth, truth) == 1.0

    def test_derived_example(self):
        truth = np.zeros(100, dtype=bool)
        truth[:25] = True
        selected = np.zeros(100, dtype=bool)
        selected[:20] = True  # 20 true positives
        selected[25:30] = True  # 5 false positives
        assert f1_features(selected, truth) == pytest.approx(0.8)

    def test_nothing_selected(self):
        truth = np.array([True, False, True])
        assert f1_features(np.zeros(3, dtype=bool), truth) == 0.0

    def test_swap_fp_for_tp_improves(self):
        truth = np.zeros(20, dtype=bool)
        truth[:5] = True
        worse = np.zeros(20, dtype=bool)
        worse[[0, 1, 10]] = True
        better = np.zeros(20, dtype=bool)
        better[[0, 1, 2]] = True
        assert f1_features(better, truth) > f1_features(worse, truth)

    def test_empty_truth_rejected(self):
        with pytest.raises(ValueError):
            f1_features(np.array([True]), np.array([False]))

    def test_selection_missing_every_signal_feature(self):
        truth = np.array([True, True, False, False])
        assert f1_features(np.array([False, False, True, True]), truth) == 0.0

    def test_mask_lengths_must_match(self):
        with pytest.raises(ValueError, match="^mask lengths differ: 2 vs 3$"):
            f1_features(np.array([True, False]), np.array([True, False, False]))


class TestSelectByScore:
    def test_constant_scores_empty(self):
        assert not select_by_score(np.full(10, 0.3)).any()

    def test_single_spike(self):
        scores = np.zeros(100)
        scores[0] = 1.0
        mask = select_by_score(scores)
        assert mask[0] and mask.sum() == 1

    def test_bimodal_exact_recovery(self):
        scores = np.concatenate([np.ones(25), np.zeros(4975)])
        mask = select_by_score(scores)
        assert mask[:25].all() and not mask[25:].any()

    def test_top_k(self):
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        mask = select_by_score(scores, top_k=2)
        assert mask.tolist() == [False, True, False, True]

    def test_no_scores_rejected(self):
        with pytest.raises(ValueError, match="^scores must be nonempty$"):
            select_by_score(np.array([]))

    def test_population_sd_used(self):
        # threshold mean + population sd = 0.951 admits only the 1.0;
        # the sample-sd threshold (1.025) would admit nothing
        scores = np.array([0.0, 0.0, 0.9, 1.0])
        assert select_by_score(scores).tolist() == [False, False, False, True]
