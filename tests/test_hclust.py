import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.cluster.hierarchy import linkage

from mpclust import hclust
from mpclust.dist import pairwise
from mpclust.hclust import cut_k, cut_quantile, ward_linkage
from mpclust.metrics import ari

from oracles import labels_from_performed, naive_ward, partitions_of_labels


def _chain_dendrogram(heights):
    """Leaves 0..n-1 merged one at a time at the given heights."""
    n = len(heights) + 1
    rows = []
    cur = 0
    for i, h in enumerate(heights):
        rows.append([cur, i + 1, float(h), i + 2])
        cur = n + i
    return np.array(rows)


@st.composite
def _random_trees(draw):
    """Random merge order over 2..30 leaves; heights non-decreasing, drawn
    from a few values so that ties are common."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    heights = np.sort(rng.integers(0, draw(st.integers(1, 4)), n - 1)).astype(float)
    active = list(range(n))
    size = [1] * n
    rows = []
    for i in range(n - 1):
        a, b = sorted(active.pop(int(rng.integers(len(active)))) for _ in range(2))
        size.append(size[a] + size[b])
        rows.append([a, b, heights[i], size[-1]])
        active.append(n + i)
    return np.array(rows)


class TestWardLinkage:
    def test_public_surface_is_three_functions(self):
        assert hclust.__all__ == ["ward_linkage", "cut_quantile", "cut_k"]
        assert not hasattr(hclust, "Dendrogram")

    @pytest.mark.parametrize("seed", range(4))
    def test_is_scipys_matrix_with_heights_squared(self, seed):
        d = pairwise(np.random.default_rng(seed).random((12 + 7 * seed, 3)))
        expected = linkage(np.sqrt(d), "ward")
        expected[:, 2] **= 2
        z = ward_linkage(d)
        assert type(z) is np.ndarray and z.dtype == np.float64
        assert z.tobytes() == expected.tobytes()

    def test_three_point_example(self):
        dend = ward_linkage(pairwise(np.array([[0.0], [1.0], [5.0]]), "manhattan"))
        assert dend[0, 2] == pytest.approx(1.0)
        assert dend[1, 2] == pytest.approx(17.0 / 3.0)
        assert dend[0, 0] == 0 and dend[0, 1] == 1

    def test_two_points(self):
        dend = ward_linkage(np.array([3.5]))
        assert dend.shape == (1, 4)
        assert dend.tolist() == [[0.0, 1.0, 3.5, 2.0]]

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        x = rng.random((n, 3))
        dm = pairwise(x, "manhattan")
        oracle_heights, oracle_partitions = naive_ward(n, dm)  # before Ward takes dm's roots
        dend = ward_linkage(dm)
        assert np.allclose(sorted(dend[:, 2]), sorted(oracle_heights), atol=1e-9)
        for k in range(1, n + 1):
            assert partitions_of_labels(cut_k(dend, k)) == oracle_partitions[k]

    def test_row_permutation_consistent(self):
        rng = np.random.default_rng(3)
        x = rng.random((10, 4))
        perm = rng.permutation(10)
        a = cut_k(ward_linkage(pairwise(x)), 3)
        b = cut_k(ward_linkage(pairwise(x[perm])), 3)
        assert ari(a[perm], b) == pytest.approx(1.0)

    def test_out_receives_the_roots(self):
        # the argument is Ward's buffer: it ends holding the square roots
        d = pairwise(np.random.default_rng(5).random((8, 3)))
        roots, fresh = np.sqrt(d), d.copy()
        dend = ward_linkage(d)
        assert d.tobytes() == roots.tobytes()
        assert dend.tobytes() == ward_linkage(fresh).tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_nonfinite_or_negative(self, bad):
        # scipy's linkage rejects NaN and inf; a negative value's root is NaN
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            ward_linkage(np.array([1.0, bad, 2.0]))

    @pytest.mark.parametrize("size", [2, 4, 5])
    def test_rejects_length_not_a_triangle(self, size):
        with pytest.raises(ValueError, match="binomial coefficient"):
            ward_linkage(np.ones(size))

    def test_warm_patch_step_allocates_only_linkages_copy(self, monkeypatch):
        # a structural check, not a speed bound: with one reused buffer for
        # pdist and, in place, sqrt, the per-patch pdist -> sqrt -> linkage
        # step at 750 points allocates, outside scipy's linkage, less than one
        # float64 array over its pairs (fresh arrays took two)
        size = 750
        npair = size * (size - 1) // 2
        x = np.random.default_rng(0).random((size, 50))
        dist = np.empty(npair)
        outside = []

        def linkage(y, method):
            outside.append(tracemalloc.get_traced_memory()[1])
            z = scipy_linkage(y, method)
            tracemalloc.reset_peak()  # what linkage allocated is its own
            return z

        scipy_linkage = hclust.linkage
        monkeypatch.setattr(hclust, "linkage", linkage)
        ward_linkage(pairwise(x, out=dist))
        tracemalloc.start()
        try:
            ward_linkage(pairwise(x, out=dist))
            outside.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(outside) < npair * 8

    def test_sizes_and_root(self):
        rng = np.random.default_rng(4)
        dend = ward_linkage(pairwise(rng.random((9, 2))))
        assert dend[-1, 3] == 9
        by_node = {9 + i: row for i, row in enumerate(dend)}

        def size_of(node):
            if node < 9:
                return 1
            return size_of(int(by_node[node][0])) + size_of(int(by_node[node][1]))

        for i, row in enumerate(dend):
            assert row[3] == size_of(9 + i)


# Partitions for k = 1..n under scipy's tie order (see the hclust module
# docstring).  A different kernel or tie policy fails here.
_ALL_EQUAL_CUTS = [
    [0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1],
    [0, 0, 0, 1, 2, 2],
    [0, 0, 1, 2, 3, 3],
    [0, 1, 2, 3, 4, 4],
    [0, 1, 2, 3, 4, 5],
]
_CONSENSUS_CUTS = [
    [0, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 1],
    [0, 0, 1, 2, 0, 0, 0, 1],
    [0, 1, 2, 3, 0, 0, 1, 2],
    [0, 1, 2, 3, 0, 4, 1, 2],
    [0, 1, 2, 3, 0, 4, 1, 5],
    [0, 1, 2, 3, 0, 4, 5, 6],
    [0, 1, 2, 3, 4, 5, 6, 7],
]


class TestTiePolicy:
    def test_all_equal_pinned(self):
        dend = ward_linkage(np.ones(15))
        assert [cut_k(dend, k).tolist() for k in range(1, 7)] == _ALL_EQUAL_CUTS
        assert np.allclose(dend[:, 2], 1.0, rtol=1e-15, atol=0)

    def test_consensus_like_pinned(self):
        # 1 - S for S averaged over three partitions of 8 points: three
        # distinct values (1/3, 2/3, 1) over 28 pairs.  Keeping the merged
        # cluster in the lower slot instead changes 6 of these 8 cuts.
        parts = np.array(
            [[1, 2, 0, 1, 0, 0, 2, 2], [2, 2, 1, 0, 2, 0, 2, 1], [2, 1, 1, 0, 2, 2, 2, 1]]
        )
        s = (parts[:, :, None] == parts[:, None, :]).mean(axis=0)
        ii, jj = np.triu_indices(8, k=1)
        dend = ward_linkage(1.0 - s[ii, jj])
        assert [cut_k(dend, k).tolist() for k in range(1, 9)] == _CONSENSUS_CUTS
        expected = [1 / 3, 1 / 3, 1 / 3, 5 / 9, 41 / 45, 49 / 45, 13 / 9]
        assert np.allclose(dend[:, 2], expected, rtol=1e-14, atol=0)


class TestCutQuantile:
    def test_type7_interpolation_example(self):
        dend = _chain_dendrogram(range(1, 11))  # heights 1..10, n=11
        labels = cut_quantile(dend, 0.95)  # tau = 9.55: only height-10 merge skipped
        assert labels.max() + 1 == 2
        assert labels[10] != labels[0]

    def test_h_one_single_cluster(self):
        dend = _chain_dendrogram(range(1, 11))
        assert cut_quantile(dend, 1.0).max() == 0

    def test_all_equal_heights(self):
        dend = _chain_dendrogram([2.0] * 7)
        for h in (0.05, 0.5, 1.0):
            assert cut_quantile(dend, h).max() == 0  # ties merge

    def test_labels_first_leaf_order(self):
        dend = _chain_dendrogram([1.0, 2.0, 9.0, 3.0])
        labels = cut_quantile(dend, 0.5)
        # first distinct label seen scanning leaves must be 0, then 1, ...
        seen = []
        for lab in labels:
            if lab not in seen:
                seen.append(lab)
        assert seen == list(range(len(seen)))


class TestCutK:
    def test_extremes(self):
        dend = _chain_dendrogram([1.0, 2.0, 3.0])
        assert cut_k(dend, 4).tolist() == [0, 1, 2, 3]
        assert cut_k(dend, 1).max() == 0

    def test_three_point_example(self):
        dend = ward_linkage(pairwise(np.array([[0.0], [1.0], [5.0]]), "manhattan"))
        assert cut_k(dend, 2).tolist() == [0, 0, 1]

    def test_out_of_range(self):
        dend = _chain_dendrogram([1.0])
        for k in (0, 3):
            with pytest.raises(ValueError):
                cut_k(dend, k)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12))
    def test_exact_cluster_counts(self, seed, n):
        x = np.random.default_rng(seed).random((n, 2))
        dend = ward_linkage(pairwise(x))
        for k in range(1, n + 1):
            labels = cut_k(dend, k)
            assert len(np.unique(labels)) == k

    def test_monotone_quantile_matches_k1(self):
        x = np.random.default_rng(7).random((15, 3))
        dend = ward_linkage(pairwise(x))
        assert np.array_equal(cut_quantile(dend, 1.0), cut_k(dend, 1))


class TestVectorizedCut:
    @pytest.mark.parametrize("seed", range(6))
    def test_cuts_take_scipys_matrix(self, seed):
        # any scipy linkage matrix with non-decreasing heights, not only Ward's
        n = 6 + 5 * seed
        z = linkage(np.random.default_rng(seed).integers(0, 4, (n, 2)), "average")
        rows = z.tolist()
        for k in range(1, n + 1):
            assert cut_k(z, k).tolist() == labels_from_performed(rows, range(n - k)).tolist()
        for h in (0.1, 0.5, 0.95):
            tau = np.quantile(z[:, 2], h)
            performed = [i for i, row in enumerate(rows) if row[2] <= tau]
            assert cut_quantile(z, h).tolist() == labels_from_performed(rows, performed).tolist()

    @settings(max_examples=150, deadline=None)
    @given(_random_trees(), st.floats(0.01, 1.0))
    def test_matches_union_find_reference(self, dend, h):
        n = dend.shape[0] + 1
        z = dend.tolist()
        for k in range(1, n + 1):
            labels = cut_k(dend, k)
            assert labels.tolist() == labels_from_performed(z, range(n - k)).tolist()
            assert len(np.unique(labels)) == k
            first = np.unique(labels, return_index=True)[1]
            assert (np.diff(first) > 0).all()  # label j first appears before j + 1
        tau = np.quantile(dend[:, 2], h)
        performed = [i for i, row in enumerate(z) if row[2] <= tau]
        assert cut_quantile(dend, h).tolist() == labels_from_performed(z, performed).tolist()
