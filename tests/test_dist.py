import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from mpclust.dataio import DataMatrix
from mpclust.dist import deviation_experiment, hoeffding_bound, pairwise


class TestPairwise:
    def test_manhattan_example(self):
        d = pairwise(np.array([[0.0, 0.0], [1.0, 2.0]]), "manhattan")
        assert d.tolist() == [3.0]

    def test_sq_euclidean_example(self):
        d = pairwise(np.array([[0.0, 0.0], [1.0, 2.0]]), "sq_euclidean")
        assert d.tolist() == [5.0]

    def test_identical_rows(self):
        d = pairwise(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert d.tolist() == [0.0]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.random((6, 3))
        perm = rng.permutation(6)
        d1 = pairwise(x)
        d2 = pairwise(x[perm])
        assert sorted(d1.round(12)) == sorted(d2.round(12))

    @pytest.mark.parametrize("metric", ["manhattan", "sq_euclidean"])
    def test_out_receives_the_distances(self, metric):
        x = np.random.default_rng(1).random((7, 4))
        out = np.full(21, -1.0)
        d = pairwise(x, metric, out=out)
        assert d is out
        assert out.tobytes() == pairwise(x, metric).tobytes()

    @settings(max_examples=50)
    @given(arrays(np.float64, (4, 3), elements=st.floats(-100, 100)))
    def test_triangle_inequality(self, x):
        from scipy.spatial.distance import squareform

        d = squareform(pairwise(x, "manhattan"))
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


class TestHoeffdingBound:
    def test_derived_values(self):
        # frozen from direct evaluation of the formula
        assert hoeffding_bound(10, 100, 0.3) == pytest.approx(0.27668522315560723, abs=1e-12)
        assert hoeffding_bound(1, 1, 1.0) == pytest.approx(0.2706705664732254, abs=1e-12)

    def test_monotone_in_eps_and_clipped(self):
        vals = [hoeffding_bound(10, 100, e) for e in (0.01, 0.1, 0.3, 0.5, 1.0)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(v <= 1.0 for v in vals)
        assert hoeffding_bound(1, 100, 1e-6) == 1.0

    def test_m_equal_total_allowed(self):
        assert 0 < hoeffding_bound(100, 100, 0.1) <= 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            hoeffding_bound(101, 100, 0.1)
        with pytest.raises(ValueError):
            hoeffding_bound(0, 100, 0.1)
        with pytest.raises(ValueError):
            hoeffding_bound(10, 100, 0.0)
        with pytest.raises(ValueError, match="eps must be positive, got nan"):
            hoeffding_bound(10, 100, float("nan"))


def _unit_matrix(n, m, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.random((n, m))
    vals[0, 0], vals[-1, -1] = 0.0, 1.0  # pin the global range
    return DataMatrix(
        vals, tuple(f"r{i}" for i in range(n)), tuple(f"c{j}" for j in range(m))
    )


class TestDeviationExperiment:
    def test_full_sample_exact(self):
        m = _unit_matrix(10, 30)
        table = deviation_experiment(m, "manhattan", 30, 200, [0.01, 0.1], seed=1)
        assert all(row[1] == 0.0 for row in table)

    def test_constant_difference_rows(self):
        vals = np.zeros((3, 20))
        vals[1, :] = 1.0  # |row0 - row1| is 1 at every feature
        vals[2, :] = 0.5
        m = DataMatrix(vals, ("a", "b", "c"), tuple(f"c{j}" for j in range(20)))
        # whichever pair is chosen, per-feature contributions are constant
        table = deviation_experiment(m, "manhattan", 5, 200, [1e-9], seed=3)
        assert table[0][1] == 0.0

    def test_exceedance_below_bound(self):
        m = _unit_matrix(20, 100, seed=5)
        table = deviation_experiment(m, "manhattan", 10, 2000, [0.2, 0.3], seed=5)
        for eps, empirical, bound in table:
            se = np.sqrt(bound * (1 - bound) / 2000)
            assert empirical <= bound + 3 * se

    def test_bad_eps_fails_before_the_draws(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking eps")

        m = _unit_matrix(5, 10)
        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValueError, match="eps must be positive, got nan"):
            deviation_experiment(m, "manhattan", 2, 100, [0.1, float("nan")], seed=0)

    def test_constant_matrix_rejected(self):
        m = DataMatrix(np.full((2, 2), 3.0), ("a", "b"), ("x", "y"))
        with pytest.raises(ValueError, match="^constant matrix has zero range"):
            deviation_experiment(m, "manhattan", 1, 100, [0.1], seed=0)

    def test_rescales_only_the_pair(self):
        # the bound needs the drawn pair's contributions in [0, 1]; a rescaled
        # copy of the whole matrix would cost one N x M float64 table
        m = _unit_matrix(5000, 200, seed=1)
        tracemalloc.start()
        try:
            deviation_experiment(m, "manhattan", 10, 100, [0.1], seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m.values.nbytes

    def test_too_few_trials(self):
        with pytest.raises(ValueError, match="100"):
            deviation_experiment(_unit_matrix(5, 10), "manhattan", 2, 99, [0.1], seed=0)
