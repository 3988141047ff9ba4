import numpy as np
import pytest

from mpclust.synthgen import SynthSpec, cluster_means, generate

from oracles import snr_of


def test_default_sparse_shapes():
    spec = SynthSpec(snr=6, seed=1)
    data = generate(spec)
    assert data.matrix.values.shape == (500, 5000)
    counts = np.bincount(data.labels)[1:]
    assert sorted(counts.tolist()) == [20, 80, 120, 280]
    assert data.signal_mask.sum() == 25


def test_n_features_default_follows_regime():
    assert SynthSpec(snr=6, regime="no_sparse").n_features == 100
    assert SynthSpec(snr=6, regime="weak_sparse").n_features == 5000
    assert SynthSpec(snr=6, regime="no_sparse", n_features=40).n_features == 40


def test_no_sparse_all_signal():
    spec = SynthSpec(snr=6, n_obs=200, n_features=100, regime="no_sparse", seed=2)
    data = generate(spec)
    assert data.matrix.values.shape == (200, 100)
    assert data.signal_mask.all()


def test_zero_snr_column_means_near_zero():
    spec = SynthSpec(snr=0, n_obs=400, n_features=50, n_signal=10, seed=3)
    data = generate(spec)
    # every column mean ~ N(0, 1/N); allow 4 sigma
    bound = 4.0 / np.sqrt(400)
    assert np.abs(data.matrix.values.mean(axis=0)).max() < bound


def test_reproducible():
    a = generate(SynthSpec(snr=5, n_obs=50, n_features=20, n_signal=5, seed=9))
    b = generate(SynthSpec(snr=5, n_obs=50, n_features=20, n_signal=5, seed=9))
    assert np.array_equal(a.matrix.values, b.matrix.values)
    assert np.array_equal(a.labels, b.labels)


def test_block_covariance_structure():
    # snr=0 pools all rows into one zero-mean Gaussian: check one 5-block
    spec = SynthSpec(snr=0, n_obs=5000, n_features=20, n_signal=5, rho=0.5, seed=7)
    x = generate(spec).matrix.values
    corr = np.corrcoef(x[:, :5].T)
    off = corr[~np.eye(5, dtype=bool)]
    assert np.abs(off - 0.5).max() < 0.1
    # cross-block correlation ~ 0
    cross = np.corrcoef(x[:, 0], x[:, 7])[0, 1]
    assert abs(cross) < 0.1


def test_weak_sparse_noise_means_shared():
    spec = SynthSpec(snr=5, n_obs=100, n_features=50, n_signal=10, regime="weak_sparse", seed=4)
    means = cluster_means(spec)
    # all clusters share the same (nonzero) noise-feature means
    noise = means[:, 10:]
    assert np.allclose(noise, noise[0])
    assert np.abs(noise[0]).max() > 0


def test_labels_travel_with_rows():
    spec = SynthSpec(snr=50, n_obs=60, n_features=10, n_signal=10, seed=5)
    data = generate(spec)
    # with huge snr, rows of cluster 1 have strongly positive signal block
    signal = data.matrix.values[:, :10].mean(axis=1)
    assert (signal[data.labels == 1] > 0).all()
    assert (signal[data.labels == 4] < 0).all()


class TestSnrOf:
    def test_sparse_matches_requested(self):
        assert snr_of(cluster_means(SynthSpec(snr=5, seed=0))) == pytest.approx(5.0)

    def test_zero(self):
        assert snr_of(cluster_means(SynthSpec(snr=0, seed=0))) == 0.0

    def test_vector(self):
        assert snr_of(np.full(25, 0.8)) == pytest.approx(4.0)


class TestValidation:
    def test_bad_sizes(self):
        with pytest.raises(ValueError, match="sum"):
            generate(SynthSpec(snr=1, n_obs=100, cluster_sizes=(10, 10, 10, 10), n_features=50, n_signal=5))

    def test_bad_block(self):
        with pytest.raises(ValueError, match="multiple"):
            generate(
                SynthSpec(snr=1, n_obs=10, cluster_sizes=(1, 2, 3, 4), n_features=7, n_signal=2)
            )

    def test_bad_regime(self):
        with pytest.raises(ValueError, match="regime"):
            generate(SynthSpec(snr=1, regime="nope"))
