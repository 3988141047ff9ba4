import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mpclust
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


def _dispatch_targets_found() -> str:
    """The SIMD dispatch targets this numpy was built with and found on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return " ".join(t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t))


def test_generate_writes_the_same_bytes_on_every_kernel():
    """Fresh interpreters give the same matrix whichever kernel OpenBLAS or numpy selects.

    OpenBLAS reads ``OPENBLAS_CORETYPE`` and numpy ``NPY_DISABLE_CPU_FEATURES`` at import,
    so each setting runs in its own interpreter; Prescott has no FMA, so a noise sum left
    to a BLAS product would round differently there than on Haswell. An OpenBLAS built
    without ``DYNAMIC_ARCH`` ignores ``OPENBLAS_CORETYPE``, and those runs then pass trivially.
    """
    code = ("import hashlib; from mpclust.synthgen import SynthSpec, generate; "
            "v = generate(SynthSpec(snr=6, n_obs=40, n_features=500, seed=1)).matrix.values; "
            "print(hashlib.sha256(v.tobytes()).hexdigest())")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env["PYTHONPATH"] = str(Path(mpclust.__file__).resolve().parents[1])
    settings = {"default": {}, "Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
                "Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
                "no dispatch": {"NPY_DISABLE_CPU_FEATURES": _dispatch_targets_found()}}
    digests = {}
    for name, extra in settings.items():
        done = subprocess.run([sys.executable, "-c", code], env={**env, **extra},
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digests[name] = done.stdout.strip()
    assert len(set(digests.values())) == 1, digests


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

    @pytest.mark.parametrize("snr", [-1.0, np.nan, np.inf])
    def test_snr_not_finite_and_nonnegative(self, snr):
        with pytest.raises(ValueError) as err:
            generate(SynthSpec(snr=snr, n_obs=20, n_features=10, n_signal=5))
        assert str(err.value) == f"snr must be a finite number >= 0, got {snr}"

    @pytest.mark.parametrize("field, value, message", [
        ("n_obs", -3, "n_obs must be >= 2, got -3"),
        ("n_obs", 1, "n_obs must be >= 2, got 1"),
        ("n_features", 0, "n_features must be a positive multiple of 5, got 0"),
        ("n_features", -5, "n_features must be a positive multiple of 5, got -5"),
    ])
    def test_count_named_when_built(self, field, value, message):
        with pytest.raises(ValueError) as err:
            SynthSpec(**{"snr": 6, field: value})
        assert str(err.value) == message

    def test_bad_regime(self):
        with pytest.raises(ValueError, match="regime"):
            generate(SynthSpec(snr=1, regime="nope"))
