import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpclust.consensus import (
    ConsensusState,
    StopTracker,
    confusion,
    consensus_of,
    load_consensus_binary,
    save_consensus_binary,
    save_consensus_csv,
    should_stop,
    update,
)

from oracles import brute_consensus


def _random_log(n, iters, patch, seed):
    rng = np.random.default_rng(seed)
    log = []
    for _ in range(iters):
        idx = np.sort(rng.choice(n, size=patch, replace=False))
        labels = rng.integers(0, 3, size=patch)
        log.append((idx, labels))
    return log


class TestUpdate:
    def test_empty_patch_noop(self):
        state = ConsensusState.empty(4)
        update(state, np.array([], dtype=int), np.array([], dtype=int))
        assert state.diag.sum() == 0 and state.pair_seen.sum() == 0

    def test_pair_counts(self):
        state = ConsensusState.empty(4)
        update(state, np.array([1, 2]), np.array([7, 7]))
        s = consensus_of(state)
        assert s[1, 2] == 1.0 and s[1, 1] == 1.0 and s[0, 0] == 0.0

    def test_half_ratio(self):
        state = ConsensusState.empty(3)
        update(state, np.array([0, 1]), np.array([1, 1]))
        update(state, np.array([0, 1]), np.array([1, 2]))
        assert consensus_of(state)[0, 1] == 0.5

    def test_index_out_of_range(self):
        state = ConsensusState.empty(3)
        with pytest.raises(ValueError, match="range"):
            update(state, np.array([0, 3]), np.array([1, 1]))

    def test_label_length_mismatch(self):
        state = ConsensusState.empty(3)
        with pytest.raises(ValueError, match="exactly"):
            update(state, np.array([0, 1]), np.array([1]))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_order_independence(self, seed):
        log = _random_log(12, 8, 5, seed)
        perm = np.random.default_rng(seed + 1).permutation(len(log))
        a = ConsensusState.empty(12)
        b = ConsensusState.empty(12)
        for idx, labels in log:
            update(a, idx, labels)
        for k in perm:
            update(b, *log[k])
        assert np.array_equal(a.pair_same, b.pair_same)
        assert np.array_equal(a.pair_seen, b.pair_seen)
        assert np.array_equal(a.diag, b.diag)


class TestConsensusOf:
    def test_matches_brute_force_exactly(self):
        log = _random_log(20, 30, 7, seed=5)
        state = ConsensusState.empty(20)
        for idx, labels in log:
            update(state, idx, labels)
        assert np.array_equal(consensus_of(state), brute_consensus(20, log))

    def test_never_sampled_pair_zero(self):
        state = ConsensusState.empty(3)
        update(state, np.array([0, 1]), np.array([1, 1]))
        s = consensus_of(state)
        assert s[0, 2] == 0.0 and s[2, 2] == 0.0

    def test_incremental_confusion_rows_match(self):
        log = _random_log(25, 40, 8, seed=9)
        state = ConsensusState.empty(25)
        rows = np.zeros(25)
        for idx, labels in log:
            update(state, idx, labels, confusion_rows=rows)
        assert np.allclose(rows / 25, confusion(consensus_of(state)), atol=1e-12)


@st.composite
def _update_logs(draw):
    """N, then a sequence of (distinct sampled indices, labels) patches."""
    n = draw(st.integers(2, 30))
    patch = st.lists(st.integers(0, n - 1), unique=True, max_size=n).flatmap(
        lambda idx: st.tuples(
            st.just(idx),
            st.lists(st.integers(0, 3), min_size=len(idx), max_size=len(idx)),
        )
    )
    return n, draw(st.lists(patch, max_size=25))


def _assert_counters_consistent(state, rows, samplings):
    """The incremental confusion rows and the counters agree with a recount."""
    drift = np.abs(rows / state.n - confusion(consensus_of(state))).max()
    assert drift <= 1e-12
    assert (state.pair_same <= state.pair_seen).all()
    assert np.array_equal(state.diag, samplings)


class TestIncrementalConfusionDrift:
    @settings(max_examples=60, deadline=None)
    @given(_update_logs())
    def test_random_update_sequences(self, log):
        n, patches = log
        state = ConsensusState.empty(n)
        rows = np.zeros(n)
        samplings = np.zeros(n, dtype=np.int64)
        for idx, labels in patches:
            update(state, np.array(idx, dtype=int), np.array(labels, dtype=int), rows)
            samplings[idx] += 1
            _assert_counters_consistent(state, rows, samplings)

    def test_long_run(self):
        n = 200
        log = _random_log(n, 1000, 50, seed=17)
        state = ConsensusState.empty(n)
        rows = np.zeros(n)
        samplings = np.zeros(n, dtype=np.int64)
        for idx, labels in log:
            update(state, idx, labels, confusion_rows=rows)
            samplings[idx] += 1
        _assert_counters_consistent(state, rows, samplings)


class TestConfusion:
    def test_binary_matrix_zero(self):
        s = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert confusion(s).tolist() == [0.0, 0.0]

    def test_two_by_two_half(self):
        s = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert confusion(s).tolist() == [0.125, 0.125]

    def test_uniform_half_offdiag(self):
        n = 8
        s = np.full((n, n), 0.5)
        np.fill_diagonal(s, 1.0)
        expected = 0.25 * (n - 1) / n
        assert np.allclose(confusion(s), expected)

    def test_bounds(self):
        rng = np.random.default_rng(0)
        s = rng.random((10, 10))
        s = (s + s.T) / 2
        c = confusion(s)
        assert (c >= 0).all() and (c <= 0.25).all()


class TestStopTracker:
    def test_constant_zero_stops_at_fifth(self):
        tracker = StopTracker()
        for call in range(1, 6):
            tracker, stop = tracker.step(0.0)
        assert stop and call == 5

    def test_alternating_never_stops(self):
        tracker = StopTracker()
        for call in range(20):
            tracker, stop = tracker.step(0.1 if call % 2 else 0.2)
            assert not stop

    def test_eps_sequence_with_reset(self):
        # eps per call: 0,0,0,1,0,0,0,0,0 -> stops exactly on the final run of 5
        pcts = [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        tracker = StopTracker()
        fired_at = None
        for i, p in enumerate(pcts, 1):
            tracker, stop = tracker.step(p)
            if stop:
                fired_at = i
                break
        assert fired_at == 9

    def test_should_stop_uses_percentile(self):
        s = np.eye(6)
        tracker = StopTracker(patience=2)
        tracker, stop1 = should_stop(tracker, s)
        tracker, stop2 = should_stop(tracker, s)
        assert not stop1 and stop2

    def test_run_length_capped(self):
        tracker = StopTracker(patience=3)
        for _ in range(10):
            tracker, _ = tracker.step(0.0)
        assert tracker.run_length <= tracker.patience


class TestExport:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        s = rng.random((6, 6)).astype(np.float32).astype(float)
        s = (s + s.T) / 2
        p = tmp_path / "s.bin"
        save_consensus_binary(s, p)
        back = load_consensus_binary(p)
        assert back.shape == (6, 6)
        assert np.allclose(back, s, atol=1e-7)
        assert p.read_bytes()[:4] == b"MPCS"

    def test_binary_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            load_consensus_binary(p)

    def test_csv_export(self, tmp_path):
        s = np.array([[1.0, 0.25], [0.25, 1.0]])
        p = tmp_path / "s.csv"
        save_consensus_csv(s, p, ("a", "b"))
        lines = p.read_text().splitlines()
        assert lines[0] == "id,a,b"
        assert lines[1].startswith("a,1,")
