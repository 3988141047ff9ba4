import dataclasses
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial.distance import squareform

from mpclust import consensus
from mpclust.consensus import (
    STOP_PATIENCE,
    STOP_TOLERANCE,
    ConsensusState,
    PairScratch,
    consensus_of,
    dissimilarity_of,
    load_consensus_binary,
    save_consensus_binary,
    save_consensus_csv,
    stop_gap,
    update,
)
from mpclust.dataio import DataMatrix, write_matrix
from mpclust.pipeline import HyperParams, finalize_hierarchical, run

from oracles import brute_consensus, confusion, dense_update, stop_tracker_index


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

    def test_repeated_index_rejected_with_the_state_unchanged(self):
        state = ConsensusState.empty(3)
        with pytest.raises(ValueError, match="^sampled indices must be distinct$"):
            update(state, np.array([0, 1, 1]), np.array([1, 1, 2]))
        assert state.diag.sum() == 0 and state.pair_seen.sum() == 0

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


class TestConsensusState:
    def test_n_is_read_from_the_arrays(self):
        names = [f.name for f in dataclasses.fields(ConsensusState)]
        assert names == ["pair_same", "pair_seen", "diag", "confusion_rows"]
        assert ConsensusState.empty(5).n == 5
        # built by hand for 6 observations: pair (1, 4) is condensed slot 7, and 5 is in range
        state = ConsensusState(np.zeros(15, np.uint8), np.zeros(15, np.uint8),
                               np.zeros(6, np.uint8), np.zeros(6))
        assert state.n == state.diag.size == 6
        update(state, np.array([1, 4, 5]), np.array([0, 0, 1]))
        assert np.flatnonzero(state.pair_same).tolist() == [7]

    @pytest.mark.parametrize("n", [1, 0])
    def test_fewer_than_two_observations_rejected(self, n):
        with pytest.raises(ValueError, match="^need at least 2 observations$"):
            ConsensusState.empty(n)


class TestCounterWidth:
    @pytest.mark.parametrize(
        "max_count, dtype",
        [(1, np.uint8), (255, np.uint8), (256, np.uint16), (65_535, np.uint16),
         (65_536, np.uint32), (2**32 - 1, np.uint32), (2**32, np.uint64), (2**70, np.uint64)],
    )
    def test_narrowest_dtype_that_holds_the_count(self, max_count, dtype):
        state = ConsensusState.empty(4, max_count=max_count)
        assert state.pair_same.dtype == state.pair_seen.dtype == state.diag.dtype == dtype

    def test_default_is_32_bit(self):
        assert ConsensusState.empty(4).pair_seen.dtype == np.uint32

    # the largest count of uint8 and of uint16 counters, and a co-cluster count below it
    _LIMITS = ((255, 200), (65_535, 65_000))

    def _near_limit(self, limit, same):
        """Pair (0, 1) and observations 0, 1 one update short of the counters' ``limit``."""
        state = ConsensusState.empty(4, max_count=limit)
        state.diag[:2] = state.pair_seen[0] = limit - 1
        state.pair_same[0] = same
        return state

    def test_last_count_that_fits(self):
        for limit, same in self._LIMITS:
            state = self._near_limit(limit, same)
            update(state, np.array([0, 1]), np.array([3, 3]))
            assert state.diag[:2].tolist() == [limit, limit]
            assert (state.pair_seen[0], state.pair_same[0]) == (limit, same + 1)
            s_old, s_new = same / (limit - 1), (same + 1) / limit
            assert state.confusion_rows[0] == s_new * (1 - s_new) - s_old * (1 - s_old)

    def test_overflow_raises_and_leaves_counters(self):
        for limit, same in self._LIMITS:
            state = self._near_limit(limit, same)
            update(state, np.array([0, 1]), np.array([3, 3]))
            fields = ("pair_same", "pair_seen", "diag", "confusion_rows")
            before = [getattr(state, f).copy() for f in fields]
            with pytest.raises(ValueError, match=f"already sampled {limit} times"):
                update(state, np.array([3, 1, 2]), np.array([0, 0, 1]))
            after = [getattr(state, f) for f in fields]
            assert all(a.tobytes() == b.tobytes() for a, b in zip(before, after))


class TestPairScratch:
    def test_matches_fresh_buffers(self):
        log = _random_log(30, 40, 9, seed=4)
        a, b = ConsensusState.empty(30), ConsensusState.empty(30)
        scratch = PairScratch.empty(9, a.pair_seen.dtype)
        for idx, labels in log:
            update(a, idx, labels, scratch=scratch)
            update(b, idx, labels)
        for x, y in zip((a.pair_same, a.pair_seen, a.diag), (b.pair_same, b.pair_seen, b.diag)):
            assert np.array_equal(x, y)
        assert a.confusion_rows.tobytes() == b.confusion_rows.tobytes()

    def test_any_label_values(self):
        a, b = ConsensusState.empty(5), ConsensusState.empty(5)
        update(a, np.array([4, 0, 2]), np.array(["x", "y", "x"]))
        update(b, np.array([4, 0, 2]), np.array([-7, 9, -7]))
        assert np.array_equal(a.pair_same, b.pair_same)
        assert consensus_of(a)[2, 4] == 1.0 and consensus_of(a)[0, 2] == 0.0

    @pytest.mark.parametrize("size, dtype", [(4, np.uint16), (3, np.uint32)])
    def test_mismatched_scratch_rejected(self, size, dtype):
        state = ConsensusState.empty(6, max_count=100)
        with pytest.raises(ValueError, match="scratch"):
            update(state, np.array([0, 1, 2]), np.array([0, 0, 1]),
                   scratch=PairScratch.empty(size, dtype))
        assert not state.diag.any()

    def test_warm_update_allocates_less_than_one_pair_array(self):
        # a structural check, not a speed bound: with a run's scratch, one
        # more update at N=3000, 750 observations allocates less than one
        # float64 array over its pairs (fresh temporaries took about seven)
        n, size = 3000, 750
        npair = size * (size - 1) // 2
        rng = np.random.default_rng(0)
        state = ConsensusState.empty(n, max_count=5000)
        scratch = PairScratch.empty(size, state.pair_seen.dtype)
        patches = [
            (rng.choice(n, size, replace=False), rng.integers(0, 4, size)) for _ in range(3)
        ]
        for idx, labels in patches[:2]:
            update(state, idx, labels, scratch=scratch)
        tracemalloc.start()
        try:
            update(state, *patches[2], scratch=scratch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < npair * 8


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
        for idx, labels in log:
            update(state, idx, labels)
        assert np.allclose(state.confusion_rows / 25, confusion(consensus_of(state)), atol=1e-12)


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


def _assert_counters_consistent(state, samplings):
    """The incremental confusion rows and the counters agree with a recount."""
    drift = np.abs(state.confusion_rows / state.n - confusion(consensus_of(state))).max()
    assert drift <= 1e-12
    assert (state.pair_same <= state.pair_seen).all()
    assert np.array_equal(state.diag, samplings)


class TestIncrementalConfusionDrift:
    @settings(max_examples=60, deadline=None)
    @given(_update_logs())
    def test_random_update_sequences(self, log):
        n, patches = log
        state = ConsensusState.empty(n)
        samplings = np.zeros(n, dtype=np.int64)
        for idx, labels in patches:
            update(state, np.array(idx, dtype=int), np.array(labels, dtype=int))
            samplings[idx] += 1
            _assert_counters_consistent(state, samplings)

    def test_long_run(self):
        n = 200
        log = _random_log(n, 1000, 50, seed=17)
        state = ConsensusState.empty(n)
        samplings = np.zeros(n, dtype=np.int64)
        for idx, labels in log:
            update(state, idx, labels)
            samplings[idx] += 1
        _assert_counters_consistent(state, samplings)


@st.composite
def _replay_logs(draw):
    """A start state and a log of same-size patches for ``update`` and its dense oracle.

    uint8 and uint16 states start empty, so every pair's first co-sampling
    is in the log. uint32 states (``max_count`` > 65,535) start with counts
    above 65,535 on some pairs, none on others and no co-clustering on others.
    A patch is one cluster (every pair live) or has up to four labels.
    """
    n = draw(st.integers(2, 14))
    size = draw(st.integers(2, n))
    max_count = draw(st.sampled_from([255, 5_000, 70_000]))
    wide = max_count > 65_535
    state = ConsensusState.empty(n, max_count=max_count)
    if wide:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        npair = state.pair_seen.size
        counts = rng.integers(65_536, 70_000, npair)
        state.pair_seen[:] = np.where(rng.random(npair) < 0.3, 0, counts)
        state.pair_same[:] = np.where(rng.random(npair) < 0.5, 0, state.pair_seen // 3)
        state.diag[:] = 80_000
        state.confusion_rows[:] = rng.random(n) * n
    labels = st.one_of(
        st.just([5] * size), st.lists(st.integers(0, 3), min_size=size, max_size=size)
    )
    patch = st.tuples(st.permutations(range(n)).map(lambda p: p[:size]), labels)
    return state, draw(st.lists(patch, min_size=1, max_size=12)), draw(st.booleans())


def _counter_copies(state):
    return [a.copy() for a in (state.pair_seen, state.pair_same, state.diag, state.confusion_rows)]


class TestLivePairs:
    """``update`` skips the pairs whose S stays 0 and matches the dense formula bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(_replay_logs())
    def test_replay_matches_dense_formula(self, case):
        state, log, with_scratch = case
        ref = _counter_copies(state)
        size = len(log[0][0])
        scratch = PairScratch.empty(size, state.pair_seen.dtype) if with_scratch else None
        for idx, labels in log:
            update(state, np.array(idx), np.array(labels), scratch=scratch)
            dense_update(*ref, state.n, idx, labels)
        assert state.confusion_rows.tobytes() == ref[3].tobytes()
        for got, want in zip((state.pair_seen, state.pair_same, state.diag), ref):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_run_sized_log_matches_dense_formula(self):
        state = ConsensusState.empty(60, max_count=300)
        ref = _counter_copies(state)
        scratch = PairScratch.empty(15, state.pair_seen.dtype)
        for idx, labels in _random_log(60, 300, 15, seed=21):
            update(state, idx, labels, scratch=scratch)
            dense_update(*ref, 60, idx, labels)
        assert state.confusion_rows.tobytes() == ref[3].tobytes()
        assert all(np.array_equal(a, b) for a, b in zip((state.pair_seen, state.pair_same), ref))


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


def _stop_index(pcts):
    """1-based index of the percentile at which run()'s rule stops, or None."""
    armed = [0.0]
    for i, pct in enumerate(pcts, 1):
        armed.append(pct)
        if len(armed) > STOP_PATIENCE and stop_gap(armed) < 1:
            return i
    return None


_NEAR_C = [0.0, np.nextafter(1e-5, 0), 1e-5, np.nextafter(1e-5, 1), 2e-5, 0.5]


class TestStopGap:
    def test_constant_zero_stops_at_fifth(self):
        assert _stop_index([0.0] * 20) == 5

    def test_alternating_never_stops(self):
        assert _stop_index([0.1 if call % 2 else 0.2 for call in range(20)]) is None

    def test_eps_sequence_with_reset(self):
        # eps per call: 0,0,0,1,0,0,0,0,0 -> stops exactly on the final run of 5
        assert _stop_index([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]) == 9

    def test_none_below_two_values(self):
        assert stop_gap([]) is None and stop_gap([0.3]) is None

    def test_last_changes_over_the_tolerance(self):
        assert stop_gap([0.0, 0.5]) == 0.5 / STOP_TOLERANCE
        # only the last STOP_PATIENCE changes count: the jump to 1.0 is the sixth
        assert stop_gap([0.0] + [1.0] * (STOP_PATIENCE + 1)) == 0.0

    def test_the_tolerance_itself_is_a_change(self):
        c = STOP_TOLERANCE
        assert stop_gap([0.0] * 5 + [c]) == 1.0
        assert stop_gap([0.0] * 5 + [np.nextafter(c, 0)]) < 1

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_NEAR_C), st.floats(0, 0.25)), max_size=40))
    def test_matches_the_running_count(self, pcts):
        assert _stop_index(pcts) == stop_tracker_index(pcts)


def _counters(n, same, seen):
    """A state with these condensed counters, every observation sampled once."""
    state = ConsensusState.empty(n)
    state.pair_same[:], state.pair_seen[:], state.diag[:] = same, seen, 1
    return state


class TestExport:
    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        seen = rng.integers(1, 1000, 15)
        state = _counters(6, rng.integers(0, seen + 1), seen)
        s = consensus_of(state)
        p = tmp_path / "s.bin"
        save_consensus_binary(state, p)
        back = load_consensus_binary(p)
        assert back.shape == (6, 6)
        assert np.allclose(back, s, atol=1e-7)
        assert p.read_bytes()[:4] == b"MPCS"

    def test_binary_bytes_match_struct_reference(self, tmp_path):
        s = np.array([[1.0, 0.25, 1 / 3], [0.25, 1.0, 0.0], [1 / 3, 0.0, 1.0]])
        state = _counters(3, [1, 1, 0], [4, 3, 2])  # S's upper triangle, row by row
        assert consensus_of(state).tobytes() == s.tobytes()
        p = tmp_path / "s.bin"
        save_consensus_binary(state, p)
        ref = b"MPCS" + struct.pack("<I", 3) + struct.pack("<9f", *s.ravel())
        assert p.read_bytes() == ref

    def test_binary_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            load_consensus_binary(p)

    def test_binary_truncated_header(self, tmp_path):
        p = tmp_path / "short.bin"
        p.write_bytes(b"MPCS\x01")  # N cut to 1 of its 4 bytes
        with pytest.raises(ValueError, match=r"short\.bin: truncated header"):
            load_consensus_binary(p)

    @pytest.mark.parametrize("cut", [1, 4, 7])
    def test_binary_payload_cut_short(self, tmp_path, cut):
        p = tmp_path / "cut.bin"
        save_consensus_binary(_counters(3, [1, 1, 0], [4, 3, 2]), p)
        p.write_bytes(p.read_bytes()[:-cut])  # a partial last value, or values missing
        with pytest.raises(ValueError, match=rf"cut\.bin: expected 9 f32 values .* found {36 - cut} bytes"):
            load_consensus_binary(p)

    def test_csv_export(self, tmp_path):
        s = np.array([[1.0, 0.25], [0.25, 1.0]])
        p = tmp_path / "s.csv"
        write_matrix(DataMatrix(s, ("a", "b"), ("a", "b")), p)
        lines = p.read_text().splitlines()
        assert lines[0] == "id,a,b"
        assert lines[1].startswith("a,1,")


@st.composite
def _update_logs(draw):
    """A state after random updates, with ids that may need csv quoting."""
    n = draw(st.integers(2, 9))
    state = ConsensusState.empty(n)
    for _ in range(draw(st.integers(0, 12))):
        idx = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
        labels = draw(st.lists(st.integers(0, 2), min_size=len(idx), max_size=len(idx)))
        update(state, np.array(idx, dtype=int), np.array(labels, dtype=int))
    ids = draw(st.lists(st.text(alphabet='ab,"\n 7', min_size=1, max_size=3),
                        min_size=n, max_size=n, unique=True))
    return state, tuple(ids)


class TestConsensusCsvWriter:
    @settings(max_examples=200, deadline=None)
    @given(_update_logs())
    def test_bytes_match_dense_writer(self, tmp_path_factory, case):
        state, ids = case
        d = tmp_path_factory.mktemp("c")
        save_consensus_csv(state, ids, d / "counters.csv")
        write_matrix(DataMatrix(consensus_of(state), ids, ids), d / "dense.csv")
        assert (d / "counters.csv").read_bytes() == (d / "dense.csv").read_bytes()

    def test_unsampled_diagonal_and_unseen_pairs(self, tmp_path):
        state = ConsensusState.empty(3)
        update(state, np.array([0, 1]), np.array([0, 1]))
        update(state, np.array([0, 1]), np.array([4, 4]))
        p = tmp_path / "s.csv"
        save_consensus_csv(state, ("a", "b", "c"), p)
        assert p.read_text() == "id,a,b,c\na,1,0.5,0\nb,0.5,1,0\nc,0,0,0\n"

    def test_id_count_checked(self, tmp_path):
        with pytest.raises(ValueError, match="2 ids for 3"):
            save_consensus_csv(ConsensusState.empty(3), ("a", "b"), tmp_path / "s.csv")

    @settings(max_examples=200, deadline=None)
    @given(_update_logs(), st.sampled_from([1, 0, -1]), st.sampled_from([np.uint8, np.uint16, np.uint32]))
    def test_bytes_match_dense_writers_around_the_table_bound(self, tmp_path_factory, case, slack, dtype):
        # the bound is W² + 1 (W² just below it), W² (at it) or W² - 1 (just above it)
        state, ids = case
        counters = _as_dtype(state, dtype)
        w = max(int(state.pair_seen.max(initial=0)), 1) + 1
        d = tmp_path_factory.mktemp("t")
        with mock.patch.object(consensus, "_TABLE_CODES", w * w + slack):
            values, _ = consensus._consensus_cells(counters)
            save_consensus_csv(counters, ids, d / "s.csv")
            save_consensus_binary(counters, d / "s.bin")
        assert (values.size == w * w) == (slack >= 0)  # the table over every code, or the codes that occur
        write_matrix(DataMatrix(consensus_of(state), ids, ids), d / "dense.csv")
        assert (d / "s.csv").read_bytes() == (d / "dense.csv").read_bytes()
        assert (d / "s.bin").read_bytes() == _dense_binary(state)


def _as_dtype(state, dtype):
    return ConsensusState(*(a.astype(dtype) for a in
                            (state.pair_same, state.pair_seen, state.diag)),
                          state.confusion_rows)


def _dense_binary(state):
    return b"MPCS" + struct.pack("<I", state.n) + consensus_of(state).astype("<f4").tobytes()


class TestCounterFedOutputs:
    """The exports and the final clustering's input, read from the counters."""

    @settings(max_examples=200, deadline=None)
    @given(_update_logs(), st.integers(1, 30))
    def test_exports_match_dense_s_at_any_block_size(self, tmp_path_factory, case, cells):
        # cells // N rows per block: one row, several, a short last block, or one block
        state, ids = case
        d = tmp_path_factory.mktemp("b")
        for counters in (state, *(_as_dtype(state, dt) for dt in (np.uint8, np.uint16))):
            with mock.patch.object(consensus, "_BLOCK_CELLS", cells):
                save_consensus_binary(counters, d / "s.bin")
                save_consensus_csv(counters, ids, d / "s.csv")
            assert (d / "s.bin").read_bytes() == _dense_binary(state)
            write_matrix(DataMatrix(consensus_of(state), ids, ids), d / "dense.csv")
            assert (d / "s.csv").read_bytes() == (d / "dense.csv").read_bytes()

    @pytest.mark.parametrize("n, cells", [(2, 1), (2, 2), (7, 21), (7, 6)])
    def test_binary_block_edges(self, tmp_path, n, cells):
        log = _random_log(n, 6, n - 1, seed=n)
        state = ConsensusState.empty(n)
        for idx, labels in log:
            update(state, idx, labels)
        with mock.patch.object(consensus, "_BLOCK_CELLS", cells):
            save_consensus_binary(state, tmp_path / "s.bin")
        assert (tmp_path / "s.bin").read_bytes() == _dense_binary(state)
        assert np.array_equal(load_consensus_binary(tmp_path / "s.bin"),
                              consensus_of(state).astype(np.float32))

    def test_binary_at_default_block_size(self, tmp_path):
        log = _random_log(600, 40, 150, seed=3)  # blocks of 436 rows and of 164
        state = ConsensusState.empty(600, max_count=40)
        for idx, labels in log:
            update(state, idx, labels)
        save_consensus_binary(state, tmp_path / "s.bin")
        assert (tmp_path / "s.bin").read_bytes() == _dense_binary(state)

    @pytest.mark.parametrize("w, table, dtype", [
        (w, table, dtype)
        for w, table in ((255, True), (256, True), (257, False))
        for dtype in (np.uint8, np.uint16, np.uint32)
        if w - 1 <= np.iinfo(dtype).max
    ])
    def test_exports_at_the_table_bound(self, tmp_path, w, table, dtype):
        # W² = 65,025, 65,536 (= _TABLE_CODES; the largest code, 65,535, fills
        # a uint16) and 66,049, whose uint32 codes need counters past uint8's;
        # observation 5 is never sampled, and pairs (0, 1) and those of
        # observation 5 are never co-sampled
        top = w - 1
        # pairs (0, 1) .. (0, 5), (1, 2) .. (1, 5), (2, 3) .. (2, 5), (3, 4), (3, 5), (4, 5)
        seen = [0, top, top, top, 0, 7, top, 1, 0, top, 3, 0, top, 0, 0]
        same = [0, top, 0, top - 1, 0, 7, 1, 0, 0, top, 2, 0, top, 0, 0]
        state = ConsensusState(np.array(same, dtype=dtype), np.array(seen, dtype=dtype),
                               np.array([top] * 5 + [0], dtype=dtype), np.zeros(6))
        values, _ = consensus._consensus_cells(state)
        assert consensus._TABLE_CODES == 1 << 16
        assert (values.size == w * w) is table
        ids = tuple("abcdef")
        save_consensus_csv(state, ids, tmp_path / "s.csv")
        write_matrix(DataMatrix(consensus_of(state), ids, ids), tmp_path / "dense.csv")
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()
        save_consensus_binary(state, tmp_path / "s.bin")
        assert (tmp_path / "s.bin").read_bytes() == _dense_binary(state)

    def test_exports_at_the_largest_uint32_count(self, tmp_path):
        # W = 2**32: the codes fill a uint64, and only the codes that occur are kept
        top = 2**32 - 1
        state = _counters(3, [top, 0, 5], [top, top, 2**31 + 5])
        values, _ = consensus._consensus_cells(state)
        assert values.size == 5  # (top, top), (top, 0), (2**31 + 5, 5) and the diagonal's two
        save_consensus_csv(state, ("a", "b", "c"), tmp_path / "s.csv")
        write_matrix(DataMatrix(consensus_of(state), ("a", "b", "c"), ("a", "b", "c")), tmp_path / "d.csv")
        assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "d.csv").read_bytes()
        save_consensus_binary(state, tmp_path / "s.bin")
        assert (tmp_path / "s.bin").read_bytes() == _dense_binary(state)

    def test_codes_past_the_table_bound_peak_at_12_bytes_per_pair(self):
        # W = 301: the uint32 codes (4 bytes a pair) and their positions from
        # np.searchsorted (8 more) are the peak; np.unique's copy of the codes
        # and, before numpy 2.3, its sort's two bool masks stay below it
        n = 600
        npair = n * (n - 1) // 2
        rng = np.random.default_rng(2)
        seen = rng.choice(np.array([0, 280, 290, 300], dtype=np.uint16), npair)
        state = _counters(n, np.where(rng.random(npair) < 0.5, seen, 0), seen)
        tracemalloc.start()
        try:
            values, _ = consensus._consensus_cells(state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert values.size < 301 * 301  # past the bound: only the codes that occur
        assert peak < 12.5 * npair

    @settings(max_examples=100, deadline=None)
    @given(_update_logs())
    def test_dissimilarity_is_one_minus_condensed_s_bit_for_bit(self, case):
        state, _ = case
        want = (1 - squareform(consensus_of(state), checks=False)).tobytes()
        for counters in (state, *(_as_dtype(state, dt) for dt in (np.uint8, np.uint16))):
            got = dissimilarity_of(counters)
            assert got.dtype == np.float64 and got.tobytes() == want


class TestWidthIndependence:
    """One logged run's patches, replayed into counters of each width, give the same bits."""

    @staticmethod
    def _logged_run(n, n_frac, t_max):
        rng = np.random.default_rng(n)
        data = DataMatrix(rng.normal(size=(n, 12)), tuple(f"r{i}" for i in range(n)),
                          tuple(f"c{j}" for j in range(12)))
        hp = HyperParams(mode="mpcc", n_frac=n_frac, t_max=t_max, early_stop=False, seed=3)
        res = run(data, hp, collect_arrays=True)
        return res, [(rec.obs_idx, rec.labels) for rec in res.trace], data.row_ids

    @pytest.mark.parametrize("n, n_frac, t_max, dtypes", [
        (40, 0.25, 160, (np.uint8, np.uint16, np.uint32)),  # a default-sized budget
        (10, 0.8, 500, (np.uint16, np.uint32)),  # past the table bound
    ], ids=["table", "past-the-bound"])
    def test_every_width_gives_the_same_outputs(self, tmp_path, n, n_frac, t_max, dtypes):
        res, log, ids = self._logged_run(n, n_frac, t_max)
        assert res.consensus.pair_seen.dtype == dtypes[0]
        w = int(res.consensus.pair_seen.max()) + 1
        # the codes, W² - 1 at most, take uint16 under the table bound and uint32 past it
        assert (w * w > consensus._TABLE_CODES) == (t_max > 255)
        assert np.min_scalar_type(w * w - 1) == (np.uint32 if t_max > 255 else np.uint16)
        outputs = []
        for dtype in dtypes:
            state = ConsensusState.empty(n, max_count=np.iinfo(dtype).max)
            assert state.pair_seen.dtype == dtype
            scratch = PairScratch.empty(len(log[0][0]), state.pair_seen.dtype)
            for idx, labels in log:
                update(state, idx, labels, scratch=scratch)
            d = tmp_path / np.dtype(dtype).name
            d.mkdir()
            save_consensus_csv(state, ids, d / "s.csv")
            save_consensus_binary(state, d / "s.bin")
            outputs.append((
                state.pair_same.tolist(), state.pair_seen.tolist(), state.diag.tolist(),
                state.confusion_rows.tobytes(), finalize_hierarchical(state, 3).tolist(),
                (d / "s.csv").read_bytes(), (d / "s.bin").read_bytes(),
            ))
        assert all(out == outputs[0] for out in outputs[1:])
        assert outputs[0][0] == res.consensus.pair_same.tolist()  # the run's own counters
        assert outputs[0][3] == res.consensus.confusion_rows.tobytes()
