import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpclust.dataio import (
    DataMatrix,
    load_matrix,
    log2_plus_one,
    rescale_unit,
    write_matrix,
)

from oracles import per_cell_matrix_csv


def _write(tmp_path, text, name="m.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadMatrix:
    def test_basic_csv(self, tmp_path):
        p = _write(tmp_path, "id,a,b\nr1,1,2\nr2,3,4\nr3,5,6\n")
        m = load_matrix(p)
        assert m.n_obs == 3 and m.n_features == 2
        assert m.row_ids == ("r1", "r2", "r3")
        assert m.col_ids == ("a", "b")
        assert np.array_equal(m.values, [[1, 2], [3, 4], [5, 6]])

    def test_transpose_flag(self, tmp_path):
        p = _write(tmp_path, "id,a,b\nr1,1,2\nr2,3,4\nr3,5,6\n")
        m = load_matrix(p, transpose=True)
        assert m.n_obs == 2 and m.n_features == 3
        assert m.row_ids == ("a", "b")

    def test_non_numeric_cell_named(self, tmp_path):
        p = _write(tmp_path, "id,a,b\nr1,1,2\nr2,abc,4\n")
        with pytest.raises(ValueError, match="abc"):
            load_matrix(p)
        with pytest.raises(ValueError, match="r2"):
            load_matrix(p)

    def test_ragged_row(self, tmp_path):
        p = _write(tmp_path, "id,a,b\nr1,1,2\nr2,3\n")
        with pytest.raises(ValueError, match="ragged"):
            load_matrix(p)

    def test_duplicate_ids(self, tmp_path):
        p = _write(tmp_path, "id,a,b\nr1,1,2\nr1,3,4\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_matrix(p)

    def test_tsv_no_header_no_ids(self, tmp_path):
        p = _write(tmp_path, "1\t2\n3\t4\n", name="m.tsv")
        m = load_matrix(p, delimiter="\t", header=False, ids=False)
        assert m.n_obs == 2 and m.row_ids == ("row0", "row1")


class TestRoundTrip:
    def test_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        m = DataMatrix(
            rng.standard_normal((5, 4)) * 1e3,
            tuple(f"r{i}" for i in range(5)),
            tuple(f"c{j}" for j in range(4)),
        )
        p = tmp_path / "out.csv"
        write_matrix(m, p)
        back = load_matrix(p)
        assert np.array_equal(back.values, m.values)
        assert back.row_ids == m.row_ids and back.col_ids == m.col_ids


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                1.7976931348623157e308, 1.0, -3.0, 12345678901234567.0, 0.1]
_IDS = st.text(alphabet='ab,;"\'x\t7', min_size=1, max_size=4).filter(lambda s: s.strip() == s)


@st.composite
def _matrices(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 6))
    cell = st.one_of(st.sampled_from(_EDGE_VALUES), st.integers(-10**6, 10**6).map(float),
                     st.floats(allow_nan=False, allow_infinity=False))
    values = np.array(draw(st.lists(cell, min_size=n * m, max_size=n * m))).reshape(n, m)
    row_ids = draw(st.lists(_IDS, min_size=n, max_size=n, unique=True))
    col_ids = draw(st.lists(_IDS, min_size=m, max_size=m, unique=True))
    return DataMatrix(values, tuple(row_ids), tuple(col_ids))


class TestRowTemplateWriter:
    @settings(max_examples=150, deadline=None)
    @given(_matrices(), st.sampled_from([",", "\t", ";"]))
    def test_matches_per_cell_reference_and_round_trips(self, tmp_path_factory, m, delimiter):
        p = tmp_path_factory.mktemp("w") / "m.csv"
        write_matrix(m, p, delimiter=delimiter)
        assert p.read_bytes().decode() == per_cell_matrix_csv(m.values, m.row_ids, m.col_ids, delimiter)
        back = load_matrix(p, delimiter=delimiter)
        assert back.values.tobytes() == m.values.tobytes()
        assert back.row_ids == m.row_ids and back.col_ids == m.col_ids

    def test_without_header_or_ids(self, tmp_path):
        m = DataMatrix(np.array([[-0.0, 1e308], [5e-324, 2.0]]), ("a", "b"), ("x", "y"))
        p = tmp_path / "m.tsv"
        write_matrix(m, p, delimiter="\t", header=False, ids=False)
        assert p.read_text() == "-0\t1e+308\n4.9406564584124654e-324\t2\n"

    @pytest.mark.parametrize("delimiter", [".", "e", "-", "1"])
    def test_rejects_delimiter_inside_numbers(self, tmp_path, delimiter):
        m = DataMatrix(np.array([[0.5], [-1e-3]]), ("a", "b"), ("x",))
        with pytest.raises(ValueError, match="delimiter"):
            write_matrix(m, tmp_path / "m.txt", delimiter=delimiter)


class TestInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]), ("a", "b"), ("x", "y"))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            DataMatrix(np.array([[1.0, 2.0]]), ("a",), ("x", "y"))


class TestLog2PlusOne:
    @pytest.mark.parametrize("value,expected", [(0.0, 0.0), (1.0, 1.0), (7.0, 3.0)])
    def test_reference_points(self, value, expected):
        m = DataMatrix(np.full((2, 1), value), ("a", "b"), ("x",))
        assert log2_plus_one(m).values[0, 0] == expected

    def test_negative_rejected(self):
        m = DataMatrix(np.array([[1.0], [-0.5]]), ("a", "b"), ("x",))
        with pytest.raises(ValueError, match="negative"):
            log2_plus_one(m)

    @given(
        st.lists(st.integers(0, 10**9), min_size=4, max_size=4, unique=True)
    )
    def test_monotone(self, raw):
        vals = [v / 1000.0 for v in raw]  # distinct beyond fp granularity of 1+x
        m = DataMatrix(np.array(vals).reshape(2, 2), ("a", "b"), ("x", "y"))
        out = log2_plus_one(m).values.ravel()
        order = np.argsort(np.array(vals))
        assert np.all(np.diff(out[order]) > 0)


class TestRescaleUnit:
    def test_affine_map(self):
        m = DataMatrix(np.array([[0.0], [5.0], [10.0]]), ("a", "b", "c"), ("x",))
        assert np.allclose(rescale_unit(m).values.ravel(), [0, 0.5, 1])

    def test_identity_when_unit_range(self):
        m = DataMatrix(np.array([[0.0, 0.3], [0.7, 1.0]]), ("a", "b"), ("x", "y"))
        assert np.array_equal(rescale_unit(m).values, m.values)

    def test_constant_rejected(self):
        m = DataMatrix(np.full((2, 2), 3.0), ("a", "b"), ("x", "y"))
        with pytest.raises(ValueError, match="constant"):
            rescale_unit(m)
