import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpclust import dataio
from mpclust.dataio import (
    DataMatrix,
    load_matrix,
    log2_plus_one,
    rescale_unit,
    write_matrix,
)

from oracles import per_cell_load_matrix, per_cell_matrix_csv


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

    def test_row_wider_than_header(self, tmp_path):
        p = _write(tmp_path, "id,a,b\nr1,1,2,\nr2,3,4,\n")
        with pytest.raises(ValueError, match="row 1 has 4 cells but the header has 3"):
            load_matrix(p)

    def test_hash_is_not_a_comment(self, tmp_path):
        p = _write(tmp_path, "id,#a,b\n#r1,1,2\r\n\nr2,3,4")
        m = load_matrix(p)
        assert m.row_ids == ("#r1", "r2") and m.col_ids == ("#a", "b")
        assert np.array_equal(m.values, [[1, 2], [3, 4]])

    def test_plain_file_needs_no_per_cell_pass(self, tmp_path, monkeypatch):
        def per_cell(*args):
            raise AssertionError("per-cell parser called")

        monkeypatch.setattr(dataio, "_parse_per_cell", per_cell)
        p = _write(tmp_path, "id,a,b\r\nr1, 1.5 ,-0\r\n\r\nr2,5e-324,1e308\r\n")
        m = load_matrix(p)
        assert m.values.tobytes() == np.array([[1.5, -0.0], [5e-324, 1e308]]).tobytes()

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_of_other_than_one_character(self, tmp_path, delimiter):
        p = _write(tmp_path, "id,a\nr1,1\nr2,2\n")
        message = f"delimiter must be one character, got {delimiter!r}"
        with pytest.raises(ValueError, match=message):
            load_matrix(p, delimiter=delimiter)
        with pytest.raises(ValueError, match=message):
            write_matrix(load_matrix(p), tmp_path / "out.csv", delimiter=delimiter)

    def test_quoted_ids_load(self, tmp_path):
        p = _write(tmp_path, 'id,"c,1",c2\n"r,""1""",1,2\nr2,3,4\n')
        m = load_matrix(p)
        assert m.row_ids == ('r,"1"', "r2") and m.col_ids == ("c,1", "c2")
        assert np.array_equal(m.values, [[1, 2], [3, 4]])


def _outcome(build):
    """A loaded matrix as comparable bytes and ids, or the error it raised."""
    try:
        m = build()
    except ValueError as exc:
        return "error", str(exc)
    return "ok", m.values.shape, m.values.tobytes(), m.row_ids, m.col_ids


def _same_as_per_cell(path, delimiter=",", header=True, ids=True):
    got = _outcome(lambda: load_matrix(path, delimiter, header, ids))
    ref = _outcome(lambda: DataMatrix(*per_cell_load_matrix(path, delimiter, header, ids)))
    assert got == ref
    return got


_NUMBER_TEXT = ["0", "-0", "0.1", "1.", "+.5", " 2.25 ", "1e5", "5e-324", "-5e-324",
                "2.2250738585072009e-308", "1.7976931348623157e+308", "12345678901234567", "1e999"]
_ODD_TEXT = ["1_0", "\uff11", "nan", "-Infinity", "inf", "", " ", "abc", "0x10", "1e5_0", "\x0c1",
             "1\u2028", "2\x85"]
_NAMES = st.one_of(st.text(alphabet="ab#7", min_size=1, max_size=3),
                   st.text(alphabet=',;\t"# ab', min_size=1, max_size=3))


@st.composite
def _matrix_files(draw):
    """(file text, delimiter, header, ids): mostly well-formed, some deliberately not."""
    delimiter = draw(st.sampled_from([",", "\t", ";"]))
    header, ids = draw(st.booleans()), draw(st.booleans())
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    number = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.sampled_from(_NUMBER_TEXT))
    cells = [[draw(number) for _ in range(m)] for _ in range(n)]
    if draw(st.integers(0, 3)) == 0:
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, m - 1))] = draw(st.sampled_from(_ODD_TEXT))
    names = draw(st.lists(_NAMES, min_size=n, max_size=n, unique=draw(st.integers(0, 5)) > 0))
    rows = [([name] if ids else []) + row for name, row in zip(names, cells)]
    if header:
        rows.insert(0, (["id"] if ids else []) + draw(st.lists(_NAMES, min_size=m, max_size=m, unique=True)))
    if draw(st.booleans()):  # csv-quoted where needed, as write_matrix writes
        buf = io.StringIO()
        csv.writer(buf, delimiter=delimiter, lineterminator="\n").writerows(rows)
        lines = buf.getvalue().split("\n")[:-1]
    else:
        lines = [delimiter.join(row) for row in rows]
    if draw(st.integers(0, 5)) == 0:  # trailing delimiter from some line on
        start = draw(st.integers(0, len(lines) - 1))
        lines[start:] = [line + delimiter for line in lines[start:]]
    for filler in ("", "  "):  # a blank or a whitespace-only line
        if draw(st.integers(0, 4)) == 0:
            lines.insert(draw(st.integers(0, len(lines))), filler)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = eol.join(lines) + draw(st.sampled_from([eol, ""]))
    return text, delimiter, header, ids


class TestBulkParserMatchesPerCell:
    @settings(max_examples=400, deadline=None)
    @given(_matrix_files())
    def test_differential(self, tmp_path_factory, case):
        text, delimiter, header, ids = case
        p = tmp_path_factory.mktemp("d") / "m.csv"
        p.write_bytes(text.encode("utf-8"))
        _same_as_per_cell(p, delimiter, header, ids)

    @pytest.mark.parametrize("text, expected", [
        ("id,a,b\nr1,1_0,2\nr2,3,4\n", [[10, 2], [3, 4]]),
        ("id,a,b\nr1,\uff11,2\nr2,3,4\n", [[1, 2], [3, 4]]),
        ("id,a\nr1,nan\nr2,1\n", "non-finite value at row 0, column 0"),
        ("id,a\nr1,1\nr2,-Infinity\n", "non-finite value at row 1, column 0"),
        ("id,a,b\nr1,1,2,\nr2,3,4,\n", "row 1 has 4 cells but the header has 3"),
        ("id,a\nr1,1\n  \nr2,2\n", "ragged row 2: expected 2 cells, got 1"),
    ])
    def test_pinned_cases(self, tmp_path, text, expected):
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode("utf-8"))
        got = _same_as_per_cell(p)
        if isinstance(expected, str):
            assert got[0] == "error" and expected in got[1]
        else:
            assert got[0] == "ok" and got[2] == np.array(expected, dtype=float).tobytes()


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
