import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mpclust import dataio
from mpclust.dataio import (
    DataMatrix,
    load_matrix,
    log2_plus_one,
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
        assert m.col_ids == ("r1", "r2", "r3")
        assert np.array_equal(m.values, [[1, 3, 5], [2, 4, 6]])

    def test_transpose_keeps_one_table(self, tmp_path):
        # the matrix is the parsed table's transposed view: the load peaks
        # at one table plus the parser's slack, not at the table and a copy
        rng = np.random.default_rng(0)
        n, m = 200, 300
        x = rng.random((n, m))
        p = tmp_path / "m.csv"
        write_matrix(DataMatrix(x, [f"r{i}" for i in range(n)], [f"c{j}" for j in range(m)]), p)
        tracemalloc.start()
        try:
            loaded = load_matrix(p, transpose=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * (m + 1) * x.itemsize  # the parsed table holds the id column too
        assert loaded.values.flags.f_contiguous and np.array_equal(loaded.values, x.T)

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

    def test_plain_file_needs_no_per_cell_pass(self, tmp_path):
        p = _write(tmp_path, "id,a,b\r\nr1, 1.5 ,-0\r\n\r\nr2,5e-324,1e308\r\n")
        m = load_matrix(p)
        assert m.values.tobytes() == np.array([[1.5, -0.0], [5e-324, 1e308]]).tobytes()

    @pytest.mark.parametrize("delimiter", [";;", ""])
    def test_delimiter_of_other_than_one_character(self, tmp_path, delimiter):
        p = _write(tmp_path, "id,a\nr1,1\nr2,2\n")
        message = f"delimiter must be one character, got {delimiter!r}"
        with pytest.raises(ValueError, match=message):
            load_matrix(p, delimiter=delimiter)

    @pytest.mark.parametrize("delimiter", ['"', "\r", "\n"])
    def test_quote_or_line_break_delimiter(self, tmp_path, delimiter):
        p = _write(tmp_path, "id,a\nr1,1\nr2,2\n")
        message = f"delimiter {delimiter!r} is the quote character or a line break"
        with pytest.raises(ValueError) as err:
            load_matrix(p, delimiter=delimiter)
        assert str(err.value) == message

    def test_wrong_delimiter_names_itself(self, tmp_path):
        p = _write(tmp_path, "id\tf1\tf2\nr1\t1\t2\nr2\t3\t4\nr3\t5\t6\n")
        with pytest.raises(ValueError) as err:
            load_matrix(p)
        assert str(err.value) == (f"{p}: no value cell after the id column when split "
                                  "at ','; pass the file's delimiter with --delimiter")
        assert load_matrix(p, delimiter="\t").values.shape == (3, 2)

    def test_quoted_ids_load(self, tmp_path):
        p = _write(tmp_path, 'id,"c,1",c2\n"r,""1""",1,2\nr2,3,4\n')
        m = load_matrix(p)
        assert m.row_ids == ('r,"1"', "r2") and m.col_ids == ("c,1", "c2")
        assert np.array_equal(m.values, [[1, 2], [3, 4]])

    def test_undecodable_byte_names_the_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xffid,a\nr1,1\nr2,2\n")
        with pytest.raises(ValueError) as err:
            load_matrix(p)
        assert str(err.value).startswith(f"{p}: 'utf-8' codec can't decode byte 0xff")

    def test_duplicate_id_names_the_file(self, tmp_path):
        p = _write(tmp_path, "id,a,b\nr1,1,2\nr1,3,4\n")
        with pytest.raises(ValueError) as err:
            load_matrix(p)
        assert str(err.value) == f"{p}: duplicate row id 'r1'"

    def test_unterminated_quote_names_the_file(self, tmp_path):
        p = _write(tmp_path, 'id,a\n"r1,' + "x" * 200_000 + "\nr2,1\n")  # csv.Error, not a ValueError
        with pytest.raises(ValueError) as err:
            load_matrix(p)
        assert str(err.value) == f"{p}: field larger than field limit (131072)"

    def test_non_finite_value_names_the_file(self, tmp_path):
        p = _write(tmp_path, "id,a,b\nr1,1,2\nr2,3,inf\n")
        with pytest.raises(ValueError) as err:
            load_matrix(p)
        assert str(err.value) == f"{p}: non-finite value inf at row 'r2', column 'b'"

    def test_non_finite_value_named_by_transposed_ids(self, tmp_path):
        p = _write(tmp_path, "id,a,b\nr1,1,2\nr2,3,nan\n")
        with pytest.raises(ValueError) as err:
            load_matrix(p, transpose=True)
        assert str(err.value) == f"{p}: non-finite value nan at row 'b', column 'r2'"


class TestQuotedFilesLoadInBulk:
    @pytest.mark.parametrize("text, row_ids, col_ids", [
        ('id,a,b\n"r,1",1,2\n"r;2",3,4\n', ("r,1", "r;2"), ("a", "b")),
        ('id,"a""b"\n"r""1""",1\nr2,2\n', ('r"1"', "r2"), ('a"b',)),
        ('"","a","b"\n"r1",1,2\n"r2",3,4\n', ("r1", "r2"), ("a", "b")),
        ('id,a\r\n"r\r\n1",1\r\n"r2",2\r\n', ("r\r\n1", "r2"), ("a",)),
    ], ids=["delimiter-in-id", "doubled-quotes", "r-corner-cell", "crlf-in-id"])
    def test_matches_per_cell(self, tmp_path, text, row_ids, col_ids):
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode("utf-8"))
        got = _same_as_per_cell(p)
        assert got[0] == "ok" and got[3:] == (row_ids, col_ids)

    def test_r_write_csv_layout(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.standard_normal((6, 4))
        lines = [",".join(_quoted(c) for c in ["", "g 1", "g,2", 'g"3', "g4"])]
        lines += [",".join([_quoted(f"s{i}")] + [repr(v) for v in row.tolist()])
                  for i, row in enumerate(values)]
        p = _write(tmp_path, "\n".join(lines) + "\n")
        got = _same_as_per_cell(p)
        assert got[2] == values.tobytes()
        assert got[3:] == (tuple(f"s{i}" for i in range(6)), ("g 1", "g,2", 'g"3', "g4"))


def _outcome(build):
    """A loaded matrix as comparable bytes and ids, or the error it raised."""
    try:
        m = build()
    except ValueError as exc:
        return "error", str(exc)
    return "ok", m.values.shape, m.values.tobytes(), m.row_ids, m.col_ids


def _per_cell_matrix(path, delimiter, header, ids, number=float):
    """The reference load; DataMatrix's own errors gain the path, as load_matrix's do."""
    parsed = per_cell_load_matrix(path, delimiter, header, ids, number)
    try:
        return DataMatrix(*parsed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _only_float_reads(text):
    """Holds ``_`` or a non-ASCII digit, which ``float()`` reads and ``np.loadtxt`` does not."""
    return "_" in text or any(c.isdecimal() and not c.isascii() for c in text)


def _loadtxt_float(cell):
    if _only_float_reads(cell):
        raise ValueError(cell)
    return float(cell)


def _same_as_per_cell(path, delimiter=",", header=True, ids=True):
    """load_matrix's outcome, checked against the per-cell reference.

    A file the reference loads loads to the same bytes and ids, unless it
    holds a cell only ``float()`` reads: that cell is then an error naming
    its row and column. A file the reference rejects is rejected. In every
    case the outcome, error text included, is the reference's with
    ``float()`` narrowed to the cells ``np.loadtxt`` reads.
    """
    got = _outcome(lambda: load_matrix(path, delimiter, header, ids))
    ref = _outcome(lambda: _per_cell_matrix(path, delimiter, header, ids))
    assert got == _outcome(lambda: _per_cell_matrix(path, delimiter, header, ids, _loadtxt_float))
    if ref[0] == "ok" and not _only_float_reads(path.read_text(encoding="utf-8")):
        assert got == ref
    else:
        assert got[0] == "error" and got[1].startswith(f"{path}: ")
    return got


_NUMBER_TEXT = ["0", "-0", "0.1", "1.", "+.5", " 2.25 ", "1e5", "5e-324", "-5e-324",
                "2.2250738585072009e-308", "1.7976931348623157e+308", "12345678901234567", "1e999"]
_ODD_TEXT = ["1_0", "\uff11", "nan", "-Infinity", "inf", "", " ", "abc", "0x10", "1e5_0", "\x0c1",
             "1\u2028", "2\x85"]
_NAMES = st.one_of(st.text(alphabet="ab#7", min_size=1, max_size=3),
                   st.text(alphabet=',;\t"# ab\r\n', min_size=1, max_size=3))


def _quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


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
    quoting = draw(st.sampled_from(["none", "minimal", "all"]))
    if quoting == "all":  # R's write.csv: every id and header cell quoted, values not
        names = [_quoted(name) for name in names]
    rows = [([name] if ids else []) + row for name, row in zip(names, cells)]
    if header:
        head = (["id"] if ids else []) + draw(st.lists(_NAMES, min_size=m, max_size=m, unique=True))
        rows.insert(0, [_quoted(c) for c in head] if quoting == "all" else head)
    if quoting == "minimal":  # csv-quoted where needed, as write_matrix writes
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
        ("id,a,b\nr1,1_0,2\nr2,3,4\n", "non-numeric cell '1_0' at row 'r1', column 'a'"),
        ("id,a,b\nr1,\uff11,2\nr2,3,4\n", "non-numeric cell '\uff11' at row 'r1', column 'a'"),
        ("id,a\nr1,nan\nr2,1\n", "non-finite value nan at row 'r1', column 'a'"),
        ("id,a\nr1,1\nr2,-Infinity\n", "non-finite value -inf at row 'r2', column 'a'"),
        ("id,a,b\nr1,1,2,\nr2,3,4,\n", "row 1 has 4 cells but the header has 3"),
        ("id,a\nr1,1\n  \nr2,2\n", "ragged row 2: expected 2 cells, got 1"),
        ("id,7\n7,\n", "non-numeric cell '' at row '7', column '7'"),
        ('id,a\nr1,"x\nr2,2\n', "non-numeric cell 'x\\nr2,2\\n' at row 'r1', column 'a'"),
    ])
    def test_pinned_cases(self, tmp_path, text, expected):
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode("utf-8"))
        assert _same_as_per_cell(p) == ("error", f"{p}: {expected}")

    def test_pinned_case_without_ids_or_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"1,2,3\n\n4,5,x\n")
        got = _same_as_per_cell(p, header=False, ids=False)
        assert got == ("error", f"{p}: non-numeric cell 'x' at row '1', column '2'")


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
        d = tmp_path_factory.mktemp("w")
        text = per_cell_matrix_csv(m.values, m.row_ids, m.col_ids, delimiter)
        (d / "ref.csv").write_bytes(text.encode())
        back = load_matrix(d / "ref.csv", delimiter=delimiter)
        assert back.values.tobytes() == m.values.tobytes()
        assert back.row_ids == m.row_ids and back.col_ids == m.col_ids
        if delimiter == ",":
            write_matrix(m, d / "m.csv")
            assert (d / "m.csv").read_bytes() == text.encode()


class TestInvariants:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            DataMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]), ("a", "b"), ("x", "y"))

    def test_id_counts_are_checked_before_values(self):
        with pytest.raises(ValueError, match="got 1 row ids for 2 rows"):
            DataMatrix(np.array([[1.0, np.nan], [2.0, 3.0]]), ("a",), ("x", "y"))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            DataMatrix(np.array([[1.0, 2.0]]), ("a",), ("x", "y"))

    @pytest.mark.parametrize("values, col_ids, message", [
        (np.array([1.0, 2.0]), ("x", "y"), "values must be a 2-D matrix"),
        (np.ones((2, 2)), ("x",), "got 1 column ids for 2 columns"),
        (np.ones((2, 2)), ("x", "y", "z"), "got 3 column ids for 2 columns"),
    ], ids=["1-d", "too-few-column-ids", "too-many-column-ids"])
    def test_shape_rejections(self, values, col_ids, message):
        with pytest.raises(ValueError) as err:
            DataMatrix(values, ("a", "b"), col_ids)
        assert str(err.value) == message

    def test_a_table_in_neither_order_is_copied_to_c_order(self):
        x = np.arange(24.0).reshape(4, 6)
        m = DataMatrix(x[:, ::2], ("a", "b", "c", "d"), ("x", "y", "z"))
        assert m.values.flags.c_contiguous and not np.shares_memory(m.values, x)
        assert np.array_equal(m.values, x[:, ::2])

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_c_and_fortran_tables_are_kept_without_a_copy(self, order):
        x = np.asarray(np.arange(24.0).reshape(4, 6), order=order)
        m = DataMatrix(x, ("a", "b", "c", "d"), tuple("uvwxyz"))
        assert m.values is x and np.shares_memory(m.values, x)

    def test_row_error_returns_a_message_it_cannot_place_unchanged(self):
        exc = ValueError("could not read the file")
        assert dataio._row_error(exc, iter([]), True, None) is exc


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


class TestTransformKernels:
    def _matrix(self):
        rng = np.random.default_rng(1)
        values = rng.random((6, 4)) * 10.0 ** rng.integers(-300, 300, (6, 4))
        return DataMatrix(values, tuple("abcdef"), tuple("wxyz"))

    def test_in_place_gives_the_formulas_bits(self):
        m = self._matrix()
        v = m.values.copy()
        logged = dataio._log2_plus_one(m, out=m.values)
        assert logged.values is m.values
        assert logged.values.tobytes() == np.log2(1.0 + v).tobytes()

    def test_public_transforms_leave_their_argument(self):
        m = self._matrix()
        v = m.values.copy()
        assert log2_plus_one(m).values.tobytes() == np.log2(1.0 + v).tobytes()
        assert m.values.tobytes() == v.tobytes()

