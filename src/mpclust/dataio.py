"""Dense matrix container, CSV/TSV ingestion, and value transforms."""

from __future__ import annotations

import csv
import io
import itertools
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DataMatrix",
    "load_matrix",
    "write_matrix",
    "log2_plus_one",
]


@dataclass(frozen=True)
class DataMatrix:
    """N observations by M features with unique row/column identifiers.

    Values are finite float64, in C or Fortran order; missing cells are
    rejected at load time rather than imputed. A float64 table in either
    order is kept as given, without a copy; one in neither (a strided view
    such as ``x[:, ::2]``) is copied once, to C order, when the matrix is built.
    """

    values: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if not (v.flags.c_contiguous or v.flags.f_contiguous):
            v = np.ascontiguousarray(v)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "row_ids", tuple(self.row_ids))
        object.__setattr__(self, "col_ids", tuple(self.col_ids))
        if v.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        n, m = v.shape
        if n < 2 or m < 1:
            raise ValueError(f"need at least 2 observations and 1 feature, got {n}x{m}")
        if len(self.row_ids) != n:
            raise ValueError(f"got {len(self.row_ids)} row ids for {n} rows")
        if len(self.col_ids) != m:
            raise ValueError(f"got {len(self.col_ids)} column ids for {m} columns")
        if not np.all(np.isfinite(v)):
            i, j = np.argwhere(~np.isfinite(v))[0]
            raise ValueError(f"non-finite value {v[i, j]} at row {self.row_ids[i]!r}, "
                             f"column {self.col_ids[j]!r}")
        for kind, ids in (("row", self.row_ids), ("column", self.col_ids)):
            if len(set(ids)) != len(ids):
                seen: set[str] = set()
                dup = next(x for x in ids if x in seen or seen.add(x))
                raise ValueError(f"duplicate {kind} id {dup!r}")

    @property
    def n_obs(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def load_matrix(
    path: str | Path,
    delimiter: str = ",",
    header: bool = True,
    ids: bool = True,
    transpose: bool = False,
) -> DataMatrix:
    """Read a rectangular numeric table into a DataMatrix.

    Files are parsed in bulk by numpy's C reader, csv-quoted cells
    included. A value cell must be a number that reader takes: ``1_0``
    and non-ASCII digits, which ``float()`` would read, are rejected.
    ``#`` starts no comment, and blank lines are skipped.

    Parameters
    ----------
    path : str or Path
        CSV/TSV file to read.
    delimiter : str
        Cell separator.
    header : bool
        First row holds column identifiers (plus a corner cell when
        ``ids`` is set).
    ids : bool
        First column holds row identifiers.
    transpose : bool
        Input is features-by-observations (the genomics convention): the
        matrix holds the parsed table's transposed view, not a copy.

    Raises
    ------
    ValueError
        On a delimiter of other than one character, or one that is the
        quote character ``"`` or a line break (``\\r``, ``\\n``);
        otherwise, with the path first, on undecodable bytes, an empty
        file or one without data rows, ragged rows (reported by row), a
        header whose width differs from the rows', non-numeric cells
        (reported by row and column), non-finite values or duplicate
        identifiers.
    """
    _check_delimiter(delimiter)
    path = Path(path)
    try:
        values, row_ids, col_ids = _parse_bulk(path, delimiter, header, ids)
        n, m = values.shape
        if row_ids is None:
            row_ids = [f"row{i}" for i in range(n)]
        if col_ids is None:
            col_ids = [f"col{j}" for j in range(m)]
        if transpose:
            values, row_ids, col_ids = values.T, col_ids, row_ids
        return DataMatrix(values, tuple(row_ids), tuple(col_ids))
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError is a ValueError
        raise ValueError(f"{path}: {exc}") from None


def _parse_bulk(path: Path, delimiter: str, header: bool,
                ids: bool) -> tuple[np.ndarray, list[str] | None, list[str] | None]:
    """Ids and values in one ``np.loadtxt`` call.

    The csv module reads the header and the first data row, which give
    the width. ``loadtxt`` reads on from that row: it unquotes and splits
    cells as the csv module does, skips blank lines, and rejects a row of
    another width or a value cell it cannot read. A converter hands it
    each row id, so the id column reads as zeros.
    """
    names: list[str] = []

    def record(name: str) -> float:
        names.append(name.strip())
        return 0.0

    with path.open(newline="") as fh:  # readline, unlike next(fh), leaves tell() working
        rows = filter(None, csv.reader(iter(fh.readline, ""), delimiter=delimiter))
        head = next(rows, None) if header else None
        start = fh.tell()
        width = len(next(rows, []))
        if not width:
            raise ValueError("empty file" if head is None else "no data rows")
        if ids and width == 1:
            raise ValueError(f"no value cell after the id column when split at {delimiter!r}; "
                             "pass the file's delimiter with --delimiter")
        if head is not None and len(head) != width:
            raise ValueError(f"row 1 has {width} cells but the header has {len(head)}")
        col_ids = None if head is None else [c.strip() for c in head[ids:]]
        fh.seek(start)  # with no encoding given, numpy < 2 hands the converter bytes
        try:
            table = np.loadtxt(fh, delimiter=delimiter, quotechar='"', comments=None, ndmin=2,
                               converters={0: record} if ids else None, encoding=fh.encoding)
        except ValueError as exc:
            fh.seek(start)
            data_rows = filter(None, csv.reader(fh, delimiter=delimiter))
            raise _row_error(exc, data_rows, ids, col_ids) from None
    if not ids:
        return table, None, col_ids
    # Drop the id column in place, row by row. Freeing a copied table would
    # raise glibc's mmap threshold to its size, and with it the run's peak RSS.
    n, m, flat = len(table), width - 1, table.reshape(-1)
    for i in range(n):
        flat[i * m:(i + 1) * m] = flat[i * (m + 1) + 1:(i + 1) * (m + 1)]
    return flat[:n * m].reshape(n, m), names, col_ids


def _row_error(exc: ValueError, rows: Iterator[list[str]], ids: bool,
               col_ids: list[str] | None) -> ValueError:
    """``loadtxt``'s error about the data ``rows``, reworded to name the row and column.

    ``loadtxt`` counts data rows from where it started, blank lines skipped:
    a row of another width by a 1-based row, a cell it cannot convert by a
    0-based row and a 1-based column.
    """
    text = str(exc)
    if ragged := re.search(r"from (\d+) to (\d+) at row (\d+)", text):
        width, got, row = ragged.groups()
        return ValueError(f"ragged row {row}: expected {width} cells, got {got}")
    if (cell := re.search(r"at row (\d+), column (\d+)\.$", text)) is None:
        return exc
    i, j = int(cell[1]), int(cell[2]) - 1
    row = next(itertools.islice(rows, i, None))
    rname = row[0].strip() if ids else str(i)
    cname = col_ids[j - ids] if col_ids else str(j - ids)
    return ValueError(f"non-numeric cell {row[j]!r} at row {rname!r}, column {cname!r}")


def write_matrix(m: DataMatrix, path: str | Path) -> None:
    """Write a DataMatrix as the comma-delimited layout ``load_matrix`` reads by default.

    The header row starts with the corner cell ``id``; each row starts with
    its csv-quoted id. Values have 17 significant digits, which round-trip
    float64 exactly, so load_matrix(write_matrix(m)) reproduces ``m.values``
    bit for bit. Each row of values is formatted by one ``%.17g`` template.
    """
    row_text = ",".join(["%.17g"] * m.n_features) + "\n"
    rows = (row_text % tuple(row.tolist()) for row in m.values)
    _write_table(path, m.row_ids, m.col_ids, rows)


def _check_delimiter(delimiter: str) -> None:
    if len(delimiter) != 1:  # the csv module's TypeError would name no file or flag
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")
    if delimiter in '"\r\n':
        raise ValueError(f"delimiter {delimiter!r} is the quote character or a line break")


def _write_table(path: str | Path, row_ids: Sequence[str], col_ids: Sequence[str],
                 rows: Iterable[str]) -> None:
    """The matrix-CSV layout around preformatted value rows.

    Writes the csv-quoted header (corner cell ``id``) and, before each of
    ``rows`` (comma-delimited values ending in a newline), the csv-quoted
    row id.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")

    def csv_line(cells: list[str]) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow(cells)
        return buf.getvalue()

    with Path(path).open("w", newline="") as fh:
        fh.write(csv_line(["id", *col_ids]))
        for name, text in zip(row_ids, rows):
            fh.write(csv_line([name, ""])[:-1])  # the quoted id and one comma
            fh.write(text)


def log2_plus_one(m: DataMatrix) -> DataMatrix:
    """Elementwise x -> log2(1 + x); requires nonnegative values."""
    return _log2_plus_one(m, np.empty_like(m.values))


def _log2_plus_one(m: DataMatrix, out: np.ndarray) -> DataMatrix:
    if m.values.min() < 0:
        i, j = np.argwhere(m.values < 0)[0]
        raise ValueError(f"negative value {m.values[i, j]} at row {m.row_ids[i]!r}, "
                         f"column {m.col_ids[j]!r}")
    np.add(m.values, 1.0, out=out)
    return DataMatrix(np.log2(out, out=out), m.row_ids, m.col_ids)
