"""Dense matrix container, CSV/TSV ingestion, and value transforms."""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

__all__ = [
    "DataMatrix",
    "load_matrix",
    "write_matrix",
    "log2_plus_one",
    "rescale_unit",
]


@dataclass(frozen=True)
class DataMatrix:
    """N observations by M features with unique row/column identifiers.

    Values are finite float64; missing cells are rejected at load time
    rather than imputed.
    """

    values: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "row_ids", tuple(self.row_ids))
        object.__setattr__(self, "col_ids", tuple(self.col_ids))
        if v.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        n, m = v.shape
        if n < 2 or m < 1:
            raise ValueError(f"need at least 2 observations and 1 feature, got {n}x{m}")
        if not np.all(np.isfinite(v)):
            i, j = np.argwhere(~np.isfinite(v))[0]
            raise ValueError(f"non-finite value at row {i}, column {j}")
        if len(self.row_ids) != n:
            raise ValueError(f"got {len(self.row_ids)} row ids for {n} rows")
        if len(self.col_ids) != m:
            raise ValueError(f"got {len(self.col_ids)} column ids for {m} columns")
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

    def transposed(self) -> "DataMatrix":
        return DataMatrix(self.values.T.copy(), self.col_ids, self.row_ids)


def load_matrix(
    path: str | Path,
    delimiter: str = ",",
    header: bool = True,
    ids: bool = True,
    transpose: bool = False,
) -> DataMatrix:
    """Read a rectangular numeric table into a DataMatrix.

    Files without a quote character are parsed in bulk by numpy's C
    reader. Any other file, or one that reader rejects, is read again
    cell by cell with the csv module and ``float()``, so every cell
    ``float()`` accepts (``1_0``, non-ASCII digits) still loads. ``#``
    starts no comment, and blank lines are skipped.

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
        Input is features-by-observations (the genomics convention)
        and should be flipped after parsing.

    Raises
    ------
    ValueError
        On a delimiter of other than one character, ragged rows, a
        header whose width differs from the rows', non-numeric cells
        (reported by row/column), or duplicate identifiers.
    """
    _check_delimiter(delimiter)
    path = Path(path)
    try:
        values, row_ids, col_ids = _parse_bulk(path, delimiter, header, ids)
    except ValueError:
        values, row_ids, col_ids = _parse_per_cell(path, delimiter, header, ids)
    n, m = values.shape
    if row_ids is None:
        row_ids = [f"row{i}" for i in range(n)]
    if col_ids is None:
        col_ids = [f"col{j}" for j in range(m)]
    matrix = DataMatrix(values, tuple(row_ids), tuple(col_ids))
    return matrix.transposed() if transpose else matrix


_Parsed = tuple[np.ndarray, list[str] | None, list[str] | None]


def _parse_bulk(path: Path, delimiter: str, header: bool, ids: bool) -> _Parsed:
    """Parse with ``np.loadtxt``; ValueError for any file it cannot take as is.

    In a file without a quote character, the csv module's rows are the
    lines split at the delimiter, which is how ``loadtxt`` splits them,
    and ``loadtxt`` rejects a row whose width differs from the first's.
    The ids and the header's width are read here.
    """
    if delimiter in '"\r\n':
        raise ValueError(f"delimiter {delimiter!r} needs the csv reader")
    names: list[str] = []

    def rows(lines: Iterable[str]) -> Iterator[str]:
        for line in lines:
            if '"' in line:
                raise ValueError("quoted cell")
            name, _, rest = line.partition(delimiter)
            names.append(name.strip())
            yield rest if ids else line

    with path.open() as fh:  # universal newlines end a line wherever csv ends a row
        lines = (line for line in fh if line != "\n")
        head = next(lines, "") if header else None
        first = next(lines, "")
        width = first.count(delimiter) + 1
        if not first or (ids and width == 1):
            raise ValueError("no data rows or no value column")
        if head is not None and ('"' in head or head.count(delimiter) + 1 != width):
            raise ValueError("quoted header or one of another width")
        values = np.loadtxt(rows(chain([first], lines)), delimiter=delimiter, comments=None, ndmin=2)
    if values.shape[0] != len(names):  # loadtxt skips a blank remainder such as "r1,"
        raise ValueError("blank row")
    col_ids = None
    if head is not None:
        cells = head.rstrip("\n").split(delimiter)
        col_ids = [c.strip() for c in (cells[1:] if ids else cells)]
    return values, names if ids else None, col_ids


def _parse_per_cell(path: Path, delimiter: str, header: bool, ids: bool) -> _Parsed:
    """The csv module and ``float()`` on every cell; errors name the row and column."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    rows = [r for r in rows if r]  # ignore blank lines
    if not rows:
        raise ValueError(f"{path}: empty file")

    head: list[str] | None = rows.pop(0) if header else None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    if head is not None and len(head) != width:
        raise ValueError(f"{path}: row 1 has {width} cells but the header has {len(head)}")
    col_ids = None if head is None else [c.strip() for c in (head[1:] if ids else head)]

    row_ids: list[str] = []
    data = np.empty((len(rows), width - (1 if ids else 0)), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(
                f"{path}: ragged row {i + 1}: expected {width} cells, got {len(row)}"
            )
        cells = row
        if ids:
            row_ids.append(cells[0].strip())
            cells = cells[1:]
        for j, cell in enumerate(cells):
            try:
                data[i, j] = float(cell)
            except ValueError:
                cname = col_ids[j] if col_ids else str(j)
                rname = row_ids[i] if ids else str(i)
                raise ValueError(
                    f"{path}: non-numeric cell {cell!r} at row {rname!r}, "
                    f"column {cname!r}"
                ) from None
    return data, row_ids if ids else None, col_ids


def write_matrix(
    m: DataMatrix,
    path: str | Path,
    delimiter: str = ",",
    header: bool = True,
    ids: bool = True,
) -> None:
    """Write a DataMatrix with 17-significant-digit values.

    17 digits round-trip float64 exactly, so load_matrix(write_matrix(m))
    reproduces ``m.values`` bit for bit.  Identifiers are csv-quoted; each
    row of values is formatted by one ``%.17g`` template, so the delimiter
    must be one character that cannot occur in a formatted number.
    """
    _check_delimiter(delimiter)
    if delimiter in "0123456789+-.e":
        raise ValueError(f"delimiter {delimiter!r} can occur inside a number")
    row_text = delimiter.join(["%.17g"] * m.n_features) + "\n"
    rows = (row_text % tuple(row.tolist()) for row in m.values)
    _write_table(path, m.row_ids, m.col_ids, rows, delimiter, header, ids)


def _check_delimiter(delimiter: str) -> None:
    if len(delimiter) != 1:  # the csv module's TypeError would name no file or flag
        raise ValueError(f"delimiter must be one character, got {delimiter!r}")


def _write_table(
    path: str | Path,
    row_ids: Sequence[str],
    col_ids: Sequence[str],
    rows: Iterable[str],
    delimiter: str = ",",
    header: bool = True,
    ids: bool = True,
) -> None:
    """The matrix-CSV layout around preformatted value rows.

    Writes the csv-quoted header (corner cell ``id``) and, before each of
    ``rows`` (delimited values ending in a newline), the csv-quoted row id.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")

    def csv_line(cells: list[str]) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow(cells)
        return buf.getvalue()

    with Path(path).open("w", newline="") as fh:
        if header:
            fh.write(csv_line((["id"] if ids else []) + list(col_ids)))
        for name, text in zip(row_ids, rows):
            if ids:
                fh.write(csv_line([name, ""])[:-1])  # the quoted id and one delimiter
            fh.write(text)


def log2_plus_one(m: DataMatrix) -> DataMatrix:
    """Elementwise x -> log2(1 + x); requires nonnegative values."""
    if m.values.min() < 0:
        i, j = np.argwhere(m.values < 0)[0]
        raise ValueError(
            f"negative value {m.values[i, j]} at row {m.row_ids[i]!r}, "
            f"column {m.col_ids[j]!r}"
        )
    return DataMatrix(np.log2(1.0 + m.values), m.row_ids, m.col_ids)


def rescale_unit(m: DataMatrix) -> DataMatrix:
    """Global min-max rescale into [0, 1]; rejects constant matrices."""
    lo = float(m.values.min())
    hi = float(m.values.max())
    if hi == lo:
        raise ValueError("constant matrix has zero range; cannot rescale")
    return DataMatrix((m.values - lo) / (hi - lo), m.row_ids, m.col_ids)
