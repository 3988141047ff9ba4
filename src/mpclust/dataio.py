"""Dense matrix container, CSV/TSV ingestion, and value transforms."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
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
        On ragged rows, non-numeric cells (reported by row/column), or
        duplicate identifiers.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh, delimiter=delimiter))
    rows = [r for r in rows if r]  # ignore trailing blank lines
    if not rows:
        raise ValueError(f"{path}: empty file")

    col_ids: list[str] | None = None
    if header:
        head = rows.pop(0)
        col_ids = [c.strip() for c in (head[1:] if ids else head)]
    if not rows:
        raise ValueError(f"{path}: no data rows")

    width = len(rows[0])
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

    n, m = data.shape
    if not ids:
        row_ids = [f"row{i}" for i in range(n)]
    if col_ids is None:
        col_ids = [f"col{j}" for j in range(m)]
    if len(col_ids) != m:
        raise ValueError(f"{path}: header has {len(col_ids)} ids for {m} columns")

    matrix = DataMatrix(data, tuple(row_ids), tuple(col_ids))
    return matrix.transposed() if transpose else matrix


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
    must not be a character of a formatted number.
    """
    if set(delimiter) & set("0123456789+-.e"):
        raise ValueError(f"delimiter {delimiter!r} can occur inside a number")
    row_text = delimiter.join(["%.17g"] * m.n_features) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, delimiter=delimiter, lineterminator="\n")

    def csv_line(cells: list[str]) -> str:
        buf.seek(0)
        buf.truncate()
        writer.writerow(cells)
        return buf.getvalue()

    with Path(path).open("w", newline="") as fh:
        if header:
            fh.write(csv_line((["id"] if ids else []) + list(m.col_ids)))
        for name, row in zip(m.row_ids, m.values):
            if ids:
                fh.write(csv_line([name, ""])[:-1])  # the quoted id and one delimiter
            fh.write(row_text % tuple(row.tolist()))


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
