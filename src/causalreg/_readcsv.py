"""The one reader behind the package's CSV inputs: data sets and tables."""

from __future__ import annotations

import csv
import io
import math


def read_csv(source: str) -> tuple[tuple[str, ...], list[tuple[int, list[str]]]]:
    """The header, stripped, and every data row with its CSV line number.

    Blank lines are skipped.  Empty input, a header that names a column
    twice, a row with more or fewer fields than the header (named by its
    line) and a header without data rows are rejected with ``ValueError``.
    """
    reader = csv.reader(io.StringIO(source))
    try:
        header = tuple(h.strip() for h in next(reader))
    except StopIteration:
        raise ValueError("empty CSV input") from None
    for j, name in enumerate(header):
        if name in header[:j]:
            raise ValueError(f"line {reader.line_num}: column {name!r} appears twice")
    rows: list[tuple[int, list[str]]] = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(
                f"line {reader.line_num}: expected {len(header)} fields, got {len(row)}"
            )
        rows.append((reader.line_num, row))
    if not rows:
        raise ValueError("CSV input has a header but no data rows")
    return header, rows


def finite_cell(cell: str, line: int, column: str) -> float:
    """``cell`` as a finite number, or a ``ValueError`` naming its line and column."""
    try:
        value = float(cell)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"line {line}, column {column!r}: {cell!r} is not a finite number")
    return value
