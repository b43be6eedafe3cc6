"""Stratified 2x2xK probability tables and collapsibility verdicts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ._readcsv import finite_cell, read_csv
from ._shared import MEASURES

__all__ = [
    "StratifiedTable",
    "MeasureReport",
    "TableError",
    "ZeroMarginError",
    "MEASURES",
    "risk",
    "marginalize",
    "effect_measure",
    "load_table_csv",
    "render_table",
]

DEFAULT_TOLERANCE = 1e-9


class TableError(ValueError):
    """Invalid table content or query."""


class ZeroMarginError(TableError):
    def __init__(self, context: str):
        super().__init__(f"empty margin: {context}")


@dataclass(frozen=True, eq=False)
class StratifiedTable:
    """Joint probabilities p(y, a, stratum) for binary y and a.

    ``probs[k, a, y]`` holds the joint probability of stratum ``k``,
    treatment ``a`` and outcome ``y``.  Probabilities must be
    non-negative and sum to one; use :meth:`from_counts` to normalize
    raw counts or weights.
    """

    labels: tuple[str, ...]
    probs: np.ndarray

    def __init__(self, labels: Iterable[str], probs: np.ndarray):
        labels = tuple(str(s) for s in labels)
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (len(labels), 2, 2):
            raise TableError(
                f"expected probabilities of shape ({len(labels)}, 2, 2), got {probs.shape}"
            )
        if len(set(labels)) != len(labels):
            raise TableError("stratum labels must be unique")
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise TableError("probabilities must be finite and non-negative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise TableError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def from_counts(cls, labels: Iterable[str], counts: np.ndarray) -> "StratifiedTable":
        counts = np.asarray(counts, dtype=float)
        with np.errstate(over="ignore"):  # an overflowing total is refused below
            total = counts.sum()
        if not 0 < total < math.inf:
            raise TableError("counts must sum to a finite positive total")
        return cls(labels, counts / total)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StratifiedTable):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.probs, other.probs)

    @property
    def n_strata(self) -> int:
        return len(self.labels)

    def stratum_index(self, stratum: str | int) -> int:
        if isinstance(stratum, int):
            if not 0 <= stratum < self.n_strata:
                raise TableError(f"stratum index {stratum} out of range")
            return stratum
        try:
            return self.labels.index(str(stratum))
        except ValueError:
            raise TableError(f"unknown stratum {stratum!r}") from None

    def stratum_weights(self) -> np.ndarray:
        """P(stratum)."""
        return self.probs.sum(axis=(1, 2))


@dataclass(frozen=True)
class MeasureReport:
    measure: str
    stratum_labels: tuple[str, ...]
    stratum_values: tuple[float, ...]
    marginal_value: float
    stratum_weights: tuple[float, ...]
    strictly_collapsible: bool
    collapsible: bool
    tolerance: float

    def as_dict(self) -> dict:
        return {
            "measure": self.measure,
            "strata": [
                {"label": lab, "value": val}
                for lab, val in zip(self.stratum_labels, self.stratum_values)
            ],
            "marginal": self.marginal_value,
            "stratum_weights": list(self.stratum_weights),
            "strictly_collapsible": self.strictly_collapsible,
            "collapsible": self.collapsible,
            "tolerance": self.tolerance,
        }


def risk(table: StratifiedTable, stratum: str | int, a: int) -> float:
    """P(Y=1 | A=a, stratum)."""
    k = table.stratum_index(stratum)
    if a not in (0, 1):
        raise TableError("treatment level must be 0 or 1")
    cell = table.probs[k, a, :]
    denom = cell.sum()
    if denom <= 0:
        raise ZeroMarginError(f"stratum {table.labels[k]!r}, A={a}")
    return float(cell[1] / denom)


def marginalize(table: StratifiedTable) -> StratifiedTable:
    """Collapse strata into a single 2x2 table by summing joints."""
    collapsed = table.probs.sum(axis=0, keepdims=True)
    return StratifiedTable(("marginal",), collapsed)


def _measure_value(measure: str, r1: float, r0: float, context: str) -> float:
    if measure == "risk_difference":
        return r1 - r0
    if measure == "risk_ratio":
        if r0 <= 0:
            raise ZeroMarginError(f"risk_ratio denominator P(Y=1|A=0) is 0 in {context}")
        return r1 / r0
    if measure == "odds_ratio":
        if r0 <= 0 or r1 >= 1:
            raise ZeroMarginError(f"odds_ratio denominator is 0 in {context}")
        if r0 >= 1 or r1 <= 0:
            raise ZeroMarginError(f"odds_ratio numerator is degenerate in {context}")
        return (r1 / (1 - r1)) / (r0 / (1 - r0))
    raise TableError(f"unknown measure {measure!r}; expected one of {MEASURES}")


def effect_measure(
    table: StratifiedTable, measure: str, tolerance: float = DEFAULT_TOLERANCE
) -> MeasureReport:
    """Per-stratum and marginal effect measure with collapsibility verdicts.

    Strict collapsibility requires every stratum value to equal the
    marginal value; plain collapsibility requires the marginal value to
    lie within the range spanned by the stratum values (the weighted
    average criterion).  Comparisons use a relative tolerance, which
    must be finite and not negative.
    """
    if not (math.isfinite(tolerance) and tolerance >= 0):
        raise TableError(
            f"tolerance must be a finite non-negative number, got {tolerance!r}"
        )
    stratum_values = tuple(
        _measure_value(
            measure,
            risk(table, k, 1),
            risk(table, k, 0),
            f"stratum {table.labels[k]!r}",
        )
        for k in range(table.n_strata)
    )
    collapsed = marginalize(table)
    marginal = _measure_value(
        measure, risk(collapsed, 0, 1), risk(collapsed, 0, 0), "marginal table"
    )
    tol = tolerance * max(1.0, abs(marginal))
    strict = all(abs(v - marginal) <= tol for v in stratum_values)
    collapsible = (
        strict
        or (min(stratum_values) - tol <= marginal <= max(stratum_values) + tol)
    )
    return MeasureReport(
        measure=measure,
        stratum_labels=table.labels,
        stratum_values=stratum_values,
        marginal_value=marginal,
        stratum_weights=tuple(float(w) for w in table.stratum_weights()),
        strictly_collapsible=strict,
        collapsible=collapsible,
        tolerance=tolerance,
    )


def load_table_csv(source: str) -> StratifiedTable:
    """Read a table from CSV text with columns stratum, a, y, weight.

    Column names are read ignoring case, so two that differ only in case
    are refused, as is more than one weight column.  The weight column
    may also be named ``count`` or ``n``; duplicate (stratum, a, y) rows
    accumulate.  Weights normalize to probabilities.  Rows follow the
    rules of :func:`read_csv`, and the a, y and weight cells must be
    finite numbers.
    """
    header, rows = read_csv(source)
    fields: dict[str, int] = {}
    for j, name in enumerate(header):
        if name.lower() in fields:
            raise TableError(f"columns {header[fields[name.lower()]]!r} and {name!r} "
                             "name the same field (case is ignored)")
        fields[name.lower()] = j
    weights = [fields[k] for k in ("weight", "count", "n") if k in fields]
    if len(weights) > 1:
        raise TableError("CSV has more than one weight column: "
                         + ", ".join(repr(header[j]) for j in weights))
    missing = [k for k in ("stratum", "a", "y") if k not in fields]
    if missing or not weights:
        raise TableError(
            "CSV needs columns stratum, a, y and one of weight/count/n; "
            f"got {list(header)}"
        )
    (weight,) = weights
    labels: list[str] = []
    cells: dict[tuple[str, int, int], float] = {}
    for line, row in rows:
        a, y, w = (
            finite_cell(row[j], line, header[j])
            for j in (fields["a"], fields["y"], weight)
        )
        if a not in (0, 1) or y not in (0, 1):
            raise TableError(f"row {line}: a and y must be 0 or 1")
        if w < 0:
            raise TableError(f"row {line}: negative weight")
        stratum = row[fields["stratum"]].strip()
        if stratum not in labels:
            labels.append(stratum)
        key = (stratum, int(a), int(y))
        cells[key] = cells.get(key, 0.0) + w
    counts = np.zeros((len(labels), 2, 2))
    for (stratum, a, y), w in cells.items():
        counts[labels.index(stratum), a, y] = w
    return StratifiedTable.from_counts(labels, counts)


def render_table(table: StratifiedTable, reports: Iterable[MeasureReport]) -> str:
    """Plain-text rendering: joints, risks, and one row per measure."""
    cols = list(table.labels) + ["marginal"]
    # One (table, stratum) pair per column: each stratum, then the collapsed table.
    blocks = [(table, k) for k in range(table.n_strata)] + [(marginalize(table), 0)]
    lines: list[str] = []
    header = " " * 10 + "".join(f"{c:>16}" for c in cols)
    lines.append(header)
    lines.append(" " * 10 + "".join(f"{'A=1':>8}{'A=0':>8}" for _ in cols))
    for y in (1, 0):
        row = f"Y={y}".ljust(10)
        for t, k in blocks:
            row += f"{t.probs[k, 1, y]:>8.3f}{t.probs[k, 0, y]:>8.3f}"
        lines.append(row)
    risk_row = "risk".ljust(10)
    for t, k in blocks:
        risk_row += f"{risk(t, k, 1):>8.2f}{risk(t, k, 0):>8.2f}"
    lines.append(risk_row)
    for rep in reports:
        row = rep.measure.replace("_", " ").ljust(16)
        for v in rep.stratum_values:
            row += f"{v:>16.2f}"
        row += f"{rep.marginal_value:>16.2f}"
        verdict = (
            "strictly collapsible"
            if rep.strictly_collapsible
            else ("collapsible" if rep.collapsible else "not collapsible")
        )
        lines.append(row + "   " + verdict)
    return "\n".join(lines)
