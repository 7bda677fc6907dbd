"""Curve table ingest: parsing, validation, columnar storage, isogeny deduplication.

The single ingest format is the canonical curves CSV (UTF-8, header row):

    label,conductor,rank,a1,a2,a3,a4,a6,root_number,sha_an,real_period,
    regulator,tamagawa_product,torsion_order,l_value

Converting upstream database dumps into this layout is an external
preprocessing step, not handled here.

The parse converts the CSV column by column and checks the invariants as
array masks; only a row that a conversion or a mask flags is looked at on
its own (`validate_record`), so each rejection reads as a row-wise parse's.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

CSV_FIELDS = (
    "label",
    "conductor",
    "rank",
    "a1",
    "a2",
    "a3",
    "a4",
    "a6",
    "root_number",
    "sha_an",
    "real_period",
    "regulator",
    "tamagawa_product",
    "torsion_order",
    "l_value",
)

#: relative tolerance for snapping analytic Sha to an integer square
SHA_SQUARE_RTOL = 1e-3

VALID_RANKS = (0, 1, 2, 3, 4)
MIN_CONDUCTOR = 11

_LABEL_RE = re.compile(r"^([0-9]+)([a-z]+)([0-9]+)$")


class CurveDataError(ValueError):
    """Raised for unusable curve data (fatal for the whole table)."""


class DuplicateLabelError(CurveDataError):
    pass


@dataclass(frozen=True)
class RowError:
    """One rejected CSV row."""

    line: int
    message: str


@dataclass(frozen=True)
class CurveRecord:
    """One curve with its BSD invariants, as ingested."""

    label: str
    isogeny_class: str
    a_invariants: tuple[int, int, int, int, int]
    conductor: int
    rank: int
    root_number: int
    real_period: float
    regulator: float
    tamagawa_product: int
    torsion_order: int
    sha_an: float
    l_value: float


def isogeny_class_of(label: str) -> str:
    """Strip the trailing curve index from a Cremona-style label."""
    m = _LABEL_RE.match(label)
    if m is None:
        raise CurveDataError(f"label {label!r} is not Cremona-style")
    return m.group(1) + m.group(2)


def validate_record(rec: CurveRecord) -> list[str]:
    """Return the list of invariant violations for a record (empty if valid)."""
    problems = []
    if _LABEL_RE.match(rec.label) is None:
        problems.append(f"label {rec.label!r} is not Cremona-style")
    if rec.conductor < MIN_CONDUCTOR:
        problems.append(f"conductor {rec.conductor} < {MIN_CONDUCTOR}")
    if rec.rank not in VALID_RANKS:
        problems.append(f"rank {rec.rank} outside {VALID_RANKS}")
    if rec.root_number not in (-1, 1):
        problems.append(f"root number {rec.root_number} not in {{-1,+1}}")
    elif rec.rank in VALID_RANKS and rec.root_number != (1 if rec.rank % 2 == 0 else -1):
        problems.append(
            f"parity violation: rank {rec.rank} with root number {rec.root_number:+d}"
        )
    if not rec.real_period > 0:
        problems.append(f"real period {rec.real_period} not positive")
    if not rec.regulator > 0:
        problems.append(f"regulator {rec.regulator} not positive")
    if rec.tamagawa_product < 1:
        problems.append(f"Tamagawa product {rec.tamagawa_product} not positive")
    if rec.torsion_order < 1:
        problems.append(f"torsion order {rec.torsion_order} not positive")
    if not rec.sha_an > 0:
        problems.append(f"analytic Sha {rec.sha_an} not positive")
    else:
        root = round(math.sqrt(rec.sha_an))
        if root < 1 or abs(root * root - rec.sha_an) > SHA_SQUARE_RTOL * rec.sha_an:
            problems.append(f"analytic Sha {rec.sha_an} is not a perfect square")
    if rec.l_value < 0:
        problems.append(f"leading L-value {rec.l_value} negative")
    if rec.rank == 0:
        if abs(rec.regulator - 1.0) > 1e-6:
            problems.append(f"rank 0 with regulator {rec.regulator} != 1")
        if not rec.l_value > 0:
            problems.append("rank 0 with vanishing L-value")
    return problems


#: numeric CurveTable columns: attribute -> (CSV field, dtype)
NUMERIC_COLUMNS = {
    "conductors": ("conductor", np.int64),
    "ranks": ("rank", np.int8),
    "root_numbers": ("root_number", np.int8),
    "real_periods": ("real_period", np.float64),
    "regulators": ("regulator", np.float64),
    "tamagawa_products": ("tamagawa_product", np.int64),
    "torsion_orders": ("torsion_order", np.int64),
    "sha_values": ("sha_an", np.float64),
    "l_values": ("l_value", np.float64),
}


class CurveTable:
    """Immutable, sorted collection of curves, stored column by column.

    Rows are sorted by (conductor, label); labels are unique.  Labels are a
    tuple, the a-invariants an (n, 5) object array of exact Python ints,
    every other invariant a NumPy column.  `rows` holds each row's position
    in the aligned table: a parsed or cached table has rows 0..n-1, and
    `subset`/`filter` keep those positions.  Curve groups throughout the
    package are int arrays of such positions; they index the aligned
    table's columns and the trace matrix aligned with it.  A CurveRecord is
    built only on request.
    """

    def __init__(self, labels: Sequence[str], a_invariants, **columns):
        """The table of these columns (one per NUMERIC_COLUMNS), already in order."""
        self.labels = tuple(labels)
        self.a_invariants = np.asarray(a_invariants, dtype=object).reshape(-1, 5)
        for column, (_, dtype) in NUMERIC_COLUMNS.items():
            setattr(self, column, np.asarray(columns[column], dtype=dtype))
        self.rows = np.arange(len(self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[CurveRecord]:
        return map(self.record, range(len(self)))

    @property
    def records(self) -> tuple[CurveRecord, ...]:
        return tuple(self)

    def record(self, i: int) -> CurveRecord:
        """The full record of row i of this table."""
        return CurveRecord(
            self.labels[i],
            isogeny_class_of(self.labels[i]),
            tuple(self.a_invariants[i]),
            **{name: getattr(self, column)[i].item()
               for column, (name, _) in NUMERIC_COLUMNS.items()},
        )

    @property
    def index_by_class(self) -> dict[str, tuple[int, ...]]:
        by_class: dict[str, list[int]] = {}
        for i, cls in enumerate(map(isogeny_class_of, self.labels)):
            by_class.setdefault(cls, []).append(i)
        return {k: tuple(v) for k, v in by_class.items()}

    def subset(self, indices: Sequence[int]) -> "CurveTable":
        """The rows at the given positions of this table, each once, in table order."""
        idx = np.unique(np.asarray(indices, dtype=np.int64))
        sub = object.__new__(CurveTable)
        sub.labels = tuple(self.labels[i] for i in idx)
        for column in ("a_invariants", *NUMERIC_COLUMNS, "rows"):
            setattr(sub, column, getattr(self, column)[idx])
        return sub

    def filter(self, rank: int | None = None,
               conductor_range: tuple[int, int] | None = None) -> "CurveTable":
        """New table restricted to a rank and/or closed conductor range."""
        idx = np.arange(len(self))
        if conductor_range is not None:
            lo, hi = conductor_range
            idx = idx[np.searchsorted(self.conductors, lo, side="left"):
                      np.searchsorted(self.conductors, hi, side="right")]
        if rank is not None:
            idx = idx[self.ranks[idx] == rank]
        return self.subset(idx)

    def rank_histogram(self) -> dict[int, int]:
        vals, counts = np.unique(self.ranks, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


#: invariant ids usable in window averages and correlations
INVARIANT_IDS = (
    "period",
    "log_period",
    "tamagawa",
    "torsion",
    "sha",
    "regulator",
    "l_value",
    "bsd_ratio",
)


def invariant_values(table: CurveTable, invariant: str) -> np.ndarray:
    """Per-curve values of a named BSD invariant, aligned with table order."""
    if invariant == "period":
        return table.real_periods
    if invariant == "log_period":
        return np.log(table.real_periods)
    if invariant == "tamagawa":
        return table.tamagawa_products.astype(np.float64)
    if invariant == "torsion":
        return table.torsion_orders.astype(np.float64)
    if invariant == "sha":
        return table.sha_values
    if invariant == "regulator":
        return table.regulators
    if invariant == "l_value":
        return table.l_values
    if invariant == "bsd_ratio":
        return (
            table.real_periods
            * table.tamagawa_products
            / table.torsion_orders.astype(np.float64) ** 2
        )
    raise KeyError(f"unknown invariant {invariant!r} (expected one of {INVARIANT_IDS})")


@dataclass(frozen=True)
class ParseResult:
    table: CurveTable
    errors: tuple[RowError, ...]


#: CSV fields in the order a row's cells are converted; a row that fails
#: is rejected with the message of the first field that does
_CONVERTED = ("a1", "a2", "a3", "a4", "a6", "conductor", "rank", "root_number",
              "real_period", "regulator", "tamagawa_product", "torsion_order",
              "sha_an", "l_value")
_REAL_FIELDS = ("real_period", "regulator", "sha_an", "l_value")


def _convert(cells: Sequence[str], field: str,
             first: dict[int, str]) -> tuple[list, np.ndarray]:
    """One column's cells as ints (floats for a real field), and their array.

    A bad cell, or a real one not finite, puts its row's message in first
    unless an earlier field failed there.  int and float strip no more than
    str.strip, so a column that converts whole needs no strip.
    """
    kind = float if field in _REAL_FIELDS else int
    try:
        values = list(map(kind, cells))
    except ValueError:
        values = []
        for i, cell in enumerate(cells):
            try:
                values.append(kind(cell.strip()))
            except ValueError:
                what = "a number" if kind is float else "an integer"
                first.setdefault(i, f"field {field}={cell.strip()!r} is not {what}")
                values.append(0)
    if kind is float:
        array = np.array(values, dtype=np.float64)
        for i in np.flatnonzero(~np.isfinite(array)).tolist():
            first.setdefault(i, f"field {field}={cells[i].strip()!r} is not finite")
        return values, array
    try:
        return values, np.array(values, dtype=np.int64)
    except OverflowError:
        return values, np.array(values, dtype=object)


def _suspects(v: dict[str, np.ndarray]) -> np.ndarray:
    """Rows that may fail `validate_record`: every one that does, and maybe more."""
    rank, sha, regulator, l_value = v["rank"], v["sha_an"], v["regulator"], v["l_value"]
    with np.errstate(invalid="ignore"):
        root = np.round(np.sqrt(np.where(sha > 0, sha, 1.0)))
        return ~((v["conductor"] >= MIN_CONDUCTOR) & (rank >= 0) & (rank <= 4)
                 & (v["root_number"] == np.where(rank % 2 == 0, 1, -1))
                 & (v["real_period"] > 0) & (regulator > 0) & (l_value >= 0)
                 & (v["tamagawa_product"] >= 1) & (v["torsion_order"] >= 1) & (sha > 0)
                 & (root >= 1) & (np.abs(root * root - sha) <= SHA_SQUARE_RTOL * sha)
                 & ((rank != 0) | ((np.abs(regulator - 1.0) <= 1e-6) & (l_value > 0))))


def parse_curve_table(stream) -> ParseResult:
    """Parse the canonical curves CSV into a sorted, columnar CurveTable.

    Rows failing field-level validation are collected into the error report
    and excluded; a duplicate label is fatal.
    """
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise CurveDataError("empty stream: header row required") from None
    if tuple(h.strip() for h in header) != CSV_FIELDS:
        raise CurveDataError(
            f"bad header: expected {','.join(CSV_FIELDS)!r}, got {','.join(header)!r}"
        )
    lines, rows, errors = [], [], {}
    for line, row in enumerate(reader, start=2):
        if len(row) == len(CSV_FIELDS):
            lines.append(line)
            rows.append(row)
        elif row:  # blank lines are skipped
            errors[line] = f"expected {len(CSV_FIELDS)} columns, got {len(row)}"
    cells = dict(zip(CSV_FIELDS, zip(*rows))) if rows else dict.fromkeys(CSV_FIELDS, ())
    del rows  # the cells hold the strings, each column until it is converted
    labels = list(map(str.strip, cells["label"]))
    first = {i: f"label {labels[i]!r} is not Cremona-style"
             for i, m in enumerate(map(_LABEL_RE.match, labels)) if m is None}
    values, arrays = {}, {}
    for field in _CONVERTED:
        values[field], arrays[field] = _convert(cells.pop(field), field, first)
    parsed = np.ones(len(lines), dtype=bool)
    parsed[list(first)] = False
    keep = parsed.copy()
    for i in np.flatnonzero(parsed & _suspects(arrays)).tolist():
        problems = validate_record(CurveRecord(
            labels[i], isogeny_class_of(labels[i]),
            tuple(values[f][i] for f in ("a1", "a2", "a3", "a4", "a6")),
            **{name: values[name][i] for name, _ in NUMERIC_COLUMNS.values()}))
        if problems:
            first[i], keep[i] = "; ".join(problems), False
    if len(set(labels)) < len(labels):  # fatal: a parsed row with an earlier kept label
        seen: set[str] = set()
        for i in np.flatnonzero(parsed).tolist():
            if labels[i] in seen:
                raise DuplicateLabelError(
                    f"duplicate label {labels[i]!r} at line {lines[i]}")
            if keep[i]:
                seen.add(labels[i])
    errors.update((lines[i], message) for i, message in first.items())
    kept = np.flatnonzero(keep)
    order = kept[np.lexsort((np.array([labels[i] for i in kept], dtype=str),
                             np.asarray(arrays["conductor"][kept], dtype=np.int64)))]
    a_invariants = np.empty((len(order), 5), dtype=object)
    for k, field in enumerate(("a1", "a2", "a3", "a4", "a6")):
        a_invariants[:, k] = np.array(values[field], dtype=object)[order]
    table = CurveTable([labels[i] for i in order.tolist()], a_invariants,
                       **{column: arrays[name][order]
                          for column, (name, _) in NUMERIC_COLUMNS.items()})
    return ParseResult(table, tuple(RowError(line, errors[line])
                                    for line in sorted(errors)))


def dedupe_isogeny(table: CurveTable) -> CurveTable:
    """One representative per isogeny class: the lexicographically smallest label."""
    keep = [min(indices, key=table.labels.__getitem__)
            for indices in table.index_by_class.values()]
    return table.subset(keep)
