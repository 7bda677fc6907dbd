"""Curve table ingest: parsing, validation, columnar storage.

The single ingest format is the canonical curves CSV (UTF-8, header row):

    label,conductor,rank,a1,a2,a3,a4,a6,root_number,sha_an,real_period,
    regulator,tamagawa_product,torsion_order,l_value

Converting upstream database dumps into this layout is an external
preprocessing step, not handled here.

The parse converts the CSV a block of rows at a time, column by column.  A
row whose label or a cell does not convert is rejected with that field's
message; a converted row that breaks a rule of the one ordered table of
array masks (`_rules`) is rejected with the texts of all it breaks.  A
table loaded from a trace cache is held to the same rules (`broken_rules`),
so every table the analyses see meets them.
"""

from __future__ import annotations

import csv
import io
import itertools
import re
from dataclasses import dataclass
from typing import Sequence

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
#: the largest conductor, Tamagawa product or torsion order a table column holds
MAX_INT64 = (1 << 63) - 1

_LABEL_RE = re.compile(r"^([0-9]+)([a-z]+)([0-9]+)$")


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
        raise ValueError(f"label {label!r} is not Cremona-style")
    return m.group(1) + m.group(2)


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

    def record(self, i: int) -> CurveRecord:
        """The full record of row i of this table."""
        return CurveRecord(
            self.labels[i],
            isogeny_class_of(self.labels[i]),
            tuple(self.a_invariants[i]),
            **{name: getattr(self, column)[i].item()
               for column, (name, _) in NUMERIC_COLUMNS.items()},
        )

    def subset(self, indices: Sequence[int]) -> "CurveTable":
        """The rows at the given positions of this table, each once, in table order."""
        idx = np.unique_counts(np.asarray(indices, dtype=np.int64)).values
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
        vals, counts = np.unique_counts(self.ranks)
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
    #: each rejected row as {"line", "message"}, the ingest report's `rejected` entry
    errors: tuple[dict, ...]


_A_FIELDS = ("a1", "a2", "a3", "a4", "a6")
#: CSV fields in the order a row's cells are converted; a row that fails
#: is rejected with the message of the first field that does
_CONVERTED = (*_A_FIELDS, "conductor", "rank", "root_number", "real_period", "regulator",
              "tamagawa_product", "torsion_order", "sha_an", "l_value")
_REAL_FIELDS = ("real_period", "regulator", "sha_an", "l_value")


def _convert(cells: Sequence[str], field: str, first: dict[int, str]) -> np.ndarray:
    """One column's cells as an int64 array (float64 for a real field).

    A bad cell, or a real one not finite, puts its row's message in first
    unless an earlier field failed there.  int and float strip no more than
    str.strip, so a column that converts whole needs no strip.  The exact
    Python ints of an a-invariant, or of a column too wide for int64, are
    an object array.
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
        return array
    try:
        return np.array(values, dtype=object if field in _A_FIELDS else np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _rules(v: dict[str, np.ndarray]) -> tuple[tuple[np.ndarray, str], ...]:
    """The invariants a converted row must hold, in the order its message lists them.

    Each is the mask of the rows of v that break it and the message template
    that such a row's values format.  Every mask decides as the same test on
    the row's Python values: the Sha root is an integer that a float holds
    exactly, and its square is the float that a Python int square rounds to.
    """
    rank, w, sha, regulator, l_value = (
        v[field] for field in ("rank", "root_number", "sha_an", "regulator", "l_value"))
    valid_rank = (rank >= VALID_RANKS[0]) & (rank <= VALID_RANKS[-1])
    unit = (w == 1) | (w == -1)
    root = np.round(np.sqrt(np.where(sha > 0, sha, 1.0)))
    return (
        (v["conductor"] < MIN_CONDUCTOR, f"conductor {{conductor}} < {MIN_CONDUCTOR}"),
        (v["conductor"] > MAX_INT64, f"conductor {{conductor}} > {MAX_INT64}"),
        (~valid_rank, f"rank {{rank}} outside {VALID_RANKS}"),
        (~unit, "root number {root_number} not in {{-1,+1}}"),
        (valid_rank & unit & (w != np.where(rank % 2 == 0, 1, -1)),
         "parity violation: rank {rank} with root number {root_number:+d}"),
        (~(v["real_period"] > 0), "real period {real_period} not positive"),
        (~(regulator > 0), "regulator {regulator} not positive"),
        (v["tamagawa_product"] < 1, "Tamagawa product {tamagawa_product} not positive"),
        (v["tamagawa_product"] > MAX_INT64,
         f"Tamagawa product {{tamagawa_product}} > {MAX_INT64}"),
        (v["torsion_order"] < 1, "torsion order {torsion_order} not positive"),
        (v["torsion_order"] > MAX_INT64, f"torsion order {{torsion_order}} > {MAX_INT64}"),
        (~(sha > 0), "analytic Sha {sha_an} not positive"),
        ((sha > 0) & ((root < 1) | (np.abs(root * root - sha) > SHA_SQUARE_RTOL * sha)),
         "analytic Sha {sha_an} is not a perfect square"),
        (l_value < 0, "leading L-value {l_value} negative"),
        ((rank == 0) & (np.abs(regulator - 1.0) > 1e-6),
         "rank 0 with regulator {regulator} != 1"),
        ((rank == 0) & ~(l_value > 0), "rank 0 with vanishing L-value"),
    )


def broken_rules(v: dict[str, np.ndarray]) -> tuple[np.ndarray, list[str]]:
    """The mask of the rows of v that break a rule of `_rules`, and each one's message.

    v maps CSV fields to aligned columns, those of NUMERIC_COLUMNS among
    them.  A message lists the texts of every rule its row breaks, in
    `_rules` order.  The CSV parse rejects such rows, and a cache holding one
    is refused.
    """
    rules = _rules(v)
    bad = np.logical_or.reduce([mask for mask, _ in rules])
    values = {field: column[bad].tolist() for field, column in v.items()}
    hits = [(mask[bad].tolist(), template) for mask, template in rules]
    found = [dict(zip(values, row)) for row in zip(*values.values())]
    return bad, ["; ".join(template.format_map(row) for hit, template in hits if hit[k])
                 for k, row in enumerate(found)]


#: CSV records converted and checked at a time; only the kept rows' labels
#: and columns, and the set of their labels, outlive their block
_PARSE_BLOCK = 1 << 14


def _parse_block(block: list[tuple[int, list[str]]], errors: dict[int, str],
                 seen: set[str]) -> dict[str, np.ndarray]:
    """The labels and converted columns of the block's kept rows.

    A rejected row's message goes into errors under its line.  seen holds
    the labels kept so far; a converted row that repeats one is fatal.
    """
    lines, rows = [], []
    for line, row in block:
        if len(row) == len(CSV_FIELDS):
            lines.append(line)
            rows.append(row)
        elif row:  # blank lines are skipped
            errors[line] = f"expected {len(CSV_FIELDS)} columns, got {len(row)}"
    cells = dict(zip(CSV_FIELDS, zip(*rows))) if rows else dict.fromkeys(CSV_FIELDS, ())
    labels = list(map(str.strip, cells["label"]))
    first = {i: f"label {labels[i]!r} is not Cremona-style"
             for i, m in enumerate(map(_LABEL_RE.match, labels)) if m is None}
    arrays = {field: _convert(cells[field], field, first) for field in _CONVERTED}
    converted = np.delete(np.arange(len(lines)), list(first))
    bad, messages = broken_rules({field: array[converted] for field, array in arrays.items()})
    first.update(zip(converted[bad].tolist(), messages))
    errors.update((lines[i], message) for i, message in first.items())
    for i, passed in zip(converted.tolist(), (~bad).tolist()):
        if labels[i] in seen:
            raise ValueError(f"duplicate label {labels[i]!r} at line {lines[i]}")
        if passed:
            seen.add(labels[i])
    kept = converted[~bad]
    return {"label": np.array(labels, dtype=object)[kept],
            **{field: array[kept] for field, array in arrays.items()}}


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
        raise ValueError("empty stream: header row required") from None
    if tuple(h.strip() for h in header) != CSV_FIELDS:
        raise ValueError(
            f"bad header: expected {','.join(CSV_FIELDS)!r}, got {','.join(header)!r}"
        )
    numbered, errors, seen = enumerate(reader, start=2), {}, set()
    blocks = iter(lambda: list(itertools.islice(numbered, _PARSE_BLOCK)), [])
    # the empty block first gives a CSV without rows its (empty) columns
    parts = [_parse_block(block, errors, seen) for block in itertools.chain([[]], blocks)]
    columns = {field: np.concatenate([part.pop(field) for part in parts])
               for field in ("label", *_CONVERTED)}
    del seen
    labels = columns.pop("label").tolist()
    order = np.lexsort((np.array(labels, dtype=str),
                        np.asarray(columns["conductor"], dtype=np.int64)))
    a_invariants = np.stack([columns[field][order] for field in _A_FIELDS], axis=1)
    table = CurveTable([labels[i] for i in order.tolist()], a_invariants,
                       **{column: columns[name][order]
                          for column, (name, _) in NUMERIC_COLUMNS.items()})
    return ParseResult(table, tuple({"line": line, "message": errors[line]}
                                    for line in sorted(errors)))

