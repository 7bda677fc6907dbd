"""Curve table ingest: parsing, validation, columnar storage, isogeny deduplication.

The single ingest format is the canonical curves CSV (UTF-8, header row):

    label,conductor,rank,a1,a2,a3,a4,a6,root_number,sha_an,real_period,
    regulator,tamagawa_product,torsion_order,l_value

Converting upstream database dumps into this layout is an external
preprocessing step, not handled here.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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
#: rank-0 BSD residual at or below this is treated as consistent
BSD_RTOL = 1e-3

VALID_RANKS = (0, 1, 2, 3, 4)
MIN_CONDUCTOR = 11

_LABEL_RE = re.compile(r"^([0-9]+)([a-z]+)([0-9]+)$")


class CurveDataError(ValueError):
    """Raised for unusable curve data (fatal for the whole table)."""


class DuplicateLabelError(CurveDataError):
    pass


class BsdInconsistencyError(CurveDataError):
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

    def sha_rounded(self) -> int:
        """Analytic Sha snapped to the nearest integer (used for grouping)."""
        return int(round(self.sha_an))

    def bsd_ratio(self) -> float:
        """Omega * prod(c_p) / torsion^2, the rank-0 right-hand side per unit Sha."""
        return self.real_period * self.tamagawa_product / self.torsion_order**2


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


#: numeric CurveTable columns: attribute -> (CurveRecord field, dtype)
_NUMERIC_COLUMNS = {
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

    Rows are sorted by (conductor, label); labels are unique.  Labels and
    isogeny classes are tuples, the a-invariants an (n, 5) object array of
    exact Python ints, every other invariant a NumPy column.  `rows` holds
    each row's position in the aligned table: a table built from records
    (or parsed) has rows 0..n-1, and `subset`/`filter` keep those positions.
    Curve groups throughout the package are int arrays of such positions;
    they index the aligned table's columns and the trace matrix aligned with
    it (`TraceMatrix.take`).  A CurveRecord is built only on request.
    """

    def __init__(self, records: Iterable[CurveRecord]):
        recs = sorted(records, key=lambda r: (r.conductor, r.label))
        seen: set[str] = set()
        for r in recs:
            if r.label in seen:
                raise DuplicateLabelError(f"duplicate label {r.label!r}")
            seen.add(r.label)
        self.labels = tuple(r.label for r in recs)
        self.isogeny_classes = tuple(r.isogeny_class for r in recs)
        self.a_invariants = np.array(
            [r.a_invariants for r in recs], dtype=object
        ).reshape(-1, 5)
        for column, (name, dtype) in _NUMERIC_COLUMNS.items():
            setattr(self, column, np.array([getattr(r, name) for r in recs], dtype=dtype))
        self.rows = np.arange(len(recs))

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
            self.isogeny_classes[i],
            tuple(self.a_invariants[i]),
            **{name: getattr(self, column)[i].item()
               for column, (name, _) in _NUMERIC_COLUMNS.items()},
        )

    @property
    def index_by_class(self) -> dict[str, tuple[int, ...]]:
        by_class: dict[str, list[int]] = {}
        for i, cls in enumerate(self.isogeny_classes):
            by_class.setdefault(cls, []).append(i)
        return {k: tuple(v) for k, v in by_class.items()}

    def subset(self, indices: Sequence[int]) -> "CurveTable":
        """The rows at the given positions of this table, each once, in table order."""
        idx = np.unique(np.asarray(indices, dtype=np.int64))
        sub = object.__new__(CurveTable)
        sub.labels = tuple(self.labels[i] for i in idx)
        sub.isogeny_classes = tuple(self.isogeny_classes[i] for i in idx)
        for column in ("a_invariants", *_NUMERIC_COLUMNS, "rows"):
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


def _parse_int(raw: str, field: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"field {field}={raw!r} is not an integer") from None


def _parse_real(raw: str, field: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"field {field}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"field {field}={raw!r} is not finite")
    return value


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
    records: list[CurveRecord] = []
    errors: list[RowError] = []
    seen: set[str] = set()
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_FIELDS):
            errors.append(RowError(line, f"expected {len(CSV_FIELDS)} columns, got {len(row)}"))
            continue
        raw = dict(zip(CSV_FIELDS, (cell.strip() for cell in row)))
        try:
            rec = CurveRecord(
                label=raw["label"],
                isogeny_class=isogeny_class_of(raw["label"]),
                a_invariants=tuple(
                    _parse_int(raw[f], f) for f in ("a1", "a2", "a3", "a4", "a6")
                ),
                conductor=_parse_int(raw["conductor"], "conductor"),
                rank=_parse_int(raw["rank"], "rank"),
                root_number=_parse_int(raw["root_number"], "root_number"),
                real_period=_parse_real(raw["real_period"], "real_period"),
                regulator=_parse_real(raw["regulator"], "regulator"),
                tamagawa_product=_parse_int(raw["tamagawa_product"], "tamagawa_product"),
                torsion_order=_parse_int(raw["torsion_order"], "torsion_order"),
                sha_an=_parse_real(raw["sha_an"], "sha_an"),
                l_value=_parse_real(raw["l_value"], "l_value"),
            )
        except (ValueError, CurveDataError) as exc:
            errors.append(RowError(line, str(exc)))
            continue
        if rec.label in seen:
            raise DuplicateLabelError(f"duplicate label {rec.label!r} at line {line}")
        problems = validate_record(rec)
        if problems:
            errors.append(RowError(line, "; ".join(problems)))
            continue
        seen.add(rec.label)
        records.append(rec)
    return ParseResult(CurveTable(records), tuple(errors))


def serialize_curve_table(table: CurveTable) -> str:
    """Canonical CSV text for a table; parse(serialize(t)) round-trips exactly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in table:
        a1, a2, a3, a4, a6 = r.a_invariants
        writer.writerow(
            [
                r.label,
                r.conductor,
                r.rank,
                a1,
                a2,
                a3,
                a4,
                a6,
                r.root_number,
                repr(r.sha_an),
                repr(r.real_period),
                repr(r.regulator),
                r.tamagawa_product,
                r.torsion_order,
                repr(r.l_value),
            ]
        )
    return out.getvalue()


def validate_bsd_residual(record: CurveRecord) -> float:
    """Relative rank-0 residual |L - Sha * Omega * prod(c_p) / T^2| / L.

    Residuals at or below BSD_RTOL are treated as consistent downstream.
    """
    if record.rank != 0:
        raise ValueError(f"{record.label}: BSD residual check requires rank 0")
    if record.l_value <= 0:
        raise BsdInconsistencyError(f"{record.label}: rank 0 but L-value is 0")
    predicted = (
        record.sha_an
        * record.real_period
        * record.tamagawa_product
        / record.torsion_order**2
    )
    return abs(record.l_value - predicted) / record.l_value


def dedupe_isogeny(table: CurveTable) -> CurveTable:
    """One representative per isogeny class: the lexicographically smallest label."""
    keep = [min(indices, key=table.labels.__getitem__)
            for indices in table.index_by_class.values()]
    return table.subset(keep)
