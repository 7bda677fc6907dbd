"""Stratification of murmuration profiles with permutation nulls.

A StratRule partitions a fixed-rank curve set by a BSD invariant into
groups of row positions (int arrays indexing the aligned table and trace
matrix).  Profile separation is the RMS difference of the groups'
murmuration profiles, per-prime mean-a_p arrays over one prime list, and
`rms_separation` is the one place it is computed.  Significance comes from
reshuffling group membership while preserving group sizes, and each CLI
command tests all its groupings in one `permutation_test` call.  All
randomness flows through an explicit 64-bit seed: the shuffles of a grouping
of n rows are the permutations of n that default_rng(seed) draws in turn, so
groupings of equal n tested together share each drawn block, each applying
it to its own rows.  Traces are integers, so every group sum is exact: in
float32 when n * max|a_p| < 2**24, the integers float32 holds exactly, and
in float64 otherwise.  A grouping's null is therefore the same, bit for
bit, whether it is tested alone or with others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Mapping, Sequence

import numpy as np

from .curves import CurveTable, invariant_values
from .traces import TraceMatrix
from .windows import murmuration_profile

_INF = float("inf")
#: shuffles per block of the permutation null; a block's drawn permutations
#: and its one-hot scatter matrix are block x n arrays, and the block shrinks
#: so that each stays within 2**24 entries (128 MB at 8 bytes) whatever the
#: table size; only the rows of the groupings that share one n are held
_SHUFFLE_BLOCK = 256
#: float32 holds every integer up to this magnitude exactly
_FLOAT32_EXACT = 1 << 24


class EmptyGroupError(ValueError):
    pass


@dataclass(frozen=True)
class StratRule:
    """Two-interval or quartile partition of one invariant.

    For two_group rules each group is a closed [lo, hi] interval on the
    grouping value (Sha snapped to its nearest integer first); curves in
    neither interval stay unassigned.
    """

    invariant: str
    kind: str  # "two_group" | "quartiles"
    group_a: tuple[float, float] | None = None
    group_b: tuple[float, float] | None = None
    name: str = ""

    def __post_init__(self):
        if self.kind not in ("two_group", "quartiles"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "two_group" and (self.group_a is None or self.group_b is None):
            raise ValueError("two_group rule needs both group intervals")


TAMAGAWA_RULE = StratRule("tamagawa", "two_group", (1, 1), (5, _INF), name="tamagawa")
SHA_RULE = StratRule("sha", "two_group", (1, 1), (4, _INF), name="sha")
PERIOD_QUARTILE_RULE = StratRule("period", "quartiles", name="period")
TORSION_RULE = StratRule("torsion", "two_group", (1, 1), (2, _INF), name="torsion")
ROOT_NUMBER_RULE = StratRule("root_number", "two_group", (1, 1), (-1, -1),
                             name="root_number")

TABLE_RULES = (TAMAGAWA_RULE, SHA_RULE, PERIOD_QUARTILE_RULE, TORSION_RULE,
               ROOT_NUMBER_RULE)

#: conductor windows used for the scale-invariance scan
SCALE_WINDOWS = ((5_000, 20_000), (10_000, 50_000), (20_000, 70_000),
                 (50_000, 100_000))


@dataclass(frozen=True)
class Partition:
    """Groups and leftovers as int arrays of aligned-table row positions."""

    groups: dict[str, np.ndarray]
    unassigned: np.ndarray

    def sizes(self) -> dict[str, int]:
        return {k: len(v) for k, v in self.groups.items()}


def _grouping_values(table: CurveTable, rule: StratRule) -> np.ndarray:
    if rule.invariant == "root_number":
        return table.root_numbers.astype(np.float64)
    if rule.invariant == "sha":
        return np.round(table.sha_values)  # snapped for grouping
    return invariant_values(table, rule.invariant)


def partition(table: CurveTable, rule: StratRule) -> Partition:
    """Assign every curve to exactly one group or leave it unassigned.

    Members keep table order and are given by their aligned positions
    (`table.rows`).
    """
    values = _grouping_values(table, rule)
    if rule.kind == "two_group":
        (a_lo, a_hi), (b_lo, b_hi) = rule.group_a, rule.group_b
        in_a = (a_lo <= values) & (values <= a_hi)
        in_b = ~in_a & (b_lo <= values) & (values <= b_hi)
        masks = {"group_a": in_a, "group_b": in_b}
        unassigned = table.rows[~(in_a | in_b)]
    else:
        if len(values) == 0:
            raise EmptyGroupError("cannot form quartiles of an empty table")
        edges = np.quantile(values, [0.25, 0.5, 0.75])
        bins = np.searchsorted(edges, values, side="left")
        masks = {f"q{i + 1}": bins == i for i in range(4)}
        unassigned = table.rows[:0]
    groups = {name: table.rows[mask] for name, mask in masks.items()}
    for name, members in groups.items():
        if not len(members):
            raise EmptyGroupError(f"group {name!r} of rule {rule.name or rule.invariant!r} is empty")
    return Partition(groups, unassigned)


def rms_separation(means: Sequence[np.ndarray]) -> np.ndarray:
    """RMS separation of k >= 2 equally shaped profiles over their last axis.

    sqrt of the mean, over all unordered pairs, of the mean squared
    difference; at k = 2 this is sqrt(mean((means[0] - means[1])^2)).
    Leading axes are kept, so a block of shuffled profiles gives one value
    per shuffle.
    """
    k = len(means)
    if k < 2:
        raise ValueError("profile RMS needs at least two profiles")
    sq = [np.mean((means[i] - means[j]) ** 2, axis=-1)
          for i in range(k) for j in range(i + 1, k)]
    return np.sqrt(np.mean(sq, axis=0))


@dataclass(frozen=True)
class StratReport:
    """Observed RMS separation against a permutation null."""

    observed_rms: float
    null_mean: float
    null_sd: float
    null_median: float
    p_value: float
    n_shuffles: int
    group_sizes: tuple[int, ...]
    seed: int
    low_shuffle_warning: bool

    def to_dict(self) -> dict:
        return asdict(self)


class StratReports(tuple):
    """One StratReport per grouping, in the order the groupings were given."""

    @property
    def n_shuffles(self) -> int:
        """Shuffles evaluated over all groupings (`bench/tracer.py` counts these)."""
        return sum(report.n_shuffles for report in self)


class _Null:
    """One grouping's rows in its own order, observed separation and null."""

    def __init__(self, members: list[Sequence[int]], matrix: TraceMatrix,
                 n_shuffles: int):
        self.sizes = [len(g) for g in members]
        self.bounds = np.concatenate([[0], np.cumsum(self.sizes)])
        rows = matrix.traces[np.concatenate(members)].astype(np.float64)
        self.observed = float(rms_separation(
            [rows[self.bounds[i]:self.bounds[i + 1]].mean(axis=0)
             for i in range(len(self.sizes))]
        ))
        self.total = rows.sum(axis=0)
        # every partial group sum is an integer of magnitude <= n * max|a_p|
        exact32 = len(rows) * np.abs(rows).max() < _FLOAT32_EXACT
        self.rows = rows.astype(np.float32) if exact32 else rows
        self.largest = int(np.argmax(self.sizes))
        self.values = np.empty(n_shuffles)

    def means(self, perms: np.ndarray) -> np.ndarray:
        """Group mean profiles under each permutation of a block (block x n)."""
        block = len(perms)
        n_total, n_primes = self.rows.shape
        means = np.empty((len(self.sizes), block, n_primes))
        running = np.zeros((block, n_primes))
        scatter_rows = np.arange(block)[:, None]
        # one-hot matmuls for the smaller groups; the largest is the complement
        for i, size in enumerate(self.sizes):
            if i == self.largest:
                continue
            onehot = np.zeros((block, n_total), dtype=self.rows.dtype)
            onehot[scatter_rows, perms[:, self.bounds[i]:self.bounds[i + 1]]] = 1
            sums = (onehot @ self.rows).astype(np.float64, copy=False)
            running += sums
            means[i] = sums / size
        means[self.largest] = (self.total[None, :] - running) / self.sizes[self.largest]
        return means

    def report(self, seed: int) -> StratReport:
        null = self.values
        n_shuffles = len(null)
        p = (1 + int(np.sum(null >= self.observed))) / (1 + n_shuffles)
        return StratReport(
            observed_rms=self.observed,
            null_mean=float(null.mean()),
            null_sd=float(null.std(ddof=1)) if n_shuffles > 1 else 0.0,
            null_median=float(np.median(null)),
            p_value=float(p),
            n_shuffles=n_shuffles,
            group_sizes=tuple(self.sizes),
            seed=seed,
            low_shuffle_warning=n_shuffles < 100,
        )


def _shared_stream(member_lists: list[list[Sequence[int]]], matrix: TraceMatrix,
                   n_total: int, n_shuffles: int, seed: int) -> list[StratReport]:
    """Reports of groupings of n_total rows each, from one drawn stream."""
    nulls = [_Null(members, matrix, n_shuffles) for members in member_lists]
    rng = np.random.default_rng(seed)
    max_block = max(1, min(_SHUFFLE_BLOCK, (1 << 24) // n_total))
    done = 0
    while done < n_shuffles:
        block = min(max_block, n_shuffles - done)
        perms = rng.permuted(
            np.broadcast_to(np.arange(n_total), (block, n_total)).copy(), axis=1
        )
        for null in nulls:
            null.values[done:done + block] = rms_separation(null.means(perms))
        done += block
    return [null.report(seed) for null in nulls]


def permutation_test(groupings: Sequence[Mapping[str, Sequence[int]]
                                         | Sequence[Sequence[int]]],
                     matrix: TraceMatrix, n_shuffles: int = 10_000,
                     seed: int = 0) -> StratReports:
    """Permutation nulls for the RMS separation of group profiles.

    Each grouping is a mapping or sequence of groups of matrix row
    positions, and gets its own report.  Membership is reshuffled preserving
    group sizes; the p-value uses the add-one estimator
    (1 + #{null >= observed}) / (1 + n_shuffles) and is bit-reproducible for
    a given seed.  The shuffles of a grouping of n rows are the permutations
    of n drawn in turn from default_rng(seed), so the groupings of equal n
    share one stream, drawn once, and each report is the one its grouping
    gets alone.  Groupings are taken one n at a time, so only the rows of
    one such bucket are held at once.  A command gathers every grouping it
    tests and makes one call, so no stream is drawn twice.
    """
    if n_shuffles < 1:
        raise ValueError(f"permutation test needs at least one shuffle, got {n_shuffles}")
    if isinstance(groupings, Mapping):
        raise TypeError("permutation_test takes a sequence of groupings")
    member_lists = []
    for groups in groupings:
        members = list(groups.values() if isinstance(groups, Mapping) else groups)
        if len(members) < 2 or any(len(g) == 0 for g in members):
            raise EmptyGroupError("permutation test needs at least two nonempty groups")
        member_lists.append(members)
    buckets: dict[int, list[int]] = {}
    for index, members in enumerate(member_lists):
        buckets.setdefault(sum(len(g) for g in members), []).append(index)
    reports: dict[int, StratReport] = {}
    for n_total, indices in buckets.items():
        reports.update(zip(indices, _shared_stream(
            [member_lists[i] for i in indices], matrix, n_total, n_shuffles, seed)))
    return StratReports(reports[i] for i in range(len(member_lists)))


@dataclass(frozen=True)
class BonferroniResult:
    alpha: float
    threshold: float
    decisions: tuple[bool, ...]


def bonferroni(p_values: Sequence[float], alpha: float = 0.001) -> BonferroniResult:
    """Bonferroni-adjusted threshold alpha/m with a reject decision per test."""
    if len(p_values) == 0:
        raise ValueError("no p-values supplied")
    threshold = alpha / len(p_values)
    return BonferroniResult(
        alpha, threshold, tuple(p < threshold for p in p_values)
    )


@dataclass(frozen=True)
class ScaleScanResult:
    windows: tuple[tuple[float, float], ...]
    rms_values: np.ndarray
    alpha: float
    r_squared: float


def fit_power_law(centers: np.ndarray, rms_values: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of RMS ~ N^(-alpha); returns (alpha, r^2)."""
    if len(centers) < 3:
        raise ValueError("power-law fit needs at least 3 windows")
    x = np.log(np.asarray(centers, dtype=np.float64))
    y = np.log(np.asarray(rms_values, dtype=np.float64))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-slope), r2


def scale_scan(table: CurveTable, matrix: TraceMatrix, rule: StratRule,
               windows: Sequence[tuple[float, float]] = SCALE_WINDOWS) -> ScaleScanResult:
    """Per-window RMS separation plus a power-law fit across window centers.

    Window centers are geometric means of the conductor bounds.
    """
    if len(windows) < 3:
        raise ValueError("scale scan needs at least 3 windows for the fit")
    rms_values = []
    for lo, hi in windows:
        part = partition(table.filter(conductor_range=(int(lo), int(hi))), rule)
        rms_values.append(float(rms_separation(
            [murmuration_profile(m, matrix) for m in part.groups.values()])))
    rms_values = np.array(rms_values)
    alpha, r2 = fit_power_law([math.sqrt(lo * hi) for lo, hi in windows], rms_values)
    return ScaleScanResult(
        tuple((float(lo), float(hi)) for lo, hi in windows), rms_values, alpha, r2,
    )
