"""Stratification of murmuration profiles with permutation nulls.

A StratRule partitions a fixed-rank curve set by a BSD invariant into
groups of row positions (int arrays indexing the aligned table and trace
matrix); profile separation is the RMS difference of subgroup murmuration
profiles, and significance comes from reshuffling group membership while
preserving group sizes.  All randomness flows through an explicit 64-bit
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Mapping, Sequence

import numpy as np

from .curves import CurveTable, invariant_values
from .traces import TraceMatrix
from .windows import MurmurationProfile, murmuration_profile

_INF = float("inf")
#: shuffles per block of the permutation null
_SHUFFLE_BLOCK = 256


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
    rule: StratRule

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
    return Partition(groups, unassigned, rule)


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


def profile_rms(profiles: Sequence[MurmurationProfile]) -> float:
    """rms_separation of murmuration profiles computed on one prime list."""
    for prof in profiles[1:]:
        if not np.array_equal(prof.primes, profiles[0].primes):
            raise ValueError("profiles computed on different prime lists")
    return float(rms_separation([prof.mean_ap for prof in profiles]))


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


def permutation_test(groups: Mapping[str, Sequence[int]] | Sequence[Sequence[int]],
                     matrix: TraceMatrix, n_shuffles: int = 10_000,
                     seed: int = 0) -> StratReport:
    """Permutation null for the RMS separation of group profiles.

    Groups are matrix row positions.  Membership is reshuffled preserving
    group sizes; the p-value uses the add-one estimator
    (1 + #{null >= observed}) / (1 + n_shuffles) and is bit-reproducible for
    a given seed.
    """
    if n_shuffles < 1:
        raise ValueError(f"permutation test needs at least one shuffle, got {n_shuffles}")
    member_lists = list(groups.values() if isinstance(groups, Mapping) else groups)
    if len(member_lists) < 2 or any(len(g) == 0 for g in member_lists):
        raise EmptyGroupError("permutation test needs at least two nonempty groups")
    sizes = [len(g) for g in member_lists]
    rows = matrix.traces[np.concatenate(member_lists)].astype(np.float64)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    observed = float(rms_separation(
        [rows[bounds[i]:bounds[i + 1]].mean(axis=0) for i in range(len(sizes))]
    ))
    rng = np.random.default_rng(seed)
    n_total, n_primes = rows.shape
    k = len(sizes)
    total_sum = rows.sum(axis=0)
    null = np.empty(n_shuffles)
    done = 0
    # keep the one-hot scatter matrix within ~128 MB regardless of table size
    max_block = max(1, min(_SHUFFLE_BLOCK, (1 << 24) // n_total))
    while done < n_shuffles:
        block = min(max_block, n_shuffles - done)
        perms = rng.permuted(
            np.broadcast_to(np.arange(n_total), (block, n_total)).copy(), axis=1
        )
        # group sums via one-hot matmuls; the last group is the complement
        means = np.empty((k, block, n_primes))
        running = np.zeros((block, n_primes))
        scatter_rows = np.arange(block)[:, None]
        for i in range(k - 1):
            onehot = np.zeros((block, n_total))
            onehot[scatter_rows, perms[:, bounds[i]:bounds[i + 1]]] = 1.0
            sums = onehot @ rows
            running += sums
            means[i] = sums / sizes[i]
        means[k - 1] = (total_sum[None, :] - running) / sizes[k - 1]
        null[done:done + block] = rms_separation(means)
        done += block
    p = (1 + int(np.sum(null >= observed))) / (1 + n_shuffles)
    return StratReport(
        observed_rms=observed,
        null_mean=float(null.mean()),
        null_sd=float(null.std(ddof=1)) if n_shuffles > 1 else 0.0,
        null_median=float(np.median(null)),
        p_value=float(p),
        n_shuffles=n_shuffles,
        group_sizes=tuple(sizes),
        seed=seed,
        low_shuffle_warning=n_shuffles < 100,
    )


def stratify(table: CurveTable, matrix: TraceMatrix, rule: StratRule,
             n_shuffles: int = 10_000, seed: int = 0) -> tuple[Partition, StratReport]:
    """Partition, profile, and permutation-test in one step."""
    part = partition(table, rule)
    report = permutation_test(part.groups, matrix, n_shuffles=n_shuffles, seed=seed)
    return part, report


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
    centers: np.ndarray
    rms_values: np.ndarray
    alpha: float
    r_squared: float
    group_sizes: tuple[tuple[int, ...], ...]


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
    centers = []
    sizes = []
    for lo, hi in windows:
        sub = table.filter(conductor_range=(int(lo), int(hi)))
        part = partition(sub, rule)
        profiles = [murmuration_profile(m, matrix) for m in part.groups.values()]
        rms_values.append(profile_rms(profiles))
        centers.append(math.sqrt(lo * hi))
        sizes.append(tuple(len(m) for m in part.groups.values()))
    centers = np.array(centers)
    rms_values = np.array(rms_values)
    alpha, r2 = fit_power_law(centers, rms_values)
    return ScaleScanResult(
        tuple((float(lo), float(hi)) for lo, hi in windows),
        centers, rms_values, alpha, r2, tuple(sizes),
    )
