"""Stratification of murmuration profiles with permutation nulls.

A StratRule partitions a fixed-rank curve set by a BSD invariant into groups
of row positions (int arrays indexing the aligned table and trace matrix);
`partition` returns them as a dict by group name.  Profile separation is the
RMS difference of the groups' murmuration profiles, per-prime mean-a_p
arrays over one prime list, and `rms_separation` is the one place it is
computed.  Significance comes from reshuffling group membership while
preserving group sizes, and each CLI command tests all its groupings in one
`permutation_test` call, which returns each grouping's report part, a dict
with the report's keys.  All randomness flows through an explicit 64-bit
seed: the shuffles of a grouping of n rows are the permutations of n that
default_rng(seed) draws in turn, so groupings of equal n tested together
share each drawn block, each applying it to its own rows.  The streams of
different n are independent, so each runs as one task on a thread pool of as
many workers as the process has CPUs; NumPy's draws and matrix products
release the GIL.  A stream holds one permutation array, one one-hot buffer
per copy dtype and one converted copy of each distinct row set among its
groupings, so its memory does not grow with the groupings that share a row
set: the copy is in sorted row order, and each grouping scatters into it
through a map from its own member order.  Traces are integers, so every
group sum is exact: the observed separation and the total take theirs in
int64 from the int16 rows, and the shuffles in float32 when n * max|a_p| <
2**24, the integers float32 holds exactly, and in float64 otherwise, in
whatever row order.  A grouping's null is therefore the same, bit for bit,
whether it is tested alone or with others, and whatever the scheduling of
the streams or the threading of the BLAS.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .curves import MAX_INT64, invariant_values
from .windows import murmuration_profile

if TYPE_CHECKING:
    from .curves import CurveTable
    from .traces import TraceMatrix

_INF = float("inf")
#: shuffles per block of the permutation null, the memory bound of one running
#: stream: its drawn permutations and each one-hot scatter buffer are block x n
#: arrays, and the block shrinks so that each stays within 2**24 entries
#: (128 MB at 8 bytes) whatever the table size.  A block's rows are drawn in
#: turn, so its size moves no bit of the null
_SHUFFLE_BLOCK = 128
#: float32 holds every integer up to this magnitude exactly
_FLOAT32_EXACT = 1 << 24
#: family-wise significance level of `bonferroni`, the paper's p < 0.001
BONFERRONI_ALPHA = 0.001


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

    def __post_init__(self):
        if self.kind not in ("two_group", "quartiles"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "two_group" and (self.group_a is None or self.group_b is None):
            raise ValueError("two_group rule needs both group intervals")


TAMAGAWA_RULE = StratRule("tamagawa", "two_group", (1, 1), (5, _INF))
SHA_RULE = StratRule("sha", "two_group", (1, 1), (4, _INF))
PERIOD_QUARTILE_RULE = StratRule("period", "quartiles")
TORSION_RULE = StratRule("torsion", "two_group", (1, 1), (2, _INF))
ROOT_NUMBER_RULE = StratRule("root_number", "two_group", (1, 1), (-1, -1))

TABLE_RULES = (TAMAGAWA_RULE, SHA_RULE, PERIOD_QUARTILE_RULE, TORSION_RULE,
               ROOT_NUMBER_RULE)


def _grouping_values(table: CurveTable, rule: StratRule) -> np.ndarray:
    if rule.invariant == "root_number":
        return table.root_numbers.astype(np.float64)
    if rule.invariant == "sha":
        return np.round(table.sha_values)  # snapped for grouping
    return invariant_values(table, rule.invariant)


def partition(table: CurveTable, rule: StratRule) -> dict[str, np.ndarray]:
    """Each group's members, as int arrays of aligned row positions (`table.rows`).

    Every curve is in at most one group, and members keep table order.  A
    quartile rule assigns every curve; a two-group rule leaves a curve in
    neither interval unassigned.
    """
    values = _grouping_values(table, rule)
    if rule.kind == "two_group":
        (a_lo, a_hi), (b_lo, b_hi) = rule.group_a, rule.group_b
        in_a = (a_lo <= values) & (values <= a_hi)
        in_b = ~in_a & (b_lo <= values) & (values <= b_hi)
        masks = {"group_a": in_a, "group_b": in_b}
    else:
        if len(values) == 0:
            raise ValueError("cannot form quartiles of an empty table")
        edges = _quartiles(values)
        bins = np.searchsorted(edges, values, side="left")
        masks = {f"q{i + 1}": bins == i for i in range(4)}
    groups = {name: table.rows[mask] for name, mask in masks.items()}
    for name, members in groups.items():
        if not len(members):
            raise ValueError(f"group {name!r} of rule {rule.invariant!r} is empty")
    return groups


def _quartiles(values: np.ndarray) -> np.ndarray:
    """np.quantile(values, [0.25, 0.5, 0.75]) of finite values, by one sort.

    Each edge lies (n - 1) q into the sorted values, which is exact for
    these q, and interpolates its two neighbours as NumPy's linear method
    does.  np.quantile would import numpy.ma (~20 ms) for its np.unique.
    """
    q = np.array([0.25, 0.5, 0.75])
    ordered = np.sort(values)
    at = (len(ordered) - 1) * q
    below = np.floor(at).astype(np.intp)
    low, high = ordered[below], ordered[np.minimum(below + 1, len(ordered) - 1)]
    t = at - below
    step = high - low
    return np.where(t >= 0.5, high - step * (1 - t), low + step * t)


def median(values: np.ndarray) -> float:
    """np.median of finite values: the mean of the middle one or two, sorted.

    np.median would import numpy.ma (~20 ms) on its first call in a process.
    """
    half = len(values) // 2
    return float(np.mean(np.sort(values)[half - 1 + len(values) % 2:half + 1]))


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


class StratReports(tuple):
    """One permutation report per grouping, in the order the groupings were given."""

    @property
    def n_shuffles(self) -> int:
        """Shuffles evaluated over all groupings (`bench/tracer.py` counts these)."""
        return sum(report["n_shuffles"] for report in self)


class _Null:
    """One grouping's observed separation and null, over a shared row copy.

    The observed group means and the total come from int64 sums of each
    group's integer trace rows, exact and so equal to any float64 sum of
    them.  The shuffles scatter into `rows`, the converted copy of the
    grouping's row set, through `position`: the copy row of each member in
    the grouping's own order.
    """

    def __init__(self, members: list[Sequence[int]], traces: np.ndarray,
                 rows: np.ndarray, position: np.ndarray, n_shuffles: int):
        self.sizes = [len(g) for g in members]
        self.bounds = np.concatenate([[0], np.cumsum(self.sizes)])
        sums = [traces[g].sum(axis=0, dtype=np.int64) for g in members]
        self.observed = float(rms_separation([s / n for s, n in zip(sums, self.sizes)]))
        self.total = np.sum(sums, axis=0).astype(np.float64)
        self.rows = rows
        self.position = position
        self.largest = int(np.argmax(self.sizes))
        self.values = np.empty(n_shuffles)

    def means(self, perms: np.ndarray, flat: np.ndarray) -> np.ndarray:
        """Group mean profiles per permutation; flat, a zeroed one-hot, is left zeroed."""
        block = len(perms)
        n_total, n_primes = self.rows.shape
        means = np.zeros((len(self.sizes), block, n_primes))
        running = means[self.largest]
        onehot = flat[:block * n_total].reshape(block, n_total)
        row_starts = np.arange(block)[:, None] * n_total
        # one-hot matmuls for the smaller groups; the largest is the complement
        for i, size in enumerate(self.sizes):
            if i == self.largest:
                continue
            picked = self.position[perms[:, self.bounds[i]:self.bounds[i + 1]]]
            picked += row_starts
            flat[picked] = 1
            sums = onehot @ self.rows
            flat[picked] = 0
            running += sums
            np.divide(sums, size, out=means[i], dtype=np.float64)
        np.subtract(self.total[None, :], running, out=running)
        running /= self.sizes[self.largest]
        return means

    def report(self, seed: int) -> dict:
        """The permutation report part: the observed RMS against its null."""
        null = self.values
        n_shuffles = len(null)
        p = (1 + int(np.sum(null >= self.observed))) / (1 + n_shuffles)
        return {
            "observed_rms": self.observed,
            "null_mean": float(null.mean()),
            "null_sd": float(null.std(ddof=1)) if n_shuffles > 1 else 0.0,
            "null_median": median(null),
            "p_value": float(p),
            "n_shuffles": n_shuffles,
            "group_sizes": self.sizes,
            "seed": seed,
            "low_shuffle_warning": n_shuffles < 100,
        }


def _usable_cpus() -> int:
    """CPUs this process may run on, the most streams worth running at once."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not offered on every platform
        return os.cpu_count() or 1


def _converted(rows: np.ndarray) -> np.ndarray:
    """Integer trace rows as float32 when that sums any subset exactly, else float64."""
    # every partial group sum is an integer of magnitude <= n * max|a_p|,
    # bounded in Python ints: np.abs of int16 -32768 is -32768
    peak = max(-int(rows.min()), int(rows.max()))
    return rows.astype(np.float32 if len(rows) * peak < _FLOAT32_EXACT else np.float64)


def _nulls(member_lists: list[list[Sequence[int]]], matrix: TraceMatrix,
           n_shuffles: int) -> list[_Null]:
    """A _Null per grouping, with one converted copy per distinct row set.

    A row set is the grouping's sorted member rows, a row listed twice
    counting twice, and its copy is in that sorted order.  A grouping's
    position map sends each member, in its own order, to its own copy row.
    """
    copies: dict[bytes, np.ndarray] = {}
    nulls = []
    for members in member_lists:
        order = np.concatenate(members)
        ranks = np.argsort(order)
        key = order[ranks].tobytes()
        if key not in copies:
            copies[key] = _converted(matrix.traces[order[ranks]])
        position = np.empty_like(ranks)
        position[ranks] = np.arange(len(order))
        nulls.append(_Null(members, matrix.traces, copies[key], position, n_shuffles))
    return nulls


def _shared_stream(member_lists: list[list[Sequence[int]]], matrix: TraceMatrix,
                   n_total: int, n_shuffles: int, seed: int) -> list[dict]:
    """Reports of groupings of n_total rows each, from one drawn stream."""
    nulls = _nulls(member_lists, matrix, n_shuffles)
    rng = np.random.default_rng(seed)
    identity = np.arange(n_total)
    perms = np.empty((max(1, min(_SHUFFLE_BLOCK, (1 << 24) // n_total, n_shuffles)),
                      n_total), dtype=identity.dtype)
    onehots = {null.rows.dtype: np.zeros(perms.size, null.rows.dtype) for null in nulls}
    done = 0
    while done < n_shuffles:
        block = perms[:n_shuffles - done]
        block[:] = identity
        rng.permuted(block, axis=1, out=block)
        for null in nulls:
            null.values[done:done + len(block)] = rms_separation(
                null.means(block, onehots[null.rows.dtype]))
        done += len(block)
    return [null.report(seed) for null in nulls]


def permutation_test(groupings: Sequence[Mapping[str, Sequence[int]]
                                         | Sequence[Sequence[int]]],
                     matrix: TraceMatrix, n_shuffles: int, seed: int) -> StratReports:
    """Permutation nulls for the RMS separation of group profiles.

    Each grouping is a mapping or sequence of groups of matrix row
    positions, and gets its own report.  Membership is reshuffled preserving
    group sizes; the p-value uses the add-one estimator
    (1 + #{null >= observed}) / (1 + n_shuffles) and is bit-reproducible for
    a given seed.  The shuffles of a grouping of n rows are the permutations
    of n drawn in turn from default_rng(seed), so the groupings of equal n
    share one stream, drawn once, and each report is the one its grouping
    gets alone.  Each such bucket is one task on a thread pool, largest n
    first, with as many workers as the process may use CPUs (at most one
    per bucket).  A running bucket holds one converted copy of each distinct
    row set among its groupings, one array of drawn permutations and one
    one-hot buffer per copy dtype.  Reports come back in call order whatever
    the scheduling.  A command gathers every grouping it tests and makes one
    call, so no stream is drawn twice.
    """
    if n_shuffles < 1:
        raise ValueError(f"permutation test needs at least one shuffle, got {n_shuffles}")
    if isinstance(groupings, Mapping):
        raise TypeError("permutation_test takes a sequence of groupings")
    member_lists = []
    for groups in groupings:
        members = list(groups.values() if isinstance(groups, Mapping) else groups)
        if len(members) < 2 or any(len(g) == 0 for g in members):
            raise ValueError("permutation test needs at least two nonempty groups")
        member_lists.append(members)
    if not member_lists:
        return StratReports()
    buckets: dict[int, list[int]] = {}
    for index, members in enumerate(member_lists):
        buckets.setdefault(sum(len(g) for g in members), []).append(index)
    workers = min(_usable_cpus(), len(buckets))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        streams = {n_total: pool.submit(_shared_stream,
                                        [member_lists[i] for i in buckets[n_total]],
                                        matrix, n_total, n_shuffles, seed)
                   for n_total in sorted(buckets, reverse=True)}
    reports: dict[int, dict] = {}
    for n_total, indices in buckets.items():  # a failure surfaces in call order
        reports.update(zip(indices, streams[n_total].result()))
    return StratReports(reports[i] for i in range(len(member_lists)))


def bonferroni(p_values: Sequence[float]) -> dict:
    """Bonferroni-adjusted threshold BONFERRONI_ALPHA / m, and whether every p is below it."""
    if len(p_values) == 0:
        raise ValueError("no p-values supplied")
    threshold = BONFERRONI_ALPHA / len(p_values)
    return {"alpha": BONFERRONI_ALPHA, "threshold": threshold,
            "all_significant": all(p < threshold for p in p_values)}


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
               windows: Sequence[tuple[float, float]]) -> dict:
    """Per-window RMS separation plus a power-law fit across window centers.

    Window centers are geometric means of the conductor bounds.  The report
    part holds the windows, the RMS of each, and the fit's alpha and r^2.
    Every window is checked before any is partitioned.
    """
    if len(windows) < 3:
        raise ValueError("scale scan needs at least 3 windows for the fit")
    for number, (lo, hi) in enumerate(windows, start=1):
        if max(lo, hi) > MAX_INT64:
            raise ValueError(f"scale scan window {number} has a bound above {MAX_INT64}, "
                             "the largest conductor a table holds")
        if not 0 < lo <= hi:
            raise ValueError(f"scale scan window {number} ({lo}:{hi}) needs 0 < LO <= HI")
    rms_values = []
    for lo, hi in windows:
        groups = partition(table.filter(conductor_range=(int(lo), int(hi))), rule)
        rms_values.append(float(rms_separation(
            [murmuration_profile(m, matrix) for m in groups.values()])))
    alpha, r2 = fit_power_law([math.sqrt(lo * hi) for lo, hi in windows], rms_values)
    return {"windows": [[float(lo), float(hi)] for lo, hi in windows], "rms": rms_values,
            "alpha": alpha, "r_squared": r2}
