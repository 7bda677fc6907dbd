"""Confounder controls for murmuration modulations.

Covers restriction to a fixed number of conductor prime factors, greedy
nearest-neighbor matching on a one-dimensional key, L-value band
restriction, the combined L-value/period/conductor control, per-group BSD
ratio validation, and cumulative Euler-sum decompositions.  A control only
builds and measures groups: `control_omega` and `triple_control` return
groupings, and the `confound` command tests them all in one
`stratify.permutation_test` call.  Curve groups are int arrays of aligned
row positions (see `curves.CurveTable`); a table passed alongside a group
is the aligned table those positions index.
Murmuration profiles are per-prime mean-a_p arrays aligned with a prime
list (see `windows.murmuration_profile`).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .curves import CurveTable, invariant_values
from .primes import omega
from .stratify import (
    EmptyGroupError,
    Partition,
    SHA_RULE,
    StratRule,
    partition,
    rms_separation,
)
from .traces import TraceMatrix


@dataclass(frozen=True)
class MatchedPairs:
    """Greedy one-to-one nearest-neighbor matches: (row a, row b, distance)."""

    pairs: tuple[tuple[int, int, float], ...]
    key: str
    max_distance: float

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

    @property
    def mean_distance(self) -> float:
        if not self.pairs:
            return 0.0
        return float(np.mean([d for _, _, d in self.pairs]))

    def rows_a(self) -> np.ndarray:
        return np.array([a for a, _, _ in self.pairs], dtype=np.int64)

    def rows_b(self) -> np.ndarray:
        return np.array([b for _, b, _ in self.pairs], dtype=np.int64)


def match_nn(table: CurveTable, group_a: Sequence[int], group_b: Sequence[int],
             key: str = "conductor", max_distance: float = math.inf) -> MatchedPairs:
    """Greedy nearest-neighbor matching of A-curves to distinct B-curves.

    A-curves are processed in ascending key order (ties by label); each takes
    the nearest still-unused B-curve, and the pair is dropped when the key
    distance exceeds max_distance.
    """
    if not len(group_a) or not len(group_b):
        raise EmptyGroupError("matching requires two nonempty groups")
    if key not in ("conductor", "l_value"):
        raise KeyError(f"unsupported matching key {key!r}")
    values = table.l_values if key == "l_value" else table.conductors.astype(np.float64)
    a_vals, b_vals = values[group_a], values[group_b]
    labels = table.labels
    a_order = sorted(range(len(group_a)), key=lambda i: (a_vals[i], labels[group_a[i]]))
    b_order = sorted(range(len(group_b)), key=lambda i: (b_vals[i], labels[group_b[i]]))
    b_sorted = [b_vals[i] for i in b_order]
    b_rows = [int(group_b[i]) for i in b_order]
    b_labels = [labels[r] for r in b_rows]
    m = len(b_sorted)
    # doubly linked alive-list over sorted B positions; slot j+1 holds item j,
    # slots 0 and m+1 are sentinels.  Dead slots keep stale pointers that are
    # path-compressed during walks, so scans stay near-linear overall.
    alive = [True] * m
    nxt = list(range(1, m + 2))   # nxt[slot], slot 0 is the head sentinel
    prv = list(range(-1, m))      # prv[slot]; prv[0] unused

    def right_item(pos: int) -> int | None:
        s = pos + 1
        seen = []
        while s <= m and not alive[s - 1]:
            seen.append(s)
            s = nxt[s]
        for t in seen:
            nxt[t] = s
        return s - 1 if s <= m else None

    def left_item(pos: int) -> int | None:
        s = pos
        seen = []
        while s >= 1 and not alive[s - 1]:
            seen.append(s)
            s = prv[s]
        for t in seen:
            prv[t] = s
        return s - 1 if s >= 1 else None

    def remove(item: int) -> None:
        s = item + 1
        alive[item] = False
        nxt[prv[s]] = nxt[s]
        if nxt[s] <= m:
            prv[nxt[s]] = prv[s]

    pairs = []
    used = 0
    for ai in a_order:
        if used == m:
            break
        target = a_vals[ai]
        pos = bisect.bisect_left(b_sorted, target)
        best = None
        left = left_item(pos)
        if left is not None:
            best = (abs(b_sorted[left] - target), b_labels[left], left)
        right = right_item(pos)
        if right is not None:
            cand = (abs(b_sorted[right] - target), b_labels[right], right)
            if best is None or cand[:2] < best[:2]:
                best = cand
        if best is None or best[0] > max_distance:
            continue
        dist, _, bj = best
        pairs.append((int(group_a[ai]), b_rows[bj], float(dist)))
        remove(bj)
        used += 1
    return MatchedPairs(tuple(pairs), key, max_distance)


@dataclass(frozen=True)
class PairedProfiles:
    rms_group: float
    rms_per_pair: float


def matched_rms(matched: MatchedPairs, matrix: TraceMatrix) -> PairedProfiles:
    """RMS separation of the two matched sub-profiles.

    rms_group compares the two matched-group mean profiles; rms_per_pair
    averages squared per-pair differences over pairs and primes.
    """
    if matched.n_pairs == 0:
        raise EmptyGroupError("no matched pairs")
    rows_a = matrix.traces[matched.rows_a()].astype(np.float64)
    rows_b = matrix.traces[matched.rows_b()].astype(np.float64)
    group = float(rms_separation([rows_a.mean(0), rows_b.mean(0)]))
    pair = float(rms_separation([rows_a.ravel(), rows_b.ravel()]))
    return PairedProfiles(group, pair)


def control_omega(table: CurveTable, groups: Mapping[str, np.ndarray],
                  k: int) -> dict[str, np.ndarray]:
    """The groups restricted to conductors with omega(N) = k."""
    restricted = {}
    for name, members in groups.items():
        keep = members[[omega(int(n)) == k for n in table.conductors[members]]]
        if not len(keep):
            raise EmptyGroupError(f"group {name!r} empty after omega(N) = {k} restriction")
        restricted[name] = keep
    return restricted


def lvalue_band(table: CurveTable, band: tuple[float, float]) -> CurveTable:
    """Rank-0 curves with central L-value inside the closed band."""
    lo, hi = band
    if not lo < hi:
        raise ValueError(f"empty band [{lo}, {hi}]")
    l_values = table.l_values
    return table.subset(np.flatnonzero((table.ranks == 0) & (lo <= l_values)
                                       & (l_values <= hi)))


def triple_control(table: CurveTable, band: tuple[float, float],
                   conductor_range: tuple[int, int],
                   rule: StratRule = SHA_RULE) -> dict[str, Partition]:
    """Sha groupings with L-value band, conductor range, and period held fixed.

    Within band and range, curves are split at the median real period, and
    each half, "small_period" and "large_period", is partitioned by the rule.
    """
    banded = lvalue_band(table.filter(conductor_range=conductor_range), band)
    if len(banded) == 0:
        raise EmptyGroupError("no curves inside the band and conductor range")
    small = banded.real_periods <= np.median(banded.real_periods)
    halves = {}
    for name, mask in (("small_period", small), ("large_period", ~small)):
        try:
            halves[name] = partition(banded.subset(np.flatnonzero(mask)), rule)
        except EmptyGroupError as exc:
            raise EmptyGroupError(f"{name}: {exc}") from None
    return halves


def bsd_group_ratios(table: CurveTable,
                     groups: dict[str, Sequence[int]]) -> dict[str, float]:
    """Per-group mean(Omega * prod c_p / T^2) / mean(L); ~ 1/|Sha| at fixed Sha."""
    bsd_ratios = invariant_values(table, "bsd_ratio")
    out = {}
    for name, rows in groups.items():
        if np.any(table.ranks[rows] != 0):
            raise ValueError(f"group {name!r} contains curves of positive rank")
        mean_l = float(np.mean(table.l_values[rows]))
        if mean_l == 0:
            raise ZeroDivisionError(f"group {name!r} has zero mean L-value")
        out[name] = float(np.mean(bsd_ratios[rows])) / mean_l
    return out


@dataclass(frozen=True)
class EulerCumsum:
    primes: np.ndarray
    cum_a: np.ndarray
    cum_b: np.ndarray
    delta: np.ndarray  # cum_b - cum_a

    @property
    def argmax_prime(self) -> int:
        return int(self.primes[int(np.argmax(np.abs(self.delta)))])

    @property
    def terminal(self) -> tuple[float, float, float]:
        return float(self.cum_a[-1]), float(self.cum_b[-1]), float(self.delta[-1])


def euler_cumsum(primes: np.ndarray, profile_a: np.ndarray,
                 profile_b: np.ndarray) -> EulerCumsum:
    """Running sums of mean(a_q)/q per group and their difference Delta(P).

    Both profiles are per-prime mean-a_p arrays aligned with `primes`.
    """
    p = primes.astype(np.float64)
    cum_a = np.cumsum(profile_a / p)
    cum_b = np.cumsum(profile_b / p)
    return EulerCumsum(primes, cum_a, cum_b, cum_b - cum_a)


def invariant_correlation(table: CurveTable, x: str, y: str,
                          log_x: bool = False, log_y: bool = False) -> float:
    """Pearson correlation between two per-curve invariants."""
    if len(table) < 3:
        raise ValueError("need at least 3 records")
    if x == "conductor":
        xv = table.conductors.astype(np.float64)
    else:
        xv = invariant_values(table, x)
    if y == "conductor":
        yv = table.conductors.astype(np.float64)
    else:
        yv = invariant_values(table, y)
    if log_x:
        xv = np.log(xv)
    if log_y:
        yv = np.log(yv)
    if xv.std() == 0 or yv.std() == 0:
        raise ValueError("correlation undefined for zero-variance invariant")
    return float(np.corrcoef(xv, yv)[0, 1])
