"""Confounder controls for murmuration modulations.

Covers restriction to a fixed number of conductor prime factors, greedy
nearest-neighbor matching on a one-dimensional key, L-value band
restriction, the combined L-value/period/conductor control, per-group BSD
ratio validation, and cumulative Euler-sum decompositions.  A control only
builds and measures groups: `control_omega` and `triple_control` return
groupings, dicts of group name -> rows, and the `confound` command tests
them all in one `stratify.permutation_test` call.  `match_nn` returns its
matches as (row a, row b, distance) tuples, and `matched_rms` the report
part of a set of them.  Curve groups are int arrays of aligned row positions
(see `curves.CurveTable`); a table passed alongside a group is the aligned
table those positions index.
Murmuration profiles are per-prime mean-a_p arrays aligned with a prime
list (see `windows.murmuration_profile`).
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from .curves import invariant_values
from .primes import omega
from .stratify import SHA_RULE, median, partition, rms_separation
from .windows import pearson

if TYPE_CHECKING:
    from .curves import CurveTable
    from .traces import TraceMatrix


def match_nn(table: CurveTable, group_a: Sequence[int], group_b: Sequence[int],
             key: str, max_distance: float) -> tuple[tuple[int, int, float], ...]:
    """Greedy nearest-neighbor matching of A-curves to distinct B-curves.

    A-curves are processed in ascending key order (ties by label); each takes
    the nearest still-unused B-curve, and the pair is dropped when the key
    distance exceeds max_distance.  Returns the matches as (row a, row b,
    distance) in that order.
    """
    if not len(group_a) or not len(group_b):
        raise ValueError("matching requires two nonempty groups")
    values = {"conductor": table.conductors.astype(np.float64),
              "l_value": table.l_values}[key]
    a_vals, b_vals = values[group_a], values[group_b]
    labels = table.labels
    a_order = sorted(range(len(group_a)), key=lambda i: (a_vals[i], labels[group_a[i]]))
    b_order = sorted(range(len(group_b)), key=lambda i: (b_vals[i], labels[group_b[i]]))
    b_sorted = [b_vals[i] for i in b_order]
    b_rows = [int(group_b[i]) for i in b_order]
    b_labels = [labels[r] for r in b_rows]
    m = len(b_sorted)
    # two union-find arrays over sorted B positions: right[j] leads to the
    # first unused position >= j (m if none), left[j] to one past the last
    # unused position < j (0 if none)
    right = list(range(m + 1))
    left = list(range(m + 1))

    def find(parent: list[int], j: int) -> int:
        while parent[j] != j:
            parent[j] = parent[parent[j]]  # path halving
            j = parent[j]
        return j

    pairs = []
    for ai in a_order:
        if len(pairs) == m:
            break
        target = a_vals[ai]
        pos = bisect.bisect_left(b_sorted, target)
        lo, hi = find(left, pos) - 1, find(right, pos)
        bj = hi if lo < 0 else lo
        # the closer candidate, a tie in distance to the smaller label
        if lo >= 0 and hi < m and ((abs(b_sorted[hi] - target), b_labels[hi])
                                   < (abs(b_sorted[lo] - target), b_labels[lo])):
            bj = hi
        dist = abs(b_sorted[bj] - target)
        if dist > max_distance:
            continue
        pairs.append((int(group_a[ai]), b_rows[bj], float(dist)))
        right[bj] = bj + 1
        left[bj + 1] = bj
    return tuple(pairs)


def matched_rms(pairs: Sequence[tuple[int, int, float]], matrix: TraceMatrix) -> dict:
    """The count and mean distance of the matches, and the RMS separation of
    the two matched sub-profiles.

    rms_group compares the two matched-group mean profiles; rms_per_pair
    averages squared per-pair differences over pairs and primes.
    """
    if not pairs:
        raise ValueError("no matched pairs")
    rows = np.array([(a, b) for a, b, _ in pairs], dtype=np.int64)
    rows_a, rows_b = matrix.traces[rows.T].astype(np.float64)
    return {"n_pairs": len(pairs), "mean_distance": float(np.mean([d for _, _, d in pairs])),
            "rms_group": float(rms_separation([rows_a.mean(0), rows_b.mean(0)])),
            "rms_per_pair": float(rms_separation([rows_a.ravel(), rows_b.ravel()]))}


def control_omega(table: CurveTable, groups: Mapping[str, np.ndarray],
                  k: int) -> dict[str, np.ndarray]:
    """The groups restricted to conductors with omega(N) = k."""
    restricted = {}
    for name, members in groups.items():
        keep = members[[omega(int(n)) == k for n in table.conductors[members]]]
        if not len(keep):
            raise ValueError(f"group {name!r} empty after omega(N) = {k} restriction")
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


def triple_control(banded: CurveTable) -> dict[str, dict[str, np.ndarray]]:
    """Sha groupings with L-value band, conductor range, and period held fixed.

    banded holds the rank-0 curves of one conductor range inside one L-value
    band (`lvalue_band`).  They are split at the median real period, and the
    groups of each half, "small_period" and "large_period", are SHA_RULE's
    partition of it.
    """
    if len(banded) == 0:
        raise ValueError("no curves inside the band and conductor range")
    small = banded.real_periods <= median(banded.real_periods)
    halves = {}
    for name, mask in (("small_period", small), ("large_period", ~small)):
        try:
            halves[name] = partition(banded.subset(np.flatnonzero(mask)), SHA_RULE)
        except ValueError as exc:  # an empty group
            raise ValueError(f"{name}: {exc}") from None
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
            raise ValueError(f"group {name!r} has zero mean L-value")
        out[name] = float(np.mean(bsd_ratios[rows])) / mean_l
    return out


def euler_cumsum(primes: np.ndarray, profile_a: np.ndarray,
                 profile_b: np.ndarray) -> tuple[dict, np.ndarray]:
    """Running sums of mean(a_q)/q per group and their difference Delta(P).

    Both profiles are per-prime mean-a_p arrays aligned with `primes`.
    Returns the report part, which holds the prime of largest |Delta| and
    the last value of both sums and of Delta, and Delta at every prime.
    """
    p = primes.astype(np.float64)
    cum_a = np.cumsum(profile_a / p)
    cum_b = np.cumsum(profile_b / p)
    delta = cum_b - cum_a
    part = {"argmax_prime": int(primes[int(np.argmax(np.abs(delta)))]),
            "terminal": [float(cum_a[-1]), float(cum_b[-1]), float(delta[-1])]}
    return part, delta


def invariant_correlation(table: CurveTable) -> float:
    """Pearson correlation of real period with log conductor."""
    if len(table) < 3:
        raise ValueError("need at least 3 records")
    return pearson(invariant_values(table, "period"),
                   np.log(table.conductors.astype(np.float64)))
