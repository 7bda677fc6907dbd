"""Diagnostics for murmuration modulations.

Per-prime moment profiles, Sato-Tate angle comparison, crossover detection
in difference profiles, reduction-type classification from bad-prime traces,
and the bad-prime share of a profile separation.  Curve groups are int
arrays of trace-matrix row positions.  scipy.stats is imported inside the
functions that call it, so steps that never call them do not pay for
loading it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .curves import CurveTable
from .stratify import rms_separation
from .traces import TraceMatrix
from .windows import MurmurationProfile


class ReductionDataError(ValueError):
    pass


@dataclass(frozen=True)
class MomentProfile:
    """Per-prime sample moments of a_p across a curve group."""

    primes: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    variance_over_p: np.ndarray
    skewness: np.ndarray          # bias-corrected; NaN when undefined
    excess_kurtosis: np.ndarray   # bias-corrected excess; NaN when undefined
    n_curves: int

    def summary(self) -> dict[str, float]:
        """Unweighted means over primes (NaN-aware for the shape moments)."""
        return {
            "mean": float(np.mean(self.mean)),
            "variance": float(np.mean(self.variance)),
            "variance_over_p": float(np.mean(self.variance_over_p)),
            "skewness": float(np.nanmean(self.skewness)),
            "excess_kurtosis": float(np.nanmean(self.excess_kurtosis)),
        }


def moment_profile(rows: Sequence[int], matrix: TraceMatrix) -> MomentProfile:
    """Mean, variance, variance/p, skewness, and excess kurtosis per prime.

    Shape moments use the bias-corrected sample estimators and are flagged
    NaN where undefined (fewer than 3 or 4 observations, or zero variance).
    """
    n = len(rows)
    if n < 4:
        raise ValueError(f"moment profile needs a group of >= 4 curves, got {n}")
    traces = matrix.traces[rows].astype(np.float64)
    p = matrix.primes.primes.astype(np.float64)
    mean = traces.mean(axis=0)
    var = traces.var(axis=0, ddof=1)
    from scipy import stats

    with np.errstate(invalid="ignore", divide="ignore"), warnings.catch_warnings():
        # degenerate columns are flagged NaN below; silence scipy's warning
        warnings.simplefilter("ignore", RuntimeWarning)
        skew = stats.skew(traces, axis=0, bias=False)
        kurt = stats.kurtosis(traces, axis=0, bias=False, fisher=True)
    degenerate = var == 0
    skew = np.where(degenerate, np.nan, skew)
    kurt = np.where(degenerate, np.nan, kurt)
    return MomentProfile(
        primes=matrix.primes.primes,
        mean=mean,
        variance=var,
        variance_over_p=var / p,
        skewness=skew,
        excess_kurtosis=kurt,
        n_curves=n,
    )


def variance_ratio_profile(group_a: Sequence[int], group_b: Sequence[int],
                           matrix: TraceMatrix) -> tuple[float, float]:
    """Mean and sd over primes of Var_a(a_p) / Var_b(a_p)."""
    prof_a = moment_profile(group_a, matrix)
    prof_b = moment_profile(group_b, matrix)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = prof_a.variance / prof_b.variance
    ratio = ratio[np.isfinite(ratio)]
    return float(ratio.mean()), float(ratio.std(ddof=1))


def sato_tate_cdf(theta) -> np.ndarray:
    """CDF of the Sato-Tate angle density (2/pi) sin^2(theta) on [0, pi]."""
    t = np.asarray(theta, dtype=np.float64)
    return (t - np.sin(t) * np.cos(t)) / math.pi


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float
    n_a: int
    n_b: int


def _angle_pool(rows: Sequence[int], matrix: TraceMatrix, p_min: float) -> np.ndarray:
    cols = matrix.primes.primes > p_min
    if not np.any(cols):
        raise ValueError(f"no primes above p_min = {p_min} in the prime list")
    traces = matrix.traces[rows][:, cols].astype(np.float64)
    good = ~matrix.bad_flags[rows][:, cols]
    p = matrix.primes.primes[cols].astype(np.float64)
    ratio = traces / (2.0 * np.sqrt(p))[None, :]
    theta = np.arccos(np.clip(ratio, -1.0, 1.0))
    pool = theta[good]
    if pool.size == 0:
        raise ValueError("empty Sato-Tate angle pool")
    if np.any(pool < 0) or np.any(pool > math.pi):
        raise AssertionError("Sato-Tate angles outside [0, pi]")
    return pool


def satotate_ks(group_a: Sequence[int], group_b: Sequence[int],
                matrix: TraceMatrix, p_min: float = 1000.0) -> KsResult:
    """Two-sample KS on pooled Sato-Tate angles arccos(a_p / 2 sqrt p).

    Pools run over good (curve, prime) pairs with p > p_min; the p-value is
    the asymptotic Kolmogorov distribution with the usual effective sample
    size.
    """
    pool_a = _angle_pool(group_a, matrix, p_min)
    pool_b = _angle_pool(group_b, matrix, p_min)
    from scipy import stats

    res = stats.ks_2samp(pool_a, pool_b, method="asymp")
    return KsResult(float(res.statistic), float(res.pvalue),
                    int(pool_a.size), int(pool_b.size))


@dataclass(frozen=True)
class CrossoverReport:
    crossing_prime: int | None
    direction: str | None  # "positive_to_negative" or "negative_to_positive"
    landmarks: dict[int, float]
    smoothed: np.ndarray
    primes: np.ndarray


def crossover_scan(diff_profile: MurmurationProfile, smooth_width: int = 11,
                   landmarks: Sequence[int] = (5, 37, 251, 1009)) -> CrossoverReport:
    """Stable sign change of a difference profile.

    The profile is smoothed with a centered moving average (width 11 primes
    by default, truncated at the ends); the crossing is the first prime from
    which the smoothed sign stays opposite to the initial sign.  Landmark
    entries report the raw difference at the requested primes.
    """
    values = np.asarray(diff_profile.mean_ap, dtype=np.float64)
    primes = diff_profile.primes
    if len(values) == 0:
        raise ValueError("empty difference profile")
    half = smooth_width // 2
    smoothed = np.empty_like(values)
    for i in range(len(values)):
        lo, hi = max(0, i - half), min(len(values), i + half + 1)
        smoothed[i] = values[lo:hi].mean()
    signs = np.sign(smoothed)
    nonzero = np.flatnonzero(signs)
    crossing = None
    direction = None
    if len(nonzero):
        initial = signs[nonzero[0]]
        opposite = np.flatnonzero(signs == -initial)
        for idx in opposite:
            if np.all(signs[idx:] == -initial):
                crossing = int(primes[idx])
                direction = ("positive_to_negative" if initial > 0
                             else "negative_to_positive")
                break
    landmark_values = {
        int(p): float(values[np.searchsorted(primes, p)])
        for p in landmarks
        if p in primes
    }
    return CrossoverReport(crossing, direction, landmark_values, smoothed, primes)


REDUCTION_TYPES = {0: "additive", 1: "split_mult", -1: "nonsplit_mult"}


@dataclass(frozen=True)
class ReductionReport:
    entries: tuple[tuple[str, int, str], ...]  # (label, prime, type)
    type_counts: dict[str, int]
    agreement_fraction: float
    n_classified_curves: int
    n_unclassifiable: int


def classify_reduction(matrix: TraceMatrix, table: CurveTable) -> ReductionReport:
    """Reduction type at every bad prime in the list, from the trace value.

    The matrix must be aligned with the table (`TraceMatrix.take`).  a_p = 0
    is additive, +1 split multiplicative, -1 non-split.  The agreement
    fraction compares the predicate "no multiplicative bad prime" against
    the Tamagawa condition prod c_p = 1, over curves with at least one bad
    prime inside the prime list.
    """
    if matrix.curve_labels != tuple(table.labels):
        raise ValueError("trace matrix is not aligned with the curve table")
    entries = []
    agree = 0
    classified = 0
    unclassifiable = 0
    counts = {name: 0 for name in REDUCTION_TYPES.values()}
    primes = matrix.primes.primes
    for i, label in enumerate(matrix.curve_labels):
        bad_cols = np.flatnonzero(matrix.bad_flags[i])
        if len(bad_cols) == 0:
            unclassifiable += 1
            continue
        any_multiplicative = False
        for j in bad_cols:
            a = int(matrix.traces[i, j])
            if a not in REDUCTION_TYPES:
                raise ReductionDataError(
                    f"{label}: bad-prime trace {a} at p={primes[j]} outside {{-1,0,1}}"
                )
            name = REDUCTION_TYPES[a]
            counts[name] += 1
            entries.append((label, int(primes[j]), name))
            if a != 0:
                any_multiplicative = True
        classified += 1
        predicted_trivial = not any_multiplicative
        actual_trivial = table.tamagawa_products[i] == 1
        if predicted_trivial == actual_trivial:
            agree += 1
    fraction = agree / classified if classified else float("nan")
    return ReductionReport(tuple(entries), counts, fraction, classified,
                           unclassifiable)


@dataclass(frozen=True)
class BadPrimeShare:
    full_rms: float
    masked_rms: float
    share_percent: float


def bad_prime_share(group_a: Sequence[int], group_b: Sequence[int],
                    matrix: TraceMatrix) -> BadPrimeShare:
    """Share of the squared RMS separation attributable to bad-prime entries.

    The masked RMS recomputes profiles with bad-prime trace entries zeroed;
    the share is 1 - masked^2 / full^2, as a percentage.
    """
    rows_a = matrix.traces[group_a].astype(np.float64)
    rows_b = matrix.traces[group_b].astype(np.float64)
    full = float(rms_separation([rows_a.mean(0), rows_b.mean(0)]))
    if full == 0:
        raise ZeroDivisionError("zero full RMS; share undefined")
    masked_a = np.where(matrix.bad_flags[group_a], 0.0, rows_a)
    masked_b = np.where(matrix.bad_flags[group_b], 0.0, rows_b)
    masked = float(rms_separation([masked_a.mean(0), masked_b.mean(0)]))
    share = 100.0 * (1.0 - masked**2 / full**2)
    return BadPrimeShare(full, masked, share)
