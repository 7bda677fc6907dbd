"""Diagnostics for murmuration modulations.

Per-prime moment profiles, Sato-Tate angle comparison, crossover detection
in difference profiles, reduction-type classification from bad-prime traces,
and the bad-prime share of a profile separation.  Curve groups are int
arrays of trace-matrix row positions; a difference profile is a per-prime
array aligned with the matrix's prime list.

The two-sample Kolmogorov-Smirnov test shared with the zero statistics,
ks_2samp, takes its p-value from the finite-n two-sided Kolmogorov
distribution by the dispatch of Simard & L'Ecuyer (2011): the Ruben-Gambino
closed forms at the ends, twice the one-sided Smirnov tail where that is
exact or accurate, the Durbin matrix of Marsaglia, Tsang & Wang (2003) for
small n d, and the Pelz-Good expansion for large n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .stratify import rms_separation

if TYPE_CHECKING:
    from .traces import TraceMatrix


#: Sato-Tate angles are pooled over primes above this: a_p / 2 sqrt(p) is
#: near its limiting distribution only at large p
SATO_TATE_P_MIN = 1000.0
#: primes in the centered moving average of `crossover_scan`
CROSSOVER_SMOOTH_WIDTH = 11
#: primes at which `crossover_scan` reports the raw difference
CROSSOVER_LANDMARKS = (5, 37, 251, 1009)


@dataclass(frozen=True)
class MomentProfile:
    """Per-prime sample moments of a_p across a curve group."""

    primes: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    variance_over_p: np.ndarray
    skewness: np.ndarray          # bias-corrected; NaN when undefined
    excess_kurtosis: np.ndarray   # bias-corrected excess; NaN when undefined

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
    dev = traces - mean
    sq = dev**2
    m2, m3, m4 = sq.mean(axis=0), (sq * dev).mean(axis=0), (sq**2).mean(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        skew = ((n - 1.0) * n) ** 0.5 / (n - 2.0) * m3 / m2**1.5
        kurt = 1.0 / (n - 2) / (n - 3) * ((n**2 - 1.0) * m4 / m2**2 - 3 * (n - 1) ** 2.0)
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
    )


def _angle_pool(rows: Sequence[int], matrix: TraceMatrix) -> np.ndarray:
    cols = matrix.primes.primes > SATO_TATE_P_MIN
    if not np.any(cols):
        raise ValueError(f"no primes above p_min = {SATO_TATE_P_MIN} in the prime list")
    traces = matrix.traces[rows][:, cols].astype(np.float64)
    good = ~matrix.bad_flags[rows][:, cols]
    p = matrix.primes.primes[cols].astype(np.float64)
    ratio = traces / (2.0 * np.sqrt(p))[None, :]
    theta = np.arccos(np.clip(ratio, -1.0, 1.0))
    pool = theta[good]
    if pool.size == 0:
        raise ValueError("empty Sato-Tate angle pool")
    return pool


def satotate_ks(group_a: Sequence[int], group_b: Sequence[int],
                matrix: TraceMatrix) -> dict:
    """Two-sample KS on pooled Sato-Tate angles arccos(a_p / 2 sqrt p).

    Pools run over good (curve, prime) pairs with p > SATO_TATE_P_MIN; the
    report part holds D and the p-value of ks_2samp, and the pool sizes.
    """
    pool_a = _angle_pool(group_a, matrix)
    pool_b = _angle_pool(group_b, matrix)
    statistic, p_value = ks_2samp(pool_a, pool_b)
    return {"D": statistic, "p": p_value, "n_a": int(pool_a.size), "n_b": int(pool_b.size)}


def ks_2samp(sample_a, sample_b) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov statistic D and its p-value.

    D is the largest gap between the empirical CDFs, both evaluated on the
    pooled sample (right-continuous, so ties count on both sides).  The
    p-value is P(D_n > D) for the one-sample two-sided statistic at the
    effective size n = round(n_a n_b / (n_a + n_b)), from the finite-n
    distribution (kolmogorov_sf).
    """
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        raise ValueError("two-sample KS needs two nonempty samples")
    pooled = np.concatenate([a, b])
    gap = (np.searchsorted(a, pooled, side="right") / a.size
           - np.searchsorted(b, pooled, side="right") / b.size)
    d = float(max(gap.max(), min(-gap.min(), 1.0)))
    n = round(a.size * b.size / (a.size + b.size))
    return d, kolmogorov_sf(n, d)


_LOG_2PI = math.log(2.0 * math.pi)
#: Stirling series of log k! beyond its leading terms; exact below 15
_STIRLING_SERIES = (1.0 / 12, -1.0 / 360, 1.0 / 1260, -1.0 / 1680, 1.0 / 1188)
_STIRLING_SMALL = np.array(
    [0.0] + [math.lgamma(k + 1.0) - (k * math.log(k) - k + 0.5 * (_LOG_2PI + math.log(k)))
             for k in range(1, 15)])
#: terms of the one-sided Smirnov sum held in one array, so memory stays
#: bounded at any n
_SMIRNOV_BLOCK = 1 << 16


def _stirling_rest(k) -> np.ndarray:
    """log k! - (k log k - k + log(2 pi k) / 2), exact at integers below 15.

    From k = 15 on Stirling's series, five terms, is within 3e-16 and smooth
    in real k.
    """
    k = np.asarray(k, dtype=np.float64)
    inv_sq = 1.0 / k**2
    series = np.zeros_like(k)
    for c in reversed(_STIRLING_SERIES):
        series = series * inv_sq + c
    small = k < 15
    return np.where(small, _STIRLING_SMALL[np.where(small, k, 0).astype(np.int64)],
                    series / k)


def _smirnov_log_terms(n: int, a: float, j: np.ndarray) -> np.ndarray:
    """log of term j (1 <= j < n - a) of the one-sided sum of _smirnov_sf."""
    rest = n - j
    with np.errstate(divide="ignore"):  # the term vanishes as rest -> a
        return (j * np.log1p(a / j) + rest * np.log1p(-a / rest)
                + 0.5 * (np.log(n / (j * rest)) - _LOG_2PI)
                + _stirling_rest(n) - _stirling_rest(j) - _stirling_rest(rest)
                + np.log(a / (a + j)))


def _smirnov_sf(n: int, x: float) -> float:
    """One-sided P(D_n^+ >= x) for 0 < x < 1 by the Birnbaum-Tingey sum.

    P = sum_j C(n, j) x (x + j/n)^(j-1) (1 - x - j/n)^(n-j) over 0 <= j < n(1 - x).
    With a = n x and Stirling's form of the binomial, term j >= 1 is

        a / (a + j) exp(j log1p(a/j) + (n-j) log1p(-a/(n-j))
                        + log(n / (2 pi j (n-j))) / 2 + s(n) - s(j) - s(n-j)),

    s = _stirling_rest, so no log n! of size n log n is ever rounded.
    """
    a = n * x
    top = math.ceil(n - a)  # terms j = 1 .. top - 1
    total = math.exp(n * math.log1p(-x))
    for lo in range(1, top, _SMIRNOV_BLOCK):
        j = np.arange(lo, min(lo + _SMIRNOV_BLOCK, top), dtype=np.float64)
        total += float(np.exp(_smirnov_log_terms(n, a, j)).sum())
    return total


def _frexp_prod(values: np.ndarray) -> tuple[float, int]:
    """Product of positive values as (m, e), m * 2**e, without under- or overflow."""
    mant, exps = np.frexp(values)
    e = int(exps.sum())
    while mant.size > 1:
        # 512 mantissas in [0.5, 1) multiply to at least 2**-512
        mant = np.concatenate([mant, np.ones(-mant.size % 512)])
        mant, exps = np.frexp(np.prod(mant.reshape(-1, 512), axis=1))
        e += int(exps.sum())
    return float(mant[0]), e


def _durbin_cdf(n: int, x: float) -> float:
    """P(D_n <= x) from the k-th diagonal entry of H^n (Durbin's matrix).

    With n x = k - h, 0 <= h < 1, H is (2k-1) x (2k-1) (Marsaglia, Tsang &
    Wang 2003); the power is taken by squaring, rescaled by 2**128 when its
    entries grow, and times n!/n^n.
    """
    k = math.ceil(n * x)
    h = k - n * x
    m = 2 * k - 1
    fact = [1.0]  # 1/j! for j = 0..m
    for j in range(1, m + 1):
        fact.append(fact[-1] / j)
    fact = np.array(fact)
    v = (1.0 - h ** np.arange(1, m + 1)) * fact[1:]
    v[-1] = (1.0 + max(2 * h - 1.0, 0.0) ** m - 2 * h**m) * fact[m]
    H = np.zeros((m, m))
    for i in range(1, m):
        H[i - 1:, i] = fact[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = v[::-1]
    power, scale, h_scale = np.eye(m), 0, 0
    nn = n
    while nn:
        if nn % 2:
            power = power @ H
            scale += h_scale
        H = H @ H
        h_scale *= 2
        if abs(H[k - 1, k - 1]) > 2.0**128:
            H /= 2.0**128
            h_scale += 128
        nn //= 2
    mant, e = _frexp_prod(np.arange(1, n + 1) / n)
    return math.ldexp(power[k - 1, k - 1] * mant, scale + e)


def _pelz_good_cdf(n: int, x: float) -> float:
    """P(D_n <= x) from the Pelz-Good (1976) expansion to order n^(-3/2)."""
    z = math.sqrt(n) * x
    z2, z3, z4, z6 = z**2, z**3, z**4, z**6
    pi2, pi4, pi6 = math.pi**2, math.pi**4, math.pi**6
    qlog = -pi2 / 8 / z2
    if qlog < -708:
        return 0.0
    q = math.exp(qlog)
    k1a, k1b = -z2, pi2 / 4
    k2a, k2b, k2c = 6 * z6 + 2 * z4, (2 * z4 - 5 * z2) * pi2 / 4, pi4 * (1 - 2 * z2) / 16
    k3d = pi6 * (5 - 30 * z2) / 64
    k3c = pi4 * (-60 * z2 + 212 * z4) / 16
    k3b = pi2 * (135 * z4 - 96 * z6) / 4
    k3a = -30 * z6 - 90 * z**8
    terms = np.zeros(4)
    maxk = math.ceil(16 * z / math.pi)
    for k in range(maxk, 0, -1):  # Horner in q^(8k) over the odd m = 2k - 1
        m2 = (2 * k - 1) ** 2
        terms *= q ** (8 * k)
        terms += [1.0, k1a + k1b * m2, k2a + k2b * m2 + k2c * m2**2,
                  k3a + k3b * m2 + k3c * m2**2 + k3d * m2**3]
    root2pi = math.sqrt(2 * math.pi)
    terms *= q
    terms *= root2pi
    terms /= [z, 6 * z4, 72 * z**7, 6480 * z**10]
    q = math.exp(-pi2 / 2 / z2)
    ks = np.arange(maxk, 0, -1)
    ks2 = ks**2
    qk = q**ks2
    terms[2] += np.sum(ks2 * qk) * (pi2 * root2pi / (-36 * z3))
    root3z = math.sqrt(3) * z
    terms[3] += (np.sum((root3z + math.pi * ks) * (root3z - math.pi * ks) * ks2 * qk)
                 * (pi2 * root2pi / (216 * z6)))
    return float(sum(terms / float(n) ** (np.arange(4) / 2.0)))


def _log_factorial_over_power(n: int) -> float:
    """log(n! / n^n) by Stirling's series."""
    return 0.5 * math.log(n) - n + 0.5 * _LOG_2PI + float(_stirling_rest(n))


def kolmogorov_sf(n: int, x: float) -> float:
    """P(D_n > x) for the two-sided one-sample Kolmogorov statistic D_n.

    The branches are those of Simard & L'Ecuyer (2011), with the Durbin
    matrix in place of Pomeranz's recursion for n <= 140:
      - n x <= 1 and n x >= n - 1: Ruben-Gambino closed forms;
      - x >= 1/2, or n > 140 with n x^2 >= 2.2, or n <= 140 with
        n x^2 > 4: twice the one-sided Smirnov tail (exact for x >= 1/2);
      - n x^2 >= 370 and n > 140: 0 (below 1e-300);
      - otherwise 1 - CDF, the CDF from the Durbin matrix for n <= 140, or
        for n <= 100,000 with n x^1.5 <= 1.4, else from Pelz-Good.
    """
    if x >= 1.0:
        return 0.0
    t = n * x
    if t <= 0.5:
        return 1.0
    if t <= 1.0:
        if n <= 140:
            cdf = float(np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1)))
        else:
            cdf = math.exp(_log_factorial_over_power(n) + n * math.log(2 * t - 1))
        return min(max(1.0 - cdf, 0.0), 1.0)
    if t >= n - 1:
        return min(2 * (1.0 - x) ** n, 1.0)
    nx2 = t * x
    if x >= 0.5 or (n <= 140 and nx2 > 4) or (n > 140 and 2.2 <= nx2 < 370):
        return min(2 * _smirnov_sf(n, x), 1.0)
    if n > 140 and nx2 >= 370:
        return 0.0
    if n <= 140 or (n <= 100_000 and n * x**1.5 <= 1.4):
        cdf = _durbin_cdf(n, x)
    else:
        cdf = _pelz_good_cdf(n, x)
    return min(max(1.0 - cdf, 0.0), 1.0)


def crossover_scan(primes: np.ndarray, diff: np.ndarray) -> dict:
    """Stable sign change of a difference profile.

    `diff` is the per-prime difference of two murmuration profiles, aligned
    with `primes`.  It is smoothed with a centered moving average over
    CROSSOVER_SMOOTH_WIDTH primes, truncated at the ends; the crossing is
    the first prime from which the smoothed sign stays opposite to the
    initial sign, and the direction "positive_to_negative" or
    "negative_to_positive" (both None without a crossing).  Landmark entries,
    keyed by the prime's decimal text, report the raw difference at those of
    CROSSOVER_LANDMARKS in the prime list.
    """
    values = np.asarray(diff, dtype=np.float64)
    if len(values) == 0:
        raise ValueError("empty difference profile")
    half = CROSSOVER_SMOOTH_WIDTH // 2
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
        # one past the last sign that is not opposite: the opposite run's start
        start = np.flatnonzero(signs != -initial)[-1] + 1
        if start < len(signs):
            crossing = int(primes[start])
            direction = ("positive_to_negative" if initial > 0
                         else "negative_to_positive")
    landmarks = {str(p): float(values[np.searchsorted(primes, p)])
                 for p in CROSSOVER_LANDMARKS if p in primes}
    return {"crossing_prime": crossing, "direction": direction, "landmarks": landmarks}


REDUCTION_TYPES = {0: "additive", 1: "split_mult", -1: "nonsplit_mult"}


def classify_reduction(matrix: TraceMatrix) -> tuple[dict, tuple[tuple, ...]]:
    """Reduction type at every bad prime in the list, from the trace value.

    a_p = 0 is additive, +1 split multiplicative, -1 non-split.  Returns the
    report part, and the (label, prime, type) entries curve by curve.  The
    part counts each type and the curves with and without a bad prime inside
    the prime list; its Tamagawa agreement compares, over the former, the
    predicate "no multiplicative bad prime" against the Tamagawa condition
    prod c_p = 1 of the matrix's table.
    """
    labels, primes, bad = matrix.curve_labels, matrix.primes.primes, matrix.bad_flags
    rows, cols = np.nonzero(bad)  # row-major: curve by curve, primes ascending
    values = matrix.traces[rows, cols]
    wrong = np.flatnonzero((values < -1) | (values > 1))
    if wrong.size:
        k = wrong[0]
        raise ValueError(f"{labels[rows[k]]}: bad-prime trace {values[k]} "
                         f"at p={primes[cols[k]]} outside {{-1,0,1}}")
    names = [REDUCTION_TYPES[a] for a in values.tolist()]
    entries = tuple(zip([labels[i] for i in rows.tolist()], primes[cols].tolist(), names))
    counts = {name: names.count(name) for name in REDUCTION_TYPES.values()}
    has_bad = bad.any(axis=1)
    multiplicative = (bad & (matrix.traces != 0)).any(axis=1)
    classified = int(has_bad.sum())
    agree = int((has_bad & (multiplicative != (matrix.table.tamagawa_products == 1))).sum())
    part = {"type_counts": counts,
            "tamagawa_agreement": agree / classified if classified else float("nan"),
            "n_classified": classified, "n_unclassifiable": len(labels) - classified}
    return part, entries


def bad_prime_share(group_a: Sequence[int], group_b: Sequence[int],
                    matrix: TraceMatrix) -> dict:
    """Share of the squared RMS separation attributable to bad-prime entries.

    The masked RMS recomputes profiles with bad-prime trace entries zeroed;
    the share is 1 - masked^2 / full^2, as a percentage.
    """
    rows_a = matrix.traces[group_a].astype(np.float64)
    rows_b = matrix.traces[group_b].astype(np.float64)
    full = float(rms_separation([rows_a.mean(0), rows_b.mean(0)]))
    if full == 0:
        raise ValueError("zero full RMS; share undefined")
    masked_a = np.where(matrix.bad_flags[group_a], 0.0, rows_a)
    masked_b = np.where(matrix.bad_flags[group_b], 0.0, rows_b)
    masked = float(rms_separation([masked_a.mean(0), masked_b.mean(0)]))
    return {"full_rms": full, "masked_rms": masked,
            "share_percent": 100.0 * (1.0 - masked**2 / full**2)}
