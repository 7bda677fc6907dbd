"""Sliding-window invariant averages and per-prime murmuration profiles.

Window series are means of a BSD invariant over rank-r curves in closed
conductor windows [N0 - W/2, N0 + W/2]; murmuration profiles are per-prime
means of a_p over a curve group, given as trace-matrix row positions.
Detrending uses a Savitzky-Golay local polynomial fit with residuals emitted
only where the filter window is fully interior.  All functions are pure over
immutable inputs.  scipy.signal is imported inside the two functions that
call it, so steps that never call them do not pay for loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curves import CurveTable, invariant_values
from .traces import TraceMatrix


class DegenerateSeriesError(ValueError):
    """Zero-variance input where a correlation is requested."""


class SeriesTooShortError(ValueError):
    pass


@dataclass(frozen=True)
class WindowSeries:
    """Per-window means of one invariant; gaps (count 0) are NaN values."""

    centers: np.ndarray
    values: np.ndarray
    counts: np.ndarray | None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.centers) != len(self.values):
            raise ValueError("centers/values length mismatch")
        if len(self.centers) > 1 and np.any(np.diff(self.centers) <= 0):
            raise ValueError("window centers must be strictly increasing")

    def __len__(self) -> int:
        return len(self.centers)

    def finite(self) -> "WindowSeries":
        """Copy restricted to windows that had at least one curve."""
        keep = np.isfinite(self.values)
        return replace(
            self,
            centers=self.centers[keep],
            values=self.values[keep],
            counts=None if self.counts is None else self.counts[keep],
        )


@dataclass(frozen=True)
class MurmurationProfile:
    """Per-prime mean of a_p over a curve set."""

    primes: np.ndarray
    mean_ap: np.ndarray
    n_curves: int

    def __post_init__(self):
        if len(self.primes) != len(self.mean_ap):
            raise ValueError("prime/mean length mismatch")
        if self.n_curves <= 0:
            raise ValueError("profile over an empty curve set")


def sliding_window_series(table: CurveTable, invariant: str, rank: int,
                          width: float = 5000.0, step: float = 500.0) -> WindowSeries:
    """Mean of an invariant over rank-r curves in sliding conductor windows.

    Centers run over multiples of the step covering the table's conductor
    range; window membership uses the closed interval on both ends.
    """
    if width <= 0 or step <= 0:
        raise ValueError("window width and step must be positive")
    values_all = invariant_values(table, invariant)
    mask = table.ranks == rank
    conductors = table.conductors[mask].astype(np.float64)
    vals = values_all[mask]
    if len(conductors) == 0:
        return WindowSeries(
            np.empty(0), np.empty(0), np.empty(0, dtype=np.int64),
            {"invariant": invariant, "rank": rank, "width": width, "step": step},
        )
    lo_center = step * math.ceil(float(table.conductors.min()) / step)
    hi_center = step * math.floor(float(table.conductors.max()) / step)
    centers = np.arange(lo_center, hi_center + step / 2, step)
    order = np.argsort(conductors)
    conductors = conductors[order]
    vals = vals[order]
    csum = np.concatenate([[0.0], np.cumsum(vals)])
    half = width / 2.0
    starts = np.searchsorted(conductors, centers - half, side="left")
    stops = np.searchsorted(conductors, centers + half, side="right")
    counts = (stops - starts).astype(np.int64)
    sums = csum[stops] - csum[starts]
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    return WindowSeries(
        centers, means, counts,
        {"invariant": invariant, "rank": rank, "width": width, "step": step},
    )


def savgol_detrend(series: WindowSeries, window: int = 101,
                   degree: int = 3) -> WindowSeries:
    """Residuals after a Savitzky-Golay local polynomial fit.

    Only positions where the filter window lies fully inside the series are
    emitted (no padded extrapolation at the edges).
    """
    if window % 2 != 1 or window < degree + 2:
        raise ValueError("filter window must be odd and exceed the degree")
    values = np.asarray(series.values, dtype=np.float64)
    if len(values) < window:
        raise SeriesTooShortError(
            f"series of length {len(values)} shorter than filter window {window}"
        )
    if not np.all(np.isfinite(values)):
        raise ValueError("detrending requires a gap-free series; use .finite() first")
    from scipy import signal

    coeffs = signal.savgol_coeffs(window, degree)
    smooth = np.convolve(values, coeffs, mode="valid")
    half = window // 2
    residual = values[half:-half] - smooth
    return WindowSeries(
        series.centers[half:-half],
        residual,
        None if series.counts is None else series.counts[half:-half],
        {**series.params, "detrend": {"window": window, "degree": degree}},
    )


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    if a.std() == 0 or b.std() == 0:
        raise DegenerateSeriesError("correlation undefined for zero-variance input")
    return float(np.corrcoef(a, b)[0, 1])


def residual_correlation(res_a: WindowSeries, res_b: WindowSeries) -> float:
    """Pearson correlation of two residual series over their common centers."""
    common, ia, ib = np.intersect1d(res_a.centers, res_b.centers,
                                    return_indices=True)
    if len(common) < 3:
        raise ValueError(f"only {len(common)} aligned points; need at least 3")
    return _pearson(res_a.values[ia], res_b.values[ib])


def murmuration_profile(rows, matrix: TraceMatrix) -> MurmurationProfile:
    """Per-prime mean of a_p over the given matrix rows (bad primes included)."""
    if not len(rows):
        raise ValueError("murmuration profile over an empty subset")
    return MurmurationProfile(
        primes=matrix.primes.primes,
        mean_ap=matrix.traces[rows].mean(axis=0, dtype=np.float64),
        n_curves=len(rows),
    )


def good_prime_profile(rows, matrix: TraceMatrix) -> MurmurationProfile:
    """Sensitivity variant: per-prime mean over good-reduction entries only."""
    if not len(rows):
        raise ValueError("murmuration profile over an empty subset")
    traces = matrix.traces[rows].astype(np.float64)
    good = ~matrix.bad_flags[rows]
    counts = good.sum(axis=0)
    with np.errstate(invalid="ignore"):
        means = np.where(counts > 0, (traces * good).sum(axis=0) / counts, np.nan)
    return MurmurationProfile(matrix.primes.primes, means, len(rows))


def welch_psd(values: np.ndarray, segment: int = 256, overlap: float = 0.5,
              sample_spacing: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Welch power spectrum: Hann window, mean removed per segment.

    Frequencies are cycles per unit of sample spacing.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) < segment:
        raise SeriesTooShortError(
            f"series of length {len(values)} shorter than one segment ({segment})"
        )
    from scipy import signal

    freqs, power = signal.welch(
        values,
        fs=1.0 / sample_spacing,
        window="hann",
        nperseg=segment,
        noverlap=int(segment * overlap),
        detrend="constant",
    )
    return freqs, power


def cross_correlation(res_a: WindowSeries, res_b: WindowSeries,
                      max_lag: int) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation of aligned series at lags -max_lag..+max_lag.

    Lag k correlates a[t] with b[t+k] over the overlapping support.
    """
    if len(res_a) != len(res_b) or not np.array_equal(res_a.centers, res_b.centers):
        raise ValueError("cross-correlation requires series on identical centers")
    a = np.asarray(res_a.values, dtype=np.float64)
    b = np.asarray(res_b.values, dtype=np.float64)
    if a.std() == 0 or b.std() == 0:
        raise DegenerateSeriesError("correlation undefined for zero-variance input")
    n = len(a)
    if max_lag >= n - 2:
        raise ValueError("max_lag leaves fewer than 3 overlapping points")
    lags = np.arange(-max_lag, max_lag + 1)
    corr = np.empty(len(lags))
    for i, k in enumerate(lags):
        if k >= 0:
            x, y = a[: n - k], b[k:]
        else:
            x, y = a[-k:], b[: n + k]
        corr[i] = _pearson(x, y)
    return lags, corr
