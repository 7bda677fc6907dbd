"""Sliding-window invariant averages and per-prime murmuration profiles.

Window series are means of a BSD invariant over rank-r curves in closed
conductor windows [N0 - W/2, N0 + W/2]; a window that holds no curve is left
out.  A murmuration profile is a plain float64 array: the per-prime mean of
a_p over a curve group (trace-matrix row positions), aligned with the
matrix's prime list.
Detrending needs evenly spaced windows and uses a Savitzky-Golay local
polynomial fit with residuals emitted only where the filter window is fully
interior.  All functions are pure over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .curves import invariant_values

if TYPE_CHECKING:
    from .curves import CurveTable
    from .traces import TraceMatrix


#: points and polynomial degree of the Savitzky-Golay fit that `savgol_detrend` removes
SAVGOL_WINDOW = 101
SAVGOL_DEGREE = 3


@dataclass(frozen=True)
class WindowSeries:
    """Per-window means of one invariant and the curve count of each window.

    Aligned arrays, centers strictly increasing, as `sliding_window_series`
    builds them.
    """

    centers: np.ndarray
    values: np.ndarray
    counts: np.ndarray

    def __len__(self) -> int:
        return len(self.centers)


def sliding_window_series(table: CurveTable, invariant: str, rank: int,
                          width: float, step: float) -> WindowSeries:
    """Mean of an invariant over rank-r curves in sliding conductor windows.

    Centers run over multiples of the step covering the table's conductor
    range; window membership uses the closed interval on both ends.  Only
    the windows that hold at least one curve are in the series.
    """
    if not (0 < width < math.inf and 0 < step < math.inf):
        raise ValueError(f"window width {width} and step {step} must be finite and positive")
    values_all = invariant_values(table, invariant)
    mask = table.ranks == rank
    conductors = table.conductors[mask].astype(np.float64)
    vals = values_all[mask]
    if len(conductors) == 0:
        return WindowSeries(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))
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
    keep = counts > 0
    return WindowSeries(centers[keep], sums[keep] / counts[keep], counts[keep])


def savgol_detrend(series: WindowSeries) -> WindowSeries:
    """Residuals after a Savitzky-Golay local polynomial fit.

    The fit has degree SAVGOL_DEGREE over SAVGOL_WINDOW points, an odd count
    above the degree, and treats the points as evenly spaced: a series whose
    centers are not (a window without curves left out of its interior) is
    refused.  Only positions where the filter window lies fully inside the
    series are emitted (no padded extrapolation at the edges), and a series
    that would leave fewer than 3 of them, too few for a correlation, is
    refused.
    """
    values = np.asarray(series.values, dtype=np.float64)
    if len(values) < SAVGOL_WINDOW + 2:
        raise ValueError(f"series of length {len(values)} shorter than {SAVGOL_WINDOW + 2}: "
                         f"filter window {SAVGOL_WINDOW} leaves fewer than 3 residuals")
    gaps = np.diff(series.centers)
    if np.ptp(gaps) > 1e-9 * gaps[0]:
        raise ValueError(f"detrending needs evenly spaced windows; the gaps between "
                         f"centers run from {gaps.min():g} to {gaps.max():g}")
    smooth = np.convolve(values, savgol_coeffs(), mode="valid")
    half = SAVGOL_WINDOW // 2
    return WindowSeries(series.centers[half:-half], values[half:-half] - smooth,
                        series.counts[half:-half])


def savgol_coeffs() -> np.ndarray:
    """Convolution weights of the Savitzky-Golay filter at the window center.

    The minimum-norm solution c of V c = e_0, V[i, k] = k^i over the offsets
    k = half..-half of SAVGOL_WINDOW points (reversed, so that np.convolve
    applies them): c . y is the value at offset 0 of the least-squares
    polynomial of degree SAVGOL_DEGREE through y.
    """
    half, degree = SAVGOL_WINDOW // 2, SAVGOL_DEGREE
    offsets = np.arange(half, -half - 1, -1, dtype=np.float64)
    vander = offsets ** np.arange(degree + 1, dtype=np.float64)[:, None]
    unit = np.zeros(degree + 1)
    unit[0] = 1.0
    return np.linalg.lstsq(vander, unit, rcond=None)[0]


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two equal-length arrays, neither of them constant."""
    if a.std() == 0 or b.std() == 0:
        raise ValueError("correlation undefined: a series is constant")
    return float(np.corrcoef(a, b)[0, 1])


def residual_correlation(res_a: WindowSeries, res_b: WindowSeries) -> float:
    """Pearson correlation of two residual series over their common centers."""
    common, ia, ib = np.intersect1d(res_a.centers, res_b.centers,
                                    return_indices=True)
    if len(common) < 3:
        raise ValueError(f"only {len(common)} aligned points; need at least 3")
    return pearson(res_a.values[ia], res_b.values[ib])


def murmuration_profile(rows, matrix: TraceMatrix) -> np.ndarray:
    """Per-prime mean of a_p over the given nonempty matrix rows (bad primes included).

    The float64 array is aligned with `matrix.primes.primes`.
    """
    return matrix.traces[rows].mean(axis=0, dtype=np.float64)


def welch_psd(values: np.ndarray, segment: int) -> tuple[np.ndarray, np.ndarray]:
    """Welch power spectral density: the mean periodogram of Hann-windowed segments.

    The series holds at least one segment.  Segments of `segment` samples
    overlap by half: they start every segment - segment // 2 samples.  Each
    has its mean removed and is
    multiplied by the periodic Hann window 0.5 - 0.5 cos(2 pi k / segment).
    Power is scaled to a density, |FFT|^2 / sum w^2 at unit sample spacing,
    and doubled at every frequency but 0 and Nyquist for the one-sided
    spectrum.  Frequencies are cycles per sample.
    """
    values = np.asarray(values, dtype=np.float64)
    step = segment - segment // 2
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(segment) / segment)
    segments = np.lib.stride_tricks.sliding_window_view(values, segment)[::step]
    segments = segments - segments.mean(axis=1, keepdims=True)
    power = np.abs(np.fft.rfft(hann * segments, axis=1)) ** 2
    power *= 1.0 / np.sum(hann**2)
    power[:, 1:(segment + 1) // 2] *= 2.0
    return np.fft.rfftfreq(segment), power.mean(axis=0)


def cross_correlation(res_a: WindowSeries, res_b: WindowSeries, max_lag: int) -> dict:
    """The peak of the Pearson correlation of aligned series over lags -max_lag..+max_lag.

    Lag k correlates a[t] with b[t+k] over the overlapping support, which
    max_lag leaves at least 3 points long.  The report part is {"lag",
    "value"} of the largest correlation, the most negative lag among equals;
    a lag whose overlap has zero variance is refused, as a constant series
    has no correlation.
    """
    if len(res_a) != len(res_b) or not np.array_equal(res_a.centers, res_b.centers):
        raise ValueError("cross-correlation requires series on identical centers")
    a = np.asarray(res_a.values, dtype=np.float64)
    b = np.asarray(res_b.values, dtype=np.float64)
    n = len(a)
    lags = np.arange(-max_lag, max_lag + 1)
    corr = np.empty(len(lags))
    for i, k in enumerate(lags):
        if k >= 0:
            x, y = a[: n - k], b[k:]
        else:
            x, y = a[-k:], b[: n + k]
        corr[i] = pearson(x, y)
    peak = int(np.argmax(corr))
    return {"lag": int(lags[peak]), "value": float(corr[peak])}
