from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import signal

from murmurlab import windows
from murmurlab.windows import (
    WindowSeries,
    cross_correlation,
    murmuration_profile,
    residual_correlation,
    savgol_coeffs,
    savgol_detrend,
    sliding_window_series,
    welch_psd,
)

from conftest import make_synthetic_matrix, make_synthetic_table, records, table_of


def ones(n):
    """A count of one curve for each of n windows."""
    return np.ones(n, dtype=np.int64)


def series_from(values, start=0.0, step=1.0):
    centers = start + step * np.arange(len(values))
    return WindowSeries(centers, np.asarray(values, dtype=np.float64), ones(len(values)))


class TestSlidingWindows:
    def test_constant_invariant_gives_constant_series(self):
        table = make_synthetic_table(300, seed=1, sha_choices=(4.0,))
        series = sliding_window_series(table, "sha", rank=0, width=4000, step=1000)
        assert len(series) > 0
        assert np.allclose(series.values, 4.0)

    def test_window_membership_is_closed_interval(self):
        # curves at 20000 and 24000 are both endpoints of the center-22000 window
        half = make_synthetic_table(20, seed=2, conductor_range=(20_000, 20_001))
        other = make_synthetic_table(20, seed=5, conductor_range=(24_000, 24_001))
        table = table_of(records(half) + records(other))
        series = sliding_window_series(table, "sha", rank=0, width=4000, step=2000)
        idx = int(np.where(series.centers == 22_000)[0][0])
        assert series.counts[idx] == 40

    def test_empty_rank_gives_empty_series(self):
        table = make_synthetic_table(40, seed=3)
        series = sliding_window_series(table, "period", rank=3, width=2000, step=500)
        assert len(series) == 0

    def test_windows_without_curves_are_absent(self):
        # no rank-0 conductor lies in (20000, 40000): windows centered in
        # 22000..38000 hold no curve
        low = make_synthetic_table(60, seed=6, conductor_range=(11_000, 20_000))
        high = make_synthetic_table(60, seed=7, conductor_range=(40_000, 49_000))
        table = table_of(records(low) + records(high))
        series = sliding_window_series(table, "sha", rank=0, width=2000, step=1000)
        assert np.all(series.counts > 0)
        assert not np.any((series.centers >= 22_000) & (series.centers <= 38_000))
        assert series.centers.min() < 20_000 and series.centers.max() > 40_000
        for center, count in zip(series.centers, series.counts):
            assert count == np.sum(np.abs(table.conductors - center) <= 1000)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 0.0])
    @pytest.mark.parametrize("name", ["width", "step"])
    def test_width_or_step_not_finite_and_positive_is_refused(self, name, value):
        table = make_synthetic_table(10, seed=4)
        with pytest.raises(ValueError, match="must be finite and positive"):
            sliding_window_series(table, "sha", 0, **{"width": 4000.0, "step": 1000.0,
                                                      name: value})

    def test_unknown_invariant(self):
        table = make_synthetic_table(10, seed=4)
        with pytest.raises(KeyError):
            sliding_window_series(table, "mystery", rank=0, width=4000, step=1000)


class TestSavgolDetrend:
    def test_cubic_reproduced_exactly(self):
        x = np.linspace(0, 10, 301)
        cubic = 2.0 + 0.5 * x - 0.3 * x**2 + 0.01 * x**3
        res = savgol_detrend(series_from(cubic))
        scale = np.abs(cubic).max()
        assert np.max(np.abs(res.values)) < 1e-10 * scale

    def test_constant_input_zero_residuals(self):
        res = savgol_detrend(series_from(np.full(150, 7.0)))
        assert np.max(np.abs(res.values)) < 1e-12

    def test_interior_only(self):
        res = savgol_detrend(series_from(np.arange(201.0)))
        assert len(res) == 201 - 100
        assert res.centers[0] == 50.0

    def test_short_series_raises(self):
        with pytest.raises(ValueError, match="^series of length 50 shorter than 103: "):
            savgol_detrend(series_from(np.arange(50.0)))

    @pytest.mark.parametrize("n", [101, 102])
    def test_series_leaving_fewer_than_three_residuals_refused(self, n):
        # one or two residuals would give a Welch segment of one point (a zero
        # Hann sum) and a negative cross-correlation lag
        with pytest.raises(ValueError, match=f"^series of length {n} shorter than 103: "
                                             "filter window 101 leaves fewer than 3 residuals$"):
            savgol_detrend(series_from(np.random.default_rng(n).normal(size=n)))

    def test_three_residuals_is_the_fewest(self):
        res = savgol_detrend(series_from(np.random.default_rng(3).normal(size=103)))
        assert len(res) == 3 and list(res.centers) == [50.0, 51.0, 52.0]

    def test_uneven_windows_refused(self):
        # ten interior windows without curves: the rest are not evenly spaced
        series = series_from(np.random.default_rng(7).normal(size=300), start=5_500,
                             step=500)
        keep = np.ones(300, dtype=bool)
        keep[140:150] = False
        uneven = WindowSeries(series.centers[keep], series.values[keep],
                              series.counts[keep])
        with pytest.raises(ValueError, match="evenly spaced"):
            savgol_detrend(uneven)

    def test_non_integer_step_is_even(self):
        # centers step * k carry rounding, which is no unevenness
        res = savgol_detrend(series_from(np.arange(150.0), start=0.1, step=0.1))
        assert len(res) == 50

    @pytest.mark.parametrize("window, degree", [(101, 3), (5, 2), (11, 3), (51, 4),
                                                (201, 3), (7, 0)])
    def test_coeffs_match_scipy(self, window, degree):
        # the filter's window and degree are module constants, set here for one call
        with mock.patch.multiple(windows, SAVGOL_WINDOW=window, SAVGOL_DEGREE=degree):
            coeffs = savgol_coeffs()
        np.testing.assert_allclose(coeffs, signal.savgol_coeffs(window, degree),
                                   rtol=1e-12, atol=1e-15)

    def test_sine_residual_rms_matches_filter_response_oracle(self):
        # closed-form oracle: the residual of a sine at frequency f scales by
        # |1 - H(f)| with H the kernel's cosine transform
        period = 6.0
        x = np.arange(2400.0)
        sine = np.sin(2 * np.pi * x / period)
        cubic = 1e-3 * (x - 1200) ** 2
        res = savgol_detrend(series_from(cubic + sine))
        rms = np.sqrt(np.mean(res.values**2))
        k = np.arange(-50, 51)
        response = np.sum(signal.savgol_coeffs(101, 3) * np.cos(2 * np.pi * k / period))
        expected = abs(1.0 - response) * np.sqrt(0.5)
        assert rms == pytest.approx(expected, rel=1e-3)
        # short-period sines survive detrending nearly intact
        assert rms == pytest.approx(np.sqrt(0.5), rel=0.05)

    @settings(max_examples=20, deadline=None)
    @given(st.tuples(*[st.floats(-5, 5) for _ in range(4)]))
    def test_polynomials_up_to_degree3_detrend_to_zero(self, coeffs):
        x = np.linspace(-3, 3, 151)
        poly = sum(c * x**k for k, c in enumerate(coeffs))
        res = savgol_detrend(series_from(poly))
        scale = max(1.0, np.abs(poly).max())
        assert np.max(np.abs(res.values)) < 1e-9 * scale


class TestResidualCorrelation:
    def test_identical_series_correlate_at_one(self):
        rng = np.random.default_rng(0)
        res = series_from(rng.normal(size=50))
        assert residual_correlation(res, res) == pytest.approx(1.0)

    def test_alignment_on_common_centers(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=60)
        a = WindowSeries(np.arange(60.0), vals, ones(60))
        b = WindowSeries(np.arange(10.0, 70.0), np.concatenate([vals[10:], rng.normal(size=10)]),
                         ones(60))
        assert residual_correlation(a, b) == pytest.approx(1.0)

    def test_degenerate_input_raises(self):
        a = series_from(np.zeros(10))
        b = series_from(np.arange(10.0))
        with pytest.raises(ValueError, match="^correlation undefined: a series is constant$"):
            residual_correlation(a, b)

    def test_too_few_common_points(self):
        a = WindowSeries(np.array([0.0, 1.0, 2.0]), np.ones(3), ones(3))
        b = WindowSeries(np.array([10.0, 11.0]), np.ones(2), ones(2))
        with pytest.raises(ValueError, match="aligned"):
            residual_correlation(a, b)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 50), st.floats(-10, 10), st.floats(0.1, 50),
           st.floats(-10, 10))
    def test_affine_invariance(self, s1, o1, s2, o2):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=40)
        other = rng.normal(size=40)
        base = residual_correlation(series_from(vals), series_from(other))
        scaled = residual_correlation(
            series_from(s1 * vals + o1), series_from(s2 * other + o2)
        )
        assert scaled == pytest.approx(base, abs=1e-9)


class TestProfiles:
    def test_single_curve_profile_is_its_row(self):
        table = make_synthetic_table(5, seed=9)
        matrix = make_synthetic_matrix(table.labels, seed=9)
        prof = murmuration_profile([2], matrix)
        assert np.array_equal(prof, matrix.traces[2].astype(float))

    def test_union_is_weighted_mean(self):
        table = make_synthetic_table(30, seed=10)
        matrix = make_synthetic_matrix(table.labels, seed=10)
        a = list(range(10))
        b = list(range(10, 30))
        pa = murmuration_profile(a, matrix)
        pb = murmuration_profile(b, matrix)
        pu = murmuration_profile(a + b, matrix)
        weighted = (10 * pa + 20 * pb) / 30
        assert np.allclose(pu, weighted)

    def test_empty_subset_raises(self):
        table = make_synthetic_table(5, seed=11)
        matrix = make_synthetic_matrix(table.labels, seed=11)
        with pytest.raises(ValueError, match="empty"):
            murmuration_profile([], matrix)

    def test_hasse_bound_on_profile(self):
        table = make_synthetic_table(20, seed=12)
        matrix = make_synthetic_matrix(table.labels, seed=12)
        prof = murmuration_profile(table.rows, matrix)
        assert np.all(np.abs(prof) <= 2 * np.sqrt(matrix.primes.primes))


class TestWelch:
    def test_zero_input_zero_spectrum(self):
        freqs, power = welch_psd(np.zeros(512), segment=256)
        assert np.allclose(power, 0.0)

    def test_sinusoid_peaks_at_its_bin(self):
        n = 4096
        seg = 256
        f0 = 16 / seg
        x = np.sin(2 * np.pi * f0 * np.arange(n))
        freqs, power = welch_psd(x, segment=seg)
        assert freqs[np.argmax(power)] == pytest.approx(f0)

    def test_white_noise_flat_within_3db(self):
        rng = np.random.default_rng(42)
        seg = 256
        acc = None
        for _ in range(100):
            _, power = welch_psd(rng.normal(size=2048), segment=seg)
            acc = power if acc is None else acc + power
        acc /= 100
        interior = acc[1:-1]  # mean removal suppresses the DC bin
        spread_db = 10 * np.log10(interior.max() / interior.min())
        assert spread_db < 3.0

    # overlap and spacing are the reference's settings: welch_psd's segments
    # overlap by half, at unit sample spacing
    @pytest.mark.parametrize("n, segment, overlap, spacing", [
        (4096, 256, 0.5, 1.0), (300, 255, 0.5, 1.0), (256, 256, 0.5, 1.0)])
    def test_matches_scipy_welch(self, n, segment, overlap, spacing):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + np.sin(np.arange(n) / 7.0) + 3.0
        freqs, power = welch_psd(x, segment=segment)
        ref_freqs, ref_power = signal.welch(
            x, fs=1.0 / spacing, window="hann", nperseg=segment,
            noverlap=int(segment * overlap), detrend="constant")
        np.testing.assert_array_equal(freqs, ref_freqs)
        np.testing.assert_allclose(power, ref_power, rtol=1e-12,
                                   atol=1e-14 * ref_power.max())

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match=r"^series of length 100 shorter than one segment "
                                             r"\(256\)$"):
            welch_psd(np.ones(100), segment=256)


class TestCrossCorrelation:
    def test_identical_peak_at_zero(self):
        rng = np.random.default_rng(21)
        res = series_from(rng.normal(size=200))
        peak = cross_correlation(res, res, max_lag=10)
        assert peak["lag"] == 0
        assert peak["value"] == pytest.approx(1.0)

    def test_shifted_copy_peaks_at_shift(self):
        rng = np.random.default_rng(22)
        base = rng.normal(size=300)
        k = 7
        a = series_from(base[:-k])
        b = series_from(base[k:])  # b[t] = a[t+k] -> peak at lag +k... check sign
        peak = cross_correlation(a, b, max_lag=15)
        # b leads a by k steps: a[t] == b[t-k], so the peak sits at lag -k
        assert peak["lag"] == -k
        assert peak["value"] == pytest.approx(1.0)

    def test_mismatched_centers_rejected(self):
        a = series_from(np.arange(50.0))
        b = WindowSeries(np.arange(1.0, 51.0), np.arange(50.0), ones(50))
        with pytest.raises(ValueError, match="identical centers"):
            cross_correlation(a, b, 5)
