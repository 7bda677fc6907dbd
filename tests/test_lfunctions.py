import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from murmurlab import lfunctions
from murmurlab.lfunctions import (
    CoefficientShortfallError,
    DensityComparison,
    GammaConvergenceError,
    LSeries,
    ZeroSet,
    density_comparison,
    explicit_predict,
    hotelling_t2,
    hotelling_t2_from_samples,
    hotelling_to_f,
    l_value_series,
    lambda_critical,
    locate_zeros,
    one_level_density,
    read_zero_sets_csv,
    required_n_max,
    so_even_density,
    upper_incomplete_gamma,
    write_zero_sets_csv,
)

from conftest import record_of, twist_of_11a1
from oracles import afe_cut_residual, lambda_afe

mp.mp.dps = 30

#: Table-7-shaped group mean zeros (Sha = 1 vs Sha >= 4), used as fixed input
MEAN_GAMMAS_SHA1 = (0.606, 1.483, 2.306, 3.050, 3.732)
MEAN_GAMMAS_SHA4 = (0.627, 1.446, 2.253, 3.026, 3.722)


@pytest.fixture(scope="module")
def series_11a1(known_table_module):
    return LSeries.from_curve(record_of(known_table_module, "11a1"), t_max=9.0)


@pytest.fixture(scope="module")
def known_table_module(known_csv_path_module):
    from murmurlab.curves import parse_curve_table

    with open(known_csv_path_module, newline="") as fh:
        return parse_curve_table(fh).table


@pytest.fixture(scope="module")
def known_csv_path_module():
    from pathlib import Path

    return Path(__file__).parent / "data" / "curves_small.csv"


class TestIncompleteGamma:
    def test_against_mpmath_grid(self):
        worst = 0.0
        for t in (0.0, 0.3, 1.7, 4.2, 9.9, -6.1):
            s = complex(1.0, t)
            for x in (1e-4, 0.05, 0.6, 1.0, 2.5, 7.0, 12.0, 25.0, 44.0):
                got = complex(upper_incomplete_gamma(np.array([s]), np.array([x]))[0])
                ref = complex(mp.gammainc(mp.mpc(s.real, s.imag), a=x, b=mp.inf))
                worst = max(worst, abs(got - ref) / abs(ref))
        assert worst < 1e-10

    def test_at_s_equal_one_reduces_to_exp(self):
        x = np.array([0.3, 1.0, 5.0, 20.0])
        vals = upper_incomplete_gamma(np.full(4, 1.0 + 0j), x)
        assert np.allclose(vals, np.exp(-x), rtol=1e-13)

    def test_conjugation_symmetry(self):
        x = np.linspace(0.1, 30, 50)
        s = np.full(50, 1 + 2.4j)
        assert np.allclose(upper_incomplete_gamma(np.conj(s), x),
                           np.conj(upper_incomplete_gamma(s, x)), rtol=1e-12)

    def test_conjugation_symmetry_is_exact(self):
        # the one-sided bisection in locate_zeros relies on this holding bit for bit
        t = np.repeat(np.linspace(-10.0, 10.0, 41), 47)
        x = np.tile(np.linspace(0.0, 46.0, 47), 41)
        s = 1.0 + 1j * t
        assert np.array_equal(upper_incomplete_gamma(np.conj(s), x),
                              np.conj(upper_incomplete_gamma(s, x)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-10.0, 10.0), st.floats(0.0, 46.0)),
                    min_size=1, max_size=40))
    def test_batch_element_equals_single_call(self, pairs):
        # one series element (x < |s| + 1) and one continued-fraction element
        # ride along so every batch mixes both branches and convergence speeds
        pairs = [(0.5, 0.5), (0.5, 30.0), *pairs]
        s = np.array([1.0 + 1j * t for t, _ in pairs])
        x = np.array([xv for _, xv in pairs])
        batch = upper_incomplete_gamma(s, x)
        singles = np.array([upper_incomplete_gamma(s[i:i + 1], x[i:i + 1])[0]
                            for i in range(len(pairs))])
        assert np.array_equal(batch, singles)

    @pytest.mark.parametrize("x", [0.5, 30.0], ids=["series", "continued_fraction"])
    def test_non_convergence_raises(self, monkeypatch, x):
        monkeypatch.setattr(lfunctions, "_GAMMA_MAX_ITER", 1)
        with pytest.raises(GammaConvergenceError, match="did not converge"):
            upper_incomplete_gamma(np.array([1.0 + 2.0j, 1.0 - 0.3j]), np.full(2, x))


class TestCentralValue:
    def test_11a1_matches_ingested(self, series_11a1, known_table_module):
        ingested = record_of(known_table_module, "11a1").l_value
        assert l_value_series(series_11a1) == pytest.approx(ingested, rel=1e-5)

    def test_all_rank0_known_curves(self, known_table_module):
        for label in ("11a1", "11a2", "11a3"):
            rec = record_of(known_table_module, label)
            series = LSeries.from_curve(rec, t_max=0.0)
            assert l_value_series(series) == pytest.approx(rec.l_value, rel=1e-5)

    def test_odd_sign_refused(self, known_table_module):
        rec = record_of(known_table_module, "37a1")
        series = LSeries.from_curve(rec, t_max=0.0)
        with pytest.raises(ValueError, match="w = -1"):
            l_value_series(series)

    def test_truncation_stability(self, known_table_module):
        rec = record_of(known_table_module, "11a1")
        short = LSeries.from_curve(rec, n_max=60)
        long = LSeries.from_curve(rec, n_max=400)
        assert abs(l_value_series(short) - l_value_series(long)) < 1e-10

    def test_shortfall_names_requirement(self, known_table_module):
        rec = record_of(known_table_module, "11a1")
        series = LSeries(rec.label, rec.conductor, 1, np.array([0.0, 1.0, -2.0]))
        with pytest.raises(CoefficientShortfallError, match="n_max >= "):
            l_value_series(series)


class TestLambdaCritical:
    def test_t_zero_equals_completion_of_central_value(self, series_11a1):
        lam = lambda_critical(series_11a1, 0.0)
        expected = math.sqrt(11) / (2 * math.pi) * l_value_series(series_11a1)
        assert lam == pytest.approx(expected, rel=1e-10)
        assert lam == pytest.approx(0.1340, abs=2e-4)

    def test_even_in_t(self, series_11a1):
        for t in (0.5, 1.7, 3.9):
            assert lambda_critical(series_11a1, t) == pytest.approx(
                lambda_critical(series_11a1, -t), rel=1e-12
            )

    def test_one_sided_evaluation_is_bit_identical(self, series_11a1):
        # reference: both sums of the functional equation, the dual one with
        # its own incomplete gamma at 2 - s
        ts = np.linspace(0.0, 9.0, 37)
        n = np.arange(1, series_11a1.n_max + 1)
        x = 2.0 * math.pi * n / math.sqrt(series_11a1.conductor)
        keep = x <= lfunctions._X_CUT
        x, a = x[keep], series_11a1.coefficients[1:][keep]
        lx = np.log(x)[None, :]
        s = (1.0 + 1j * ts)[:, None]
        shape = (len(ts), len(x))
        first = (np.exp(-s * lx)
                 * upper_incomplete_gamma(np.broadcast_to(s, shape), x[None, :]))
        dual = (series_11a1.root_number * np.exp((s - 2.0) * lx)
                * upper_incomplete_gamma(np.broadcast_to(2.0 - s, shape), x[None, :]))
        two_sided = (a[None, :] * (first + dual)).sum(axis=1)
        assert np.array_equal(two_sided.imag, np.zeros(len(ts)))
        assert np.array_equal(lfunctions._lambda_batch(series_11a1, ts), two_sided.real)

    def test_budget_enforced(self, series_11a1):
        too_high = 25.0
        assert required_n_max(11, too_high) > series_11a1.n_max
        with pytest.raises(CoefficientShortfallError):
            lambda_critical(series_11a1, too_high)


class TestZeroFinder:
    def test_11a1_first_zero_matches_published(self, series_11a1):
        zeros = locate_zeros(series_11a1, k=2, t_max=9.0)
        assert zeros.complete
        assert abs(zeros.gammas[0] - 6.36261389) < 1e-3
        assert afe_cut_residual(series_11a1, zeros.gammas[0]) < 1e-12

    def test_zeros_strictly_increasing_and_bracketed(self, series_11a1):
        zeros = locate_zeros(series_11a1, k=2, t_max=9.0)
        assert np.all(np.diff(zeros.gammas) > 0)
        for g in zeros.gammas:
            lo, hi = g - 2e-6, g + 2e-6
            assert lambda_critical(series_11a1, lo) * lambda_critical(
                series_11a1, hi
            ) < 0

    def test_incomplete_flagged_below_low_ceiling(self, series_11a1):
        zeros = locate_zeros(series_11a1, k=5, t_max=7.0)
        assert not zeros.complete
        assert len(zeros.gammas) == 1

    def test_grid_refinement_only_adds_zeros(self, known_table_module):
        rec = record_of(known_table_module, "11a1")
        series = LSeries.from_curve(rec, t_max=12.0)
        coarse = locate_zeros(series, k=6, t_max=12.0, refinement=8)
        fine = locate_zeros(series, k=6, t_max=12.0, refinement=32)
        assert len(fine.gammas) >= len(coarse.gammas)
        for g in coarse.gammas:
            assert np.min(np.abs(fine.gammas - g)) < 2e-6

    def test_twist_timing_scale(self, known_table_module):
        import time

        from murmurlab.curves import CurveTable

        twist = twist_of_11a1(53)  # conductor 30899, root number +1
        series = LSeries.from_curve(twist)
        start = time.perf_counter()
        zeros = locate_zeros(series, k=5, t_max=10.0)
        elapsed = time.perf_counter() - start
        assert zeros.complete
        assert elapsed < 5.0

    def test_odd_sign_refused(self, known_table_module):
        rec = record_of(known_table_module, "37a1")
        series = LSeries.from_curve(rec, t_max=0.0)
        with pytest.raises(ValueError, match="w = \\+1"):
            locate_zeros(series)


@functools.lru_cache(maxsize=None)
def _twist_series(d):
    return LSeries.from_curve(twist_of_11a1(d), t_max=9.0 if d == 1 else 10.0)


#: (twist d, height t); mpmath at t > 0 takes over 10 s for the twists
FE_POINTS = [(1, 0.0), (1, 1.3), (53, 0.0), (89, 0.0)]


class TestFunctionalEquation:
    """Dokchitser's cut-off test on the independent mpmath oracle.

    Both sums of the functional equation, split at cut-off 1 and at 1.25,
    give the same Lambda only under the true root number.
    """

    @pytest.mark.parametrize("d,t", FE_POINTS)
    def test_cut_offs_agree_under_the_root_number(self, d, t):
        assert afe_cut_residual(_twist_series(d), t) < 1e-12

    @pytest.mark.parametrize("d,t", FE_POINTS)
    def test_cut_offs_disagree_under_the_flipped_root_number(self, d, t):
        series = _twist_series(d)
        assert afe_cut_residual(series, t, root_number=-series.root_number) > 1e-3

    @pytest.mark.parametrize("d,t", FE_POINTS)
    def test_lambda_critical_matches_the_oracle(self, d, t):
        series = _twist_series(d)
        value, scale = lambda_afe(series, t)
        assert abs(lambda_critical(series, t) - value) < 1e-12 * scale


#: zero ordinates (repr) recorded from the dense-loop zero finder; speed work
#: on the kernel or the search must reproduce them exactly
GOLDEN_ZEROS = {
    1: ("6.362613586575367", "8.60353961029275"),
    53: ("0.5154294206846719", "1.869542576985742", "2.562736821961356",
         "3.2916890441981232", "3.683809922598468"),
    89: ("0.31591318413955755", "1.3373972531818483", "1.9321490989781824",
         "2.3569176526768025", "2.9854733075757016"),
}


@pytest.mark.parametrize("d", sorted(GOLDEN_ZEROS))
def test_golden_zero_ordinates(d):
    """11a1 (d = 1) and its twists by 53 (N = 30,899) and 89 (N = 87,131)."""
    twist = twist_of_11a1(d)
    assert twist.root_number == 1
    zeros = locate_zeros(LSeries.from_curve(twist))
    assert tuple(repr(float(g)) for g in zeros.gammas) == GOLDEN_ZEROS[d]


def _toy_zero_sets(matrix, prefix):
    return [
        ZeroSet(f"{prefix}{i}", np.sort(row), 5, 10.0, True)
        for i, row in enumerate(matrix)
    ]


class TestHotelling:
    def test_table_conversion(self):
        f = hotelling_to_f(47.8, k=5, n1=1000, n2=1000)
        assert f == pytest.approx(47.8 * 1994 / 9990, rel=1e-12)
        assert f == pytest.approx(9.53, rel=2e-3)

    def test_identical_groups_zero(self):
        rng = np.random.default_rng(1)
        xa = rng.normal(size=(40, 5))
        res = hotelling_t2_from_samples(xa, xa.copy())
        assert res.t2 == pytest.approx(0.0, abs=1e-9)
        assert res.p_value == pytest.approx(1.0)

    def test_zero_set_interface(self):
        rng = np.random.default_rng(2)
        base = np.cumsum(rng.uniform(0.5, 1.0, size=(30, 5)), axis=1)
        other = np.cumsum(rng.uniform(0.5, 1.0, size=(30, 5)), axis=1)
        res = hotelling_t2(_toy_zero_sets(base, "a"), _toy_zero_sets(other, "b"))
        assert res.n_a == res.n_b == 30

    def test_null_rejection_rate_and_uniformity(self):
        rng = np.random.default_rng(3)
        n_sims = 10_000
        n, k = 30, 5
        draws = rng.normal(size=(n_sims, 2 * n, k))
        pvals = np.empty(n_sims)
        for i in range(n_sims):
            res = hotelling_t2_from_samples(draws[i, :n], draws[i, n:])
            pvals[i] = res.p_value
        rate = float(np.mean(pvals <= 0.05))
        assert abs(rate - 0.05) <= 0.01
        assert stats.kstest(pvals, "uniform").pvalue > 0.01

    def test_singular_covariance_rejected(self):
        xa = np.ones((10, 3))
        xa[:, 1] = xa[:, 0]
        xb = np.ones((10, 3)) * 2
        xb[:, 1] = xb[:, 0]
        with pytest.raises(ValueError, match="singular|exceed"):
            hotelling_t2_from_samples(xa, xb)

    def test_small_groups_rejected(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="k\\+1"):
            hotelling_t2_from_samples(rng.normal(size=(5, 5)),
                                      rng.normal(size=(40, 5)))


class TestOneLevelDensity:
    def test_so_even_limits(self):
        assert so_even_density(1e-12) == pytest.approx(2.0)
        assert so_even_density(0.5) == pytest.approx(1.0)

    def test_single_zero_set_mass_in_one_bin(self):
        z = ZeroSet("x", np.array([1.0]), 1, 10.0, True)
        n_conductor = int(np.exp(2 * np.pi))  # scaled ordinate exactly 1.0
        res = one_level_density([z], [n_conductor])
        assert res.density.sum() * 0.1 == pytest.approx(1.0)

    def test_so_even_sample_has_small_deviation(self):
        # zeros drawn close to the SO(even) one-level density beat a flat law
        rng = np.random.default_rng(5)
        n_curves = 400
        conductor = 30_000
        scale = math.log(conductor) / (2 * math.pi)
        xs = np.linspace(0.001, 4, 4000)
        w = so_even_density(xs)
        w /= w.sum()
        sets = []
        for i in range(n_curves):
            draws = np.sort(rng.choice(xs, size=5, replace=False, p=w)) / scale
            sets.append(ZeroSet(f"c{i}", draws, 5, 10.0, True))
        res = one_level_density(sets, [conductor] * n_curves)
        flat = ZeroSet("f", np.array([0.1, 0.2, 0.3, 0.4, 0.5]) / scale, 5, 10.0,
                       True)
        res_flat = one_level_density([flat] * n_curves, [conductor] * n_curves)
        assert res.deviation_so_even < res_flat.deviation_so_even

    def test_comparison_ks_fields(self):
        rng = np.random.default_rng(6)
        a = np.cumsum(rng.uniform(0.4, 0.9, size=(50, 5)), axis=1)
        b = np.cumsum(rng.uniform(0.4, 0.9, size=(50, 5)), axis=1)
        comp = density_comparison(_toy_zero_sets(a, "a"), [20_000] * 50,
                                  _toy_zero_sets(b, "b"), [20_000] * 50)
        assert isinstance(comp, DensityComparison)
        assert 0 <= comp.ks_all[0] <= 1
        assert 0 <= comp.ks_first[0] <= 1


class TestExplicitPredict:
    def test_identical_means_zero_prediction(self):
        primes = np.array([2, 3, 5, 7, 11])
        pred = explicit_predict(MEAN_GAMMAS_SHA1, MEAN_GAMMAS_SHA1, primes)
        assert np.allclose(pred.predicted_diff, 0.0)

    def test_table7_sign_pattern_at_landmarks(self):
        primes = np.array([5, 37, 251, 1009])
        pred = explicit_predict(MEAN_GAMMAS_SHA4, MEAN_GAMMAS_SHA1, primes)
        assert pred.predicted_diff[0] > 0
        assert pred.predicted_diff[1] > 0
        assert pred.predicted_diff[2] < 0
        assert pred.predicted_diff[3] < 0

    def test_raised_first_zero_flips_beyond_quarter_period(self):
        base = (0.6, 1.5, 2.3, 3.0, 3.7)
        raised = (0.72, 1.5, 2.3, 3.0, 3.7)
        primes = np.array([2, 3, 5, 7, 11, 13])
        pred = explicit_predict(np.array(raised), np.array(base), primes)
        # cos(gamma1 log p) decays faster for the raised zero: positive
        # difference at small p
        assert pred.predicted_diff[0] < 0 or pred.predicted_diff[0] != 0

    def test_correlation_against_observed(self):
        primes = np.array([2, 3, 5, 7, 11, 13, 17, 19])
        pred = explicit_predict(MEAN_GAMMAS_SHA4, MEAN_GAMMAS_SHA1, primes)
        echo = explicit_predict(MEAN_GAMMAS_SHA4, MEAN_GAMMAS_SHA1, primes,
                                observed_diff=pred.predicted_diff)
        assert echo.correlation == pytest.approx(1.0)
        assert echo.rms_observed == pytest.approx(echo.rms_predicted)

    def test_empty_primes_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            explicit_predict(MEAN_GAMMAS_SHA1, MEAN_GAMMAS_SHA4, np.array([]))


class TestZeroCsv:
    def test_round_trip(self, tmp_path):
        sets = [
            ZeroSet("11a1", np.array([6.362613, 8.603540]), 5, 12.0, False),
            ZeroSet("x1", np.array([0.5, 1.5, 2.5, 3.5, 4.5]), 5, 10.0, True),
        ]
        path = tmp_path / "zeros.csv"
        write_zero_sets_csv(path, sets)
        loaded = read_zero_sets_csv(path)
        assert [z.label for z in loaded] == ["11a1", "x1"]
        assert np.allclose(loaded[1].gammas, sets[1].gammas)
        assert loaded[0].complete is False
