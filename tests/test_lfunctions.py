import dataclasses
import functools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from murmurlab import lfunctions
from murmurlab.lfunctions import (
    FE_TOL,
    ZERO_TOL,
    LSeries,
    ZeroSet,
    density_comparison,
    explicit_predict,
    f_sf,
    fe_residual,
    hotelling_t2,
    hotelling_to_f,
    locate_zeros,
    one_level_density,
    read_zero_sets_csv,
    required_n_max,
    so_even_density,
    write_zero_sets_csv,
)

from murmurlab.traces import default_prime_list

from conftest import (lambda_critical, locate_zeros_with, record_of,
                      series_with_budget, twist_of_11a1)
from oracles import afe_cut_residual, lambda_afe

mp.mp.dps = 30

#: Table-7-shaped group mean zeros (Sha = 1 vs Sha >= 4), used as fixed input
MEAN_GAMMAS_SHA1 = (0.606, 1.483, 2.306, 3.050, 3.732)
MEAN_GAMMAS_SHA4 = (0.627, 1.446, 2.253, 3.026, 3.722)


@pytest.fixture(scope="module")
def series_11a1(known_table_module):
    return LSeries.from_curve(record_of(known_table_module, "11a1"))


@pytest.fixture(scope="module")
def known_table_module(known_csv_path_module):
    from murmurlab.curves import parse_curve_table

    with open(known_csv_path_module, newline="") as fh:
        return parse_curve_table(fh).table


@pytest.fixture(scope="module")
def known_csv_path_module():
    from pathlib import Path

    return Path(__file__).parent / "data" / "curves_small.csv"


class TestFromCurves:
    def test_batch_equals_one_curve_at_a_time(self, known_table_module):
        # five conductors, five n_max; in the batch the twists share one class
        # per prime with 11a1, one curve at a time each sums alone
        records = [record_of(known_table_module, label) for label in ("11a1", "37a1")]
        records += [twist_of_11a1(d) for d in (53, -23, 37)]
        batch = list(LSeries.from_curves(records))
        assert len({series.n_max for series in batch}) == len(records)
        for rec, series in zip(records, batch):
            single = LSeries.from_curve(rec)
            assert (series.label, series.conductor, series.root_number, series.n_max) \
                == (single.label, single.conductor, single.root_number, single.n_max)
            assert np.array_equal(series.coefficients, single.coefficients)

    def test_no_records_no_series(self):
        assert list(LSeries.from_curves([])) == []


def central_value(series):
    """L(1) = 2 pi / sqrt(N) Lambda(1), from the quadrature the zero search runs."""
    return 2 * math.pi / math.sqrt(series.conductor) * lambda_critical(series, 0.0)


class TestCentralValue:
    def test_11a1_matches_ingested(self, series_11a1, known_table_module):
        ingested = record_of(known_table_module, "11a1").l_value
        assert central_value(series_11a1) == pytest.approx(ingested, rel=1e-5)

    def test_all_rank0_known_curves(self, known_table_module):
        for label in ("11a1", "11a2", "11a3"):
            rec = record_of(known_table_module, label)
            series = LSeries.from_curve(rec)
            assert central_value(series) == pytest.approx(rec.l_value, rel=1e-5)

    def test_odd_sign_refused(self, known_table_module):
        rec = record_of(known_table_module, "37a1")
        series = LSeries.from_curve(rec)
        with pytest.raises(ValueError, match="requires w = \\+1"):
            central_value(series)

    def test_truncation_stability(self, known_table_module):
        rec = record_of(known_table_module, "11a1")
        short = series_with_budget(rec, 60)
        long = series_with_budget(rec, 400)
        assert abs(central_value(short) - central_value(long)) < 1e-10

    def test_shortfall_names_requirement(self, known_table_module):
        rec = record_of(known_table_module, "11a1")
        series = LSeries(rec.label, rec.conductor, 1, np.array([0.0, 1.0, -2.0]))
        with pytest.raises(ValueError, match="^11a1: needs n_max >= 27, series has 2$"):
            central_value(series)


class TestLambdaCritical:
    def test_t_zero_equals_completion_of_central_value(self, series_11a1):
        lam = lambda_critical(series_11a1, 0.0)
        assert lam == pytest.approx(lambda_afe(series_11a1, 0.0)[0].real, rel=1e-10)
        assert lam == pytest.approx(0.1340, abs=2e-4)

    def test_even_in_t(self, series_11a1):
        for t in (0.5, 1.7, 3.9):
            assert lambda_critical(series_11a1, t) == pytest.approx(
                lambda_critical(series_11a1, -t), rel=1e-12
            )

    def test_budget_enforced(self, known_table_module):
        # the budget does not depend on the height: the full series evaluates
        # high on the line, one coefficient fewer is refused at any height
        rec = record_of(known_table_module, "11a1")
        full = LSeries.from_curve(rec)
        assert full.n_max == required_n_max(11) == math.ceil(8 * math.sqrt(11))
        assert math.isfinite(lambda_critical(full, 25.0))
        short = series_with_budget(rec, required_n_max(11) - 1)
        for evaluate in (lambda s: lambda_critical(s, 0.0), locate_zeros, fe_residual):
            with pytest.raises(ValueError, match="needs n_max >= 27"):
                evaluate(short)

    def test_budget_covers_every_summed_term(self):
        for conductor in (11, 30_899, 292_259):
            x_past = 2 * math.pi * (required_n_max(conductor) + 1) / math.sqrt(conductor)
            assert x_past > lfunctions._X_CUT


class TestZeroFinder:
    def test_11a1_first_zero_matches_published(self, series_11a1):
        zeros = locate_zeros_with(series_11a1, k=2, t_max=9.0)
        assert zeros.complete
        assert abs(zeros.gammas[0] - 6.36261389) < 1e-3
        assert afe_cut_residual(series_11a1, zeros.gammas[0]) < 1e-12

    def test_zeros_strictly_increasing_and_bracketed(self, series_11a1):
        zeros = locate_zeros_with(series_11a1, k=2, t_max=9.0)
        assert np.all(np.diff(zeros.gammas) > 0)
        for g in zeros.gammas:
            lo, hi = g - 2e-6, g + 2e-6
            assert lambda_critical(series_11a1, lo) * lambda_critical(
                series_11a1, hi
            ) < 0

    def test_incomplete_flagged_below_low_ceiling(self, series_11a1):
        zeros = locate_zeros_with(series_11a1, k=5, t_max=7.0)
        assert not zeros.complete
        assert len(zeros.gammas) == 1

    def test_grid_refinement_only_adds_zeros(self, known_table_module):
        rec = record_of(known_table_module, "11a1")
        series = LSeries.from_curve(rec)
        coarse = locate_zeros_with(series, k=6, t_max=12.0, refinement=8)
        fine = locate_zeros_with(series, k=6, t_max=12.0, refinement=32)
        assert len(fine.gammas) >= len(coarse.gammas)
        for g in coarse.gammas:
            assert np.min(np.abs(fine.gammas - g)) < 2e-6

    def test_twist_timing_scale(self, known_table_module):
        import time

        twist = twist_of_11a1(53)  # conductor 30899, root number +1
        series = LSeries.from_curve(twist)
        start = time.perf_counter()
        zeros = locate_zeros_with(series, k=5, t_max=10.0)
        elapsed = time.perf_counter() - start
        assert zeros.complete
        assert elapsed < 5.0

    @pytest.mark.parametrize("d", [-47, 265])
    def test_central_zero_of_a_rank_two_twist(self, d):
        # w = +1 and L(E_d, 1) = 0: a double zero at t = 0, which is neither
        # an ordinate nor able to open a bracket by rounding (at d = 265 the
        # sign of Lambda(1) once made a zero at t = 3e-7)
        series = _twist_series(d)
        zeros = locate_zeros(series)
        assert zeros.central_order == 2 and zeros.complete
        first_step = 2.0 * math.pi / (math.log(series.conductor) + 6.0) / 8
        assert zeros.gammas[0] > first_step
        assert locate_zeros(_twist_series(53)).central_order == 0

    def test_central_zero_of_higher_order(self, monkeypatch):
        # with a tolerance above every value both Lambda(1) and Lambda''(0)
        # count as zero, so the order reads "4 or more"
        monkeypatch.setattr(lfunctions, "QUAD_TOL", 10.0)
        assert locate_zeros_with(_twist_series(53), k=1).central_order == 4


@functools.lru_cache(maxsize=None)
def _twist_series(d):
    return LSeries.from_curve(twist_of_11a1(d))


#: (twist d, height t); mpmath at t > 0 takes over 10 s for the twists
FE_POINTS = [(1, 0.0), (1, 1.3), (1, 5.0), (1, 9.0), (53, 0.0), (89, 0.0)]


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


def _search_grid(series, t_max):
    """The scan grid of locate_zeros at the default refinement, and its step."""
    step = 2.0 * math.pi / (math.log(series.conductor) + 6.0) / 8
    grid = np.arange(0.0, t_max + step, step)
    return step, grid[grid <= t_max]


def _max_halvings(step):
    return math.ceil(math.log2(step / ZERO_TOL)) + 1


def _bisect_alone(f, lo, hi):
    """One bracket bisected on its own, midpoint by midpoint."""
    f_lo = f(lo)
    while hi - lo > ZERO_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) != (f_mid < 0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


@pytest.fixture()
def lambda_calls(monkeypatch):
    """(nodes of the rule, heights) of every _lambda_batch call, in call order."""
    calls = []
    real = lfunctions._lambda_batch

    def recording(rule, ts):
        calls.append((len(rule[0]), np.array(ts, dtype=np.float64)))
        return real(rule, ts)

    monkeypatch.setattr(lfunctions, "_lambda_batch", recording)
    return calls


class TestSearchWork:
    """One product scans the grid, and the brackets are bisected together."""

    def _split(self, calls, grid):
        """The scan's two grid calls, checked, and the bisection calls after them."""
        (nodes, scan), (check_nodes, check) = calls[:2]
        assert np.array_equal(scan, grid) and np.array_equal(check, grid)
        assert nodes == 2 * check_nodes  # values from 2M nodes, checked against M
        bisection = calls[2:]
        assert all(n == nodes for n, _ in bisection)
        assert not any(np.isin(ts, grid).any() for _, ts in bisection)
        return [ts for _, ts in bisection]

    def test_grid_in_one_call_then_k_midpoints_a_halving(self, lambda_calls):
        series = _twist_series(53)
        step, grid = _search_grid(series, 10.0)
        zeros = locate_zeros_with(series, k=5, t_max=10.0)
        assert zeros.complete
        bisection = self._split(lambda_calls, grid)
        assert len(bisection[0]) == 5
        assert all(len(ts) <= 5 for ts in bisection)
        assert len(bisection) <= _max_halvings(step)

    def test_incomplete_search_scans_the_whole_grid(self, lambda_calls, series_11a1):
        step, grid = _search_grid(series_11a1, 7.0)
        zeros = locate_zeros_with(series_11a1, k=5, t_max=7.0)
        assert not zeros.complete
        bisection = self._split(lambda_calls, grid)
        assert all(len(ts) == 1 for ts in bisection)
        assert len(bisection) <= _max_halvings(step)

    def test_fewer_zeros_are_a_prefix(self):
        series = _twist_series(53)
        five = [repr(float(g)) for g in locate_zeros_with(series, k=5).gammas]
        for j in range(1, 5):
            assert [repr(float(g)) for g in locate_zeros_with(series, k=j).gammas] == five[:j]

    def test_exact_zero_closes_only_its_own_bracket(self, monkeypatch, series_11a1):
        step, grid = _search_grid(series_11a1, 9.0)
        exact = 0.5 * (grid[10] + grid[11])  # the first midpoint of its bracket
        r = (exact, 2.0 + step / 3, 4.0 + step / 7, 6.0 + step / 5)

        def f(t):  # same operations for a scalar and an array
            return (t - r[0]) * (t - r[1]) * (t - r[2]) * (t - r[3])

        calls = []

        def synthetic(rule, ts):
            calls.append(np.array(ts, dtype=np.float64))
            return f(calls[-1])

        monkeypatch.setattr(lfunctions, "_lambda_batch", synthetic)
        zeros = locate_zeros_with(series_11a1, k=4, t_max=9.0)
        vals = f(grid)
        brackets = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        assert len(brackets) == 4
        alone = [_bisect_alone(f, grid[i], grid[i + 1]) for i in brackets]
        assert alone[0] == exact
        assert [repr(float(g)) for g in zeros.gammas] == [repr(float(g)) for g in alone]
        bisection = [len(ts) for ts in calls if not np.isin(ts, grid).any()]
        assert bisection[0] == 4
        assert bisection[1:] == [3] * (len(bisection) - 1)
        assert len(bisection) <= _max_halvings(step)


#: Lambda(1 + it) and its sum of |terms| 2 sum |a_n F_n|, recorded from the
#: incomplete-gamma evaluator that the quadrature replaced
INCOMPLETE_GAMMA_LAMBDA = {
    (-163, 2.5): (-0.5031936136183405, 437.2695375921896),
    (-163, 7.5): (-0.0025116507780623605, 112.92060131345991),
    (-163, 10.0): (-0.0005675748560369802, 84.2810250344245),
    (53, 2.5): (0.8467516383797904, 82.25598322582411),
    (53, 7.5): (-0.0029030617907709207, 21.348406810602707),
    (53, 10.0): (-0.00036219914642436667, 15.930439151087722),
    (157, 2.5): (-2.6355254957574155, 413.1441008982521),
    (157, 7.5): (-0.0060009081180463116, 106.66852380428737),
    (157, 10.0): (0.0016768520445334043, 79.61357247248746),
}


class TestQuadrature:
    @pytest.mark.parametrize("d,t", sorted(INCOMPLETE_GAMMA_LAMBDA))
    def test_matches_the_incomplete_gamma_values(self, d, t):
        value, scale = INCOMPLETE_GAMMA_LAMBDA[d, t]
        assert abs(lambda_critical(_twist_series(d), t) - value) < 1e-10 * scale

    def test_too_few_nodes_refused(self, monkeypatch):
        monkeypatch.setattr(lfunctions, "_node_count", lambda span, t_max: 8)
        series = _twist_series(53)
        with pytest.raises(ValueError, match="8 and 16 quadrature nodes"):
            locate_zeros(series)
        with pytest.raises(ValueError, match="8 and 16 quadrature nodes .* up to t = 2.5,"):
            lambda_critical(series, 2.5)

    @pytest.mark.parametrize("d", [1, 53, -163])
    def test_sized_rules_agree_far_below_the_tolerance(self, d):
        series = _twist_series(d)
        x, a, span = lfunctions._theta_terms(series)
        m = lfunctions._node_count(span, 10.0)
        ts = np.linspace(0.0, 10.0, 101)
        fine = lfunctions._theta_rule(x, a, span, 2 * m)
        gap = np.max(np.abs(lfunctions._lambda_batch(lfunctions._theta_rule(x, a, span, m), ts)
                            - lfunctions._lambda_batch(fine, ts)))
        assert gap < 0.1 * lfunctions.QUAD_TOL * 2 * np.sum(np.abs(fine[1]))


class TestBlockedQuadrature:
    @pytest.mark.parametrize("rows_per_block", [None, 1, 3])
    def test_blocks_give_the_one_shot_rule(self, monkeypatch, rows_per_block):
        # rows_per_block None keeps _NODE_BUDGET; 3 splits the nodes unevenly,
        # no m being a multiple of 3
        rng = np.random.default_rng(53)
        for n_terms, m in [(7, 16), (2_400, 160), (33_000, 8), (40_000, 16)]:
            x = np.sort(rng.uniform(0.01, lfunctions._X_CUT, n_terms))
            a = rng.normal(size=n_terms)
            span = float(rng.uniform(1.0, 9.0))
            unit, weights = lfunctions._legendre(m)
            u = np.exp(span * unit)
            wg = span * weights * (u * (np.exp(-np.outer(u, x)) * a).sum(1))
            if rows_per_block:
                monkeypatch.setattr(lfunctions, "_NODE_BUDGET", rows_per_block * n_terms)
            rule = lfunctions._theta_rule(x, a, span, m)
            assert np.array_equal(rule[0], span * unit)
            assert np.array_equal(rule[1], wg)
            monkeypatch.undo()

    def test_a_rule_over_many_terms_traces_under_4_mib(self):
        # one-shot, 256 nodes x 40,000 terms traces 156 MiB
        rng = np.random.default_rng(59)
        x = np.sort(rng.uniform(0.01, lfunctions._X_CUT, 40_000))
        a = rng.normal(size=len(x))
        lfunctions._legendre(256)
        tracemalloc.start()
        try:
            lfunctions._theta_rule(x, a, 5.0, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20


class TestFeResidual:
    """Dokchitser's cut-off test at t = 0, as the zeros step runs it."""

    @pytest.mark.parametrize("d", sorted(GOLDEN_ZEROS))
    def test_true_inputs_pass(self, d):
        assert fe_residual(_twist_series(d)) < 1e-14  # measured <= 1.3e-16

    @pytest.mark.parametrize("wrong", ["root_number", "conductor_x4", "conductor_plus_2"])
    @pytest.mark.parametrize("d", sorted(GOLDEN_ZEROS))
    def test_wrong_inputs_caught(self, d, wrong):
        # coefficients enough for the budget of every wrong conductor
        twist = twist_of_11a1(d)
        series = series_with_budget(twist, required_n_max(4 * twist.conductor))
        change = {"root_number": {"root_number": -series.root_number},
                  "conductor_x4": {"conductor": 4 * series.conductor},
                  "conductor_plus_2": {"conductor": series.conductor + 2}}[wrong]
        assert fe_residual(dataclasses.replace(series, **change)) > FE_TOL

    def test_matches_the_oracle_at_t_zero(self):
        series = _twist_series(1)
        flipped = dataclasses.replace(series, root_number=-1)
        assert fe_residual(flipped) == pytest.approx(
            afe_cut_residual(series, 0.0, root_number=-1), rel=1e-9)

    def test_shortfall_refused(self, known_table_module):
        series = series_with_budget(record_of(known_table_module, "11a1"), 20)
        with pytest.raises(ValueError, match="^11a1: needs n_max >= 27, series has 20$"):
            fe_residual(series)


def _toy_zero_sets(matrix, prefix):
    return [
        ZeroSet(f"{prefix}{i}", np.sort(row), 10.0, True)
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
        res = hotelling_t2(xa, xa.copy())
        assert res["t2"] == pytest.approx(0.0, abs=1e-9)
        assert res["p"] == pytest.approx(1.0)

    def test_zero_set_interface(self):
        rng = np.random.default_rng(2)
        base = np.cumsum(rng.uniform(0.5, 1.0, size=(30, 5)), axis=1)
        other = np.cumsum(rng.uniform(0.5, 1.0, size=(30, 5)), axis=1)
        # as the zeros step stacks them: one row of ordinates per complete set
        res = hotelling_t2(*(np.vstack([z.gammas for z in _toy_zero_sets(x, name)])
                             for x, name in ((base, "a"), (other, "b"))))
        assert res["df"] == [5, 30 + 30 - 5 - 1]
        assert res["f"] == hotelling_to_f(res["t2"], 5, 30, 30)

    def test_null_rejection_rate_and_uniformity(self):
        rng = np.random.default_rng(3)
        n_sims = 10_000
        n, k = 30, 5
        draws = rng.normal(size=(n_sims, 2 * n, k))
        pvals = np.empty(n_sims)
        for i in range(n_sims):
            res = hotelling_t2(draws[i, :n], draws[i, n:])
            pvals[i] = res["p"]
        rate = float(np.mean(pvals <= 0.05))
        assert abs(rate - 0.05) <= 0.01
        assert stats.kstest(pvals, "uniform").pvalue > 0.01

    def test_f_sf_matches_scipy(self):
        # d1 <= 7 zeros against d2 up to 6,000 curves; p down to ~1e-60
        rng = np.random.default_rng(5)
        for _ in range(4_000):
            d1, d2 = int(rng.integers(1, 8)), int(rng.integers(1, 6_001))
            x = float(np.exp(rng.uniform(-6.0, 4.0)))
            assert f_sf(x, d1, d2) == pytest.approx(float(stats.f.sf(x, d1, d2)), rel=1e-10)
        assert f_sf(0.0, 5, 50) == f_sf(-1e-12, 5, 50) == 1.0

    def test_singular_covariance_rejected(self):
        xa = np.ones((10, 3))
        xa[:, 1] = xa[:, 0]
        xb = np.ones((10, 3)) * 2
        xb[:, 1] = xb[:, 0]
        with pytest.raises(ValueError, match="singular|exceed"):
            hotelling_t2(xa, xb)


class TestOneLevelDensity:
    def test_so_even_limits(self):
        assert so_even_density(1e-12) == pytest.approx(2.0)
        assert so_even_density(0.5) == pytest.approx(1.0)

    def test_single_zero_set_mass_in_one_bin(self):
        z = ZeroSet("x", np.array([1.0]), 10.0, False)
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
            sets.append(ZeroSet(f"c{i}", draws, 10.0, True))
        res = one_level_density(sets, [conductor] * n_curves)
        flat = ZeroSet("f", np.array([0.1, 0.2, 0.3, 0.4, 0.5]) / scale, 10.0, True)
        res_flat = one_level_density([flat] * n_curves, [conductor] * n_curves)
        assert res.deviation_so_even < res_flat.deviation_so_even

    def test_comparison_ks_fields(self):
        rng = np.random.default_rng(6)
        a = np.cumsum(rng.uniform(0.4, 0.9, size=(50, 5)), axis=1)
        b = np.cumsum(rng.uniform(0.4, 0.9, size=(50, 5)), axis=1)
        dens = {name: one_level_density(_toy_zero_sets(x, name), [20_000] * 50)
                for name, x in (("a", a), ("b", b))}
        comp = density_comparison(dens)
        assert sorted(comp) == ["deviation_a", "deviation_b", "ks_all", "ks_first"]
        assert comp["deviation_b"] == dens["b"].deviation_so_even
        assert 0 <= comp["ks_all"][0] <= 1
        assert 0 <= comp["ks_first"][0] <= 1


def _observed(primes) -> np.ndarray:
    """A non-constant observed profile, for tests that check only the prediction."""
    return np.arange(float(len(primes)))


class TestExplicitPredict:
    def test_identical_means_zero_prediction(self):
        # identical means predict a difference of zero everywhere, which is
        # constant and so has no correlation
        primes = np.array([2, 3, 5, 7, 11])
        g = np.asarray(MEAN_GAMMAS_SHA1)
        assert np.array_equal(lfunctions._zero_contribution(g, primes)
                              - lfunctions._zero_contribution(g, primes), np.zeros(5))
        with pytest.raises(ValueError, match="a series is constant"):
            explicit_predict(g, g, primes, _observed(primes))

    def test_table7_sign_pattern_at_landmarks(self):
        primes = np.array([5, 37, 251, 1009])
        _, pred = explicit_predict(MEAN_GAMMAS_SHA4, MEAN_GAMMAS_SHA1, primes,
                                   _observed(primes))
        assert pred[0] > 0
        assert pred[1] > 0
        assert pred[2] < 0
        assert pred[3] < 0

    def test_raised_first_zero_flips_beyond_quarter_period(self):
        base = (0.6, 1.5, 2.3, 3.0, 3.7)
        raised = (0.72, 1.5, 2.3, 3.0, 3.7)
        primes = np.array([2, 3, 5, 7, 11, 13])
        _, pred = explicit_predict(np.array(raised), np.array(base), primes,
                                   _observed(primes))
        # cos(gamma1 log p) decays faster for the raised zero: positive
        # difference at small p
        assert pred[0] < 0 or pred[0] != 0

    def test_correlation_against_observed(self):
        primes = np.array([2, 3, 5, 7, 11, 13, 17, 19])
        _, pred = explicit_predict(MEAN_GAMMAS_SHA4, MEAN_GAMMAS_SHA1, primes,
                                   _observed(primes))
        echo, _ = explicit_predict(MEAN_GAMMAS_SHA4, MEAN_GAMMAS_SHA1, primes,
                                   observed_diff=pred)
        assert echo["correlation"] == pytest.approx(1.0)
        assert echo["rms_observed"] == pytest.approx(echo["rms_predicted"])

    def test_constant_prediction_refused(self):
        primes = np.array([2, 3, 5, 7, 11])
        with pytest.raises(ValueError, match="a series is constant"):
            explicit_predict(MEAN_GAMMAS_SHA1, MEAN_GAMMAS_SHA1, primes,
                             observed_diff=np.arange(5.0))

    def test_constant_observed_profile_refused(self):
        primes = np.array([2, 3, 5, 7, 11])
        with pytest.raises(ValueError, match="a series is constant"):
            explicit_predict(MEAN_GAMMAS_SHA4, MEAN_GAMMAS_SHA1, primes,
                             observed_diff=np.full(5, 0.25))

    def test_empty_primes_rejected(self):
        # the prediction's primes are a trace matrix's, and a PrimeList is never empty
        with pytest.raises(ValueError, match="^prime list is empty$"):
            default_prime_list(0)


class TestZeroCsv:
    def test_round_trip(self, tmp_path):
        sets = [
            ZeroSet("11a1", np.array([6.362613, 8.603540]), 12.0, False),
            ZeroSet("x1", np.array([0.5, 1.5, 2.5, 3.5, 4.5]), 10.0, True),
        ]
        path = tmp_path / "zeros.csv"
        write_zero_sets_csv(path, sets)
        loaded = read_zero_sets_csv(path)
        assert [z.label for z in loaded] == ["11a1", "x1"]
        assert np.allclose(loaded[1].gammas, sets[1].gammas)
        assert loaded[0].complete is False

    @pytest.mark.parametrize("column, value", [(1, "nan"), (5, "inf"), (7, "nan"),
                                               (7, "inf")],
                             ids=["gamma1-nan", "gamma5-inf", "t_max-nan", "t_max-inf"])
    def test_non_finite_cell_refused_with_its_line(self, tmp_path, column, value):
        # float() parses nan and inf, and a nan passes every order comparison
        row = ["11a1", "1.0", "2.0", "3.0", "4.0", "5.0", "1", "10.0"]
        row[column] = value
        path = tmp_path / "zeros.csv"
        path.write_text(",".join(lfunctions.ZERO_CSV_FIELDS) + "\n"
                        + ",".join(row) + "\n")
        with pytest.raises(ValueError, match=f"zeros CSV {path} line 2: 11a1: .*finite"):
            read_zero_sets_csv(path)

    def test_complete_row_without_five_ordinates_refused_with_its_line(self, tmp_path):
        path = tmp_path / "zeros.csv"
        path.write_text(",".join(lfunctions.ZERO_CSV_FIELDS) + "\n"
                        + "11a1,1.0,2.0,3.0,,,1,10.0\n")
        with pytest.raises(ValueError, match=f"zeros CSV {path} line 2: 11a1: "
                                             "complete set has 3 zero ordinates"):
            read_zero_sets_csv(path)

    @pytest.mark.parametrize("value", ["7", "-1", "01"])
    def test_complete_cell_other_than_0_or_1_refused_with_its_line(self, tmp_path,
                                                                    value):
        path = tmp_path / "zeros.csv"
        path.write_text(",".join(lfunctions.ZERO_CSV_FIELDS) + "\n"
                        + "11a1,1.0,2.0,3.0,4.0,5.0,1,10.0\n"
                        + f"11a2,1.0,2.0,3.0,4.0,5.0,{value},10.0\n")
        with pytest.raises(ValueError, match=f"zeros CSV {path} line 3: complete "
                                             f"must be 0 or 1, got '{value}'"):
            read_zero_sets_csv(path)

    @pytest.mark.parametrize("n_gammas, complete", [(3, True), (6, True), (6, False)])
    def test_zero_set_refuses_an_ordinate_count_that_breaks_k(self, n_gammas,
                                                               complete):
        with pytest.raises(ValueError, match="zero ordinates"):
            ZeroSet("x", np.arange(1.0, n_gammas + 1), 10.0, complete)

    @pytest.mark.parametrize("gammas, t_max", [([np.nan, 2.0], 10.0),
                                               ([1.0, np.inf], 10.0),
                                               ([1.0, 2.0], np.nan)])
    def test_zero_set_requires_finite_values(self, gammas, t_max):
        with pytest.raises(ValueError, match="finite"):
            ZeroSet("x", np.array(gammas), t_max, False)
