import numpy as np
import pytest
from scipy import stats

from murmurlab.curves import CurveTable
from murmurlab.stratify import (
    EmptyGroupError,
    PERIOD_QUARTILE_RULE,
    SHA_RULE,
    StratRule,
    TAMAGAWA_RULE,
    bonferroni,
    fit_power_law,
    partition,
    permutation_test,
    profile_rms,
    scale_scan,
)
from murmurlab.traces import TraceMatrix, default_prime_list
from murmurlab.windows import MurmurationProfile, murmuration_profile

from conftest import make_synthetic_matrix, make_synthetic_table


def profile(primes, values, n=1):
    return MurmurationProfile(primes, np.asarray(values, dtype=np.float64), n)


class TestPartition:
    def test_tamagawa_rule_leaves_middle_unassigned(self):
        table = make_synthetic_table(200, seed=1)
        part = partition(table, TAMAGAWA_RULE)
        for lab in part.groups["group_a"]:
            assert table.record(lab).tamagawa_product == 1
        for lab in part.groups["group_b"]:
            assert table.record(lab).tamagawa_product >= 5
        for lab in part.unassigned:
            assert table.record(lab).tamagawa_product in (2, 3, 4)
        total = sum(part.sizes().values()) + len(part.unassigned)
        assert total == len(table)

    def test_sha_rule_pools_all_squares_above_four(self):
        table = make_synthetic_table(300, seed=2, sha_choices=(1.0, 4.0, 9.0, 16.0))
        part = partition(table, SHA_RULE)
        snapped = {table.record(l).sha_rounded() for l in part.groups["group_b"]}
        assert snapped <= {4, 9, 16}
        assert {table.record(l).sha_rounded() for l in part.groups["group_a"]} == {1}
        assert len(part.unassigned) == 0

    def test_quartiles_of_eight_distinct_values(self):
        records = make_synthetic_table(8, seed=3).records
        import dataclasses

        records = [dataclasses.replace(r, real_period=float(i + 1))
                   for i, r in enumerate(records)]
        table = CurveTable(records)
        part = partition(table, PERIOD_QUARTILE_RULE)
        assert sorted(len(v) for v in part.groups.values()) == [2, 2, 2, 2]

    def test_empty_group_raises_with_name(self):
        table = make_synthetic_table(50, seed=4, sha_choices=(1.0,))
        with pytest.raises(EmptyGroupError, match="group_b"):
            partition(table, SHA_RULE)


class TestProfileRms:
    def test_identical_profiles_zero(self):
        primes = default_prime_list(10).primes
        p = profile(primes, np.arange(10.0))
        assert profile_rms([p, p]) == 0.0

    def test_constant_offset_gives_offset(self):
        primes = default_prime_list(10).primes
        a = profile(primes, np.zeros(10))
        b = profile(primes, np.full(10, -2.5))
        assert profile_rms([a, b]) == pytest.approx(2.5)

    def test_symmetry(self):
        primes = default_prime_list(6).primes
        rng = np.random.default_rng(5)
        a = profile(primes, rng.normal(size=6))
        b = profile(primes, rng.normal(size=6))
        assert profile_rms([a, b]) == profile_rms([b, a])

    def test_multigroup_reduces_to_pairwise_mean(self):
        primes = default_prime_list(4).primes
        a = profile(primes, [0, 0, 0, 0])
        b = profile(primes, [1, 1, 1, 1])
        c = profile(primes, [2, 2, 2, 2])
        # pairwise squared separations 1, 4, 1
        assert profile_rms([a, b, c]) == pytest.approx(np.sqrt((1 + 4 + 1) / 3))

    def test_mismatched_prime_lists_rejected(self):
        a = profile(default_prime_list(4).primes, np.zeros(4))
        b = profile(default_prime_list(5).primes[1:], np.zeros(4))
        with pytest.raises(ValueError, match="prime"):
            profile_rms([a, b])


class TestPermutationTest:
    def test_deterministic_given_seed(self):
        table = make_synthetic_table(80, seed=6)
        matrix = make_synthetic_matrix(table.labels, seed=6)
        part = partition(table, SHA_RULE)
        r1 = permutation_test(part.groups, matrix, n_shuffles=300, seed=42)
        r2 = permutation_test(part.groups, matrix, n_shuffles=300, seed=42)
        assert r1 == r2

    def test_pvalue_identity(self):
        table = make_synthetic_table(60, seed=7)
        matrix = make_synthetic_matrix(table.labels, seed=7)
        part = partition(table, SHA_RULE)
        rep = permutation_test(part.groups, matrix, n_shuffles=199, seed=1)
        assert rep.p_value * (1 + rep.n_shuffles) == pytest.approx(round(
            rep.p_value * (1 + rep.n_shuffles)
        ))
        assert 0 < rep.p_value <= 1

    def test_injected_shift_detected(self):
        table = make_synthetic_table(800, seed=8, sha_choices=(1.0, 4.0))
        part = partition(table, SHA_RULE)
        shift = {table.labels[i]: 1 for i in part.groups["group_b"]}
        matrix = make_synthetic_matrix(table.labels, seed=8, mean_shift=shift)
        rep = permutation_test(part.groups, matrix, n_shuffles=2000, seed=3)
        assert rep.p_value <= 1e-3
        assert rep.observed_rms > rep.null_mean + 5 * rep.null_sd

    def test_low_shuffle_warning(self):
        table = make_synthetic_table(40, seed=9)
        matrix = make_synthetic_matrix(table.labels, seed=9)
        part = partition(table, SHA_RULE)
        rep = permutation_test(part.groups, matrix, n_shuffles=50, seed=1)
        assert rep.low_shuffle_warning

    def test_null_pvalues_uniform(self):
        # exchangeable groups: p over repeated runs is KS-consistent with uniform
        rng = np.random.default_rng(10)
        primes = default_prime_list(12)
        pvals = []
        for run in range(200):
            n = 120
            labels = tuple(f"c{run}_{i}" for i in range(n))
            traces = rng.integers(-3, 4, size=(n, 12)).astype(np.int16)
            matrix = TraceMatrix(labels, primes, traces,
                                 np.zeros((n, 12), dtype=bool))
            groups = {"a": np.arange(n // 2), "b": np.arange(n // 2, n)}
            rep = permutation_test(groups, matrix, n_shuffles=199, seed=run)
            pvals.append(rep.p_value)
        ks = stats.kstest(pvals, "uniform")
        assert ks.pvalue > 0.01

    def test_rejection_rate_calibrated(self):
        # under the null the rejection rate at alpha tracks alpha
        rng = np.random.default_rng(11)
        primes = default_prime_list(8)
        alpha = 0.1
        hits = 0
        runs = 400
        for run in range(runs):
            n = 60
            labels = tuple(f"r{run}_{i}" for i in range(n))
            traces = rng.integers(-4, 5, size=(n, 8)).astype(np.int16)
            matrix = TraceMatrix(labels, primes, traces,
                                 np.zeros((n, 8), dtype=bool))
            rep = permutation_test({"a": np.arange(30), "b": np.arange(30, n)}, matrix,
                                   n_shuffles=99, seed=10_000 + run)
            hits += rep.p_value <= alpha
        se = np.sqrt(alpha * (1 - alpha) / runs)
        assert abs(hits / runs - alpha) < 2.5 * se

    def test_empty_group_rejected(self):
        table = make_synthetic_table(10, seed=12)
        matrix = make_synthetic_matrix(table.labels, seed=12)
        with pytest.raises(EmptyGroupError):
            permutation_test({"a": table.rows, "b": []}, matrix, 100, 0)

    @pytest.mark.parametrize("n_shuffles", [0, -3])
    def test_fewer_than_one_shuffle_rejected(self, n_shuffles):
        table = make_synthetic_table(10, seed=12)
        matrix = make_synthetic_matrix(table.labels, seed=12)
        groups = {"a": table.rows[:5], "b": table.rows[5:]}
        with pytest.raises(ValueError, match="at least one shuffle"):
            permutation_test(groups, matrix, n_shuffles, 0)


class TestBonferroni:
    def test_five_tests_at_one_per_mille(self):
        res = bonferroni([1e-5] * 5, alpha=0.001)
        assert res.threshold == pytest.approx(0.0002)
        assert all(res.decisions)

    def test_single_test_threshold_is_alpha(self):
        res = bonferroni([0.5])
        assert res.threshold == res.alpha

    def test_all_ones_fail(self):
        res = bonferroni([1.0, 1.0, 1.0])
        assert not any(res.decisions)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bonferroni([])


class TestScaleScan:
    def test_power_law_recovery(self):
        rng = np.random.default_rng(13)
        centers = np.geomspace(10_000, 100_000, 9)
        rms = 30.0 * centers**-0.25
        alpha, r2 = fit_power_law(centers, rms)
        assert alpha == pytest.approx(0.25, abs=1e-12)
        assert r2 > 0.999

    def test_constant_rms_gives_zero_alpha(self):
        centers = np.geomspace(5_000, 50_000, 5)
        alpha, r2 = fit_power_law(centers, np.full(5, 0.7))
        assert alpha == pytest.approx(0.0, abs=1e-12)

    def test_needs_three_windows(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_end_to_end_synthetic_decay(self):
        # group B rows carry an exact k/n mean offset per window, decaying as
        # the window center to the -1/4
        from murmurlab.curves import CurveRecord

        n_per = 4000
        n_primes = 8
        primes = default_prime_list(n_primes)
        records = []
        row_by_label = {}
        windows = []
        lo = 10_000
        for w in range(9):
            hi = int(lo * 1.3)
            windows.append((lo, hi))
            center = np.sqrt(lo * hi)
            delta = 5.0 * center**-0.25  # stays below 1, so k fits the group
            k = int(round((n_per // 2) * delta))
            for i in range(n_per):
                sha, tag = (1.0, "a") if i < n_per // 2 else (4.0, "b")
                conductor = int(center)
                label = f"{conductor}{tag}{i}"
                records.append(CurveRecord(
                    label, f"{conductor}{tag}", (0, 0, 0, 1, 1),
                    conductor, 0, 1, 1.0, 1.0, 1, 1, sha, sha))
                shifted = sha == 4.0 and i - n_per // 2 < k
                row_by_label[label] = (np.ones if shifted else np.zeros)(
                    n_primes, dtype=np.int16
                )
            lo = int(lo * 1.35)
        table = CurveTable(records)
        traces = np.vstack([row_by_label[lab] for lab in table.labels])
        matrix = TraceMatrix(tuple(table.labels), primes, traces,
                             np.zeros_like(traces, dtype=bool))
        result = scale_scan(table, matrix, SHA_RULE, windows)
        assert result.alpha == pytest.approx(0.25, abs=0.01)
        assert result.r_squared > 0.99
