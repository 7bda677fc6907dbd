import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from murmurlab import stratify
from murmurlab.stratify import (
    PERIOD_QUARTILE_RULE,
    SHA_RULE,
    TAMAGAWA_RULE,
    bonferroni,
    fit_power_law,
    median,
    partition,
    permutation_test,
    rms_separation,
    scale_scan,
)
from murmurlab.traces import TraceMatrix, default_prime_list

from conftest import make_synthetic_matrix, make_synthetic_table, records, table_of
from oracles import permutation_null


class TestPartition:
    def test_tamagawa_rule_leaves_middle_unassigned(self):
        table = make_synthetic_table(200, seed=1)
        groups = partition(table, TAMAGAWA_RULE)
        for lab in groups["group_a"]:
            assert table.record(lab).tamagawa_product == 1
        for lab in groups["group_b"]:
            assert table.record(lab).tamagawa_product >= 5
        assigned = np.concatenate(list(groups.values()))
        assert len(set(assigned)) == len(assigned)
        for lab in np.setdiff1d(table.rows, assigned):
            assert table.record(lab).tamagawa_product in (2, 3, 4)

    def test_sha_rule_pools_all_squares_above_four(self):
        table = make_synthetic_table(300, seed=2, sha_choices=(1.0, 4.0, 9.0, 16.0))
        groups = partition(table, SHA_RULE)
        snapped = {round(table.sha_values[i]) for i in groups["group_b"]}
        assert snapped <= {4, 9, 16}
        assert {round(table.sha_values[i]) for i in groups["group_a"]} == {1}
        assert sum(map(len, groups.values())) == len(table)

    def test_quartiles_of_eight_distinct_values(self):
        import dataclasses

        table = table_of([dataclasses.replace(r, real_period=float(i + 1))
                          for i, r in enumerate(records(make_synthetic_table(8, seed=3)))])
        groups = partition(table, PERIOD_QUARTILE_RULE)
        assert sorted(len(v) for v in groups.values()) == [2, 2, 2, 2]

    def test_empty_group_raises_with_name(self):
        table = make_synthetic_table(50, seed=4, sha_choices=(1.0,))
        with pytest.raises(ValueError, match="^group 'group_b' of rule 'sha' is empty$"):
            partition(table, SHA_RULE)


finite_samples = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, 1.0, 2.5]),
    min_size=1, max_size=60).map(np.array)


class TestOrderStatistics:
    """The median and quartile edges equal NumPy's, which import numpy.ma."""

    @settings(max_examples=300, deadline=None)
    @given(finite_samples)
    def test_median_equals_np_median(self, values):
        assert median(values) == np.median(values)

    @settings(max_examples=300, deadline=None)
    @given(finite_samples)
    def test_quartiles_equal_np_quantile(self, values):
        assert np.array_equal(stratify._quartiles(values),
                              np.quantile(values, [0.25, 0.5, 0.75]))


class TestProfileRms:
    """rms_separation on murmuration profiles (per-prime mean arrays)."""

    def test_identical_profiles_zero(self):
        p = np.arange(10.0)
        assert rms_separation([p, p]) == 0.0

    def test_constant_offset_gives_offset(self):
        a = np.zeros(10)
        b = np.full(10, -2.5)
        assert float(rms_separation([a, b])) == pytest.approx(2.5)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        assert rms_separation([a, b]) == rms_separation([b, a])

    def test_multigroup_reduces_to_pairwise_mean(self):
        a = np.array([0.0, 0, 0, 0])
        b = np.array([1.0, 1, 1, 1])
        c = np.array([2.0, 2, 2, 2])
        # pairwise squared separations 1, 4, 1
        assert float(rms_separation([a, b, c])) == pytest.approx(np.sqrt((1 + 4 + 1) / 3))


class TestPermutationTest:
    def test_deterministic_given_seed(self):
        table = make_synthetic_table(80, seed=6)
        matrix = make_synthetic_matrix(table.labels, seed=6)
        groups = partition(table, SHA_RULE)
        r1 = permutation_test([groups], matrix, n_shuffles=300, seed=42)[0]
        r2 = permutation_test([groups], matrix, n_shuffles=300, seed=42)[0]
        assert r1 == r2

    def test_pvalue_identity(self):
        table = make_synthetic_table(60, seed=7)
        matrix = make_synthetic_matrix(table.labels, seed=7)
        groups = partition(table, SHA_RULE)
        rep = permutation_test([groups], matrix, n_shuffles=199, seed=1)[0]
        assert rep["p_value"] * (1 + rep["n_shuffles"]) == pytest.approx(round(
            rep["p_value"] * (1 + rep["n_shuffles"])
        ))
        assert 0 < rep["p_value"] <= 1

    def test_injected_shift_detected(self):
        table = make_synthetic_table(800, seed=8, sha_choices=(1.0, 4.0))
        groups = partition(table, SHA_RULE)
        shift = {table.labels[i]: 1 for i in groups["group_b"]}
        matrix = make_synthetic_matrix(table.labels, seed=8, mean_shift=shift)
        rep = permutation_test([groups], matrix, n_shuffles=2000, seed=3)[0]
        assert rep["p_value"] <= 1e-3
        assert rep["observed_rms"] > rep["null_mean"] + 5 * rep["null_sd"]

    def test_low_shuffle_warning(self):
        table = make_synthetic_table(40, seed=9)
        matrix = make_synthetic_matrix(table.labels, seed=9)
        groups = partition(table, SHA_RULE)
        rep = permutation_test([groups], matrix, n_shuffles=50, seed=1)[0]
        assert rep["low_shuffle_warning"]

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
            rep = permutation_test([groups], matrix, n_shuffles=199, seed=run)[0]
            pvals.append(rep["p_value"])
        ks = stats.kstest(pvals, "uniform")
        assert ks.pvalue > 0.01

    def test_null_mean_square_matches_sampling_without_replacement(self, monkeypatch):
        # a uniform relabelling at fixed sizes draws group a without
        # replacement, so at each prime E[(m_a - m_b)^2] = n SS / (n_a n_b (n - 1)),
        # SS the column's sum of squared deviations; the null's mean RMS^2 is
        # the mean of that over primes
        rng = np.random.default_rng(21)
        n_a, n_b = 9, 31
        n = n_a + n_b
        primes = default_prime_list(16)
        spread = np.floor(2 * np.sqrt(primes.primes)).astype(np.int64)
        traces = rng.integers(-spread, spread + 1, size=(n, 16)).astype(np.int16)
        traces[:5] += 3  # a skewed column share, away from any symmetric law
        matrix = TraceMatrix(tuple(f"c{i}" for i in range(n)), primes, traces,
                             np.zeros((n, 16), dtype=bool))
        blocks = []

        def recording(means, _real=stratify.rms_separation):
            values = _real(means)
            if np.ndim(values):  # a block of shuffles, not the observed profiles
                blocks.append(values)
            return values

        monkeypatch.setattr(stratify, "rms_separation", recording)
        rep = permutation_test([[np.arange(n_a), np.arange(n_a, n)]], matrix,
                               n_shuffles=100_000, seed=22)[0]
        null_sq = np.concatenate(blocks) ** 2
        assert null_sq.size == rep["n_shuffles"]
        cols = traces.astype(np.float64)
        ss = ((cols - cols.mean(axis=0)) ** 2).sum(axis=0)
        expected = np.mean(n * ss / (n_a * n_b * (n - 1)))
        mc_error = null_sq.std(ddof=1) / np.sqrt(null_sq.size)
        assert abs(null_sq.mean() - expected) < 4 * mc_error
        # with replacement the mean would be (n - 1) / n of it, ~19 errors away
        assert abs(null_sq.mean() - expected * (n - 1) / n) > 4 * mc_error

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
            rep = permutation_test([{"a": np.arange(30), "b": np.arange(30, n)}], matrix,
                                   n_shuffles=99, seed=10_000 + run)[0]
            hits += rep["p_value"] <= alpha
        se = np.sqrt(alpha * (1 - alpha) / runs)
        assert abs(hits / runs - alpha) < 2.5 * se

    def test_empty_group_rejected(self):
        table = make_synthetic_table(10, seed=12)
        matrix = make_synthetic_matrix(table.labels, seed=12)
        with pytest.raises(ValueError,
                           match="permutation test needs at least two nonempty groups"):
            permutation_test([{"a": table.rows, "b": []}], matrix, 100, 0)

    @pytest.mark.parametrize("n_shuffles", [0, -3])
    def test_fewer_than_one_shuffle_rejected(self, n_shuffles):
        table = make_synthetic_table(10, seed=12)
        matrix = make_synthetic_matrix(table.labels, seed=12)
        groups = {"a": table.rows[:5], "b": table.rows[5:]}
        with pytest.raises(ValueError, match="at least one shuffle"):
            permutation_test([groups], matrix, n_shuffles, 0)


def _plain_matrix(traces):
    n, n_primes = traces.shape
    return TraceMatrix(tuple(f"c{i}" for i in range(n)), default_prime_list(n_primes),
                       traces, np.zeros((n, n_primes), dtype=bool))


@pytest.fixture()
def null_blocks(monkeypatch):
    """The null values permutation_test computes, block by block."""
    blocks = []

    def recording(means, _real=stratify.rms_separation):
        values = _real(means)
        if np.ndim(values):  # a block of shuffles, not the observed profiles
            blocks.append(values)
        return values

    monkeypatch.setattr(stratify, "rms_separation", recording)
    return blocks


#: group sizes of each grouping, all over one row set in their own member
#: orders, trace range and the share of traces set to -32768, the int16
#: minimum; n * max|a_p| is below 2**24 for the first two, so their group
#: sums are formed in float32, and above it for the others.  In the last,
#: max|a_p| is 32768 only through the minimum, whose np.abs wraps to itself:
#: a bound taken that way would pick float32 and round the sums
ORACLE_CASES = {
    "float32-k2": (((23, 157),), (-30, 31), 0.0),
    "float32-k4": (((11, 40, 64, 85),), (-30, 31), 0.0),
    "float64-k2": (((560, 640),), (29_500, 32_001), 0.0),
    "float64-k4": (((560, 600, 700, 900),), (29_500, 32_001), 0.0),
    "float64-k2-k4-one-set": (((1000, 1400), (560, 600, 640, 600)), (29_500, 32_001),
                              0.0),
    "float64-int16-min": (((700, 800),), (-30, 31), 0.9),
}


class TestSharedStream:
    @pytest.mark.parametrize("case", ORACLE_CASES)
    def test_null_bit_equal_to_float64_oracle(self, null_blocks, case):
        shapes, (lo, hi), at_min = ORACLE_CASES[case]
        rng = np.random.default_rng(41)
        n = sum(shapes[0])
        traces = rng.integers(lo, hi, size=(n, 8)).astype(np.int16)
        if at_min:
            traces[rng.random(traces.shape) < at_min] = np.iinfo(np.int16).min
        peak = max(-int(traces.min()), int(traces.max()))
        assert (n * peak >= 2**24) == case.startswith("float64")
        if case.startswith("float64"):
            # the smaller groups' float32 sums would round, so a wrong dtype
            # would show in the null
            head = traces[:min(min(sizes) for sizes in shapes)]
            rounded = np.ones((1, len(head)), np.float32) @ head.astype(np.float32)
            assert np.any(rounded[0] != head.sum(axis=0, dtype=np.int64))
        groupings = [np.split(rng.permutation(n), np.cumsum(sizes)[:-1])
                     for sizes in shapes]
        reports = permutation_test(groupings, _plain_matrix(traces), n_shuffles=300,
                                   seed=5)
        for i, members in enumerate(groupings):  # the blocks of one stream interleave
            observed, null = permutation_null(members, traces, 300, 5)
            assert reports[i]["observed_rms"] == observed
            assert np.array_equal(np.concatenate(null_blocks[i::len(groupings)]), null)

    def test_batched_reports_equal_solo_reports(self, monkeypatch):
        rng = np.random.default_rng(43)
        n = 150
        matrix = _plain_matrix(rng.integers(-20, 21, size=(n, 12)).astype(np.int16))
        rows = rng.permutation(n)
        backwards = rows[:120][::-1]
        groupings = [
            {"a": rows[:40], "b": rows[40:120]},  # 120 rows
            [rows[100:110], rows[30:100], rows[110:150]],  # 120 other rows
            [rows[:60], rows[60:90]],  # 90
            {"q1": rows[:20], "q2": rows[20:50], "q3": rows[50:80], "q4": rows[80:120]},
            [rows[:75], rows[75:]],  # 150
            [backwards[:55], backwards[55:]],  # the first 120 rows in another order
        ]
        solo = [permutation_test([g], matrix, n_shuffles=300, seed=7)[0]
                for g in groupings]
        seeds = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed: seeds.append(seed) or real(seed))
        for order in ([0, 1, 2, 3, 4, 5], [4, 5, 2, 0, 3, 1]):
            seeds.clear()
            batched = permutation_test([groupings[i] for i in order], matrix,
                                       n_shuffles=300, seed=7)
            assert list(batched) == [solo[i] for i in order]
            assert batched.n_shuffles == 6 * 300
            assert seeds == [7, 7, 7]  # one stream for each of 120, 90 and 150 rows

    def test_memory_independent_of_groupings_over_one_row_set(self):
        rng = np.random.default_rng(59)
        n = 3000  # rows outweigh the one block of shuffles
        matrix = _plain_matrix(rng.integers(-20, 21, size=(n, 500)).astype(np.int16))
        groupings = []
        for split in (300, 600, 900, 1200):
            rows = rng.permutation(n)
            groupings.append([rows[:split], rows[split:]])

        def peak(tested):
            tracemalloc.start()
            try:
                permutation_test(tested, matrix, n_shuffles=128, seed=13)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        alone, together = peak(groupings[:1]), peak(groupings)
        assert together <= 1.25 * alone

    def test_scheduling_moves_no_bit(self, monkeypatch):
        rng = np.random.default_rng(47)
        matrix = _plain_matrix(rng.integers(-25, 26, size=(160, 10)).astype(np.int16))
        rows = rng.permutation(160)
        groupings = [
            [rows[:30], rows[30:100]],  # 100 rows
            {"a": rows[:80], "b": rows[80:160]},  # 160
            [rows[10:20], rows[20:60], rows[60:70], rows[70:120]],  # 110
            [rows[:45], rows[45:100]],  # 100 other rows
            [rows[:5], rows[5:40]],  # 40
            [rows[50:60], rows[60:70], rows[70:160]],  # 110
            [rows[100:125], rows[125:]],  # 60
        ]
        solo = [permutation_test([g], matrix, n_shuffles=200, seed=3)[0]
                for g in groupings]
        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches, more interleavings
        try:
            for cpus in (1, 4):  # four workers on five streams
                monkeypatch.setattr(stratify, "_usable_cpus", lambda: cpus)
                reports = permutation_test(groupings, matrix, n_shuffles=200, seed=3)
                assert list(reports) == solo
                assert threading.active_count() == threads
                bad = groupings[:3] + [[rows[:10], np.array([3, 160])]] + groupings[3:]
                with pytest.raises(IndexError, match="index 160 is out of bounds"):
                    permutation_test(bad, matrix, n_shuffles=200, seed=3)
                assert threading.active_count() == threads
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("block", [1, 7, 128])
    def test_null_independent_of_block_size(self, monkeypatch, block):
        rng = np.random.default_rng(53)
        matrix = _plain_matrix(rng.integers(-25, 26, size=(130, 10)).astype(np.int16))
        rows = rng.permutation(130)
        groupings = [[rows[:35], rows[35:]],
                     [rows[:20], rows[20:50], rows[50:90], rows[90:]]]
        default = [permutation_test([g], matrix, n_shuffles=300, seed=11)[0]
                   for g in groupings]
        monkeypatch.setattr(stratify, "_SHUFFLE_BLOCK", block)
        assert [permutation_test([g], matrix, n_shuffles=300, seed=11)[0]
                for g in groupings] == default

    def test_single_grouping_must_be_wrapped(self):
        matrix = _plain_matrix(np.zeros((4, 3), dtype=np.int16))
        with pytest.raises(TypeError, match="sequence of groupings"):
            permutation_test({"a": [0, 1], "b": [2, 3]}, matrix, 10, 0)


class TestBonferroni:
    def test_five_tests_at_one_per_mille(self):
        res = bonferroni([1e-5] * 5)
        assert res["alpha"] == 0.001
        assert res["threshold"] == pytest.approx(0.0002)
        assert res["all_significant"] is True

    def test_single_test_threshold_is_alpha(self):
        res = bonferroni([0.5])
        assert res["threshold"] == res["alpha"]

    def test_all_ones_fail(self):
        res = bonferroni([1.0, 1.0, 1.0])
        assert res["all_significant"] is False

    def test_one_p_above_the_threshold_is_not_all_significant(self):
        assert bonferroni([1e-5, 1e-5, 0.5])["all_significant"] is False

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
        table = table_of(records)
        traces = np.vstack([row_by_label[lab] for lab in table.labels])
        matrix = TraceMatrix(tuple(table.labels), primes, traces,
                             np.zeros_like(traces, dtype=bool))
        result = scale_scan(table, matrix, SHA_RULE, windows)
        assert result["alpha"] == pytest.approx(0.25, abs=0.01)
        assert result["r_squared"] > 0.99
        assert result["windows"] == [[float(lo), float(hi)] for lo, hi in windows]
        assert len(result["rms"]) == len(windows)

    @pytest.mark.parametrize("windows, message", [
        ([(5_000, 20_000), (10_000, 50_000), (10, 10**308)],
         "scale scan window 3 has a bound above 9223372036854775807, "
         "the largest conductor a table holds"),
        ([(0, 20_000), (10_000, 50_000), (20_000, 70_000)],
         r"scale scan window 1 \(0:20000\) needs 0 < LO <= HI"),
        ([(5_000, 20_000), (50_000, 10_000), (20_000, 70_000)],
         r"scale scan window 2 \(50000:10000\) needs 0 < LO <= HI"),
    ])
    def test_a_bad_window_refused_before_any_partition(self, windows, message,
                                                       monkeypatch):
        table = make_synthetic_table(40, seed=5)
        matrix = make_synthetic_matrix(table.labels, seed=5)
        monkeypatch.setattr(stratify, "partition", lambda *args: pytest.fail("partitioned"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            scale_scan(table, matrix, SHA_RULE, windows)
