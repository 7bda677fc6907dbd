import dataclasses
import math

import numpy as np
import pytest

from murmurlab.confound import (
    bsd_group_ratios,
    control_omega,
    euler_cumsum,
    invariant_correlation,
    lvalue_band,
    match_nn,
    matched_rms,
    triple_control,
)
from murmurlab.curves import CurveRecord
from murmurlab.primes import omega
from murmurlab.stratify import SHA_RULE, partition, permutation_test
from murmurlab.traces import default_prime_list

from conftest import make_synthetic_matrix, make_synthetic_table, records, table_of
from oracles import match_nn_oracle


class TestOmega:
    @pytest.mark.parametrize("n,expected", [(11, 1), (30, 3), (1, 0), (8, 1),
                                            (499998, 4), (2 * 3 * 5 * 7 * 11, 5)])
    def test_values(self, n, expected):
        assert omega(n) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            omega(0)


class TestControlOmega:
    def test_restriction_filters_conductors(self):
        table = make_synthetic_table(400, seed=1)
        groups = partition(table, SHA_RULE)
        k = 2
        restricted = control_omega(table, groups, k)
        assert set(restricted) == set(groups)
        for name, members in restricted.items():
            assert all(omega(table.record(l).conductor) == k for l in members)
            assert set(members) <= set(groups[name])

    def test_empty_restriction_raises(self):
        table = make_synthetic_table(30, seed=2, conductor_range=(11_213, 11_214))
        # 11213 is prime: omega = 1 everywhere, so omega = 4 empties the groups
        groups = partition(table, SHA_RULE)
        with pytest.raises(ValueError, match=r"group 'group_a' empty after omega\(N\) = 4"):
            control_omega(table, groups, 4)

    def test_null_after_restriction_behaves(self):
        table = make_synthetic_table(600, seed=3)
        matrix = make_synthetic_matrix(table.labels, seed=3)
        groups = partition(table, SHA_RULE)
        report, = permutation_test([control_omega(table, groups, 2)], matrix,
                                   n_shuffles=400, seed=5)
        assert report["p_value"] > 1e-3  # no injected effect


def curve(label: str, conductor: int, l_value: float = 1.0) -> CurveRecord:
    return CurveRecord(label, label.rstrip("0123456789"), (0, 0, 0, 1, 1), conductor, 0, 1,
                       1.0, 1.0, 1, 1, 1.0, l_value)


def tied_table(rng, n: int):
    """n curves over few conductors and L-values, so that keys tie often."""
    conductors = rng.integers(100, 112, size=n)
    return table_of([curve(f"{c}{'abc'[i % 3]}{i}", int(c),
                           float(rng.choice([0.5, 1.0, 1.25, 2.0])))
                     for i, c in enumerate(conductors)])


class TestMatchNn:
    def test_identical_key_multisets_zero_distance(self):
        table = make_synthetic_table(40, seed=4)
        rows = np.arange(20)
        pairs = match_nn(table, rows, rows, "conductor", 10.0)
        assert [d for _, _, d in pairs] == [0.0] * 20

    def test_never_reuses_b_curves(self):
        table = make_synthetic_table(120, seed=5)
        groups = partition(table, SHA_RULE)
        pairs = match_nn(table, groups["group_b"], groups["group_a"], "conductor", 1e12)
        bs = [b for _, b, _ in pairs]
        assert len(bs) == len(set(bs))
        assert len(pairs) <= min(len(groups["group_a"]), len(groups["group_b"]))

    def test_max_distance_enforced(self):
        table = make_synthetic_table(200, seed=6)
        groups = partition(table, SHA_RULE)
        pairs = match_nn(table, groups["group_b"], groups["group_a"], "conductor", 100.0)
        assert all(d <= 100.0 for _, _, d in pairs)

    def test_greedy_is_nearest_available(self):
        records = []
        conductors_a = [10_000, 20_000]
        conductors_b = [10_010, 10_020, 20_500]
        for i, c in enumerate(conductors_a + conductors_b):
            records.append(CurveRecord(f"{c}a{i}", f"{c}a", (0, 0, 0, 1, 1), c,
                                       0, 1, 1.0, 1.0, 1, 1, 1.0, 1.0))
        table = table_of(records)
        a = [table.labels.index(r.label) for r in records[:2]]
        b = [table.labels.index(r.label) for r in records[2:]]
        pairs = match_nn(table, a, b, "conductor", 1e6)
        by_a = {table.labels[pa]: (pb, d) for pa, pb, d in pairs}
        assert by_a[records[0].label][1] == 10.0
        assert by_a[records[1].label][1] == 500.0

    def test_l_value_matching(self):
        table = make_synthetic_table(300, seed=7)
        groups = partition(table, SHA_RULE)
        pairs = match_nn(table, groups["group_b"], groups["group_a"], "l_value", 0.05)
        assert all(d <= 0.05 for _, _, d in pairs)
        matrix = make_synthetic_matrix(table.labels, seed=7)
        paired = matched_rms(pairs, matrix)
        assert paired["n_pairs"] == len(pairs)
        assert paired["mean_distance"] == np.mean([d for _, _, d in pairs])
        assert paired["rms_group"] >= 0
        assert paired["rms_per_pair"] >= paired["rms_group"]  # Jensen

    def test_empty_group_raises(self):
        table = make_synthetic_table(10, seed=8)
        with pytest.raises(ValueError, match="matching requires two nonempty groups"):
            match_nn(table, [], table.rows, "conductor", 1.0)

    @pytest.mark.parametrize("max_distance", [0.0, 0.1, 3.0, 500.0, math.inf])
    @pytest.mark.parametrize("key", ["conductor", "l_value"])
    def test_agrees_with_the_brute_force_greedy(self, key, max_distance):
        rng = np.random.default_rng(11)
        for _ in range(60):
            table = tied_table(rng, int(rng.integers(2, 40)))
            perm = rng.permutation(len(table))
            cut = int(rng.integers(1, len(table)))
            group_a, group_b = perm[:cut], perm[cut:]
            keys = (table.conductors.astype(np.float64) if key == "conductor"
                    else table.l_values).tolist()
            got = match_nn(table, group_a, group_b, key, max_distance)
            assert list(got) == match_nn_oracle(keys, table.labels, group_a.tolist(),
                                                      group_b.tolist(), max_distance)

    @pytest.mark.parametrize("conductor, taken", [(101, "100b1"), (99, "100a1")])
    def test_equal_keys_below_take_the_last_label_above_the_first(self, conductor,
                                                                   taken):
        table = table_of([curve(label, c) for label, c in (
            ("100a1", 100), ("100b1", 100), (f"{conductor}c1", conductor))])
        a = [table.labels.index(f"{conductor}c1")]
        b = [table.labels.index("100a1"), table.labels.index("100b1")]
        (_, row_b, distance), = match_nn(table, a, b, "conductor", math.inf)
        assert (table.labels[row_b], distance) == (taken, 1.0)


class TestLvalueBand:
    def test_band_keeps_rank0_inside(self):
        table = make_synthetic_table(300, seed=9)
        band = (0.5, 1.5)
        sub = lvalue_band(table, band)
        assert all(0.5 <= r.l_value <= 1.5 and r.rank == 0 for r in records(sub))

    def test_full_band_is_identity_on_rank0(self):
        table = make_synthetic_table(100, seed=10)
        sub = lvalue_band(table, (0.0, float("inf")))
        assert len(sub) == len(table.filter(rank=0))

    def test_nested_bands_idempotent(self):
        table = make_synthetic_table(200, seed=11)
        outer = lvalue_band(table, (0.2, 3.0))
        inner = lvalue_band(outer, (0.5, 1.5))
        direct = lvalue_band(table, (0.5, 1.5))
        assert records(inner) == records(direct)

    def test_bad_band_rejected(self):
        table = make_synthetic_table(10, seed=12)
        with pytest.raises(ValueError):
            lvalue_band(table, (2.0, 1.0))


def banded(table, band=(0.1, 10.0)):
    return lvalue_band(table.filter(conductor_range=(11_000, 49_000)), band)


class TestTripleControl:
    def test_halves_split_at_median_period(self):
        table = make_synthetic_table(600, seed=13)
        halves = triple_control(banded(table))
        assert set(halves) == {"small_period", "large_period"}
        for groups in halves.values():
            assert min(len(members) for members in groups.values()) > 0
        periods = {half: table.real_periods[np.concatenate(list(groups.values()))]
                   for half, groups in halves.items()}
        assert periods["small_period"].max() < periods["large_period"].min()

    def test_sha_independent_traces_give_null_p(self):
        table = make_synthetic_table(800, seed=14)
        matrix = make_synthetic_matrix(table.labels, seed=14)
        halves = triple_control(banded(table))
        reports = permutation_test(list(halves.values()), matrix, n_shuffles=300, seed=1)
        assert all(rep["p_value"] > 1e-3 for rep in reports)

    def test_empty_intersection_raises(self):
        table = make_synthetic_table(50, seed=15)
        with pytest.raises(ValueError, match="no curves inside the band and conductor range"):
            triple_control(banded(table, (100.0, 200.0)))

    def test_an_empty_group_names_its_half(self):
        table = make_synthetic_table(50, seed=15, sha_choices=(1.0,))
        with pytest.raises(ValueError,
                           match="^small_period: group 'group_b' of rule 'sha' is empty$"):
            triple_control(banded(table))


class TestBsdRatios:
    def test_fixed_sha_groups_give_inverse_sha(self):
        table = make_synthetic_table(500, seed=16, sha_choices=(1.0, 4.0, 9.0))
        groups = {}
        for target, name in [(1, "sha1"), (4, "sha4"), (9, "sha9")]:
            groups[name] = [i for i, r in enumerate(records(table))
                            if round(r.sha_an) == target]
        ratios = bsd_group_ratios(table, groups)
        assert ratios["sha1"] == pytest.approx(1.0, rel=1e-9)
        assert ratios["sha4"] == pytest.approx(0.25, rel=1e-9)
        assert ratios["sha9"] == pytest.approx(1 / 9, rel=1e-9)

    def test_exact_record_with_unit_sha(self, known_table):
        one = [known_table.labels.index("11a1")]
        assert bsd_group_ratios(known_table, {"one": one})["one"] == \
            pytest.approx(1.0, rel=1e-6)

    def test_positive_rank_rejected(self, known_table):
        with pytest.raises(ValueError, match="positive rank"):
            bsd_group_ratios(known_table, {"bad": [known_table.labels.index("37a1")]})


class TestEulerCumsum:
    def test_identical_profiles_zero_delta(self):
        primes = default_prime_list(20).primes
        prof = np.linspace(-1, 1, 20)
        _, delta = euler_cumsum(primes, prof, prof)
        assert np.allclose(delta, 0.0)

    def test_antisymmetry(self):
        primes = default_prime_list(15).primes
        rng = np.random.default_rng(17)
        a = rng.normal(size=15)
        b = rng.normal(size=15)
        _, ab = euler_cumsum(primes, a, b)
        _, ba = euler_cumsum(primes, b, a)
        assert np.allclose(ab, -ba)

    def test_terminal_values_are_running_sums(self):
        primes = default_prime_list(10).primes
        cum, _ = euler_cumsum(primes, np.ones(10), np.zeros(10))
        expected = float(np.sum(1.0 / primes))
        assert cum["terminal"] == pytest.approx([expected, 0.0, -expected])

    def test_argmax_reported(self):
        primes = default_prime_list(10).primes
        diff = np.zeros(10)
        diff[3] = 5.0  # spike at the 4th prime
        cum, _ = euler_cumsum(primes, np.zeros(10), diff)
        assert cum["argmax_prime"] >= int(primes[3])


class TestInvariantCorrelation:
    def test_periods_affine_in_log_conductor_correlate_at_one(self):
        # the conductor enters as its log
        table = table_of([dataclasses.replace(r, real_period=0.5 + 0.1 * math.log(r.conductor))
                          for r in records(make_synthetic_table(100, seed=18))])
        assert invariant_correlation(table) == pytest.approx(1.0)

    def test_independent_noise_small(self):
        table = make_synthetic_table(2000, seed=19)
        r = invariant_correlation(table)
        assert abs(r) < 3 / np.sqrt(len(table))

    def test_needs_three_records(self):
        table = make_synthetic_table(2, seed=20)
        with pytest.raises(ValueError):
            invariant_correlation(table)
