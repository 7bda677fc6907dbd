import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from murmurlab import diagnostics, traces
from murmurlab.diagnostics import (
    bad_prime_share,
    classify_reduction,
    crossover_scan,
    kolmogorov_sf,
    ks_2samp,
    moment_profile,
    satotate_ks,
)
from murmurlab.traces import (PrimeList, TraceMatrix, build_trace_matrix, first_n_primes,
                              load_trace_matrix, persist_trace_matrix)
from murmurlab.windows import murmuration_profile

from conftest import make_synthetic_matrix, make_synthetic_table, table_of
from oracles import classify_reduction_oracle


def sato_tate_matrix(n_curves, seed, n_primes=40, p_offset=200):
    """Synthetic traces drawn from the Sato-Tate angle law at large primes."""
    rng = np.random.default_rng(seed)
    primes = PrimeList(first_n_primes(p_offset + n_primes)[p_offset:])
    p = primes.primes.astype(np.float64)
    theta = np.empty((n_curves, len(p)))
    filled = 0
    need = theta.size
    samples = []
    while filled < need:
        cand = rng.uniform(0, np.pi, size=need)
        keep = rng.uniform(0, 1, size=need) < np.sin(cand) ** 2
        got = cand[keep]
        samples.append(got)
        filled += len(got)
    theta = np.concatenate(samples)[:need].reshape(n_curves, len(p))
    traces = np.rint(2 * np.sqrt(p)[None, :] * np.cos(theta)).astype(np.int16)
    bad = np.zeros_like(traces, dtype=bool)
    labels = tuple(f"st{i}" for i in range(n_curves))
    return labels, TraceMatrix(labels, primes, traces, bad)


class TestMomentProfile:
    def test_mean_matches_murmuration_profile(self):
        table = make_synthetic_table(50, seed=1)
        matrix = make_synthetic_matrix(table.labels, seed=1)
        _, mom = moment_profile(table.rows, matrix)
        prof = murmuration_profile(table.rows, matrix)
        assert np.allclose(mom["mean"], prof)

    def test_identical_rows_flag_shape_moments(self):
        primes = PrimeList(first_n_primes(6))
        row = np.arange(6, dtype=np.int16) % 3 - 1
        traces = np.tile(row, (5, 1))
        matrix = TraceMatrix(tuple(f"c{i}" for i in range(5)), primes, traces,
                             np.zeros((5, 6), dtype=bool))
        # the shape moments' means over primes are of no value at all
        with pytest.warns(RuntimeWarning, match="Mean of empty slice"):
            part, mom = moment_profile(np.arange(5), matrix)
        assert math.isnan(part["skewness"]) and math.isnan(part["excess_kurtosis"])
        assert np.all(np.asarray(mom["variance"]) == 0)
        assert np.all(np.isnan(mom["skewness"]))
        assert np.all(np.isnan(mom["excess_kurtosis"]))

    def test_undersized_group_rejected(self):
        table = make_synthetic_table(10, seed=2)
        matrix = make_synthetic_matrix(table.labels, seed=2)
        with pytest.raises(ValueError, match=">= 4"):
            moment_profile(np.arange(3), matrix)

    def test_moments_match_scipy_on_random_group(self):
        table = make_synthetic_table(40, seed=3)
        matrix = make_synthetic_matrix(table.labels, seed=3)
        part, mom = moment_profile(table.rows, matrix)
        rows = matrix.traces[table.rows].astype(float)
        assert np.allclose(mom["variance"], rows.var(axis=0, ddof=1))
        # the same estimators as scipy, to rounding
        np.testing.assert_allclose(mom["skewness"], stats.skew(rows, axis=0, bias=False),
                                   rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(
            mom["excess_kurtosis"], stats.kurtosis(rows, axis=0, bias=False, fisher=True),
            rtol=1e-13, atol=1e-15)
        # the report part is each column's mean over primes
        assert list(mom) == ["prime", *part]
        assert mom["prime"] == matrix.primes.primes.tolist()
        assert part == {name: np.mean(mom[name]) for name in part}

    def test_variance_ratio_near_unity_for_same_law(self):
        table = make_synthetic_table(600, seed=4)
        matrix = make_synthetic_matrix(table.labels, seed=4)
        ratio = np.divide(moment_profile(np.arange(300), matrix)[1]["variance"],
                          moment_profile(np.arange(300, 600), matrix)[1]["variance"])
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.1)


class TestSatoTate:
    def test_identical_pools_d_zero(self):
        labels, matrix = sato_tate_matrix(30, seed=5)
        rows = np.arange(len(labels))
        res = satotate_ks(rows, rows, matrix)
        assert res["D"] == 0.0
        assert res["n_a"] == res["n_b"] > 0

    def test_same_law_groups_indistinguishable(self):
        labels, matrix = sato_tate_matrix(200, seed=6)
        res = satotate_ks(np.arange(100), np.arange(100, 200), matrix)
        assert res["p"] > 0.01

    def test_pool_matches_sato_tate_density(self):
        # one-sample KS of pooled angles against the (2/pi) sin^2 law
        labels, matrix = sato_tate_matrix(300, seed=7)
        cols = matrix.primes.primes > 1000
        p = matrix.primes.primes[cols].astype(float)
        ratio = matrix.traces[:, cols] / (2 * np.sqrt(p))[None, :]
        theta = np.arccos(np.clip(ratio, -1, 1)).ravel()

        def sato_tate_cdf(t):  # of the density (2/pi) sin^2 on [0, pi]
            return (t - np.sin(t) * np.cos(t)) / math.pi

        res = stats.kstest(theta, sato_tate_cdf)
        assert res.pvalue > 0.01

    def test_angles_inside_range(self):
        labels, matrix = sato_tate_matrix(20, seed=8)
        res = satotate_ks(np.arange(10), np.arange(10, 20), matrix)
        assert 0 <= res["D"] <= 1

    def test_no_primes_above_cutoff(self):
        table = make_synthetic_table(10, seed=9)
        matrix = make_synthetic_matrix(table.labels, seed=9, n_primes=5)
        with pytest.raises(ValueError, match="p_min"):
            satotate_ks(np.arange(5), np.arange(5, 10), matrix)


#: effective sizes on both sides of the boundaries of kolmogorov_sf: n <= 140
#: takes the small-n rules, n = 100,001 Pelz-Good and a Smirnov sum of more
#: than one block
KS_SIZES = (3, 8, 20, 140, 141, 500, 2_500, 10_000, 100_001)


class TestKolmogorovAgainstScipy:
    def test_sf_matches_scipy_on_every_branch(self, monkeypatch):
        calls = []
        for name in ("_durbin_cdf", "_pelz_good_cdf", "_smirnov_sf",
                     "_log_factorial_over_power"):
            def recording(n, *args, _real=getattr(diagnostics, name), _name=name):
                calls.append((_name, n, *args))
                return _real(n, *args)

            monkeypatch.setattr(diagnostics, name, recording)
        ends = 0
        for n in KS_SIZES:
            xs = np.geomspace(0.4 / n, 1.0 - 0.5 / n, 400)
            got = np.array([kolmogorov_sf(n, float(x)) for x in xs])
            np.testing.assert_allclose(got, stats.kstwo.sf(xs, n), rtol=1e-12, atol=5e-14,
                                       err_msg=f"n = {n}")
            ends += np.any(n * xs <= 1) and np.any(n * xs >= n - 1)
        assert ends == len(KS_SIZES)  # both Ruben-Gambino closed forms
        names = {c[0] for c in calls}
        assert names == {"_durbin_cdf", "_pelz_good_cdf", "_smirnov_sf",
                         "_log_factorial_over_power"}
        smirnov = [c[1:] for c in calls if c[0] == "_smirnov_sf"]
        assert any(math.ceil(n - n * x) > diagnostics._SMIRNOV_BLOCK for n, x in smirnov)

    def test_two_sample_matches_scipy_asymp(self):
        rng = np.random.default_rng(12)
        for n_a, n_b, shift in ((5, 7, 0.0), (40, 90, 0.3), (1_000, 3_000, 0.05),
                                (20_000, 30_000, 0.02)):
            a = rng.normal(size=n_a)
            b = rng.normal(shift, 1.0, size=n_b)
            for pair in ((a, b), (np.round(a, 1), np.round(b, 1))):  # with ties
                d, p = ks_2samp(*pair)
                ref = stats.ks_2samp(*pair, method="asymp")
                assert d == float(ref.statistic)
                assert p == pytest.approx(float(ref.pvalue), rel=1e-12, abs=5e-14)

    def test_empty_sample_rejected(self):
        # the Sato-Tate samples are refused empty before they reach ks_2samp:
        # here every curve has bad reduction at 1,009, the one prime above p_min
        primes = PrimeList(first_n_primes(169))
        bad = np.zeros((4, len(primes)), dtype=bool)
        bad[:, -1] = True
        matrix = TraceMatrix(("a", "b", "c", "d"), primes,
                             np.zeros(bad.shape, dtype=np.int16), bad)
        with pytest.raises(ValueError, match="^empty Sato-Tate angle pool$"):
            satotate_ks(np.arange(2), np.arange(2, 4), matrix)


class TestCrossover:
    def _scan(self, values, width=diagnostics.CROSSOVER_SMOOTH_WIDTH,
              landmarks=diagnostics.CROSSOVER_LANDMARKS):
        with mock.patch.multiple(diagnostics, CROSSOVER_SMOOTH_WIDTH=width,
                                 CROSSOVER_LANDMARKS=landmarks):
            return crossover_scan(first_n_primes(len(values)), np.asarray(values, float))

    def test_clean_crossover_detected(self):
        values = np.concatenate([np.full(60, 0.2), np.full(140, -0.15)])
        report = self._scan(values)
        assert report["direction"] == "positive_to_negative"
        crossing_index = int(np.searchsorted(first_n_primes(200),
                                             report["crossing_prime"]))
        assert 55 <= crossing_index <= 66  # smoothing blurs the edge

    def test_all_positive_no_crossing(self):
        report = self._scan(np.full(50, 0.3))
        assert report["crossing_prime"] is None and report["direction"] is None

    def test_mirrored_input(self):
        values = np.concatenate([np.full(60, 0.2), np.full(140, -0.15)])
        up = self._scan(values)
        down = self._scan(-values)
        assert up["crossing_prime"] == down["crossing_prime"]
        assert down["direction"] == "negative_to_positive"
        assert down["landmarks"] == {k: -v for k, v in up["landmarks"].items()}

    def test_landmarks_report_raw_values(self):
        values = np.linspace(1, -1, 500)
        report = self._scan(values, landmarks=(5, 1009))
        primes = first_n_primes(500)
        idx5 = int(np.searchsorted(primes, 5))
        assert sorted(report["landmarks"]) == ["1009", "5"]
        assert report["landmarks"]["5"] == pytest.approx(values[idx5])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=1, max_size=30))
    def test_crossing_is_the_first_index_from_which_signs_stay_opposite(self, signs):
        # width 1 leaves the signs unsmoothed; the reference is the direct search
        report = self._scan(signs, width=1)
        signs, primes = np.array(signs), first_n_primes(len(signs))
        nonzero = np.flatnonzero(signs)
        expected = None
        if len(nonzero):
            initial = signs[nonzero[0]]
            expected = next((int(primes[i]) for i in range(len(signs))
                             if np.all(signs[i:] == -initial)), None)
        assert report["crossing_prime"] == expected
        assert (report["direction"] is None) == (expected is None)


class TestReduction:
    def test_11a1_split_multiplicative(self, known_table):
        eleven = known_table.filter(conductor_range=(11, 11))
        matrix = build_trace_matrix(eleven, PrimeList(first_n_primes(10)))
        _, entries = classify_reduction(matrix)
        assert ("11a1", 11, "split_mult") in entries

    def test_additive_twist_classified(self, known_table, curve_11a1):
        from conftest import twist_of_11a1

        twist = twist_of_11a1(53)
        table = table_of([twist])
        matrix = build_trace_matrix(table, PrimeList(first_n_primes(20)))
        _, entries = classify_reduction(matrix)
        assert (twist.label, 11, "split_mult") in entries
        assert (twist.label, 53, "additive") in entries

    def test_out_of_range_bad_trace_rejected(self, known_table, tmp_path):
        # classify_reduction reads matrices that the build or the cache load
        # made, and both hold every bad-prime trace to {-1, 0, 1}
        eleven = known_table.filter(conductor_range=(11, 11))
        matrix = build_trace_matrix(eleven, PrimeList(first_n_primes(10)))
        damaged = matrix.traces.copy()
        damaged[0, 4] = 5  # p = 11 divides N = 11
        path = tmp_path / "traces.bin"
        persist_trace_matrix(dataclasses.replace(matrix, traces=damaged), path, "00" * 32)
        with pytest.raises(ValueError, match="^curve 11a1: a_p=5 at p=11 violates the "
                                             "bad-prime range; remove "):
            load_trace_matrix(path)

    def test_first_out_of_range_entry_named_like_the_walk(self):
        # that check names the first entry outside in the order a walk,
        # curve by curve and prime by prime, meets it
        bad = np.array([[False, True, False, True],
                        [True, False, True, True],
                        [True, True, True, True]])
        values = np.array([[0, 1, 0, -1],
                           [0, 0, -2, 7],
                           [9, 1, 0, 0]], dtype=np.int16)
        with pytest.raises(ValueError) as got:
            traces._hasse_check(values, bad, first_n_primes(4), ("c0", "c1", "c2"))
        assert str(got.value) == "curve c1: a_p=-2 at p=5 violates the bad-prime range"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 10))
    def test_matches_the_walk_over_every_bad_prime(self, seed, n, m):
        # some rows without a bad prime, Tamagawa products of 1 and above
        rng = np.random.default_rng(seed)
        table = make_synthetic_table(n, seed=seed).subset(range(n))
        table.tamagawa_products[:] = rng.choice([1, 1, 2, 4], size=n)
        bad = rng.random((n, m)) < rng.uniform(0.0, 0.6)
        traces = np.where(bad, rng.integers(-1, 2, size=(n, m)),
                          rng.integers(-3, 4, size=(n, m))).astype(np.int16)
        matrix = TraceMatrix(table.labels, PrimeList(first_n_primes(m)), traces, bad, table)
        part, got = classify_reduction(matrix)
        entries, counts, fraction, classified, unclassifiable = \
            classify_reduction_oracle(matrix, table)
        assert got == entries
        assert part["type_counts"] == counts
        assert part["tamagawa_agreement"] == fraction or (
            math.isnan(fraction) and math.isnan(part["tamagawa_agreement"]))
        assert (part["n_classified"], part["n_unclassifiable"]) == \
            (classified, unclassifiable)

    def test_curve_without_listed_bad_primes_unclassifiable(self):
        table = make_synthetic_table(6, seed=11)
        matrix = make_synthetic_matrix(table.labels, seed=11)  # no bad flags
        part, entries = classify_reduction(dataclasses.replace(matrix, table=table))
        assert part["n_unclassifiable"] == 6
        assert entries == ()


class TestBadPrimeShare:
    def test_difference_only_at_bad_primes_gives_full_share(self):
        primes = PrimeList(first_n_primes(8))
        n = 10
        traces_a = np.zeros((n, 8), dtype=np.int16)
        traces_b = np.zeros((n, 8), dtype=np.int16)
        bad = np.zeros((n, 8), dtype=bool)
        bad[:, 2] = True
        traces_b[:, 2] = 1
        labels = tuple(f"a{i}" for i in range(n)) + tuple(f"b{i}" for i in range(n))
        matrix = TraceMatrix(labels, primes,
                             np.vstack([traces_a, traces_b]),
                             np.vstack([bad, bad]))
        share = bad_prime_share(np.arange(n), np.arange(n, 2 * n), matrix)
        assert share["share_percent"] == pytest.approx(100.0)
        assert share["masked_rms"] == 0.0 < share["full_rms"]

    def test_no_bad_primes_zero_share(self):
        table = make_synthetic_table(40, seed=12)
        matrix = make_synthetic_matrix(table.labels, seed=12)
        share = bad_prime_share(np.arange(20), np.arange(20, 40), matrix)
        assert share["share_percent"] == pytest.approx(0.0)
        assert share["masked_rms"] == share["full_rms"]

    def test_zero_full_rms_rejected(self):
        primes = PrimeList(first_n_primes(4))
        traces = np.ones((4, 4), dtype=np.int16)
        matrix = TraceMatrix(("a0", "a1", "b0", "b1"), primes, traces,
                             np.zeros((4, 4), dtype=bool))
        with pytest.raises(ValueError, match="zero full RMS"):
            bad_prime_share([0, 1], [2, 3], matrix)
