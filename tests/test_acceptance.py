"""Acceptance suite: one test per exit criterion, one summary line each.

Criteria needing the full public curve dataset run only when the
MURMURLAB_DATASET environment variable points at a canonical curves CSV
(optionally with MURMURLAB_TRACE_CACHE at a prebuilt trace cache); they are
skipped otherwise, and every desk-scale criterion runs unconditionally.
"""

import hashlib
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from murmurlab.cli import RunConfig
from murmurlab.curves import CurveRecord, parse_curve_table
from murmurlab.lfunctions import (
    LSeries,
    hotelling_t2,
    hotelling_to_f,
    explicit_predict,
)
from murmurlab.stratify import (
    SHA_RULE,
    TABLE_RULES,
    partition,
    permutation_test,
    scale_scan,
)
from murmurlab.traces import (
    PrimeList,
    TraceMatrix,
    build_trace_matrix,
    default_prime_list,
    first_n_primes,
    load_trace_matrix,
    persist_trace_matrix,
)
from murmurlab.windows import murmuration_profile, savgol_detrend, welch_psd, \
    WindowSeries, sliding_window_series, residual_correlation
from murmurlab.diagnostics import moment_profile

from conftest import (
    TRACE_CACHE_ENV,
    lambda_critical,
    locate_zeros_with,
    full_dataset_path,
    make_synthetic_table,
    record_of,
    records,
    requires_dataset,
    table_of,
    twist_of_11a1,
)
from oracles import (
    afe_cut_residual,
    ap_oracle,
    random_nonsingular_model,
    synthetic_conductor,
)

MEAN_GAMMAS_SHA1 = np.array([0.606, 1.483, 2.306, 3.050, 3.732])
MEAN_GAMMAS_SHA4 = np.array([0.627, 1.446, 2.253, 3.026, 3.722])

TABLE3_RMS = {"tamagawa": 0.872, "sha": 0.630, "period": 0.597,
              "torsion": 0.456, "root_number": 1.759}


@pytest.fixture(scope="session")
def dataset_table():
    """Full-dataset curve table (session-cached, env-driven)."""
    path = full_dataset_path()
    if path is None:
        pytest.skip("no full dataset configured")
    with open(path, newline="") as fh:
        return parse_curve_table(fh).table


@pytest.fixture(scope="session")
def dataset_bundle(dataset_table):
    """Curves up to conductor 100000 and their aligned trace matrix.

    A cache at MURMURLAB_TRACE_CACHE keeps both, keyed by the dataset CSV.
    """
    csv_sha256 = hashlib.sha256(full_dataset_path().read_bytes()).hexdigest()
    cache = os.environ.get(TRACE_CACHE_ENV)
    if cache and Path(cache).exists():
        matrix = load_trace_matrix(cache)
        assert matrix.csv_sha256 == csv_sha256, f"{cache} holds another dataset's traces"
        return matrix.table, matrix
    below_100k = table_of(dataset_table.filter(conductor_range=(11, 100_000)))
    matrix = build_trace_matrix(below_100k, default_prime_list(RunConfig().primes))
    if cache:
        persist_trace_matrix(matrix, cache, csv_sha256)
    return below_100k, matrix


class TestCriterion1:
    def test_trace_oracle_equivalence(self, criterion):
        rng = np.random.default_rng(20_240_601)
        primes = [int(p) for p in first_n_primes(46)]  # all p <= 200
        assert primes[-1] == 199
        start = time.perf_counter()
        recs = []
        for i in range(100):
            model = random_nonsingular_model(rng)
            conductor = synthetic_conductor(model, primes)
            recs.append(CurveRecord(
                label=f"{conductor}a{i}", isogeny_class=f"{conductor}a",
                a_invariants=model, conductor=conductor, rank=0, root_number=1,
                real_period=1.0, regulator=1.0, tamagawa_product=1, torsion_order=1,
                sha_an=1.0, l_value=1.0))
        table = table_of(recs)
        matrix = build_trace_matrix(table, PrimeList(primes))
        mismatches = sum(
            int(matrix.traces[i, j]) != ap_oracle(rec.a_invariants, rec.conductor, p)
            for i, rec in enumerate(records(table)) for j, p in enumerate(primes))
        elapsed = time.perf_counter() - start
        ok = mismatches == 0 and elapsed < 30.0
        criterion(1, "character-sum a_p equals full enumeration "
                     "(100 random models, p <= 200)", ok,
                  f"elapsed {elapsed:.1f}s, mismatches {mismatches}")
        assert mismatches == 0
        assert elapsed < 30.0


class TestCriterion2:
    def test_hasse_bound_hard_assertion(self, criterion, known_table):
        tables = [known_table]
        tables.append(table_of([twist_of_11a1(d) for d in (13, 29, 53)]))
        violations = 0
        for table in tables:
            matrix = build_trace_matrix(table, default_prime_list(120))
            p = matrix.primes.primes.astype(float)
            bound = np.floor(2 * np.sqrt(p)).astype(np.int64)
            good_ok = np.abs(matrix.traces) <= np.where(matrix.bad_flags, 1,
                                                        bound[None, :])
            violations += int((~good_ok).sum())
        criterion(2, "Hasse bound holds at every good entry, bad entries in "
                     "{-1,0,1}", violations == 0, f"violations {violations}")
        assert violations == 0


class TestCriterion3:
    def test_known_curve_validation(self, criterion, known_table):
        rec = record_of(known_table, "11a1")
        expected = {2: -2, 3: -1, 5: 1, 7: -2, 11: 1, 13: 4}
        matrix = build_trace_matrix(table_of([rec]), PrimeList(list(expected)))
        oracle_ok = all(
            ap_oracle(rec.a_invariants, 11, p) == ap and matrix.traces[0, j] == ap
            for j, (p, ap) in enumerate(expected.items())
        )
        series = LSeries.from_curve(rec)
        # Lambda(1) = sqrt(N) / (2 pi) L(1)
        central = 2 * math.pi / math.sqrt(11) * lambda_critical(series, 0.0)
        rel = abs(central - rec.l_value) / rec.l_value
        ok = oracle_ok and rel < 1e-5
        criterion(3, "11a1 traces confirmed by enumeration oracle; central "
                     "L-value matches ingested to 1e-5",
                  ok, f"L rel err {rel:.2e}")
        assert oracle_ok
        assert rel < 1e-5


class TestCriterion4:
    @requires_dataset
    def test_antiphase_murmuration(self, criterion, dataset_bundle):
        table, matrix = dataset_bundle
        sub = table.filter(conductor_range=(11, 50_000))
        rank0 = sub.rows[sub.ranks == 0]
        rank1 = sub.rows[sub.ranks == 1]
        prof0 = murmuration_profile(rank0, matrix)
        prof1 = murmuration_profile(rank1, matrix)
        corr = float(np.corrcoef(prof0, prof1)[0, 1])
        ok = corr <= -0.45
        criterion(4, "rank-0 vs rank-1 murmuration profiles anti-phase "
                     "(conductor <= 50000)", ok, f"corr {corr:+.3f}")
        assert ok

    def test_antiphase_skip_marker(self, criterion):
        if full_dataset_path() is None:
            criterion(4, "rank-0 vs rank-1 anti-phase murmuration", None,
                      "requires MURMURLAB_DATASET")


class TestCriterion5:
    @requires_dataset
    def test_stratification_reproduction(self, criterion, dataset_bundle):
        table, matrix = dataset_bundle
        rank0 = table.filter(rank=0, conductor_range=(10_000, 50_000))
        in_range = table.filter(conductor_range=(10_000, 50_000))
        rank01 = in_range.subset(
            [i for i, r in enumerate(records(in_range)) if r.rank in (0, 1)]
        )
        full_slice = len(rank0) >= 50_000
        groupings = [partition(rank01 if rule.invariant == "root_number" else rank0,
                               rule).groups for rule in TABLE_RULES]
        reports = permutation_test(groupings, matrix, n_shuffles=10_000, seed=1)
        results = {rule.invariant: rep for rule, rep in zip(TABLE_RULES, reports)}
        every_p_ok = all(rep.p_value < 1e-3 for rep in results.values())
        if full_slice:
            rms_ok = all(
                abs(results[name].observed_rms - target) <= 0.2 * target
                for name, target in TABLE3_RMS.items()
            )
            ok = rms_ok and every_p_ok
            detail = ", ".join(f"{n}={results[n].observed_rms:.3f}"
                               for n in TABLE3_RMS)
        else:
            order = [results[n].observed_rms
                     for n in ("tamagawa", "sha", "period", "torsion")]
            ok = every_p_ok and all(a > b for a, b in zip(order, order[1:]))
            detail = "fallback ordering check"
        criterion(5, "rank-0 stratification separations reproduced with "
                     "permutation p < 1e-3", ok, detail)
        assert ok

    def test_stratification_skip_marker(self, criterion):
        if full_dataset_path() is None:
            criterion(5, "rank-0 stratification reproduction (10K-50K slice)",
                      None, "requires MURMURLAB_DATASET")


class TestCriterion6:
    def test_synthetic_power_law_recovery(self, criterion):
        from murmurlab.curves import CurveRecord

        n_per = 4000
        primes = default_prime_list(8)
        records, rows, windows = [], {}, []
        lo = 10_000
        for _ in range(9):
            hi = int(lo * 1.3)
            windows.append((lo, hi))
            center = math.sqrt(lo * hi)
            delta = 5.0 * center**-0.25
            k = int(round((n_per // 2) * delta))
            conductor = int(center)
            for i in range(n_per):
                sha, tag = (1.0, "a") if i < n_per // 2 else (4.0, "b")
                label = f"{conductor}{tag}{i}"
                records.append(CurveRecord(
                    label, f"{conductor}{tag}", (0, 0, 0, 1, 1), conductor,
                    0, 1, 1.0, 1.0, 1, 1, sha, sha))
                shifted = sha == 4.0 and i - n_per // 2 < k
                rows[label] = np.full(8, 1 if shifted else 0, dtype=np.int16)
            lo = int(lo * 1.35)
        table = table_of(records)
        traces = np.vstack([rows[lab] for lab in table.labels])
        matrix = TraceMatrix(tuple(table.labels), primes, traces,
                             np.zeros_like(traces, dtype=bool))
        scan = scale_scan(table, matrix, SHA_RULE, windows)
        ok = abs(scan["alpha"] - 0.25) <= 0.01 and scan["r_squared"] > 0.99
        criterion("6a", "synthetic RMS ~ N^-0.25 over 9 windows recovers the "
                        "exponent", ok,
                  f"alpha {scan['alpha']:.4f}, r2 {scan['r_squared']:.4f}")
        assert ok

    @requires_dataset
    def test_full_scale_sha_exponent(self, criterion, dataset_bundle):
        table, matrix = dataset_bundle
        scan = scale_scan(table.filter(rank=0), matrix, SHA_RULE, RunConfig().scan_windows)
        ok = abs(scan["alpha"] - 0.24) <= 0.06
        criterion("6b", "full-scale Sha-rule decay exponent in 0.24 +- 0.06",
                  ok, f"alpha {scan['alpha']:.3f}")
        assert ok

    def test_full_scale_exponent_skip_marker(self, criterion):
        if full_dataset_path() is None:
            criterion("6b", "full-scale Sha-rule decay exponent", None,
                      "requires MURMURLAB_DATASET")


class TestCriterion7:
    def test_permutation_calibration(self, criterion):
        rng = np.random.default_rng(7_777)
        primes = default_prime_list(12)
        pvals = []
        for run in range(200):
            n = 120
            labels = tuple(f"c{run}_{i}" for i in range(n))
            traces = rng.integers(-4, 5, size=(n, 12)).astype(np.int16)
            matrix = TraceMatrix(labels, primes, traces,
                                 np.zeros((n, 12), dtype=bool))
            rep = permutation_test([{"a": np.arange(60), "b": np.arange(60, n)}],
                                   matrix, n_shuffles=199, seed=run)[0]
            pvals.append(rep.p_value)
        ks = stats.kstest(pvals, "uniform")
        ok = ks.pvalue > 0.01
        criterion(7, "permutation p-values uniform on exchangeable synthetic "
                     "groups (200 runs, KS at 1%)", ok,
                  f"KS p {ks.pvalue:.3f}")
        assert ok


class TestCriterion8:
    def test_savgol_cubic_exactness(self, criterion):
        rng = np.random.default_rng(88)
        worst = 0.0
        for _ in range(20):
            coeffs = rng.uniform(-5, 5, size=4)
            x = np.linspace(-4, 4, 241)
            cubic = coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3
            series = WindowSeries(np.arange(241.0), cubic, np.ones(241, dtype=np.int64))
            res = savgol_detrend(series)
            scale = max(np.abs(cubic).max(), 1e-30)
            worst = max(worst, float(np.abs(res.values).max()) / scale)
        ok = worst < 1e-10
        criterion(8, "Savitzky-Golay residuals vanish on cubic inputs",
                  ok, f"worst relative residual {worst:.2e}")
        assert ok


class TestCriterion9:
    def test_welch_sanity(self, criterion):
        seg = 256
        f0 = 16 / seg
        x = np.sin(2 * np.pi * f0 * np.arange(4096))
        freqs, power = welch_psd(x, segment=seg)
        peak_ok = freqs[int(np.argmax(power))] == pytest.approx(f0)
        rng = np.random.default_rng(99)
        acc = None
        for _ in range(100):
            _, p = welch_psd(rng.normal(size=2048), segment=seg)
            acc = p if acc is None else acc + p
        acc /= 100
        interior = acc[1:-1]  # per-segment mean removal suppresses bin 0
        spread_db = 10 * math.log10(float(interior.max() / interior.min()))
        ok = bool(peak_ok and spread_db < 3.0)
        criterion(9, "Welch recovers the injected sinusoid bin; white noise "
                     "flat within 3 dB", ok, f"spread {spread_db:.2f} dB")
        assert peak_ok
        assert spread_db < 3.0


class TestCriterion10:
    def test_hotelling_calibration_and_conversion(self, criterion):
        rng = np.random.default_rng(10_000)
        n_sims = 10_000
        n, k = 30, 5
        draws = rng.normal(size=(n_sims, 2 * n, k))
        rejections = 0
        for i in range(n_sims):
            res = hotelling_t2(draws[i, :n], draws[i, n:])
            rejections += res["p"] <= 0.05
        rate = rejections / n_sims
        rate_ok = abs(rate - 0.05) <= 0.01
        f = hotelling_to_f(47.8, k=5, n1=1000, n2=1000)
        # 47.8 is itself a rounded statistic; the exact conversion gives
        # 9.541, matching the published F(5,1994) = 9.53 within its rounding
        conversion_ok = (f == pytest.approx(47.8 * 1994 / 9990, rel=1e-12)
                         and abs(f - 9.53) < 0.02)
        ok = rate_ok and conversion_ok
        criterion(10, "Hotelling null rejection rate 0.05 +- 0.01 (1e4 sims); "
                      "T2=47.8 converts to F(5,1994) = 9.53..9.55",
                  ok, f"rate {rate:.4f}, F {f:.4f}")
        assert rate_ok
        assert conversion_ok


class TestCriterion11:
    def test_zero_finder(self, criterion, known_table):
        series = LSeries.from_curve(record_of(known_table, "11a1"))
        zeros = locate_zeros_with(series, k=1, t_max=9.0)
        gamma1_err = abs(zeros.gammas[0] - 6.36261389)
        twist = twist_of_11a1(53)  # conductor 30899 <= 50000, root number +1
        twist_series = LSeries.from_curve(twist)
        start = time.perf_counter()
        twist_zeros = locate_zeros_with(twist_series, k=5, t_max=10.0)
        elapsed = time.perf_counter() - start
        fe_residual = afe_cut_residual(series, zeros.gammas[0])
        ok = (gamma1_err < 1e-3 and fe_residual < 1e-12
              and twist_zeros.complete and elapsed < 5.0)
        criterion(11, "first zero of 11a1 matches published tables to 1e-3; "
                      "functional equation at that zero holds to 1e-12 across "
                      "cut-offs 1 and 1.25; 5-zero search < 5 s at N <= 50000", ok,
                  f"gamma1 err {gamma1_err:.1e}, FE residual {fe_residual:.1e}, "
                  f"search {elapsed:.2f}s")
        assert gamma1_err < 1e-3
        assert fe_residual < 1e-12
        assert twist_zeros.complete and elapsed < 5.0


class TestCriterion12:
    def test_explicit_formula_sign_pattern(self, criterion):
        landmarks = np.array([5, 37, 251, 1009])
        # the observed profile is any non-constant one: only the prediction is checked
        _, pred = explicit_predict(MEAN_GAMMAS_SHA4, MEAN_GAMMAS_SHA1, landmarks,
                                   np.arange(4.0))
        signs = np.sign(pred)
        ok = bool(np.all(signs == np.array([1, 1, -1, -1])))
        criterion("12a", "five-zero prediction positive at p=5,37 and negative "
                         "at p=251,1009", ok,
                  "diffs " + ", ".join(f"{v:+.2f}" for v in pred))
        assert ok

    @requires_dataset
    def test_explicit_formula_correlation(self, criterion, dataset_bundle):
        table, matrix = dataset_bundle
        from murmurlab.confound import lvalue_band

        rank0 = table.filter(rank=0, conductor_range=(10_000, 50_000))
        banded = lvalue_band(rank0, (1.53, 2.84))
        part = partition(banded, SHA_RULE)
        prof_a = murmuration_profile(part.groups["group_a"], matrix)
        prof_b = murmuration_profile(part.groups["group_b"], matrix)
        observed = prof_b - prof_a
        pred, _ = explicit_predict(MEAN_GAMMAS_SHA4, MEAN_GAMMAS_SHA1,
                                   matrix.primes.primes, observed)
        ok = pred["correlation"] >= 0.2
        criterion("12b", "five-zero prediction correlates with the observed "
                         "Sha difference at r >= 0.2", ok, f"r {pred['correlation']:.3f}")
        assert ok

    def test_explicit_correlation_skip_marker(self, criterion):
        if full_dataset_path() is None:
            criterion("12b", "explicit-formula correlation vs observed Sha "
                             "difference", None, "requires MURMURLAB_DATASET")


class TestCriterion13:
    @requires_dataset
    def test_moment_diagnostics(self, criterion, dataset_bundle):
        table, matrix = dataset_bundle
        from murmurlab.confound import lvalue_band

        rank0 = table.filter(rank=0, conductor_range=(10_000, 50_000))
        banded = lvalue_band(rank0, (1.10, 3.28))
        part = partition(banded, SHA_RULE)
        prof_a = moment_profile(part.groups["group_a"], matrix)
        prof_b = moment_profile(part.groups["group_b"], matrix)
        ratio = prof_a.summary()["variance_over_p"] / prof_b.summary()[
            "variance_over_p"]
        rep = permutation_test([part.groups], matrix, n_shuffles=10_000, seed=13)[0]
        ok = abs(ratio - 1.0) <= 0.05 and rep.p_value < 1e-3
        criterion(13, "Sha groups: variance ratio 1.00 +- 0.05 with mean gap "
                      "p < 1e-3 (pure mean shift)", ok,
                  f"ratio {ratio:.4f}, p {rep.p_value:.2e}")
        assert ok

    def test_moment_skip_marker(self, criterion):
        if full_dataset_path() is None:
            criterion(13, "full-scale moment diagnostics (pure mean shift)",
                      None, "requires MURMURLAB_DATASET")

    def test_pure_mean_shift_machinery_synthetic(self):
        # machinery-level counterpart: an injected mean shift leaves the
        # variance ratio at 1 while the permutation test flags the gap
        from conftest import make_synthetic_matrix

        table = make_synthetic_table(1200, seed=131, sha_choices=(1.0, 4.0))
        part = partition(table, SHA_RULE)
        shift = {table.labels[i]: 1 for i in part.groups["group_b"]}
        matrix = make_synthetic_matrix(table.labels, seed=131, n_primes=32,
                                       mean_shift=shift)
        mean_ratio = np.mean(moment_profile(part.groups["group_a"], matrix).variance
                             / moment_profile(part.groups["group_b"], matrix).variance)
        rep = permutation_test([part.groups], matrix, n_shuffles=2_000, seed=13)[0]
        assert abs(mean_ratio - 1.0) < 0.1
        assert rep.p_value < 1e-3


class TestTable2Positivity:
    @requires_dataset
    def test_all_rank01_residual_correlations_positive(self, criterion,
                                                       dataset_table):
        table = dataset_table
        from murmurlab.curves import INVARIANT_IDS

        correlations = {}
        for invariant in INVARIANT_IDS:
            res = {}
            for rank in (0, 1):
                series = sliding_window_series(table, invariant, rank,
                                               RunConfig().window, RunConfig().step)
                res[rank] = savgol_detrend(series)
            correlations[invariant] = residual_correlation(res[0], res[1])
        ok = all(v > 0 for v in correlations.values())
        criterion("T2", "detrended rank-0/rank-1 invariant residual "
                        "correlations all positive", ok,
                  ", ".join(f"{k}={v:+.2f}" for k, v in correlations.items()))
        assert ok

    def test_positivity_skip_marker(self, criterion):
        if full_dataset_path() is None:
            criterion("T2", "qualitative residual-correlation positivity",
                      None, "requires MURMURLAB_DATASET")
