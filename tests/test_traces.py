import dataclasses
import errno
import gc
import hashlib
import math
import re
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from murmurlab import traces
from murmurlab.cli import RunConfig
from murmurlab.curves import NUMERIC_COLUMNS
from murmurlab.primes import first_n_primes, is_prime, sieve_up_to
from murmurlab.traces import (
    MAX_PRIME,
    PrimeList,
    build_trace_matrix,
    default_prime_list,
    dirichlet_coefficients,
    load_trace_matrix,
    persist_trace_matrix,
    short_weierstrass,
)

from conftest import TWIST_DS, records, table_of, twist_of_11a1
from oracles import (ap_oracle, extend_an, model_discriminant, random_nonsingular_model,
                     synthetic_conductor)

SMALL_PRIMES = [int(p) for p in sieve_up_to(200)]


def frobenius_trace(a_invariants, conductor, p):
    """a_p of one curve at one prime, from the kernel every trace comes from."""
    got, _ = traces._trace_columns([a_invariants], [conductor], [p], None)
    return int(got[0, 0])


class TestPrimeList:
    def test_default_is_first_500_ending_at_3571(self):
        # the CLI's default prime count
        primes = default_prime_list(RunConfig().primes)
        assert len(primes) == 500
        assert int(primes.primes[-1]) == 3571

    def test_rejects_non_primes(self):
        with pytest.raises(ValueError, match="not prime"):
            PrimeList(np.array([2, 3, 4]))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError, match="increasing"):
            PrimeList(np.array([3, 2]))


class TestFrobeniusTrace:
    def test_known_11a1_values(self, curve_11a1):
        expected = {2: -2, 3: -1, 5: 1, 7: -2, 13: 4}
        for p, ap in expected.items():
            assert frobenius_trace(curve_11a1.a_invariants, 11, p) == ap

    def test_11a1_bad_prime_split_multiplicative(self, curve_11a1):
        assert frobenius_trace(curve_11a1.a_invariants, 11, 11) == 1

    def test_against_enumeration_oracle_fixed_curves(self, known_table):
        for rec in records(known_table):
            for p in SMALL_PRIMES[:15]:
                assert frobenius_trace(rec.a_invariants, rec.conductor, p) == \
                    ap_oracle(rec.a_invariants, rec.conductor, p), (rec.label, p)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(SMALL_PRIMES))
    def test_against_enumeration_oracle_random_models(self, seed, p):
        rng = np.random.default_rng(seed)
        model = random_nonsingular_model(rng)
        conductor = synthetic_conductor(model, SMALL_PRIMES)
        assert frobenius_trace(model, conductor, p) == ap_oracle(model, conductor, p)

    def test_hasse_bound_random_models(self):
        rng = np.random.default_rng(99)
        for _ in range(25):
            model = random_nonsingular_model(rng)
            conductor = synthetic_conductor(model, SMALL_PRIMES)
            for p in SMALL_PRIMES:
                ap = frobenius_trace(model, conductor, p)
                if conductor % p:
                    assert abs(ap) <= 2 * np.sqrt(p)
                else:
                    assert ap in (-1, 0, 1)

    def test_quadratic_twist_identity(self, curve_11a1):
        # a_p(E_d) = (d|p) a_p(E) at good odd p; 0 at p | d; theory-level
        # cross-check of the whole character-sum path on a distinct curve
        d = 53
        twist = twist_of_11a1(d)
        base = curve_11a1.a_invariants
        for p in SMALL_PRIMES:
            if p == 2:
                continue
            got = frobenius_trace(twist.a_invariants, twist.conductor, p)
            if p == d:
                assert got == 0
                continue
            legendre = pow(d % p, (p - 1) // 2, p)
            legendre = -1 if legendre == p - 1 else legendre
            assert got == legendre * frobenius_trace(base, 11, p), p


class TestTraceMatrix:
    def test_single_curve_first_five_primes(self, known_table):
        matrix = build_trace_matrix(
            known_table.filter(conductor_range=(11, 11)).subset([0]),
            PrimeList(first_n_primes(5)),
        )
        assert list(matrix.traces[0]) == [-2, -1, 1, -2, 1]
        assert list(matrix.bad_flags[0]) == [False, False, False, False, True]

    def test_empty_table(self, known_table):
        empty = known_table.subset([])
        matrix = build_trace_matrix(empty, PrimeList(first_n_primes(5)))
        assert matrix.traces.shape == (0, 5)
        assert len(matrix.primes) == 5

    def test_isogeny_class_shares_good_prime_rows(self, known_table):
        eleven = known_table.filter(conductor_range=(11, 11))
        matrix = build_trace_matrix(eleven, PrimeList(first_n_primes(60)))
        rows = matrix.traces
        assert np.array_equal(rows[0], rows[1]) and np.array_equal(rows[0], rows[2])

    def test_max_prime_is_the_last_with_int16_hasse_bound(self):
        assert is_prime(MAX_PRIME) and math.isqrt(4 * MAX_PRIME) <= 32767
        assert not any(is_prime(q) for q in range(MAX_PRIME + 1, 2**28))
        assert math.isqrt(4 * 2**28) > 32767

    def test_prime_above_max_rejected_before_counting(self, known_table,
                                                      monkeypatch):
        def no_counting(*args):
            raise AssertionError("traces computed at an unsupported prime")

        # the kernel counts through these; its bound check must come first
        for counting in ("_chi_table", "_inverse_table", "_class_table", "_tiny_traces"):
            monkeypatch.setattr(traces, counting, no_counting)
        with pytest.raises(ValueError, match="supported maximum"):
            build_trace_matrix(known_table, PrimeList([268_435_459]))

    def test_coefficients_past_max_prime_rejected_before_counting(self, curve_11a1,
                                                                monkeypatch):
        def no_counting(*args):
            raise AssertionError("traces computed at an unsupported prime")

        monkeypatch.setattr(traces, "MAX_PRIME", 97)
        for counting in ("_chi_table", "_inverse_table", "_class_table", "_tiny_traces"):
            monkeypatch.setattr(traces, counting, no_counting)
        with pytest.raises(ValueError, match="prime 101 exceeds the supported maximum 97"):
            next(dirichlet_coefficients([curve_11a1.a_invariants], [11], [101], None))

    def test_block_edges_match_enumeration_oracle(self, known_table, monkeypatch):
        # 24-element blocks split the 6-curve table at every prime p >= 5:
        # 4 + 2 rows at p = 5, 3 + 3 at p = 7, 2 + 2 + 2 at p = 11, then 1 row
        assert len(known_table) == 6
        monkeypatch.setattr(traces, "_CHUNK_BUDGET", 24)
        primes = PrimeList(SMALL_PRIMES)
        matrix = build_trace_matrix(known_table, primes)
        for i in range(len(known_table)):
            model, conductor = known_table.a_invariants[i], int(known_table.conductors[i])
            for j, p in enumerate(SMALL_PRIMES):
                assert matrix.traces[i, j] == ap_oracle(model, conductor, p), \
                    (known_table.labels[i], p)
                assert matrix.bad_flags[i, j] == (conductor % p == 0)

    def test_prime_dividing_the_conductor_but_not_the_discriminant_refused(
            self, known_table):
        wrong = known_table.subset(range(len(known_table)))  # fresh columns
        assert model_discriminant(wrong.a_invariants[2]) % 7 and wrong.conductors[2] % 7
        wrong.conductors[2] *= 7
        message = f"curve {wrong.labels[2]}: p=7 divides the conductor but not the discriminant"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_trace_matrix(wrong, PrimeList(first_n_primes(8)))

    def test_model_not_minimal_at_a_good_prime_refused(self, curve_11a1):
        # 11a1's short model scaled by u = 5 is y^2 = x^3 mod 5, where counting
        # it gives a_5 = 0, not 11a1's a_5 = 1, inside the Hasse bound
        A, B = short_weierstrass(curve_11a1.a_invariants)
        scaled = (0, 0, 0, 5**4 * A, 5**6 * B)
        got, _ = traces._trace_columns([scaled], [11], [5], None)
        assert got[0, 0] == 0 and frobenius_trace(curve_11a1.a_invariants, 11, 5) == 1
        table = table_of([dataclasses.replace(curve_11a1, label="11a9",
                                                a_invariants=scaled)])
        message = "curve 11a9: p=5 divides the discriminant but not the conductor"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_trace_matrix(table, PrimeList(first_n_primes(5)))

    def test_matrix_matches_scalar_path(self, known_table):
        primes = PrimeList(first_n_primes(25))
        matrix = build_trace_matrix(known_table, primes)
        for rec in records(known_table):
            i = matrix.row_index(rec.label)
            for j, p in enumerate(primes.primes):
                assert matrix.traces[i, j] == frobenius_trace(
                    rec.a_invariants, rec.conductor, int(p)
                )


def _pinned_models():
    """400 seeded models: 250 random, 30 short models with three integer
    twists each (four rows of one twist class), 15 with j = 0, 15 with j = 1728."""
    rng = np.random.default_rng(7)
    models = [random_nonsingular_model(rng) for _ in range(250)]
    while len(models) < 370:
        a4, a6 = (int(v) for v in rng.integers(-20, 21, size=2))
        if 4 * a4**3 + 27 * a6**2 == 0:
            continue
        signs, sizes = rng.choice([-1, 1], size=3), rng.integers(2, 8, size=3)
        for lam in (1, *(int(s * k) for s, k in zip(signs, sizes))):
            models.append((0, 0, 0, lam**2 * a4, lam**3 * a6))
    for j_model in (lambda c: (0, 0, 0, 0, c), lambda c: (0, 0, 0, c, 0)):
        for c in rng.integers(1, 60, size=15) * rng.choice([-1, 1], size=15):
            models.append(j_model(int(c)))
    return models


class TestKernelPinned:
    def test_traces_and_flags_bit_identical_to_the_per_curve_kernel(self):
        # digests recorded from the kernel that summed every curve on its own;
        # conductor |disc| keeps p | N <=> p | disc, so the bad flags are honest
        models = _pinned_models()
        conductors = [abs(model_discriminant(m)) for m in models]
        got, bad = traces._trace_columns(models, conductors, first_n_primes(200), None)
        assert got.shape == (400, 200)
        assert hashlib.sha256(got.astype("<i2").tobytes()).hexdigest() == \
            "7aeba80ff02ab76e17f9b9ac5f22a1dfb144afed377b613402e43628601de31b"
        assert hashlib.sha256(bad.tobytes()).hexdigest() == \
            "8df84899d8aeff8072e3d49c86019fb057e47ec619e09adb7733d365b83dad12"


def _moved(model, rng):
    """The model moved by x -> x + r, y -> y + s x + t, with r, s, t up to 2^70.

    The same curve: c4, c6 and the discriminant stay, the a-invariants pass 2^63.
    """
    a1, a2, a3, a4, a6 = model
    r, s, t = (int(v) * 2**int(e) for v, e in zip(rng.integers(-9, 10, size=3),
                                                  rng.integers(0, 71, size=3)))
    return (a1 + 2 * s, a2 - s * a1 + 3 * r - s * s, a3 + r * a1 + 2 * t,
            a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t,
            a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1)


def _legendre(a: int, p: int) -> int:
    v = pow(a % p, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


class TestTwistClassKernel:
    """One character sum per twist class and prime, scattered back with chi(B/A)."""

    def test_zero_coefficients_match_enumeration_oracle(self):
        twist = twist_of_11a1(37)
        models = [(0, 0, 0, 0, 1), (0, 0, 1, 0, -7),  # j = 0: A = 0
                  (0, 0, 0, -1, 0), (0, 0, 0, 3, 0),  # j = 1728: B = 0
                  (0, 0, 0, 5, 5),  # y^2 = x^3 mod 5: additive, A = B = 0 mod 5
                  twist.a_invariants,  # additive at 37, A = B = 0 mod 37
                  (0, -1, 1, -10, -20)]  # 11a1
        short = [short_weierstrass(m) for m in models]
        assert [A for A, _ in short[:2]] == [0, 0] and [B for _, B in short[2:4]] == [0, 0]
        conductors = [synthetic_conductor(m, SMALL_PRIMES) for m in models]
        for row, p in ((4, 5), (5, 37)):
            assert short[row][0] % p == short[row][1] % p == conductors[row] % p == 0
        got, _ = traces._trace_columns(models, conductors, SMALL_PRIMES, None)
        for i, model in enumerate(models):
            for j, p in enumerate(SMALL_PRIMES):
                assert got[i, j] == ap_oracle(model, conductors[i], p), (model, p)

    def test_shared_classes_at_block_edges_match_enumeration_oracle(self, monkeypatch):
        # four short models and four integer twists of each, interleaved so that
        # rows of one class sit in different 24-element blocks
        monkeypatch.setattr(traces, "_CHUNK_BUDGET", 24)
        rng = np.random.default_rng(11)
        bases = []
        while len(bases) < 4:
            a4, a6 = (int(v) for v in rng.integers(-15, 16, size=2))
            if 4 * a4**3 + 27 * a6**2:
                bases.append((a4, a6))
        models = [(0, 0, 0, lam**2 * a4, lam**3 * a6)
                  for lam in (1, 2, -3, 5, 7) for a4, a6 in bases]
        conductors = [synthetic_conductor(m, SMALL_PRIMES) for m in models]
        got, bad = traces._trace_columns(models, conductors, SMALL_PRIMES, None)
        for i, model in enumerate(models):
            for j, p in enumerate(SMALL_PRIMES):
                assert got[i, j] == ap_oracle(model, conductors[i], p), (model, p)
                assert bad[i, j] == (conductors[i] % p == 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-30, 30), st.integers(-30, 30),
           st.integers(-40, 40).filter(bool), st.sampled_from(SMALL_PRIMES[2:]))
    def test_twist_by_lambda_multiplies_the_trace_by_chi(self, a4, a6, lam, p):
        assume(4 * a4**3 + 27 * a6**2 != 0)
        model = (0, 0, 0, a4, a6)
        twisted = (0, 0, 0, lam**2 * a4, lam**3 * a6)
        conductors = [synthetic_conductor(m, [p]) for m in (model, twisted)]
        got, _ = traces._trace_columns([model, twisted], conductors, [p], None)
        assert got[0, 0] == ap_oracle(model, conductors[0], p)
        assert got[1, 0] == _legendre(lam, p) * got[0, 0]

    @pytest.fixture()
    def rows_summed(self, monkeypatch):
        """Rows the blocked character sum takes at each prime."""
        counts = {}
        real = traces._character_sums

        def counting(a, b, p, chi):
            counts[p] = counts.get(p, 0) + len(a)
            return real(a, b, p, chi)

        monkeypatch.setattr(traces, "_character_sums", counting)
        return counts

    def test_twists_of_11a1_take_one_sum_per_prime(self, curve_11a1, rows_summed):
        # E_d has the short model (d^2 A, d^3 B) of 11a1, one class wherever
        # p divides none of A, B and d; bad p = 11 included
        A, B = short_weierstrass(curve_11a1.a_invariants)
        assert (A, B) == (-27 * 496, -54 * 20008)  # 496 = 2^4 31, 20008 = 2^3 41 61
        twists = [twist_of_11a1(d) for d in TWIST_DS]
        traces._trace_columns([t.a_invariants for t in twists],
                              [t.conductor for t in twists], SMALL_PRIMES, None)
        product = math.prod(abs(d) for d in TWIST_DS)
        shared = [p for p in SMALL_PRIMES if p >= 5 and product % p and A * B % p]
        assert 11 in shared and len(shared) == 26
        assert {p: rows_summed[p] for p in shared} == {p: 1 for p in shared}

    def test_never_more_than_3p_minus_2_sums(self, rows_summed):
        # every residue pair (a4, a6) mod 5, 7, 11 and 13: exactly p - 1 classes
        # (r, r), p pairs (0, b) and p - 1 pairs (a, 0)
        models = [(0, 0, 0, a4, a6) for a4 in range(14) for a6 in range(14)
                  if a4 or a6]
        conductors = [abs(model_discriminant(m)) for m in models]
        traces._trace_columns(models, conductors, SMALL_PRIMES, None)
        assert {p: rows_summed[p] for p in (5, 7, 11, 13)} == \
            {p: 3 * p - 2 for p in (5, 7, 11, 13)}
        assert all(rows_summed[p] <= min(3 * p - 2, len(models))
                   for p in SMALL_PRIMES[2:])

    def test_tiny_primes_enumerate_each_reduction_once(self, monkeypatch):
        columns = []
        real = traces._tiny_traces

        def counting(residues, bad, p):
            columns.extend((tuple(r), b, p) for r, b in zip(residues.T.tolist(), bad.tolist()))
            return real(residues, bad, p)

        monkeypatch.setattr(traces, "_tiny_traces", counting)
        models = [m for m in ((a1, 0, 0, a4, a6) for a1 in (0, 1) for a4 in range(-6, 6)
                              for a6 in range(-6, 6)) if model_discriminant(m)]
        conductors = [synthetic_conductor(m, [2, 3]) for m in models]
        got, _ = traces._trace_columns(models, conductors, [2, 3], None)
        reductions = {(tuple(v % p for v in m), N % p == 0, p)
                 for m, N in zip(models, conductors) for p in (2, 3)}
        assert len(columns) == len(set(columns)) < len(models) and set(columns) == reductions
        for i, model in enumerate(models):
            assert list(got[i]) == [ap_oracle(model, conductors[i], p) for p in (2, 3)]

    def test_tiny_primes_match_enumeration_oracle_past_int64(self):
        # random models moved by x -> x + r, y -> y + s x + t with r, s, t up
        # to 2^70, so a-invariants pass 2^63; conductors even or divisible by
        # 3 set bad flags whether or not the model is bad there
        rng = np.random.default_rng(23)
        models, conductors = [], []
        for i in range(60):
            models.append(_moved(random_nonsingular_model(rng), rng))
            conductors.append(int(rng.choice([1, 2, 3, 6, 5, 7])) * (11 + i))
        assert max(abs(v) for m in models for v in m) >= 2**63
        got, bad = traces._trace_columns(models, conductors, [2, 3], None)
        for i, model in enumerate(models):
            assert list(got[i]) == [ap_oracle(model, conductors[i], p) for p in (2, 3)]
            assert list(bad[i]) == [conductors[i] % p == 0 for p in (2, 3)]

    @pytest.mark.parametrize("as_int64", [False, True], ids=["python-ints", "int64-scalars"])
    def test_short_models_past_int64_match_enumeration_oracle(self, as_int64):
        # models scaled by u = 2^9 (a_i u^i), minimal at every p >= 5, whose
        # short models pass 2^63: multi-limb residues at 5 <= p <= 47, where
        # conductors keep p | N <=> p | disc.  Moved as above, the a-invariants
        # pass 2^63 too; as NumPy int64 scalars they fit, but A and B do not
        rng = np.random.default_rng(29)
        primes = [p for p in SMALL_PRIMES if 5 <= p <= 47]
        models = [tuple(a * 2 ** (9 * i) for a, i in zip(random_nonsingular_model(rng),
                                                        (1, 2, 3, 4, 6)))
                  for _ in range(30)]
        if as_int64:
            supplied = [tuple(map(np.int64, m)) for m in models]
        else:
            models = supplied = [_moved(m, rng) for m in models]
            assert max(abs(v) for m in models for v in m) >= 2**63
        assert max(abs(v) for m in models for v in short_weierstrass(m)) >= 2**63
        conductors = [synthetic_conductor(m, primes) for m in models]
        got, bad = traces._trace_columns(supplied, conductors, primes, None)
        for i, model in enumerate(models):
            assert list(got[i]) == [ap_oracle(model, conductors[i], p) for p in primes]
            assert list(bad[i]) == [conductors[i] % p == 0 for p in primes]

    @pytest.fixture()
    def tables_built(self, monkeypatch):
        """Class tables the kernel builds at each prime."""
        counts = {}
        real = traces._class_table

        def counting(p, chi, inverse):
            counts[p] = counts.get(p, 0) + 1
            return real(p, chi, inverse)

        monkeypatch.setattr(traces, "_class_table", counting)
        return counts

    def test_twist_batches_build_no_table(self, tables_built):
        # one class a prime: the traces build and the coefficients alike
        twists = [twist_of_11a1(d) for d in TWIST_DS]
        models, conductors = [t.a_invariants for t in twists], [t.conductor for t in twists]
        traces._trace_columns(models, conductors, SMALL_PRIMES, None)
        list(dirichlet_coefficients(models, conductors, [1000] * len(twists), None))
        assert tables_built == {}

    def test_every_residue_pair_builds_one_table(self, tables_built, rows_summed):
        # the 52 classes (r, r) share one table; the 104 pairs (0, b) and (a, 0)
        # are summed one by one
        p = 53
        models = [(0, 0, 0, a4, a6) for a4 in range(p) for a6 in range(p) if a4 or a6]
        got, _ = traces._trace_columns(models, [1] * len(models), [p], None)
        assert tables_built == {p: 1} and rows_summed == {p: 2 * (p - 1)}
        short = np.array([short_weierstrass(m) for m in models]) % p
        direct = traces._character_sums(short[:, 0], short[:, 1], p, traces._chi_table(p))
        assert np.array_equal(got[:, 0], -direct)

    def test_coefficients_of_curves_together_equal_each_alone(self, curve_11a1):
        # 11a1 stops at 60 and 37a1 at 200
        models, conductors = [curve_11a1.a_invariants, (0, 0, 1, -1, 0)], [11, 37]
        both = list(dirichlet_coefficients(models, conductors, [60, 200], None))
        assert [len(an) - 1 for an in both] == [60, 200]
        for an, model, N, n_max in zip(both, models, conductors, [60, 200]):
            alone = next(dirichlet_coefficients([model], [N], [n_max], None))
            assert np.array_equal(an, alone)


TABLE_PRIMES = [p for p in sieve_up_to(500).tolist() if p >= 5] + [3571, 10007]


class TestClassTable:
    """Every sum (r, r) at one prime from one correlation, and the exact residues."""

    def test_table_equals_the_sums_it_replaces(self):
        for p in TABLE_PRIMES:
            chi, r = traces._chi_table(p), np.arange(p)
            table = traces._class_table(p, chi, traces._inverse_table(p))
            assert np.array_equal(table, traces._character_sums(r, r, p, chi)), p

    def test_character_and_inverse_tables(self):
        for p in TABLE_PRIMES:
            v = np.arange(p)
            chi, inverse = traces._chi_table(p), traces._inverse_table(p)
            euler = np.array([_legendre(int(x), p) for x in v])
            assert np.array_equal(chi, euler), p
            assert inverse[0] == 0 and np.all(v[1:] * inverse[1:] % p == 1), p

    def test_perturbed_correlation_fails_the_integrality_guard(self, monkeypatch):
        real = np.fft.irfft

        def perturbed(*args, **kwargs):
            out = real(*args, **kwargs)
            out[7] += 0.3
            return out

        monkeypatch.setattr(np.fft, "irfft", perturbed)
        p = 101
        with pytest.raises(ValueError, match="p=101 are not integers"):
            traces._class_table(p, traces._chi_table(p), traces._inverse_table(p))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2**200, 2**200), st.integers(-2**200, 2**200)),
                    max_size=6),
           st.sampled_from([5, 7, 53, 3571, 10007, 2**27 - 39, MAX_PRIME]))
    @example([(2**62 - 1, 1 - 2**62), (2**62, -2**62), (2**124 + 1, -2**124), (0, -1)],
             MAX_PRIME)
    @example([(-2**200, 2**200)], 5)
    def test_limb_residues_equal_python_modulo(self, models, p):
        columns = np.array(models, dtype=object).reshape(-1, 2).T
        a, b = traces._residues(traces._limbs(columns), p)
        assert a.tolist() == [A % p for A, _ in models]
        assert b.tolist() == [B % p for _, B in models]

    def test_coefficients_leave_no_character_table_alive(self, curve_11a1, monkeypatch):
        # one table a prime, built in the kernel and dropped after it: 1,227
        # primes 5 <= p <= 10,000 leave none behind
        built = []
        real = traces._chi_table

        def tracked(p):
            chi = real(p)
            built.append(weakref.ref(chi))
            return chi

        monkeypatch.setattr(traces, "_chi_table", tracked)
        list(dirichlet_coefficients([curve_11a1.a_invariants], [11], [10_000], None))
        gc.collect()
        assert len(built) == 1227
        assert sum(ref() is not None for ref in built) == 0


class TestExtendAn:
    def test_known_11a1_prime_powers(self, curve_11a1):
        an = next(dirichlet_coefficients([curve_11a1.a_invariants], [11], [16], None))
        assert an[1] == 1
        assert an[4] == 2    # a_2^2 - 2
        assert an[6] == 2    # a_2 a_3
        assert an[9] == -2   # a_3^2 - 3
        # full q-expansion through n = 15 for the level-11 newform
        assert list(an[1:16]) == [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2, 4, 4, -1]

    def test_multiplicativity_exhaustive(self, curve_11a1):
        n_max = 10_000
        an = next(dirichlet_coefficients([curve_11a1.a_invariants], [11], [n_max], None))
        import math

        for m in range(2, 101):
            for n in range(2, n_max // m + 1):
                if math.gcd(m, n) == 1:
                    assert an[m * n] == an[m] * an[n]

    def test_known_traces_give_the_counted_coefficients(self):
        # a matrix over the first 30 primes (to 113) covers part of n_max = 600
        # and the first 120 (to 659) all of it; either way nothing changes
        twists = [twist_of_11a1(d) for d in TWIST_DS[:6]]
        models, conductors = [t.a_invariants for t in twists], [t.conductor for t in twists]
        n_maxes = [600, 300, 600, 50, 1, 450]
        counted = list(dirichlet_coefficients(models, conductors, n_maxes, None))
        for count in (30, 120):
            known, _ = traces._trace_columns(models, conductors, first_n_primes(count), None)
            got = list(dirichlet_coefficients(models, conductors, n_maxes, known))
            assert all(np.array_equal(a, b) for a, b in zip(got, counted, strict=True))

    def test_bad_prime_powers_multiply(self, curve_11a1):
        an = next(dirichlet_coefficients([curve_11a1.a_invariants], [11], [121], None))
        assert an[121] == 1  # a_11 = +1, so a_{11^2} = 1

    @pytest.mark.parametrize("curves_per_block", [1, 3, None])
    def test_sieve_equals_the_per_n_recursion(self, curves_per_block, monkeypatch):
        # conductors divisible by p^e of every small prime, so bad a_p in
        # {-1, 0, 1} meet p^e || n for e >= 2; n_max differs per curve, down to
        # 1; known covers every prime, so no model is read
        n_maxes = [1, 700, 64, 2, 500, 729, 1000, 9, 343, 128, 31, 999]
        if curves_per_block:
            monkeypatch.setattr(traces, "_COEFFICIENT_BUDGET",
                                curves_per_block * (max(n_maxes) + 1))
        rng = np.random.default_rng(28)
        for _ in range(3):
            conductors = [math.prod(p ** int(rng.integers(0, 3)) for p in (2, 3, 5, 7, 11, 31))
                          for _ in n_maxes]
            known = random_traces(rng, conductors, sieve_up_to(max(n_maxes)))
            got = list(dirichlet_coefficients([None] * len(n_maxes), conductors, n_maxes,
                                              known))
            primes = sieve_up_to(max(n_maxes)).tolist()
            for an, row, N, n_max in zip(got, known, conductors, n_maxes, strict=True):
                assert np.array_equal(an, extend_an(dict(zip(primes, row.tolist())), N, n_max))

    def test_coefficients_hold_one_block(self):
        # 500 curves at n_max 20,000 hold 80 MB of coefficients, one block 8 MiB;
        # the bound adds a block for the sieve's row gathers, and the trace table
        n_max, count = 20_000, 500
        known = random_traces(np.random.default_rng(5), [20_011] * count, sieve_up_to(n_max))
        tracemalloc.start()
        try:
            for an in dirichlet_coefficients([None] * count, [20_011] * count,
                                             [n_max] * count, known):
                assert an.shape == (n_max + 1,)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 8 * traces._COEFFICIENT_BUDGET + known.nbytes


def random_traces(rng, conductors, primes):
    """int16 traces of each curve at primes: within the Hasse bound, in {-1, 0, 1} at p | N."""
    bound = np.floor(2.0 * np.sqrt(primes)).astype(np.int64)
    bad = np.array(conductors)[:, None] % primes == 0
    limit = np.where(bad, 1, bound)
    return rng.integers(-limit, limit + 1).astype(np.int16)


#: the SHA-256 a cache records as the CSV's: any 32 bytes
CSV_SHA256 = hashlib.sha256(b"curves").hexdigest()


class TestPersistence:
    def test_round_trip_bit_exact(self, known_table, tmp_path):
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(30)))
        path = tmp_path / "traces.bin"
        persist_trace_matrix(matrix, path, CSV_SHA256)
        loaded = load_trace_matrix(path)
        assert loaded.curve_labels == matrix.curve_labels
        assert np.array_equal(loaded.primes.primes, matrix.primes.primes)
        assert np.array_equal(loaded.traces, matrix.traces)
        assert np.array_equal(loaded.bad_flags, matrix.bad_flags)

    def test_cache_bytes_are_pinned(self, known_table, tmp_path):
        # the layout of cache version 2, written through a temporary file that
        # does not outlive the write
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(10)))
        path = tmp_path / "traces.bin"
        persist_trace_matrix(matrix, path, CSV_SHA256)
        assert list(tmp_path.iterdir()) == [path]
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "c1937abc3465af5888318ed576c0c0353a3848bf1d12cb5a2eb99672a8123b6a")

    def test_a_write_that_fails_partway_leaves_no_file(self, known_table, tmp_path,
                                                       monkeypatch):
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(10)))
        layout = traces._layout

        def disk_full_after_three_sections(*args):
            yield from layout(*args)[:3]
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(traces, "_layout", disk_full_after_three_sections)
        path = tmp_path / "traces.bin"
        with pytest.raises(OSError, match="No space left"):
            persist_trace_matrix(matrix, path, CSV_SHA256)
        assert list(tmp_path.iterdir()) == []
        # a file already at the path is replaced only by a whole cache
        path.write_bytes(b"kept")
        with pytest.raises(OSError, match="No space left"):
            persist_trace_matrix(matrix, path, CSV_SHA256)
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"kept"

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="^bad magic b'NOPE'$"):
            load_trace_matrix(path)

    def test_truncated_file(self, known_table, tmp_path):
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(10)))
        path = tmp_path / "traces.bin"
        persist_trace_matrix(matrix, path, CSV_SHA256)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 3])
        with pytest.raises(ValueError, match="^cache size does not match its header; remove"):
            load_trace_matrix(path)

    def test_trailing_garbage(self, known_table, tmp_path):
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(10)))
        path = tmp_path / "traces.bin"
        persist_trace_matrix(matrix, path, CSV_SHA256)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError, match="^cache size does not match its header; remove"):
            load_trace_matrix(path)

    def test_table_round_trips_column_by_column(self, known_table, tmp_path):
        # 11a1 moved by x -> x + 2^30 is 11a1 again, with a6 past 2^63: its
        # a-invariants go to the cache as decimal text
        r = 2**30
        model = (0, -1 + 3 * r, 1, -10 - 2 * r + 3 * r * r, -20 - 10 * r - r * r + r**3)
        assert model[4] >= 2**63
        big = dataclasses.replace(known_table.record(0), label="11a9", a_invariants=model)
        table = table_of([*records(known_table), big])
        for t in (known_table, table):
            matrix = build_trace_matrix(t, PrimeList(SMALL_PRIMES))
            path = tmp_path / f"{len(t)}.bin"
            persist_trace_matrix(matrix, path, CSV_SHA256)
            cache = load_trace_matrix(path)
            assert cache.csv_sha256 == CSV_SHA256
            assert cache.table.labels == t.labels == cache.curve_labels
            assert cache.table.a_invariants.dtype == object
            assert cache.table.a_invariants.tolist() == t.a_invariants.tolist()
            assert all(type(v) is int for v in cache.table.a_invariants.ravel())
            for column in NUMERIC_COLUMNS:
                got, want = getattr(cache.table, column), getattr(t, column)
                assert got.dtype == want.dtype and np.array_equal(got, want), column
            assert np.array_equal(cache.table.rows, t.rows)
            assert records(cache.table) == records(t)
            assert np.array_equal(cache.traces, matrix.traces)
        row = cache.traces[table.labels.index("11a9")]
        assert list(row) == [ap_oracle(model, 11, p) for p in SMALL_PRIMES]
        assert np.array_equal(row, cache.traces[table.labels.index("11a1")])

    def test_version_1_cache_asks_for_a_rebuild(self, tmp_path):
        path = tmp_path / "v1.bin"
        path.write_bytes(b"MURM" + struct.pack("<IQI", 1, 0, 1) + struct.pack("<I", 2))
        with pytest.raises(ValueError,
                           match="unsupported cache version 1 .*rebuild it with `traces`"):
            load_trace_matrix(path)


class TestCacheFuzz:
    """A damaged cache ends in the loader's own errors, never a crash."""


    @pytest.fixture(scope="class")
    def cache(self, known_table, tmp_path_factory):
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(6)))
        path = tmp_path_factory.mktemp("fuzz") / "traces.bin"
        persist_trace_matrix(matrix, path, CSV_SHA256)
        return path, path.read_bytes()

    def test_every_truncation_rejected(self, cache):
        path, data = cache
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(ValueError):
                load_trace_matrix(path)

    def test_every_bit_flip_refused(self, cache):
        path, raw = cache
        for bit in range(8 * len(raw)):
            damaged = bytearray(raw)
            damaged[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(damaged))
            with pytest.raises(ValueError):
                load_trace_matrix(path)

    def test_trace_outside_hasse_bound_rejected(self, cache, known_table):
        path, raw = cache
        n, m = len(known_table), 6
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(m)))
        trace_block = raw.index(matrix.traces.astype("<i2").tobytes())
        row = known_table.labels.index("11a1")
        damaged = bytearray(raw)
        damaged[trace_block + 2 * row * m + 1] ^= 0x40  # a_2: -2 (0xfffe) -> 0xbffe
        damaged[-32:] = hashlib.sha256(damaged[:-32]).digest()  # a digest that fits
        path.write_bytes(bytes(damaged))
        with pytest.raises(ValueError, match="11a1: a_p=-16386 at p=2 violates the Hasse "
                                              "bound") as refused:
            load_trace_matrix(path)
        assert str(refused.value).endswith(f"; remove {path} and rebuild it with `traces`")

    def test_every_damage_names_the_fix(self, cache):
        path, raw = cache
        flipped = bytearray(raw)
        flipped[len(raw) // 2] ^= 1
        for damaged, problem in ((raw[:40], "truncated cache while reading the header"),
                                 (raw[:-40], "truncated cache while reading "),
                                 (raw + bytes(8), "cache size does not match its header"),
                                 (flipped, "cache does not match its own SHA-256")):
            path.write_bytes(damaged)
            with pytest.raises(ValueError, match=f"^{re.escape(problem)}") as refused:
                load_trace_matrix(path)
            assert str(refused.value).endswith(f"; remove {path} and rebuild it with `traces`")

    def test_huge_prime_count_rejected_before_reading(self, cache):
        path, raw = cache
        damaged = bytearray(raw)
        struct.pack_into("<I", damaged, 16, 2**31)
        path.write_bytes(bytes(damaged))
        with pytest.raises(ValueError, match="truncated cache while reading prime list"):
            load_trace_matrix(path)
