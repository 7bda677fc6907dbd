import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from murmurlab import traces
from murmurlab.curves import CurveTable
from murmurlab.primes import first_n_primes, is_prime, sieve_up_to
from murmurlab.traces import (
    MAX_PRIME,
    CacheCorruptionError,
    CacheFormatError,
    MissingTraceError,
    PrimeList,
    build_trace_matrix,
    default_prime_list,
    dirichlet_coefficients,
    extend_an,
    frobenius_trace,
    load_trace_matrix,
    persist_trace_matrix,
)

from conftest import twist_of_11a1
from oracles import ap_oracle, random_nonsingular_model, synthetic_conductor

SMALL_PRIMES = [int(p) for p in sieve_up_to(200)]


class TestPrimeList:
    def test_default_is_first_500_ending_at_3571(self):
        primes = default_prime_list()
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
        for rec in known_table:
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

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError, match="not prime"):
            frobenius_trace((0, 0, 0, 1, 1), 11, 15)


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

        # the kernel counts through these two; its bound check must come first
        monkeypatch.setattr(traces, "_chi_table", no_counting)
        monkeypatch.setattr(traces, "_ap_tiny", no_counting)
        with pytest.raises(ValueError, match="supported maximum"):
            build_trace_matrix(known_table, PrimeList([268_435_459]))

    def test_take_aligns_rows_with_a_table(self, known_table):
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(12)))
        assert matrix.take(known_table) is matrix
        sub = CurveTable(known_table.subset([1, 4, 5]))
        taken = matrix.take(sub)
        assert taken.curve_labels == sub.labels
        assert np.array_equal(taken.traces, matrix.traces[[1, 4, 5]])
        assert np.array_equal(taken.bad_flags, matrix.bad_flags[[1, 4, 5]])

    def test_take_names_a_missing_curve(self, known_table):
        matrix = build_trace_matrix(known_table.subset([0, 1]),
                                    PrimeList(first_n_primes(5)))
        with pytest.raises(ValueError, match=repr(known_table.labels[2])):
            matrix.take(known_table)

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

    def test_take_rejects_flags_of_another_conductor(self, known_table):
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(8)))
        stale = known_table.subset(range(len(known_table)))  # fresh columns
        assert stale.conductors[2] % 19
        stale.conductors[2] *= 19
        with pytest.raises(ValueError, match=repr(known_table.labels[2])):
            matrix.take(stale)

    def test_matrix_matches_scalar_path(self, known_table):
        primes = PrimeList(first_n_primes(25))
        matrix = build_trace_matrix(known_table, primes)
        for rec in known_table:
            i = matrix.row_index(rec.label)
            for j, p in enumerate(primes.primes):
                assert matrix.traces[i, j] == frobenius_trace(
                    rec.a_invariants, rec.conductor, int(p)
                )


class TestExtendAn:
    def test_known_11a1_prime_powers(self, curve_11a1):
        an = dirichlet_coefficients(curve_11a1.a_invariants, 11, 16)
        assert an[1] == 1
        assert an[4] == 2    # a_2^2 - 2
        assert an[6] == 2    # a_2 a_3
        assert an[9] == -2   # a_3^2 - 3
        # full q-expansion through n = 15 for the level-11 newform
        assert list(an[1:16]) == [1, -2, -1, 2, 1, 2, -2, 0, -2, -2, 1, -2, 4, 4, -1]

    def test_multiplicativity_exhaustive(self, curve_11a1):
        n_max = 10_000
        an = dirichlet_coefficients(curve_11a1.a_invariants, 11, n_max)
        import math

        for m in range(2, 101):
            for n in range(2, n_max // m + 1):
                if math.gcd(m, n) == 1:
                    assert an[m * n] == an[m] * an[n]

    def test_missing_prime_named(self):
        with pytest.raises(MissingTraceError, match="7"):
            extend_an({2: -2, 3: -1, 5: 1}, 11, 10)

    def test_bad_prime_powers_multiply(self, curve_11a1):
        an = dirichlet_coefficients(curve_11a1.a_invariants, 11, 121)
        assert an[121] == 1  # a_11 = +1, so a_{11^2} = 1


class TestPersistence:
    def test_round_trip_bit_exact(self, known_table, tmp_path):
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(30)))
        path = tmp_path / "traces.bin"
        persist_trace_matrix(matrix, path)
        loaded = load_trace_matrix(path)
        assert loaded.curve_labels == matrix.curve_labels
        assert np.array_equal(loaded.primes.primes, matrix.primes.primes)
        assert np.array_equal(loaded.traces, matrix.traces)
        assert np.array_equal(loaded.bad_flags, matrix.bad_flags)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CacheFormatError, match="magic"):
            load_trace_matrix(path)

    def test_truncated_file(self, known_table, tmp_path):
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(10)))
        path = tmp_path / "traces.bin"
        persist_trace_matrix(matrix, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 3])
        with pytest.raises(CacheCorruptionError):
            load_trace_matrix(path)

    def test_trailing_garbage(self, known_table, tmp_path):
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(10)))
        path = tmp_path / "traces.bin"
        persist_trace_matrix(matrix, path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(CacheCorruptionError):
            load_trace_matrix(path)


class TestCacheFuzz:
    """A damaged cache ends in the loader's own errors, never a crash."""

    ERRORS = (CacheFormatError, CacheCorruptionError, ValueError)

    @pytest.fixture(scope="class")
    def cache(self, known_table, tmp_path_factory):
        matrix = build_trace_matrix(known_table, PrimeList(first_n_primes(6)))
        path = tmp_path_factory.mktemp("fuzz") / "traces.bin"
        persist_trace_matrix(matrix, path)
        return path, path.read_bytes()

    def test_every_truncation_rejected(self, cache):
        path, data = cache
        for cut in range(len(data)):
            path.write_bytes(data[:cut])
            with pytest.raises(self.ERRORS):
                load_trace_matrix(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_bit_flip_fails_cleanly_or_keeps_header_shape(self, cache, data):
        path, raw = cache
        bit = data.draw(st.integers(0, 8 * len(raw) - 1))
        damaged = bytearray(raw)
        damaged[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(damaged))
        try:
            matrix = load_trace_matrix(path)
        except self.ERRORS:
            return
        (n_curves,) = struct.unpack_from("<Q", damaged, 8)
        (n_primes,) = struct.unpack_from("<I", damaged, 16)
        assert matrix.traces.shape == (n_curves, n_primes)

    def test_trace_outside_hasse_bound_rejected(self, cache, known_table):
        path, raw = cache
        n, m = len(known_table), 6
        trace_block = len(raw) - (n * m + 7) // 8 - 2 * n * m
        row = known_table.labels.index("11a1")
        damaged = bytearray(raw)
        damaged[trace_block + 2 * row * m + 1] ^= 0x40  # a_2: -2 (0xfffe) -> 0xbffe
        path.write_bytes(bytes(damaged))
        with pytest.raises(CacheCorruptionError, match="11a1: a_p=-16386 at p=2"):
            load_trace_matrix(path)

    def test_huge_prime_count_rejected_before_reading(self, cache):
        path, raw = cache
        damaged = bytearray(raw)
        struct.pack_into("<I", damaged, 16, 2**31)
        path.write_bytes(bytes(damaged))
        with pytest.raises(CacheCorruptionError, match="prime list"):
            load_trace_matrix(path)
