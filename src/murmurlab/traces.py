"""Frobenius trace engine and trace cache.

Traces a_p = p + 1 - #E(F_p) are computed for every curve of a table at a
shared prime list.  For p >= 5 the model is transformed to
y^2 = x^3 + Ax + B mod p and the count is a quadratic character sum over
x; p = 2 and p = 3 count the full Weierstrass equation.  At bad primes
(p | N) the smooth locus is counted, so a_p lands in {-1, 0, +1}.

One kernel, `_trace_column`, computes every trace at one prime, and one
prime loop, `_trace_columns`, calls it: the matrix build runs that loop,
and so do the Dirichlet coefficients at primes past the trace matrix they
are given.  At p = 2 and 3 the distinct reductions of the models are
counted together on the p^2 points of F_p x F_p (`_tiny_traces`).  At
each prime p >= 5 the kernel sums the character once per twist class,
not once per curve: a short model (A, B) with AB != 0 mod p is the
quadratic twist by lam = B/A of y^2 = x^3 + rx + r with r = A^3/B^2, and
a_p(A, B) = chi(lam) a_p(r, r) (Silverman, AEC III.1, X.5); a model with
A = 0 or B = 0 mod p is its own class.  Many classes (r, r) at a prime
take their sums from one cyclic correlation of length p (`_class_table`).
Every sum is an exact integer, so every trace is the one a per-curve sum
gives.  The models, and their short models computed on columns of exact
ints, are split once per sweep into int64 digits (`_limbs`) and reduced
mod p from those, so the work per prime is array work for integers of
any size, p = 2 and 3 included.  One process serves every prime: on a
2-vCPU host that beat two worker processes splitting the prime axis.

A TraceMatrix row belongs to one curve.  The cache holds a matrix with the
table whose rows it holds and the SHA-256 of the CSV that table was parsed
from (`load_trace_matrix`), so row i of the matrix is row i of the table,
and curve groups (int position arrays, see `curves.CurveTable`) index both.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .curves import NUMERIC_COLUMNS, CurveTable, broken_rules
from .primes import first_n_primes, sieve_up_to

#: largest prime p with floor(2 sqrt p) <= 32767, so every a_p fits the int16 matrix
MAX_PRIME = 268_435_399

#: cap on elements per block of the character sum: one int64 block (512 KiB)
#: and its int8 gather fit a core's L2 cache; blocks of 1 << 20 and 1 << 22
#: measured slower, and a 1 << 22 block alone takes 32 MiB
_CHUNK_BUDGET = 1 << 16

#: more distinct classes (r, r) than this at one prime take their sums from
#: one `_class_table` instead of one `_character_sums` row each.  Measured on
#: a 2-vCPU host over a whole column of k classes, two curves each, the table
#: wins from k ~ 50 at p = 101, ~26 at 541, ~24 at 1,223, ~12-14 at 2,003 and
#: 3,571, and ~28 at 10,007
_TABLE_CROSSOVER = 32

#: cap on the int64 coefficients of one `dirichlet_coefficients` block (8 MiB)
_COEFFICIENT_BUDGET = 1 << 20

#: digit width of `_limbs`: a digit below 2^62 plus a product of two residues
#: below MAX_PRIME < 2^28 stays below 2^63
_LIMB_BITS = 62


@dataclass(frozen=True, eq=False)
class PrimeList:
    """Strictly increasing list of primes shared by a trace matrix."""

    primes: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.primes, dtype=np.int64)
        object.__setattr__(self, "primes", p)
        if len(p) == 0:
            raise ValueError("prime list is empty")
        if np.any(np.diff(p) <= 0):
            raise ValueError("prime list is not strictly increasing")
        composite = p < 2  # then trial division of the array by each prime <= sqrt(max)
        for d in sieve_up_to(math.isqrt(max(int(p[-1]), 0))).tolist():
            composite |= (p % d == 0) & (p > d)
        if composite.any():
            raise ValueError(f"{p[np.argmax(composite)]} is not prime")

    def __len__(self) -> int:
        return len(self.primes)


def default_prime_list(count: int) -> PrimeList:
    """The first count primes.

    A count whose last prime must exceed MAX_PRIME is refused before any
    sieve runs, by Dusart's p_n > n(ln n + ln ln n - 1) for n >= 2.
    """
    if count >= 2 and count * (math.log(count) + math.log(math.log(count)) - 1) > MAX_PRIME:
        raise ValueError(f"{count} primes reach past the supported maximum {MAX_PRIME}")
    return PrimeList(first_n_primes(count))


def short_weierstrass(a_invariants) -> tuple:
    """(A, B) with y^2 = x^3 + Ax + B isomorphic to the model away from 2 and 3.

    A = -27 c4, B = -54 c6, exact: a1..a6 are Python ints, or the five
    columns of an object array of them, which give A and B as columns.
    """
    a1, a2, a3, a4, a6 = a_invariants
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    return -27 * c4, -54 * c6


def _chi_table(p: int) -> np.ndarray:
    """Quadratic residue character mod p: chi[0] = 0, squares +1, else -1.

    Built afresh at each prime and not cached: the kernel visits every
    prime once per sweep, so a cache would only hold tables past their use.
    """
    x = np.arange(1, (p + 1) // 2, dtype=np.int64)  # x and -x share a square
    chi = np.full(p, -1, dtype=np.int8)
    chi[x * x % p] = 1
    chi[0] = 0
    return chi


def _tiny_traces(residues: np.ndarray, bad: np.ndarray, p: int) -> np.ndarray:
    """a_p at p = 2 or 3 of each column of a-invariant residues (5, k), by enumeration.

    The full Weierstrass equation and its two partial derivatives are
    evaluated on the p^2 points of F_p x F_p: a good column counts every
    affine solution, a bad one (p | N) only the smooth ones.
    """
    a1, a2, a3, a4, a6 = residues[:, :, None]
    x, y = np.divmod(np.arange(p * p), p)
    on = (y * y + a1 * x * y + a3 * y - x * x * x - a2 * x * x - a4 * x - a6) % p == 0
    singular = (on & ((a1 * y - 3 * x * x - 2 * a2 * x - a4) % p == 0)
                & ((2 * y + a1 * x + a3) % p == 0))
    return p - bad - on.sum(axis=1) + bad * singular.sum(axis=1)


def _inverse_table(p: int) -> np.ndarray:
    """1/v mod p at index v (0 at index 0), from the powers of a primitive root.

    About p products in all, where Fermat on the same p residues takes
    2 log2 p passes: at p = 3,571, 69 against 334 microseconds.
    """
    m, factors, q = p - 1, [], 2
    while q * q <= m:  # the prime factors of p - 1, by trial division
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        factors.append(m)
    g = next(g for g in range(2, p) if all(pow(g, (p - 1) // q, p) != 1 for q in factors))
    powers = np.empty(p - 1, dtype=np.int64)  # powers[k] = g^k
    powers[0] = done = 1
    while done < p - 1:  # g^(k + done) = g^k g^done doubles the filled prefix
        step = min(done, p - 1 - done)
        np.multiply(powers[:step], pow(g, done, p), out=powers[done:done + step])
        powers[done:done + step] %= p
        done += step
    inverse = np.zeros(p, dtype=np.int64)
    inverse[powers] = np.roll(powers[::-1], 1)  # 1/g^k = g^(p - 1 - k)
    return inverse


def _character_sums(a: np.ndarray, b: np.ndarray, p: int, chi: np.ndarray) -> np.ndarray:
    """sum_x chi(x^3 + a x + b) over F_p for each row of residues (a, b).

    In place on blocks of at most _CHUNK_BUDGET elements.
    """
    x = np.arange(p, dtype=np.int64)
    x3 = x * x % p * x  # < p^2; the block sum stays far below 2^63
    k = len(a)
    rows = max(1, _CHUNK_BUDGET // p)
    block = np.empty((min(rows, k), p), dtype=np.int64)
    sums = np.empty(k, dtype=np.int64)
    for lo in range(0, k, rows):
        hi = min(lo + rows, k)
        f = block[: hi - lo]
        np.multiply(a[lo:hi, None], x, out=f)
        f += x3
        f += b[lo:hi, None]
        f %= p
        sums[lo:hi] = chi[f].sum(axis=1, dtype=np.int64)
    return sums


def _class_table(p: int, chi: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """T[r] = sum_x chi(x^3 + rx + r) for every r in F_p, from one correlation.

    For x != -1, x^3 + r(x + 1) = (x + 1)(y + r) with y = x^3/(x + 1), so
    T[r] = chi(-1) + sum_y c(y) chi(y + r), where c(y) sums chi(x + 1) over
    the x != -1 with x^3/(x + 1) = y: the cyclic cross-correlation of c
    with chi, taken with real FFTs.  Both are padded to a power of two
    >= 2p - 1, chi repeated once, which gives the cyclic values without a
    prime-length transform (that one measured ~5x slower at p = 3,571).
    The sums are integers; a value further than 0.25 from one is refused
    with a ValueError, never a rounded guess.
    """
    x = np.arange(p - 1, dtype=np.int64)  # every x but -1
    y = x * x % p * x % p * inverse[1:] % p  # inverse[1:] holds 1/(x + 1)
    c = np.bincount(y, weights=chi[1:], minlength=p)
    size = 1 << (2 * p - 2).bit_length()
    spectrum = np.conj(np.fft.rfft(c, size)) * np.fft.rfft(np.tile(chi, 2), size)
    corr = np.fft.irfft(spectrum, size)[:p]
    sums = np.rint(corr)
    off = np.abs(corr - sums).max()
    if off > 0.25:
        raise ValueError(f"character sums at p={p} are not integers: "
                         f"the correlation is off by up to {off:.3g}")
    return sums.astype(np.int64) + chi[-1]


def _limbs(values: np.ndarray) -> np.ndarray:
    """Signed base-2^62 digits of a (width, n) object array of ints, least significant first.

    Shape (k, width, n), each digit with the sign of its integer, so that
    `_residues` reduces integers of any size with int64 arithmetic alone.
    """
    try:
        small = values.astype(np.int64)
        if small.size == 0 or (small.min() > -(1 << _LIMB_BITS)
                               and small.max() < 1 << _LIMB_BITS):
            return small[None]
    except OverflowError:
        pass
    mags = np.abs(values)
    bits = max(map(int.bit_length, mags.ravel().tolist()), default=0)
    limbs = np.empty((-(-bits // _LIMB_BITS), *values.shape), dtype=np.int64)
    for i, digit in enumerate(limbs):
        digit[...] = mags >> (_LIMB_BITS * i) & (1 << _LIMB_BITS) - 1
    np.negative(limbs, out=limbs, where=values < 0)
    return limbs


def _residues(limbs: np.ndarray, p: int) -> np.ndarray:
    """Every integer of `_limbs` mod p, by Horner in base 2^62: shape (width, n).

    Every step stays below 2^63: a residue below MAX_PRIME < 2^28 times
    2^62 mod p, plus one digit below 2^62 in size.
    """
    radix = (1 << _LIMB_BITS) % p
    res = limbs[-1] % p
    for digit in limbs[-2::-1]:
        res *= radix
        res += digit
        res %= p
    return res


def _trace_column(limbs: tuple[np.ndarray, np.ndarray], conductors: np.ndarray, p: int,
                  labels: Sequence[str] | None) -> tuple[np.ndarray, np.ndarray]:
    """Traces and bad flags (p | N) of the given curves at one prime p: the one trace kernel.

    limbs are the `_limbs` of the curves' a-invariants and of their short
    models.  At p = 2 and 3 the full model is counted once per distinct
    (a-invariants mod p, bad flag), all of them in one `_tiny_traces`.  For
    p >= 5 each curve gets -chi(B/A) times the sum of its twist class
    (module docstring), with chi(B/A) read as 1 when AB = 0; x = (B/A) u
    shows the identity for the sum itself, so good and bad p share one
    path: chi(0) = 0 drops the singular point.  More than _TABLE_CROSSOVER
    distinct classes (r, r) take their sums from one `_class_table`; fewer,
    and the classes (A, B), are summed one by one.

    With labels, a curve whose conductor and discriminant 4A^3 + 27B^2
    disagree on whether p divides them is refused with a ValueError naming
    it: its conductor is wrong, or its model is not minimal at p, and
    either way the model mod p does not give its trace.
    """
    bad = conductors % p == 0
    if p < 5:  # one integer per (a-invariants mod p, bad flag)
        residues = _residues(limbs[0], p)
        keys = p ** np.arange(5) @ residues + p**5 * bad
        _, first, back, _ = np.unique_all(keys)
        return _tiny_traces(residues[:, first], bad[first], p)[back], bad
    chi = _chi_table(p)
    a, b = _residues(limbs[1], p)
    if labels is not None:
        wrong = np.flatnonzero(((4 * a * a % p * a + 27 * b * b) % p == 0) != bad)
        if wrong.size:
            i = wrong[0]
            what = ("the conductor but not the discriminant" if bad[i]
                    else "the discriminant but not the conductor")
            raise ValueError(f"curve {labels[i]}: p={p} divides {what}; "
                             "a wrong conductor, or a model not minimal at p")
    # 1/B: one pow per curve, or a p-sized table once that is cheaper; a
    # table took as long as 130-190 pows at p <= 3,571 and p/31 at p >= 10,007
    inverse = _inverse_table(p) if len(b) > 128 + p // 32 else None
    inv_b = inverse[b] if inverse is not None else \
        np.array([pow(v, -1, p) if v else 0 for v in b.tolist()], dtype=np.int64)
    r = a * a % p * a % p * inv_b % p * inv_b % p  # A^3/B^2, 0 only where AB = 0
    seen = np.zeros(p, dtype=bool)
    seen[r] = True
    classes = np.flatnonzero(seen[1:]) + 1
    if len(classes) > _TABLE_CROSSOVER:
        sums = _class_table(p, chi, _inverse_table(p) if inverse is None else inverse)
    else:
        sums = np.zeros(p, dtype=np.int64)
        sums[classes] = _character_sums(classes, classes, p, chi)
    traces = chi[a] * chi[b] * sums[r]  # chi(B/A) = chi(A) chi(B), 0 where AB = 0
    rest = np.flatnonzero(r == 0)
    if rest.size:
        keys, _, back, _ = np.unique_all(a[rest] * p + b[rest])
        traces[rest] = _character_sums(keys // p, keys % p, p, chi)[back]
    return -traces, bad


def _trace_columns(a_invariants: Sequence[Sequence[int]], conductors, primes,
                   labels: Sequence[str] | None) -> tuple[np.ndarray, np.ndarray]:
    """Traces (int16) and bad flags (p | N) of every curve at every prime.

    The one prime loop of the trace layer: one `_trace_column` per prime,
    on models and short models split into limbs once; a prime above
    MAX_PRIME is refused before any counting.  labels turn on the kernel's
    conductor check.
    """
    primes = np.asarray(primes, dtype=np.int64)
    if len(primes) and primes.max() > MAX_PRIME:
        raise ValueError(f"prime {primes.max()} exceeds the supported maximum {MAX_PRIME}")
    conductors = np.asarray(conductors)
    n = len(conductors)
    # Python ints throughout: a NumPy int64 would wrap in the short model's products
    models = np.frompyfunc(int, 1, 1)(np.array(a_invariants, dtype=object).reshape(-1, 5).T)
    limbs = _limbs(models), _limbs(np.stack(short_weierstrass(models)))
    traces = np.empty((n, len(primes)), dtype=np.int16)
    bad = np.empty((n, len(primes)), dtype=bool)
    for j, p in enumerate(primes.tolist()):
        traces[:, j], bad[:, j] = _trace_column(limbs, conductors, p, labels)
    return traces, bad


@dataclass(frozen=True)
class TraceMatrix:
    """Dense (curve x prime) table of Frobenius traces with bad-prime flags."""

    curve_labels: tuple[str, ...]
    primes: PrimeList
    traces: np.ndarray  # int16, shape (n_curves, n_primes)
    bad_flags: np.ndarray  # bool, same shape
    table: CurveTable | None = None  # built or cached: the table of these rows
    csv_sha256: str | None = None  # cached: the SHA-256 of the table's CSV

    def __len__(self) -> int:
        return len(self.curve_labels)

    def row_index(self, label: str) -> int:
        """Row of one curve by label (a linear scan, for spot checks)."""
        return self.curve_labels.index(label)


def _hasse_check(traces: np.ndarray, bad: np.ndarray, primes: np.ndarray,
                 labels: Sequence[str], fix: str = "") -> None:
    """Raise ValueError unless good entries lie within 2*sqrt(p) and bad ones in {-1,0,1}.

    The text names the first entry outside, and ends in "; fix" when fix is
    given.  Compares in int16, so the check costs no int64 copy of the
    matrix; a bound above the int16 range is clipped, as no int16 trace can
    exceed it.
    """
    bound = np.minimum(np.floor(2.0 * np.sqrt(primes.astype(np.float64))), 32767)
    limit = np.where(bad, np.int16(1), bound.astype(np.int16)[None, :])
    outside = (traces > limit) | (traces < -limit)
    if outside.any():
        i, j = np.argwhere(outside)[0]
        problem = (f"curve {labels[i]}: a_p={traces[i, j]} at p={primes[j]} violates "
                   f"{'the bad-prime range' if bad[i, j] else 'the Hasse bound'}")
        raise ValueError(f"{problem}; {fix}" if fix else problem)


def build_trace_matrix(table: CurveTable, primes: PrimeList) -> TraceMatrix:
    """Compute a_p for every curve of the table at the shared prime list.

    One process runs the one kernel, prime-major so each prime's tables are
    built once, on blocks small enough to stay in a core's cache (see
    _CHUNK_BUDGET).  At every p >= 5 a curve whose conductor and
    discriminant disagree on whether p divides them is refused, naming the
    curve and p: its model mod p would give a wrong trace, which the Hasse
    bound need not catch.  Every entry is then held to the Hasse bound.
    """
    labels = tuple(table.labels)
    traces, bad = _trace_columns(table.a_invariants, table.conductors, primes.primes, labels)
    _hasse_check(traces, bad, primes.primes, labels)
    return TraceMatrix(labels, primes, traces, bad, table)


def _coefficient_sieve(traces: np.ndarray, conductors: np.ndarray, primes: list[int],
                       n_maxes: list[int]) -> Iterator[np.ndarray]:
    """a_0..a_n_max of each curve of a block, from one sieve of an (n, curve) int64 array.

    a_n is multiplicative: at each prime power q = p^e the rows n with p^e || n are
    multiplied by a_q, a_p a_{q/p} - p a_{q/p^2} at good p and a_p^e at bad p (p | N).
    """
    n_max = max(n_maxes)
    an = np.ones((n_max + 1, len(n_maxes)), dtype=np.int64)
    an[0] = 0
    for p, ap in zip(primes, traces.T.astype(np.int64)):
        bad = conductors % p == 0
        q, before, power = p, 1, ap
        while q <= n_max:
            n = np.arange(q, n_max + 1, q)
            an[n[n // q % p != 0]] *= power
            before, power = power, np.where(bad, ap * power, ap * power - p * before)
            q *= p
    for column, n_max in zip(an.T, n_maxes):
        yield column[:n_max + 1].copy()


def dirichlet_coefficients(a_invariants: Sequence[Sequence[int]], conductors,
                           n_maxes: Sequence[int],
                           known: np.ndarray | None) -> Iterator[np.ndarray]:
    """a_0..a_n_max of each curve (a_0 = 0), yielded in call order.

    known holds the curves' traces at the first known.shape[1] primes (their
    rows of a trace matrix), which are not counted again.  Each prime past
    them up to the largest n_max is counted once for all the curves, in one
    `_trace_columns` sweep.  One sieve gives each block of curves, as many as
    `_COEFFICIENT_BUDGET` holds at the largest n_max, their coefficients: only
    that trace table and one block of coefficients are held at once.
    """
    n_maxes = [int(n) for n in n_maxes]
    if not n_maxes:
        return
    primes = sieve_up_to(max(n_maxes)).tolist()
    traces = np.empty((len(n_maxes), len(primes)), dtype=np.int16)
    start = 0 if known is None else min(known.shape[1], len(primes))
    if start:
        traces[:, :start] = known[:, :start]
    if start < len(primes):
        traces[:, start:], _ = _trace_columns(a_invariants, conductors, primes[start:], None)
    conductors = np.asarray(conductors, dtype=np.int64)
    size = max(1, _COEFFICIENT_BUDGET // (max(n_maxes) + 1))
    for first in range(0, len(n_maxes), size):
        block = slice(first, first + size)
        yield from _coefficient_sieve(traces[block], conductors[block], primes, n_maxes[block])


_MAGIC, _VERSION = b"MURM", 2
#: magic, version, curve count n, prime count m, label block bytes, a-invariant
#: text bytes (0 when they are int64), SHA-256 of the CSV the table came from
_HEADER = struct.Struct("<4sIQQQQ32s")


def _layout(n: int, m: int, label_bytes: int, a_text: int) -> list[tuple[str, str, int]]:
    """(name, little-endian dtype, items) of each section of a cache, in file order."""
    return [("prime list", "<i8", m), ("label ends", "<i8", n),
            ("a-invariants", "u1", a_text) if a_text else ("a-invariants", "<i8", 5 * n),
            *((column, np.dtype(dtype).newbyteorder("<").str, n)
              for column, (_, dtype) in NUMERIC_COLUMNS.items()),
            ("trace matrix", "<i2", n * m), ("bad-flag bitset", "u1", (n * m + 7) // 8),
            ("labels", "u1", label_bytes)]


def persist_trace_matrix(matrix: TraceMatrix, path, csv_sha256: str) -> None:
    """Write the cache of a built matrix and its table.

    csv_sha256 is the hex SHA-256 of the CSV the table was parsed from; see
    load_trace_matrix for the layout.  The bytes go to a plain file in a
    temporary directory of this writer's own beside `path`, which then
    replaces `path`: a failed write leaves no partial cache, and no two
    writers share a temporary file.
    """
    table, a_text = matrix.table, b""
    labels = [label.encode() for label in matrix.curve_labels]
    try:
        a_invariants = table.a_invariants.astype(np.int64)
    except OverflowError:  # their exact decimal text, only when an int64 cannot hold one
        a_text = ",".join(map(str, table.a_invariants.ravel().tolist())).encode()
        a_invariants = np.frombuffer(a_text, dtype=np.uint8)
    sections = {
        "prime list": matrix.primes.primes,
        "label ends": np.cumsum([len(label) for label in labels]),
        "a-invariants": a_invariants,
        **{column: getattr(table, column) for column in NUMERIC_COLUMNS},
        "trace matrix": matrix.traces,
        "bad-flag bitset": np.packbits(matrix.bad_flags, axis=None, bitorder="little"),
        "labels": np.frombuffer(b"".join(labels), dtype=np.uint8),
    }
    digest = hashlib.sha256()
    path = Path(path)
    with tempfile.TemporaryDirectory(prefix=f".{path.name}.", dir=path.parent) as private:
        tmp = Path(private) / "cache"
        with open(tmp, "wb") as fh:
            def write(block: bytes) -> None:
                fh.write(block)
                digest.update(block)

            write(_HEADER.pack(_MAGIC, _VERSION, len(labels), len(matrix.primes),
                               len(sections["labels"]), len(a_text),
                               bytes.fromhex(csv_sha256)))
            for name, dtype, _ in _layout(len(labels), len(matrix.primes),
                                          len(sections["labels"]), len(a_text)):
                block = np.asarray(sections[name], dtype=dtype).tobytes()
                write(block)
                write(bytes(-len(block) % 8))
            fh.write(digest.digest())
        os.replace(tmp, path)


def load_trace_matrix(path) -> TraceMatrix:
    """Read a cache written by persist_trace_matrix: the matrix, with its table.

    Little-endian: the `_HEADER`, the sections of `_layout` each zero-padded
    to a multiple of 8 bytes, and the SHA-256 of every byte before it.  The
    a-invariants are int64, or, only when one overflows, their decimal text
    joined by commas; labels are one UTF-8 block and the end of each in it.
    Section sizes are checked against the file before any is read, and each
    is a slice of one read.  A file without the magic, another version, a
    truncated file, a wrong size or digest, a row that breaks a row rule of
    the CSV parse (`curves.broken_rules`), even one added after the cache was
    written, or an entry outside the Hasse bound or the bad-prime range is a
    ValueError.  The first names the file and asks for a cache that `traces`
    built, since that file need be no cache at all; each other tells its
    user to remove the cache and rebuild it.
    """
    fix = f"remove {path} and rebuild it with `traces`"
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]
    if data[:4] != _MAGIC:
        raise ValueError(f"{path} is no trace cache (bad magic {bytes(data[:4])!r}); "
                         "point --cache at a cache that `traces` built")
    version = int.from_bytes(data[4:8], "little")
    if version != _VERSION:
        raise ValueError(f"unsupported cache version {version} (this version reads "
                         f"{_VERSION}); {fix}")
    if len(data) < _HEADER.size + 32:
        raise ValueError(f"truncated cache while reading the header; {fix}")
    _, _, n, m, label_bytes, a_text, csv_sha256 = _HEADER.unpack_from(data)
    body, offset, blocks = memoryview(data)[:-32], _HEADER.size, {}
    for name, dtype, items in _layout(n, m, label_bytes, a_text):
        size = items * np.dtype(dtype).itemsize
        if offset + size > len(body):
            raise ValueError(f"truncated cache while reading {name}; {fix}")
        blocks[name] = np.frombuffer(body, dtype, items, offset)
        offset += size + -size % 8
    if offset != len(body):
        raise ValueError(f"cache size does not match its header; {fix}")
    if hashlib.sha256(body).digest() != data[-32:]:
        raise ValueError(f"cache does not match its own SHA-256, so it is damaged; {fix}")
    text, ends = blocks["labels"].tobytes(), blocks["label ends"].tolist()
    labels = tuple(text[i:j].decode() for i, j in zip([0, *ends], ends))
    a_invariants = blocks["a-invariants"]
    a_invariants = (np.array([int(v) for v in a_invariants.tobytes().split(b",")],
                             dtype=object) if a_text else a_invariants.astype(object))
    bad, messages = broken_rules({name: blocks[column]
                                  for column, (name, _) in NUMERIC_COLUMNS.items()})
    if messages:
        raise ValueError(f"cache {path} holds curve {labels[np.argmax(bad)]}, which breaks "
                         f"an ingest rule: {messages[0]}; {fix}")
    table = CurveTable(labels, a_invariants, **{c: blocks[c] for c in NUMERIC_COLUMNS})
    traces = blocks["trace matrix"].reshape(n, m)
    bad = np.unpackbits(blocks["bad-flag bitset"], count=n * m,
                        bitorder="little").view(bool).reshape(n, m)
    _hasse_check(traces, bad, blocks["prime list"], labels, fix)
    return TraceMatrix(labels, PrimeList(blocks["prime list"]), traces, bad, table,
                       csv_sha256.hex())
