"""Frobenius trace engine.

Traces a_p = p + 1 - #E(F_p) are computed for every curve of a table at a
shared prime list.  For p >= 5 the Weierstrass model is reduced mod p and
transformed to y^2 = x^3 + Ax + B; the point count is then a quadratic
residue character sum over x, using a residue table built once per prime and
shared across curves.  p = 2 and p = 3 fall back to direct enumeration of
the full Weierstrass equation.  At bad primes (p | N) the smooth locus is
counted, so a_p lands in {-1, 0, +1} (non-split, additive, split).

One kernel, `_trace_column`, computes every trace at one prime: the matrix
build, the single-trace helper and the Dirichlet coefficients all call it,
in one process.  At each prime p >= 5 it sums the character once per twist
class, not once per curve.  A short model (A, B) with AB != 0 mod p is the
quadratic twist by lam = B/A of y^2 = x^3 + rx + r with r = A^3/B^2, and
a_p(A, B) = chi(lam) a_p(r, r) (Silverman, AEC III.1, X.5); a model with
A = 0 or B = 0 mod p (j = 0, j = 1728, the cusp) is its own class.  So a
prime takes at most 3p - 2 sums however many curves share it.  The sums
are exact integers, so every trace is the one a per-curve sum gives.  They
run in place on cache-sized blocks, which on a 2-vCPU host beat two worker
processes splitting the prime axis between them.

A TraceMatrix row belongs to one curve.  `TraceMatrix.take` aligns a matrix
with a curve table once, after which row i is the table's row i and curve
groups (int position arrays, see `curves.CurveTable`) index the matrix
directly; labels are kept only for the cache and for reports.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

from .curves import CurveTable
from .primes import DEFAULT_PRIME_COUNT, first_n_primes, is_prime, sieve_up_to

#: largest prime p with floor(2 sqrt p) <= 32767, so every a_p fits the int16 matrix
MAX_PRIME = 268_435_399

#: cap on elements per block of the character sum: one int64 block (512 KiB)
#: and its int8 gather fit a core's L2 cache; blocks of 1 << 20 and 1 << 22
#: measured slower, and a 1 << 22 block alone takes 32 MiB
_CHUNK_BUDGET = 1 << 16


class TraceComputationError(RuntimeError):
    pass


class MissingTraceError(KeyError):
    """A Dirichlet coefficient was requested beyond the supplied prime traces."""


class CacheFormatError(RuntimeError):
    pass


class CacheCorruptionError(RuntimeError):
    pass


@dataclass(frozen=True)
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
        for q in p:
            if not is_prime(int(q)):
                raise ValueError(f"{q} is not prime")

    def __len__(self) -> int:
        return len(self.primes)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeList) and np.array_equal(self.primes, other.primes)


def default_prime_list(count: int = DEFAULT_PRIME_COUNT) -> PrimeList:
    """The first count primes.

    A count whose last prime must exceed MAX_PRIME is refused before any
    sieve runs, by Dusart's p_n > n(ln n + ln ln n - 1) for n >= 2.
    """
    if count >= 2 and count * (math.log(count) + math.log(math.log(count)) - 1) > MAX_PRIME:
        raise ValueError(f"{count} primes reach past the supported maximum {MAX_PRIME}")
    return PrimeList(first_n_primes(count))


def short_weierstrass(a_invariants: Sequence[int]) -> tuple[int, int]:
    """(A, B) with y^2 = x^3 + Ax + B isomorphic to the model away from 2 and 3.

    A = -27 c4, B = -54 c6; exact integers.
    """
    a1, a2, a3, a4, a6 = (int(a) for a in a_invariants)
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 * b2 * b2 + 36 * b2 * b4 - 216 * b6
    return -27 * c4, -54 * c6


@lru_cache(maxsize=None)
def _chi_table(p: int) -> np.ndarray:
    """Quadratic residue character mod p: chi[0] = 0, squares +1, else -1."""
    x = np.arange(p, dtype=np.int64)
    chi = np.full(p, -1, dtype=np.int8)
    chi[(x * x) % p] = 1
    chi[0] = 0
    chi.setflags(write=False)
    return chi


def _count_affine(a_invariants: Sequence[int], p: int, smooth_only: bool) -> int:
    """Solutions of the full Weierstrass equation over F_p x F_p.

    With smooth_only, points where both partial derivatives vanish are
    excluded (used at bad primes).
    """
    a1, a2, a3, a4, a6 = (a % p for a in a_invariants)
    count = 0
    for x in range(p):
        rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
        for y in range(p):
            if (y * y + a1 * x * y + a3 * y - rhs) % p != 0:
                continue
            if smooth_only:
                dx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
                dy = (2 * y + a1 * x + a3) % p
                if dx == 0 and dy == 0:
                    continue
            count += 1
    return count


def _ap_tiny(a_invariants: Sequence[int], conductor: int, p: int) -> int:
    good = conductor % p != 0
    if good:
        return p - _count_affine(a_invariants, p, smooth_only=False)
    return p - 1 - _count_affine(a_invariants, p, smooth_only=True)


def _inverse_mod(v: np.ndarray, p: int) -> np.ndarray:
    """v^(p-2) mod p elementwise: the inverse of each nonzero residue, 0 for 0.

    Fermat by square-and-multiply on the array; every product of two
    residues is below MAX_PRIME^2 < 2^63.
    """
    out = np.ones_like(v)
    base = v.copy()
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


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


def _check_supported(largest_prime: int) -> None:
    if largest_prime > MAX_PRIME:
        raise ValueError(f"prime {largest_prime} exceeds the supported maximum {MAX_PRIME}")


def _trace_column(a_invariants: Sequence[Sequence[int]], models: Sequence[tuple[int, int]],
                  conductors: np.ndarray, p: int) -> np.ndarray:
    """Traces of the given curves at one prime p: the one trace kernel.

    models are the curves' short models (`short_weierstrass`).  For p >= 5
    each curve is keyed by its twist class (module docstring): (r, r) with
    r = A^3/B^2 when AB != 0 mod p, else (A, B) itself.  One character sum
    is taken per distinct key and each curve gets -chi(B/A) times its
    class's sum, with chi(B/A) read as 1 when AB = 0.  Substituting
    x = (B/A) u shows the identity for the sum itself, so good and bad p
    share one path: at a bad prime chi(0) = 0 drops the singular point and
    the sum counts the smooth locus.  The sums are exact integers, so every
    trace is the one a per-curve sum gives.  A lone curve has no class to
    share and is summed as it is.
    """
    if p < 5:
        return np.array([_ap_tiny(a, int(N), p) for a, N in zip(a_invariants, conductors)],
                        dtype=np.int64)
    chi = _chi_table(p)
    n = len(models)
    a = np.fromiter((A % p for A, _ in models), dtype=np.int64, count=n)
    b = np.fromiter((B % p for _, B in models), dtype=np.int64, count=n)
    if n == 1:
        return -_character_sums(a, b, p, chi)
    inv = _inverse_mod(a * b % p, p)
    twist = inv != 0
    lam = b * b % p * inv % p  # B/A
    lam_inv = a * a % p * inv % p  # A/B
    r = a * lam_inv % p * lam_inv % p  # A^3/B^2
    key = np.where(twist, r * (p + 1), a * p + b)
    classes, back = np.unique(key, return_inverse=True)
    sums = _character_sums(classes // p, classes % p, p, chi)
    return -np.where(twist, chi[lam], 1) * sums[back]


def _trace_columns(a_invariants: Sequence[Sequence[int]], conductors,
                   primes) -> tuple[np.ndarray, np.ndarray]:
    """Traces (int16) and bad flags (p | N) of every curve at every prime.

    One `_trace_column` per prime; a prime above MAX_PRIME is refused before
    any counting.
    """
    primes = np.asarray(primes, dtype=np.int64)
    if len(primes):
        _check_supported(int(primes.max()))
    conductors = np.asarray(conductors)
    n = len(conductors)
    models = [short_weierstrass(a) for a in a_invariants]
    traces = np.empty((n, len(primes)), dtype=np.int16)
    bad = np.empty((n, len(primes)), dtype=bool)
    for j, p in enumerate(primes.tolist()):
        bad[:, j] = conductors % p == 0
        traces[:, j] = _trace_column(a_invariants, models, conductors, p)
    return traces, bad


def frobenius_trace(a_invariants: Sequence[int], conductor: int, p: int) -> int:
    """a_p for one curve at one prime.

    Good p: p + 1 - #E(F_p).  Bad p (p | conductor): p - #E_ns(F_p) with the
    singular point excluded, which is 0, +1 or -1 by reduction type.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    traces, _ = _trace_columns([a_invariants], [conductor], [p])
    return int(traces[0, 0])


@dataclass(frozen=True)
class TraceMatrix:
    """Dense (curve x prime) table of Frobenius traces with bad-prime flags."""

    curve_labels: tuple[str, ...]
    primes: PrimeList
    traces: np.ndarray  # int16, shape (n_curves, n_primes)
    bad_flags: np.ndarray  # bool, same shape

    def __post_init__(self):
        n, m = self.traces.shape
        if n != len(self.curve_labels) or m != len(self.primes):
            raise ValueError("trace matrix shape does not match labels/primes")
        if self.bad_flags.shape != self.traces.shape:
            raise ValueError("bad-flag shape mismatch")

    def __len__(self) -> int:
        return len(self.curve_labels)

    def row_index(self, label: str) -> int:
        """Row of one curve by label (a linear scan, for spot checks)."""
        return self.curve_labels.index(label)

    def take(self, table: CurveTable) -> "TraceMatrix":
        """This matrix with row i holding the curve of the table's row i.

        Returns self when the labels already agree; otherwise the matching
        rows are copied once.  A curve of the table that the matrix lacks, or
        whose bad flags disagree with p | N for its conductor (a cache built
        from other data under the same labels), is a ValueError.  Take the
        full table, not a subset of it: subsets keep their positions in the
        full table, and those index this alignment.
        """
        labels = tuple(table.labels)
        if labels == self.curve_labels:
            taken = self
        else:
            row = {lab: i for i, lab in enumerate(self.curve_labels)}
            try:
                idx = np.array([row[lab] for lab in labels], dtype=np.int64)
            except KeyError as exc:
                raise ValueError(f"trace cache lacks curve {exc.args[0]!r} of the "
                                 "ingested table; rebuild with 'traces'") from None
            taken = TraceMatrix(labels, self.primes, self.traces[idx], self.bad_flags[idx])
        stale = np.zeros(len(labels), dtype=bool)
        for j, p in enumerate(self.primes.primes):  # column-wise: no int64 matrix
            stale |= taken.bad_flags[:, j] != (table.conductors % p == 0)
        if stale.any():
            raise ValueError(f"trace cache bad-prime flags of curve "
                             f"{labels[stale.argmax()]!r} disagree with its "
                             "conductor; rebuild with 'traces'")
        return taken


def _hasse_check(traces: np.ndarray, bad: np.ndarray, primes: np.ndarray,
                 labels: Sequence[str], error: type[Exception]) -> None:
    """Raise `error` unless good entries lie within 2*sqrt(p) and bad ones in {-1,0,1}.

    Compares in int16, so the check costs no int64 copy of the matrix; a bound
    above the int16 range is clipped, as no int16 trace can exceed it.
    """
    bound = np.minimum(np.floor(2.0 * np.sqrt(primes.astype(np.float64))), 32767)
    limit = np.where(bad, np.int16(1), bound.astype(np.int16)[None, :])
    viol = np.argwhere((traces > limit) | (traces < -limit))
    if viol.size:
        i, j = viol[0]
        raise error(
            f"curve {labels[i]}: a_p={traces[i, j]} at p={primes[j]} violates "
            f"{'the bad-prime range' if bad[i, j] else 'the Hasse bound'}"
        )


def build_trace_matrix(table: CurveTable, primes: PrimeList | None = None) -> TraceMatrix:
    """Compute a_p for every curve of the table at the shared prime list.

    One process runs the one kernel, prime-major so each residue table is
    built once, on blocks small enough to stay in a core's cache (see
    _CHUNK_BUDGET); every entry is then held to the Hasse bound.
    """
    if primes is None:
        primes = default_prime_list()
    labels = tuple(table.labels)
    try:
        traces, bad = _trace_columns(table.a_invariants, table.conductors, primes.primes)
    except ValueError:  # an unsupported prime, rejected before any counting
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise TraceComputationError(f"trace build failed: {exc}") from exc
    _hasse_check(traces, bad, primes.primes, labels, TraceComputationError)
    return TraceMatrix(labels, primes, traces, bad)


def extend_an(ap_by_prime: Mapping[int, int], conductor: int, n_max: int) -> np.ndarray:
    """Dirichlet coefficients a_1..a_n_max from prime traces.

    Hecke recursion at good prime powers, a_{p^k} = a_p^k at bad primes,
    multiplicative across coprime factors.  Returns an array indexed by n
    (entry 0 unused).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    spf = np.arange(n_max + 1, dtype=np.int64)  # smallest prime factor
    for i in range(2, int(n_max**0.5) + 1):
        if spf[i] == i:
            block = spf[i * i :: i]
            np.minimum(block, i, out=block)
    an = np.zeros(n_max + 1, dtype=np.int64)
    an[1] = 1
    for n in range(2, n_max + 1):
        p = int(spf[n])
        if spf[n] == n and p not in ap_by_prime:
            raise MissingTraceError(f"no trace supplied for prime {p}")
        m = n // p
        ap = ap_by_prime[p]
        if m % p != 0:
            an[n] = ap * an[m]
        elif conductor % p == 0:
            an[n] = ap * an[m]
        else:
            an[n] = ap * an[m] - p * an[m // p]
    return an


def dirichlet_coefficients(a_invariants: Sequence[Sequence[int]], conductors,
                           n_maxes: Sequence[int]) -> Iterator[np.ndarray]:
    """a_1..a_n_max of each curve, computed from its model, one curve at a time.

    The traces come first, prime by prime, each prime counted once for all
    the curves whose n_max reaches it: curves of one twist class share their
    sums, and no curve is counted past its own n_max.  Only that trace table
    and the coefficients of the curve being yielded are held at once.
    """
    n_maxes = [int(n) for n in n_maxes]
    if not n_maxes:
        return
    order = sorted(range(len(n_maxes)), key=n_maxes.__getitem__, reverse=True)
    curves = [a_invariants[i] for i in order]
    models = [short_weierstrass(a) for a in curves]
    conds = np.asarray(conductors)[order]
    primes = sieve_up_to(n_maxes[order[0]]).tolist()
    if primes:
        _check_supported(primes[-1])
    traces = np.zeros((len(order), len(primes)), dtype=np.int16)
    k = len(order)
    for j, p in enumerate(primes):
        while n_maxes[order[k - 1]] < p:  # the curves that stop below p
            k -= 1
        traces[:k, j] = _trace_column(curves[:k], models[:k], conds[:k], p)
    row = np.argsort(order)
    for i, (conductor, n_max) in enumerate(zip(conductors, n_maxes)):
        yield extend_an(dict(zip(primes, traces[row[i]].tolist())), int(conductor), n_max)


_MAGIC = b"MURM"
_VERSION = 1


def persist_trace_matrix(matrix: TraceMatrix, path) -> None:
    """Write the binary trace cache (see load_trace_matrix for the layout)."""
    label_block = b"".join(
        struct.pack("<I", len(lab.encode())) + lab.encode()
        for lab in matrix.curve_labels
    )
    bits = np.packbits(matrix.bad_flags.ravel(), bitorder="little")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", _VERSION))
        fh.write(struct.pack("<Q", len(matrix.curve_labels)))
        fh.write(struct.pack("<I", len(matrix.primes)))
        fh.write(matrix.primes.primes.astype("<u4").tobytes())
        fh.write(label_block)
        fh.write(matrix.traces.astype("<i2").tobytes())
        fh.write(bits.tobytes())


def _require(fh, n: int, what: str) -> None:
    """Raise unless n more bytes are left in the file.

    Sizes taken from the header are checked before anything is read, so a
    corrupt count cannot trigger a huge allocation.
    """
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise CacheCorruptionError(f"truncated cache while reading {what}")


def _read_exact(fh, n: int, what: str) -> bytes:
    _require(fh, n, what)
    return fh.read(n)


def load_trace_matrix(path) -> TraceMatrix:
    """Read a binary trace cache written by persist_trace_matrix.

    Layout, all integers little-endian: magic "MURM", u32 version, u64 curve
    count, u32 prime count, u32 primes, length-prefixed UTF-8 labels, i16
    row-major traces, bad-flag bitset.  An entry outside the Hasse bound or
    the bad-prime range is a CacheCorruptionError.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise CacheFormatError(f"bad magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != _VERSION:
            raise CacheFormatError(f"unsupported cache version {version}")
        (n_curves,) = struct.unpack("<Q", _read_exact(fh, 8, "curve count"))
        (n_primes,) = struct.unpack("<I", _read_exact(fh, 4, "prime count"))
        primes = np.frombuffer(
            _read_exact(fh, 4 * n_primes, "prime list"), dtype="<u4"
        ).astype(np.int64)
        _require(fh, 4 * n_curves, "label lengths")
        labels = []
        for _ in range(n_curves):
            (ln,) = struct.unpack("<I", _read_exact(fh, 4, "label length"))
            labels.append(_read_exact(fh, ln, "label").decode())
        traces = (
            np.frombuffer(
                _read_exact(fh, 2 * n_curves * n_primes, "trace matrix"), dtype="<i2"
            )
            .astype(np.int16)
            .reshape(n_curves, n_primes)
        )
        n_bits = n_curves * n_primes
        n_bytes = (n_bits + 7) // 8
        bits = np.frombuffer(_read_exact(fh, n_bytes, "bad-flag bitset"), dtype=np.uint8)
        if fh.read(1):
            raise CacheCorruptionError("trailing bytes after bad-flag bitset")
    bad = np.unpackbits(bits, count=n_bits, bitorder="little").astype(bool)
    bad = bad.reshape(n_curves, n_primes)
    _hasse_check(traces, bad, primes, labels, CacheCorruptionError)
    return TraceMatrix(tuple(labels), PrimeList(primes), traces, bad)
