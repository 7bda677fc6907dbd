"""Frobenius trace engine.

Traces a_p = p + 1 - #E(F_p) are computed for every curve of a table at a
shared prime list.  For p >= 5 the Weierstrass model is reduced mod p and
transformed to y^2 = x^3 + Ax + B; the point count is then a quadratic
residue character sum over x, using a residue table built once per prime and
shared across curves.  p = 2 and p = 3 fall back to direct enumeration of
the full Weierstrass equation.  At bad primes (p | N) the smooth locus is
counted, so a_p lands in {-1, 0, +1} (non-split, additive, split).

A TraceMatrix row belongs to one curve.  `TraceMatrix.take` aligns a matrix
with a curve table once, after which row i is the table's row i and curve
groups (int position arrays, see `curves.CurveTable`) index the matrix
directly; labels are kept only for the cache and for reports.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .curves import CurveTable
from .primes import DEFAULT_PRIME_COUNT, first_n_primes, is_prime

#: largest prime p with floor(2 sqrt p) <= 32767, so every a_p fits the int16 matrix
MAX_PRIME = 268_435_399

#: cap on elements per vectorised chunk in the matrix build
_CHUNK_BUDGET = 1 << 22


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


def frobenius_trace(a_invariants: Sequence[int], conductor: int, p: int) -> int:
    """a_p for one curve at one prime.

    Good p: p + 1 - #E(F_p).  Bad p (p | conductor): p - #E_ns(F_p) with the
    singular point excluded, which is 0, +1 or -1 by reduction type.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > MAX_PRIME:
        raise ValueError(f"prime {p} exceeds the supported maximum {MAX_PRIME}")
    if p < 5:
        return _ap_tiny(a_invariants, conductor, p)
    A, B = short_weierstrass(a_invariants)
    chi = _chi_table(p)
    x = np.arange(p, dtype=np.int64)
    f = (((x * x % p) * x + A % p * x + B % p)) % p
    # good and bad p >= 5 share this: at a bad prime the sum counts the
    # smooth locus because chi(0) drops the singular point
    return -int(chi[f].sum())


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
        rows are copied once.  A curve of the table that the matrix lacks is
        a ValueError.  Take the full table, not a subset of it: subsets keep
        their positions in the full table, and those index this alignment.
        """
        labels = tuple(table.labels)
        if labels == self.curve_labels:
            return self
        row = {lab: i for i, lab in enumerate(self.curve_labels)}
        try:
            idx = np.array([row[lab] for lab in labels], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(f"trace cache lacks curve {exc.args[0]!r} of the "
                             "ingested table; rebuild with 'traces'") from None
        return TraceMatrix(labels, self.primes, self.traces[idx], self.bad_flags[idx])


def _hasse_check(traces: np.ndarray, bad: np.ndarray, primes: np.ndarray,
                 labels: Sequence[str]) -> None:
    """Hard assertion: good entries within 2*sqrt(p), bad entries in {-1,0,1}."""
    bound = np.floor(2.0 * np.sqrt(primes.astype(np.float64))).astype(np.int64)
    limit = np.where(bad, 1, bound[None, :])
    viol = np.argwhere(np.abs(traces.astype(np.int64)) > limit)
    if viol.size:
        i, j = viol[0]
        raise TraceComputationError(
            f"curve {labels[i]}: a_p={traces[i, j]} at p={primes[j]} violates "
            f"{'the bad-prime range' if bad[i, j] else 'the Hasse bound'}"
        )


def _build_columns(models: list[tuple[int, int]], conductors: np.ndarray,
                   tiny_models: list[tuple[int, ...]],
                   primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trace and bad-flag columns for a block of primes (all curves)."""
    n = len(models)
    traces = np.empty((n, len(primes)), dtype=np.int16)
    bad = np.empty((n, len(primes)), dtype=bool)
    for j, p in enumerate(int(q) for q in primes):
        bad[:, j] = conductors % p == 0
        if p < 5:
            col = [_ap_tiny(m, int(N), p) for m, N in zip(tiny_models, conductors)]
            traces[:, j] = col
            continue
        chi = _chi_table(p)
        x = np.arange(p, dtype=np.int64)
        x3 = (x * x % p) * x % p
        a_mod = np.fromiter((A % p for A, _ in models), dtype=np.int64, count=n)
        b_mod = np.fromiter((B % p for _, B in models), dtype=np.int64, count=n)
        chunk = max(1, _CHUNK_BUDGET // p)
        for lo in range(0, n, chunk):
            hi = min(lo + chunk, n)
            f = (x3[None, :] + a_mod[lo:hi, None] * x[None, :] + b_mod[lo:hi, None]) % p
            traces[lo:hi, j] = -chi[f].sum(axis=1, dtype=np.int64)
    return traces, bad


def build_trace_matrix(table: CurveTable, primes: PrimeList | None = None,
                       workers: int = 1) -> TraceMatrix:
    """Compute a_p for every curve of the table at the shared prime list.

    Iteration is prime-major so each residue table is built once.  With
    workers > 1 the prime axis is split into blocks computed in separate
    processes; output regions are disjoint, so the result is identical for
    any worker count.
    """
    if primes is None:
        primes = default_prime_list()
    labels = tuple(table.labels)
    p_arr = primes.primes
    if p_arr[-1] > MAX_PRIME:
        raise ValueError(f"prime {p_arr[-1]} exceeds the supported maximum {MAX_PRIME}")
    models = [short_weierstrass(a) for a in table.a_invariants]
    tiny_models = list(table.a_invariants)
    conductors = table.conductors
    if len(labels) == 0:
        return TraceMatrix(
            labels,
            primes,
            np.empty((0, len(primes)), dtype=np.int16),
            np.empty((0, len(primes)), dtype=bool),
        )
    try:
        if workers > 1 and len(p_arr) > 1:
            blocks = np.array_split(p_arr, min(workers, len(p_arr)))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                parts = list(
                    pool.map(
                        _build_columns,
                        [models] * len(blocks),
                        [conductors] * len(blocks),
                        [tiny_models] * len(blocks),
                        blocks,
                    )
                )
            traces = np.concatenate([t for t, _ in parts], axis=1)
            bad = np.concatenate([b for _, b in parts], axis=1)
        else:
            traces, bad = _build_columns(models, conductors, tiny_models, p_arr)
    except TraceComputationError:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise TraceComputationError(f"trace build failed: {exc}") from exc
    _hasse_check(traces, bad, p_arr, labels)
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


def dirichlet_coefficients(a_invariants: Sequence[int], conductor: int,
                           n_max: int) -> np.ndarray:
    """a_1..a_n_max computed from the model (traces at all primes <= n_max)."""
    from .primes import sieve_up_to

    ap = {int(p): frobenius_trace(a_invariants, conductor, int(p))
          for p in sieve_up_to(n_max)}
    return extend_an(ap, conductor, n_max)


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
    row-major traces, bad-flag bitset.
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
    return TraceMatrix(
        tuple(labels), PrimeList(primes), traces.copy(), bad.reshape(n_curves, n_primes)
    )
