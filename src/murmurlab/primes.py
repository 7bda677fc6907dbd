"""Prime utilities shared by the trace engine and the L-function layer."""

import math

import numpy as np


def sieve_up_to(limit: int) -> np.ndarray:
    """All primes <= limit, ascending."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def first_n_primes(n: int) -> np.ndarray:
    """The first n primes, ascending."""
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    if n < 6:
        bound = 15
    else:
        # p_n < n(ln n + ln ln n) for n >= 6 (Rosser)
        bound = int(n * (math.log(n) + math.log(math.log(n)))) + 10
    primes = sieve_up_to(bound)
    while len(primes) < n:
        bound *= 2
        primes = sieve_up_to(bound)
    return primes[:n]


def omega(n: int) -> int:
    """Number of distinct prime factors of a positive n (trial division)."""
    count = 0
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            count += 1
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        count += 1
    return count
