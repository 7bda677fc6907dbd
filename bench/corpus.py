"""Seeded curve corpora for the benchmark workloads.

Self-contained on purpose: the twist formula, the conductor rule and the
point-count oracle are written out here rather than imported from the
program or its tests, so the benchmark checks the program against an
independent implementation.  Everything is a function of the seed.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import random
from fractions import Fraction

import numpy as np

CSV_HEADER = ("label", "conductor", "rank", "a1", "a2", "a3", "a4", "a6",
              "root_number", "sha_an", "real_period", "regulator",
              "tamagawa_product", "torsion_order", "l_value")

#: the 11a1 traces a_2 .. a_19 (Cremona's tables)
AP_11A1 = {2: -2, 3: -1, 5: 1, 7: -2, 11: 1, 13: 4, 17: -2, 19: 0}
#: first zero ordinate of L(11a1, s) on the critical line
FIRST_ZERO_11A1 = 6.36261389


def primes_up_to(limit: int) -> list[int]:
    if limit < 2:
        return []
    mask = bytearray([1]) * (limit + 1)
    mask[0] = mask[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p::p] = bytearray(len(range(p * p, limit + 1, p)))
    return [i for i, v in enumerate(mask) if v]


def first_primes(n: int) -> list[int]:
    limit = 64
    while True:
        ps = primes_up_to(limit)
        if len(ps) >= n:
            return ps[:n]
        limit *= 2


def discriminant(model) -> int:
    a1, a2, a3, a4, a6 = model
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def j_invariant(model) -> Fraction:
    a1, a2, a3, a4, _ = model
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    c4 = b2 * b2 - 24 * b4
    return Fraction(c4 ** 3, discriminant(model))


def ap_enumerate(model, conductor: int, p: int) -> int:
    """a_p by counting affine solutions of the full Weierstrass equation.

    Good p: p - #affine.  Bad p (p | N): p - 1 - #smooth affine points, so
    the value lands in {-1, 0, 1} by reduction type.
    """
    a1, a2, a3, a4, a6 = (int(a) % p for a in model)
    x = np.arange(p, dtype=np.int64)[:, None]
    y = np.arange(p, dtype=np.int64)[None, :]
    on_curve = (y * y + a1 * x * y + a3 * y) % p == (x * x * x + a2 * x * x + a4 * x + a6) % p
    if conductor % p:
        return p - int(on_curve.sum())
    singular = ((a1 * y - 3 * x * x - 2 * a2 * x - a4) % p == 0) & ((2 * y + a1 * x + a3) % p == 0)
    return p - 1 - int((on_curve & ~singular).sum())


def legendre(a: int, p: int) -> int:
    v = pow(a % p, (p - 1) // 2, p)
    return -1 if v == p - 1 else v


def kronecker(d: int, p: int) -> int:
    """(d/p) for a prime p and odd d."""
    if p == 2:
        return 1 if d % 8 in (1, 7) else -1
    return legendre(d, p)


def is_squarefree(n: int) -> bool:
    n = abs(n)
    return all(n % (q * q) for q in range(2, math.isqrt(n) + 1))


def twist_model(d: int) -> tuple[int, int, int, int, int]:
    """Model of the quadratic twist of 11a1 by d (squarefree, d = 1 mod 4)."""
    return (0, -d, 1, -10 * d * d, (-79 * d ** 3 - 1) // 4)


def twist_root_number(d: int) -> int:
    """w(E_d) = w(11a1) chi_d(-11) = sign(d) (d|11) for gcd(d, 22) = 1."""
    return (1 if d > 0 else -1) * legendre(d, 11)


def eligible_twist(d: int) -> bool:
    return d % 4 == 1 and math.gcd(d, 22) == 1 and is_squarefree(d)


class LabelMaker:
    """Cremona-style labels, unique across every part of one corpus.

    Each curve gets its own isogeny class: conductor, class letters counted
    per conductor (a, b, ..., z, ba, ...), then the index 1.
    """

    def __init__(self):
        self._used: dict[int, int] = {}

    def __call__(self, conductor: int) -> str:
        k = self._used.get(conductor, 0)
        self._used[conductor] = k + 1
        letters = ""
        while True:
            letters = chr(ord("a") + k % 26) + letters
            k //= 26
            if k == 0:
                break
        return f"{conductor}{letters}1"


def _row(label, conductor, rank, model, sha, period, regulator, tamagawa,
         torsion, l_value):
    return (label, conductor, rank, *model, 1 if rank % 2 == 0 else -1,
            repr(float(sha)), repr(period), repr(regulator), tamagawa, torsion,
            repr(l_value))


def _random_model(rng: random.Random, bound: int):
    while True:
        model = (rng.randint(0, 1), rng.randint(-1, 1), rng.randint(0, 1),
                 rng.randint(-bound, bound), rng.randint(-bound, bound))
        if discriminant(model) != 0:
            return model


def _conductor_in(rng, model, listed, off_list, lo, hi) -> int | None:
    """A conductor N in [lo, hi] with p | N <=> p | disc for listed p.

    The listed primes dividing the discriminant are multiplied by one
    off-list prime q chosen so that N lands in the range; None if no such
    q exists for this model.  A listed prime dividing N but not the
    discriminant would be flagged bad while its trace comes from a good
    reduction, which the program rightly rejects.
    """
    disc = discriminant(model)
    part = math.prod(p for p in listed if disc % p == 0)
    i = bisect.bisect_left(off_list, -(-lo // part))
    j = bisect.bisect_right(off_list, hi // part)
    if i >= j:
        return None
    return part * off_list[rng.randrange(i, j)]


def _quota(rng: random.Random, n: int, shares) -> list:
    """n items drawn to exact shares (largest remainder), in seeded order."""
    total = sum(w for _, w in shares)
    counts = [math.floor(n * w / total) for _, w in shares]
    by_remainder = sorted(range(len(shares)),
                          key=lambda i: n * shares[i][1] / total - counts[i],
                          reverse=True)
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    items = [v for (v, _), c in zip(shares, counts) for _ in range(c)]
    rng.shuffle(items)
    return items


def random_models(seed: int, n_curves: int, n_primes: int, ranges, bound: int,
                  bsd: bool):
    """n_curves distinct random models |a4|, |a6| <= bound.

    ranges: (((lo, hi), share), ...) conductor ranges.  With bsd, ranks 0
    and 1 come at 2:1 and Sha is 1, 4 or 9 at 83/12/5 per cent; otherwise
    every curve is a rank-0 placeholder with Sha 1.  Shares are met exactly,
    so the work the program does depends on the seed as little as possible.
    """
    rng = random.Random(seed)
    listed = first_primes(n_primes)
    top = max(hi for (_, hi), _ in ranges)
    off_list = [q for q in primes_up_to(top) if q > listed[-1]]
    labels = LabelMaker()
    seen = set()
    rows = []
    ranks = _quota(rng, n_curves, ((0, 2), (1, 1)))
    shas = _quota(rng, n_curves, ((1, 83), (4, 12), (9, 5)))
    for (lo, hi), rank, sha in zip(_quota(rng, n_curves, ranges), ranks, shas):
        while True:
            model = _random_model(rng, bound)
            conductor = (None if model in seen else
                         _conductor_in(rng, model, listed, off_list, lo, hi))
            if conductor is not None:
                break
        seen.add(model)
        if bsd:
            period = rng.lognormvariate(-0.3, 0.5)
            tamagawa = rng.choice((1, 1, 1, 2, 2, 3, 4, 5, 6, 8))
            torsion = rng.choice((1, 1, 1, 2, 2, 3))
            regulator = 1.0 if rank == 0 else rng.lognormvariate(-1.0, 0.5)
        else:
            rank, sha, period, tamagawa, torsion, regulator = 0, 1, 1.0, 1, 1, 1.0
        l_value = sha * period * tamagawa * regulator / torsion ** 2
        rows.append(_row(labels(conductor), conductor, rank, model, sha, period,
                         regulator, tamagawa, torsion, l_value))
    return rows


#: d = -47 is left out: L(E_-47, 1) = 0 although w = +1, so its first zero
#: sits at t = 0 and the grid scan only meets it through rounding
TWIST_EXCLUDED = (-47,)


def twist_rows(seed: int, d_max: int):
    """Every eligible twist of 11a1 with |d| <= d_max, plus d = 1.

    The set of curves is the same for every seed, so the zero search costs
    the same; the seed draws the placeholder BSD fields.  Rank follows the
    root number.  Rank-0 twists get L-values inside (1.53, 2.84) and Sha 1
    or 4 in balanced, seeded order.  d = 1 is 11a1 itself (N = 11), the
    accuracy anchor of the zero finder.
    """
    rng = random.Random(seed)
    ds = [1, *(d for a in range(2, d_max + 1) for d in (a, -a)
               if eligible_twist(d) and d not in TWIST_EXCLUDED)]
    even = [d for d in ds if twist_root_number(d) == 1]
    shas = _quota(rng, len(even), ((1, 1), (4, 1)))
    labels = LabelMaker()
    rows = []
    for d in ds:
        n = 11 * d * d
        if twist_root_number(d) == 1:
            sha = shas.pop()
            l_value = rng.uniform(1.6, 2.8)
            rows.append(_row(labels(n), n, 0, twist_model(d), sha, l_value / sha,
                             1.0, 1, 1, l_value))
        else:
            regulator = rng.uniform(0.2, 2.0)
            period = rng.uniform(0.3, 1.5)
            rows.append(_row(labels(n), n, 1, twist_model(d), 1, period,
                             regulator, 1, 1, period * regulator))
    return rows


def to_csv(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows(rows)
    return out.getvalue()


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))
