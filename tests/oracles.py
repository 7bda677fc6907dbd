"""Independent oracles used by the tests.

These deliberately avoid the production code paths: point counts come from
full enumeration of the Weierstrass equation over F_p x F_p (vectorised
meshgrid, no residue tables, no short-model transform), and values of the
completed L-function come from both sums of the functional equation in
mpmath (no float incomplete gamma, no one-sum shortcut).
"""

import mpmath
import numpy as np


def enumeration_count(a_invariants, p, smooth_only=False):
    """Number of affine F_p-solutions of the full Weierstrass equation.

    With smooth_only, solutions where both partial derivatives vanish are
    excluded.
    """
    a1, a2, a3, a4, a6 = (int(a) % p for a in a_invariants)
    x, y = np.meshgrid(np.arange(p, dtype=np.int64), np.arange(p, dtype=np.int64),
                       indexing="ij")
    lhs = (y * y + a1 * x * y + a3 * y) % p
    rhs = (x * x * x + a2 * x * x + a4 * x + a6) % p
    on_curve = lhs == rhs
    if smooth_only:
        fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
        fy = (2 * y + a1 * x + a3) % p
        on_curve &= ~((fx == 0) & (fy == 0))
    return int(on_curve.sum())


def ap_oracle(a_invariants, conductor, p):
    """a_p by direct enumeration: good p counts all points, bad p the smooth locus."""
    if conductor % p != 0:
        return p - enumeration_count(a_invariants, p, smooth_only=False)
    return p - 1 - enumeration_count(a_invariants, p, smooth_only=True)


def random_nonsingular_model(rng, bound=20):
    """Random small-coefficient Weierstrass model with nonzero discriminant."""
    while True:
        a1, a2, a3 = rng.integers(0, 2), rng.integers(-1, 2), rng.integers(0, 2)
        a4, a6 = rng.integers(-bound, bound + 1), rng.integers(-bound, bound + 1)
        model = (int(a1), int(a2), int(a3), int(a4), int(a6))
        if model_discriminant(model) != 0:
            return model


def model_discriminant(model):
    a1, a2, a3, a4, a6 = model
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (b2 * b6 - b4 * b4) // 4 if (b2 * b6 - b4 * b4) % 4 == 0 else None
    if b8 is None:
        # b2*b6 - b4^2 is always divisible by 4 for integer models
        raise AssertionError("b8 not integral")
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def synthetic_conductor(model, primes):
    """A conductor consistent with the model on the given prime list.

    Product of the listed primes dividing the discriminant; primes off the
    list do not affect trace computations, so a large off-list prime factor
    keeps the value above the conductor floor.
    """
    disc = abs(model_discriminant(model))
    n = 1
    for p in primes:
        if disc % int(p) == 0:
            n *= int(p)
    if n < 11:
        n *= 999983  # prime, far outside any default prime list
    return n


def lambda_afe(series, t, cut=1.0, root_number=None):
    """Lambda(1 + it) from both sums of the smoothed functional equation.

    Returns (value, sum of |terms|) for

        sum_n a_n [x_n^{-s} Gamma(s, cut x_n) + w x_n^{s-2} Gamma(2-s, x_n / cut)]

    with s = 1 + it and x_n = 2 pi n / sqrt(N), term by term in mpmath at 30
    digits over every coefficient of the series.  The value is independent of
    the cut-off only when w is the root number of the L-function (Dokchitser,
    arXiv:math/0207280); w defaults to series.root_number.
    """
    w = series.root_number if root_number is None else root_number
    with mpmath.workdps(30):
        s = mpmath.mpc(1, t)
        sqrt_n = mpmath.sqrt(series.conductor)
        total = mpmath.mpc(0)
        magnitude = mpmath.mpf(0)
        for n in range(1, series.n_max + 1):
            a = int(series.coefficients[n])
            if a == 0:
                continue
            x = 2 * mpmath.pi * n / sqrt_n
            first = x ** -s * mpmath.gammainc(s, a=cut * x)
            second = w * x ** (s - 2) * mpmath.gammainc(2 - s, a=x / cut)
            total += a * (first + second)
            magnitude += abs(a) * (abs(first) + abs(second))
        return complex(total), float(magnitude)


def afe_cut_residual(series, t, cut=1.25, root_number=None):
    """|Lambda at cut-off 1 - Lambda at cut-off cut|, relative to the sum of |terms|.

    Rounding-small for the true root number; a wrong root number, conductor
    or coefficient makes the two cut-offs disagree.
    """
    one, scale_one = lambda_afe(series, t, 1.0, root_number)
    other, scale_other = lambda_afe(series, t, cut, root_number)
    return abs(one - other) / max(scale_one, scale_other)
