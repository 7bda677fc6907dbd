"""L-function evaluation, zero location, and zero statistics.

Everything here works in the arithmetic normalization: the Dirichlet series
L(s) = sum a_n n^{-s} has critical line Re s = 1 and functional equation
s <-> 2 - s for the completed function

    Lambda(s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(s) = w Lambda(2 - s).

On the critical line the smoothed approximate functional equation gives

    Lambda(1 + it) = sum_n a_n [ F_n(s) + w x_n^{s-2} Gamma(2-s, x_n) ],
    F_n(s) = x_n^{-s} Gamma(s, x_n),

with x_n = 2 pi n / sqrt(N) and Gamma(s, x) the upper incomplete gamma
function.  Zero ordinates found here coincide with the gamma of the
analytic normalization rho = 1/2 + i*gamma.

Only w = +1 is evaluated, and then the second sum is the conjugate of the
first, so Lambda(1 + it) = 2 Re sum_n a_n F_n.  Substituting u = x_n e^v in
the incomplete gamma integral gives

    F_n(1 + it) = integral_0^inf exp(-x_n e^v) e^v e^{itv} dv,

so with the theta sum g(v) = e^v sum_n a_n exp(-x_n e^v)

    Lambda(1 + it) = 2 integral_0^V g(v) cos(tv) dv.

The sum keeps the terms with x_n <= _X_CUT, and V = log(_X_CUT / x_1), past
which every exp(-x_n e^v) is below exp(-_X_CUT).  One Gauss-Legendre rule
on [0, V] turns this into a weighted sum over its nodes: g is evaluated once
per rule, and then every height t is one row of cos(t v) times w g(v).
Lambda is real by construction.

The rule comes in two sizes, M nodes sized from t_max and V, and 2M nodes.
The 2M-node rule gives every value; both rules evaluate the heights a
search scans, and if they disagree by more than QUAD_TOL relative to the
sum of |terms| the evaluation is refused with QuadratureError.  Each row is
summed on its own, so a value does not depend on which heights share its
call: the zero search scans its grid in one call and bisects all k brackets
together, one call per halving on the midpoints still open, and each
bracket visits the midpoints a one-bracket-at-a-time bisection would.

At t = 0 the smoothed functional equation needs no incomplete gamma:
Gamma(1, x) = exp(-x), so splitting the sum at cut-off c gives

    Lambda(1; c) = sum_n a_n (exp(-c x_n) + w exp(-x_n / c)) / x_n,

which is independent of c only if N, w and the a_n belong to one
L-function (Dokchitser, arXiv:math/0207280).  fe_residual compares c = 1
with c = 1.25, and the zeros step does not search a curve that fails.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .curves import CurveRecord
from .diagnostics import ks_2samp
from .traces import dirichlet_coefficients

#: terms with x_n beyond this contribute below 1e-18 and are skipped
_X_CUT = 46.0

#: default search ceiling for low-lying zeros
DEFAULT_T_MAX = 10.0
#: bisection tolerance on zero ordinates
ZERO_TOL = 1e-6
#: fe_residual above which a curve's conductor, root number and coefficients
#: do not form one L-function; true inputs measure below 2e-16
FE_TOL = 1e-10
#: largest disagreement of the M- and 2M-node rules, relative to the sum of
#: |terms| 2 sum w |g|, that an evaluation accepts; sized rules agree to ~1e-14
QUAD_TOL = 1e-12


class CoefficientShortfallError(ValueError):
    pass


class QuadratureError(ValueError):
    pass


@dataclass(frozen=True)
class LSeries:
    """Dirichlet coefficient data for one curve's L-function."""

    label: str
    conductor: int
    root_number: int
    coefficients: np.ndarray  # a[n] at index n; a[0] unused, a[1] = 1

    def __post_init__(self):
        a = np.asarray(self.coefficients, dtype=np.float64)
        object.__setattr__(self, "coefficients", a)
        if len(a) < 2 or a[1] != 1:
            raise ValueError(f"{self.label}: a_1 must be 1")
        if self.root_number not in (-1, 1):
            raise ValueError(f"{self.label}: root number must be +-1")
        from .primes import sieve_up_to

        for p in sieve_up_to(self.n_max):
            if self.conductor % int(p) != 0 and abs(a[p]) > 2.0 * math.sqrt(p):
                raise ValueError(
                    f"{self.label}: a_{p} = {a[p]:g} violates the Hasse bound"
                )

    @property
    def n_max(self) -> int:
        return len(self.coefficients) - 1

    @classmethod
    def from_curves(cls, records: Sequence[CurveRecord],
                    n_max: int | None = None) -> Iterator["LSeries"]:
        """The series of each record in turn, from traces counted for them all.

        Each has n_max coefficients, or by default the budget its own
        conductor needs.  The series are made as they are taken, so a caller
        that keeps none holds one at a time.
        """
        n_maxes = [required_n_max(r.conductor) if n_max is None else n_max
                   for r in records]
        coefficients = dirichlet_coefficients([r.a_invariants for r in records],
                                              [r.conductor for r in records], n_maxes)
        for r, an in zip(records, coefficients):
            yield cls(r.label, r.conductor, r.root_number, an.astype(np.float64))

    @classmethod
    def from_curve(cls, record: CurveRecord, n_max: int | None = None) -> "LSeries":
        return next(cls.from_curves([record], n_max))


def required_n_max(conductor: int) -> int:
    """Coefficient budget of Lambda and fe_residual at any height.

    8 sqrt(N) coefficients reach x = 16 pi: past every term Lambda sums
    (x_n <= _X_CUT) and far enough for fe_residual.
    """
    return int(math.ceil(8.0 * math.sqrt(conductor)))


def _require_budget(series: LSeries) -> None:
    need = required_n_max(series.conductor)
    if series.n_max < need:
        raise CoefficientShortfallError(
            f"{series.label}: needs n_max >= {need}, series has {series.n_max}"
        )


def l_value_series(series: LSeries) -> float:
    """Central value L(E,1) = 2 sum (a_n/n) exp(-2 pi n / sqrt(N)) for w = +1.

    The sum is truncated once the geometric tail bound falls below 1e-10.
    """
    if series.root_number != 1:
        raise ValueError(
            f"{series.label}: w = -1 forces L(1) = 0 by the odd functional equation"
        )
    N = series.conductor
    sqrt_n = math.sqrt(N)
    c = 2.0 * math.pi / sqrt_n
    # tail: 2 * sum_{m>n} exp(-c m) <= 2 exp(-c n)/(1 - exp(-c)) < 1e-10
    need = int(math.ceil((math.log(2.0 / (1.0 - math.exp(-c))) + 10 * math.log(10)) / c))
    if series.n_max < need:
        raise CoefficientShortfallError(
            f"{series.label}: central value needs n_max >= {need}, "
            f"series has {series.n_max}"
        )
    n = np.arange(1, need + 1, dtype=np.float64)
    a = series.coefficients[1 : need + 1]
    return float(2.0 * np.sum(a / n * np.exp(-c * n)))


@functools.lru_cache(maxsize=16)
def _legendre(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the m-point Gauss-Legendre rule on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(m)
    unit, weights = 0.5 * (nodes + 1.0), 0.5 * weights
    unit.flags.writeable = weights.flags.writeable = False
    return unit, weights


def _node_count(span: float, t_max: float) -> int:
    """M, the smaller rule's nodes on [0, span] for heights |t| <= t_max.

    The error of M nodes falls geometrically in M / span and grows with t.
    On twists of 11a1 with span 3.2-8.3 and t_max 0-20, this count is 8 to
    20 nodes above the fewest that met 1e-13 of the sum of |terms|.  It is a
    multiple of 8 so that searches share rules.
    """
    return 8 * math.ceil((span * (t_max + 24.0) / 4.0 + 8.0) / 8.0)


def _theta_terms(series: LSeries) -> tuple[np.ndarray, np.ndarray, float]:
    """x_n and a_n of the terms with x_n <= _X_CUT, and V = log(_X_CUT / x_1)."""
    _require_budget(series)
    x = 2.0 * math.pi * np.arange(1, series.n_max + 1) / math.sqrt(series.conductor)
    keep = x <= _X_CUT
    return x[keep], series.coefficients[1:][keep], math.log(_X_CUT / x[0])


def _theta_rule(x: np.ndarray, a: np.ndarray, span: float,
                m: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes v and weights w g(v) of the m-point rule on [0, span].

    g(v) = e^v sum a_n exp(-x_n e^v), so Lambda = 2 int g cos (see the module
    docstring): m x terms exponentials, once per rule.
    """
    unit, weights = _legendre(m)
    u = np.exp(span * unit)
    g = u * (np.exp(-np.outer(u, x)) * a).sum(axis=1)
    return span * unit, span * weights * g


def _lambda_batch(rule: tuple[np.ndarray, np.ndarray], ts) -> np.ndarray:
    """Lambda(1 + i t) for an array of heights t, one row of the rule per height."""
    v, wg = rule
    return 2.0 * (np.cos(np.outer(ts, v)) * wg).sum(axis=1)


def _checked_rule(series: LSeries, ts: np.ndarray):
    """Lambda at heights ts from the 2M-node rule, and that rule.

    M is sized from max |ts|.  QuadratureError if the M-node rule disagrees
    at any height by more than QUAD_TOL of the sum of |terms| 2 sum w |g|.
    """
    x, a, span = _theta_terms(series)
    t_max = float(np.max(np.abs(ts)))
    m = _node_count(span, t_max)
    rule = _theta_rule(x, a, span, 2 * m)
    vals = _lambda_batch(rule, ts)
    gap = np.max(np.abs(_lambda_batch(_theta_rule(x, a, span, m), ts) - vals))
    scale = 2.0 * np.sum(np.abs(rule[1]))
    if not gap <= QUAD_TOL * scale:
        raise QuadratureError(
            f"{series.label}: Lambda from {m} and {2 * m} quadrature nodes differs "
            f"by {gap / scale:.1e} of the sum of |terms| up to t = {t_max:g}, "
            f"above {QUAD_TOL:g}"
        )
    return vals, rule


def fe_residual(series: LSeries) -> float:
    """Relative disagreement of Lambda(1) split at cut-offs 1 and 1.25.

    |Lambda(1; 1) - Lambda(1; 1.25)| from the t = 0 form in the module
    docstring, over the larger of the two sums of |terms|, each term of both
    sums counted on its own: rounding-small when the series is an L-function
    with this conductor and root number, far above FE_TOL when either is
    wrong.  The 8 sqrt(N) coefficients of the budget reach x = 16 pi, where
    exp(-x / 1.25) < 1e-17, so truncation stays far below FE_TOL.
    """
    _require_budget(series)
    x = 2.0 * math.pi * np.arange(1, series.n_max + 1) / math.sqrt(series.conductor)
    a = series.coefficients[1:]
    sums, scales = [], []
    for c in (1.0, 1.25):
        first, second = np.exp(-c * x) / x, np.exp(-x / c) / x
        sums.append(np.sum(a * (first + series.root_number * second)))
        scales.append(np.sum(np.abs(a) * (first + second)))
    return float(abs(sums[0] - sums[1]) / max(scales))


def lambda_critical(series: LSeries, t: float) -> float:
    """Completed L-function on the critical line at s = 1 + it (w = +1)."""
    if series.root_number != 1:
        raise ValueError(f"{series.label}: critical-line scan requires w = +1")
    return float(_checked_rule(series, np.array([t], dtype=np.float64))[0][0])


@dataclass(frozen=True)
class ZeroSet:
    """Ordered imaginary parts of the first low-lying zeros of one L-function."""

    label: str
    gammas: np.ndarray
    k_requested: int
    t_max: float
    complete: bool
    #: order of the zero at s = 1 that the search found: 0 (none), 2, or 4
    #: for four or more; the ordinates never include it
    central_order: int = 0

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=np.float64)
        object.__setattr__(self, "gammas", g)
        if not (np.all(np.isfinite(g)) and math.isfinite(self.t_max)):
            raise ValueError(f"{self.label}: zero ordinates and t_max must be finite")
        if len(g) and (np.any(np.diff(g) <= 0) or g[0] <= 0):
            raise ValueError(f"{self.label}: zero ordinates must be positive increasing")
        if len(g) > self.k_requested:
            raise ValueError(f"{self.label}: {len(g)} zero ordinates, more than "
                             f"k = {self.k_requested}")
        if self.complete and len(g) != self.k_requested:
            raise ValueError(f"{self.label}: complete set has {len(g)} zero ordinates, "
                             f"not k = {self.k_requested}")


def locate_zeros(series: LSeries, k: int = 5, t_max: float = DEFAULT_T_MAX,
                 refinement: int = 8) -> ZeroSet:
    """First k zero ordinates on the critical line, for w = +1 series.

    Lambda(1+it) is scanned on a grid of 1/refinement of the expected mean
    zero gap (refinement 8 by default); each sign change is bisected to
    |dt| < 1e-6.  Refining the grid can only add detected zeros, never drop
    one.  If fewer than k sign changes occur below t_max the result is
    flagged incomplete.

    Lambda(1) counts as zero when it is within QUAD_TOL of the sum of |terms|
    2 sum w |g| of the rule: on the w = +1 twists of 11a1 with |d| < 400,
    those of rank 2 measure below 1e-14 of it, the others above 1e-2.
    Lambda is even in t, so such a central zero has even order: 2, or 4 and
    more when Lambda''(0) = -2 sum w g v^2 vanishes too, on the same rule.
    The sign of Lambda at t = 0 is then rounding, so the brackets start past
    the first grid point.

    The quadrature rule is built once per search, sized for t_max and
    checked on the whole grid, which it evaluates in one call.  The first k
    brackets are then bisected together: each halving evaluates the
    midpoints of the brackets still open in one _lambda_batch call, and an
    exact zero at a midpoint closes only its own bracket.  Every row is
    summed on its own, so each bracket visits the same midpoints as when
    bisected alone.
    """
    if series.root_number != 1:
        raise ValueError(f"{series.label}: zero search requires w = +1")
    if k < 1:
        raise ValueError("k must be a positive number of zeros")
    if refinement < 1:
        raise ValueError("refinement must be a positive grid divider")
    step = 2.0 * math.pi / (math.log(series.conductor) + 6.0) / refinement
    grid = np.arange(0.0, t_max + step, step)
    grid = grid[grid <= t_max]
    vals, rule = _checked_rule(series, grid)
    v, wg = rule
    central_order, first = 0, 0
    if abs(vals[0]) <= QUAD_TOL * 2.0 * np.sum(np.abs(wg)):
        second = abs(np.sum(wg * v**2)) > QUAD_TOL * np.sum(np.abs(wg) * v**2)
        central_order, first = (2 if second else 4), 1
    signs = np.sign(vals[first:])
    brackets = first + np.flatnonzero(signs[:-1] * signs[1:] < 0)[:k]
    lo, hi, f_lo = grid[brackets], grid[brackets + 1], vals[brackets]
    open_ = np.flatnonzero(hi - lo > ZERO_TOL)
    while open_.size:
        mid = 0.5 * (lo[open_] + hi[open_])
        f_mid = _lambda_batch(rule, mid)
        exact = f_mid == 0.0
        lo[open_[exact]] = hi[open_[exact]] = mid[exact]
        flips = ~exact & ((f_lo[open_] < 0) != (f_mid < 0))
        hi[open_[flips]] = mid[flips]
        keeps = ~exact & ~flips
        lo[open_[keeps]], f_lo[open_[keeps]] = mid[keeps], f_mid[keeps]
        open_ = open_[hi[open_] - lo[open_] > ZERO_TOL]
    return ZeroSet(
        label=series.label,
        gammas=0.5 * (lo + hi),
        k_requested=k,
        t_max=t_max,
        complete=len(brackets) == k,
        central_order=central_order,
    )


@dataclass(frozen=True)
class HotellingResult:
    t2: float
    f_stat: float
    p_value: float
    df: tuple[int, int]
    n_a: int
    n_b: int


def _zero_matrix(zero_sets: Sequence[ZeroSet]) -> np.ndarray:
    ks = {len(z.gammas) for z in zero_sets}
    if len(ks) != 1:
        raise ValueError("zero sets have unequal lengths")
    if not all(z.complete for z in zero_sets):
        raise ValueError("incomplete zero sets cannot enter statistics")
    return np.vstack([z.gammas for z in zero_sets])


def hotelling_t2(zeros_a: Sequence[ZeroSet], zeros_b: Sequence[ZeroSet]) -> HotellingResult:
    """Two-sample Hotelling T^2 on zero vectors with pooled covariance."""
    xa = _zero_matrix(zeros_a)
    xb = _zero_matrix(zeros_b)
    return hotelling_t2_from_samples(xa, xb)


def hotelling_t2_from_samples(xa: np.ndarray, xb: np.ndarray) -> HotellingResult:
    n1, k = xa.shape
    n2, k2 = xb.shape
    if k != k2:
        raise ValueError("sample dimensions differ")
    if min(n1, n2) <= k + 1:
        raise ValueError(f"group sizes must exceed k+1 = {k + 1}")
    diff = xa.mean(axis=0) - xb.mean(axis=0)
    pooled = ((n1 - 1) * np.cov(xa, rowvar=False) + (n2 - 1) * np.cov(xb, rowvar=False))
    pooled /= n1 + n2 - 2
    try:
        solved = np.linalg.solve(pooled, diff)
    except np.linalg.LinAlgError:
        raise ValueError("singular pooled covariance") from None
    t2 = float(n1 * n2 / (n1 + n2) * diff @ solved)
    f_stat = hotelling_to_f(t2, k, n1, n2)
    df = (k, n1 + n2 - k - 1)
    return HotellingResult(t2, f_stat, f_sf(f_stat, *df), df, n1, n2)


def f_sf(x: float, d1: int, d2: int) -> float:
    """P(F > x) for Snedecor's F with (d1, d2) degrees of freedom.

    F.sf(x) = I_z(d2/2, d1/2) at z = d2 / (d2 + d1 x), the regularized
    incomplete beta function.
    """
    if math.isnan(x):
        return x
    if x <= 0:
        return 1.0
    return _beta_reg(d2 / 2, d1 / 2, d2 / (d2 + d1 * x), d1 * x / (d2 + d1 * x))


def _beta_reg(a: float, b: float, z: float, z_c: float) -> float:
    """I_z(a, b), given z and z_c = 1 - z each without cancellation.

    The continued fraction converges fast for z < (a + 1) / (a + b + 2);
    beyond that I_z(a, b) = 1 - I_{1-z}(b, a).
    """
    if z > (a + 1) / (a + b + 2):
        return 1.0 - _beta_reg(b, a, z_c, z)
    log_front = (a * math.log(z) + b * math.log1p(-z) if z < 0.5 else
                 a * math.log1p(-z_c) + b * math.log(z_c))
    log_front += math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    return math.exp(log_front) * _beta_fraction(a, b, z) / a


def _beta_fraction(a: float, b: float, z: float) -> float:
    """Continued fraction of I_z(a, b), evaluated by the modified Lentz method."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * z / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * z / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * z / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            frac *= c * d
        if abs(c * d - 1.0) < 1e-16:
            return frac
    raise ArithmeticError(f"incomplete beta fraction did not converge at "
                          f"a = {a}, b = {b}, z = {z}")


def hotelling_to_f(t2: float, k: int, n1: int, n2: int) -> float:
    """F statistic with (k, n1+n2-k-1) degrees of freedom."""
    return (n1 + n2 - k - 1) / (k * (n1 + n2 - 2)) * t2


def so_even_density(x) -> np.ndarray:
    """Katz-Sarnak one-level density for SO(even): 1 + sin(2 pi x)/(2 pi x)."""
    return 1.0 + np.sinc(2.0 * np.asarray(x, dtype=np.float64))


@dataclass(frozen=True)
class DensityResult:
    bin_centers: np.ndarray
    density: np.ndarray
    deviation_so_even: float
    n_curves: int
    scaled_zeros: np.ndarray
    scaled_first: np.ndarray


def scale_zeros(zero_sets: Sequence[ZeroSet], conductors: Sequence[int]) -> np.ndarray:
    """Scaled ordinates x = gamma * log(N) / (2 pi), one row per curve."""
    if len(zero_sets) != len(conductors):
        raise ValueError("zero sets and conductors must align")
    rows = [z.gammas * math.log(N) / (2.0 * math.pi)
            for z, N in zip(zero_sets, conductors)]
    return np.vstack(rows)


def one_level_density(zero_sets: Sequence[ZeroSet], conductors: Sequence[int],
                      bin_width: float = 0.1, x_max: float = 4.0) -> DensityResult:
    """Scaled zero histogram and integrated squared deviation from SO(even).

    The empirical density counts zeros per curve per unit of scaled ordinate;
    the deviation from W1 is a trapezoid-rule integral over bin centers.
    """
    if len(zero_sets) == 0:
        raise ValueError("no zero sets supplied")
    scaled = scale_zeros(zero_sets, conductors)
    edges = np.arange(0.0, x_max + bin_width / 2, bin_width)
    counts, _ = np.histogram(scaled.ravel(), bins=edges)
    density = counts / (len(zero_sets) * bin_width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    deviation = float(np.trapezoid((density - so_even_density(centers)) ** 2, centers))
    return DensityResult(
        bin_centers=centers,
        density=density,
        deviation_so_even=deviation,
        n_curves=len(zero_sets),
        scaled_zeros=scaled.ravel(),
        scaled_first=scaled[:, 0] if scaled.shape[1] else np.empty(0),
    )


@dataclass(frozen=True)
class DensityComparison:
    deviation_a: float
    deviation_b: float
    ks_all: tuple[float, float]
    ks_first: tuple[float, float]


def density_comparison(zeros_a: Sequence[ZeroSet], conductors_a: Sequence[int],
                       zeros_b: Sequence[ZeroSet], conductors_b: Sequence[int],
                       bin_width: float = 0.1, x_max: float = 4.0) -> DensityComparison:
    """SO(even) deviations per group plus two-sample KS on scaled zeros.

    The KS pairs are (D, p) of diagnostics.ks_2samp: p is the finite-n
    two-sided Kolmogorov tail at the effective size round(n_a n_b / (n_a + n_b)).
    """
    da = one_level_density(zeros_a, conductors_a, bin_width, x_max)
    db = one_level_density(zeros_b, conductors_b, bin_width, x_max)
    return DensityComparison(
        deviation_a=da.deviation_so_even,
        deviation_b=db.deviation_so_even,
        ks_all=ks_2samp(da.scaled_zeros, db.scaled_zeros),
        ks_first=ks_2samp(da.scaled_first, db.scaled_first),
    )


@dataclass(frozen=True)
class ExplicitPrediction:
    primes: np.ndarray
    predicted_diff: np.ndarray
    correlation: float | None
    rms_predicted: float
    rms_observed: float | None


def _zero_contribution(mean_gammas: np.ndarray, primes: np.ndarray) -> np.ndarray:
    logp = np.log(primes.astype(np.float64))
    phases = np.cos(np.outer(logp, mean_gammas)).sum(axis=1)
    return -2.0 * np.sqrt(primes.astype(np.float64)) / logp * phases


def explicit_predict(mean_gammas_a: Sequence[float], mean_gammas_b: Sequence[float],
                     primes: np.ndarray,
                     observed_diff: np.ndarray | None = None) -> ExplicitPrediction:
    """Per-prime murmuration difference predicted from group-mean zeros.

    The contribution of each zero ordinate gamma to the mean trace at p is
    modeled as -(2 sqrt(p)/log p) cos(gamma log p); the prediction is the
    group A minus group B contribution.  If an observed difference profile
    is supplied, its Pearson correlation and RMS are reported alongside.
    """
    ga = np.asarray(mean_gammas_a, dtype=np.float64)
    gb = np.asarray(mean_gammas_b, dtype=np.float64)
    if ga.shape != gb.shape:
        raise ValueError("mean zero vectors must have equal length")
    primes = np.asarray(primes, dtype=np.int64)
    if len(primes) == 0:
        raise ValueError("empty prime list")
    pred = _zero_contribution(ga, primes) - _zero_contribution(gb, primes)
    rms_pred = float(np.sqrt(np.mean(pred**2)))
    if observed_diff is None:
        return ExplicitPrediction(primes, pred, None, rms_pred, None)
    obs = np.asarray(observed_diff, dtype=np.float64)
    if obs.shape != pred.shape:
        raise ValueError("observed profile does not match the prime list")
    corr = float(np.corrcoef(pred, obs)[0, 1])
    rms_obs = float(np.sqrt(np.mean(obs**2)))
    return ExplicitPrediction(primes, pred, corr, rms_pred, rms_obs)


ZERO_CSV_FIELDS = ("label", "gamma1", "gamma2", "gamma3", "gamma4", "gamma5",
                   "complete", "t_max")


def write_zero_sets_csv(path, zero_sets: Sequence[ZeroSet]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ZERO_CSV_FIELDS)
        for z in zero_sets:
            cells = [repr(float(g)) for g in z.gammas]
            cells += [""] * (5 - len(cells))
            writer.writerow([z.label, *cells, int(z.complete), repr(float(z.t_max))])


def read_zero_sets_csv(path) -> list[ZeroSet]:
    """Import externally computed zeros in the same CSV layout.

    An empty file, a row without exactly one cell per field, a cell that is
    not a number, an ordinate or t_max that is not finite, a `complete` cell
    other than 0 or 1, a complete row without five ordinates, and a label
    listed twice raise ValueError naming the file and the line.
    """
    out, lines = [], {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"zeros CSV {path} line 1: empty file, header required")
        if tuple(header) != ZERO_CSV_FIELDS:
            raise ValueError(f"bad zeros CSV header: {header}")
        for row in reader:
            where = f"zeros CSV {path} line {reader.line_num}"
            if len(row) != len(ZERO_CSV_FIELDS):
                raise ValueError(f"{where}: {len(row)} cells, expected {len(ZERO_CSV_FIELDS)}")
            label = row[0]
            if label in lines:
                raise ValueError(f"{where}: label {label!r} already listed on line "
                                 f"{lines[label]}")
            lines[label] = reader.line_num
            if row[6] not in ("0", "1"):
                raise ValueError(f"{where}: complete must be 0 or 1, got {row[6]!r}")
            try:
                gammas = [float(v) for v in row[1:6] if v != ""]
                out.append(ZeroSet(label, np.array(gammas), 5, float(row[7]),
                                   row[6] == "1"))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return out
