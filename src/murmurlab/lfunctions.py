"""L-function evaluation, zero location, and zero statistics.

Everything here works in the arithmetic normalization: the Dirichlet series
L(s) = sum a_n n^{-s} has critical line Re s = 1 and functional equation
s <-> 2 - s for the completed function

    Lambda(s) = N^{s/2} (2 pi)^{-s} Gamma(s) L(s) = w Lambda(2 - s).

On the critical line the smoothed approximate functional equation gives

    Lambda(1 + it) = sum_n a_n [ x_n^{-s} Gamma(s, x_n)
                                 + w x_n^{s-2} Gamma(2-s, x_n) ],

with x_n = 2 pi n / sqrt(N) and Gamma(s, x) the upper incomplete gamma
function.  Zero ordinates found here coincide with the gamma of the
analytic normalization rho = 1/2 + i*gamma.

Only w = +1 is evaluated, and then the second sum is the conjugate of the
first, so Lambda(1 + it) = sum_n a_n (F_n + conj F_n) with
F_n = x_n^{-s} Gamma(s, x_n) computed once.  This is exact in floating
point, not just up to rounding: for s = 1 + it the values 2 - s and s - 2
are conj(s) and -conj(s) in every bit, the exponential and the incomplete
gamma kernels commute with conjugation bit for bit, and w = 1, so the
second term of each summand is conj F_n and every row sum is the one the
two-sided formula gives.  Lambda is therefore real on the line by
construction; its imaginary part checks nothing.

The incomplete gamma kernels iterate only the elements that have not yet
converged, and heights are evaluated in small blocks of rows.  Neither
changes the arithmetic done for any element or row, so neither changes a
value.  The zero search leans on the same fact twice: it scans the grid
block by block and stops at the block that shows the k-th sign change, and
it bisects all k brackets together, one Lambda call per halving on the
midpoints still open.  Each row is summed on its own and each bracket sees
the midpoints a one-bracket-at-a-time bisection would, so both leave every
ordinate unchanged.

At t = 0 the smoothed functional equation needs no incomplete gamma:
Gamma(1, x) = exp(-x), so splitting the sum at cut-off c gives

    Lambda(1; c) = sum_n a_n (exp(-c x_n) + w exp(-x_n / c)) / x_n,

which is independent of c only if N, w and the a_n belong to one
L-function (Dokchitser, arXiv:math/0207280).  fe_residual compares c = 1
with c = 1.25, and the zeros step does not search a curve that fails.

scipy.special and scipy.stats are imported inside the functions that call
them, so steps that never call them do not pay for loading them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .curves import CurveRecord
from .traces import dirichlet_coefficients

#: terms with x_n beyond this contribute below 1e-18 and are skipped
_X_CUT = 46.0
#: per-element relative target for the incomplete gamma evaluation
_GAMMA_TOL = 1e-14
_GAMMA_MAX_ITER = 600
#: heights per block in _lambda_batch; keeps the gamma temporaries in cache
_BLOCK_ROWS = 16

#: default search ceiling for low-lying zeros
DEFAULT_T_MAX = 10.0
#: bisection tolerance on zero ordinates
ZERO_TOL = 1e-6
#: fe_residual above which a curve's conductor, root number and coefficients
#: do not form one L-function; true inputs measure below 2e-16
FE_TOL = 1e-10


class CoefficientShortfallError(ValueError):
    pass


class GammaConvergenceError(RuntimeError):
    pass


def upper_incomplete_gamma(s, x):
    """Elementwise Gamma(s, x) for complex s and real x >= 0.

    Series for the lower function when x < |s| + 1, modified Lentz continued
    fraction otherwise; both iterated to ~1e-14 relative.  Shapes of s and x
    must broadcast to a common shape.
    """
    s = np.asarray(s, dtype=np.complex128)
    x = np.asarray(x, dtype=np.float64)
    s, x = np.broadcast_arrays(s, x)
    out = np.empty(s.shape, dtype=np.complex128)
    flat_s = s.ravel()
    flat_x = x.ravel()
    flat_out = out.ravel()
    use_series = flat_x < np.abs(flat_s) + 1.0
    if np.any(use_series):
        flat_out[use_series] = _gamma_upper_series(flat_s[use_series], flat_x[use_series])
    if np.any(~use_series):
        flat_out[~use_series] = _gamma_upper_cf(flat_s[~use_series], flat_x[~use_series])
    return out if out.shape else out[()]


def _gamma_upper_series(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gamma(s) - lower gamma via the standard ascending series.

    Each pass updates only the elements still short of convergence; an
    element's partial sum is written out once, on the pass that converges it.
    """
    total_out = np.empty(s.shape, dtype=np.complex128)
    idx = np.arange(s.size)
    s_a, x_a = s, x
    term = 1.0 / s
    total = term.copy()
    k = 0
    while idx.size:
        k += 1
        if k > _GAMMA_MAX_ITER:
            raise GammaConvergenceError("incomplete gamma series did not converge")
        term = term * x_a / (s_a + k)
        total = total + term
        done = ~(np.abs(term) > _GAMMA_TOL * np.abs(total))
        if done.any():
            total_out[idx[done]] = total[done]
            keep = ~done
            idx, s_a, x_a = idx[keep], s_a[keep], x_a[keep]
            term, total = term[keep], total[keep]
    lower = np.exp(s * np.log(np.where(x > 0, x, 1.0)) - x) * total_out
    lower = np.where(x > 0, lower, 0.0)
    from scipy import special

    return special.gamma(s) - lower


def _gamma_upper_cf(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Modified Lentz continued fraction for the upper function.

    Active-set iteration as in the series: only unconverged elements are
    updated, so the work is the sum of the per-element iteration counts
    rather than their maximum times the batch size.
    """
    tiny = 1e-300
    h_out = np.empty(s.shape, dtype=np.complex128)
    idx = np.arange(s.size)
    s_a = s
    b = x + 1.0 - s
    c = np.full(s.shape, 1.0 / tiny, dtype=np.complex128)
    d = 1.0 / np.where(b != 0, b, tiny)
    h = d.copy()
    i = 0
    while idx.size:
        i += 1
        if i > _GAMMA_MAX_ITER:
            raise GammaConvergenceError(
                "incomplete gamma continued fraction did not converge")
        an = -i * (i - s_a)
        b = b + 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = h * delta
        done = ~(np.abs(delta - 1.0) > _GAMMA_TOL)
        if done.any():
            h_out[idx[done]] = h[done]
            keep = ~done
            idx, s_a = idx[keep], s_a[keep]
            b, c, d, h = b[keep], c[keep], d[keep], h[keep]
    return np.exp(-x + s * np.log(x)) * h_out


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
    def from_curves(cls, records: Sequence[CurveRecord], t_max: float = DEFAULT_T_MAX,
                    n_max: int | None = None) -> Iterator["LSeries"]:
        """The series of each record in turn, from traces counted for them all.

        Each has n_max coefficients, or by default the budget its own
        conductor needs up to height t_max.  The series are made as they are
        taken, so a caller that keeps none holds one at a time.
        """
        n_maxes = [required_n_max(r.conductor, t_max) if n_max is None else n_max
                   for r in records]
        coefficients = dirichlet_coefficients([r.a_invariants for r in records],
                                              [r.conductor for r in records], n_maxes)
        for r, an in zip(records, coefficients):
            yield cls(r.label, r.conductor, r.root_number, an.astype(np.float64))

    @classmethod
    def from_curve(cls, record: CurveRecord, t_max: float = DEFAULT_T_MAX,
                   n_max: int | None = None) -> "LSeries":
        return next(cls.from_curves([record], t_max, n_max))


def required_n_max(conductor: int, t: float) -> int:
    """Coefficient budget for evaluating Lambda up to height t."""
    return int(math.ceil(math.sqrt(conductor) * (abs(t) + 8.0)))


def _require_budget(series: LSeries, t: float) -> None:
    need = required_n_max(series.conductor, t)
    if series.n_max < need:
        raise CoefficientShortfallError(
            f"{series.label}: height t={t:g} needs n_max >= {need}, "
            f"series has {series.n_max}"
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


def _lambda_batch(series: LSeries, ts: np.ndarray) -> np.ndarray:
    """Lambda(1 + i t) for an array of heights t, for w = +1 (real values).

    Each row sums a_n (F_n + conj F_n) with F_n = x_n^{-s} Gamma(s, x_n), the
    one-sum form of the functional equation (see the module docstring), and
    keeps the real part of the complex sum.  Heights are evaluated
    _BLOCK_ROWS at a time so the (heights x terms) temporaries stay small;
    each row is summed on its own, so blocking does not change any value.
    """
    ts = np.asarray(ts, dtype=np.float64)
    N = series.conductor
    x_all = 2.0 * math.pi * np.arange(1, series.n_max + 1) / math.sqrt(N)
    keep = x_all <= _X_CUT
    x = x_all[keep]
    a = series.coefficients[1 : series.n_max + 1][keep]
    lx = np.log(x)[None, :]
    out = np.empty(len(ts), dtype=np.float64)
    for start in range(0, len(ts), _BLOCK_ROWS):
        s = (1.0 + 1j * ts[start : start + _BLOCK_ROWS])[:, None]
        shape = (len(s), len(x))
        f = np.exp(-s * lx) * upper_incomplete_gamma(np.broadcast_to(s, shape), x[None, :])
        out[start : start + _BLOCK_ROWS] = (a[None, :] * (f + np.conj(f))).sum(axis=1).real
    return out


def fe_residual(series: LSeries) -> float:
    """Relative disagreement of Lambda(1) split at cut-offs 1 and 1.25.

    |Lambda(1; 1) - Lambda(1; 1.25)| from the t = 0 form in the module
    docstring, over the larger of the two sums of |terms|, each term of both
    sums counted on its own: rounding-small when the series is an L-function
    with this conductor and root number, far above FE_TOL when either is
    wrong.  The 8 sqrt(N) coefficients of a height-0 budget reach x = 16 pi,
    where exp(-x / 1.25) < 1e-17, so truncation stays far below FE_TOL.
    """
    _require_budget(series, 0.0)
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
    _require_budget(series, t)
    return float(_lambda_batch(series, np.array([t]))[0])


@dataclass(frozen=True)
class ZeroSet:
    """Ordered imaginary parts of the first low-lying zeros of one L-function."""

    label: str
    gammas: np.ndarray
    k_requested: int
    t_max: float
    complete: bool

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=np.float64)
        object.__setattr__(self, "gammas", g)
        if len(g) and (np.any(np.diff(g) <= 0) or g[0] <= 0):
            raise ValueError(f"{self.label}: zero ordinates must be positive increasing")


def locate_zeros(series: LSeries, k: int = 5, t_max: float = DEFAULT_T_MAX,
                 refinement: int = 8) -> ZeroSet:
    """First k zero ordinates on the critical line, for w = +1 series.

    Lambda(1+it) is scanned on a grid of 1/refinement of the expected mean
    zero gap (refinement 8 by default); each sign change is bisected to
    |dt| < 1e-6.  Refining the grid can only add detected zeros, never drop
    one.  If fewer than k sign changes occur below t_max the result is
    flagged incomplete.

    The grid is evaluated _BLOCK_ROWS heights at a time and the scan stops
    after the block that shows the k-th sign change; an incomplete set
    still scans to t_max.  The first k brackets are then bisected together:
    each halving evaluates the midpoints of the brackets still open in one
    _lambda_batch call, and an exact zero at a midpoint closes only its own
    bracket.  Every row of _lambda_batch is summed on its own, so a value
    does not depend on which rows share its call, and each bracket visits
    the same midpoints as when bisected alone: the early stop and the
    batching leave every ordinate unchanged.

    The scan and every bisection midpoint evaluate Lambda through
    _lambda_batch, one incomplete gamma per term: for w = +1 the dual sum of
    the functional equation is the conjugate of the first in every bit, so
    a_n (F_n + conj F_n) is the two-sided value exactly.
    """
    if series.root_number != 1:
        raise ValueError(f"{series.label}: zero search requires w = +1")
    if k < 1:
        raise ValueError("k must be a positive number of zeros")
    if refinement < 1:
        raise ValueError("refinement must be a positive grid divider")
    _require_budget(series, t_max)
    step = 2.0 * math.pi / (math.log(series.conductor) + 6.0) / refinement
    grid = np.arange(0.0, t_max + step, step)
    grid = grid[grid <= t_max]
    vals = np.empty(len(grid))
    brackets = np.empty(0, dtype=np.intp)
    stop = 0
    while stop < len(grid) and len(brackets) < k:
        start, stop = stop, stop + _BLOCK_ROWS
        vals[start:stop] = _lambda_batch(series, grid[start:stop])
        seen = vals[:stop]
        brackets = np.flatnonzero(np.sign(seen[:-1]) * np.sign(seen[1:]) < 0)[:k]
    lo, hi, f_lo = grid[brackets], grid[brackets + 1], vals[brackets]
    open_ = np.flatnonzero(hi - lo > ZERO_TOL)
    while open_.size:
        mid = 0.5 * (lo[open_] + hi[open_])
        f_mid = _lambda_batch(series, mid)
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
    from scipy import stats

    p = float(stats.f.sf(f_stat, *df))
    return HotellingResult(t2, f_stat, p, df, n1, n2)


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
    """SO(even) deviations per group plus two-sample KS on scaled zeros."""
    da = one_level_density(zeros_a, conductors_a, bin_width, x_max)
    db = one_level_density(zeros_b, conductors_b, bin_width, x_max)
    from scipy import stats

    ks_all = stats.ks_2samp(da.scaled_zeros, db.scaled_zeros, method="asymp")
    ks_first = stats.ks_2samp(da.scaled_first, db.scaled_first, method="asymp")
    return DensityComparison(
        deviation_a=da.deviation_so_even,
        deviation_b=db.deviation_so_even,
        ks_all=(float(ks_all.statistic), float(ks_all.pvalue)),
        ks_first=(float(ks_first.statistic), float(ks_first.pvalue)),
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

    An empty file, and a row without exactly one cell per field, raise
    ValueError naming the line.
    """
    out = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"zeros CSV {path} line 1: empty file, header required")
        if tuple(header) != ZERO_CSV_FIELDS:
            raise ValueError(f"bad zeros CSV header: {header}")
        for row in reader:
            if len(row) != len(ZERO_CSV_FIELDS):
                raise ValueError(f"zeros CSV {path} line {reader.line_num}: "
                                 f"{len(row)} cells, expected {len(ZERO_CSV_FIELDS)}")
            label = row[0]
            gammas = [float(v) for v in row[1:6] if v != ""]
            complete = bool(int(row[6]))
            t_max = float(row[7])
            out.append(ZeroSet(label, np.array(gammas), 5, t_max, complete))
    return out
