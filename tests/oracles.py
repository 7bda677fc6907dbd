"""Independent oracles used by the tests.

These deliberately avoid the production code paths: point counts come from
full enumeration of the Weierstrass equation over F_p x F_p (vectorised
meshgrid, no residue tables, no short-model transform).  Dirichlet
coefficients come one curve and one n at a time from the Hecke recursion
over a smallest-prime-factor sieve (no prime-power sieve over a block of
curves), and values of the completed L-function come from both sums of the
functional equation in mpmath (no float incomplete gamma, no one-sum
shortcut).  The permutation null is the float64 one-hot computation of one
grouping at a time, with its own draw of the stream and every group but the
last summed by matmul.  Reduction types are classified by a walk over every
curve and bad prime.
The curves CSV is parsed row by row, one CurveRecord and one
validate_record per row, with its own copy of the label pattern and of
every invariant rule.  Nearest-neighbour matching scans every unused curve
for each match.  Primality is trial division of one number at a time.
"""

import csv
import io
import math
import re

import mpmath
import numpy as np

from murmurlab.curves import CSV_FIELDS, CurveRecord, ParseResult
from murmurlab.diagnostics import REDUCTION_TYPES

from conftest import table_of


def is_prime(n: int) -> bool:
    """Primality by trial division of n by 2 and every odd d <= sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


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


def extend_an(ap_by_prime, conductor, n_max):
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
        m = n // p
        ap = ap_by_prime[p]
        if m % p != 0 or conductor % p == 0:
            an[n] = ap * an[m]
        else:
            an[n] = ap * an[m] - p * an[m // p]
    return an


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


def permutation_null(member_lists, traces, n_shuffles, seed):
    """Observed RMS separation and permutation null of one grouping, in float64.

    member_lists are the groups' row positions in traces.  Each block of
    shuffles is drawn afresh from default_rng(seed); the sums of all groups
    but the last come from float64 one-hot matmuls and the last is the
    complement of the total.  The RMS separation is the square root of the
    mean over group pairs of the mean squared profile difference.
    """

    def rms(means):
        k = len(means)
        sq = [np.mean((means[i] - means[j]) ** 2, axis=-1)
              for i in range(k) for j in range(i + 1, k)]
        return np.sqrt(np.mean(sq, axis=0))

    sizes = [len(g) for g in member_lists]
    rows = traces[np.concatenate(member_lists)].astype(np.float64)
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    observed = float(rms([rows[bounds[i]:bounds[i + 1]].mean(axis=0)
                          for i in range(len(sizes))]))
    rng = np.random.default_rng(seed)
    n_total, n_primes = rows.shape
    k = len(sizes)
    total_sum = rows.sum(axis=0)
    null = np.empty(n_shuffles)
    done = 0
    max_block = max(1, min(256, (1 << 24) // n_total))
    while done < n_shuffles:
        block = min(max_block, n_shuffles - done)
        perms = rng.permuted(
            np.broadcast_to(np.arange(n_total), (block, n_total)).copy(), axis=1
        )
        means = np.empty((k, block, n_primes))
        running = np.zeros((block, n_primes))
        scatter_rows = np.arange(block)[:, None]
        for i in range(k - 1):
            onehot = np.zeros((block, n_total))
            onehot[scatter_rows, perms[:, bounds[i]:bounds[i + 1]]] = 1.0
            sums = onehot @ rows
            running += sums
            means[i] = sums / sizes[i]
        means[k - 1] = (total_sum[None, :] - running) / sizes[k - 1]
        null[done:done + block] = rms(means)
        done += block
    return observed, null


def match_nn_oracle(keys, labels, group_a, group_b, max_distance):
    """Greedy one-to-one matching of group_a rows to group_b rows, by brute force.

    A rows are taken in (key, label) order.  Each scans every unused B row:
    below its key the candidate is the last unused one in (key, label) order,
    at or above it the first.  The closer candidate wins, a tie in distance
    goes to the smaller label, and a pair farther apart than max_distance is
    dropped, leaving its B row unused.  Returns [(row a, row b, distance)].
    """
    def order(row):
        return keys[row], labels[row]

    unused = sorted(group_b, key=order)
    pairs = []
    for a in sorted(group_a, key=order):
        target = keys[a]
        below = [b for b in unused if keys[b] < target]
        at_or_above = [b for b in unused if keys[b] >= target]
        candidates = below[-1:] + at_or_above[:1]
        if not candidates:
            break
        b = min(candidates, key=lambda row: (abs(keys[row] - target), labels[row]))
        distance = abs(keys[b] - target)
        if distance <= max_distance:
            pairs.append((a, b, distance))
            unused.remove(b)
    return pairs


def classify_reduction_oracle(matrix, table):
    """(entries, type counts, agreement fraction, classified, unclassifiable).

    One curve at a time and one bad prime at a time: a_p = 0 additive, +1
    split, -1 non-split.  A curve with a bad prime in the list is classified, and agrees
    when "no multiplicative bad prime" matches prod c_p = 1.
    """
    entries = []
    agree = 0
    classified = 0
    unclassifiable = 0
    counts = {name: 0 for name in REDUCTION_TYPES.values()}
    primes = matrix.primes.primes
    for i, label in enumerate(matrix.curve_labels):
        bad_cols = np.flatnonzero(matrix.bad_flags[i])
        if len(bad_cols) == 0:
            unclassifiable += 1
            continue
        any_multiplicative = False
        for j in bad_cols:
            a = int(matrix.traces[i, j])
            name = REDUCTION_TYPES[a]
            counts[name] += 1
            entries.append((label, int(primes[j]), name))
            if a != 0:
                any_multiplicative = True
        classified += 1
        if (not any_multiplicative) == (table.tamagawa_products[i] == 1):
            agree += 1
    fraction = agree / classified if classified else float("nan")
    return tuple(entries), counts, fraction, classified, unclassifiable


#: the invariant rules of the row-wise parse, kept apart from the package's
SHA_SQUARE_RTOL = 1e-3
VALID_RANKS = (0, 1, 2, 3, 4)
MIN_CONDUCTOR = 11
MAX_INT64 = 2**63 - 1
_LABEL_RE = re.compile(r"^([0-9]+)([a-z]+)([0-9]+)$")


def validate_record(rec: CurveRecord) -> list[str]:
    """Return the list of invariant violations for a record (empty if valid)."""
    problems = []
    if _LABEL_RE.match(rec.label) is None:
        problems.append(f"label {rec.label!r} is not Cremona-style")
    if rec.conductor < MIN_CONDUCTOR:
        problems.append(f"conductor {rec.conductor} < {MIN_CONDUCTOR}")
    if rec.conductor > MAX_INT64:
        problems.append(f"conductor {rec.conductor} > {MAX_INT64}")
    if rec.rank not in VALID_RANKS:
        problems.append(f"rank {rec.rank} outside {VALID_RANKS}")
    if rec.root_number not in (-1, 1):
        problems.append(f"root number {rec.root_number} not in {{-1,+1}}")
    elif rec.rank in VALID_RANKS and rec.root_number != (1 if rec.rank % 2 == 0 else -1):
        problems.append(
            f"parity violation: rank {rec.rank} with root number {rec.root_number:+d}"
        )
    if not rec.real_period > 0:
        problems.append(f"real period {rec.real_period} not positive")
    if not rec.regulator > 0:
        problems.append(f"regulator {rec.regulator} not positive")
    if rec.tamagawa_product < 1:
        problems.append(f"Tamagawa product {rec.tamagawa_product} not positive")
    if rec.tamagawa_product > MAX_INT64:
        problems.append(f"Tamagawa product {rec.tamagawa_product} > {MAX_INT64}")
    if rec.torsion_order < 1:
        problems.append(f"torsion order {rec.torsion_order} not positive")
    if rec.torsion_order > MAX_INT64:
        problems.append(f"torsion order {rec.torsion_order} > {MAX_INT64}")
    if not rec.sha_an > 0:
        problems.append(f"analytic Sha {rec.sha_an} not positive")
    else:
        root = round(math.sqrt(rec.sha_an))
        if root < 1 or abs(root * root - rec.sha_an) > SHA_SQUARE_RTOL * rec.sha_an:
            problems.append(f"analytic Sha {rec.sha_an} is not a perfect square")
    if rec.l_value < 0:
        problems.append(f"leading L-value {rec.l_value} negative")
    if rec.rank == 0:
        if abs(rec.regulator - 1.0) > 1e-6:
            problems.append(f"rank 0 with regulator {rec.regulator} != 1")
        if not rec.l_value > 0:
            problems.append("rank 0 with vanishing L-value")
    return problems


def _isogeny_class(label: str) -> str:
    m = _LABEL_RE.match(label)
    if m is None:
        raise ValueError(f"label {label!r} is not Cremona-style")
    return m.group(1) + m.group(2)


def _parse_int(raw: str, field: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"field {field}={raw!r} is not an integer") from None


def _parse_real(raw: str, field: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"field {field}={raw!r} is not a number") from None
    if not math.isfinite(value):
        raise ValueError(f"field {field}={raw!r} is not finite")
    return value


def parse_curve_table_oracle(stream) -> ParseResult:
    """The curves CSV parsed one row at a time: a record, then its checks."""
    if isinstance(stream, str):
        stream = io.StringIO(stream)
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty stream: header row required") from None
    if tuple(h.strip() for h in header) != CSV_FIELDS:
        raise ValueError(
            f"bad header: expected {','.join(CSV_FIELDS)!r}, got {','.join(header)!r}"
        )
    records: list[CurveRecord] = []
    errors: list[dict] = []
    seen: set[str] = set()
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(CSV_FIELDS):
            errors.append({"line": line,
                           "message": f"expected {len(CSV_FIELDS)} columns, got {len(row)}"})
            continue
        raw = dict(zip(CSV_FIELDS, (cell.strip() for cell in row)))
        try:
            rec = CurveRecord(
                label=raw["label"],
                isogeny_class=_isogeny_class(raw["label"]),
                a_invariants=tuple(
                    _parse_int(raw[f], f) for f in ("a1", "a2", "a3", "a4", "a6")
                ),
                conductor=_parse_int(raw["conductor"], "conductor"),
                rank=_parse_int(raw["rank"], "rank"),
                root_number=_parse_int(raw["root_number"], "root_number"),
                real_period=_parse_real(raw["real_period"], "real_period"),
                regulator=_parse_real(raw["regulator"], "regulator"),
                tamagawa_product=_parse_int(raw["tamagawa_product"], "tamagawa_product"),
                torsion_order=_parse_int(raw["torsion_order"], "torsion_order"),
                sha_an=_parse_real(raw["sha_an"], "sha_an"),
                l_value=_parse_real(raw["l_value"], "l_value"),
            )
        except ValueError as exc:
            errors.append({"line": line, "message": str(exc)})
            continue
        if rec.label in seen:
            raise ValueError(f"duplicate label {rec.label!r} at line {line}")
        problems = validate_record(rec)
        if problems:
            errors.append({"line": line, "message": "; ".join(problems)})
            continue
        seen.add(rec.label)
        records.append(rec)
    return ParseResult(table_of(records), tuple(errors))
