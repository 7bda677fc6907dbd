import csv
import io
import os
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from murmurlab import lfunctions
from murmurlab.curves import (CSV_FIELDS, NUMERIC_COLUMNS, CurveRecord, CurveTable,
                              parse_curve_table)
from murmurlab.traces import TraceMatrix, default_prime_list

DATA_DIR = Path(__file__).parent / "data"

#: full-dataset runs are enabled by pointing this at a canonical curves CSV
DATASET_ENV = "MURMURLAB_DATASET"
TRACE_CACHE_ENV = "MURMURLAB_TRACE_CACHE"


def locate_zeros_with(series, k: int = lfunctions.ZERO_COUNT,
                      t_max: float = lfunctions.DEFAULT_T_MAX,
                      refinement: int = lfunctions.GRID_REFINEMENT) -> lfunctions.ZeroSet:
    """lfunctions.locate_zeros with its search constants set for this one call."""
    with mock.patch.multiple(lfunctions, ZERO_COUNT=k, DEFAULT_T_MAX=t_max,
                             GRID_REFINEMENT=refinement):
        return lfunctions.locate_zeros(series)


def lambda_critical(series: lfunctions.LSeries, t: float) -> float:
    """Completed L-function on the critical line at s = 1 + it (w = +1)."""
    if series.root_number != 1:
        raise ValueError(f"{series.label}: critical-line scan requires w = +1")
    return float(lfunctions._checked_rule(series, np.array([t], dtype=np.float64))[0][0])


def series_with_budget(record: CurveRecord, n_max: int) -> lfunctions.LSeries:
    """The record's L-series with n_max coefficients, not the budget its conductor needs."""
    (an,) = lfunctions.dirichlet_coefficients([record.a_invariants], [record.conductor],
                                              [n_max], None)
    return lfunctions.LSeries(record.label, record.conductor, record.root_number,
                              an.astype(np.float64))


@pytest.fixture(scope="session")
def known_csv_path() -> Path:
    return DATA_DIR / "curves_small.csv"


@pytest.fixture(scope="session")
def known_table(known_csv_path) -> CurveTable:
    with open(known_csv_path, newline="") as fh:
        result = parse_curve_table(fh)
    assert not result.errors
    return result.table


def serialize_curve_table(table: CurveTable) -> str:
    """Canonical CSV text for a table; parse(serialize(t)) round-trips exactly."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for r in records(table):
        writer.writerow([r.label, r.conductor, r.rank, *r.a_invariants, r.root_number,
                         repr(r.sha_an), repr(r.real_period), repr(r.regulator),
                         r.tamagawa_product, r.torsion_order, repr(r.l_value)])
    return out.getvalue()


def records(table: CurveTable) -> tuple[CurveRecord, ...]:
    """Every record of the table, in row order."""
    return tuple(map(table.record, range(len(table))))


def table_of(records) -> CurveTable:
    """The table of these records (labels unique), sorted by (conductor, label)."""
    recs = sorted(records, key=lambda r: (r.conductor, r.label))
    assert len({r.label for r in recs}) == len(recs), "duplicate label"
    return CurveTable([r.label for r in recs], [r.a_invariants for r in recs],
                      **{column: [getattr(r, name) for r in recs]
                         for column, (name, _) in NUMERIC_COLUMNS.items()})


def record_of(table: CurveTable, label: str) -> CurveRecord:
    """The record of the curve with this label (a linear scan)."""
    return table.record(table.labels.index(label))


@pytest.fixture(scope="session")
def curve_11a1(known_table) -> CurveRecord:
    return record_of(known_table, "11a1")


#: squarefree d = 1 mod 4, coprime to 22 and 3, whose twists of 11a1 have
#: w = +1 and L(E_d, 1) > 0.27: conductors 11 d^2 from 5,819 to 292,259
TWIST_DS = (37, 53, 89, 97, 113, 137, 157,
            -23, -31, -59, -67, -71, -91, -115, -155, -163)


def twist_of_11a1(d: int) -> CurveRecord:
    """Minimal model of the quadratic twist of 11a1 by squarefree d = 1 mod 4,
    gcd(d, 22) = 1: conductor 11 d^2, additive at primes dividing d.

    BSD fields are placeholders; only the model, conductor, and root number
    are meaningful for trace and zero tests.
    """
    assert d % 4 == 1 and d % 2 == 1 and d % 11 != 0
    model = (0, -d, 1, -10 * d * d, (-79 * d**3 - 1) // 4)
    n = 11 * d * d

    def kronecker(a, p):
        v = pow(a % p, (p - 1) // 2, p)
        return -1 if v == p - 1 else v

    # w(E_d) = chi_d(-11) w(E) = sign(d) (d|11) for d = 1 mod 4
    w = (1 if d > 0 else -1) * kronecker(d, 11)
    return CurveRecord(
        label=f"{n}x1",
        isogeny_class=f"{n}x",
        a_invariants=model,
        conductor=n,
        rank=0 if w == 1 else 1,
        root_number=w,
        real_period=1.0,
        regulator=1.0,
        tamagawa_product=1,
        torsion_order=1,
        sha_an=1.0,
        l_value=1.0,
    )


def make_synthetic_table(n: int, seed: int, conductor_range=(11_000, 49_000),
                         sha_choices=(1.0, 1.0, 4.0), rank: int = 0) -> CurveTable:
    """BSD-consistent synthetic records for statistics tests.

    Models are placeholders; tables built here must only be used with
    synthetic trace matrices, never with build_trace_matrix.
    """
    rng = np.random.default_rng(seed)
    records = []
    for i in range(n):
        conductor = int(rng.integers(*conductor_range))
        sha = float(rng.choice(sha_choices))
        period = float(rng.lognormal(-0.3, 0.4))
        tamagawa = int(rng.choice([1, 1, 2, 3, 4, 5, 6, 8, 10]))
        torsion = int(rng.choice([1, 1, 1, 2, 2, 3]))
        l_value = sha * period * tamagawa / torsion**2
        records.append(
            CurveRecord(
                label=f"{conductor}a{i}",
                isogeny_class=f"{conductor}a",
                a_invariants=(0, 0, 0, 1, 1),
                conductor=conductor,
                rank=rank,
                root_number=1 if rank % 2 == 0 else -1,
                real_period=period,
                regulator=1.0 if rank == 0 else float(rng.lognormal(-1, 0.5)),
                tamagawa_product=tamagawa,
                torsion_order=torsion,
                sha_an=sha,
                l_value=l_value,
            )
        )
    return table_of(records)


def make_synthetic_matrix(labels, seed: int, n_primes: int = 24,
                          mean_shift=None, bad_conductors=None) -> TraceMatrix:
    """Random integer traces within the Hasse bound, optional per-row shift.

    mean_shift: mapping label -> integer added to every prime column of that
    curve's row (clipped to the Hasse bound).
    """
    rng = np.random.default_rng(seed)
    primes = default_prime_list(n_primes)
    p = primes.primes.astype(np.float64)
    bound = np.floor(2 * np.sqrt(p)).astype(np.int64)
    n = len(labels)
    traces = np.empty((n, n_primes), dtype=np.int16)
    for j in range(n_primes):
        traces[:, j] = rng.integers(-bound[j], bound[j] + 1, size=n)
    if mean_shift:
        for i, lab in enumerate(labels):
            shift = mean_shift.get(lab, 0)
            if shift:
                traces[i] = np.clip(traces[i] + shift, -bound, bound)
    bad = np.zeros((n, n_primes), dtype=bool)
    if bad_conductors is not None:
        for i, conductor in enumerate(bad_conductors):
            bad[i] = np.asarray([conductor % int(q) == 0 for q in primes.primes])
            traces[i][bad[i]] = rng.integers(-1, 2, size=int(bad[i].sum()))
    return TraceMatrix(tuple(labels), primes, traces, bad)


def full_dataset_path():
    path = os.environ.get(DATASET_ENV)
    if path and Path(path).exists():
        return Path(path)
    return None


requires_dataset = pytest.mark.skipif(
    full_dataset_path() is None,
    reason=f"full-scale criterion: set {DATASET_ENV} to a canonical curves CSV "
    "covering the required conductor range",
)


# acceptance criteria are recorded here and echoed one per line at the end
_ACCEPTANCE_RESULTS: dict[str, tuple[str, bool | None, str]] = {}


@pytest.fixture()
def criterion():
    def record(number, description: str, passed: bool | None, detail: str = ""):
        _ACCEPTANCE_RESULTS[str(number)] = (description, passed, detail)

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    def sort_key(item):
        num = item[0]
        head = "".join(ch for ch in num if ch.isdigit())
        return (int(head) if head else 99, num)

    for num, (desc, passed, detail) in sorted(_ACCEPTANCE_RESULTS.items(),
                                              key=sort_key):
        status = "SKIP" if passed is None else ("PASS" if passed else "FAIL")
        suffix = f"  {detail}" if detail else ""
        terminalreporter.write_line(f"[{status}] criterion {num}: {desc}{suffix}")
