"""Self-tests of the benchmark itself (not of murmurlab).

Run from the repository root:

    python3 bench/selftest.py

Checks that the generated corpora ingest cleanly and respect the conductor
rule, that the local enumeration oracle and twist formula agree with known
values, that the tracer replaces every reference to a wrapped function, and
that every metric and workload the benchmark prints is declared in
BENCHMARK.json.  Exits 1 if any check fails.
"""

from __future__ import annotations

import io
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_corpora_ingest_cleanly():
    from murmurlab.curves import parse_curve_table

    for name, make in run.WORKLOADS.items():
        for seed in (1, 2):
            wl = make(seed)
            result = parse_curve_table(io.StringIO(corpus.to_csv(wl.rows)))
            assert not result.errors, (name, seed, result.errors[:3])
            assert len(result.table) == len(wl.rows), name


def test_conductors_match_discriminants():
    for name, make in run.WORKLOADS.items():
        wl = make(3)
        listed = corpus.first_primes(wl.n_primes)
        for row in wl.rows:
            disc = corpus.discriminant(tuple(int(v) for v in row[3:8]))
            n = int(row[1])
            for p in listed:
                assert (n % p == 0) == (disc % p == 0), (name, row[0], p)


def test_oracle_reproduces_11a1():
    model = corpus.twist_model(1)
    assert model == (0, -1, 1, -10, -20)
    got = {p: corpus.ap_enumerate(model, 11, p) for p in corpus.AP_11A1}
    assert got == corpus.AP_11A1, got


def test_twist_traces():
    base = corpus.twist_model(1)
    for d in (-3, 5, -15, 37, -59, 97):
        assert corpus.eligible_twist(d)
        model = corpus.twist_model(d)
        n = 11 * d * d
        for p in corpus.first_primes(20):
            if (11 * d) % p == 0:
                continue
            want = corpus.kronecker(d, p) * corpus.ap_enumerate(base, 11, p)
            assert corpus.ap_enumerate(model, n, p) == want, (d, p)


def test_twist_root_numbers():
    # w(E_d) = sign(d) (d|11): 3, 4, 5, 9 are squares mod 11, 2, 6, 7, 8, 10 not
    assert corpus.twist_root_number(5) == 1
    assert corpus.twist_root_number(-3) == 1
    assert corpus.twist_root_number(13) == -1
    assert corpus.twist_root_number(-15) == 1


def test_labels_unique_and_cremona_style():
    labels = corpus.LabelMaker()
    made = [labels(11) for _ in range(30)]
    assert len(set(made)) == 30
    assert made[0] == "11a1" and made[26] == "11ba1"
    assert all(re.fullmatch(r"[0-9]+[a-z]+[0-9]+", m) for m in made)


def test_tracer_replaces_every_reference():
    import murmurlab.cli  # noqa: F401  (imports every module)

    rec = tracer.Recorder()
    originals = {}
    for _, target, _ in tracer.TARGETS:
        module, _, qualname = target.partition(".")
        if "." not in qualname:
            originals[target] = getattr(sys.modules[f"murmurlab.{module}"], qualname)
    rec.install()
    try:
        assert not rec.missing, rec.missing
        spaces = [m for n, m in sys.modules.items() if n.startswith("murmurlab")]
        for target, fn in originals.items():
            for ns in spaces:
                assert all(v is not fn for v in vars(ns).values()), (target, ns)
        from murmurlab.stratify import permutation_test
        from murmurlab.traces import PrimeList, TraceMatrix
        import numpy as np

        matrix = TraceMatrix(("11a1", "14a1"), PrimeList(np.array([2, 3])),
                             np.array([[-2, -1], [-1, -2]], dtype=np.int16),
                             np.zeros((2, 2), dtype=bool))
        permutation_test([["11a1"], ["14a1"]], matrix, n_shuffles=5, seed=1)
    finally:
        rec.uninstall()
    for target, fn in originals.items():
        module, _, qualname = target.partition(".")
        assert getattr(sys.modules[f"murmurlab.{module}"], qualname) is fn
    own, _ = rec.times()
    assert rec.counts["stratify.shuffles"] == 5
    assert rec.counts["traces.rows_calls"] == 2
    assert own["stratify.permutation"] > 0


def test_names_declared_in_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME_RE.match(n) for n in names), names
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except Exception as exc:  # report every failing check, then exit 1
                failed += 1
                print(f"FAIL {name}: {exc!r}")
            else:
                print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
