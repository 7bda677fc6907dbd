"""The benchmark's own output checks pass on what the CLI writes.

`bench/run.py` checks the outputs of each workload through names of the
package: `load_trace_matrix`, `TraceMatrix.row_index`, `curve_labels`,
`bad_flags` and `primes.primes` for the trace cache and the zero sets, and
the reports' fields for the permutation nulls of `stats_battery`.  The
benchmark changes only with its own workloads, so a change that breaks one
of those checks fails here, at the change that makes it.
"""

import importlib
import random
from pathlib import Path

from murmurlab import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 301


def _run_workload(name, tmp_path, monkeypatch):
    """The bench module and workload `name`, its setup and steps run in tmp_path."""
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    corpus = importlib.import_module("corpus")
    workload = run.WORKLOADS[name](SEED)
    (tmp_path / run.CORPUS).write_text(corpus.to_csv(workload.rows))
    monkeypatch.chdir(tmp_path)  # the workload's paths are relative to its directory
    for argv in workload.setup + workload.steps:
        assert cli.main(argv) == 0, argv
    return run, workload


def test_trace_build_outputs_pass_the_bench_checks(tmp_path, monkeypatch):
    run, workload = _run_workload("trace_build", tmp_path, monkeypatch)
    assert run.check_trace_build(tmp_path, workload, SEED) == {"traces": []}


def test_stats_battery_outputs_pass_the_bench_checks(tmp_path, monkeypatch):
    run, workload = _run_workload("stats_battery", tmp_path, monkeypatch)
    assert run.check_stats_battery(tmp_path, workload, SEED) == {
        "stratify": [], "confound": [], "report": []}


def test_zero_search_outputs_pass_the_bench_checks(tmp_path, monkeypatch):
    run, workload = _run_workload("zero_search", tmp_path, monkeypatch)
    assert run.check_cache(tmp_path, workload, random.Random(SEED)) == []
    assert run.check_twist_cache(tmp_path, workload, SEED) == []
    assert run.check_zero_search(tmp_path, workload, SEED) == {"zeros": []}
