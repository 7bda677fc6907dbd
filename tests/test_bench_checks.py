"""The benchmark's own output checks pass on what the CLI writes.

`bench/run.py` checks the trace cache and the zero sets of its `zero_search`
workload through names of the package: `load_trace_matrix`,
`TraceMatrix.row_index`, `curve_labels`, `bad_flags` and `primes.primes`.
The benchmark changes only with its own workloads, so a rename or deletion
that breaks one of those reads fails here, at the change that makes it.
"""

import importlib
import random
from pathlib import Path

from murmurlab import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 301


def test_zero_search_outputs_pass_the_bench_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    corpus = importlib.import_module("corpus")
    workload = run.zero_search(SEED)
    (tmp_path / run.CORPUS).write_text(corpus.to_csv(workload.rows))
    monkeypatch.chdir(tmp_path)  # the workload's paths are relative to its directory
    for argv in workload.setup + workload.steps:
        assert cli.main(argv) == 0, argv
    assert run.check_cache(tmp_path, workload, random.Random(SEED)) == []
    assert run.check_twist_cache(tmp_path, workload, SEED) == []
    assert run.check_zero_search(tmp_path, workload, SEED) == {"zeros": []}
