"""In-process runs of the CLI steps, plain or with spans and counters.

run.py starts this file twice as a child process, in a workload's work
directory:

    python3 bench/tracer.py <work dir> plain|traced

Each pass runs the steps in <work dir>/steps.json through
murmurlab.cli.main(argv) in one fresh process and writes <mode>.json; the
traced pass also writes spans.json.  Both passes start cold and differ only
in the wrappers, so their wall times give the tracing overhead.

In the traced pass every target in TARGETS is wrapped before the CLI steps run through
murmurlab.cli.main(argv).  A plain function is replaced in every murmurlab.*
namespace that holds it, because cli and confound import functions by name;
methods and classmethods are replaced on their class.  Only public names are
wrapped.  A target missing from the code under test is listed by name and
its metrics read 0.

Each call records a span (name, step, parent, start, end) in memory; spans
are written when the run ends.  A span's self time is its duration minus
the part its child spans cover.  Counters are read at the same boundaries,
from the arguments and the return value.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def _parsed_rows(c, args, kwargs, result):
    c["curves.rows"] += len(result.table) + len(result.errors)


def _built(c, args, kwargs, result):
    c["traces.curves"] += len(result)
    c["traces.entries"] += int(result.traces.size)


def _persisted(c, args, kwargs, result):
    c["traces.cache_bytes"] += os.path.getsize(args[1])


def _rows_call(c, args, kwargs, result):
    c["traces.rows_calls"] += 1


def _shuffled(c, args, kwargs, result):
    c["stratify.shuffles"] += result.n_shuffles


def _gamma(c, args, kwargs, result):
    c["lfunctions.gamma_calls"] += 1
    c["lfunctions.gamma_elements"] += int(np.size(result))


def _zero_set(c, args, kwargs, result):
    c["lfunctions.zero_sets"] += 1
    c["lfunctions.incomplete_sets"] += 0 if result.complete else 1


def _written(c, args, kwargs, result):
    c["export.bytes_written"] += os.path.getsize(args[0])


#: (span name, "module.qualname", counter); spans of one name form a layer metric
TARGETS = (
    ("curves.parse", "curves.parse_curve_table", _parsed_rows),
    ("curves.subset", "curves.CurveTable.filter", None),
    ("curves.subset", "curves.CurveTable.subset", None),
    ("traces.build", "traces.build_trace_matrix", _built),
    ("traces.persist", "traces.persist_trace_matrix", _persisted),
    ("traces.load", "traces.load_trace_matrix", None),
    ("traces.rows", "traces.TraceMatrix.rows", _rows_call),
    ("traces.rows", "traces.TraceMatrix.bad_rows", _rows_call),
    ("stratify.permutation", "stratify.permutation_test", _shuffled),
    ("stratify.partition", "stratify.partition", None),
    ("stratify.scale_scan", "stratify.scale_scan", None),
    ("windows.profile", "windows.murmuration_profile", None),
    ("windows.series", "windows.sliding_window_series", None),
    ("windows.series", "windows.savgol_detrend", None),
    ("windows.series", "windows.welch_psd", None),
    ("windows.series", "windows.cross_correlation", None),
    ("windows.series", "windows.residual_correlation", None),
    ("confound", "confound.match_nn", None),
    ("confound", "confound.matched_rms", None),
    ("confound", "confound.control_omega", None),
    ("confound", "confound.lvalue_band", None),
    ("confound", "confound.triple_control", None),
    ("confound", "confound.bsd_group_ratios", None),
    ("confound", "confound.euler_cumsum", None),
    ("confound", "confound.invariant_correlation", None),
    ("diagnostics", "diagnostics.moment_profile", None),
    ("diagnostics", "diagnostics.satotate_ks", None),
    ("diagnostics", "diagnostics.classify_reduction", None),
    ("diagnostics", "diagnostics.bad_prime_share", None),
    ("diagnostics", "diagnostics.crossover_scan", None),
    ("lfunctions.coeff", "lfunctions.LSeries.from_curve", None),
    ("lfunctions.gamma", "lfunctions.upper_incomplete_gamma", _gamma),
    ("lfunctions.search", "lfunctions.locate_zeros", _zero_set),
    ("lfunctions.stats", "lfunctions.hotelling_t2", None),
    ("lfunctions.stats", "lfunctions.density_comparison", None),
    ("lfunctions.stats", "lfunctions.one_level_density", None),
    ("lfunctions.stats", "lfunctions.explicit_predict", None),
    ("export.write", "export.write_json", _written),
    ("export.write", "export.write_xy_csv", _written),
    ("export.write", "export.write_series_csv", None),
    ("export.write", "export.write_table_csv", _written),
    ("export.write", "export.write_svg_lineplot", _written),
    ("export.write", "lfunctions.write_zero_sets_csv", _written),
)


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, step, parent, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.step = ""
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def call(self, name, counter, fn, args, kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.step, parent, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(index)
        span[3] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
        if counter is not None:
            counter(self.counts, args, kwargs, result)
        return result

    def _wrap(self, name, counter, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, counter, fn, args, kwargs)
        return traced

    def install(self) -> None:
        importlib.import_module("murmurlab.cli")
        namespaces = [m for n, m in list(sys.modules.items())
                      if m is not None and (n == "murmurlab" or n.startswith("murmurlab."))]
        for name, target, counter in TARGETS:
            module_name, _, qualname = target.partition(".")
            owner = sys.modules.get(f"murmurlab.{module_name}")
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(target)
            elif path:  # method or classmethod: replace on the class
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, counter, raw.__func__))
                else:
                    new = self._wrap(name, counter, raw)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
            else:
                new = self._wrap(name, counter, raw)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is raw:
                            setattr(ns, key, new)
                            self._undo.append((ns, key, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Self and inclusive seconds per span name."""
        covered = [0.0] * len(self.spans)
        for name, _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        total: dict[str, float] = defaultdict(float)
        for (name, _, _, start, end), child in zip(self.spans, covered):
            own[name] += end - start - child
            total[name] += end - start
        return own, total


def run_steps(argv_list, trace: bool) -> dict:
    """Run the CLI steps in this process, in the current directory."""
    cli = importlib.import_module("murmurlab.cli")
    rec = Recorder()
    problems = []
    if trace:
        rec.install()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            for argv in argv_list:
                rec.step = argv[0]
                code = rec.call(f"cli.{argv[0]}", None, cli.main, (list(argv),), {})
                if code != 0:
                    problems.append(f"in-process {argv[0]}: exit code {code}")
    finally:
        rec.uninstall()
    wall = sum(end - start for _, _, parent, start, end in rec.spans if parent < 0)
    result = {"wall": wall, "problems": problems, "missing": rec.missing}
    if trace:
        result["metrics"] = layer_metrics(rec, wall)
        origin = rec.spans[0][3] if rec.spans else 0.0
        result["spans"] = [{"name": n, "step": s, "parent": p, "start": a - origin,
                            "end": b - origin} for n, s, p, a, b in rec.spans]
        result["counts"] = dict(rec.counts)
    return result


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(rec: Recorder, wall: float) -> dict[str, float]:
    own, total = rec.times()
    c = rec.counts
    roots = sum(v for k, v in own.items() if k.startswith("cli."))
    return {
        "curves.parse_s": own["curves.parse"],
        "curves.rows_per_s": _rate(c["curves.rows"], own["curves.parse"]),
        "curves.subset_s": own["curves.subset"],
        "traces.build_s": own["traces.build"],
        "traces.curves_per_s": _rate(c["traces.curves"], own["traces.build"]),
        "traces.entries_per_s": _rate(c["traces.entries"], own["traces.build"]),
        "traces.persist_s": own["traces.persist"],
        "traces.cache_bytes": c["traces.cache_bytes"],
        "traces.load_s": own["traces.load"],
        "traces.rows_s": own["traces.rows"],
        "traces.rows_calls": c["traces.rows_calls"],
        "stratify.permutation_s": own["stratify.permutation"],
        "stratify.shuffles": c["stratify.shuffles"],
        "stratify.shuffles_per_s": _rate(c["stratify.shuffles"],
                                         own["stratify.permutation"]),
        "stratify.partition_s": own["stratify.partition"],
        "stratify.scale_scan_s": own["stratify.scale_scan"],
        "windows.profile_s": own["windows.profile"],
        "windows.series_s": own["windows.series"],
        "confound.self_s": own["confound"],
        "diagnostics.self_s": own["diagnostics"],
        "lfunctions.coeff_s": own["lfunctions.coeff"],
        "lfunctions.gamma_s": own["lfunctions.gamma"],
        "lfunctions.gamma_calls": c["lfunctions.gamma_calls"],
        "lfunctions.gamma_elements": c["lfunctions.gamma_elements"],
        "lfunctions.search_s": own["lfunctions.search"],
        "lfunctions.zero_sets": c["lfunctions.zero_sets"],
        "lfunctions.incomplete_sets": c["lfunctions.incomplete_sets"],
        "lfunctions.s_per_zero_set": (total["lfunctions.search"] / c["lfunctions.zero_sets"]
                                      if c["lfunctions.zero_sets"] else 0.0),
        "lfunctions.stats_s": own["lfunctions.stats"],
        "export.write_s": own["export.write"],
        "export.bytes_written": c["export.bytes_written"],
        "cli.self_s": roots,
        "tracing.traced_s": wall,
        "tracing.spans": len(rec.spans),
        "tracing.missing_targets": len(rec.missing),
    }


def main() -> int:
    """Child-process entry: run.py starts one plain and one traced pass."""
    work, mode = Path(sys.argv[1]), sys.argv[2]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    os.chdir(work)
    argv_list = json.loads(Path("steps.json").read_text())
    result = run_steps(argv_list, trace=mode == "traced")
    if "spans" in result:
        Path("spans.json").write_text(json.dumps({
            "missing_targets": result["missing"], "counts": result.pop("counts"),
            "spans": result.pop("spans")}))
    Path(f"{mode}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
