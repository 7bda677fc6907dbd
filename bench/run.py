"""Benchmark for murmurlab: seeded corpora, real CLI steps, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload stats_battery --seed 1 --seconds 20 --trace 0

With --trace 0 every CLI step runs as its own child process, one after the
other (a closed loop with one client), and the end-to-end metrics are
printed.  With --trace 1 the steps run once as child processes and once
in-process with murmurlab's public functions wrapped (see tracer.py), and
the per-layer metrics are printed.  Each metric is printed as
"<name> <value> <unit>"; the last line of standard output is one JSON
object.  Work files, results and spans go to .bench_work/<workload>/.
Workloads and metrics are explained in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import corpus

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

CORPUS = "corpus.csv"
CACHE = "cache.bin"
OUT = "out"
SETUP_OUT = "setup"

#: numeric libraries stay single-threaded, so the only parallelism is the
#: CLI's own worker count; with two BLAS threads on a 2-CPU machine the same
#: matrix product took anywhere from 0.06 s to 0.12 s
SINGLE_THREADED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}

#: set-ups per run; setup_s is their median
SETUPS = 3
SHUFFLES = 10_000
STEP_TIMEOUT = 150.0
#: no repetition starts once a run has used this much time
RUN_DEADLINE = 120.0
#: seeded curves whose traces at every prime up to ORACLE_MAX_PRIME are
#: checked against the enumeration oracle
ORACLE_CURVES = 8
ORACLE_MAX_PRIME = 400

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

#: untraced step metrics reported by name, in this order
CLI_STEPS = ("ingest", "traces", "stratify", "confound", "diagnose", "windows",
             "zeros", "report")


@dataclass
class Workload:
    """CLI steps of one workload; paths are relative to its work directory."""

    n_primes: int
    rows: list
    setup: list[list[str]]
    steps: list[list[str]]
    cold: tuple[str, ...]    # removed before every set-up
    fresh: tuple[str, ...]   # removed before every repetition


def trace_build(seed: int) -> Workload:
    # distinct random models, nearly one j-invariant each: no work is shared
    rows = corpus.random_models(seed, 500, 500, (((10_000, 2_000_000), 1),),
                                bound=10_000, bsd=False)
    return Workload(
        n_primes=500, rows=rows,
        setup=[["ingest", "--curves", CORPUS, "--out", SETUP_OUT]],
        steps=[["traces", "--curves", CORPUS, "--cache", CACHE, "--out", OUT]],
        cold=(SETUP_OUT,), fresh=(CACHE, OUT))


def stats_battery(seed: int) -> Workload:
    # 75% in the paper's 10k-50k rank-0 slice; the rest fills the outer
    # scale-scan windows
    ranges = (((10_000, 50_000), 75), ((5_000, 10_000), 12.5),
              ((50_000, 100_000), 12.5))
    rows = corpus.random_models(seed, 3000, 200, ranges, bound=200, bsd=True)
    ctx = ["--curves", CORPUS, "--cache", CACHE, "--out", OUT, "--primes", "200"]
    perm = ["--shuffles", str(SHUFFLES), "--seed", str(seed)]
    return Workload(
        n_primes=200, rows=rows,
        setup=[["traces", "--curves", CORPUS, "--cache", CACHE, "--out", SETUP_OUT,
                "--primes", "200"]],
        steps=[["stratify", *ctx, "--rule", "all", *perm],
               ["confound", *ctx, *perm],
               ["diagnose", *ctx],
               ["windows", "--curves", CORPUS, "--out", OUT],
               ["report", "--out", OUT]],
        cold=(CACHE, SETUP_OUT), fresh=(OUT,))


def zero_search(seed: int) -> Workload:
    # twists of 11a1: every curve shares one j-invariant
    rows = corpus.twist_rows(seed, d_max=100)
    top = max(int(r[1]) for r in rows)
    return Workload(
        n_primes=500, rows=rows,
        setup=[["traces", "--curves", CORPUS, "--cache", CACHE, "--out", SETUP_OUT]],
        steps=[["zeros", "--curves", CORPUS, "--cache", CACHE, "--out", OUT,
                "--range", f"11:{top}"]],
        cold=(CACHE, SETUP_OUT), fresh=(OUT,))


WORKLOADS = {"trace_build": trace_build, "stats_battery": stats_battery,
             "zero_search": zero_search}


# --------------------------------------------------------------- CLI steps


@dataclass
class Step:
    argv: list[str]
    seconds: float
    rss_mb: float
    problems: list[str]

    @property
    def name(self) -> str:
        return self.argv[0]


def _out_of(argv) -> str:
    return argv[argv.index("--out") + 1]


def _step_problems(work: Path, argv, returncode: int) -> list[str]:
    cmd, out = argv[0], work / _out_of(argv)
    problems = []
    if returncode != 0:
        problems.append(f"{cmd}: exit code {returncode}")
    if not (out / f"{cmd}.json").is_file():
        problems.append(f"{cmd}: no {cmd}.json written")
    if (out / f"{cmd}_error.json").exists():
        problems.append(f"{cmd}: wrote {cmd}_error.json")
    return problems


def spawn(work: Path, argv: list[str]) -> tuple[float, float, int]:
    """Run `murmurlab <argv>` in `work`: wall seconds, peak RSS in MB, exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(work / "step.log", "ab") as log:
        log.write(f"$ murmurlab {' '.join(argv)}\n".encode())
        log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "murmurlab.cli", *argv],
                                cwd=work, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(STEP_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux and covers the child's own reaped workers
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def run_cli(work: Path, argv: list[str]) -> Step:
    """One CLI step as a child process, with the checks every step gets."""
    seconds, rss_mb, code = spawn(work, argv)
    return Step(list(argv), seconds, rss_mb, _step_problems(work, argv, code))


def _remove(work: Path, names) -> None:
    for name in names:
        path = work / name
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()


def _digests(work: Path, argv_list) -> dict[str, str]:
    """SHA-256 of every report the steps wrote, and of the cache."""
    files = {work / _out_of(a) / f"{a[0]}.json" for a in argv_list}
    if any(a[0] == "traces" for a in argv_list):
        files.add(work / CACHE)
    return {str(f.relative_to(work)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(files) if f.is_file()}


def _blame(steps: list[Step], name: str, problem: str) -> None:
    """Attach a problem to the step that wrote the file `name`."""
    cmd = "traces" if name == CACHE else Path(name).stem
    for step in steps:
        if step.name == cmd:
            step.problems.append(problem)
            return
    steps[-1].problems.append(problem)


def compare_digests(steps: list[Step], first: dict, again: dict, what: str) -> None:
    for name in sorted(set(first) | set(again)):
        if first.get(name) != again.get(name):
            _blame(steps, name, f"{name} differs between {what}")


# ------------------------------------------------------------ output checks


def _load_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def check_cache(work: Path, wl: Workload, rng: random.Random) -> list[str]:
    """The cache against the corpus: shape, bad flags, Hasse, oracle samples."""
    from murmurlab.traces import load_trace_matrix

    try:
        matrix = load_trace_matrix(work / CACHE)
    except Exception as exc:  # any failure to read back is a failed check
        return [f"cache unreadable: {exc!r}"]
    by_label = {r[0]: r for r in wl.rows}
    primes = np.asarray(corpus.first_primes(wl.n_primes), dtype=np.int64)
    if sorted(matrix.curve_labels) != sorted(by_label):
        return ["cache labels differ from the corpus"]
    if not np.array_equal(matrix.primes.primes, primes):
        return ["cache prime list differs from the request"]
    problems = []
    conductors = np.array([int(by_label[l][1]) for l in matrix.curve_labels])
    if not np.array_equal(matrix.bad_flags, conductors[:, None] % primes[None, :] == 0):
        problems.append("bad-prime flags differ from p | N")
    traces = matrix.traces.astype(np.int64)
    hasse = np.floor(2.0 * np.sqrt(primes)).astype(np.int64)
    limit = np.where(matrix.bad_flags, 1, hasse[None, :])
    if np.any(np.abs(traces) > limit):
        problems.append("trace outside the Hasse bound or bad-prime range")
    small = primes[primes <= ORACLE_MAX_PRIME]
    for i in rng.sample(range(len(matrix)), min(ORACLE_CURVES, len(matrix))):
        row = by_label[matrix.curve_labels[i]]
        model = tuple(int(v) for v in row[3:8])
        for j, p in enumerate(small.tolist()):
            want = corpus.ap_enumerate(model, int(row[1]), p)
            if traces[i, j] != want:
                problems.append(f"{row[0]}: a_{p} = {traces[i, j]}, "
                                f"enumeration gives {want}")
    return problems


def check_trace_build(work: Path, wl: Workload, seed: int) -> dict[str, list[str]]:
    report = _load_json(work / OUT / "traces.json") or {}
    info = report.get("traces", {})
    problems = check_cache(work, wl, random.Random(seed))
    if info.get("n_curves") != len(wl.rows) or info.get("n_primes") != wl.n_primes:
        problems.append(f"traces report shape {info.get('n_curves')} x "
                        f"{info.get('n_primes')}, requested {len(wl.rows)} x {wl.n_primes}")
    return {"traces": problems}


def _permutation_reports(node):
    if isinstance(node, dict):
        if "n_shuffles" in node and "p_value" in node:
            yield node
        for value in node.values():
            yield from _permutation_reports(value)
    elif isinstance(node, list):
        for value in node:
            yield from _permutation_reports(value)


def check_stats_battery(work: Path, wl: Workload, seed: int) -> dict[str, list[str]]:
    found = {}
    for cmd, least in (("stratify", 5), ("confound", 1)):
        reports = list(_permutation_reports(_load_json(work / OUT / f"{cmd}.json")))
        problems = [] if len(reports) >= least else [
            f"{cmd}: {len(reports)} permutation reports, expected at least {least}"]
        for rep in reports:
            if rep["n_shuffles"] != SHUFFLES or not 0 < rep["p_value"] <= 1:
                problems.append(f"{cmd}: permutation report n_shuffles="
                                f"{rep['n_shuffles']} p={rep['p_value']}")
        found[cmd] = problems
    aggregate = (_load_json(work / OUT / "report.json") or {}).get("reports", {})
    missing = {"stratify", "confound", "diagnose", "windows"} - set(aggregate)
    found["report"] = [f"report: missing {sorted(missing)}"] if missing else []
    return found


def check_zero_search(work: Path, wl: Workload, seed: int) -> dict[str, list[str]]:
    problems = []
    zero_sets = {}
    for group in ("sha_1", "sha_ge4"):
        try:
            rows = corpus.read_rows(work / OUT / f"zeros_{group}.csv")
        except OSError as exc:
            return {"zeros": [f"zero sets unreadable: {exc}"]}
        zero_sets.update({r["label"]: r for r in rows})
    rank0 = {r[0] for r in wl.rows if r[2] == 0}
    if set(zero_sets) != rank0:
        problems.append(f"zero sets for {len(zero_sets)} curves, expected {len(rank0)}")
    for label, z in zero_sets.items():
        if label != "11a1" and z["complete"] != "1":
            problems.append(f"{label}: incomplete zero set")
    anchor = zero_sets.get("11a1", {}).get("gamma1") or "nan"
    if not abs(float(anchor) - corpus.FIRST_ZERO_11A1) <= 1e-3:
        problems.append(f"11a1 first zero {anchor}, expected {corpus.FIRST_ZERO_11A1}")
    report = (_load_json(work / OUT / "zeros.json") or {}).get("zeros", {})
    if "t2" not in report.get("hotelling", {}):
        problems.append(f"no Hotelling result: {report.get('hotelling')}")
    return {"zeros": problems}


def check_twist_cache(work: Path, wl: Workload, seed: int) -> list[str]:
    """a_p(E_d) = (d/p) a_p(11a1) at every listed prime not dividing 11 d."""
    from murmurlab.traces import load_trace_matrix

    matrix = load_trace_matrix(work / CACHE)
    primes = corpus.first_primes(wl.n_primes)
    base = matrix.traces[matrix.row_index("11a1")].astype(np.int64)
    problems = []
    for row in wl.rows:
        d = -int(row[4])  # the twist model has a2 = -d
        traces = matrix.traces[matrix.row_index(row[0])].astype(np.int64)
        want = np.array([corpus.kronecker(d, p) for p in primes]) * base
        good = np.array([(11 * d) % p != 0 for p in primes])
        if not np.array_equal(traces[good], want[good]):
            problems.append(f"{row[0]}: traces differ from (d/p) a_p(11a1), d = {d}")
    return problems


CONTENT_CHECKS = {"trace_build": check_trace_build,
                  "stats_battery": check_stats_battery,
                  "zero_search": check_zero_search}


def check_setup(work: Path, name: str, wl: Workload, seed: int,
                steps: list[Step]) -> None:
    """Content checks on the outputs of the first set-up."""
    step = steps[0]
    report = (_load_json(work / SETUP_OUT / f"{step.name}.json") or {}).get(step.name, {})
    if step.name == "ingest":
        if report.get("n_curves") != len(wl.rows) or report.get("n_rejected_rows") != 0:
            step.problems.append(f"ingest kept {report.get('n_curves')} curves and "
                                 f"rejected {report.get('n_rejected_rows')} rows")
        return
    if report.get("n_curves") != len(wl.rows) or report.get("n_primes") != wl.n_primes:
        step.problems.append("set-up traces report does not match the request")
    step.problems += check_cache(work, wl, random.Random(seed))
    if name == "zero_search" and not step.problems:
        step.problems += check_twist_cache(work, wl, seed)


def check_rep(work: Path, name: str, wl: Workload, seed: int,
              steps: list[Step]) -> None:
    for cmd, problems in CONTENT_CHECKS[name](work, wl, seed).items():
        for problem in problems:
            _blame(steps, f"{cmd}.json", problem)


# ------------------------------------------------------------------ running


@dataclass
class Run:
    setups: list[list[Step]] = field(default_factory=list)
    reps: list[list[Step]] = field(default_factory=list)

    def all_steps(self) -> list[Step]:
        return [s for group in self.setups + self.reps for s in group]


def prepare(name: str, seed: int) -> tuple[Path, Workload]:
    wl = WORKLOADS[name](seed)
    work = WORK_ROOT / name
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    (work / CORPUS).write_text(corpus.to_csv(wl.rows))
    return work, wl


def corpus_shape(wl: Workload) -> dict:
    """The input properties each workload varies (see README.md)."""
    models = [tuple(int(v) for v in r[3:8]) for r in wl.rows]
    rank0 = [r for r in wl.rows if r[2] == 0]
    sha = [float(r[9]) for r in rank0]
    return {
        "curves": len(wl.rows),
        "primes": wl.n_primes,
        "distinct_j": len({corpus.j_invariant(m) for m in models}),
        "rank0": len(rank0),
        "rank0_sha1_share": round(sha.count(1.0) / max(1, len(sha)), 4),
    }


def untraced(work: Path, name: str, wl: Workload, seed: int, seconds: float,
             n_setups: int, max_reps: int | None) -> Run:
    """Set-ups and timed repetitions, interleaved so both spread over the run.

    A repetition starts while another still fits in `seconds` of timed work
    (at least one, at most `max_reps`); every set-up starts cold.
    """
    run = Run()
    began = time.perf_counter()
    timed = 0.0
    while True:
        if len(run.setups) < n_setups:
            _remove(work, wl.cold)
            run.setups.append([run_cli(work, argv) for argv in wl.setup])
            digests = _digests(work, wl.setup)
            if len(run.setups) == 1:
                check_setup(work, name, wl, seed, run.setups[0])
                setup_digests = digests
            else:
                compare_digests(run.setups[-1], setup_digests, digests, "set-ups")
        last = sum(s.seconds for s in run.reps[-1]) if run.reps else 0.0
        if not run.reps or (
                (max_reps is None or len(run.reps) < max_reps)
                and timed + last <= seconds
                and time.perf_counter() - began + last <= RUN_DEADLINE):
            _remove(work, wl.fresh)
            rep = [run_cli(work, argv) for argv in wl.steps]
            run.reps.append(rep)
            timed += sum(s.seconds for s in rep)
            digests = _digests(work, wl.steps)
            if len(run.reps) == 1:
                check_rep(work, name, wl, seed, rep)
                rep_digests = digests
            else:
                compare_digests(rep, rep_digests, digests, "repetitions")
        elif len(run.setups) >= n_setups:
            return run


def step_metrics(steps: list[Step]) -> dict[str, float]:
    """cli.<cmd>_s and cli.<cmd>_rss_mb: median over a step's runs, 0 if not run."""
    out = {}
    for cmd in CLI_STEPS:
        runs = [s for s in steps if s.name == cmd]
        out[f"cli.{cmd}_s"] = statistics.median(s.seconds for s in runs) if runs else 0.0
        out[f"cli.{cmd}_rss_mb"] = statistics.median(s.rss_mb for s in runs) if runs else 0.0
    return out


def per_layer_names() -> list[str]:
    """Every metric a traced run prints, in order."""
    import tracer

    return [*step_metrics([]), "cli.import_s",
            *tracer.layer_metrics(tracer.Recorder(), 0.0),
            "tracing.plain_s", "tracing.overhead_ratio"]


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "wall_s": statistics.median(sum(s.seconds for s in rep) for rep in run.reps),
        "setup_s": statistics.median(sum(s.seconds for s in g) for g in run.setups),
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in rep) for rep in run.reps),
    }


def unit_of(metric: str) -> str:
    if metric == "lfunctions.s_per_zero_set":
        return "s"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_rss_mb") or metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes") or metric.endswith("bytes_written"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def import_seconds(work: Path, times: int = 3) -> float:
    """Median start-up of one CLI child: interpreter plus package import."""
    return statistics.median(spawn(work, ["--version"])[0] for _ in range(times))


def in_process(work: Path, mode: str) -> dict:
    """One pass of every step in a fresh child process (see tracer.py)."""
    with open(work / "step.log", "ab") as log:
        try:
            subprocess.run([sys.executable, str(Path(__file__).with_name("tracer.py")),
                            str(work), mode], cwd=work, stdout=log,
                           stderr=subprocess.STDOUT, timeout=STEP_TIMEOUT, check=False)
        except subprocess.TimeoutExpired:
            pass
    return _load_json(work / f"{mode}.json") or {
        "wall": 0.0, "problems": [f"{mode} in-process pass wrote no result"],
        "missing": []}


def traced(work: Path, name: str, wl: Workload, seed: int) -> tuple[Run, dict, list]:
    """Steps once as checked child processes, then in-process plain and traced."""
    run = untraced(work, name, wl, seed, 0.0, n_setups=1, max_reps=1)
    steps = run.all_steps()
    everything = wl.setup + wl.steps
    before = _digests(work, everything)
    import_s = import_seconds(work)
    (work / "steps.json").write_text(json.dumps(everything))
    passes = {}
    for mode in ("plain", "traced"):
        _remove(work, wl.cold + wl.fresh)
        passes[mode] = in_process(work, mode)
        steps[-1].problems.extend(passes[mode]["problems"])
        compare_digests(steps, before, _digests(work, everything),
                        f"the child-process and the {mode} in-process run")
    plain, result = passes["plain"]["wall"], passes["traced"]
    metrics = {**step_metrics(steps), "cli.import_s": import_s,
               **result.get("metrics", {}), "tracing.plain_s": plain,
               "tracing.overhead_ratio": result["wall"] / plain - 1.0 if plain else 0.0}
    # a failed pass leaves gaps; the run is reported incorrect either way
    return run, {k: metrics.get(k, 0.0) for k in per_layer_names()}, result["missing"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "murmurlab" / "cli.py").is_file():
        print(f"error: murmurlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(SINGLE_THREADED)  # inherited by every child

    work, wl = prepare(args.workload, args.seed)
    n_cpu = len(os.sched_getaffinity(0))
    if args.trace:
        run, metrics, missing = traced(work, args.workload, wl, args.seed)
    else:
        run = untraced(work, args.workload, wl, args.seed, args.seconds,
                       n_setups=SETUPS, max_reps=None)
        metrics, missing = end_to_end(run), []
    steps = run.all_steps()
    failed = sum(1 for s in steps if s.problems)
    header = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "nproc": n_cpu, "cpu_count": os.cpu_count(),
              "setups": len(run.setups), "reps": len(run.reps), **corpus_shape(wl)}
    print("# " + " ".join(f"{k}={v}" for k, v in header.items()))
    for target in missing:
        print(f"# wrapper target not found: {target}")
    for step in steps:
        for problem in step.problems:
            print(f"# FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} {value} {unit_of(name)}")
    if not args.trace:
        for name, value in step_metrics(steps).items():
            if value:
                print(f"# {name} {value} {unit_of(name)}")
    result = {"correct": failed == 0, "attempted": len(steps), "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    (work / f"result_trace{args.trace}.json").write_text(json.dumps(
        {**header, "steps": [{"argv": s.argv, "seconds": s.seconds, "rss_mb": s.rss_mb,
                              "problems": s.problems} for s in steps],
         "missing_targets": missing, **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
