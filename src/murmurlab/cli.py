"""Command-line orchestrator.

One subcommand per analysis stage, all driven by a RunConfig assembled from
an optional key=value config file overridden by command-line flags.  A step
is a function of (config, Context) and returns only its report section; the
Context reads each input once, on first use.  `main` adds the report head:
the version, the config hash, the seed, and the SHA-256 of each input file
the step's `_SUBCOMMANDS` entry names.  Reports hold no timestamps, so
identical inputs produce byte-identical reports.  The package raises
ValueError for every failure its inputs cause and defines no exception
class, so one fixed tuple of built-in classes catches each failure a user's
inputs can cause (`_USER_ERRORS`).

A step's section is assembled from the report parts its analysis functions
return: dicts with the report's own keys and JSON types, such as
`stratify.bonferroni`'s or each report of `stratify.permutation_test`.  A
function whose values also fill a CSV returns its part together with them:
`confound.euler_cumsum` the array of Delta, `diagnostics.moment_profile`
the CSV's columns by header name.  What a step only counts or passes on is
plain data too: groups are a dict of name -> row positions
(`stratify.partition`), matches a tuple of (row a, row b, distance)
(`confound.match_nn`), and a rejected CSV row is its ingest report entry
{"line", "message"}.  A part is computed through `_part` where the inputs
may not give it; `_part` then records the part's error in its place, and
the other parts still run.

Each subcommand runs in its own process, so start-up is part of every step.
The package registers its submodules lazily, and this module binds them with
`from . import ...` and calls them qualified (`stratify.permutation_test`):
a step loads, and compiles, only the modules it calls.  Nothing at module
level touches a step module, and NumPy is imported only inside the steps
that use it, so `report` and `--version` run without it.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

from . import (__version__, confound, curves, diagnostics, export, lfunctions, stratify,
               traces, windows)

if TYPE_CHECKING:
    import numpy as np

#: the invariants of stratify.TABLE_RULES, which the parser offers without loading stratify
RULE_NAMES = ("tamagawa", "sha", "period", "torsion", "root_number")


@dataclass
class RunConfig:
    curves: str | None = None
    cache: str | None = None
    zeros: str | None = None
    primes: int = 500
    window: float = 5000.0
    step: float = 500.0
    range: tuple[int, int] | None = None
    rule: str = "sha"
    band: tuple[float, float] | None = None
    shuffles: int = 10_000
    seed: int = 1
    out: str = "out"
    svg: bool = False
    sample: int = 0
    #: conductor windows of the scale-invariance scan
    scan_windows: tuple[tuple[int, int], ...] = ((5_000, 20_000), (10_000, 50_000),
                                                 (20_000, 70_000), (50_000, 100_000))

    def digest(self) -> str:
        """Hash of the fields that decide a report's content.

        The output directory is left out, so the same inputs hash alike in
        any directory.
        """
        fields = dataclasses.asdict(self)
        del fields["out"]
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise ValueError(f"expected LO:HI, got {text!r}") from None


def _int_range(text: str) -> tuple[int, int]:
    """LO:HI with integer bounds, such as 10000:50000 or 1e4:5e4."""
    lo, hi = _parse_range(text)
    if not (lo.is_integer() and hi.is_integer()):
        raise ValueError(f"expected integer bounds LO:HI, got {text!r}")
    return int(lo), int(hi)


#: RunConfig field -> (parser of its text form, argparse options of its flag).
#: Config-file values and flags are both text and go through the same parser.
_FIELDS = {
    "curves": (str, {"help": "canonical curves CSV"}),
    "cache": (str, {"help": "binary trace cache path"}),
    "zeros": (str, {"help": "externally computed zeros CSV"}),
    "primes": (int, {"help": "prime count (default 500)"}),
    "window": (float, {"help": "window width W"}),
    "step": (float, {"help": "window step S"}),
    "range": (_int_range, {"help": "conductor range LO:HI"}),
    "rule": (str, {"choices": [*RULE_NAMES, "all"], "help": "stratification rule"}),
    "band": (_parse_range, {"help": "L-value band LO:HI"}),
    "shuffles": (int, {"help": "permutation shuffles"}),
    "seed": (int, {"help": "RNG seed (always recorded)"}),
    "out": (str, {"help": "output directory"}),
    "svg": (lambda text: text.lower() in ("1", "true", "yes"),
            {"action": "store_const", "const": "true", "help": "emit SVG plots"}),
    "sample": (int, {"help": "curves sampled per group for zero statistics"}),
    "scan_windows": (lambda text: tuple(_int_range(w) for w in text.split(",")),
                     {"help": "comma-separated LO:HI windows for the scale scan"}),
}


def _file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_config_file(path) -> dict:
    """key=value lines; blank lines and # comments ignored, a key set twice refused."""
    values, lines = {}, {}
    for number, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in lines:
            raise ValueError(f"config {path}: key {key!r} set on line {lines[key]} "
                             f"and again on line {number}")
        lines[key] = number
        values[key] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by the flags."""
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in values:
        if key not in _FIELDS:
            raise ValueError(f"unknown config key {key!r}")
    for key in _FIELDS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    cfg = RunConfig(**{key: _FIELDS[key][0](text) for key, text in values.items()})
    # a config file bypasses the parser's choices for --rule
    if cfg.rule != "all" and cfg.rule not in RULE_NAMES:
        raise ValueError(f"unknown rule {cfg.rule!r}")
    if cfg.sample < 0:
        raise ValueError(f"sample must be >= 0, got {cfg.sample}")
    if cfg.range is not None and cfg.range[0] > cfg.range[1]:
        raise ValueError(f"range {cfg.range[0]}:{cfg.range[1]} has LO > HI")
    return cfg


class Context:
    """What a step reads, each part made on first use and then kept.

    With a cache, table and matrix come from it and the CSV is hashed but not
    parsed; a cache of other CSV bytes or primes is refused, a missing one
    before anything is built.  Without a cache the CSV is parsed and the
    matrix built.  Groups cut from the table index it.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.conductor_range = cfg.range or (10_000, 50_000)

    @cached_property
    def out(self) -> Path:
        out = Path(self.cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        return out

    @property
    def csv_path(self) -> str:
        if not self.cfg.curves:
            raise ValueError("a curves CSV is required (--curves)")
        return self.cfg.curves

    @cached_property
    def csv_sha256(self) -> str:
        return _file_digest(self.csv_path)

    @cached_property
    def parsed(self) -> curves.ParseResult:
        with open(self.csv_path, newline="") as fh:
            return curves.parse_curve_table(fh)

    @property
    def trace_cache(self) -> Path:
        """The cache of `traces`: --cache, else traces.bin in the out directory."""
        return Path(self.cfg.cache) if self.cfg.cache else self.out / "traces.bin"

    def cached_matrix(self, path, primes: traces.PrimeList) -> traces.TraceMatrix:
        """The cached matrix and its table, unless built from other CSV bytes or primes."""
        import numpy as np

        cache = traces.load_trace_matrix(path)
        if cache.csv_sha256 != self.csv_sha256:
            problem = (f"was built for a different curve table: a CSV with SHA-256 "
                       f"{cache.csv_sha256}, not {self.cfg.curves} with SHA-256 "
                       f"{self.csv_sha256}")
        elif not np.array_equal(cache.primes.primes, primes.primes):
            problem = f"holds {len(cache.primes)} primes, {len(primes)} were requested"
        else:
            return cache
        raise ValueError(f"cache {path} {problem}; remove it or point --cache elsewhere")

    @cached_property
    def matrix(self) -> traces.TraceMatrix:
        """The trace matrix; its `table` is the ingested CSV."""
        self.csv_sha256  # taken first, so an unreadable CSV is the error reported
        cache = self.trace_cache if self.cfg.cache else None
        if cache and not cache.exists():
            raise ValueError(f"trace cache {cache} does not exist; build it with `traces`")
        primes = traces.default_prime_list(self.cfg.primes)
        if cache:
            return self.cached_matrix(cache, primes)
        return traces.build_trace_matrix(self.parsed.table, primes)

    @property
    def table(self) -> curves.CurveTable:
        return self.matrix.table

    @cached_property
    def rank0(self) -> curves.CurveTable:
        return self.table.filter(rank=0, conductor_range=self.conductor_range)

    def sha_groups(self, band: tuple[float, float] | None = None) -> dict[str, np.ndarray]:
        """The Sha = 1 and Sha >= 4 groups of SHA_RULE in rank0, or in its L-value band."""
        table = self.rank0 if band is None else confound.lvalue_band(self.rank0, band)
        groups = stratify.partition(table, stratify.SHA_RULE)
        return {"sha_1": groups["group_a"], "sha_ge4": groups["group_b"]}


def _report_head(command: str, cfg: RunConfig, ctx: Context) -> dict:
    """Version, config hash, seed, and the path and SHA-256 of each input file of a step."""
    paths = {name: getattr(cfg, name) for name in _SUBCOMMANDS[command][1]}
    if command == "traces":  # the cache it wrote or read
        paths["cache"] = ctx.trace_cache
    return {
        "version": __version__,
        "config_hash": cfg.digest(),
        "seed": cfg.seed,
        "inputs": {
            name: {"path": str(Path(path)),  # one spelling: ./c.bin is c.bin
                   "sha256": ctx.csv_sha256 if name == "curves" else _file_digest(path)}
            for name, path in paths.items()
            if path
        },
    }


def _part(compute, *args, **kwargs):
    """compute(*args, **kwargs), or {"error": ...} if it raises ValueError.

    A report part the inputs cannot give records why, and the other parts still run.
    Every step reads ctx.table and ctx.matrix before its first part, so a bad
    CSV or cache fails the step, not a part.
    """
    try:
        return compute(*args, **kwargs)
    except ValueError as exc:
        return {"error": str(exc)}


def _profile_gap(matrix: traces.TraceMatrix, rows_a, rows_b) -> np.ndarray:
    """The murmuration profile of rows_b minus that of rows_a."""
    return (windows.murmuration_profile(rows_b, matrix)
            - windows.murmuration_profile(rows_a, matrix))


def cmd_ingest(cfg: RunConfig, ctx: Context) -> dict:
    result = ctx.parsed
    table = result.table
    n_classes = len(set(map(curves.isogeny_class_of, table.labels)))
    return {
        "n_curves": len(table),
        "n_rejected_rows": len(result.errors),
        "rejected": list(result.errors[:100]),
        "rank_histogram": {str(k): v for k, v in table.rank_histogram().items()},
        "conductor_min": int(table.conductors.min()) if len(table) else None,
        "conductor_max": int(table.conductors.max()) if len(table) else None,
        "n_isogeny_classes": n_classes,
        # the share of curves that one curve per isogeny class would keep
        "dedupe_retained_ratio": n_classes / len(table) if len(table) else None,
    }


def cmd_traces(cfg: RunConfig, ctx: Context) -> dict:
    csv_sha256 = ctx.csv_sha256
    primes = traces.default_prime_list(cfg.primes)
    cache_path = ctx.trace_cache
    rebuilt = not cache_path.exists()
    if rebuilt:
        matrix = traces.build_trace_matrix(ctx.parsed.table, primes)
        traces.persist_trace_matrix(matrix, cache_path, csv_sha256)
    else:
        matrix = ctx.cached_matrix(cache_path, primes)
    return {
        "n_curves": len(matrix),
        "n_primes": len(matrix.primes),
        "last_prime": int(matrix.primes.primes[-1]),
        "rebuilt": rebuilt,
        "bad_prime_entries": int(matrix.bad_flags.sum()),
    }


def cmd_windows(cfg: RunConfig, ctx: Context) -> dict:
    table, out = ctx.parsed.table, ctx.out

    def residual_statistics(invariant: str, per_rank: list) -> dict:
        res = [windows.savgol_detrend(series) for series in per_rank]
        for rank, series in enumerate(res):
            # a segment no longer than the series, so no ValueError to catch
            freqs, power = windows.welch_psd(series.values, segment=min(256, len(series)))
            export.write_xy_csv(out / f"psd_{invariant}_rank{rank}.csv",
                                freqs, power, ("frequency", "power"))
        return {"residual_correlation": _part(windows.residual_correlation, *res),
                "cross_correlation_peak": _part(windows.cross_correlation, *res,
                                                max_lag=min(20, len(res[0]) - 3))}

    per_invariant = {}
    for invariant in curves.INVARIANT_IDS:
        entry = per_invariant[invariant] = {}
        per_rank = []
        for rank in (0, 1):
            series = windows.sliding_window_series(table, invariant, rank,
                                                   cfg.window, cfg.step)
            export.write_series_csv(out / f"windows_{invariant}_rank{rank}.csv", series,
                                    {"invariant": invariant, "rank": rank,
                                     "width": cfg.window, "step": cfg.step})
            if cfg.svg and len(series):
                export.write_svg_lineplot(out / f"windows_{invariant}_rank{rank}.svg",
                                          series.centers, {invariant: series.values},
                                          f"{invariant}, rank {rank}")
            entry[f"rank{rank}_windows"] = int(len(series))
            per_rank.append(series)
        stats = _part(residual_statistics, invariant, per_rank)
        # a series too short or uneven to detrend: the reason, under one key
        entry.update({"residuals": stats} if "error" in stats else stats)
    return {"width": cfg.window, "step": cfg.step, "invariants": per_invariant}


def cmd_stratify(cfg: RunConfig, ctx: Context) -> dict:
    import numpy as np

    table, matrix, out = ctx.table, ctx.matrix, ctx.out
    by_name = {rule.invariant: rule for rule in stratify.TABLE_RULES}
    rules = stratify.TABLE_RULES if cfg.rule == "all" else (by_name[cfg.rule],)
    parts = {}  # rule -> its groups, for each rule whose groups are all nonempty

    def partitioned(rule: stratify.StratRule) -> dict:
        base = ctx.rank0
        if rule.invariant == "root_number":
            # cross-rank calibration baseline: rank 0 vs rank 1
            in_range = table.filter(conductor_range=ctx.conductor_range)
            base = in_range.subset(np.flatnonzero(np.isin(in_range.ranks, (0, 1))))
        groups = parts[rule] = stratify.partition(base, rule)
        sizes = {k: len(v) for k, v in groups.items()}
        return {"group_sizes": sizes, "n_unassigned": len(base) - sum(sizes.values())}

    entries = {rule.invariant: _part(partitioned, rule) for rule in rules}
    if not parts:
        raise ValueError(entries[rules[0].invariant]["error"])
    # one call, so rules over the same number of curves share their shuffles
    strat_reports = stratify.permutation_test(list(parts.values()), matrix,
                                              n_shuffles=cfg.shuffles, seed=cfg.seed)
    for (rule, groups), strat_report in zip(parts.items(), strat_reports):
        entries[rule.invariant]["report"] = strat_report
        if rule.kind == "two_group":
            export.write_xy_csv(out / f"diff_{rule.invariant}.csv", matrix.primes.primes,
                                _profile_gap(matrix, groups["group_a"], groups["group_b"]),
                                ("prime", "mean_ap_diff"))
    section = {"conductor_range": list(ctx.conductor_range), "rules": entries,
               # the threshold counts only the rules that ran
               "bonferroni": stratify.bonferroni([r["p_value"] for r in strat_reports])}
    if len(cfg.scan_windows) >= 3:
        section["scale_scan"] = _part(stratify.scale_scan, table.filter(rank=0), matrix,
                                      by_name[cfg.rule if cfg.rule != "all" else "sha"],
                                      cfg.scan_windows)
    return section


def cmd_confound(cfg: RunConfig, ctx: Context) -> dict:
    table, matrix, rank0 = ctx.table, ctx.matrix, ctx.rank0
    band = cfg.band or (1.53, 2.84)
    battery = {}
    tests = []  # (entry, groups): the permutation report of groups fills entry

    def tested(groups: dict[str, np.ndarray]) -> dict:
        entry = {}
        tests.append((entry, groups))
        return entry

    # each control partitions for itself, so a partition that fails is the
    # error of every control built on it
    def tamagawa_omega(k: int) -> dict:
        groups = stratify.partition(rank0, stratify.TAMAGAWA_RULE)
        return tested(confound.control_omega(table, groups, k))

    def tamagawa_conductor_matched() -> dict:
        groups = stratify.partition(rank0, stratify.TAMAGAWA_RULE)
        key, max_distance = "conductor", 500.0
        pairs = confound.match_nn(table, groups["group_a"], groups["group_b"], key,
                                  max_distance)
        paired = confound.matched_rms(pairs, matrix)
        export.write_json(ctx.out / "matched_pairs_tamagawa.json", {
            "key": key,
            "max_distance": max_distance,
            "pairs": [[table.labels[a], table.labels[b], d] for a, b, d in pairs],
        })
        return paired

    def sha_lvalue_matched(groups: dict[str, np.ndarray]) -> dict:
        pairs = confound.match_nn(table, groups["group_b"], groups["group_a"], "l_value", 0.1)
        paired = confound.matched_rms(pairs, matrix)
        del paired["rms_per_pair"]  # reported for the Tamagawa matches only
        return paired

    def sha_lvalue_band() -> dict:
        groups = stratify.partition(confound.lvalue_band(rank0, band), stratify.SHA_RULE)
        # the matched pairs are reported only when the band partitions
        battery["sha_lvalue_matched"] = _part(sha_lvalue_matched, groups)
        return {"band": list(band), "group_sizes": {k: len(v) for k, v in groups.items()},
                "report": tested(groups)}

    def sha_triple_control() -> dict:
        halves = confound.triple_control(confound.lvalue_band(rank0, band))
        return {half: {"sizes": {k: len(v) for k, v in groups.items()},
                       "report": tested(groups)}
                for half, groups in halves.items()}

    def bsd_group_ratios() -> dict:
        groups = ctx.sha_groups()
        ratios = confound.bsd_group_ratios(table, groups)
        primes = matrix.primes.primes
        # the Euler sums are reported only when the ratios are
        battery["euler_cumsum"], delta = confound.euler_cumsum(
            primes, windows.murmuration_profile(groups["sha_1"], matrix),
            windows.murmuration_profile(groups["sha_ge4"], matrix))
        export.write_xy_csv(ctx.out / "euler_delta.csv", primes, delta, ("prime", "delta"))
        return ratios

    for k in (2, 3, 4):
        battery[f"tamagawa_omega_{k}"] = _part(tamagawa_omega, k)
    battery["tamagawa_conductor_matched"] = _part(tamagawa_conductor_matched)
    battery["sha_lvalue_band"] = _part(sha_lvalue_band)
    battery["sha_triple_control"] = _part(sha_triple_control)
    # one call, so controls over the same number of curves share their shuffles
    strat_reports = stratify.permutation_test([groups for _, groups in tests], matrix,
                                              n_shuffles=cfg.shuffles, seed=cfg.seed)
    for (entry, _), strat_report in zip(tests, strat_reports):
        entry.update(strat_report)
    battery["bsd_group_ratios"] = _part(bsd_group_ratios)
    battery["period_vs_log_conductor"] = _part(confound.invariant_correlation, rank0)
    return {"conductor_range": list(ctx.conductor_range), "battery": battery}


def cmd_diagnose(cfg: RunConfig, ctx: Context) -> dict:
    matrix, out = ctx.matrix, ctx.out
    band = cfg.band or (1.10, 3.28)
    groups = ctx.sha_groups(band)
    section = {"band": list(band),
               "conductor_range": list(ctx.conductor_range),
               "groups": {k: len(v) for k, v in groups.items()}}
    moments = section["moments"] = {}
    for name, members in groups.items():
        moments[name], columns = diagnostics.moment_profile(members, matrix)
        export.write_table_csv(out / f"moments_{name}.csv", columns, zip(*columns.values()))
    section["sato_tate_ks"] = _part(diagnostics.satotate_ks, groups["sha_1"],
                                    groups["sha_ge4"], matrix)
    section["crossover"] = diagnostics.crossover_scan(
        matrix.primes.primes, _profile_gap(matrix, groups["sha_1"], groups["sha_ge4"]))
    section["reduction"], entries = diagnostics.classify_reduction(matrix)
    export.write_table_csv(out / "reduction_types.csv", ("label", "prime", "type"), entries)
    section["bad_prime_share"] = _part(diagnostics.bad_prime_share, groups["sha_1"],
                                       groups["sha_ge4"], matrix)
    return section


def cmd_zeros(cfg: RunConfig, ctx: Context) -> dict:
    import numpy as np

    table, matrix, out = ctx.table, ctx.matrix, ctx.out
    band = cfg.band or (1.53, 2.84)
    imported = ({z.label: z for z in lfunctions.read_zero_sets_csv(cfg.zeros)}
                if cfg.zeros else None)
    groups = ctx.sha_groups(band)
    rng = None  # made at the first draw: a run that samples nothing imports no numpy.random
    # a curve whose conductor, root number and model fail the functional
    # equation is neither searched nor counted in the statistics, whether its
    # zeros are searched or imported
    found, fe_failed = {}, {}  # group -> [(row, zero set)], [label]
    for name, members in groups.items():
        if imported is not None:
            members = [i for i in members if table.labels[i] in imported]
        elif cfg.sample and cfg.sample < len(members):
            if rng is None:
                rng = np.random.default_rng(cfg.seed)
            members = rng.choice(members, size=cfg.sample, replace=False)
        # a_p from the matrix, counted past its last prime; one series held at a time
        all_series = lfunctions.LSeries.from_curves([table.record(i) for i in members],
                                                    known=matrix.traces[members])
        found[name], fe_failed[name] = [], []
        for i, series in zip(members, all_series):
            if lfunctions.fe_residual(series) > lfunctions.FE_TOL:
                fe_failed[name].append(series.label)
            elif imported is None:
                found[name].append((i, lfunctions.locate_zeros(series)))
            else:
                found[name].append((i, imported[series.label]))
        if imported is None:
            lfunctions.write_zero_sets_csv(out / f"zeros_{name}.csv",
                                           [z for _, z in found[name]])
    complete = {name: [z for _, z in pairs if z.complete] for name, pairs in found.items()}
    cond = {name: [int(table.conductors[i]) for i, z in pairs if z.complete]
            for name, pairs in found.items()}
    zeros_report = {
        "band": list(band),
        "n_complete": {k: len(v) for k, v in complete.items()},
        "fe_gate": {
            "tolerance": lfunctions.FE_TOL,
            "n_excluded": {k: len(v) for k, v in fe_failed.items()},
            "excluded": fe_failed,
        },
        # searched curves with Lambda(1) = 0, and the order of that zero;
        # unknown (null) for imported zeros, which the CSV does not carry
        "central_zeros": None if imported is not None else {
            name: {table.labels[i]: z.central_order for i, z in pairs if z.central_order}
            for name, pairs in found.items()},
    }
    if all(len(v) > lfunctions.ZERO_COUNT + 1 for v in complete.values()):
        # one row of ordinates per complete set
        samples = {name: np.vstack([z.gammas for z in sets])
                   for name, sets in complete.items()}
        zeros_report["hotelling"] = _part(lfunctions.hotelling_t2, samples["sha_1"],
                                          samples["sha_ge4"])
        dens = {name: lfunctions.one_level_density(sets, cond[name])
                for name, sets in complete.items()}
        zeros_report["one_level_density"] = lfunctions.density_comparison(dens)
        for name, result in dens.items():
            export.write_xy_csv(out / f"density_{name}.csv", result.bin_centers,
                                result.density, ("scaled_ordinate", "density"))
        mean_a = samples["sha_1"].mean(axis=0)
        mean_b = samples["sha_ge4"].mean(axis=0)
        observed = _profile_gap(matrix, groups["sha_1"], groups["sha_ge4"])

        def explicit_formula() -> dict:
            primes = matrix.primes.primes
            part, predicted = lfunctions.explicit_predict(mean_b, mean_a, primes, observed)
            export.write_xy_csv(out / "explicit_prediction.csv", primes, predicted,
                                ("prime", "predicted_diff"))
            return part

        zeros_report["explicit_formula"] = _part(explicit_formula)
    else:
        zeros_report["hotelling"] = {
            "error": "not enough complete zero sets per group (need > k+1)"
        }
    return zeros_report


def cmd_report(cfg: RunConfig, ctx: Context) -> dict:
    """The last report, or error report, of every other step in the out directory."""
    out = ctx.out
    reports = {}
    for cmd in _SUBCOMMANDS:
        for name in (cmd, f"{cmd}_error"):
            path = out / f"{name}.json"
            if cmd != "report" and path.is_file():
                reports[name] = json.loads(path.read_text())
    return {"version": __version__, "reports": reports}


#: step -> (its function of (config, context), which gives its report
#: section, and the RunConfig fields naming the input files its report head
#: hashes); `report` has no head, its section is its report
_SUBCOMMANDS = {
    "ingest": (cmd_ingest, ("curves",)),
    "traces": (cmd_traces, ("curves", "cache")),
    "windows": (cmd_windows, ("curves",)),
    "stratify": (cmd_stratify, ("curves", "cache")),
    "confound": (cmd_confound, ("curves", "cache")),
    "diagnose": (cmd_diagnose, ("curves", "cache")),
    "zeros": (cmd_zeros, ("curves", "cache", "zeros")),
    "report": (cmd_report, None),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="murmurlab",
        description="Murmuration and BSD-invariant analysis workbench",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value config file")
        for field, (_, options) in _FIELDS.items():
            p.add_argument("--" + field.replace("_", "-"), dest=field, **options)
    return parser


#: failures a user's inputs can cause; each ends in <cmd>_error.json and exit 1.
#: The package raises ValueError for every failure its inputs cause; an
#: incomplete beta fraction that does not converge is an ArithmeticError
_USER_ERRORS = (ValueError, ArithmeticError, OSError, csv.Error)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    cfg = None
    try:
        cfg = build_config(args)
        ctx = Context(cfg)
        step, inputs = _SUBCOMMANDS[args.command]
        report = step(cfg, ctx)
        if inputs is not None:
            report = {**_report_head(args.command, cfg, ctx), args.command: report}
        out = ctx.out
        (out / f"{args.command}_error.json").unlink(missing_ok=True)
        export.write_json(out / f"{args.command}.json", report)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        out = Path(cfg.out if cfg else args.out or "out")
        try:
            out.mkdir(parents=True, exist_ok=True)
            # an earlier success of this step no longer describes the out directory
            (out / f"{args.command}.json").unlink(missing_ok=True)
            export.write_json(out / f"{args.command}_error.json",
                              {"command": args.command, "error": str(exc)})
        except OSError:
            pass  # an out path that is no directory: the line above is the report
        return 1
    print(f"{args.command}: report written to {out / (args.command + '.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
