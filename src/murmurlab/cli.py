"""Command-line orchestrator.

One subcommand per analysis stage, all driven by a RunConfig assembled from
an optional key=value config file overridden by command-line flags.  Every
report embeds the config hash, the seed, and SHA-256 digests of the input
files, and contains no timestamps, so identical inputs produce byte-identical
reports.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .confound import (
    bsd_group_ratios,
    control_omega,
    euler_cumsum,
    invariant_correlation,
    lvalue_band,
    match_nn,
    matched_rms,
    triple_control,
)
from .curves import INVARIANT_IDS, dedupe_isogeny, parse_curve_table
from .diagnostics import (
    bad_prime_share,
    classify_reduction,
    crossover_scan,
    moment_profile,
    satotate_ks,
)
from .export import (
    write_json,
    write_series_csv,
    write_svg_lineplot,
    write_table_csv,
    write_xy_csv,
)
from .lfunctions import (
    FE_TOL,
    LSeries,
    density_comparison,
    explicit_predict,
    fe_residual,
    hotelling_t2,
    locate_zeros,
    one_level_density,
    read_zero_sets_csv,
    write_zero_sets_csv,
)
from .stratify import (
    SCALE_WINDOWS,
    SHA_RULE,
    TABLE_RULES,
    TAMAGAWA_RULE,
    bonferroni,
    partition,
    permutation_test,
    scale_scan,
)
from .traces import (
    CacheCorruptionError,
    CacheFormatError,
    MissingTraceError,
    PrimeList,
    TraceComputationError,
    build_trace_matrix,
    default_prime_list,
    load_trace_matrix,
    persist_trace_matrix,
)
from .windows import (
    cross_correlation,
    murmuration_profile,
    residual_correlation,
    savgol_detrend,
    sliding_window_series,
    welch_psd,
)

RULES_BY_NAME = {rule.name: rule for rule in TABLE_RULES}


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
    scan_windows: tuple[tuple[int, int], ...] = tuple(
        (int(a), int(b)) for a, b in SCALE_WINDOWS
    )

    def digest(self) -> str:
        """Hash of the fields that decide a report's content.

        The output directory is left out, so the same inputs hash alike in
        any directory.
        """
        fields = dataclasses.asdict(self)
        del fields["out"]
        payload = json.dumps(fields, sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


class CliError(RuntimeError):
    pass


def _parse_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = text.split(":")
        return float(lo), float(hi)
    except ValueError:
        raise CliError(f"expected LO:HI, got {text!r}") from None


def _int_range(text: str) -> tuple[int, int]:
    lo, hi = _parse_range(text)
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
    "rule": (str, {"choices": [*RULES_BY_NAME, "all"], "help": "stratification rule"}),
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
            raise CliError(f"bad config line: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in lines:
            raise CliError(f"config {path}: key {key!r} set on line {lines[key]} "
                           f"and again on line {number}")
        lines[key] = number
        values[key] = value.strip()
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by the config file, overridden by the flags."""
    values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key in values:
        if key not in _FIELDS:
            raise CliError(f"unknown config key {key!r}")
    for key in _FIELDS:
        if getattr(args, key, None) is not None:
            values[key] = getattr(args, key)
    cfg = RunConfig(**{key: _FIELDS[key][0](text) for key, text in values.items()})
    # a config file bypasses the parser's choices for --rule
    if cfg.rule != "all" and cfg.rule not in RULES_BY_NAME:
        raise CliError(f"unknown rule {cfg.rule!r}")
    if cfg.sample < 0:
        raise CliError(f"sample must be >= 0, got {cfg.sample}")
    if cfg.range is not None and cfg.range[0] > cfg.range[1]:
        raise CliError(f"range {cfg.range[0]}:{cfg.range[1]} has LO > HI")
    return cfg


def _report_base(cfg: RunConfig, inputs: dict[str, str | None]) -> dict:
    return {
        "version": __version__,
        "config_hash": cfg.digest(),
        "seed": cfg.seed,
        "inputs": {
            name: {"path": str(path), "sha256": _file_digest(path)}
            for name, path in inputs.items()
            if path
        },
    }


def _load_table(cfg: RunConfig):
    if not cfg.curves:
        raise CliError("a curves CSV is required (--curves)")
    with open(cfg.curves, newline="") as fh:
        result = parse_curve_table(fh)
    return result


def _context(cfg: RunConfig):
    """The ingested table, its aligned trace matrix, the rank-0 slice and its range.

    The matrix comes from the cache when one is named, else it is built; a
    named cache that does not exist is an error before anything is built.
    Curve groups cut from the table index the matrix directly.
    """
    if cfg.cache and not Path(cfg.cache).exists():
        raise CliError(f"trace cache {cfg.cache} does not exist; build it with `traces`")
    table = _load_table(cfg).table
    primes = default_prime_list(cfg.primes)
    if cfg.cache:
        matrix = load_trace_matrix(cfg.cache).take(table)
        if not np.array_equal(matrix.primes.primes, primes.primes):
            raise CliError("trace cache prime list differs from the requested one")
    else:
        matrix = build_trace_matrix(table, primes)
    conductor_range = cfg.range or (10_000, 50_000)
    rank0 = table.filter(rank=0, conductor_range=conductor_range)
    return table, matrix, rank0, conductor_range


def _sha_groups(table) -> dict[str, np.ndarray]:
    """The Sha = 1 and Sha >= 4 groups of SHA_RULE, as sha_1 and sha_ge4."""
    part = partition(table, SHA_RULE)
    return {"sha_1": part.groups["group_a"], "sha_ge4": part.groups["group_b"]}


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_ingest(cfg: RunConfig) -> dict:
    result = _load_table(cfg)
    table = result.table
    deduped = dedupe_isogeny(table)
    report = _report_base(cfg, {"curves": cfg.curves})
    report["ingest"] = {
        "n_curves": len(table),
        "n_rejected_rows": len(result.errors),
        "rejected": [{"line": e.line, "message": e.message} for e in result.errors[:100]],
        "rank_histogram": {str(k): v for k, v in table.rank_histogram().items()},
        "conductor_min": int(table.conductors.min()) if len(table) else None,
        "conductor_max": int(table.conductors.max()) if len(table) else None,
        "n_isogeny_classes": len(table.index_by_class),
        "dedupe_retained_ratio": (len(deduped) / len(table)) if len(table) else None,
    }
    return report


def cmd_traces(cfg: RunConfig) -> dict:
    table = _load_table(cfg).table
    primes = default_prime_list(cfg.primes)
    cache_path = Path(cfg.cache) if cfg.cache else _out_dir(cfg) / "traces.bin"
    if cache_path.exists():
        existing = load_trace_matrix(cache_path)
        if tuple(existing.curve_labels) != tuple(table.labels):
            raise CliError(
                f"cache {cache_path} was built for a different curve table; "
                "remove it or point --cache elsewhere"
            )
        if not np.array_equal(existing.primes.primes, primes.primes):
            raise CliError(
                f"cache {cache_path} holds {len(existing.primes)} primes, "
                f"{len(primes)} were requested; remove it or point --cache elsewhere"
            )
        matrix = existing.take(table)
        rebuilt = False
    else:
        matrix = build_trace_matrix(table, primes)
        persist_trace_matrix(matrix, cache_path)
        rebuilt = True
    report = _report_base(cfg, {"curves": cfg.curves, "cache": str(cache_path)})
    report["traces"] = {
        "n_curves": len(matrix),
        "n_primes": len(matrix.primes),
        "last_prime": int(matrix.primes.primes[-1]),
        "rebuilt": rebuilt,
        "bad_prime_entries": int(matrix.bad_flags.sum()),
    }
    return report


def cmd_windows(cfg: RunConfig) -> dict:
    table = _load_table(cfg).table
    out = _out_dir(cfg)
    report = _report_base(cfg, {"curves": cfg.curves})
    per_invariant = {}
    for invariant in INVARIANT_IDS:
        entry = {}
        residuals = {}
        for rank in (0, 1):
            series = sliding_window_series(table, invariant, rank,
                                           cfg.window, cfg.step).finite()
            write_series_csv(out / f"windows_{invariant}_rank{rank}.csv",
                             series, ("center", "mean"))
            if cfg.svg and len(series):
                write_svg_lineplot(out / f"windows_{invariant}_rank{rank}.svg",
                                   series.centers, {invariant: series.values},
                                   f"{invariant}, rank {rank}")
            entry[f"rank{rank}_windows"] = int(len(series))
            try:
                residuals[rank] = savgol_detrend(series)
            except ValueError:
                residuals[rank] = None
        if residuals[0] is not None and residuals[1] is not None:
            try:
                entry["residual_correlation"] = residual_correlation(
                    residuals[0], residuals[1]
                )
            except ValueError:
                entry["residual_correlation"] = None
            for rank in (0, 1):
                res = residuals[rank]
                try:
                    freqs, power = welch_psd(res.values, segment=min(256, len(res)))
                    write_xy_csv(out / f"psd_{invariant}_rank{rank}.csv",
                                 freqs, power, ("frequency", "power"))
                except ValueError:
                    pass
            if np.array_equal(residuals[0].centers, residuals[1].centers):
                try:
                    lags, corr = cross_correlation(
                        residuals[0], residuals[1],
                        max_lag=min(20, len(residuals[0]) - 3),
                    )
                    peak = int(np.argmax(corr))
                    entry["cross_correlation_peak"] = {
                        "lag": int(lags[peak]),
                        "value": float(corr[peak]),
                    }
                except ValueError:
                    entry["cross_correlation_peak"] = None
        per_invariant[invariant] = entry
    report["windows"] = {
        "width": cfg.window,
        "step": cfg.step,
        "invariants": per_invariant,
    }
    return report


def cmd_stratify(cfg: RunConfig) -> dict:
    table, matrix, rank0, conductor_range = _context(cfg)
    out = _out_dir(cfg)
    rules = TABLE_RULES if cfg.rule == "all" else (RULES_BY_NAME[cfg.rule],)
    report = _report_base(cfg, {"curves": cfg.curves, "cache": cfg.cache})
    parts = []
    for rule in rules:
        if rule.name == "root_number":
            # cross-rank calibration baseline: rank 0 vs rank 1
            in_range = table.filter(conductor_range=conductor_range)
            base = in_range.subset(np.flatnonzero(np.isin(in_range.ranks, (0, 1))))
        else:
            base = rank0
        parts.append(partition(base, rule))
    # one call, so rules over the same number of curves share their shuffles
    strat_reports = permutation_test([part.groups for part in parts], matrix,
                                     n_shuffles=cfg.shuffles, seed=cfg.seed)
    entries = {}
    p_values = []
    for rule, part, strat_report in zip(rules, parts, strat_reports):
        if rule.kind == "two_group":
            diff = (murmuration_profile(part.groups["group_b"], matrix)
                    - murmuration_profile(part.groups["group_a"], matrix))
            write_xy_csv(out / f"diff_{rule.name}.csv", matrix.primes.primes,
                         diff, ("prime", "mean_ap_diff"))
        entries[rule.name] = {
            "report": strat_report.to_dict(),
            "group_sizes": part.sizes(),
            "n_unassigned": len(part.unassigned),
        }
        p_values.append(strat_report.p_value)
    adj = bonferroni(p_values)
    report["stratify"] = {
        "conductor_range": list(conductor_range),
        "rules": entries,
        "bonferroni": {
            "alpha": adj.alpha,
            "threshold": adj.threshold,
            "all_significant": all(adj.decisions),
        },
    }
    if len(cfg.scan_windows) >= 3:
        try:
            scan = scale_scan(table.filter(rank=0), matrix,
                              RULES_BY_NAME[cfg.rule if cfg.rule != "all" else "sha"],
                              cfg.scan_windows)
            report["stratify"]["scale_scan"] = {
                "windows": [list(w) for w in scan.windows],
                "rms": [float(v) for v in scan.rms_values],
                "alpha": scan.alpha,
                "r_squared": scan.r_squared,
            }
        except ValueError as exc:
            report["stratify"]["scale_scan"] = {"error": str(exc)}
    return report


def cmd_confound(cfg: RunConfig) -> dict:
    table, matrix, rank0, conductor_range = _context(cfg)
    report = _report_base(cfg, {"curves": cfg.curves, "cache": cfg.cache})
    battery = {}
    # (entry, key, groups): the permutation report of groups goes to entry[key]
    tests = []

    try:
        tam_part = partition(rank0, TAMAGAWA_RULE)
    except ValueError as exc:
        # every Tamagawa control carries the error; the Sha controls still run
        for name in ("tamagawa_omega_2", "tamagawa_omega_3", "tamagawa_omega_4",
                     "tamagawa_conductor_matched"):
            battery[name] = {"error": str(exc)}
    else:
        for k in (2, 3, 4):
            try:
                tests.append((battery, f"tamagawa_omega_{k}",
                              control_omega(table, tam_part.groups, k)))
            except ValueError as exc:
                battery[f"tamagawa_omega_{k}"] = {"error": str(exc)}

        try:
            matches = match_nn(table, tam_part.groups["group_a"],
                               tam_part.groups["group_b"], "conductor", 500.0)
            paired = matched_rms(matches, matrix)
            battery["tamagawa_conductor_matched"] = {
                "n_pairs": matches.n_pairs,
                "mean_distance": matches.mean_distance,
                "rms_group": paired.rms_group,
                "rms_per_pair": paired.rms_per_pair,
            }
            write_json(_out_dir(cfg) / "matched_pairs_tamagawa.json", {
                "key": matches.key,
                "max_distance": matches.max_distance,
                "pairs": [[table.labels[a], table.labels[b], d]
                          for a, b, d in matches.pairs],
            })
        except ValueError as exc:
            battery["tamagawa_conductor_matched"] = {"error": str(exc)}

    band = cfg.band or (1.53, 2.84)
    try:
        part = partition(lvalue_band(rank0, band), SHA_RULE)
    except ValueError as exc:
        battery["sha_lvalue_band"] = {"error": str(exc)}
    else:
        battery["sha_lvalue_band"] = {"band": list(band), "group_sizes": part.sizes()}
        tests.append((battery["sha_lvalue_band"], "report", part.groups))
        try:
            matches = match_nn(table, part.groups["group_b"],
                               part.groups["group_a"], "l_value", 0.1)
            paired = matched_rms(matches, matrix)
            battery["sha_lvalue_matched"] = {
                "n_pairs": matches.n_pairs,
                "mean_distance": matches.mean_distance,
                "rms_group": paired.rms_group,
            }
        except ValueError as exc:
            battery["sha_lvalue_matched"] = {"error": str(exc)}

    try:
        halves = triple_control(table, band, conductor_range)
    except ValueError as exc:
        battery["sha_triple_control"] = {"error": str(exc)}
    else:
        battery["sha_triple_control"] = {half: {"sizes": part.sizes()}
                                         for half, part in halves.items()}
        tests.extend((battery["sha_triple_control"][half], "report", part.groups)
                     for half, part in halves.items())

    # one call, so controls over the same number of curves share their shuffles
    strat_reports = permutation_test([groups for _, _, groups in tests], matrix,
                                     n_shuffles=cfg.shuffles, seed=cfg.seed)
    for (entry, key, _), strat_report in zip(tests, strat_reports):
        entry[key] = strat_report.to_dict()

    try:
        groups = _sha_groups(rank0)
        battery["bsd_group_ratios"] = bsd_group_ratios(table, groups)
        cum = euler_cumsum(matrix.primes.primes,
                           murmuration_profile(groups["sha_1"], matrix),
                           murmuration_profile(groups["sha_ge4"], matrix))
        battery["euler_cumsum"] = {
            "argmax_prime": cum.argmax_prime,
            "terminal": list(cum.terminal),
        }
        write_xy_csv(_out_dir(cfg) / "euler_delta.csv", cum.primes, cum.delta,
                     ("prime", "delta"))
    except (ValueError, ZeroDivisionError) as exc:
        battery["bsd_group_ratios"] = {"error": str(exc)}

    try:
        battery["period_vs_log_conductor"] = invariant_correlation(
            rank0, "period", "conductor", log_y=True
        )
    except ValueError as exc:
        battery["period_vs_log_conductor"] = {"error": str(exc)}

    report["confound"] = {"conductor_range": list(conductor_range),
                          "battery": battery}
    return report


def cmd_diagnose(cfg: RunConfig) -> dict:
    table, matrix, rank0, conductor_range = _context(cfg)
    band = cfg.band or (1.10, 3.28)
    report = _report_base(cfg, {"curves": cfg.curves, "cache": cfg.cache})
    out = _out_dir(cfg)
    diag = {}
    groups = _sha_groups(lvalue_band(rank0, band))
    moments = {}
    for name, members in groups.items():
        prof = moment_profile(members, matrix)
        moments[name] = prof.summary()
        write_table_csv(
            out / f"moments_{name}.csv",
            ("prime", "mean", "variance", "variance_over_p", "skewness",
             "excess_kurtosis"),
            zip(prof.primes.tolist(), prof.mean.tolist(), prof.variance.tolist(),
                prof.variance_over_p.tolist(), prof.skewness.tolist(),
                prof.excess_kurtosis.tolist()),
        )
    diag["moments"] = moments
    ks = satotate_ks(groups["sha_1"], groups["sha_ge4"], matrix)
    diag["sato_tate_ks"] = {"D": ks.statistic, "p": ks.p_value,
                            "n_a": ks.n_a, "n_b": ks.n_b}
    diff = (murmuration_profile(groups["sha_ge4"], matrix)
            - murmuration_profile(groups["sha_1"], matrix))
    cross = crossover_scan(matrix.primes.primes, diff)
    diag["crossover"] = {
        "crossing_prime": cross.crossing_prime,
        "direction": cross.direction,
        "landmarks": {str(k): v for k, v in cross.landmarks.items()},
    }
    red = classify_reduction(matrix, table)
    write_table_csv(out / "reduction_types.csv", ("label", "prime", "type"),
                    red.entries)
    diag["reduction"] = {
        "type_counts": red.type_counts,
        "tamagawa_agreement": red.agreement_fraction,
        "n_classified": red.n_classified_curves,
        "n_unclassifiable": red.n_unclassifiable,
    }
    share = bad_prime_share(groups["sha_1"], groups["sha_ge4"], matrix)
    diag["bad_prime_share"] = {
        "full_rms": share.full_rms,
        "masked_rms": share.masked_rms,
        "share_percent": share.share_percent,
    }
    report["diagnose"] = {"band": list(band),
                          "conductor_range": list(conductor_range),
                          "groups": {k: len(v) for k, v in groups.items()},
                          **diag}
    return report


def cmd_zeros(cfg: RunConfig) -> dict:
    table, matrix, rank0, _ = _context(cfg)
    band = cfg.band or (1.53, 2.84)
    out = _out_dir(cfg)
    report = _report_base(cfg, {"curves": cfg.curves, "cache": cfg.cache,
                                "zeros": cfg.zeros})
    groups = _sha_groups(lvalue_band(rank0, band))
    rng = np.random.default_rng(cfg.seed)
    imported = {z.label: z for z in read_zero_sets_csv(cfg.zeros)} if cfg.zeros else None
    # a curve whose conductor, root number and model fail the functional
    # equation is neither searched nor counted in the statistics, whether its
    # zeros are searched or imported
    found, fe_failed = {}, {}  # group -> [(row, zero set)], [label]
    for name, members in groups.items():
        if imported is not None:
            members = [i for i in members if table.labels[i] in imported]
        elif cfg.sample and cfg.sample < len(members):
            members = rng.choice(members, size=cfg.sample, replace=False)
        # one trace count per group, one series held at a time
        all_series = LSeries.from_curves([table.record(i) for i in members])
        found[name], fe_failed[name] = [], []
        for i, series in zip(members, all_series):
            if fe_residual(series) > FE_TOL:
                fe_failed[name].append(series.label)
            elif imported is None:
                found[name].append((i, locate_zeros(series)))
            else:
                found[name].append((i, imported[series.label]))
        if imported is None:
            write_zero_sets_csv(out / f"zeros_{name}.csv", [z for _, z in found[name]])
    complete = {name: [z for _, z in pairs if z.complete] for name, pairs in found.items()}
    cond = {name: [int(table.conductors[i]) for i, z in pairs if z.complete]
            for name, pairs in found.items()}
    zeros_report = {
        "band": list(band),
        "n_complete": {k: len(v) for k, v in complete.items()},
        "fe_gate": {
            "tolerance": FE_TOL,
            "n_excluded": {k: len(v) for k, v in fe_failed.items()},
            "excluded": fe_failed,
        },
        # searched curves with Lambda(1) = 0, and the order of that zero;
        # unknown (null) for imported zeros, which the CSV does not carry
        "central_zeros": None if imported is not None else {
            name: {table.labels[i]: z.central_order for i, z in pairs if z.central_order}
            for name, pairs in found.items()},
    }
    k = 5
    if all(len(v) > k + 1 for v in complete.values()):
        hot = hotelling_t2(complete["sha_1"], complete["sha_ge4"])
        zeros_report["hotelling"] = {
            "t2": hot.t2, "f": hot.f_stat, "p": hot.p_value, "df": list(hot.df),
        }
        comp = density_comparison(complete["sha_1"], cond["sha_1"],
                                  complete["sha_ge4"], cond["sha_ge4"])
        zeros_report["one_level_density"] = {
            "deviation_sha_1": comp.deviation_a,
            "deviation_sha_ge4": comp.deviation_b,
            "ks_all": list(comp.ks_all),
            "ks_first": list(comp.ks_first),
        }
        for name in ("sha_1", "sha_ge4"):
            dens = one_level_density(complete[name], cond[name])
            write_xy_csv(out / f"density_{name}.csv", dens.bin_centers,
                         dens.density, ("scaled_ordinate", "density"))
        mean_a = np.vstack([z.gammas for z in complete["sha_1"]]).mean(axis=0)
        mean_b = np.vstack([z.gammas for z in complete["sha_ge4"]]).mean(axis=0)
        observed = (murmuration_profile(groups["sha_ge4"], matrix)
                    - murmuration_profile(groups["sha_1"], matrix))
        pred = explicit_predict(mean_b, mean_a, matrix.primes.primes, observed)
        zeros_report["explicit_formula"] = {
            "correlation": pred.correlation,
            "rms_predicted": pred.rms_predicted,
            "rms_observed": pred.rms_observed,
        }
        write_xy_csv(out / "explicit_prediction.csv", pred.primes,
                     pred.predicted_diff, ("prime", "predicted_diff"))
    else:
        zeros_report["hotelling"] = {
            "error": "not enough complete zero sets per group (need > k+1)"
        }
    report["zeros"] = zeros_report
    return report


def cmd_report(cfg: RunConfig) -> dict:
    out = _out_dir(cfg)
    aggregate = {"version": __version__, "reports": {}}
    for path in sorted(out.glob("*.json")):
        if path.name == "report.json":
            continue
        aggregate["reports"][path.stem] = json.loads(path.read_text())
    return aggregate


_SUBCOMMANDS = {
    "ingest": cmd_ingest,
    "traces": cmd_traces,
    "windows": cmd_windows,
    "stratify": cmd_stratify,
    "confound": cmd_confound,
    "diagnose": cmd_diagnose,
    "zeros": cmd_zeros,
    "report": cmd_report,
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


#: failures a user's inputs can cause; each ends in <cmd>_error.json and exit 1
_USER_ERRORS = (
    CliError,
    ValueError,
    csv.Error,
    OSError,
    ArithmeticError,
    CacheFormatError,
    CacheCorruptionError,
    TraceComputationError,
    MissingTraceError,
)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    cfg = None
    try:
        cfg = build_config(args)
        report = _SUBCOMMANDS[args.command](cfg)
    except _USER_ERRORS as exc:
        error_report = {"command": args.command, "error": str(exc)}
        out = Path(cfg.out if cfg else args.out or "out")
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / f"{args.command}_error.json", error_report)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = _out_dir(cfg)
    write_json(out / f"{args.command}.json", report)
    print(f"{args.command}: report written to {out / (args.command + '.json')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
