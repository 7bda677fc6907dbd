import dataclasses
import hashlib
import importlib
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from murmurlab import cli, curves, lfunctions, traces
from murmurlab.cli import RunConfig, build_config, main, make_parser
from murmurlab.confound import control_omega, lvalue_band, triple_control
from murmurlab.curves import CurveTable
from murmurlab.lfunctions import ZeroSet, write_zero_sets_csv
from murmurlab.stratify import (SHA_RULE, TABLE_RULES, TAMAGAWA_RULE, partition,
                                permutation_test)
from murmurlab.traces import build_trace_matrix, default_prime_list

from conftest import (DATA_DIR, TWIST_DS, make_synthetic_table, record_of, records,
                      serialize_curve_table, table_of, twist_of_11a1)


RULES_BY_NAME = {rule.invariant: rule for rule in TABLE_RULES}


def twist_table(sha_pattern=(1.0, 4.0)) -> CurveTable:
    records = []
    for i, d in enumerate(TWIST_DS):
        base = twist_of_11a1(d)
        sha = sha_pattern[i % len(sha_pattern)]
        period = 0.4 + 0.05 * i
        records.append(
            dataclasses.replace(
                base,
                sha_an=sha,
                real_period=period,
                tamagawa_product=1,
                torsion_order=1,
                regulator=1.0,
                l_value=sha * period,
            )
        )
    return table_of(records)


def every_rule_table() -> CurveTable:
    """The twist table with Tamagawa products 1 and 6, torsion orders 1 and 2, and
    every fourth twist claimed as rank 1, so that every rule and control partitions."""
    return table_of([
        dataclasses.replace(r, tamagawa_product=1 + 5 * (i % 2),
                            torsion_order=1 + (i // 2) % 2,
                            rank=int(i % 4 == 3), root_number=1 - 2 * (i % 4 == 3))
        for i, r in enumerate(records(twist_table()))
    ])


@pytest.fixture()
def twist_csv(tmp_path):
    path = tmp_path / "twists.csv"
    path.write_text(serialize_curve_table(twist_table()))
    return path


def read_report(out_dir, name):
    return json.loads((out_dir / f"{name}.json").read_text())


class TestIngest:
    def test_known_csv(self, known_csv_path, tmp_path):
        out = tmp_path / "out"
        rc = main(["ingest", "--curves", str(known_csv_path), "--out", str(out)])
        assert rc == 0
        report = read_report(out, "ingest")
        assert report["ingest"]["n_curves"] == 6
        assert report["ingest"]["rank_histogram"] == {"0": 3, "1": 1, "2": 1, "3": 1}
        assert report["ingest"]["n_isogeny_classes"] == 4
        assert report["ingest"]["dedupe_retained_ratio"] == 4 / 6
        assert "sha256" in report["inputs"]["curves"]

    def test_empty_csv_reports_zero_curves(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        from murmurlab.curves import CSV_FIELDS

        csv_path.write_text(",".join(CSV_FIELDS) + "\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--curves", str(csv_path), "--out", str(out)])
        assert rc == 0
        report = read_report(out, "ingest")["ingest"]
        assert report["n_curves"] == report["n_isogeny_classes"] == 0
        assert report["dedupe_retained_ratio"] is None

    def test_field_over_the_csv_limit_is_structured_error(self, tmp_path):
        from murmurlab.curves import CSV_FIELDS

        csv_path = tmp_path / "huge.csv"
        row = ["x" * 200_000] + ["1"] * (len(CSV_FIELDS) - 1)
        csv_path.write_text(",".join(CSV_FIELDS) + "\n" + ",".join(row) + "\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--curves", str(csv_path), "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "ingest_error.json").read_text())
        assert "field limit" in err["error"]
        assert not (out / "ingest.json").exists()

    def test_conductor_too_wide_for_int64_rejects_its_row(self, known_csv_path, tmp_path):
        header, first, *rest = known_csv_path.read_text().splitlines()
        _, _, *cells = first.split(",")
        wide = ",".join(["37b9", str(10**20), *cells])
        csv_path = tmp_path / "wide.csv"
        csv_path.write_text("\n".join([header, first, wide, *rest, ""]))
        out = tmp_path / "out"
        assert main(["ingest", "--curves", str(csv_path), "--out", str(out)]) == 0
        report = read_report(out, "ingest")["ingest"]
        assert report["n_curves"] == 1 + len(rest)
        assert report["rejected"] == [
            {"line": 3, "message": "conductor 100000000000000000000 > 9223372036854775807"}]

    def test_missing_curves_flag_errors(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["ingest", "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "ingest_error.json").read_text())
        assert "curves CSV" in err["error"]


class TestTraces:
    def test_build_then_reuse_cache(self, twist_csv, tmp_path):
        out = tmp_path / "out"
        cache = tmp_path / "cache.bin"
        args = ["traces", "--curves", str(twist_csv), "--cache", str(cache),
                "--primes", "30", "--out", str(out)]
        assert main(args) == 0
        assert read_report(out, "traces")["traces"]["rebuilt"] is True
        assert main(args) == 0
        assert read_report(out, "traces")["traces"]["rebuilt"] is False

    def test_a_damaged_cache_names_its_removal_and_then_rebuilds(self, twist_csv, tmp_path):
        out = tmp_path / "out"
        args = ["traces", "--curves", str(twist_csv), "--primes", "30", "--out", str(out)]
        assert main(args) == 0
        cache = out / "traces.bin"
        built = cache.read_bytes()
        cache.write_bytes(built[:len(built) // 2] + bytes([built[len(built) // 2] ^ 1])
                          + built[len(built) // 2 + 1:])
        assert main(args) == 1
        err = json.loads((out / "traces_error.json").read_text())["error"]
        assert err.endswith(f"damaged; remove {cache} and rebuild it with `traces`")
        cache.unlink()
        assert main(args) == 0
        assert read_report(out, "traces")["traces"]["rebuilt"] is True
        assert cache.read_bytes() == built

    def test_cache_coherence_refusal(self, twist_csv, known_csv_path, tmp_path):
        out = tmp_path / "out"
        cache = tmp_path / "cache.bin"
        assert main(["traces", "--curves", str(twist_csv), "--cache", str(cache),
                     "--primes", "20", "--out", str(out)]) == 0
        rc = main(["traces", "--curves", str(known_csv_path), "--cache",
                   str(cache), "--primes", "20", "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "traces_error.json").read_text())
        assert "different curve table" in err["error"]

    def test_cache_with_a_changed_conductor_refused(self, twist_csv, tmp_path):
        out = tmp_path / "out"
        cache = tmp_path / "cache.bin"
        assert main(["traces", "--curves", str(twist_csv), "--cache", str(cache),
                     "--primes", "20", "--out", str(out)]) == 0
        recs = list(records(twist_table()))
        last = recs[-1]  # doubling the largest conductor keeps the row order
        recs[-1] = dataclasses.replace(last, conductor=2 * last.conductor)
        changed = tmp_path / "changed.csv"
        changed.write_text(serialize_curve_table(table_of(recs)))
        rc = main(["traces", "--curves", str(changed), "--cache", str(cache),
                   "--primes", "20", "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "traces_error.json").read_text())
        for csv_path in (twist_csv, changed):
            assert hashlib.sha256(csv_path.read_bytes()).hexdigest() in err["error"]

    def test_csv_edited_after_traces_refused_naming_both_digests(self, twist_csv,
                                                                 tmp_path):
        out = tmp_path / "out"
        cache = tmp_path / "cache.bin"
        common = ["--curves", str(twist_csv), "--cache", str(cache), "--primes", "20",
                  "--out", str(out)]
        stratify = ["stratify", *common, "--rule", "sha", "--range", "1000:300000",
                    "--shuffles", "20"]
        assert main(["traces", *common]) == 0 and main(stratify) == 0
        built = hashlib.sha256(twist_csv.read_bytes()).hexdigest()
        # one byte of one model under the same label: a6 of the first twist
        first = twist_table().record(0)
        text = twist_csv.read_text()
        row = next(line for line in text.splitlines() if line.startswith(first.label + ","))
        a6 = str(first.a_invariants[4])
        edited = row.replace("," + a6 + ",", "," + a6[:-1] + str(int(a6[-1]) ^ 1) + ",")
        assert edited != row
        twist_csv.write_text(text.replace(row, edited))
        now = hashlib.sha256(twist_csv.read_bytes()).hexdigest()
        for argv in (["traces", *common], stratify):
            assert main(argv) == 1
            err = json.loads((out / f"{argv[0]}_error.json").read_text())
            assert built in err["error"] and now in err["error"], argv[0]
            assert not (out / f"{argv[0]}.json").exists()

    def test_conductor_that_disagrees_with_the_model_refused(self, tmp_path):
        recs = list(records(twist_table()))
        first = recs[0]  # 11 * 37^2; 7 divides neither it nor the discriminant
        recs[0] = dataclasses.replace(first, conductor=7 * first.conductor)
        wrong = tmp_path / "wrong.csv"
        wrong.write_text(serialize_curve_table(table_of(recs)))
        out = tmp_path / "out"
        rc = main(["traces", "--curves", str(wrong), "--primes", "20", "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "traces_error.json").read_text())
        assert f"curve {first.label}: p=7 divides the conductor" in err["error"]
        assert not (out / "traces.bin").exists()

    def test_a_cache_row_that_breaks_an_ingest_rule_fails_every_step(self, twist_csv,
                                                                     tmp_path):
        # a cache of the CSV's own bytes and primes, written by hand or before
        # a rule was added: its rank-0 twist with root number -1 breaks the
        # parity rule, so no step reads it
        recs = list(records(twist_table()))
        assert recs[0].rank == 0
        recs[0] = dataclasses.replace(recs[0], root_number=-1)
        cache = tmp_path / "cache.bin"
        traces.persist_trace_matrix(
            build_trace_matrix(table_of(recs), default_prime_list(20)), cache,
            hashlib.sha256(twist_csv.read_bytes()).hexdigest())
        out = tmp_path / "out"
        for step in ("traces", "stratify", "confound", "diagnose", "zeros"):
            assert main([step, "--curves", str(twist_csv), "--cache", str(cache),
                         "--primes", "20", "--range", "1000:300000", "--shuffles", "20",
                         "--out", str(out)]) == 1
            assert read_report(out, f"{step}_error")["error"] == (
                f"cache {cache} holds curve {recs[0].label}, which breaks an ingest rule: "
                f"parity violation: rank 0 with root number -1; "
                f"remove {cache} and rebuild it with `traces`")
            assert not (out / f"{step}.json").exists()

    def test_prime_count_mismatch_refused(self, twist_csv, tmp_path):
        out = tmp_path / "out"
        cache = tmp_path / "cache.bin"
        assert main(["traces", "--curves", str(twist_csv), "--cache", str(cache),
                     "--primes", "20", "--out", str(out)]) == 0
        rc = main(["traces", "--curves", str(twist_csv), "--cache", str(cache),
                   "--primes", "30", "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "traces_error.json").read_text())
        assert "holds 20 primes, 30 were requested" in err["error"]

    def test_prime_count_past_max_prime_refused_before_sieving(
            self, twist_csv, tmp_path, monkeypatch):
        def no_sieve(count):
            pytest.fail("first_n_primes ran for a refused count")

        monkeypatch.setattr(traces, "first_n_primes", no_sieve)
        out = tmp_path / "out"
        rc = main(["traces", "--curves", str(twist_csv), "--primes", "1000000000",
                   "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "traces_error.json").read_text())
        assert "supported maximum" in err["error"]

    def test_every_step_spells_a_cache_path_alike(self, twist_csv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        common = ["--curves", str(twist_csv), "--cache", "./c.bin", "--rule", "sha",
                  "--range", "1000:300000", "--shuffles", "50", "--out", "out"]
        for step in ("traces", "stratify"):
            assert main([step, *common, "--primes", "20"]) == 0
            assert read_report(tmp_path / "out", step)["inputs"]["cache"]["path"] == "c.bin"
            assert main([step, *common, "--primes", "30"]) == 1
            error = read_report(tmp_path / "out", f"{step}_error")["error"]
            assert error.startswith("cache c.bin holds 20 primes, 30 were requested")


class TestStratify:
    def test_report_fields_and_determinism(self, twist_csv, tmp_path):
        out = tmp_path / "out"
        args = ["stratify", "--curves", str(twist_csv), "--rule", "sha",
                "--range", "1000:300000", "--primes", "25", "--shuffles", "200",
                "--seed", "9", "--out", str(out)]
        assert main(args) == 0
        first = (out / "stratify.json").read_bytes()
        report = read_report(out, "stratify")
        entry = report["stratify"]["rules"]["sha"]
        assert entry["group_sizes"] == {"group_a": 8, "group_b": 8}
        assert 0 < entry["report"]["p_value"] <= 1
        assert entry["report"]["seed"] == 9
        assert (out / "diff_sha.csv").exists()
        assert main(args) == 0
        assert (out / "stratify.json").read_bytes() == first

    def test_empty_group_is_structured_error(self, tmp_path):
        path = tmp_path / "onesha.csv"
        path.write_text(serialize_curve_table(twist_table(sha_pattern=(1.0,))))
        out = tmp_path / "out"
        rc = main(["stratify", "--curves", str(path), "--rule", "sha",
                   "--range", "1000:300000", "--primes", "10",
                   "--shuffles", "50", "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "stratify_error.json").read_text())
        assert "group_b" in err["error"]


    def test_each_rule_of_all_matches_its_run_alone(self, tmp_path):
        # both Tamagawa and both torsion groups nonempty, and every fourth
        # twist claimed as rank 1, so every rule partitions; the four rank-0
        # rules cover the same curves and so share one shuffle stream,
        # root_number (ranks 0 and 1) has its own
        path = tmp_path / "twists.csv"
        path.write_text(serialize_curve_table(every_rule_table()))
        common = ["--curves", str(path), "--range", "1000:300000", "--primes", "25",
                  "--shuffles", "300", "--seed", "9"]
        together = tmp_path / "all"
        assert main(["stratify", "--rule", "all", *common, "--out", str(together)]) == 0
        rules = read_report(together, "stratify")["stratify"]["rules"]
        assert set(rules) == set(RULES_BY_NAME)
        n_totals = {name: sum(e["group_sizes"].values()) for name, e in rules.items()}
        assert len({n_totals[name] for name in ("tamagawa", "sha", "period",
                                                "torsion")}) == 1
        assert n_totals["root_number"] != n_totals["sha"]
        for name, entry in rules.items():
            alone = tmp_path / name
            assert main(["stratify", "--rule", name, *common, "--out", str(alone)]) == 0
            assert read_report(alone, "stratify")["stratify"]["rules"] == {name: entry}
            if RULES_BY_NAME[name].kind == "two_group":
                assert ((alone / f"diff_{name}.csv").read_bytes()
                        == (together / f"diff_{name}.csv").read_bytes())


    @pytest.mark.parametrize("scan, error", [
        ("10:1e308,1:1000000,2:2000000", "scale scan window 1 has a bound above "
         "9223372036854775807, the largest conductor a table holds"),
        ("0:1000000,1:1000000,2:2000000", "scale scan window 1 (0:1000000) needs 0 < LO <= HI"),
        ("5000:20000,10000:50000", "scale scan needs at least 3 windows for the fit"),
        ("5000:20000", "scale scan needs at least 3 windows for the fit"),
    ])
    def test_a_bad_scan_window_is_the_scale_scan_error(self, twist_csv, tmp_path, scan,
                                                       error):
        out = tmp_path / "out"
        rc = main(["stratify", "--curves", str(twist_csv), "--rule", "sha",
                   "--range", "1000:300000", "--primes", "25", "--shuffles", "50",
                   "--scan-windows", scan, "--out", str(out)])
        assert rc == 0
        section = read_report(out, "stratify")["stratify"]
        assert section["scale_scan"] == {"error": error}
        assert 0 < section["rules"]["sha"]["report"]["p_value"] <= 1

    def test_a_rule_with_an_empty_group_leaves_the_others_reporting(self, tmp_path):
        # as above, but torsion is 1 throughout, so only its group_b is empty
        path = tmp_path / "twists.csv"
        path.write_text(serialize_curve_table(table_of([
            dataclasses.replace(r, tamagawa_product=1 + 5 * (i % 2),
                                rank=int(i % 4 == 3), root_number=1 - 2 * (i % 4 == 3))
            for i, r in enumerate(records(twist_table()))
        ])))
        common = ["--curves", str(path), "--range", "1000:300000", "--primes", "25",
                  "--shuffles", "100", "--seed", "9"]
        together = tmp_path / "all"
        assert main(["stratify", "--rule", "all", *common, "--out", str(together)]) == 0
        section = read_report(together, "stratify")["stratify"]
        rules = section["rules"]
        assert rules.pop("torsion") == {"error": "group 'group_b' of rule 'torsion' is empty"}
        assert set(rules) == {"tamagawa", "sha", "period", "root_number"}
        assert all(0 < entry["report"]["p_value"] <= 1 for entry in rules.values())
        # the threshold counts the four rules that ran
        assert section["bonferroni"]["threshold"] == section["bonferroni"]["alpha"] / 4
        assert not (together / "diff_torsion.csv").exists()
        alone = tmp_path / "torsion"
        assert main(["stratify", "--rule", "torsion", *common, "--out", str(alone)]) == 1
        err = read_report(alone, "stratify_error")
        assert err["error"] == "group 'group_b' of rule 'torsion' is empty"


class TestDiagnose:
    def test_a_prime_list_below_the_ks_cut_leaves_the_other_parts(self, twist_csv,
                                                                    tmp_path):
        # 30 primes stop at 113, below the Sato-Tate KS part's p_min of 1,000
        out = tmp_path / "out"
        rc = main(["diagnose", "--curves", str(twist_csv), "--band", "0:100",
                   "--range", "1000:300000", "--primes", "30", "--out", str(out)])
        assert rc == 0
        section = read_report(out, "diagnose")["diagnose"]
        assert "p_min = 1000.0" in section["sato_tate_ks"]["error"]
        assert set(section["moments"]) == {"sha_1", "sha_ge4"}
        assert "direction" in section["crossover"]
        assert "type_counts" in section["reduction"]
        assert set(section["bad_prime_share"]) == {"full_rms", "masked_rms", "share_percent"}

    def test_groups_with_the_same_models_leave_the_other_parts(self, tmp_path):
        # each Sha >= 4 curve copies the model of a Sha = 1 curve, so the two
        # profiles are equal and the bad-prime share has no full RMS to divide by
        sha_1 = records(twist_table(sha_pattern=(1.0,)))
        copies = [dataclasses.replace(rec, label=rec.label.replace("x", "y"),
                                      isogeny_class=rec.isogeny_class.replace("x", "y"),
                                      sha_an=4.0, l_value=4.0 * rec.real_period)
                  for rec in sha_1]
        csv_path = tmp_path / "copies.csv"
        csv_path.write_text(serialize_curve_table(table_of([*sha_1, *copies])))
        out = tmp_path / "out"
        rc = main(["diagnose", "--curves", str(csv_path), "--band", "0:100",
                   "--range", "1000:300000", "--primes", "30", "--out", str(out)])
        assert rc == 0
        section = read_report(out, "diagnose")["diagnose"]
        assert section["bad_prime_share"] == {"error": "zero full RMS; share undefined"}
        assert section["groups"]["sha_1"] == section["groups"]["sha_ge4"] >= 4
        assert set(section["moments"]) == {"sha_1", "sha_ge4"}
        assert section["crossover"]["crossing_prime"] is None
        assert "type_counts" in section["reduction"]


class TestConfound:
    def test_empty_tamagawa_group_leaves_the_sha_controls_running(self, twist_csv,
                                                                  tmp_path):
        # every Tamagawa product of the twist table is 1, so group_b is empty
        out = tmp_path / "out"
        rc = main(["confound", "--curves", str(twist_csv), "--band", "0:100",
                   "--range", "1000:300000", "--primes", "20", "--shuffles", "50",
                   "--out", str(out)])
        assert rc == 0
        assert not (out / "confound_error.json").exists()
        battery = read_report(out, "confound")["confound"]["battery"]
        for name in ("tamagawa_omega_2", "tamagawa_omega_3", "tamagawa_omega_4",
                     "tamagawa_conductor_matched"):
            assert "'group_b' of rule 'tamagawa' is empty" in battery[name]["error"]
        assert set(battery["sha_triple_control"]) == {"small_period", "large_period"}
        assert battery["bsd_group_ratios"] == {"sha_1": 1.0, "sha_ge4": 0.25}
        assert "argmax_prime" in battery["euler_cumsum"]
        assert isinstance(battery["period_vs_log_conductor"], float)

    def test_no_matched_pairs_leaves_the_band_report(self, twist_csv, tmp_path):
        # Sha 1 and Sha 4 L-values of the twist table lie ~1.2 apart, so no
        # pair matches within 0.1
        out = tmp_path / "out"
        rc = main(["confound", "--curves", str(twist_csv), "--band", "0:100",
                   "--range", "1000:300000", "--primes", "20", "--shuffles", "50",
                   "--out", str(out)])
        assert rc == 0
        battery = read_report(out, "confound")["confound"]["battery"]
        band = battery["sha_lvalue_band"]
        assert band["band"] == [0.0, 100.0]
        assert band["group_sizes"] == {"group_a": 8, "group_b": 8}
        assert "p_value" in band["report"]
        assert battery["sha_lvalue_matched"] == {"error": "no matched pairs"}


    def test_no_control_to_test_leaves_the_others_reporting(self, tmp_path):
        # Sha and Tamagawa groups both empty: every tested control fails
        path = tmp_path / "onesha.csv"
        path.write_text(serialize_curve_table(twist_table(sha_pattern=(1.0,))))
        out = tmp_path / "out"
        rc = main(["confound", "--curves", str(path), "--band", "0:100",
                   "--range", "1000:300000", "--primes", "20", "--shuffles", "50",
                   "--out", str(out)])
        assert rc == 0
        battery = read_report(out, "confound")["confound"]["battery"]
        assert "'group_b' of rule 'sha' is empty" in battery["sha_lvalue_band"]["error"]
        assert "'group_b' of rule 'sha' is empty" in battery["bsd_group_ratios"]["error"]
        assert isinstance(battery["period_vs_log_conductor"], float)

    def test_each_control_matches_its_test_alone(self, tmp_path):
        # alternating Tamagawa products 1 and 6, so the Tamagawa controls
        # partition; omega(N) = 4 empties both groups, and the two period
        # halves hold 8 curves each and so share one shuffle stream
        path = tmp_path / "twists.csv"
        path.write_text(serialize_curve_table(table_of([
            dataclasses.replace(r, tamagawa_product=1 + 5 * (i % 2))
            for i, r in enumerate(records(twist_table()))
        ])))
        args = ["confound", "--curves", str(path), "--band", "0:100",
                "--range", "1000:300000", "--primes", "20", "--shuffles", "300",
                "--seed", "9", "--out", str(tmp_path / "out")]
        assert main(args) == 0
        battery = read_report(tmp_path / "out", "confound")["confound"]["battery"]
        ctx = cli.Context(build_config(make_parser().parse_args(args)))
        table, matrix, rank0 = ctx.table, ctx.matrix, ctx.rank0
        tamagawa = partition(rank0, TAMAGAWA_RULE)
        halves = triple_control(lvalue_band(rank0, (0.0, 100.0)))
        tested = {
            "tamagawa_omega_2": (battery["tamagawa_omega_2"],
                                 control_omega(table, tamagawa, 2)),
            "tamagawa_omega_3": (battery["tamagawa_omega_3"],
                                 control_omega(table, tamagawa, 3)),
            "sha_lvalue_band": (battery["sha_lvalue_band"]["report"],
                                partition(lvalue_band(rank0, (0.0, 100.0)), SHA_RULE)),
            **{half: (battery["sha_triple_control"][half]["report"], groups)
               for half, groups in halves.items()},
        }
        for name, (entry, groups) in tested.items():
            alone, = permutation_test([groups], matrix, n_shuffles=300, seed=9)
            assert entry == json.loads(json.dumps(alone)), name
        assert "omega(N) = 4" in battery["tamagawa_omega_4"]["error"]
        assert (sum(tested["small_period"][0]["group_sizes"])
                == sum(tested["large_period"][0]["group_sizes"]))


class TestErrorReports:
    @pytest.mark.parametrize("shuffles", ["0", "-3"])
    @pytest.mark.parametrize("command", ["stratify", "confound"])
    def test_fewer_than_one_shuffle_is_structured_error(self, twist_csv, tmp_path,
                                                        command, shuffles):
        out = tmp_path / "out"
        rc = main([command, "--curves", str(twist_csv), "--rule", "sha",
                   "--band", "0:100", "--range", "1000:300000", "--primes", "10",
                   "--shuffles", shuffles, "--out", str(out)])
        assert rc == 1
        err = json.loads((out / f"{command}_error.json").read_text())
        assert "at least one shuffle" in err["error"]
        assert not (out / f"{command}.json").exists()

    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_window_not_finite_is_structured_error(self, twist_csv, tmp_path, width):
        out = tmp_path / "out"
        rc = main(["windows", "--curves", str(twist_csv), "--window", width,
                   "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "windows_error.json").read_text())
        assert "finite and positive" in err["error"]
        assert not (out / "windows.json").exists()

    @pytest.mark.parametrize("runs, listed", [
        (("50", "0"), "stratify_error"),
        (("0", "50"), "stratify"),
    ])
    def test_report_lists_only_the_last_run_of_a_step(self, twist_csv, tmp_path,
                                                      runs, listed):
        out = tmp_path / "out"
        for shuffles in runs:
            main(["stratify", "--curves", str(twist_csv), "--rule", "sha",
                  "--range", "1000:300000", "--primes", "10",
                  "--shuffles", shuffles, "--out", str(out)])
        assert main(["report", "--out", str(out)]) == 0
        assert list(read_report(out, "report")["reports"]) == [listed]

    @pytest.mark.parametrize("below", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["ingest", "stratify"])
    def test_out_that_is_no_directory_is_one_error_line(self, twist_csv, tmp_path,
                                                        capsys, command, below):
        # ingest never creates the out directory itself, stratify does
        blocker = tmp_path / "file"
        blocker.write_text("kept")
        out = blocker / "x" if below else blocker
        rc = main([command, "--curves", str(twist_csv), "--rule", "sha",
                   "--range", "1000:300000", "--primes", "10", "--shuffles", "50",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert blocker.read_text() == "kept"

    def test_stratify_on_truncated_cache(self, twist_csv, tmp_path):
        out = tmp_path / "out"
        cache = tmp_path / "cache.bin"
        assert main(["traces", "--curves", str(twist_csv), "--cache", str(cache),
                     "--primes", "20", "--out", str(out)]) == 0
        cache.write_bytes(cache.read_bytes()[:-40])
        rc = main(["stratify", "--curves", str(twist_csv), "--cache", str(cache),
                   "--rule", "sha", "--range", "1000:300000", "--primes", "20",
                   "--shuffles", "50", "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "stratify_error.json").read_text())
        assert err["command"] == "stratify"
        assert "truncated cache" in err["error"]

    def test_a_file_that_is_no_cache_is_named(self, twist_csv, tmp_path):
        out, cache = tmp_path / "out", tmp_path / "magic.bin"
        cache.write_bytes(b"NOPE" + bytes(64))
        rc = main(["stratify", "--curves", str(twist_csv), "--cache", str(cache),
                   "--rule", "sha", "--primes", "20", "--out", str(out)])
        assert rc == 1
        assert read_report(out, "stratify_error")["error"] == (
            f"{cache} is no trace cache (bad magic b'NOPE'); "
            "point --cache at a cache that `traces` built")
        assert cache.read_bytes() == b"NOPE" + bytes(64)

    def test_missing_cache_refused_before_any_build(self, twist_csv, tmp_path,
                                                    monkeypatch):
        def no_build(*args, **kwargs):
            pytest.fail("the trace matrix was built for a missing cache")

        monkeypatch.setattr(traces, "build_trace_matrix", no_build)
        out = tmp_path / "out"
        rc = main(["stratify", "--curves", str(twist_csv), "--cache",
                   str(tmp_path / "none.bin"), "--rule", "sha", "--primes", "20",
                   "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "stratify_error.json").read_text())
        assert "none.bin does not exist" in err["error"]

    def test_version_1_cache_asks_for_a_rebuild(self, twist_csv, tmp_path):
        # the layout every cache had before the table moved into it
        matrix = build_trace_matrix(twist_table(), default_prime_list(20))
        cache = tmp_path / "cache.bin"
        with open(cache, "wb") as fh:
            fh.write(b"MURM" + struct.pack("<IQI", 1, len(matrix), len(matrix.primes)))
            fh.write(matrix.primes.primes.astype("<u4").tobytes())
            for label in matrix.curve_labels:
                fh.write(struct.pack("<I", len(label)) + label.encode())
            fh.write(matrix.traces.astype("<i2").tobytes())
            fh.write(np.packbits(matrix.bad_flags.ravel(), bitorder="little").tobytes())
        out = tmp_path / "out"
        common = ["--curves", str(twist_csv), "--cache", str(cache), "--primes", "20",
                  "--out", str(out)]
        for argv in (["traces", *common],
                     ["stratify", *common, "--rule", "sha", "--shuffles", "20"]):
            assert main(argv) == 1
            err = json.loads((out / f"{argv[0]}_error.json").read_text())
            assert "cache version 1" in err["error"], argv[0]
            assert "rebuild it with `traces`" in err["error"], argv[0]

    def test_zeros_quadrature_refusal(self, twist_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(lfunctions, "_node_count", lambda span, t_max: 8)
        out = tmp_path / "out"
        rc = main(["zeros", "--curves", str(twist_csv), "--band", "0:100",
                   "--range", "1000:300000", "--primes", "20", "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "zeros_error.json").read_text())
        assert "8 and 16 quadrature nodes" in err["error"]
        assert not (out / "zeros.json").exists()

    def test_every_exception_class_of_the_package_is_a_value_error(self):
        # the package raises ValueError itself and defines no exception class,
        # so main catches every failure of a user's inputs with one fixed tuple
        classes = [f"{name}.{cls.__name__}"
                   for name in SUBMODULES + ["murmurlab.cli"]
                   for cls in vars(importlib.import_module(name)).values()
                   if isinstance(cls, type) and issubclass(cls, BaseException)
                   and cls.__module__ == name]
        assert classes == []


class TestCachedStepsParseNothing:
    """With a matching cache the table comes from it, and zeros counts no cached trace."""

    def test_cached_steps_never_parse_the_csv(self, twist_csv, tmp_path, monkeypatch):
        out, cache = tmp_path / "out", tmp_path / "cache.bin"
        common = ["--curves", str(twist_csv), "--cache", str(cache), "--primes", "200",
                  "--band", "0:100", "--range", "1000:300000", "--out", str(out)]
        assert main(["traces", *common]) == 0

        def no_parse(*args, **kwargs):
            pytest.fail("a cached step parsed the CSV")

        monkeypatch.setattr(curves, "parse_curve_table", no_parse)
        for argv in (["stratify", *common, "--rule", "sha", "--shuffles", "20"],
                     ["confound", *common, "--shuffles", "20"],
                     ["diagnose", *common], ["zeros", *common]):
            assert main(argv) == 0, argv[0]

    def test_zeros_counts_no_trace_a_covering_cache_holds(self, twist_csv, tmp_path,
                                                          monkeypatch):
        # 600 primes reach 4,409 > 8 sqrt(11 * 163^2): every a_p zeros needs
        out, cache = tmp_path / "out", tmp_path / "cache.bin"
        common = ["--curves", str(twist_csv), "--cache", str(cache), "--primes", "600",
                  "--band", "0:100", "--range", "1000:300000", "--out", str(out)]
        assert main(["traces", *common]) == 0
        counted = (out / "zeros_sha_1.csv", out / "zeros_sha_ge4.csv", out / "zeros.json")
        assert main(["zeros", *common]) == 0
        before = [path.read_bytes() for path in counted]

        def no_count(*args, **kwargs):
            pytest.fail("zeros counted a trace the cache holds")

        monkeypatch.setattr(traces, "_trace_column", no_count)
        assert main(["zeros", *common]) == 0
        assert [path.read_bytes() for path in counted] == before


class TestCacheAndBuildAgree:
    def test_each_analysis_step_gives_the_same_section_either_way(self, tmp_path):
        # every rule and every confound control partitions: Tamagawa products
        # 1 and 6, torsion orders 1 and 2, and every fourth twist claimed as rank 1
        path = tmp_path / "twists.csv"
        path.write_text(serialize_curve_table(every_rule_table()))
        cache = tmp_path / "cache.bin"
        common = ["--curves", str(path), "--band", "0:100", "--range", "1000:300000",
                  "--primes", "200", "--rule", "all", "--shuffles", "50"]
        assert main(["traces", *common, "--cache", str(cache),
                     "--out", str(tmp_path / "setup")]) == 0
        for step in ("stratify", "confound", "diagnose", "zeros"):
            cached, built = tmp_path / step / "cached", tmp_path / step / "built"
            assert main([step, *common, "--cache", str(cache), "--out", str(cached)]) == 0
            assert main([step, *common, "--out", str(built)]) == 0
            reports = [read_report(out, step) for out in (cached, built)]
            for report in reports:
                del report["inputs"], report["config_hash"]
            assert reports[0] == reports[1], step
            written = sorted(p.name for p in cached.iterdir())
            assert written == sorted(p.name for p in built.iterdir()), step
            for name in written:
                if name != f"{step}.json":
                    assert (cached / name).read_bytes() == (built / name).read_bytes(), name


def json_shape(value):
    """The key tree of a JSON value, each leaf replaced by the name of its JSON type."""
    if isinstance(value, dict):
        return {key: json_shape(v) for key, v in value.items()}
    return {int: "int", float: "float", str: "str", bool: "bool", type(None): "null",
            list: "list"}[type(value)]


#: the shape of a permutation test's report, one of those `permutation_test` returns
PERMUTATION_SHAPE = {"group_sizes": "list", "low_shuffle_warning": "bool", "n_shuffles": "int",
                     "null_mean": "float", "null_median": "float", "null_sd": "float",
                     "observed_rms": "float", "p_value": "float", "seed": "int"}
TWO_GROUPS = {"group_a": "int", "group_b": "int"}
SHA_GROUPS = {"sha_1": "int", "sha_ge4": "int"}
MOMENTS = {"mean": "float", "variance": "float", "variance_over_p": "float",
           "skewness": "float", "excess_kurtosis": "float"}
ERROR = {"error": "str"}


def report_shape(step: str, section: dict, inputs=("curves",)) -> dict:
    return {"version": "str", "config_hash": "str", "seed": "int",
            "inputs": {name: {"path": "str", "sha256": "str"} for name in inputs},
            step: section}


#: every step's report on the twist table; a part a step adds or renames changes this
REPORT_SHAPES = {
    "ingest": report_shape("ingest", {
        "n_curves": "int", "n_rejected_rows": "int", "rejected": "list",
        "rank_histogram": {"0": "int"}, "conductor_min": "int", "conductor_max": "int",
        "n_isogeny_classes": "int", "dedupe_retained_ratio": "float"}),
    "traces": report_shape("traces", {
        "n_curves": "int", "n_primes": "int", "last_prime": "int", "rebuilt": "bool",
        "bad_prime_entries": "int"}, inputs=("curves", "cache")),
    "windows": report_shape("windows", {
        "width": "float", "step": "float",
        # the twists' conductors leave windows without curves: no series is evenly spaced
        "invariants": {invariant: {"rank0_windows": "int", "rank1_windows": "int",
                                   "residuals": ERROR}
                       for invariant in ("period", "log_period", "tamagawa", "torsion",
                                         "regulator", "sha", "l_value", "bsd_ratio")}}),
    "stratify": report_shape("stratify", {
        "conductor_range": "list",
        "rules": {
            "tamagawa": ERROR,
            "sha": {"group_sizes": TWO_GROUPS, "n_unassigned": "int",
                    "report": PERMUTATION_SHAPE},
            "period": {"group_sizes": {q: "int" for q in ("q1", "q2", "q3", "q4")},
                       "n_unassigned": "int", "report": PERMUTATION_SHAPE},
            "torsion": ERROR,
            "root_number": ERROR},
        "bonferroni": {"alpha": "float", "threshold": "float", "all_significant": "bool"},
        "scale_scan": {"windows": "list", "rms": "list", "alpha": "float",
                       "r_squared": "float"}}),
    "confound": report_shape("confound", {
        "conductor_range": "list",
        "battery": {
            "tamagawa_omega_2": ERROR, "tamagawa_omega_3": ERROR, "tamagawa_omega_4": ERROR,
            "tamagawa_conductor_matched": ERROR,
            "sha_lvalue_band": {"band": "list", "group_sizes": TWO_GROUPS,
                                "report": PERMUTATION_SHAPE},
            "sha_lvalue_matched": ERROR,
            "sha_triple_control": {half: {"sizes": TWO_GROUPS, "report": PERMUTATION_SHAPE}
                                   for half in ("small_period", "large_period")},
            "bsd_group_ratios": {"sha_1": "float", "sha_ge4": "float"},
            "euler_cumsum": {"argmax_prime": "int", "terminal": "list"},
            "period_vs_log_conductor": "float"}}),
    "diagnose": report_shape("diagnose", {
        "band": "list", "conductor_range": "list", "groups": SHA_GROUPS,
        "moments": {"sha_1": MOMENTS, "sha_ge4": MOMENTS},
        "sato_tate_ks": {"D": "float", "p": "float", "n_a": "int", "n_b": "int"},
        "crossover": {"crossing_prime": "int", "direction": "str",
                      "landmarks": {p: "float" for p in ("5", "37", "251", "1009")}},
        "reduction": {"type_counts": {"additive": "int", "split_mult": "int",
                                      "nonsplit_mult": "int"},
                      "tamagawa_agreement": "float", "n_classified": "int",
                      "n_unclassifiable": "int"},
        "bad_prime_share": {"full_rms": "float", "masked_rms": "float",
                            "share_percent": "float"}}),
    "zeros": report_shape("zeros", {
        "band": "list", "n_complete": SHA_GROUPS,
        "fe_gate": {"tolerance": "float", "n_excluded": SHA_GROUPS,
                    "excluded": {"sha_1": "list", "sha_ge4": "list"}},
        "central_zeros": {"sha_1": {}, "sha_ge4": {}},
        "hotelling": {"t2": "float", "f": "float", "p": "float", "df": "list"},
        "one_level_density": {"deviation_sha_1": "float", "deviation_sha_ge4": "float",
                              "ks_all": "list", "ks_first": "list"},
        "explicit_formula": {"correlation": "float", "rms_predicted": "float",
                             "rms_observed": "float"}}),
}


class TestReportShapes:
    def test_every_report_has_its_pinned_shape(self, twist_csv, tmp_path):
        out = tmp_path / "out"
        common = ["--curves", str(twist_csv), "--band", "0:100", "--range", "1000:300000",
                  "--primes", "200", "--shuffles", "20", "--out", str(out)]
        for step in REPORT_SHAPES:
            extra = ["--rule", "all"] if step == "stratify" else []
            assert main([step, *common, *extra]) == 0, step
            assert json_shape(read_report(out, step)) == REPORT_SHAPES[step], step
        assert main(["report", *common]) == 0
        assert read_report(out, "report") == {
            "version": cli.__version__,
            "reports": {step: read_report(out, step) for step in REPORT_SHAPES}}


def twinned_table() -> CurveTable:
    """every_rule_table with a twin of each curve, labelled y1 and of the other
    Tamagawa product, so that matching on conductor pairs every twin."""
    originals = records(every_rule_table())
    return table_of([*originals, *(
        dataclasses.replace(r, label=f"{r.conductor}y1", isogeny_class=f"{r.conductor}y",
                            tamagawa_product=7 - r.tamagawa_product) for r in originals)])


#: the CSV of each table TestByteIdentity runs on; the second adds a row ingest rejects
BYTE_IDENTITY_CSVS = {
    "twists": lambda: serialize_curve_table(twist_table()),
    "twinned": lambda: serialize_curve_table(twinned_table()) + "broken,row\n",
}

#: table -> step -> SHA-256 of each file the step writes, with the flags of TestReportShapes
PINNED_OUTPUTS = json.loads((DATA_DIR / "pinned_outputs.json").read_text())


def _digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


class TestByteIdentity:
    @pytest.mark.parametrize("table", sorted(BYTE_IDENTITY_CSVS))
    def test_every_file_a_step_writes_is_pinned(self, table, tmp_path, monkeypatch):
        # relative paths from inside tmp_path, so that the report heads' inputs are stable
        (tmp_path / "twists.csv").write_text(BYTE_IDENTITY_CSVS[table]())
        monkeypatch.chdir(tmp_path)
        common = ["--curves", "twists.csv", "--band", "0:100", "--range", "1000:300000",
                  "--primes", "200", "--shuffles", "20", "--out", "out"]
        before, written = {}, {}
        for step in [*REPORT_SHAPES, "report"]:
            extra = ["--rule", "all"] if step == "stratify" else []
            assert main([step, *common, *extra]) == 0, step
            now = _digests(Path("out"))
            written[step] = {name: digest for name, digest in now.items()
                             if before.get(name) != digest}
            before = now
        assert written == PINNED_OUTPUTS[table]


class TestSupersetCache:
    def test_diagnose_with_cache_covering_more_curves(self, twist_csv, tmp_path):
        # a cache serves the CSV bytes it was built from, not a subset of them
        out = tmp_path / "out"
        cache = tmp_path / "cache.bin"
        assert main(["traces", "--curves", str(twist_csv), "--cache", str(cache),
                     "--primes", "200", "--out", str(out)]) == 0
        table = twist_table()
        fewer = tmp_path / "fewer.csv"
        fewer.write_text(serialize_curve_table(table.subset(range(len(table) - 4))))
        rc = main(["diagnose", "--curves", str(fewer), "--cache", str(cache),
                   "--band", "0:100", "--range", "1000:300000", "--primes", "200",
                   "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "diagnose_error.json").read_text())
        for csv_path in (twist_csv, fewer):
            assert hashlib.sha256(csv_path.read_bytes()).hexdigest() in err["error"]
        assert not (out / "diagnose.json").exists()


def imported_zeros_csv(tmp_path):
    rng = np.random.default_rng(0)
    sets = []
    for rec in records(twist_table()):
        gammas = np.sort(np.cumsum(rng.uniform(0.4, 0.9, size=5)))
        sets.append(ZeroSet(rec.label, gammas, 10.0, True))
    zeros_csv = tmp_path / "zeros.csv"
    write_zero_sets_csv(zeros_csv, sets)
    return zeros_csv


class TestZerosImport:
    def test_imported_zco_sets_drive_statistics(self, twist_csv, tmp_path):
        zeros_csv = imported_zeros_csv(tmp_path)
        out = tmp_path / "out"
        rc = main(["zeros", "--curves", str(twist_csv), "--zeros", str(zeros_csv),
                   "--band", "0:100", "--range", "1000:300000", "--primes", "20",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        report = read_report(out, "zeros")["zeros"]
        assert report["n_complete"] == {"sha_1": 8, "sha_ge4": 8}
        assert report["fe_gate"]["n_excluded"] == {"sha_1": 0, "sha_ge4": 0}
        assert "t2" in report["hotelling"]
        assert "correlation" in report["explicit_formula"]
        assert (out / "explicit_prediction.csv").exists()

    def test_groups_with_the_same_zeros_give_no_explicit_formula(self, twist_csv,
                                                                  tmp_path):
        # the k-th curve of either Sha group gets the k-th zero set, so the
        # predicted difference is 0 at every prime and has no correlation
        table = twist_table()
        rng = np.random.default_rng(0)
        gammas = [np.sort(np.cumsum(rng.uniform(0.4, 0.9, size=5))) for _ in range(8)]
        sets = []
        for sha in (1.0, 4.0):
            rows = np.flatnonzero(table.sha_values == sha)
            sets += [ZeroSet(table.labels[i], g, 10.0, True) for i, g in zip(rows, gammas)]
        zeros_csv = tmp_path / "zeros.csv"
        write_zero_sets_csv(zeros_csv, sets)
        out = tmp_path / "out"
        rc = main(["zeros", "--curves", str(twist_csv), "--zeros", str(zeros_csv),
                   "--band", "0:100", "--range", "1000:300000", "--primes", "20",
                   "--out", str(out)])
        assert rc == 0
        report = read_report(out, "zeros")["zeros"]
        assert report["n_complete"] == {"sha_1": 8, "sha_ge4": 8}
        assert "t2" in report["hotelling"]
        assert "a series is constant" in report["explicit_formula"]["error"]
        assert not (out / "explicit_prediction.csv").exists()

    def test_zeros_equal_within_each_group_leave_the_other_parts(self, twist_csv,
                                                                   tmp_path):
        # one zero set for every curve of a Sha group, exact in binary: each
        # group's covariance is 0, so Hotelling's T^2 has no pooled inverse
        table = twist_table()
        sets = [ZeroSet(label, np.arange(1.0, 6.0) + (0.5 if sha == 4.0 else 0.0),
                        10.0, True)
                for label, sha in zip(table.labels, table.sha_values)]
        zeros_csv = tmp_path / "zeros.csv"
        write_zero_sets_csv(zeros_csv, sets)
        out = tmp_path / "out"
        rc = main(["zeros", "--curves", str(twist_csv), "--zeros", str(zeros_csv),
                   "--band", "0:100", "--range", "1000:300000", "--primes", "20",
                   "--out", str(out)])
        assert rc == 0
        report = read_report(out, "zeros")["zeros"]
        assert report["hotelling"] == {"error": "singular pooled covariance"}
        assert report["n_complete"] == {"sha_1": 8, "sha_ge4": 8}
        assert report["fe_gate"]["n_excluded"] == {"sha_1": 0, "sha_ge4": 0}
        assert len(report["one_level_density"]["ks_all"]) == 2
        assert "correlation" in report["explicit_formula"]
        assert (out / "density_sha_1.csv").exists()
        assert (out / "explicit_prediction.csv").exists()

    def test_report_lists_the_cache(self, twist_csv, tmp_path):
        out = tmp_path / "out"
        cache = tmp_path / "cache.bin"
        assert main(["traces", "--curves", str(twist_csv), "--cache", str(cache),
                     "--primes", "20", "--out", str(out)]) == 0
        rc = main(["zeros", "--curves", str(twist_csv), "--cache", str(cache),
                   "--zeros", str(imported_zeros_csv(tmp_path)), "--band", "0:100",
                   "--range", "1000:300000", "--primes", "20", "--out", str(out)])
        assert rc == 0
        inputs = read_report(out, "zeros")["inputs"]
        assert inputs["cache"] == {"path": str(cache),
                                   "sha256": cli._file_digest(cache)}


    def _zeros_error(self, twist_csv, zeros_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["zeros", "--curves", str(twist_csv), "--zeros", str(zeros_csv),
                   "--band", "0:100", "--range", "1000:300000", "--primes", "20",
                   "--out", str(out)])
        assert rc == 1
        assert not (out / "zeros.json").exists()
        return json.loads((out / "zeros_error.json").read_text())["error"]

    def test_empty_zeros_file_is_structured_error(self, twist_csv, tmp_path):
        zeros_csv = tmp_path / "zeros.csv"
        zeros_csv.write_text("")
        assert "line 1: empty file" in self._zeros_error(twist_csv, zeros_csv,
                                                          tmp_path)

    @pytest.mark.parametrize("cells", [7, 9])
    def test_row_without_eight_cells_is_structured_error(self, twist_csv, tmp_path,
                                                         cells):
        zeros_csv = imported_zeros_csv(tmp_path)
        lines = zeros_csv.read_text().splitlines()
        row = lines[2].split(",")
        lines[2] = ",".join(row[:7] if cells == 7 else [*row, "0.5"])
        zeros_csv.write_text("\n".join(lines) + "\n")
        error = self._zeros_error(twist_csv, zeros_csv, tmp_path)
        assert f"line 3: {cells} cells, expected 8" in error

    def test_label_listed_twice_is_structured_error(self, twist_csv, tmp_path):
        zeros_csv = imported_zeros_csv(tmp_path)
        lines = zeros_csv.read_text().splitlines()
        label = lines[2].split(",")[0]
        lines.append(lines[2])
        zeros_csv.write_text("\n".join(lines) + "\n")
        error = self._zeros_error(twist_csv, zeros_csv, tmp_path)
        assert str(zeros_csv) in error
        assert f"line {len(lines)}: label '{label}' already listed on line 3" in error

    @pytest.mark.parametrize("column", [3, 6, 7], ids=["gamma3", "complete", "t_max"])
    def test_non_numeric_cell_is_structured_error(self, twist_csv, tmp_path, column):
        zeros_csv = imported_zeros_csv(tmp_path)
        lines = zeros_csv.read_text().splitlines()
        row = lines[4].split(",")
        row[column] = "x"
        lines[4] = ",".join(row)
        zeros_csv.write_text("\n".join(lines) + "\n")
        error = self._zeros_error(twist_csv, zeros_csv, tmp_path)
        assert f"zeros CSV {zeros_csv} line 5: " in error
        assert "'x'" in error

    def test_complete_row_without_five_ordinates_is_structured_error(self, twist_csv,
                                                                     tmp_path):
        zeros_csv = imported_zeros_csv(tmp_path)
        lines = zeros_csv.read_text().splitlines()
        row = lines[4].split(",")
        row[4:6] = ["", ""]
        lines[4] = ",".join(row)
        zeros_csv.write_text("\n".join(lines) + "\n")
        error = self._zeros_error(twist_csv, zeros_csv, tmp_path)
        assert error == (f"zeros CSV {zeros_csv} line 5: {row[0]}: complete set has "
                         "3 zero ordinates, not k = 5")

    @pytest.mark.parametrize("column, value", [(1, "nan"), (5, "inf"), (7, "nan"),
                                               (7, "inf")],
                             ids=["gamma1-nan", "gamma5-inf", "t_max-nan", "t_max-inf"])
    def test_non_finite_cell_is_structured_error(self, twist_csv, tmp_path, column,
                                                 value):
        zeros_csv = imported_zeros_csv(tmp_path)
        lines = zeros_csv.read_text().splitlines()
        row = lines[4].split(",")
        row[column] = value
        lines[4] = ",".join(row)
        zeros_csv.write_text("\n".join(lines) + "\n")
        error = self._zeros_error(twist_csv, zeros_csv, tmp_path)
        assert f"zeros CSV {zeros_csv} line 5: {row[0]}: " in error
        assert "must be finite" in error


class TestZerosFunctionalEquationGate:
    @pytest.fixture()
    def impostor_csv(self, known_table, tmp_path):
        """11a1 (Sha 1), a twist (Sha 4) and 37a1 claimed as rank 0 with w = +1.

        37a1 has rank 1 and w = -1; the impostor passes the parity check of
        ingest and builds traces like any curve.
        """
        rec = record_of(known_table, "37a1")
        impostor = dataclasses.replace(rec, rank=0, root_number=1, regulator=1.0,
                                       l_value=rec.real_period)
        anchor = record_of(known_table, "11a1")
        twist = dataclasses.replace(twist_of_11a1(37), sha_an=4.0, l_value=4.0)
        path = tmp_path / "impostor.csv"
        path.write_text(serialize_curve_table(table_of([anchor, impostor, twist])))
        return path, twist.label

    def test_curve_with_a_false_root_number_excluded_and_counted(
            self, impostor_csv, tmp_path, monkeypatch):
        path, twist_label = impostor_csv
        searched = []
        real = lfunctions.locate_zeros

        def recording(series):
            searched.append(series.label)
            return real(series)

        monkeypatch.setattr(lfunctions, "locate_zeros", recording)
        out = tmp_path / "out"
        rc = main(["zeros", "--curves", str(path), "--band", "0:100",
                   "--range", "11:300000", "--primes", "20", "--out", str(out)])
        assert rc == 0
        assert sorted(searched) == ["11a1", twist_label]
        gate = read_report(out, "zeros")["zeros"]["fe_gate"]
        assert gate["excluded"] == {"sha_1": ["37a1"], "sha_ge4": []}
        assert gate["n_excluded"] == {"sha_1": 1, "sha_ge4": 0}
        assert gate["tolerance"] == lfunctions.FE_TOL
        rows = (out / "zeros_sha_1.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["11a1"]

    def test_imported_zero_set_of_the_impostor_excluded_and_counted(
            self, impostor_csv, tmp_path, monkeypatch):
        path, twist_label = impostor_csv
        monkeypatch.setattr(lfunctions, "locate_zeros", lambda series: pytest.fail(
            f"{series.label} searched although its zeros were imported"))
        zeros_csv = tmp_path / "zeros.csv"
        write_zero_sets_csv(zeros_csv, [
            ZeroSet(label, np.arange(1.0, 6.0), 10.0, True)
            for label in ("11a1", "37a1", twist_label)])
        out = tmp_path / "out"
        rc = main(["zeros", "--curves", str(path), "--zeros", str(zeros_csv),
                   "--band", "0:100", "--range", "11:300000", "--primes", "20",
                   "--out", str(out)])
        assert rc == 0
        report = read_report(out, "zeros")["zeros"]
        assert report["fe_gate"]["excluded"] == {"sha_1": ["37a1"], "sha_ge4": []}
        assert report["fe_gate"]["n_excluded"] == {"sha_1": 1, "sha_ge4": 0}
        assert report["n_complete"] == {"sha_1": 1, "sha_ge4": 1}


class TestCentralZeros:
    ARGS = ["--band", "0:100", "--range", "11:300000", "--primes", "20"]

    def _curves(self, known_table, tmp_path):
        # the d = -47 twist of 11a1 has w = +1 and L(1) = 0
        double = dataclasses.replace(twist_of_11a1(-47), sha_an=1.0, l_value=1.0)
        twist = dataclasses.replace(twist_of_11a1(37), sha_an=4.0, l_value=4.0)
        path = tmp_path / "central.csv"
        path.write_text(serialize_curve_table(table_of(
            [record_of(known_table, "11a1"), double, twist])))
        return path, double.label

    def test_zeros_report_names_the_rank_two_twist(self, known_table, tmp_path):
        path, double = self._curves(known_table, tmp_path)
        out = tmp_path / "out"
        assert main(["zeros", "--curves", str(path), *self.ARGS, "--out", str(out)]) == 0
        report = read_report(out, "zeros")["zeros"]
        assert report["central_zeros"] == {"sha_1": {double: 2}, "sha_ge4": {}}
        rows = (out / "zeros_sha_1.csv").read_text().splitlines()[1:]
        first = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
        assert first[double] > 1.0  # not a rounding zero near t = 0

    def test_imported_zeros_leave_the_central_order_unknown(self, known_table, tmp_path):
        path, _ = self._curves(known_table, tmp_path)
        searched = tmp_path / "searched"
        assert main(["zeros", "--curves", str(path), *self.ARGS,
                     "--out", str(searched)]) == 0
        out = tmp_path / "out"
        assert main(["zeros", "--curves", str(path), *self.ARGS, "--out", str(out),
                     "--zeros", str(searched / "zeros_sha_1.csv")]) == 0
        report = read_report(out, "zeros")["zeros"]
        searched_report = read_report(searched, "zeros")["zeros"]
        assert report["n_complete"]["sha_1"] == searched_report["n_complete"]["sha_1"]
        assert report["central_zeros"] is None


class TestWindowsCommand:
    def test_windows_report_on_synthetic_table(self, tmp_path):
        rank0 = make_synthetic_table(400, seed=1, conductor_range=(11_000, 49_000))
        rank1 = make_synthetic_table(400, seed=2, conductor_range=(11_000, 49_000),
                                     rank=1)
        table = table_of(records(rank0) + records(rank1))
        path = tmp_path / "synthetic.csv"
        path.write_text(serialize_curve_table(table))
        out = tmp_path / "out"
        rc = main(["windows", "--curves", str(path), "--window", "4000",
                   "--step", "250", "--out", str(out)])
        assert rc == 0
        report = read_report(out, "windows")
        assert report["windows"]["invariants"]["period"]["rank0_windows"] > 101
        assert (out / "windows_period_rank0.csv").exists()
        # every rank-0 regulator is 1: no correlation, and the report says why
        constant = {"error": "correlation undefined: a series is constant"}
        regulator = report["windows"]["invariants"]["regulator"]
        assert regulator["residual_correlation"] == constant
        assert regulator["cross_correlation_peak"] == constant
        period = report["windows"]["invariants"]["period"]
        assert -1 <= period["residual_correlation"] <= 1
        assert sorted(period["cross_correlation_peak"]) == ["lag", "value"]

    def test_a_series_of_101_windows_is_too_short_to_detrend(self, tmp_path):
        # conductors from 10,000 to 60,000 at the default step of 500: 101
        # windows, which would leave one residual
        rank0, rank1 = (records(make_synthetic_table(400, seed=seed, rank=rank,
                                                     conductor_range=(10_000, 60_001)))
                        for seed, rank in ((1, 0), (2, 1)))
        ends = [dataclasses.replace(rank0[i], label=f"{n}z1", isogeny_class=f"{n}z",
                                    conductor=n) for i, n in ((0, 10_000), (1, 60_000))]
        path = tmp_path / "synthetic.csv"
        path.write_text(serialize_curve_table(table_of([*rank0[2:], *ends, *rank1])))
        out = tmp_path / "out"
        assert main(["windows", "--curves", str(path), "--out", str(out)]) == 0
        for entry in read_report(out, "windows")["windows"]["invariants"].values():
            assert entry["rank0_windows"] == entry["rank1_windows"] == 101
            assert entry["residuals"] == {"error": "series of length 101 shorter than 103: "
                                                   "filter window 101 leaves fewer than 3 "
                                                   "residuals"}
        assert not list(out.glob("psd_*.csv"))

    def test_rank_with_an_empty_interior_band_gets_no_residual_statistics(self,
                                                                          tmp_path):
        # no rank-0 curve in (25000, 35000), wider than a window: the rank-0
        # series is long enough to detrend but not evenly spaced
        rank0 = table_of(records(make_synthetic_table(200, seed=1,
                                                      conductor_range=(11_000, 25_000)))
                         + records(make_synthetic_table(200, seed=4,
                                                        conductor_range=(35_000, 49_000))))
        rank1 = make_synthetic_table(400, seed=2, conductor_range=(11_000, 49_000), rank=1)
        path = tmp_path / "synthetic.csv"
        path.write_text(serialize_curve_table(table_of(records(rank0) + records(rank1))))
        out = tmp_path / "out"
        assert main(["windows", "--curves", str(path), "--window", "4000",
                     "--step", "250", "--out", str(out)]) == 0
        entry = read_report(out, "windows")["windows"]["invariants"]["period"]
        assert sorted(entry) == ["rank0_windows", "rank1_windows", "residuals"]
        assert entry["residuals"]["error"].startswith("detrending needs evenly spaced windows")
        assert 101 < entry["rank0_windows"] < entry["rank1_windows"]
        assert not list(out.glob("psd_*.csv"))
        sidecar = json.loads((out / "windows_period_rank0.csv.meta.json").read_text())
        assert sidecar["params"] == {"invariant": "period", "rank": 0,
                                     "width": 4000.0, "step": 250.0}
        assert sidecar["n_points"] == len(sidecar["counts"]) == entry["rank0_windows"]
        assert min(sidecar["counts"]) > 0

    def test_svg_emission(self, tmp_path):
        table = make_synthetic_table(200, seed=3)
        path = tmp_path / "s.csv"
        path.write_text(serialize_curve_table(table))
        out = tmp_path / "out"
        rc = main(["windows", "--curves", str(path), "--window", "4000",
                   "--step", "500", "--svg", "--out", str(out)])
        assert rc == 0
        svgs = list(out.glob("*.svg"))
        assert svgs and svgs[0].read_text().startswith("<svg")


class TestConfigFile:
    def test_flags_override_config(self, known_csv_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"curves={known_csv_path}\nseed=111\nout={tmp_path/'a'}\n")
        rc = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / 'b')])
        assert rc == 0
        report = read_report(tmp_path / "b", "ingest")
        assert report["seed"] == 111

    def test_config_hash_ignores_out(self, known_csv_path, tmp_path):
        hashes = set()
        for out in ("a", "b", "c"):
            assert main(["ingest", "--curves", str(known_csv_path),
                         "--out", str(tmp_path / out)]) == 0
            hashes.add(read_report(tmp_path / out, "ingest")["config_hash"])
        assert len(hashes) == 1
        assert main(["ingest", "--curves", str(known_csv_path), "--seed", "2",
                     "--out", str(tmp_path / "d")]) == 0
        assert read_report(tmp_path / "d", "ingest")["config_hash"] not in hashes

    def test_unknown_rule_in_config_rejected(self, known_csv_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rule=nosuch\n")
        out = tmp_path / "out"
        rc = main(["stratify", "--config", str(cfg), "--curves",
                   str(known_csv_path), "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "stratify_error.json").read_text())
        assert "unknown rule 'nosuch'" in err["error"]

    def test_error_report_goes_to_configured_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={tmp_path / 'configured'}\n")
        assert main(["ingest", "--config", str(cfg)]) == 1
        assert (tmp_path / "configured" / "ingest_error.json").exists()
        assert not (tmp_path / "out").exists()

    def test_file_and_flags_give_the_same_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("range=11:500000\nband=1.5:2.5\nprimes=30\nsvg=true\n"
                       "scan_windows=5000:20000,10000:50000,20000:70000\n")
        parser = make_parser()
        from_file = build_config(parser.parse_args(["stratify", "--config", str(cfg)]))
        from_flags = build_config(parser.parse_args([
            "stratify", "--range", "11:500000", "--band", "1.5:2.5", "--primes", "30",
            "--svg", "--scan-windows", "5000:20000,10000:50000,20000:70000"]))
        assert from_file == from_flags
        assert from_file.digest() == from_flags.digest()
        assert from_file.range == (11, 500000)

    def test_default_config_hash_is_pinned(self):
        assert RunConfig().digest() == \
            "24440e54b7a372071e7ad6c9a0c37d5c0903262fd9fba204caf35a9c9151be15"

    def test_literal_defaults_are_the_stratify_ones(self):
        # cli spells them out, so that its parser loads no stratify
        assert cli.RULE_NAMES == tuple(rule.invariant for rule in TABLE_RULES)

    def test_key_set_twice_rejected_naming_both_lines(self, known_csv_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=1\n# a second seed\nseed = 2\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--config", str(cfg), "--curves",
                   str(known_csv_path), "--out", str(out)])
        assert rc == 1
        assert not (out / "ingest.json").exists()
        err = json.loads((out / "ingest_error.json").read_text())
        assert err["error"] == (f"config {cfg}: key 'seed' set on line 1 "
                                "and again on line 3")

    def test_removed_threads_key_rejected(self, known_csv_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("threads=2\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--config", str(cfg), "--curves",
                   str(known_csv_path), "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "ingest_error.json").read_text())
        assert "unknown config key 'threads'" in err["error"]

    @pytest.mark.parametrize("command, key, value", [
        ("zeros", "sample", "-2"),
        ("stratify", "range", "50000:10000"),
    ])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_unusable_value_rejected_naming_the_key(self, twist_csv, tmp_path,
                                                    command, key, value, source):
        out = tmp_path / "out"
        args = [command, "--curves", str(twist_csv), "--primes", "10",
                "--out", str(out)]
        if source == "flag":
            args += ["--" + key, value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            args += ["--config", str(cfg)]
        assert main(args) == 1
        err = json.loads((out / f"{command}_error.json").read_text())
        assert err["error"].startswith(f"{key} ")

    def test_range_of_one_conductor_accepted(self):
        cfg = build_config(make_parser().parse_args(["stratify", "--range", "11:11"]))
        assert cfg.range == (11, 11)

    @pytest.mark.parametrize("key, value", [
        ("range", "10.9:50000.7"), ("range", "10000:inf"),
        ("scan_windows", "5000:20000,10000:50000.5,20000:70000")])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_bound_that_is_no_integer_refused(self, twist_csv, tmp_path, key, value,
                                               source):
        # a fractional bound was once truncated, so 10.9 let conductor 10 in
        out = tmp_path / "out"
        args = ["stratify", "--curves", str(twist_csv), "--primes", "10", "--out", str(out)]
        if source == "flag":
            args += ["--" + key.replace("_", "-"), value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key}={value}\n")
            args += ["--config", str(cfg)]
        assert main(args) == 1
        err = json.loads((out / "stratify_error.json").read_text())
        assert err["error"].startswith("expected integer bounds LO:HI, got ")
        assert not (out / "stratify.json").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_integer_bounds_in_exponent_form_accepted(self, tmp_path, source):
        args = ["stratify"]
        if source == "flag":
            args += ["--range", "1e4:5e4", "--scan-windows", "5e3:2e4,1e4:5e4,2e4:7e4"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("range=1e4:5e4\nscan_windows=5e3:2e4,1e4:5e4,2e4:7e4\n")
            args += ["--config", str(cfg)]
        cfg = build_config(make_parser().parse_args(args))
        assert cfg.range == (10_000, 50_000)
        assert cfg.scan_windows == ((5_000, 20_000), (10_000, 50_000), (20_000, 70_000))
        assert all(type(bound) is int for window in cfg.scan_windows for bound in window)

    def test_unknown_key_rejected(self, known_csv_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        rc = main(["ingest", "--config", str(cfg), "--curves",
                   str(known_csv_path), "--out", str(tmp_path / "out")])
        assert rc == 1


#: values the config parsers treat specially: non-finite, empty, malformed
_ODD_VALUES = ("nan:5", "5:nan", "inf:inf", "-inf:1", "1e400:2", "nan", "inf", "",
               ":", "1:2:3", "1:2,", ",", "true", "0x10", "1_000", " 7 ")


class TestConfigFuzz:
    """Any config file ends in a RunConfig or in <cmd>_error.json and exit 1."""

    LINES = st.lists(st.one_of(
        st.builds("{}={}".format, st.sampled_from([*cli._FIELDS, "threads", ""]),
                  st.one_of(st.sampled_from(_ODD_VALUES), st.text(max_size=12)))
        .map(str.encode),
        st.binary(max_size=24),
    ), max_size=6)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=LINES)
    def test_config_file_never_ends_in_a_traceback(self, tmp_path, lines):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)
        args = ["report", "--config", str(path), "--out", str(out)]
        rc = main(args)
        if rc == 0:
            assert isinstance(build_config(make_parser().parse_args(args)), RunConfig)
        else:
            assert rc == 1
            err = json.loads((out / "report_error.json").read_text())
            assert err["command"] == "report" and err["error"]


class TestReportAggregate:
    def test_aggregates_existing_jsons(self, known_csv_path, tmp_path):
        out = tmp_path / "out"
        assert main(["ingest", "--curves", str(known_csv_path), "--out",
                     str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        agg = read_report(out, "report")
        assert "ingest" in agg["reports"]

    def test_lists_the_step_reports_and_nothing_else(self, twist_csv, tmp_path):
        # windows leaves a .meta.json sidecar beside each series CSV
        out = tmp_path / "out"
        assert main(["windows", "--curves", str(twist_csv), "--out", str(out)]) == 0
        assert main(["confound", "--curves", str(twist_csv), "--band", "0:100",
                     "--range", "1000:300000", "--primes", "20", "--shuffles", "50",
                     "--out", str(out)]) == 0
        assert list(out.glob("*.meta.json"))
        assert main(["report", "--out", str(out)]) == 0
        assert sorted(read_report(out, "report")["reports"]) == ["confound", "windows"]


_SCIPY_AFTER = """
import json, sys
import murmurlab.cli
for argv in json.loads(sys.argv[1]):
    assert murmurlab.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


_SCIPY_AFTER_LAMBDA = """
import json, sys
from conftest import lambda_critical, twist_of_11a1
from murmurlab.lfunctions import LSeries, locate_zeros
series = LSeries.from_curve(twist_of_11a1(53))
assert locate_zeros(series).complete
lambda_critical(series, 2.5)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # from here on every import of scipy raises ImportError
import murmurlab.cli
for argv in json.loads(sys.argv[1]):
    assert murmurlab.cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m, mod in sys.modules.items()
                        if m.split(".")[0] == "scipy" and mod is not None)))
"""


def scipy_modules_after(*argvs, script=_SCIPY_AFTER) -> set[str]:
    """scipy modules held by a fresh interpreter that imports the CLI and runs argvs."""
    path = [str(Path(cli.__file__).parents[1]), str(Path(__file__).parent),
            os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


class TestImportOnUse:
    """No step loads scipy, and every step runs where scipy cannot be imported."""

    def test_importing_the_cli_loads_no_scipy(self):
        assert scipy_modules_after() == set()

    def test_lambda_and_the_zero_search_load_no_scipy(self):
        assert scipy_modules_after(script=_SCIPY_AFTER_LAMBDA) == set()

    def test_steps_without_statistics_load_no_scipy(self, tmp_path):
        # both Tamagawa groups nonempty, so confound runs its whole battery
        path = tmp_path / "twists.csv"
        path.write_text(serialize_curve_table(table_of([
            dataclasses.replace(r, tamagawa_product=1 + 5 * (i % 2))
            for i, r in enumerate(records(twist_table()))
        ])))
        out, cache = str(tmp_path / "out"), str(tmp_path / "cache.bin")
        common = ["--curves", str(path), "--range", "1000:300000",
                  "--primes", "20", "--out", out]
        assert scipy_modules_after(
            ["ingest", *common],
            ["traces", "--cache", cache, *common],
            ["stratify", "--cache", cache, "--shuffles", "50", *common],
            ["confound", "--cache", cache, "--shuffles", "50", *common],
            ["report", "--out", out],
        ) == set()

    def test_diagnose_and_zeros_leave_scipy_signal_out(self, twist_csv, tmp_path):
        # 200 primes reach past p = 1000, where the Sato-Tate pools start;
        # the KS and F tail probabilities are computed in-house, so no part
        # of scipy is loaded, scipy.signal included
        common = ["--curves", str(twist_csv), "--band", "0:100", "--range",
                  "1000:300000", "--primes", "200", "--out", str(tmp_path / "out")]
        assert scipy_modules_after(["diagnose", *common], ["zeros", *common]) == set()

    def test_every_step_runs_without_scipy(self, tmp_path):
        # twists with both Tamagawa groups nonempty, so confound runs its
        # whole battery; 200 primes reach past p = 1000, where the Sato-Tate
        # pools start; the synthetic series are long enough for the 101-point
        # filter and the Welch segments of the windows step
        twists = tmp_path / "twists.csv"
        twists.write_text(serialize_curve_table(table_of([
            dataclasses.replace(r, tamagawa_product=1 + 5 * (i % 2))
            for i, r in enumerate(records(twist_table()))
        ])))
        synthetic = tmp_path / "synthetic.csv"
        synthetic.write_text(serialize_curve_table(table_of([
            *records(make_synthetic_table(400, seed=1)),
            *records(make_synthetic_table(400, seed=2, rank=1))])))
        out, cache = tmp_path / "out", str(tmp_path / "cache.bin")
        common = ["--curves", str(twists), "--cache", cache, "--band", "0:100",
                  "--range", "1000:300000", "--primes", "200", "--out", str(out)]
        argvs = [
            ["ingest", *common],
            ["traces", *common],
            ["stratify", "--shuffles", "50", *common],
            ["confound", "--shuffles", "50", *common],
            ["diagnose", *common],
            ["windows", "--curves", str(synthetic), "--window", "4000",
             "--step", "250", "--out", str(tmp_path / "windows")],
            ["zeros", *common],
            ["report", "--out", str(out)],
        ]
        assert scipy_modules_after(*argvs, script=_WITHOUT_SCIPY) == set()
        # the statistics ran rather than ending in an error entry
        assert "p" in read_report(out, "diagnose")["diagnose"]["sato_tate_ks"]
        zeros = read_report(out, "zeros")["zeros"]
        assert "p" in zeros["hotelling"] and len(zeros["one_level_density"]["ks_all"]) == 2
        assert list((tmp_path / "windows").glob("psd_*.csv"))


_MODULES_AFTER = """
import json, sys, types
import murmurlab.cli
from murmurlab.cli import main

def submodules():
    return {n: m for n, m in sys.modules.items()
            if n.startswith("murmurlab.") and n != "murmurlab.cli"}

def executed():
    return sorted(n for n, m in submodules().items() if type(m) is types.ModuleType)

registered = sorted(submodules())
before = executed()
for argv in json.loads(sys.argv[1]):
    try:
        assert main(argv) == 0, argv
    except SystemExit as exc:  # --version
        assert exc.code == 0, argv
print(json.dumps({"registered": registered, "before": before, "executed": executed(),
                  "numpy": sorted(m for m in ("numpy", "numpy.ma", "numpy.random")
                                  if m in sys.modules)}))
"""


_TRACER_MISSING = """
import json, sys, types
sys.path.insert(0, sys.argv[1])
import murmurlab.cli
from tracer import TARGETS

lazy = [n for n, m in sys.modules.items() if n.startswith("murmurlab.")
        and type(m) is not types.ModuleType]
if sys.argv[2] == "eager":
    for name in lazy:
        vars(sys.modules[name])  # runs the module
    lazy = []
missing = []
for _, target, _ in TARGETS:  # as Recorder.install resolves them, wrapping nothing
    module_name, _, qualname = target.partition(".")
    owner = sys.modules.get(f"murmurlab.{module_name}")
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    if (vars(owner).get(attr) if owner is not None else None) is None:
        missing.append(target)
print(json.dumps({"lazy_before": sorted(lazy), "missing": missing}))
"""


def run_fresh(script: str, *args: str) -> dict:
    """The JSON that script prints last in a fresh interpreter, warnings as errors."""
    path = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def modules_after(*argvs) -> dict:
    """Registered and executed murmurlab submodules, and NumPy parts, after argvs."""
    return run_fresh(_MODULES_AFTER, json.dumps(argvs))


SUBMODULES = sorted(f"murmurlab.{path.stem}"
                    for path in Path(cli.__file__).parent.glob("*.py")
                    if path.stem not in ("__init__", "cli"))


class TestLazySubmodules:
    """A CLI step runs only the submodules it calls, and no step needs numpy.ma."""

    def test_importing_the_cli_runs_no_submodule(self):
        after = modules_after()
        assert after["registered"] == SUBMODULES
        assert after["before"] == after["executed"] == []
        assert after["numpy"] == []

    def test_report_and_version_import_no_numpy(self, tmp_path):
        assert modules_after(["--version"])["numpy"] == []
        after = modules_after(["report", "--out", str(tmp_path / "out")])
        assert after["executed"] == ["murmurlab.export"]
        assert after["numpy"] == []

    def test_ingest_runs_only_curves_and_export(self, twist_csv, tmp_path):
        after = modules_after(["ingest", "--curves", str(twist_csv),
                               "--out", str(tmp_path / "out")])
        assert after["executed"] == ["murmurlab.curves", "murmurlab.export"]
        assert after["numpy"] == ["numpy"]

    def test_windows_runs_no_trace_module(self, twist_csv, tmp_path):
        after = modules_after(["windows", "--curves", str(twist_csv),
                               "--out", str(tmp_path / "out")])
        assert after["executed"] == ["murmurlab.curves", "murmurlab.export",
                                     "murmurlab.windows"]

    def test_zeros_without_sample_draws_nothing(self, twist_csv, tmp_path):
        common = ["--curves", str(twist_csv), "--cache", str(tmp_path / "cache.bin"),
                  "--band", "0:100", "--range", "1000:300000", "--primes", "20",
                  "--out", str(tmp_path / "out")]
        after = modules_after(["traces", *common], ["zeros", *common])
        assert after["numpy"] == ["numpy"]
        assert read_report(tmp_path / "out", "zeros")["zeros"]["n_complete"]

    def test_no_step_imports_numpy_ma(self, tmp_path):
        twists = tmp_path / "twists.csv"
        twists.write_text(serialize_curve_table(table_of([
            dataclasses.replace(r, tamagawa_product=1 + 5 * (i % 2))
            for i, r in enumerate(records(twist_table()))
        ])))
        out, cache = tmp_path / "out", str(tmp_path / "cache.bin")
        common = ["--curves", str(twists), "--cache", cache, "--band", "0:100",
                  "--range", "1000:300000", "--primes", "200", "--out", str(out)]
        after = modules_after(
            ["ingest", *common],
            ["traces", *common],
            ["stratify", "--shuffles", "50", *common],
            ["confound", "--shuffles", "50", *common],
            ["diagnose", *common],
            ["windows", *common],
            ["zeros", "--sample", "6", *common],
            ["report", "--out", str(out)],
        )
        assert after["executed"] == SUBMODULES
        assert after["numpy"] == ["numpy", "numpy.random"]

    def test_the_bench_tracer_misses_what_an_eager_import_misses(self):
        bench = str(Path(__file__).resolve().parents[1] / "bench")
        lazy = run_fresh(_TRACER_MISSING, bench, "lazy")
        eager = run_fresh(_TRACER_MISSING, bench, "eager")
        assert lazy["lazy_before"] == SUBMODULES
        assert eager["lazy_before"] == []
        assert lazy["missing"] == eager["missing"]
