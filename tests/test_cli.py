import dataclasses
import json

import numpy as np
import pytest

from murmurlab import lfunctions
from murmurlab.cli import build_config, main, make_parser
from murmurlab.curves import CurveTable, serialize_curve_table
from murmurlab.lfunctions import ZeroSet, write_zero_sets_csv

from conftest import make_synthetic_table, twist_of_11a1

#: squarefree d = 1 mod 4, coprime to 22 and 3: twist conductors 11 d^2
TWIST_DS = (13, 17, 29, 37, 41, 53, 61, 65, 73, 85, 89, 97, 101, 109, 113, 137)


def twist_table(sha_pattern=(1.0, 4.0)) -> CurveTable:
    records = []
    for i, d in enumerate(TWIST_DS):
        base = twist_of_11a1(d)
        sha = sha_pattern[i % len(sha_pattern)]
        period = 0.4 + 0.05 * i
        records.append(
            dataclasses.replace(
                base,
                rank=0,
                root_number=1,
                sha_an=sha,
                real_period=period,
                tamagawa_product=1,
                torsion_order=1,
                regulator=1.0,
                l_value=sha * period,
            )
        )
    return CurveTable(records)


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
        assert "sha256" in report["inputs"]["curves"]

    def test_empty_csv_reports_zero_curves(self, tmp_path):
        csv_path = tmp_path / "empty.csv"
        from murmurlab.curves import CSV_FIELDS

        csv_path.write_text(",".join(CSV_FIELDS) + "\n")
        out = tmp_path / "out"
        rc = main(["ingest", "--curves", str(csv_path), "--out", str(out)])
        assert rc == 0
        assert read_report(out, "ingest")["ingest"]["n_curves"] == 0

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


class TestErrorReports:
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

    def test_zeros_gamma_non_convergence(self, twist_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(lfunctions, "_GAMMA_MAX_ITER", 1)
        out = tmp_path / "out"
        rc = main(["zeros", "--curves", str(twist_csv), "--band", "0:100",
                   "--range", "1000:300000", "--primes", "20", "--out", str(out)])
        assert rc == 1
        err = json.loads((out / "zeros_error.json").read_text())
        assert "did not converge" in err["error"]
        assert not (out / "zeros.json").exists()


class TestSupersetCache:
    def test_diagnose_with_cache_covering_more_curves(self, twist_csv, tmp_path):
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
        assert rc == 0
        rows = (out / "reduction_types.csv").read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == set(table.labels[:-4])


class TestZerosImport:
    def test_imported_zco_sets_drive_statistics(self, twist_csv, tmp_path):
        rng = np.random.default_rng(0)
        table = twist_table()
        sets = []
        for i, rec in enumerate(table):
            gammas = np.sort(np.cumsum(rng.uniform(0.4, 0.9, size=5)))
            sets.append(ZeroSet(rec.label, gammas, 5, 10.0, True, 0.0))
        zeros_csv = tmp_path / "zeros.csv"
        write_zero_sets_csv(zeros_csv, sets)
        out = tmp_path / "out"
        rc = main(["zeros", "--curves", str(twist_csv), "--zeros", str(zeros_csv),
                   "--band", "0:100", "--range", "1000:300000", "--primes", "20",
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        report = read_report(out, "zeros")["zeros"]
        assert report["n_complete"] == {"sha_1": 8, "sha_ge4": 8}
        assert "t2" in report["hotelling"]
        assert "correlation" in report["explicit_formula"]
        assert (out / "explicit_prediction.csv").exists()


class TestWindowsCommand:
    def test_windows_report_on_synthetic_table(self, tmp_path):
        rank0 = make_synthetic_table(400, seed=1, conductor_range=(11_000, 49_000))
        rank1 = make_synthetic_table(400, seed=2, conductor_range=(11_000, 49_000),
                                     rank=1)
        table = CurveTable(list(rank0.records) + list(rank1.records))
        path = tmp_path / "synthetic.csv"
        path.write_text(serialize_curve_table(table))
        out = tmp_path / "out"
        rc = main(["windows", "--curves", str(path), "--window", "4000",
                   "--step", "250", "--out", str(out)])
        assert rc == 0
        report = read_report(out, "windows")
        assert report["windows"]["invariants"]["period"]["rank0_windows"] > 101
        assert (out / "windows_period_rank0.csv").exists()

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

    def test_config_hash_ignores_out_and_threads(self, known_csv_path, tmp_path):
        hashes = set()
        for out, threads in (("a", "1"), ("b", "2"), ("c", "7")):
            assert main(["ingest", "--curves", str(known_csv_path), "--threads",
                         threads, "--out", str(tmp_path / out)]) == 0
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

    def test_unknown_key_rejected(self, known_csv_path, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense=1\n")
        rc = main(["ingest", "--config", str(cfg), "--curves",
                   str(known_csv_path), "--out", str(tmp_path / "out")])
        assert rc == 1


class TestReportAggregate:
    def test_aggregates_existing_jsons(self, known_csv_path, tmp_path):
        out = tmp_path / "out"
        assert main(["ingest", "--curves", str(known_csv_path), "--out",
                     str(out)]) == 0
        assert main(["report", "--out", str(out)]) == 0
        agg = read_report(out, "report")
        assert "ingest" in agg["reports"]
