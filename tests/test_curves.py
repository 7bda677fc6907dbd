import io

import numpy as np
import pytest

from murmurlab.curves import (
    BsdInconsistencyError,
    CSV_FIELDS,
    CurveRecord,
    DuplicateLabelError,
    dedupe_isogeny,
    invariant_values,
    isogeny_class_of,
    parse_curve_table,
    serialize_curve_table,
    validate_bsd_residual,
    validate_record,
)

from conftest import (
    full_dataset_path,
    make_synthetic_table,
    record_of,
    requires_dataset,
)

HEADER = ",".join(CSV_FIELDS)


def row(label="11a1", conductor=11, rank=0, ainv="0,-1,1,-10,-20", w=1,
        sha="1.0", period="1.269209304", reg="1.0", tam=5, tor=5,
        lval="0.2538418609"):
    return (f"{label},{conductor},{rank},{ainv},{w},{sha},{period},{reg},"
            f"{tam},{tor},{lval}")


class TestParsing:
    def test_known_row(self):
        result = parse_curve_table(HEADER + "\n" + row() + "\n")
        assert not result.errors
        rec = record_of(result.table, "11a1")
        assert rec.conductor == 11
        assert rec.rank == 0
        assert rec.torsion_order == 5
        assert rec.a_invariants == (0, -1, 1, -10, -20)
        assert rec.isogeny_class == "11a"

    def test_header_only_gives_empty_table(self):
        result = parse_curve_table(HEADER + "\n")
        assert len(result.table) == 0
        assert not result.errors

    def test_rank_outside_observed_set_is_rejected(self):
        bad = row(label="11a1", rank=5, w=-1)
        result = parse_curve_table(HEADER + "\n" + bad + "\n")
        assert len(result.table) == 0
        assert len(result.errors) == 1
        assert "rank 5" in result.errors[0].message

    def test_wrong_column_count_collected_with_line_number(self):
        result = parse_curve_table(HEADER + "\n" + row() + "\nshort,row\n")
        assert len(result.table) == 1
        assert result.errors[0].line == 3

    def test_non_numeric_field_collected(self):
        bad = row(label="37a1", conductor="x37")
        result = parse_curve_table(HEADER + "\n" + bad + "\n")
        assert "conductor" in result.errors[0].message

    def test_duplicate_label_fatal(self):
        text = HEADER + "\n" + row() + "\n" + row() + "\n"
        with pytest.raises(DuplicateLabelError):
            parse_curve_table(text)

    def test_parity_violation_rejected(self):
        bad = row(label="11a1", w=-1)
        result = parse_curve_table(HEADER + "\n" + bad + "\n")
        assert "parity" in result.errors[0].message

    def test_sha_must_be_near_square(self):
        bad = row(label="11a1", sha="2.0")
        result = parse_curve_table(HEADER + "\n" + bad + "\n")
        assert "square" in result.errors[0].message

    def test_sha_float_noise_tolerated(self):
        ok = row(label="11a1", sha="4.0003")
        result = parse_curve_table(HEADER + "\n" + ok + "\n")
        assert not result.errors
        assert record_of(result.table, "11a1").sha_rounded() == 4

    def test_bad_header_fatal(self):
        with pytest.raises(Exception, match="header"):
            parse_curve_table("label,conductor\n")


class TestTable:
    def test_sorted_by_conductor_then_label(self, known_table):
        pairs = [(r.conductor, r.label) for r in known_table]
        assert pairs == sorted(pairs)

    def test_indexes(self, known_table):
        assert known_table.index_by_class["11a"] == (0, 1, 2)
        assert record_of(known_table, "389a1").rank == 2

    def test_filter_by_rank_and_range(self, known_table):
        sub = known_table.filter(rank=0, conductor_range=(11, 100))
        assert set(sub.labels) == {"11a1", "11a2", "11a3"}
        assert len(known_table.filter(conductor_range=(12, 400))) == 2

    def test_round_trip(self, known_table):
        text = serialize_curve_table(known_table)
        again = parse_curve_table(text)
        assert not again.errors
        assert again.table.records == known_table.records

    def test_round_trip_synthetic(self):
        table = make_synthetic_table(50, seed=3)
        again = parse_curve_table(serialize_curve_table(table))
        assert again.table.records == table.records

    def test_rank_histogram(self, known_table):
        assert known_table.rank_histogram() == {0: 3, 1: 1, 2: 1, 3: 1}


class TestBsdResidual:
    def test_11a1_consistent(self, curve_11a1):
        assert validate_bsd_residual(curve_11a1) < 1e-3

    def test_doubled_sha_moves_residual_to_one(self, curve_11a1):
        import dataclasses

        doubled = dataclasses.replace(curve_11a1, sha_an=2.0)
        assert validate_bsd_residual(doubled) == pytest.approx(1.0, abs=1e-6)

    def test_rank_nonzero_rejected(self, known_table):
        with pytest.raises(ValueError, match="rank 0"):
            validate_bsd_residual(record_of(known_table, "37a1"))

    def test_zero_l_value_inconsistent(self, curve_11a1):
        import dataclasses

        broken = dataclasses.replace(curve_11a1, l_value=0.0)
        with pytest.raises(BsdInconsistencyError):
            validate_bsd_residual(broken)

    def test_group_ratio_is_inverse_sha(self):
        # mean(Omega c / T^2) / mean(L) = 1/|Sha| within a fixed-Sha group
        table = make_synthetic_table(400, seed=11, sha_choices=(4.0,))
        ratio = np.mean([r.bsd_ratio() for r in table]) / np.mean(
            [r.l_value for r in table]
        )
        assert ratio == pytest.approx(0.25, rel=1e-9)


class TestDedupe:
    def test_single_class_collapses_to_smallest_label(self, known_table):
        deduped = dedupe_isogeny(known_table)
        assert [r.label for r in deduped if r.conductor == 11] == ["11a1"]
        assert len(deduped) == 4

    def test_every_class_once(self, known_table):
        deduped = dedupe_isogeny(known_table)
        classes = [r.isogeny_class for r in deduped]
        assert len(classes) == len(set(classes))

    def test_identity_when_already_unique(self, known_table):
        once = dedupe_isogeny(known_table)
        assert dedupe_isogeny(once).records == once.records


def test_isogeny_class_strips_trailing_index():
    assert isogeny_class_of("499998bu3") == "499998bu"
    with pytest.raises(Exception):
        isogeny_class_of("not-a-label")


def test_invariant_values(known_table):
    assert invariant_values(known_table, "bsd_ratio")[0] == pytest.approx(
        1.269209304 * 5 / 25
    )
    assert np.allclose(
        invariant_values(known_table, "log_period"),
        np.log(invariant_values(known_table, "period")),
    )
    with pytest.raises(KeyError):
        invariant_values(known_table, "nope")


def test_validate_record_flags_low_conductor(curve_11a1):
    import dataclasses

    low = dataclasses.replace(curve_11a1, conductor=7)
    assert any("conductor" in p for p in validate_record(low))


@requires_dataset
def test_full_range_rank_histogram():
    with open(full_dataset_path(), newline="") as fh:
        table = parse_curve_table(fh).table
    assert table.rank_histogram() == {
        0: 1_170_876, 1: 1_535_669, 2: 348_672, 3: 9_487, 4: 1
    }
