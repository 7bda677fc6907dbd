import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from murmurlab import curves
from murmurlab.curves import (
    CSV_FIELDS,
    NUMERIC_COLUMNS,
    CurveRecord,
    invariant_values,
    isogeny_class_of,
    parse_curve_table,
)

from oracles import parse_curve_table_oracle
from conftest import (
    full_dataset_path,
    make_synthetic_table,
    record_of,
    records,
    requires_dataset,
    serialize_curve_table,
    table_of,
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
        assert "rank 5" in result.errors[0]["message"]

    def test_wrong_column_count_collected_with_line_number(self):
        result = parse_curve_table(HEADER + "\n" + row() + "\nshort,row\n")
        assert len(result.table) == 1
        assert result.errors[0]["line"] == 3

    def test_non_numeric_field_collected(self):
        bad = row(label="37a1", conductor="x37")
        result = parse_curve_table(HEADER + "\n" + bad + "\n")
        assert "conductor" in result.errors[0]["message"]

    def test_duplicate_label_fatal(self):
        text = HEADER + "\n" + row() + "\n" + row() + "\n"
        with pytest.raises(ValueError, match="^duplicate label '11a1' at line 3$"):
            parse_curve_table(text)

    def test_parity_violation_rejected(self):
        bad = row(label="11a1", w=-1)
        result = parse_curve_table(HEADER + "\n" + bad + "\n")
        assert "parity" in result.errors[0]["message"]

    def test_sha_must_be_near_square(self):
        bad = row(label="11a1", sha="2.0")
        result = parse_curve_table(HEADER + "\n" + bad + "\n")
        assert "square" in result.errors[0]["message"]

    def test_sha_float_noise_tolerated(self):
        ok = row(label="11a1", sha="4.0003")
        result = parse_curve_table(HEADER + "\n" + ok + "\n")
        assert not result.errors
        assert round(record_of(result.table, "11a1").sha_an) == 4

    def test_bad_header_fatal(self):
        with pytest.raises(Exception, match="header"):
            parse_curve_table("label,conductor\n")


#: one 11a1 row per invariant rule that it breaks, with the exact rejection
REJECTIONS = {
    "conductor": (row(conductor=7), "conductor 7 < 11"),
    "rank": (row(rank=5, w=-1), "rank 5 outside (0, 1, 2, 3, 4)"),
    "root number": (row(w=0), "root number 0 not in {-1,+1}"),
    "parity": (row(w=-1), "parity violation: rank 0 with root number -1"),
    "real period": (row(period="-1.0"), "real period -1.0 not positive"),
    "regulator": (row(rank=1, w=-1, reg="-0.5"), "regulator -0.5 not positive"),
    "Tamagawa": (row(tam=0), "Tamagawa product 0 not positive"),
    "torsion": (row(tor=0), "torsion order 0 not positive"),
    "Sha positive": (row(sha="0.0"), "analytic Sha 0.0 not positive"),
    "Sha square": (row(sha="2.0"), "analytic Sha 2.0 is not a perfect square"),
    "L-value": (row(rank=1, w=-1, lval="-0.1"), "leading L-value -0.1 negative"),
    "rank 0 regulator": (row(reg="1.5"), "rank 0 with regulator 1.5 != 1"),
    "rank 0 L-value": (row(lval="0"), "rank 0 with vanishing L-value"),
    "conductor width": (row(conductor=2**64),
                        "conductor 18446744073709551616 > 9223372036854775807"),
    "Tamagawa width": (row(tam=2**63),
                       "Tamagawa product 9223372036854775808 > 9223372036854775807"),
    "torsion width": (row(tor=10**20),
                      "torsion order 100000000000000000000 > 9223372036854775807"),
    "three rules": (row(conductor=7, tam=0, lval="0"),
                    "conductor 7 < 11; Tamagawa product 0 not positive; "
                    "rank 0 with vanishing L-value"),
}


@pytest.mark.parametrize("line, message", REJECTIONS.values(), ids=REJECTIONS)
def test_each_rule_rejects_with_its_message(line, message):
    result = parse_curve_table(HEADER + "\n" + line + "\n")
    assert len(result.table) == 0
    assert result.errors == ({"line": 2, "message": message},)


def test_a_cell_too_wide_for_int64_rejects_only_its_row():
    text = "\n".join([HEADER, row(), row(label="37a1", conductor=10**20, ainv="0,0,1,-1,0"),
                      row(label="14a1", conductor=14, tor=2**64), ""])
    result = parse_curve_table(text)
    assert result.table.labels == ("11a1",)
    assert result.errors == (
        {"line": 3, "message": "conductor 100000000000000000000 > 9223372036854775807"},
        {"line": 4, "message": "torsion order 18446744073709551616 > 9223372036854775807"})


PERIOD_TO_TORSION = ("real period -1.0 not positive; regulator -0.5 not positive; "
                     "Tamagawa product 0 not positive; torsion order 0 not positive")
RANK_0 = "rank 0 with regulator -0.5 != 1; rank 0 with vanishing L-value"
#: rows that break every rule their rank, root number and Sha leave open;
#: each pair of rules that one row can break together meets in one of them
MANY_RULES = {
    "rank 5, Sha 0": (dict(rank=5, w=0, sha="0.0"), [
        "conductor 7 < 11", "rank 5 outside (0, 1, 2, 3, 4)", "root number 0 not in {-1,+1}",
        PERIOD_TO_TORSION, "analytic Sha 0.0 not positive", "leading L-value -0.1 negative"]),
    "rank 5, Sha 2": (dict(rank=5, w=0, sha="2.0"), [
        "conductor 7 < 11", "rank 5 outside (0, 1, 2, 3, 4)", "root number 0 not in {-1,+1}",
        PERIOD_TO_TORSION, "analytic Sha 2.0 is not a perfect square",
        "leading L-value -0.1 negative"]),
    "parity, Sha 0": (dict(w=-1, sha="0.0"), [
        "conductor 7 < 11", "parity violation: rank 0 with root number -1", PERIOD_TO_TORSION,
        "analytic Sha 0.0 not positive", "leading L-value -0.1 negative", RANK_0]),
    "parity, Sha 2": (dict(w=-1, sha="2.0"), [
        "conductor 7 < 11", "parity violation: rank 0 with root number -1", PERIOD_TO_TORSION,
        "analytic Sha 2.0 is not a perfect square", "leading L-value -0.1 negative", RANK_0]),
    "root number 0 at rank 0": (dict(w=0, sha="2.0"), [
        "conductor 7 < 11", "root number 0 not in {-1,+1}", PERIOD_TO_TORSION,
        "analytic Sha 2.0 is not a perfect square", "leading L-value -0.1 negative", RANK_0]),
}


@pytest.mark.parametrize("cells, messages", MANY_RULES.values(), ids=MANY_RULES)
def test_broken_rules_join_in_table_order(cells, messages):
    line = row(conductor=7, period="-1.0", reg="-0.5", tam=0, tor=0, lval="-0.1", **cells)
    result = parse_curve_table(HEADER + "\n" + line + "\n")
    assert result.errors == ({"line": 2, "message": "; ".join(messages)},)


#: cells a row may carry in place of a valid one
ODD_CELLS = ("x", "nan", "inf", "-inf", "1_0", " 7 ", "", "1e3", "2.5", "-3", "\x1c5",
             "0", "4", "11a1", str(2**63), str(-2**63 - 1), "9223372036854775807")


@st.composite
def csv_rows(draw):
    """One CSV line: a curve, often with odd cells, a wrong width or blank."""
    conductor = draw(st.integers(1, 60_000))
    rank = draw(st.integers(0, 2))
    w = (1 if rank % 2 == 0 else -1) * draw(st.sampled_from([1, 1, 1, -1]))
    label = f"{conductor}{draw(st.sampled_from(['a', 'b', 'ba']))}{draw(st.integers(1, 3))}"
    a_invariants = [draw(st.integers(-50, 50)) for _ in range(4)]
    a_invariants.append(draw(st.one_of(st.integers(-50, 50), st.integers(-2**70, 2**70))))
    regulator = "1.0" if rank == 0 else draw(st.sampled_from(["0.7", "1.0"]))
    cells = [label, str(conductor), str(rank), *map(str, a_invariants), str(w),
             draw(st.sampled_from(["1.0", "4.0", "9.0003", "2.0", "1", "0.0"])),
             draw(st.sampled_from(["0.5", "1.25", "-1.0", "3"])),
             draw(st.sampled_from([regulator, regulator, "1.5"])),
             str(draw(st.integers(0, 12))), str(draw(st.integers(0, 8))),
             draw(st.sampled_from(["0.3", "1.7", "0", "-0.1"]))]
    for _ in range(draw(st.integers(0, 2))):
        cells[draw(st.integers(0, 14))] = draw(st.sampled_from(ODD_CELLS))
    shape = draw(st.integers(0, 11))
    if shape == 0:
        return ""
    return ",".join(cells[:-1] if shape == 1 else cells + ["1"] if shape == 2 else cells)


@st.composite
def csv_texts(draw):
    lines = draw(st.lists(csv_rows(), max_size=14))
    if lines and draw(st.booleans()):  # a row again: its label twice
        lines.insert(draw(st.integers(0, len(lines))),
                     lines[draw(st.integers(0, len(lines) - 1))])
    return HEADER + "\n" + "\n".join(lines) + "\n"


class TestColumnParse:
    """The column-wise parse gives the table and errors of the row-wise oracle."""

    @settings(max_examples=400, deadline=None)
    @given(csv_texts())
    def test_equals_the_row_oracle(self, text):
        self.check(text)

    @settings(max_examples=400, deadline=None)
    @given(csv_texts())
    def test_blocks_of_three_rows_equal_the_row_oracle(self, text):
        # patched per example: a function-scoped fixture would span them all
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(curves, "_PARSE_BLOCK", 3)
            self.check(text)

    @staticmethod
    def check(text):
        try:
            want = parse_curve_table_oracle(text)
        except ValueError as exc:  # a duplicate label, fatal to both
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                parse_curve_table(text)
            return
        got = parse_curve_table(text)
        assert got.errors == want.errors
        assert got.table.labels == want.table.labels
        assert got.table.a_invariants.dtype == want.table.a_invariants.dtype == object
        assert got.table.a_invariants.shape == want.table.a_invariants.shape
        assert got.table.a_invariants.tolist() == want.table.a_invariants.tolist()
        for column in NUMERIC_COLUMNS:
            g, w = getattr(got.table, column), getattr(want.table, column)
            assert g.dtype == w.dtype and np.array_equal(g, w), column
        assert np.array_equal(got.table.rows, want.table.rows)
        assert records(got.table) == records(want.table)

    def test_known_csv_equals_the_row_oracle(self, known_csv_path):
        text = known_csv_path.read_text()
        assert records(parse_curve_table(text).table) == \
            records(parse_curve_table_oracle(text).table)


class TestTable:
    def test_sorted_by_conductor_then_label(self, known_table):
        pairs = [(r.conductor, r.label) for r in records(known_table)]
        assert pairs == sorted(pairs)

    def test_indexes(self, known_table):
        assert record_of(known_table, "389a1").rank == 2

    def test_filter_by_rank_and_range(self, known_table):
        sub = known_table.filter(rank=0, conductor_range=(11, 100))
        assert set(sub.labels) == {"11a1", "11a2", "11a3"}
        assert len(known_table.filter(conductor_range=(12, 400))) == 2

    def test_round_trip(self, known_table):
        text = serialize_curve_table(known_table)
        again = parse_curve_table(text)
        assert not again.errors
        assert records(again.table) == records(known_table)

    def test_round_trip_synthetic(self):
        table = make_synthetic_table(50, seed=3)
        again = parse_curve_table(serialize_curve_table(table))
        assert records(again.table) == records(table)

    def test_rank_histogram(self, known_table):
        assert known_table.rank_histogram() == {0: 3, 1: 1, 2: 1, 3: 1}


def bsd_residual(record: CurveRecord) -> float:
    """Relative rank-0 residual |L - Sha * bsd_ratio| / L, bsd_ratio as the windows use it."""
    ratio = invariant_values(table_of([record]), "bsd_ratio")[0]
    return abs(record.l_value - record.sha_an * ratio) / record.l_value


class TestBsdResidual:
    def test_11a1_consistent(self, curve_11a1):
        assert bsd_residual(curve_11a1) < 1e-3

    def test_doubled_sha_moves_residual_to_one(self, curve_11a1):
        import dataclasses

        doubled = dataclasses.replace(curve_11a1, sha_an=2.0)
        assert bsd_residual(doubled) == pytest.approx(1.0, abs=1e-6)

    def test_group_ratio_is_inverse_sha(self):
        # mean(Omega c / T^2) / mean(L) = 1/|Sha| within a fixed-Sha group
        table = make_synthetic_table(400, seed=11, sha_choices=(4.0,))
        ratio = np.mean(invariant_values(table, "bsd_ratio")) / np.mean(table.l_values)
        assert ratio == pytest.approx(0.25, rel=1e-9)


def test_isogeny_class_strips_trailing_index():
    assert isogeny_class_of("499998bu3") == "499998bu"
    with pytest.raises(ValueError, match="^label 'not-a-label' is not Cremona-style$"):
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


@requires_dataset
def test_full_range_rank_histogram():
    with open(full_dataset_path(), newline="") as fh:
        table = parse_curve_table(fh).table
    assert table.rank_histogram() == {
        0: 1_170_876, 1: 1_535_669, 2: 348_672, 3: 9_487, 4: 1
    }
