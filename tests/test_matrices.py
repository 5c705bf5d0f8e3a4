import dataclasses
import itertools

import pytest

import golden as G
from oracles import brute_force_uasm, interlace
from symptok.matrices import (
    CompassPointMatrix,
    CumulativeSumError,
    DimensionMismatchError,
    GTShapeError,
    SympGTPattern,
    UTurnASM,
    _interlace,
    classify_blr,
    col_cumsum,
    count_gtp,
    enumerate_gtp,
    enumerate_uasm,
    row_cumsum,
    validate_gtp,
    validate_uasm,
)
from symptok.tableaux import enumerate_st

A1 = UTurnASM(((1,), (0,)))
A2 = UTurnASM(((0,), (1,)))


class TestValidateUASM:
    def test_golden_matrix(self):
        assert validate_uasm(G.A, G.LAMBDA) == (True, [])

    def test_rank_one_both_turns(self):
        assert validate_uasm(A1, (1,))[0]
        assert validate_uasm(A2, (1,))[0]

    def test_column_sum_two_rejected(self):
        ok, bad = validate_uasm(UTurnASM(((1,), (1,))), (1,))
        assert not ok
        assert any("UA4" in v for v in bad)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            validate_uasm(UTurnASM(((1, 0), (0, 0))), (1,))

    @pytest.mark.parametrize("entries", [
        ((1,), (0,), (0,)),
        ((1, 0), (-1, 1), (1, 0), (0, 0), (0, 0)),
        ((1,),),
        (),
    ])
    def test_rows_that_fix_no_rank_are_refused(self, entries):
        # the rank is half the row count, so an odd count or fewer than two
        # rows is no matrix, with or without lambda
        for lam in (None, (1,)):
            with pytest.raises(DimensionMismatchError):
                validate_uasm(UTurnASM(entries), lam)

    @pytest.mark.parametrize("entries", [((1,),), ()])
    def test_fewer_than_two_rows_are_named_as_such(self, entries):
        # one row once read as "expected 0 x 1", a shape of rank 0
        for lam in (None, (1,)):
            with pytest.raises(DimensionMismatchError,
                               match=f"2n >= 2 rows, got {len(entries)}$"):
                validate_uasm(UTurnASM(entries), lam)

    def test_lambda_read_off_the_columns(self):
        assert validate_uasm(G.A) == (True, [])
        assert validate_uasm(A1)[0] and validate_uasm(A2)[0]
        assert validate_uasm(UTurnASM(((1, 0), (0, 0)))) == (
            False, ["UA5: the last column, 2, sums to 0, not 1"])
        assert validate_uasm(UTurnASM(((1, 0), (0, 1)))) == (
            False, ["UA4': rows 1 and 1' sum to 2, not 1",
                    "UA5: 2 columns sum to 1, not n=1"])


class TestEnumerateUASM:
    def test_rank_one(self):
        got = {a.entries for a in enumerate_uasm((1,), 1)}
        assert got == {A1.entries, A2.entries}

    def test_cardinality_matches_tableaux(self):
        lam, n = (2, 1), 2
        assert sum(1 for _ in enumerate_uasm(lam, n)) == sum(
            1 for _ in enumerate_st(lam, n))

    def test_brute_force_agreement(self):
        # every grid with at most 12 cells among the shapes used here
        for lam, n in [((1,), 1), ((2,), 1), ((3,), 1), ((2, 1), 2), ((3, 1), 2)]:
            if 2 * n * lam[0] > 12:
                continue
            got = {a.entries for a in enumerate_uasm(lam, n)}
            want = {a.entries for a in brute_force_uasm(lam, n)}
            assert got == want, (lam, n)

    def test_golden_matrix_is_in_its_family(self):
        # membership check only; the full family is far beyond enumeration
        ok, bad = validate_uasm(G.A, G.LAMBDA)
        assert ok and not bad


class TestCumulativeSums:
    def test_golden_displays(self):
        assert row_cumsum(G.A) == G.ROW_SUMS
        assert col_cumsum(G.A) == G.COL_SUMS

    def test_rank_one(self):
        assert row_cumsum(A1) == ((1,), (0,))
        assert col_cumsum(A2) == ((0,), (1,))

    def test_row_arithmetic(self):
        a = UTurnASM(((1, 0, -1, 1), (0, 0, 0, 0)))
        assert row_cumsum(a)[0] == (1, 0, 0, 1)

    def test_column_arithmetic(self):
        a = UTurnASM(((1,), (-1,), (1,), (0,)))
        assert tuple(r[0] for r in col_cumsum(a)) == (1, 0, 1, 1)

    def test_values_stay_binary_on_valid_matrices(self):
        for a in enumerate_uasm((3, 1), 2):
            row_cumsum(a)
            col_cumsum(a)

    @pytest.mark.parametrize("cumsum,entries,which", [
        (col_cumsum, ((1,), (1,)), "column"),
        # each row of ((1,), (1,)) sums to 1, so the row sums need a row
        # holding two 1s to leave {0,1}
        (row_cumsum, ((1, 1), (0, 0)), "row"),
    ])
    def test_sums_leaving_zero_one_raise_a_typed_error(self, cumsum, entries,
                                                      which):
        with pytest.raises(CumulativeSumError) as exc:
            cumsum(UTurnASM(entries))
        assert str(exc.value) == f"{which} cumulative sums leave {{0,1}}: invalid matrix"


@pytest.mark.parametrize("cls,field,rows", [
    (UTurnASM, "entries", ((1, 0), (-1, 1), (1, 0), (0, 0))),
    (CompassPointMatrix, "entries", (("WE",), ("NE",))),
    (SympGTPattern, "rows", ((1,), (2,), (3, 1), (3, 1))),
])
def test_rank_is_half_the_row_count(cls, field, rows):
    # the rows are all an object holds, so no rank of its own can disagree
    assert [f.name for f in dataclasses.fields(cls)] == [field]
    assert cls(rows).n == len(rows) // 2


GT_11 = SympGTPattern(((1,), (1,)))
GT_10 = SympGTPattern(((0,), (1,)))


class TestValidateGTP:
    def test_golden_pattern(self):
        assert validate_gtp(G.GT) == (True, [])

    def test_rank_one_valid(self):
        assert validate_gtp(GT_11)[0]
        assert validate_gtp(GT_10)[0]

    def test_both_zero_rejected(self):
        ok, bad = validate_gtp(SympGTPattern(((0,), (0,))))
        assert not ok
        assert any(v.startswith("seed") for v in bad)

    def test_shape_error(self):
        with pytest.raises(GTShapeError):
            validate_gtp(SympGTPattern(((1,), (1,), (2, 1))))
        with pytest.raises(GTShapeError, match="rank n must be at least 1, got 0"):
            validate_gtp(SympGTPattern(()))

    @pytest.mark.parametrize("rows,message", [
        (((1,), (2,), (3, 1), (3, 1), (4, 2, 0)), "expected 4 rows, got 5"),
        (((1,),), "rank n must be at least 1, got 0"),
    ])
    def test_rows_that_fix_no_rank_are_refused(self, rows, message):
        # the rank is half the row count, so an odd count or fewer than two
        # rows is no pattern
        with pytest.raises(GTShapeError, match=message):
            validate_gtp(SympGTPattern(rows))


class TestEnumerateGTP:
    def test_rank_one(self):
        got = {g.rows for g in enumerate_gtp((1,), 1)}
        assert got == {GT_11.rows, GT_10.rows}

    def test_cardinality_matches_tableaux(self):
        lam, n = (2, 1), 2
        assert sum(1 for _ in enumerate_gtp(lam, n)) == sum(
            1 for _ in enumerate_st(lam, n))

    def test_golden_pattern_is_reached(self):
        # the running shape is too large to sweep; check validity plus the
        # count oracle on a truncation instead
        assert validate_gtp(G.GT)[0]
        assert count_gtp((3, 2, 1), 3) == sum(1 for _ in enumerate_gtp((3, 2, 1), 3))

    def test_every_output_validates(self):
        for g in enumerate_gtp((4, 2, 1), 3):
            assert validate_gtp(g)[0]


def test_interlace_matches_product_and_filter():
    # every strict row with parts <= 9, to both lengths a GT row below it has;
    # enumerate_gtp yields patterns in the order _interlace yields rows
    for size in range(1, 6):
        for above in itertools.combinations(range(9, -1, -1), size):
            for length in (size, size - 1):
                assert list(_interlace(above, length)) == interlace(above, length), (
                    above, length)


class TestClassifyBLR:
    def test_rank_one_seed_cases(self):
        marks = classify_blr(GT_11)
        assert marks.unbarred[(1, 1)] == "B"
        assert marks.barred[(1, 1)] == "L"
        marks = classify_blr(GT_10)
        assert marks.unbarred[(1, 1)] == "L"
        assert marks.barred[(1, 1)] == "B"

    def test_marks_partition_every_position(self):
        for g in enumerate_gtp((3, 1), 2):
            marks = classify_blr(g)
            for k in range(1, 3):
                for j in range(1, k + 1):
                    assert marks.unbarred[(k, j)] in "BLR"
                    assert marks.barred[(k, j)] in "BLR"
                # right saturation cannot happen on the diagonal
                assert marks.unbarred[(k, k)] in "BL"
                assert marks.barred[(k, k)] in "BL"
                # seed rule: the two diagonal left-saturations exclude each other
                assert not (marks.unbarred[(k, k)] == "L"
                            and marks.barred[(k, k)] == "L")

    def test_golden_running_example_statistics(self):
        # classification feeds the counting statistics checked in test_weights
        marks = classify_blr(G.GT)
        assert marks.unbarred[(5, 1)] == "L"
        assert marks.barred[(5, 1)] == "B"
        assert marks.barred[(5, 5)] == "L"


def test_count_gtp_running_example_scale():
    assert count_gtp((2, 1), 2) == 12
    assert count_gtp((9, 7, 6, 2, 1), 5) == 19781353800


def test_count_gtp_refuses_a_part_that_is_not_an_integer():
    # int() read (3.5, 1) as (3, 1) and counted its 30 patterns
    with pytest.raises(ValueError, match="not an integer"):
        count_gtp((3.5, 1), 2)
