import pytest

import golden as G
from oracles import chi_turn
from symptok.bijections import (
    UnmatchedPatternError,
    gtp_to_st,
    st_to_gtp,
    st_to_uasm,
    uasm_to_cpm,
    uasm_to_gtp,
    uasm_to_st,
)
from symptok.matrices import SympGTPattern, UTurnASM, enumerate_gtp, enumerate_uasm
from symptok.shapes import NotStrictError
from symptok.tableaux import ShiftedTableau, enumerate_st

A1 = UTurnASM(((1,), (0,)))
A2 = UTurnASM(((0,), (1,)))
ST_PLAIN = ShiftedTableau((1,), ((1,),))
ST_BAR = ShiftedTableau((1,), ((2,),))


class TestGoldenCorrespondence:
    def test_matrix_to_tableau(self):
        assert uasm_to_st(G.A) == G.ST

    def test_matrix_to_pattern(self):
        assert uasm_to_gtp(G.A) == G.GT

    def test_tableau_to_pattern_and_back(self):
        assert st_to_gtp(G.ST) == G.GT
        assert gtp_to_st(G.GT) == G.ST

    def test_tableau_to_matrix(self):
        assert st_to_uasm(G.ST) == G.A
        assert st_to_uasm(gtp_to_st(G.GT)) == G.A

    def test_compass_recoding_all_90_entries(self):
        assert uasm_to_cpm(G.A) == G.CPM


class TestRankOne:
    def test_tableau_from_matrix(self):
        assert uasm_to_st(A1) == ST_PLAIN
        assert uasm_to_st(A2) == ST_BAR

    def test_matrix_from_tableau(self):
        assert st_to_uasm(ST_BAR) == A2

    def test_pattern_counts(self):
        assert st_to_gtp(ST_PLAIN) == SympGTPattern(((1,), (1,)))
        assert st_to_gtp(ST_BAR) == SympGTPattern(((0,), (1,)))
        assert uasm_to_gtp(A1) == SympGTPattern(((1,), (1,)))

    def test_pattern_to_tableau(self):
        assert gtp_to_st(SympGTPattern(((0,), (1,)))) == ST_BAR

    def test_compass_codes(self):
        assert uasm_to_cpm(A1).entries == (("WE",), ("NE",))
        assert uasm_to_cpm(A2).entries == (("SE",), ("WE",))


@pytest.mark.parametrize("lam,n", [((2, 1), 2), ((3, 1), 2), ((3, 2, 1), 3)])
class TestRoundTrips:
    def test_tableau_pattern_round_trip(self, lam, n):
        for st in enumerate_st(lam, n):
            assert gtp_to_st(st_to_gtp(st)) == st
        for g in enumerate_gtp(lam, n):
            assert st_to_gtp(gtp_to_st(g)) == g

    def test_tableau_matrix_round_trip(self, lam, n):
        for st in enumerate_st(lam, n):
            assert uasm_to_st(st_to_uasm(st)) == st
        for a in enumerate_uasm(lam, n):
            assert st_to_uasm(uasm_to_st(a)) == a

    def test_commuting_triangle(self, lam, n):
        for a in enumerate_uasm(lam, n):
            assert uasm_to_gtp(a) == st_to_gtp(uasm_to_st(a))


def test_compass_recoding_never_unmatched_on_valid_matrices():
    for lam, n in [((2, 1), 2), ((4, 2, 1), 3)]:
        for a in enumerate_uasm(lam, n):
            uasm_to_cpm(a)  # raises UnmatchedPatternError on any gap


def test_compass_recoding_guards_against_broken_alternation():
    # two +1 entries side by side cannot happen in a valid matrix; the zero
    # in between would see west and east neighbours with equal signs
    broken = UTurnASM(((1, 0, 1), (0, 0, 0)))
    with pytest.raises(UnmatchedPatternError, match="west breaks"):
        uasm_to_cpm(broken)
    # likewise two +1 entries stacked in a column, seen from north and south
    broken = UTurnASM(((1,), (0,), (1,), (0,)))
    with pytest.raises(UnmatchedPatternError, match="south breaks"):
        uasm_to_cpm(broken)


def test_matrix_to_tableau_refuses_a_non_uasm_with_a_typed_error():
    # both rows of level 1 turn in column 1, so diagonal 1 holds letters 1 and
    # 1' and the shape (1, 1) is not strict
    with pytest.raises(NotStrictError) as exc:
        uasm_to_st(UTurnASM(((1,), (1,))))
    assert str(exc.value) == "parts not strictly decreasing: (1, 1)"


def test_strip_start_identity_per_row():
    # #WE_i = #NS_i + chi(P_i) on every row of every desk-scale matrix
    for lam, n in [((2, 1), 2), ((3, 2), 2), ((3, 2, 1), 3)]:
        for a in enumerate_uasm(lam, n):
            c = uasm_to_cpm(a)
            for i, row in enumerate(c.entries, start=1):
                assert row.count("WE") == row.count("NS") + chi_turn(c, i)
            for k in range(1, n + 1):
                assert chi_turn(c, 2 * k - 1) + chi_turn(c, 2 * k) == 1


def test_diagonal_entries_sorted_by_alphabet():
    # the diagonals of a rebuilt tableau strictly increase downward
    for a in enumerate_uasm((3, 1), 2):
        st = uasm_to_st(a)
        cells = {(i, c): v for i, c, v in st.cells()}
        for (i, c), v in cells.items():
            below_right = cells.get((i + 1, c + 1))
            if below_right is not None:
                assert v < below_right
