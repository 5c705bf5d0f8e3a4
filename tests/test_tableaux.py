import itertools

import pytest

import golden as G
from symptok.matrices import count_gtp
from symptok.shapes import InvalidRankError, letter, letter_level
from symptok.tableaux import (
    PrimedShiftedTableau,
    ShapeMismatchError,
    ShiftedTableau,
    SymplecticTableau,
    cell_cases,
    enumerate_st,
    enumerate_t,
    prime_freedom,
    primings,
    validate_qt,
    validate_st,
    validate_t,
)


def codes(*entries):
    return tuple(letter(int(e.rstrip("-")), e.endswith("-")) for e in entries)


DISPLAYED_T = SymplecticTableau(
    (4, 3, 3),
    (codes("1", "1-", "2", "4-"), codes("3-", "4", "4"), codes("4", "4-", "4-")),
)


class TestValidateT:
    def test_displayed_tableau(self):
        assert validate_t(DISPLAYED_T, 4) == (True, [])

    def test_single_cell(self):
        assert validate_t(SymplecticTableau((1,), ((1,),)), 1)[0]

    def test_column_and_row_bound_violations(self):
        t = SymplecticTableau((1, 1), (codes("2-"), codes("1")))
        ok, bad = validate_t(t, 2)
        assert not ok
        assert any(v.startswith("T2") for v in bad)
        assert any(v.startswith("T3") for v in bad)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            validate_t(SymplecticTableau((2,), ((1,),)), 1)


class TestEnumerateT:
    def test_empty_shape(self):
        assert list(enumerate_t((), 3)) == [SymplecticTableau((), ())]

    def test_single_cell_rank_one(self):
        got = [t.rows for t in enumerate_t((1,), 1)]
        assert got == [((1,),), ((2,),)]

    def test_single_cell_rank_two(self):
        assert sum(1 for _ in enumerate_t((1,), 2)) == 4

    def test_matches_brute_force(self):
        for mu, n in [((1,), 2), ((2,), 2), ((1, 1), 2)]:
            got = {t.rows for t in enumerate_t(mu, n)}
            want = set()
            cells = [(i, j) for i in range(len(mu)) for j in range(mu[i])]
            for fill in itertools.product(range(1, 2 * n + 1), repeat=len(cells)):
                rows = [[0] * p for p in mu]
                for (i, j), v in zip(cells, fill):
                    rows[i][j] = v
                t = SymplecticTableau(mu, tuple(tuple(r) for r in rows))
                if validate_t(t, n)[0]:
                    want.add(t.rows)
            assert got == want


class TestValidateST:
    def test_golden_tableau(self):
        assert validate_st(G.ST) == (True, [])

    def test_single_barred_cell(self):
        assert validate_st(ShiftedTableau((1,), (codes("1-"),)))[0]

    def test_diagonal_must_be_strict(self):
        stab = ShiftedTableau((2, 1), (codes("1", "1"), codes("1")))
        ok, bad = validate_st(stab)
        assert not ok
        assert any(v.startswith("ST3") for v in bad)

    def test_row_start_level(self):
        stab = ShiftedTableau((2, 1), (codes("1", "1"), codes("1-")))
        ok, bad = validate_st(stab)
        assert not ok
        assert any(v.startswith("ST4") for v in bad)

    def test_empty_shape_is_rank_zero(self):
        empty = ShiftedTableau((), ())
        with pytest.raises(InvalidRankError, match="rank 0"):
            validate_st(empty)
        with pytest.raises(InvalidRankError, match="rank 0"):
            validate_qt(PrimedShiftedTableau(empty, ()))


def test_cell_cases_under_each_neighbour():
    # rows (1, 2) and (2): the two 2s form a vertical pair, and the
    # neighbour decides which of them takes its case
    pair = ShiftedTableau((2, 1), ((1, 3), (3,)))
    assert cell_cases(pair) == [(1, "free"), (3, "below"), (3, "free")]
    assert cell_cases(pair, "above") == [(1, "free"), (3, "free"), (3, "above")]
    # an equal left neighbour comes first under either
    row = ShiftedTableau((2,), ((1, 1),))
    for neighbour in ("below", "above"):
        assert cell_cases(row, neighbour) == [(1, "free"), (1, "left")]


class TestEnumerateST:
    def test_single_cell(self):
        assert [s.rows for s in enumerate_st((1,), 1)] == [((1,),), ((2,),)]

    def test_single_row_of_two(self):
        got = [s.rows for s in enumerate_st((2,), 1)]
        assert got == [((1, 1),), ((1, 2),), ((2, 2),)]

    def test_count_matches_pattern_count(self):
        for lam, n in [((2, 1), 2), ((3, 1), 2), ((3, 2, 1), 3)]:
            assert sum(1 for _ in enumerate_st(lam, n)) == count_gtp(lam, n)

    def test_matches_brute_force(self):
        for lam, n in [((1,), 1), ((2,), 1), ((2, 1), 2)]:
            got = {s.rows for s in enumerate_st(lam, n)}
            cells = [(i, c) for i in range(1, len(lam) + 1)
                     for c in range(i, i + lam[i - 1])]
            want = set()
            for fill in itertools.product(range(1, 2 * n + 1), repeat=len(cells)):
                rows = [[0] * lam[i] for i in range(len(lam))]
                for (i, c), v in zip(cells, fill):
                    rows[i - 1][c - i] = v
                s = ShiftedTableau(lam, tuple(tuple(r) for r in rows))
                if validate_st(s)[0]:
                    want.add(s.rows)
            assert got == want

    def test_every_output_is_valid_and_starts_rows_at_level(self):
        for lam, n in [((2, 1), 2), ((4, 2, 1), 3)]:
            for s in enumerate_st(lam, n):
                assert validate_st(s)[0]
                for k, row in enumerate(s.rows, start=1):
                    assert letter_level(row[0]) == k

    def test_deterministic_order(self):
        first = [s.rows for s in enumerate_st((3, 1), 2)]
        second = [s.rows for s in enumerate_st((3, 1), 2)]
        assert first == second
        assert len(set(first)) == len(first)


class TestPrimings:
    def test_free_single_cell(self):
        st1 = ShiftedTableau((1,), ((1,),))
        got = [qt.primed for qt in primings(st1)]
        assert got == [((False,),), ((True,),)]

    def test_left_equal_forces_unprimed(self):
        st2 = ShiftedTableau((2,), ((1, 1),))
        got = [qt.primed for qt in primings(st2)]
        assert got == [((False, False),), ((True, False),)]

    def test_golden_priming_is_reachable(self):
        assert any(qt == G.QT for qt in primings(G.ST))
        assert validate_qt(G.QT)[0]

    def test_priming_count_is_power_of_two(self):
        for stab in enumerate_st((3, 1), 2):
            _, free = prime_freedom(stab)
            assert sum(1 for _ in primings(stab)) == 2 ** len(free)

    def test_all_primings_satisfy_rules(self):
        for stab in enumerate_st((2, 1), 2):
            for qt in primings(stab):
                assert validate_qt(qt)[0]

    def test_forced_flags_never_clash(self):
        # an equal left neighbour and an equal cell below would need the
        # same cell unprimed and primed at once; diagonals forbid it
        for stab in enumerate_st((3, 2), 2):
            forced, _ = prime_freedom(stab)
            assert len(forced) == sum(stab.shape)
