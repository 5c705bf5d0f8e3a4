import pytest
from hypothesis import given
from hypothesis import strategies as st

from symptok.shapes import (
    BadLengthError,
    RankTooSmallError,
    add_staircase,
    as_partition,
    as_strict_partition,
    conjugate,
    letter,
    letter_barred,
    letter_level,
    letter_str,
    partitions_up_to,
)


# Diagram helpers that only these tests use.


def remove_staircase(lam, n):
    """Inverse of add_staircase for strict lambda of length n."""
    lam = as_strict_partition(lam)
    if len(lam) != n:
        raise BadLengthError(f"{lam} does not have length n={n}")
    return as_partition(tuple(lam[i] - (n - i) for i in range(n)))


def shifted_cells(lam):
    """Cells (row, col) of the shifted diagram; row i starts at column i."""
    lam = as_strict_partition(lam)
    return {(i, c) for i in range(1, len(lam) + 1)
            for c in range(i, i + lam[i - 1])}


def ordinary_cells(mu):
    """Cells (row, col) of the ordinary diagram; row i covers columns 1..mu_i."""
    mu = as_partition(mu)
    return {(i, c) for i in range(1, len(mu) + 1)
            for c in range(1, mu[i - 1] + 1)}


class TestAddStaircase:
    def test_empty_rank_one(self):
        assert add_staircase((), 1) == (1,)

    def test_componentwise(self):
        assert add_staircase((4, 3, 3, 0), 4) == (8, 6, 5, 1)

    def test_running_example_shape(self):
        assert add_staircase((4, 3, 3, 0, 0), 5) == (9, 7, 6, 2, 1)

    def test_rank_too_small(self):
        with pytest.raises(RankTooSmallError):
            add_staircase((1, 1), 1)


class TestCells:
    def test_single_cell(self):
        assert shifted_cells((1,)) == {(1, 1)}

    def test_small_staircase(self):
        assert shifted_cells((2, 1)) == {(1, 1), (1, 2), (2, 2)}

    def test_running_example_cells(self):
        cells = shifted_cells((9, 7, 6, 2, 1))
        assert len(cells) == 25
        assert {c for c in cells if c[0] == 4} == {(4, 4), (4, 5)}

    def test_ordinary_empty(self):
        assert ordinary_cells(()) == set()

    def test_ordinary_ten_boxes(self):
        assert len(ordinary_cells((4, 3, 3))) == 10

    def test_ordinary_single(self):
        assert ordinary_cells((1,)) == {(1, 1)}


def _accumulate_strict(gaps):
    parts, total = [], 0
    for g in gaps:
        total += 1 + g
        parts.append(total)
    return tuple(reversed(parts))


strict_partitions = st.lists(st.integers(0, 3), min_size=1, max_size=5).map(
    _accumulate_strict)


@given(strict_partitions)
def test_staircase_round_trip(lam):
    n = len(lam)
    # any strict partition of length n decomposes as mu + staircase
    mu = remove_staircase(lam, n)
    assert add_staircase(mu, n) == lam


@given(strict_partitions)
def test_shifted_cell_count_is_weight(lam):
    assert len(shifted_cells(lam)) == sum(lam)


@given(st.lists(st.integers(0, 6), max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))))
def test_ordinary_cell_count_is_weight(mu):
    assert len(ordinary_cells(mu)) == sum(mu)


def test_conjugate():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


def test_partition_validation_trims_zeros():
    assert as_partition((3, 2, 0, 0)) == (3, 2)
    with pytest.raises(ValueError):
        as_partition((1, 2))


def test_partitions_up_to():
    got = list(partitions_up_to(3, 2))
    assert got == [(), (1,), (1, 1), (2,), (2, 1), (3,)]
    # sweeps report in this order without sorting it again
    for n in range(1, 6):
        for w in range(9):
            got = list(partitions_up_to(w, n))
            assert got == sorted(set(got), key=lambda mu: (sum(mu), mu))


def test_alphabet_order_and_marks():
    codes = [letter(1, False), letter(1, True), letter(2, False), letter(2, True)]
    assert codes == sorted(codes) == [1, 2, 3, 4]
    assert letter_level(4) == 2 and letter_barred(4)
    assert letter_str(4) == "2-"
    assert letter_str(3, True) == "2'"
    assert letter(2, True) == 4
