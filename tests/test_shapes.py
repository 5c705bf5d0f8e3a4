import pytest
from hypothesis import given
from hypothesis import strategies as st

from symptok.identities import (
    ambiguity_report,
    count_gtp,
    rhs_factors,
    rhs_product,
    sp_mu,
    verify,
    verify_big_modular,
    verify_sweep,
)
from symptok.matrices import enumerate_gtp, enumerate_uasm
from symptok.shapes import (
    BadLengthError,
    InvalidRankError,
    NotAPartitionError,
    RankTooSmallError,
    add_staircase,
    as_partition,
    as_rank,
    as_strict_partition,
    conjugate,
    letter,
    letter_barred,
    letter_level,
    letter_str,
    partitions_up_to,
)
from symptok.tableaux import SymplecticTableau, enumerate_st, enumerate_t, validate_t
from symptok.weights import cpm_q_norm_prefactor, factor_table


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


@pytest.mark.parametrize("parse", [as_partition, as_strict_partition])
@pytest.mark.parametrize("shape", [5, None])
def test_shape_that_is_not_a_sequence_is_rejected(parse, shape):
    # tuple(shape) raised a TypeError, which the CLI does not map to exit 2
    with pytest.raises(ValueError, match="not a sequence"):
        parse(shape)


@pytest.mark.parametrize("shape,message", [
    (5, "shape 5 is not a sequence of parts"),
    ((2, 1.0), "part 1.0 of (2, 1.0) is not an integer"),
    ((2, -1), "negative part in (2, -1)"),
    ((1, 2), "parts not weakly decreasing: (1, 2)"),
])
def test_a_shape_that_is_no_partition_has_its_own_error(shape, message):
    # a typed error, as a strict partition's NotStrictError, and still a
    # ValueError, which the CLI maps to exit 2; the entry points that take
    # a shape pass it on
    calls = [lambda: as_partition(shape), lambda: add_staircase(shape, 2),
             lambda: verify_big_modular(shape, 2, trials=2),
             lambda: verify("THM_ST", shape, 2), lambda: sp_mu(shape, 2)]
    for call in calls:
        with pytest.raises(NotAPartitionError) as exc:
            call()
        assert str(exc.value) == message and isinstance(exc.value, ValueError)


#: One call per public function of the package that takes a rank n, every
#: other argument valid at rank 1.  test_layout checks that it names them all.
RANK_TAKERS = {
    "shapes.as_rank": as_rank,
    "shapes.add_staircase": lambda n: add_staircase((), n),
    "tableaux.enumerate_t": lambda n: list(enumerate_t((1,), n)),
    "tableaux.enumerate_st": lambda n: list(enumerate_st((1,), n)),
    "tableaux.validate_t": lambda n: validate_t(SymplecticTableau((1,), ((1,),)), n),
    "matrices.enumerate_gtp": lambda n: list(enumerate_gtp((1,), n)),
    "matrices.enumerate_uasm": lambda n: list(enumerate_uasm((1,), n)),
    "weights.factor_table": lambda n: factor_table("ST_XY", n),
    "weights.cpm_q_norm_prefactor": lambda n: cpm_q_norm_prefactor(n),
    "identities.count_gtp": lambda n: count_gtp((1,), n),
    "identities.sp_mu": lambda n: sp_mu((1,), n),
    "identities.rhs_factors": lambda n: rhs_factors("THM_ST", n),
    "identities.rhs_product": lambda n: rhs_product("THM_ST", (1,), n),
    "identities.verify": lambda n: verify("THM_ST", (1,), n),
    "identities.verify_sweep": lambda n: verify_sweep("THM_ST", n, 1),
    "identities.verify_big_modular": lambda n: verify_big_modular((1,), n, trials=2),
    "identities.ambiguity_report": lambda n: ambiguity_report(n, 1),
}


@pytest.mark.parametrize("n", [2.0, True, 0], ids=["float", "bool", "zero"])
@pytest.mark.parametrize("name", sorted(RANK_TAKERS))
def test_every_rank_taker_refuses_a_bad_rank(name, n):
    # a float ended in a raw TypeError or BadLengthError, and True ran as
    # rank 1; a cached rank-2 table answered factor_table("ST_XY", 2.0)
    factor_table("ST_XY", 2)
    with pytest.raises(InvalidRankError):
        RANK_TAKERS[name](n)


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
