import operator
import random
import sys
from math import isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import substitute
from symptok import algebra
from symptok.algebra import (
    MAX_EXPONENT,
    MERSENNE31,
    QVAR,
    TVAR,
    ExponentOverflowError,
    LaurentPoly,
    NonInvertiblePointError,
    ResidueMismatchError,
    Residues,
    Sample,
    UnassignedVariableError,
    _column,
    _slot,
    _unpack,
    is_prime,
    random_point,
    xvar,
    yvar,
)
from symptok.rings import PackedRing, RingMismatchError, _ring_bits

X1 = LaurentPoly.variable(xvar(1))
Y1 = LaurentPoly.variable(yvar(1))
Q = LaurentPoly.variable(QVAR)
ONE = LaurentPoly.const(1)


def mono(exps, coef=1):
    return LaurentPoly.monomial(exps, coef)


def sample(prime, count):
    """A sample of count points (none of them read) mod prime."""
    return Sample([{}] * count, prime)


class TestAdd:
    def test_cancellation(self):
        assert (X1 + (-X1)).is_zero()

    def test_mixed_inverses(self):
        got = (X1 + Y1) + (mono({xvar(1): -1}) + mono({yvar(1): -1}))
        want = X1 + Y1 + mono({xvar(1): -1}) + mono({yvar(1): -1})
        assert got == want
        assert got.num_terms() == 4

    def test_coefficient_merge(self):
        assert (ONE + Q) + Q == ONE + mono({QVAR: 1}, 2)


class TestMul:
    def test_staircase_factor_n1(self):
        # hand expansion: (x1+y1)(1 + 1/(x1 y1)) = x1 + y1 + 1/y1 + 1/x1
        got = (X1 + Y1) * (ONE + mono({xvar(1): -1, yvar(1): -1}))
        want = X1 + Y1 + mono({yvar(1): -1}) + mono({xvar(1): -1})
        assert got == want

    def test_multiplicative_identity(self):
        p = mono({xvar(1): 1}, 3) + mono({yvar(2): -2}, 5)
        assert p * ONE == p

    def test_q_factor_hand_expansion(self):
        # (x1 + q x1)(1 + x1^-2/q) = (1+q) x1 + (1 + 1/q) x1^-1
        lhs = (X1 + Q * X1) * (ONE + mono({QVAR: -1, xvar(1): -2}))
        want = (ONE + Q) * X1 + (ONE + mono({QVAR: -1})) * mono({xvar(1): -1})
        assert lhs == want


class TestEvalMod:
    def test_inverse_evaluation(self):
        p = X1 + mono({xvar(1): -1})
        assert p.eval_mod({xvar(1): 2}, 7) == 6  # 2 + 4

    def test_zero_polynomial(self):
        assert LaurentPoly.zero().eval_mod({xvar(1): 5}, 7) == 0

    def test_equivalence_at_50_points(self):
        p = (X1 + Y1) * (ONE + mono({xvar(1): -1, yvar(1): -1}))
        q = X1 + Y1 + mono({xvar(1): -1}) + mono({yvar(1): -1})
        rng = random.Random(7)
        for _ in range(50):
            pt = random_point([xvar(1), yvar(1)], rng, MERSENNE31)
            assert p.eval_mod(pt, MERSENNE31) == q.eval_mod(pt, MERSENNE31)

    def test_unassigned_variable(self):
        with pytest.raises(UnassignedVariableError):
            (X1 + Y1).eval_mod({xvar(1): 3}, 7)

    def test_non_invertible_point(self):
        p = mono({xvar(1): -1})
        with pytest.raises(NonInvertiblePointError):
            p.eval_mod({xvar(1): 7}, 7)

    def test_non_invertible_mod_a_composite(self):
        # 3 is nonzero but not invertible mod 9: the error names the variable
        # at a composite modulus as at a prime, and fails the whole column
        p = LaurentPoly.variable(xvar(1), -1)
        assert p.eval_mod({xvar(1): 2}, 9) == 5
        for point, modulus in (({xvar(1): 3}, 9), ({xvar(1): 14}, 7)):
            with pytest.raises(NonInvertiblePointError, match="^'?x1'?$"):
                p.eval_mod(point, modulus)
        with pytest.raises(NonInvertiblePointError, match="x1"):
            Sample([{xvar(1): 2}, {xvar(1): 6}, {xvar(1): 4}], 9).lift(p + X1)

    def test_random_points_at_seed_0(self):
        # the points of a modular report at n = 3: drawn in sorted variable
        # order, whatever order they are given in
        variables = [*map(xvar, (1, 2, 3)), *map(yvar, (1, 2, 3)), TVAR, QVAR]
        for modulus, want in (
                (MERSENNE31, [[1813382119, 827308000, 1627694679, 1911784258, 903170603,
                               86939547, 556019486, 2073320062],
                              [1097954098, 1043521779, 869589437, 1971893210, 1683194653,
                               1782095537, 651359109, 2078334660]]),
                (7, [[4, 4, 1, 3, 5, 4, 4, 3], [4, 3, 5, 2, 5, 2, 3, 2]])):
            rng = random.Random(0)
            points = [random_point(variables[::-1], rng, modulus) for _ in range(2)]
            assert [list(pt) for pt in points] == [variables] * 2
            assert [list(pt.values()) for pt in points] == want, modulus


class TestEqual:
    def test_order_independent(self):
        assert X1 + Y1 == Y1 + X1

    def test_zero_terms_not_stored(self):
        assert X1 == X1 + mono({yvar(1): 1}, 0)

    def test_inverse_differs(self):
        assert X1 != mono({xvar(1): -1})


def _random_poly(rng, max_terms=4):
    pool = [xvar(1), xvar(2), yvar(1), TVAR, QVAR]
    p = LaurentPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        exps = {v: rng.randint(-3, 3) for v in rng.sample(pool, rng.randint(0, 3))}
        p = p + mono(exps, rng.randint(-5, 5))
    return p


def test_ring_axioms_on_1000_random_triples():
    rng = random.Random(2024)
    for _ in range(1000):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_eval_mod_is_ring_homomorphism():
    rng = random.Random(5)
    variables = [xvar(1), xvar(2), yvar(1), TVAR, QVAR]
    for _ in range(200):
        a, b, c = (_random_poly(rng) for _ in range(3))
        pt = random_point(variables, rng, MERSENNE31)
        ev = lambda p: p.eval_mod(pt, MERSENNE31)
        assert ev(a * b + c) == (ev(a) * ev(b) + ev(c)) % MERSENNE31


@st.composite
def polys(draw):
    pool = [xvar(1), xvar(2), yvar(1), yvar(3), TVAR, QVAR]
    n_terms = draw(st.integers(0, 5))
    p = LaurentPoly.zero()
    for _ in range(n_terms):
        chosen = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
        exps = {v: draw(st.integers(-4, 4)) for v in chosen}
        p = p + mono(exps, draw(st.integers(-9, 9)))
    return p


def test_text_form_literals():
    # sorted by monomial: the constant, then x before y before t before q;
    # a negative coefficient after the first term reads as " - "
    assert LaurentPoly.zero().to_text() == "0"
    assert LaurentPoly.const(-3).to_text() == "-3"
    assert (LaurentPoly.const(-2) + X1).to_text() == "-2 + 1 * x1"
    assert (Q - X1).to_text() == "-1 * x1 + 1 * q"
    p = mono({xvar(2): 1, yvar(1): -2, TVAR: 1, QVAR: 4}, 3) + X1 - Q + ONE
    assert p.to_text() == "1 + 1 * x1 + 3 * x2 * y1^-2 * t * q^4 - 1 * q"
    assert mono({TVAR: -2, xvar(1): -1}, -7).to_text() == "-7 * x1^-1 * t^-2"


@given(polys(), polys())
@settings(max_examples=150)
def test_subtraction_inverts_addition(a, b):
    assert (a + b) - b == a


def test_power_matches_repeated_product():
    p = X1 + Q
    assert p ** 0 == ONE
    assert p ** 3 == p * p * p


def test_negative_power_raises():
    # square-and-multiply would never end on a negative exponent, and no
    # value type inverts silently
    ring = PackedRing([xvar(1)])
    seven = Sample([{xvar(1): 3}, {xvar(1): 5}], 7)
    for value in (mono({xvar(1): 2}), ring.lift(X1), seven.lift(X1),
                  seven.lift(LaurentPoly.zero())):
        with pytest.raises(ValueError, match="negative power -1"):
            value ** -1
    assert (seven.lift(X1) ** 0).values == [1, 1]


def _primes_by_trial_division(m):
    return m >= 2 and all(m % d for d in range(2, isqrt(m) + 1))


class TestIsPrime:
    #: psi_k, the least strong pseudoprime to the first k prime bases, at
    #: each k where it grows (OEIS A014233)
    PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 3825123056546413051, 318665857834031151167461)

    def test_agrees_with_trial_division_below_100000(self):
        assert [m for m in range(100000) if is_prime(m)] == [
            m for m in range(100000) if _primes_by_trial_division(m)]

    def test_strong_pseudoprimes_are_composite(self):
        assert not any(map(is_prime, self.PSI))

    def test_mersenne_primes(self):
        assert is_prime(2**31 - 1) and is_prime(2**61 - 1)
        assert not is_prime(2**29 - 1) and not is_prime(2**31 + 1)

    def test_shortest_base_prefix(self, monkeypatch):
        # one witness pow per base, 2^31 - 1 < psi_4 needing four
        calls = []
        monkeypatch.setattr(algebra, "pow",
                            lambda *args: calls.append(args) or pow(*args), raising=False)
        for m, bases in ((2**31 - 1, 4), (2039, 1), (2053, 2), (2**61 - 1, 9)):
            calls.clear()
            assert is_prime(m)
            assert [a for a, _, _ in calls] == list(algebra._MR_BASES[:bases]), m

    def test_past_the_bound(self):
        with pytest.raises(ValueError):
            is_prime(algebra.MILLER_RABIN_BOUND)


@pytest.mark.parametrize("modulus", (65537, MERSENNE31, 2**61 - 1))
def test_column_inverses_are_the_pointwise_inverses(monkeypatch, modulus):
    # batch inversion: one pow(., -1, p) a column, whatever its length
    rng = random.Random(modulus)
    inverses = []
    monkeypatch.setattr(algebra, "pow", lambda *args: inverses.append(args[1] == -1)
                        or pow(*args), raising=False)
    for length in (0, 1, 2, 20):
        points = [random_point([xvar(1)], rng, modulus) for _ in range(length)]
        inverses.clear()
        assert _column(points, _slot(xvar(1)), True, modulus) == [
            pow(pt[xvar(1)], -1, modulus) for pt in points]
        assert sum(inverses) == min(length, 1)
        assert _column(points, _slot(xvar(1)), False, modulus) == [
            pt[xvar(1)] for pt in points]


def test_substitute_unit_monomials():
    p = X1 + mono({yvar(1): -1})
    got = substitute(p, {yvar(1): Q * X1})
    assert got == X1 + mono({QVAR: -1, xvar(1): -1})
    with pytest.raises(ValueError):
        substitute(p, {yvar(1): X1 + Q})


class TestPackedMonomials:
    TOP = {xvar(1): MAX_EXPONENT}

    def test_exponent_range(self):
        assert MAX_EXPONENT == 2**15 - 1

    def test_largest_exponent_round_trips(self):
        top = mono(self.TOP)
        assert X1 ** MAX_EXPONENT == top
        assert mono({xvar(1): MAX_EXPONENT - 1}) * X1 == top
        bottom = mono({xvar(1): -MAX_EXPONENT})
        assert top * bottom == ONE
        assert top.to_text() == f"1 * x1^{MAX_EXPONENT}"
        assert bottom.to_text() == f"1 * x1^-{MAX_EXPONENT}"
        both_ends = top * mono({yvar(1): -MAX_EXPONENT, xvar(2): MAX_EXPONENT}) + Q
        assert both_ends.terms == {
            ((xvar(1), MAX_EXPONENT), (xvar(2), MAX_EXPONENT),
             (yvar(1), -MAX_EXPONENT)): 1,
            ((QVAR, 1),): 1,
        }

    def test_one_past_the_range_raises(self):
        past = MAX_EXPONENT + 1
        builders = [
            lambda: mono({xvar(1): past}),
            lambda: mono({yvar(1): -past}),
            lambda: LaurentPoly.variable(QVAR, past),
            lambda: LaurentPoly({((TVAR, -past),): 1}),
            lambda: (ONE + mono(self.TOP)) * (ONE + X1),
            lambda: mono({xvar(1): -MAX_EXPONENT}) * (X1 + mono({xvar(1): -1})),
            lambda: X1 ** past,
        ]
        for build in builders:
            with pytest.raises(ExponentOverflowError):
                build()

    def test_overflow_never_carries_into_a_neighbour(self):
        # x1^(2^15 - 1) * x1 would read as x1^-(2^15) * y1 (or x2) if the
        # digit carried
        with pytest.raises(ExponentOverflowError):
            mono(self.TOP) * X1
        with pytest.raises(ExponentOverflowError):
            mono({yvar(1): MAX_EXPONENT}) * Y1

    def test_product_within_the_range_is_kept(self):
        top = mono(self.TOP)
        assert top * mono({xvar(1): -1}) == mono({xvar(1): MAX_EXPONENT - 1})
        got = (top + X1) * (ONE + mono({xvar(1): -1}))
        assert got == top + mono({xvar(1): MAX_EXPONENT - 1}) + X1 + ONE
        assert (top * Y1).terms == {((xvar(1), MAX_EXPONENT), (yvar(1), 1)): 1}

    def test_a_high_slot_unpacks_past_its_zero_digits(self):
        # x50000 is slot 100,000, one digit above 1.6 million zero bits
        high = 1 << 16 * 100_000
        assert _unpack(high) == [(100_000, 1)]
        assert _unpack(1 - high) == [(0, 1), (100_000, -1)]
        assert mono({xvar(50_000): -2, TVAR: 1}).to_text() == "1 * x50000^-2 * t"

    def test_variables_need_a_positive_index(self):
        with pytest.raises(ValueError):
            LaurentPoly.variable(xvar(0))
        with pytest.raises(ValueError):
            mono({yvar(0): 1})

    def test_terms_keys_are_sorted_monomials(self):
        p = mono({xvar(2): 1, yvar(1): -2, TVAR: 1, QVAR: 4}, 3) + X1 - Q
        assert p.terms == {
            ((xvar(2), 1), (yvar(1), -2), (TVAR, 1), (QVAR, 4)): 3,
            ((xvar(1), 1),): 1,
            ((QVAR, 1),): -1,
        }
        for key in p.terms:
            assert list(key) == sorted(key)

    def test_equal_polynomials_hash_equal(self):
        inv_y2 = mono({yvar(2): -1})
        built = [
            mono({QVAR: 1, yvar(2): -1, xvar(1): 1}) + LaurentPoly.const(2),
            X1 * Q * inv_y2 + ONE + ONE,
            (X1 + mono({yvar(2): 1, QVAR: -1})) * (Q * inv_y2) + ONE - Q + Q,
            LaurentPoly({((xvar(1), 1), (yvar(2), -1), (QVAR, 1)): 1, (): 2}),
        ]
        for p in built:
            assert p == built[0] and hash(p) == hash(built[0])


class TestResiduesLift:
    P = (X1 ** 3 + mono({xvar(1): -2, yvar(1): 1}, 5) - Q) * mono({TVAR: -1})
    VARS = [xvar(1), yvar(1), TVAR, QVAR]

    def test_values_are_the_point_evaluations(self):
        rng = random.Random(11)
        points = [random_point(self.VARS, rng) for _ in range(6)]
        assert Sample(points, MERSENNE31).lift(self.P).values == [
            self.P.eval_mod(pt, MERSENNE31) for pt in points]

    def test_unassigned_variable(self):
        points = [dict.fromkeys(self.VARS, 3), dict.fromkeys(self.VARS[:3], 3)]
        with pytest.raises(UnassignedVariableError):
            Sample(points, 7).lift(self.P)

    def test_non_invertible_point(self):
        points = [dict.fromkeys(self.VARS, 3), {**dict.fromkeys(self.VARS, 3), TVAR: 14}]
        with pytest.raises(NonInvertiblePointError):
            Sample(points, 7).lift(self.P)

    def test_shared_columns_give_each_lift_its_own_values(self):
        # the lifts of one sample share its columns, read each variable's
        # values and inverses once, and give what a sample of their own gives
        rng = random.Random(13)
        points = [random_point(self.VARS, rng) for _ in range(5)]
        polys = [self.P, X1 + Y1, mono({xvar(1): -1, QVAR: 2}, 3), ONE,
                 LaurentPoly.zero(), (Q - X1) ** 2 * mono({yvar(1): -2})]
        shared = Sample(points, MERSENNE31)
        for p in polys:
            assert shared.lift(p) == Sample(points, MERSENNE31).lift(p), p
        # the values of x1, y1 and q, and the inverses of x1, y1 and t
        assert sorted(shared.columns) == [~3, ~2, ~0, 1, 2, 3]
        assert shared.columns[~2] == [pow(pt[xvar(1)], -1, MERSENNE31) for pt in points]

    def test_each_power_of_a_column_is_raised_once_per_sample(self, monkeypatch):
        # a variable at a power past +-1 is one point-wise pow list per
        # (sample, variable, exponent), kept in the sample however many
        # terms and lifts hold it, and the values stay the point evaluations
        rng = random.Random(16)
        points = [random_point(self.VARS, rng) for _ in range(5)]
        polys = [self.P, X1 ** 3 * Y1 + X1 ** 3 - mono({xvar(1): -2}, 4),
                 (Q - X1) ** 3 * mono({yvar(1): -2}), X1 ** 3, mono({QVAR: 2, TVAR: -1})]
        want = [[sum(c * prod(pow(pt[v], e, MERSENNE31) for v, e in m)
                     for m, c in p.terms.items()) % MERSENNE31 for pt in points]
                for p in polys]
        held = [(v, e) for p in polys for m in p.terms for v, e in m if e not in (1, -1)]
        assert len(held) > len(set(held)) > 4
        raised = []

        def counting(base, e, modulus):
            raised.append(e)
            return pow(base, e, modulus)
        monkeypatch.setattr(algebra, "pow", counting, raising=False)
        shared = Sample(points, MERSENNE31)
        assert [shared.lift(p).values for p in polys] == want
        assert sorted(shared.powers) == sorted((_slot(v), e) for v, e in set(held))
        assert sum(e not in (1, -1) for e in raised) == len(points) * len(set(held))
        # a second sample raises its own
        again = Sample(points, MERSENNE31)
        assert again.lift(polys[1]).values == want[1] and again.powers != shared.powers

    def test_residues_differ_under_another_prime(self):
        # == compares the prime and the values, of one sample or not
        seven = sample(7, 2)
        assert Residues([1, 2], seven) != Residues([1, 2], sample(11, 2))
        assert Residues([1, 2], seven) == Residues([1, 2], seven) == Residues([1, 2], sample(7, 2))
        assert Residues([1, 2], seven) != Residues([1, 3], seven)

    def test_a_lift_shares_no_list_with_its_columns(self):
        # a lone variable's term is its column itself; the lift's values are
        # still a list of their own, so writing to them leaves the column be
        rng = random.Random(14)
        points = [random_point(self.VARS, rng) for _ in range(3)]
        columns = (shared := Sample(points, MERSENNE31)).columns
        lifted = shared.lift(X1)
        assert lifted.values == columns[2] and lifted.values is not columns[2]
        lifted._iadd_product(lifted, lifted)
        assert columns[2] == [pt[xvar(1)] for pt in points]

    def test_values_are_reduced(self):
        rng = random.Random(15)
        points = [random_point(self.VARS, rng, 7) for _ in range(4)]
        for p in (self.P, -self.P, X1 + X1 + LaurentPoly.const(-3), LaurentPoly.const(-1)):
            values = Sample(points, 7).lift(p).values
            assert all(0 <= v < 7 for v in values), p
            assert values == [p.eval_mod(pt, 7) for pt in points]


class TestResiduesSample:
    """Residues of two samples never meet: an operation on operands of
    another sample raises ResidueMismatchError, whatever its prime and
    point count."""

    OPS = (operator.add, operator.mul, Residues._times,
           lambda u, v: u._iadd_product(u, v), lambda u, v: u._iadd_product(v, u))

    def refuse(self, a, b):
        for op in self.OPS:
            for u, v in ((a, b), (b, a)):
                with pytest.raises(ResidueMismatchError):
                    op(u, v)

    def test_another_prime(self):
        self.refuse(Residues([1, 2], sample(7, 2)), Residues([1, 2], sample(11, 2)))

    def test_another_point_count(self):
        self.refuse(Residues([3], sample(7, 1)), Residues([3, 4], sample(7, 2)))
        assert issubclass(ResidueMismatchError, ValueError)

    def test_another_sample_of_the_same_prime_and_points(self):
        rng = random.Random(16)
        points = [random_point([xvar(1), QVAR], rng) for _ in range(3)]
        one, other = Sample(points, MERSENNE31), Sample(points, MERSENNE31)
        a, b = one.lift(X1 + Q), other.lift(X1 + Q)
        assert a == b  # the same values, which still do not mix
        self.refuse(a, b)
        with pytest.raises(ResidueMismatchError, match="two samples"):
            one.lift(ONE)._iadd_product(a, b)

    def test_one_sample_still_computes(self):
        seven = sample(7, 2)
        a, b = Residues([3, 5], seven), Residues([4, 6], seven)
        assert (a + b).values == [0, 4] and (a * b).values == [5, 2]
        assert a._times(b).values == [12, 30]
        assert Residues([1, 1], seven)._iadd_product(a, b, -1)._reduce().values == [3, 6]


class TestPackedRing:
    """A PackedRing packs monomials in exactly its variables, each slot as
    wide as _ring_bits gives, and its values act as the polynomials do."""

    VARS = [xvar(1), xvar(2), yvar(1), TVAR, QVAR]

    def test_lift_and_back_round_trips(self):
        rng = random.Random(31)
        rings = [PackedRing(self.VARS), PackedRing(self.VARS, 16), PackedRing(self.VARS, 4)]
        assert [ring.bits for ring in rings] == [_ring_bits(5), 16, 4]
        for _ in range(300):
            p = _random_poly(rng, max_terms=6)  # exponents in -3..3
            for ring in rings:
                got = ring.poly(ring.lift(p))
                assert got == p and got.to_text() == p.to_text(), (ring, p)

    def test_operations_match_the_polynomials(self):
        rng = random.Random(32)
        ring = PackedRing(self.VARS)
        for _ in range(300):
            a, b, c = (_random_poly(rng) for _ in range(3))
            la, lb, lc = map(ring.lift, (a, b, c))
            assert ring.poly(la * lb) == a * b and ring.poly(la + lb) == a + b
            assert ring.poly(la._times(lb)) == a * b and ring.poly(lb ** 2) == b ** 2
            assert ring.poly(lc._iadd_product(la, lb, -1)) == c - a * b

    def test_reducing_gives_what_the_operators_give(self):
        # _times and _iadd_product keep cancelled terms at 0; poly reads such
        # a value right, and once reduced it is what *, + and the
        # polynomials' operations give, with no zero coefficient
        ring = PackedRing(self.VARS)
        lift, poly = ring.lift, ring.poly
        rng = random.Random(33)
        cancelling = [(X1 + Q, X1 - Q, ONE), (X1 + Q, Q - X1, (X1 + Q) * (X1 - Q)),
                      (ONE - X1 * Y1, ONE + X1 * Y1, X1 * X1 * Y1 * Y1)]
        for a, b, c in cancelling:
            assert 0 in lift(c)._iadd_product(lift(a), lift(b))._terms.values()
        assert 0 in lift(X1 + Q)._times(lift(X1 - Q))._terms.values()
        for a, b, c in cancelling + [tuple(_random_poly(rng) for _ in range(3))
                                     for _ in range(300)]:
            la, lb, lc = map(lift, (a, b, c))
            for got, want, by_operators in (
                    (la._times(lb), a * b, la * lb),
                    (lift(c)._iadd_product(la, lb), c + a * b, lc + la * lb),
                    (lift(c)._iadd_product(la, lb, -1), c - a * b, lc + la * lift(-b))):
                assert poly(got) == want, (a, b, c)
                assert got._reduce() == by_operators == lift(want), (a, b, c)
                assert 0 not in got._terms.values() and 0 not in want._terms.values()
            assert not (la + lift(-a))._terms and not (a * b - b * a)._terms

    def test_one_digit_keys_at_the_grid_ranks(self):
        # n <= 3 with the xy variables and t: only PROP_T at n = 3 (seven
        # variables) is past one machine digit and runs at 16 bits
        digit = sys.int_info.bits_per_digit
        for count in range(1, digit // 5 + 1):
            bits = _ring_bits(count)
            assert 5 <= bits <= 16 and bits * count <= digit, count
        assert _ring_bits(digit // 5 + 1) == 16
        ring = PackedRing([xvar(1), xvar(2), xvar(3), yvar(1), yvar(2), yvar(3)])
        for e in (ring.max_exponent, -ring.max_exponent):
            [key] = ring.lift(mono(dict.fromkeys(ring.variables, e)))._terms
            assert abs(key) < 1 << digit

    def test_two_rings_never_meet(self):
        one, other = PackedRing([xvar(1), QVAR]), PackedRing([xvar(1), QVAR])
        a, b = one.lift(X1 + Q), other.lift(X1 + Q)
        for op in (operator.add, operator.mul, lambda u, v: u._times(v),
                   lambda u, v: u._iadd_product(v, v), lambda u, v: one.lift(ONE)._iadd_product(u, v)):
            with pytest.raises(RingMismatchError):
                op(a, b)
        with pytest.raises(RingMismatchError):
            one.poly(b)
        with pytest.raises(RingMismatchError, match="y1"):
            one.lift(X1 + Y1)
        assert a != b and issubclass(RingMismatchError, ValueError)

    def test_a_product_past_a_narrow_slot_raises_instead_of_aliasing(self):
        ring = PackedRing([xvar(1), yvar(1)], 5)
        assert ring.max_exponent == 15
        top = ring.lift(mono({xvar(1): 15}))
        with pytest.raises(ExponentOverflowError):
            ring.lift(mono({xvar(1): 16}))
        # x1^15 * x1 would read as x1^-16 * y1 if the slot carried
        for other in (X1, X1 * Y1, X1 + mono({xvar(1): -1})):
            with pytest.raises(ExponentOverflowError):
                top * ring.lift(other)
            with pytest.raises(ExponentOverflowError):
                ring.lift(ONE)._iadd_product(top, ring.lift(other), -1)
        assert ring.poly(top * ring.lift(Y1 ** 15)) == mono({xvar(1): 15, yvar(1): 15})
        # the summed bounds 9 + 7 are past 15, but no product is: it is kept
        a, b = mono({xvar(1): 9}) + mono({xvar(1): -2}), mono({xvar(1): -7})
        assert ring.poly(ring.lift(a) * ring.lift(b)) == a * b

    def test_a_sum_bounds_every_term_it_took_in(self):
        # in place or not, so a product of the sum is checked as its terms' are
        ring = PackedRing([xvar(1), yvar(1)], 5)
        top, x1, one = map(ring.lift, (mono({xvar(1): 15}), X1, ONE))
        for total in (one + top, top + one, ring.lift(ONE)._iadd_product(top, one)):
            with pytest.raises(ExponentOverflowError):
                total * x1


class TestValueSpaces:
    """What the engine reads off a value space: a value's term count, and
    where two unequal values first differ."""

    def test_a_sample_reads_the_first_differing_trial(self):
        # the point's variables come in sorted variable order (x before q),
        # whatever order the point was built in
        points = [{QVAR: 5, xvar(2): 7, xvar(1): 3}, {QVAR: 6, xvar(2): 8, xvar(1): 4},
                  {QVAR: 1, xvar(2): 2, xvar(1): 9}]
        space = Sample(points, 11)
        lhs, rhs = Residues([1, 2, 3], space), Residues([1, 5, 4], space)
        got = space.first_difference(lhs, rhs)
        assert got == {"trial": 1, "point": {"x1": 4, "x2": 8, "q": 6},
                       "lhsValue": 2, "rhsValue": 5}
        assert list(got["point"]) == ["x1", "x2", "q"]
        assert list(got) == ["trial", "point", "lhsValue", "rhsValue"]

    def test_a_ring_reads_the_least_differing_monomial(self):
        # at the ring's own width and at 16 bits, reduced or not
        three = LaurentPoly.const(3)
        cases = [
            (three + mono({xvar(1): 1}, 2) + Q, three + mono({xvar(1): 1}, 5) + Q * Q,
             ("x1", 2, 5)),
            (three + Q, three + Q + mono({xvar(1): -1}), ("x1^-1", 0, 1)),
            (ONE + Q ** 2, Q ** 2, ("1", 1, 0)),
        ]
        variables = [xvar(1), QVAR]
        for ring in (PackedRing(variables), PackedRing(variables, 16)):
            for lhs, rhs, (monomial, a, b) in cases:
                want = {"monomial": monomial, "lhsCoefficient": a, "rhsCoefficient": b}
                assert ring.first_difference(ring.lift(lhs), ring.lift(rhs)) == want
                x1 = ring.lift(X1)  # x1^2 is in no lhs: added and taken away, it stays at 0
                unreduced = ring.lift(lhs)._iadd_product(x1, x1)._iadd_product(x1, x1, -1)
                assert 0 in unreduced._terms.values()
                assert ring.first_difference(unreduced, ring.lift(rhs)) == want

    def test_a_ring_counts_terms_and_a_sample_does_not(self):
        ring = PackedRing([xvar(1), QVAR])
        for p in (LaurentPoly.zero(), ONE, X1 + Q, (X1 + Q + ONE) ** 3):
            assert ring.terms(ring.lift(p)) == p.num_terms()
        space = sample(7, 2)
        assert space.terms(Residues([3, 5], space)) is None
        assert space.terms(Residues([0, 0], space)) is None


class TestInPlace:
    """The private multiply-accumulate _iadd_product writes self + sign*a*b
    into the value it is called on and agrees with +, - and *."""

    A = (X1 + Q) ** 3 - mono({xvar(1): -1, yvar(1): 2}, 4)
    B = X1 * Y1 - Q ** 2 + ONE
    RING = PackedRing([xvar(1), yvar(1), QVAR])

    def copy(self, p):
        return self.RING.lift(p)

    def test_adding_a_product_matches_add_and_writes_into_self(self):
        lift, poly = self.RING.lift, self.RING.poly
        acc, a, b = self.copy(self.A), lift(self.A), lift(self.B)
        assert acc._iadd_product(b, a) is acc
        assert poly(acc) == self.A + self.B * self.A and acc == a + b * a
        assert poly(acc._iadd_product(lift(self.A + self.B * self.A), lift(ONE), -1)) == \
            LaurentPoly.zero()
        assert not acc._reduce()._terms  # reduced, cancelled terms are gone

    def test_subtracting_a_product_matches_the_operators(self):
        lift, poly = self.RING.lift, self.RING.poly
        acc, a, b = self.copy(self.A), lift(self.A), lift(self.B)
        assert acc._iadd_product(b, a, -1) is acc
        assert poly(acc) == self.A - self.B * self.A
        acc = self.copy(self.A * self.B)
        assert poly(acc._iadd_product(a, b, -1)).is_zero()
        assert not acc._reduce()._terms

    def test_the_product_checks_the_exponent_bound(self):
        ring = PackedRing([xvar(1), yvar(1)], 16)
        big, x1, x1_inverse = map(ring.lift, (mono({xvar(1): MAX_EXPONENT}), X1,
                                              mono({xvar(1): -1})))
        for sign in (1, -1):
            with pytest.raises(ExponentOverflowError):
                ring.lift(ONE)._iadd_product(big, x1, sign)
            acc = ring.lift(ONE)
            acc._iadd_product(big, x1_inverse, sign)  # fits: x1^(MAX - 1)
            assert ring.poly(acc) == ONE + mono({xvar(1): MAX_EXPONENT - 1}, sign)

    def test_residues_in_place_match_the_operators(self):
        rng = random.Random(12)
        points = [random_point([xvar(1), yvar(1), QVAR], rng) for _ in range(4)]
        a, b = map((shared := Sample(points, MERSENNE31)).lift, (self.A, self.B))
        acc = Residues(list(a.values), shared)
        # _iadd_product leaves its sum unreduced, so each comparison reduces
        assert acc._iadd_product(b, a) is acc and acc._reduce() == a + b * a
        acc._iadd_product(a, b, -1)
        assert acc._reduce() == shared.lift(self.A + self.B * self.A - self.A * self.B)

    def test_first_power_is_the_value_itself(self):
        # the transfer raises most factors to the power 1; that copies nothing
        assert self.A ** 1 is self.A
        a = self.RING.lift(self.A)
        assert a ** 1 is a and self.RING.poly(a ** 2) == self.A ** 2
        r = Residues([3, 5], sample(7, 2))
        assert r ** 1 is r and (r ** 2).values == [2, 4]
