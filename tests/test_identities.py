import gc
import importlib.util
import json
import operator
import os
import random
import re
import subprocess
import sys
from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations, product
from pathlib import Path

import pytest

import golden as G
from oracles import (
    cpm_factor_ids,
    gt_factor_ids,
    gt_left_side,
    gt_statistics,
    le_statistic_setbuilder,
    primed_weight_sum,
    qx_weight,
    reaches,
    substitute,
    weyl_sp_mu,
    wgt_cpm,
    wgt_gtp,
    wgt_st,
    wgt_st_q,
    wgt_t,
)
from symptok import algebra, identities, rings, shapes, weights
from symptok.algebra import (
    MERSENNE31,
    QVAR,
    TVAR,
    LaurentPoly,
    Residues,
    Sample,
    random_point,
    xvar,
    yvar,
)
from symptok.identities import (
    GRID_RANKS,
    GRID_VARIANTS,
    IDENTITIES,
    REJECTED_VARIANTS,
    InvalidRankError,
    InvalidWeightError,
    ModularParameterError,
    ScaleExceededError,
    UnknownConventionError,
    UnknownIdentityError,
    UnusedConventionError,
    VerificationReport,
    _factor_scheme,
    _identity_variables,
    _le_setbuilder_sweep,
    _left_side,
    _reaches,
    _transfer,
    ambiguity_report,
    largest_feasible_subshape,
    rhs_factors,
    rhs_product,
    sp_mu,
    verify,
    verify_big_modular,
    verify_sweep,
)
from symptok.bijections import uasm_to_cpm
from symptok.matrices import count_gtp, enumerate_gtp, enumerate_uasm
from symptok.rings import Packed, PackedRing
from symptok.shapes import RankTooSmallError, add_staircase, letter_level, partitions_up_to
from symptok.tableaux import (
    ShiftedTableau,
    cell_cases,
    enumerate_st,
    enumerate_t,
    prime_freedom,
    primings,
)
from symptok.weights import (
    CPM_SCHEMES,
    _compass_cells,
    _letter_cells,
    _pattern_cells,
    _shifted_cells,
    cpm_q_norm_prefactor,
    factor_table,
    path_weight,
    wgt_qt,
)


def V(v, e=1):
    return LaurentPoly.variable(v, e)


def mono(exps, c=1):
    return LaurentPoly.monomial(exps, c)


ONE = LaurentPoly.const(1)
X1, Y1, Q, T2 = V(xvar(1)), V(yvar(1)), V(QVAR), V(TVAR, 2)
XY_N1 = X1 + Y1 + V(xvar(1), -1) + V(yvar(1), -1)


def q_lambda(lam, n, deformed=False):
    """Sum of primed_weight_sum, one shifted tableau at a time: the
    per-object form of the walker's PROP_T (deformed) and COR_Q sums."""
    total = LaurentPoly.zero()
    for st in enumerate_st(lam, n):
        total = total + primed_weight_sum(st, deformed)
    return total


def q_delta_product(n, deformed=False):
    """The staircase product over pairs i <= j."""
    out = ONE
    for f in rhs_factors("PROP_T" if deformed else "COR_Q", n):
        out = out * f
    return out


#: The symbolic lift of the tests' own walks: a packed ring of every
#: variable up to rank 5, 16 bits a slot.
EXACT = PackedRing([*map(xvar, range(1, 6)), *map(yvar, range(1, 6)), QVAR, TVAR])
exact = EXACT.lift


def modular_lift(points):
    return Sample(points, MERSENNE31).lift


class TestCharacterSums:
    def test_empty_shape(self):
        assert sp_mu((), 3) == ONE

    def test_rank_two_single_box(self):
        want = X1 + V(xvar(1), -1) + V(xvar(2)) + V(xvar(2), -1)
        assert sp_mu((1,), 2) == want

    def test_single_box_deformed(self):
        assert sp_mu((1,), 1, deformed=True) == X1 + T2 * V(xvar(1), -1)

    def test_shape_longer_than_rank_is_rejected(self):
        # no rank-2 tableau has three rows, but a sum over none would be 0
        with pytest.raises(RankTooSmallError):
            sp_mu((1, 1, 1), 2)
        with pytest.raises(RankTooSmallError):
            rhs_product("THM_ST", (1, 1, 1), 2)


class TestPrimedSums:
    def test_rank_one(self):
        assert q_lambda((1,), 1) == XY_N1

    def test_rank_one_deformed(self):
        want = X1 + Y1 + T2 * V(xvar(1), -1) + T2 * V(yvar(1), -1)
        assert q_lambda((1,), 1, deformed=True) == want

    def test_row_of_two(self):
        xb, yb = V(xvar(1), -1), V(yvar(1), -1)
        want = (X1 + Y1) * X1 + (X1 + Y1) * (xb + yb) + (xb + yb) * xb
        assert q_lambda((2,), 1) == want

    def test_matches_explicit_priming_enumeration(self):
        for deformed in (False, True):
            total = LaurentPoly.zero()
            for st in enumerate_st((2, 1), 2):
                for qt in primings(st):
                    total = total + wgt_qt(qt, deformed)
            assert total == q_lambda((2, 1), 2, deformed)


class TestStaircaseProduct:
    def test_rank_one(self):
        assert q_delta_product(1) == XY_N1

    def test_rank_one_deformed(self):
        want = (X1 + Y1) * (ONE + T2 * mono({xvar(1): -1, yvar(1): -1}))
        assert q_delta_product(1, deformed=True) == want

    def test_rank_two_equals_staircase_sum(self):
        # the mu = () instance of the deformed identity
        assert q_delta_product(2, True) == q_lambda((2, 1), 2, True)


class TestRhsProduct:
    def test_main_identity_rank_one(self):
        assert rhs_product("THM_ST", (), 1) == XY_N1

    def test_q_identity_rank_one(self):
        want = (ONE + Q) * X1 + (ONE + V(QVAR, -1)) * V(xvar(1), -1)
        assert rhs_product("COR_ST_Q", (), 1) == want

    def test_statistics_identity_rank_one(self):
        assert rhs_product("COR_GT_QX", (), 1) == Q * X1 + V(xvar(1), -1)

    def test_unknown_identity(self):
        with pytest.raises(UnknownIdentityError):
            rhs_product("NOPE", (), 1)


class TestVerify:
    def test_base_case(self):
        r = verify("THM_ST", (), 1)
        assert r.equal and r.objects == 2
        assert r.lhs_terms == r.rhs_terms == 4

    def test_statistics_base_case(self):
        r = verify("COR_GT_QX", (), 1)
        assert r.equal and r.objects == 2
        assert r.lhs_terms == 2

    @pytest.mark.parametrize("identity", IDENTITIES)
    def test_modular_agrees_with_symbolic(self, identity):
        s = verify(identity, (1,), 2, mode="symbolic")
        m = verify(identity, (1,), 2, mode="modular", trials=8, seed=11)
        assert s.equal and m.equal
        assert s.objects == m.objects

    def test_counterexample_has_content(self):
        r = verify("COR_UASM_Q", (1,), 2, cpm_q_scheme="norm", c0_mode="literal")
        assert not r.equal
        ce = r.counterexample
        assert ce is not None and "monomial" in ce
        assert ce["lhsCoefficient"] != ce["rhsCoefficient"]

    def test_modular_counterexample_names_the_point(self):
        r = verify("COR_UASM_Q", (1,), 2, mode="modular", trials=4, seed=3,
                   cpm_q_scheme="norm", c0_mode="literal")
        assert not r.equal
        assert set(r.counterexample) == {"trial", "point", "lhsValue", "rhsValue"}

    def test_scale_cap(self):
        # symbolic mode counts the family before any algebra; modular mode
        # runs this case (test_real_running_case)
        with pytest.raises(ScaleExceededError, match="modular mode has no"):
            verify("THM_ST", (4, 3, 3), 5)

    def test_seeded_reports_are_reproducible(self):
        a = verify("COR_GT_Q", (2,), 2, mode="modular", trials=6, seed=99)
        b = verify("COR_GT_Q", (2,), 2, mode="modular", trials=6, seed=99)
        da = json.dumps(a.to_json_dict(include_timing=False))
        db = json.dumps(b.to_json_dict(include_timing=False))
        assert da == db

    def test_report_schema(self):
        r = verify("COR_Q", (1,), 1)
        doc = r.to_json_dict()
        assert list(doc)[:6] == ["identity", "n", "mu", "lambda", "mode", "counts"]
        assert doc["counts"]["objects"] == r.objects
        assert doc["lambda"] == [2]
        assert "millis" in doc
        assert "millis" not in r.to_json_dict(include_timing=False)


class TestInputChecks:
    @pytest.mark.parametrize("knob", [
        {"cpm_q_scheme": "bogus"}, {"c0_mode": "bogus"},
        {"st_q_neighbour": "bogus"},
    ])
    @pytest.mark.parametrize("mode", ["symbolic", "modular"])
    def test_unknown_convention_is_rejected(self, knob, mode):
        with pytest.raises(UnknownConventionError):
            verify("COR_UASM_Q", (1,), 2, mode=mode, trials=4, **knob)

    @pytest.mark.parametrize("identity,knobs", [
        ("THM_ST", {"st_q_neighbour": "above"}),
        ("COR_UASM", {"st_q_neighbour": "above"}),
        ("COR_GT_Q", {"cpm_q_scheme": "norm"}),
        ("COR_ST_Q", {"cpm_q_scheme": "norm"}),
        ("COR_GT_QX", {"c0_mode": "literal"}),
        ("COR_UASM_Q", {"c0_mode": "literal"}),
        ("COR_UASM_Q", {"cpm_q_scheme": "norm", "st_q_neighbour": "above"}),
    ])
    def test_convention_the_identity_never_reads_is_rejected(self, identity,
                                                             knobs):
        # the report would read as if the knob had been applied; the plain
        # CPM q weighting has no prefactor, so it never reads c0_mode either
        calls = [
            lambda: verify(identity, (1,), 2, **knobs),
            lambda: verify(identity, (1,), 2, "modular", trials=4, **knobs),
            lambda: verify_sweep(identity, 2, 1, **knobs),
        ]
        for call in calls:
            with pytest.raises(UnusedConventionError, match="not read by"):
                call()

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(ModularParameterError, match="trials"):
            verify("COR_GT", (1,), 2, "modular", trials=trials)

    @pytest.mark.parametrize("prime", [4, 3215031751, 2 ** 31 + 1])
    def test_composite_modulus_is_rejected(self, prime):
        # 3215031751 is a strong pseudoprime to the bases 2, 3, 5 and 7
        with pytest.raises(ModularParameterError, match="not prime"):
            verify("COR_GT", (1,), 2, "modular", trials=4, prime=prime)

    @pytest.mark.parametrize("prime", [2, 3, 65521])
    def test_small_prime_is_rejected(self, prime):
        # at p = 2 the rejected literal prefactor passes every trial
        with pytest.raises(ModularParameterError, match="below 2"):
            verify("COR_UASM_Q", (1,), 2, "modular", trials=4, prime=prime,
                   cpm_q_scheme="norm", c0_mode="literal")

    def test_rank_below_one_is_rejected(self):
        # no rank below 1 has objects to sum, so every entry point refuses it
        # in both modes rather than report a verdict
        calls = [
            lambda: verify("COR_GT", (), 0),
            lambda: verify("THM_ST", (), 0, "modular", trials=4),
            lambda: verify("PROP_T", (), -1),
            lambda: verify_sweep("THM_ST", 0, 2),
            lambda: verify_big_modular((), 0, trials=4),
        ]
        for call in calls:
            with pytest.raises(InvalidRankError):
                call()

    @pytest.mark.parametrize("mode", ["bogus", None, 1, "SYMBOLIC", "Modular"])
    def test_unknown_mode_is_rejected(self, mode):
        # every caller spells the mode in lower case, so no other spelling runs
        with pytest.raises(ValueError, match="unknown mode"):
            verify("THM_ST", (), 1, mode=mode)

    @pytest.mark.parametrize("mu", [5, None])
    def test_shape_that_is_not_a_sequence_is_rejected(self, mu):
        with pytest.raises(ValueError, match="not a sequence"):
            verify("THM_ST", mu, 1)

    @pytest.mark.parametrize("mu", [(1.7,), (True,), "21"])
    def test_part_that_is_not_an_integer_is_rejected(self, mu):
        # int() read these as (1,), (1,) and (2, 1), and the report said
        # equal for a shape that was never asked for
        with pytest.raises(ValueError, match="not an integer"):
            verify("THM_ST", mu, 2)

    @pytest.mark.parametrize("call", [
        lambda: verify("THM_ST", (1,), 2.0),
        lambda: verify("THM_ST", (1,), True, "modular", trials=4),
        lambda: verify_big_modular((1,), 2.0),
    ], ids=["verify", "verify-modular-bool", "verify_big_modular"])
    def test_rank_that_is_not_an_integer_is_rejected(self, call):
        with pytest.raises(InvalidRankError, match="integer"):
            call()

    @pytest.mark.parametrize("knobs", [
        {"trials": 2.5}, {"trials": True}, {"seed": True}, {"seed": 1.0},
        {"prime": 2147483647.0},
    ])
    def test_modular_parameter_that_is_not_an_integer_is_rejected(self, knobs):
        # a float ended in a raw TypeError, a bool in the report as true
        with pytest.raises(ModularParameterError, match="integer"):
            verify("THM_ST", (1,), 2, "modular", **knobs)

    def test_smallest_and_large_primes_are_accepted(self):
        for prime in (65537, 2 ** 61 - 1):
            assert verify("COR_GT", (1,), 2, "modular", trials=2,
                          prime=prime).equal


# (identity, conventions, factor scheme, enumerator, weight of one object)
KERNEL_VARIANTS = [
    ("COR_UASM", {}, "CPM_XY", enumerate_uasm,
     lambda a: wgt_cpm(a, "CPM_XY")),
    # the sum factor on NS and a first-column (TURN) term: no identity
    # uses it, but it is the one scheme whose table holds TURN ids
    ("COR_UASM", {}, "CPM_XY_ALT", enumerate_uasm,
     lambda a: wgt_cpm(a, "CPM_XY_ALT")),
    ("COR_UASM_Q", {"cpm_q_scheme": "plain"}, "CPM_Q_PLAIN", enumerate_uasm,
     lambda a: wgt_cpm(a, "CPM_Q_PLAIN")),
    ("COR_UASM_Q", {"cpm_q_scheme": "norm", "c0_mode": "full"}, "CPM_Q_NORM",
     enumerate_uasm, lambda a: wgt_cpm(a, "CPM_Q_NORM", "full")),
    ("COR_UASM_Q", {"cpm_q_scheme": "norm", "c0_mode": "literal"}, "CPM_Q_NORM",
     enumerate_uasm, lambda a: wgt_cpm(a, "CPM_Q_NORM", "literal")),
    ("COR_GT", {}, "GT_XY", enumerate_gtp, lambda g: wgt_gtp(g, "GT_XY")),
    ("COR_GT_Q", {}, "GT_Q", enumerate_gtp, lambda g: wgt_gtp(g, "GT_Q")),
    ("COR_GT_QX", {}, "GT_QX", enumerate_gtp, qx_weight),
]
KERNEL_CASES = [(mu, n) for n in (1, 2) for mu in partitions_up_to(2, n)]
KERNEL_CASES.append(((2,), 3))


@pytest.mark.parametrize(
    "identity,knobs,scheme,family,weight", KERNEL_VARIANTS,
    ids=["CPM_XY", "CPM_XY_ALT", "CPM_Q_PLAIN", "CPM_Q_NORM-full",
         "CPM_Q_NORM-literal", "GT_XY", "GT_Q", "GT_QX"])
def test_factor_kernel_matches_per_object_evaluation(identity, knobs, scheme,
                                                     family, weight):
    # the oracle expands every object's weight, sums the polynomials and
    # evaluates each weight at every point; the transfer's pattern and
    # compass callbacks run in both value types
    rng = random.Random(5)
    for mu, n in KERNEL_CASES:
        lam = add_staircase(mu, n)
        variables = _identity_variables(identity, n)
        points = [random_point(variables, rng) for _ in range(2)]
        total = LaurentPoly.zero()
        want = [0] * len(points)
        objects = 0
        for obj in family(lam, n):
            w = weight(obj)
            objects += 1
            total = total + w
            for p, pt in enumerate(points):
                want[p] = (want[p] + w.eval_mod(pt, MERSENNE31)) % MERSENNE31
        c0_mode = knobs.get("c0_mode", "full")
        got = _left_side(identity, (lam,), n, scheme, c0_mode, "below", exact)[lam]
        assert (EXACT.poly(got[0]), got[1]) == (total, objects), (mu, n)
        got = _left_side(identity, (lam,), n, scheme, c0_mode, "below",
                         modular_lift(points))[lam]
        assert (got[0].values, got[1]) == (want, objects), (mu, n)


def test_narrow_le_transfer_matches_per_object_statistics():
    # the rejected L_e that stops at j = k-1, which ambiguity_report sums
    # through the pattern callback, against the per-object statistics
    for mu, n in KERNEL_CASES:
        lam = add_staircase(mu, n)
        want, objects = LaurentPoly.zero(), 0
        for g in enumerate_gtp(lam, n):
            s = gt_statistics(g)
            exps = {xvar(k): e for k, e in s.x_exponents.items()}
            exps[QVAR] = s.r_odd + le_statistic_setbuilder(g)
            want = want + (ONE + Q) ** s.b * mono({v: e for v, e in exps.items() if e})
            objects += 1
        table = factor_table("GT_QX", n)
        got, count, _ = _transfer((lam,), n, table, exact,
                                  _pattern_cells(table, narrow_le=True))[lam]
        assert (EXACT.poly(got), count) == (want, objects), (mu, n)


@lru_cache(maxsize=None)
def walker_reference(mu, n):
    """Per-object sums and object counts of the shifted identities, keyed by
    (identity, st_q_neighbour).  At n <= 2 the primed sums are also checked
    against explicit primings."""
    lam = add_staircase(mu, n)
    sts = list(enumerate_st(lam, n))
    qt_count = sum(2 ** len(prime_freedom(st)[1]) for st in sts)
    lhs = {
        ("THM_ST", "below"): (sum((wgt_st(st) for st in sts), LaurentPoly.zero()),
                              len(sts)),
        ("COR_Q", "below"): (q_lambda(lam, n), qt_count),
        ("PROP_T", "below"): (q_lambda(lam, n, deformed=True), qt_count),
    }
    for neighbour in ("below", "above"):
        lhs[("COR_ST_Q", neighbour)] = (
            sum((wgt_st_q(st, neighbour) for st in sts), LaurentPoly.zero()),
            len(sts))
    if n <= 2:
        qts = [qt for st in sts for qt in primings(st)]
        assert len(qts) == qt_count
        for identity, deformed in (("COR_Q", False), ("PROP_T", True)):
            assert lhs[(identity, "below")][0] == sum(
                (wgt_qt(qt, deformed) for qt in qts), LaurentPoly.zero())
    return lhs


@lru_cache(maxsize=None)
def sp_reference(mu, n):
    """sp_mu and its deformation as sums of per-object wgt_t, with the
    tableau count."""
    ts = list(enumerate_t(mu, n))
    return {deformed: (sum((wgt_t(t, deformed) for t in ts), LaurentPoly.zero()),
                       len(ts))
            for deformed in (False, True)}


@pytest.mark.parametrize("mode", ["symbolic", "modular"])
def test_walkers_match_per_object_weights(mode):
    # each transfer sum, in both value types, against the sum of per-object
    # weights, with the tableau and primed-refinement counts; the three rows
    # of mu = (2,1,1) give the ordinary tableaux three growing rows (the
    # shifted rank-4 case is the next test)
    rng = random.Random(6)
    for mu, n in KERNEL_CASES + [((2, 1, 1), 4)]:
        points = [random_point(_identity_variables("PROP_T", n) + [QVAR], rng)
                  for _ in range(2)]
        lift = exact if mode == "symbolic" else modular_lift(points)
        if n < 4:
            lam = add_staircase(mu, n)
            reference = walker_reference(mu, n)
            for (identity, neighbour), (total, objects) in reference.items():
                scheme = _factor_scheme(identity, "plain", "full", neighbour)
                got, got_objects = _left_side(identity, (lam,), n, scheme, "full",
                                              neighbour, lift)[lam]
                assert got == lift(total) and got_objects == objects, (
                    identity, neighbour, mu, n)
        for deformed, (total, objects) in sp_reference(mu, n).items():
            table = factor_table("T_DEFORMED" if deformed else "T", n)
            got, got_objects, _ = _transfer((mu,), n, table, lift, _letter_cells)[mu]
            assert got == lift(total) and got_objects == objects, (deformed, mu, n)


def weyl_points(n):
    rng = random.Random(9)
    return [random_point([xvar(j) for j in range(1, n + 1)] + [TVAR], rng)
            for _ in range(20)]


def transfer_sp_mu(mu, n, deformed, points):
    table = factor_table("T_DEFORMED" if deformed else "T", n)
    return _transfer((mu,), n, table, modular_lift(points), _letter_cells)[mu][0].values


@pytest.mark.parametrize("deformed", [False, True])
@pytest.mark.parametrize("mu,n", [((4, 3, 3), 5), ((2, 1), 3), ((3, 2, 2, 1), 4)])
def test_weyl_character_formula_matches_the_transfer(mu, n, deformed):
    # sp_mu mod p as a ratio of two determinants shares no code with the
    # transfer; (4,3,3) at n = 5 is the right side of the real running case
    points = weyl_points(n)
    want = [weyl_sp_mu(mu, n, pt, MERSENNE31, deformed) for pt in points]
    assert transfer_sp_mu(mu, n, deformed, points) == want


def test_weyl_oracle_tells_a_wrong_shape_apart():
    # an oracle that handed back the transfer's values would pass the test
    # above; this one must not match the real case at a smaller shape
    points = weyl_points(5)
    for deformed in (False, True):
        got = transfer_sp_mu((4, 3, 3), 5, deformed, points)
        wrong = [weyl_sp_mu((3, 3, 3), 5, pt, MERSENNE31, deformed) for pt in points]
        assert all(a != b for a, b in zip(got, wrong)), deformed
    with pytest.raises(ZeroDivisionError):
        weyl_sp_mu((1,), 2, {xvar(1): 1, xvar(2): 5}, MERSENNE31)


@pytest.mark.parametrize("identity", ["COR_GT", "COR_GT_Q", "COR_GT_QX"])
def test_gt_row_walk_matches_the_weyl_right_side_at_the_real_case(identity):
    # neither side shares code with the transfer: the left side walks the
    # 687 GT rows between lambda = (9,7,6,2,1) and the empty row, and the
    # right side is the Weyl character formula times the staircase product
    mu, n = (4, 3, 3), 5
    rng = random.Random(10)
    variables = [xvar(j) for j in range(1, n + 1)] \
        + [yvar(j) for j in range(1, n + 1)] + [QVAR]
    points = [random_point(variables, rng) for _ in range(20)]
    sample = Sample(points, MERSENNE31)
    want = Residues([weyl_sp_mu(mu, n, pt, MERSENNE31) for pt in points], sample)
    for f in rhs_factors(identity, n):
        want = want * sample.lift(f)
    scheme = identities.IDENTITY_ROWS[identity].scheme

    def left(shape, narrow_le=False):
        return gt_left_side(add_staircase(shape, n), n, scheme, points, MERSENNE31,
                            narrow_le).values

    assert left(mu) == want.values
    # a smaller shape, and for GT_QX the rejected narrow L_e, differ at
    # every point
    controls = [left((3, 3, 3))]
    if scheme == "GT_QX":
        controls.append(left(mu, narrow_le=True))
    for control in controls:
        assert all(a != b for a, b in zip(control, want.values))


def test_shifted_walker_matches_per_object_weights_at_rank_four():
    # the 10,336 tableaux of lambda = (4,3,2,1), which reach most shapes by
    # many paths; expanding their weights' sum takes minutes, so each weight
    # is the product of its table entries' values at the points, as wgt_st,
    # wgt_st_q and primed_weight_sum multiply them
    lam, n = (4, 3, 2, 1), 4
    rng = random.Random(7)
    points = [random_point(_identity_variables("PROP_T", n) + [QVAR], rng)
              for _ in range(2)]
    lift = modular_lift(points)
    sts = list(enumerate_st(lam, n))
    qt_count = sum(2 ** len(prime_freedom(st)[1]) for st in sts)
    for identity, neighbour, objects in (
            ("THM_ST", "below", len(sts)), ("COR_Q", "below", qt_count),
            ("PROP_T", "below", qt_count), ("COR_ST_Q", "below", len(sts)),
            ("COR_ST_Q", "above", len(sts))):
        scheme = _factor_scheme(identity, "plain", "full", neighbour)
        vals = {fid: lift(f) for fid, f in factor_table(scheme, n).items()}
        want = lift(LaurentPoly.zero())
        for st in sts:
            weight = lift(ONE)
            for fid in cell_cases(st, neighbour):
                weight = weight * vals[fid]
            want = want + weight
        got = _left_side(identity, (lam,), n, scheme, "full", neighbour, lift)[lam]
        assert got == (want, objects), (identity, neighbour)


def test_pattern_and_compass_transfer_match_per_object_weights_at_rank_four():
    # the 10,336 U-turn ASMs and GT patterns of lambda = (4,3,2,1), whose
    # rows merge at several levels; each family is enumerated once, and each
    # weight is the product of its table entries' values at the points, as
    # wgt_cpm, wgt_gtp and qx_weight multiply them
    lam, n = (4, 3, 2, 1), 4
    rng = random.Random(8)
    points = [random_point(_identity_variables("COR_UASM", n) + [QVAR], rng)
              for _ in range(2)]
    lift = modular_lift(points)
    families = {"CPM": [uasm_to_cpm(a) for a in enumerate_uasm(lam, n)],
                "GT": list(enumerate_gtp(lam, n))}
    for identity, knobs, scheme, _, _ in KERNEL_VARIANTS:
        c0_mode = knobs.get("c0_mode", "full")
        objs = families[scheme.split("_")[0]]
        factor_ids = cpm_factor_ids if scheme in CPM_SCHEMES else gt_factor_ids
        vals = {fid: lift(f).values for fid, f in factor_table(scheme, n).items()}
        want = [0] * len(points)
        for obj in objs:
            weight = [1] * len(points)
            for fid in factor_ids(obj, scheme):
                weight = [w * v % MERSENNE31 for w, v in zip(weight, vals[fid])]
            want = [(a + w) % MERSENNE31 for a, w in zip(want, weight)]
        if scheme == "CPM_Q_NORM":
            prefactor = lift(cpm_q_norm_prefactor(n, c0_mode)).values
            want = [a * v % MERSENNE31 for a, v in zip(want, prefactor)]
        got, got_objects = _left_side(identity, (lam,), n, scheme, c0_mode, "below",
                                      lift)[lam]
        assert (got.values, got_objects) == (want, len(objs)), (scheme, c0_mode)


@pytest.mark.parametrize("lam,n", sorted(
    {(add_staircase(mu, n), n) for mu, n in KERNEL_CASES}
    | {((9, 7, 6), 3), ((4, 3, 2, 1), 4)}))
def test_transfer_count_matches_gt_pattern_count(lam, n):
    # count_gtp walks interlacing GT rows and shares no code with the
    # transfer; (9,7,6) has 175,274 tableaux and (4,3,2,1) 10,336
    _, count, _ = _transfer((lam,), n, factor_table("ST_XY", n), modular_lift([]),
                            _shifted_cells("below"))[lam]
    assert count == count_gtp(lam, n)


def test_verify_leaves_no_garbage_cycles():
    # the engine builds no self-referencing closures, so its state is freed
    # by reference counting when verify returns
    gc.collect()
    for identity, knobs in (("THM_ST", {}), ("PROP_T", {}), ("COR_GT", {}),
                            ("COR_UASM", {}), ("COR_GT_QX", {}),
                            ("COR_UASM_Q", {"cpm_q_scheme": "norm"})):
        verify(identity, (2,), 3, **knobs)
        assert gc.collect() == 0, identity


def _load_real_case():
    # the case and the twelve runs of scripts/real_case.py, read from the
    # script so the test and the script cannot drift apart
    path = Path(__file__).resolve().parent.parent / "scripts" / "real_case.py"
    spec = importlib.util.spec_from_file_location("real_case", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


REAL_CASE = _load_real_case()


@pytest.mark.parametrize("identity,knobs,holds", REAL_CASE.VARIANTS,
                         ids=[f"{i}{''.join('-' + v for v in k.values())}"
                              for i, k, _ in REAL_CASE.VARIANTS])
def test_real_running_case(identity, knobs, holds):
    # lambda = (9,7,6,2,1) at n = 5, the paper's running example, with no
    # fallback and no object limit: the transfer walks GT rows, not the
    # objects
    r = verify(identity, REAL_CASE.MU, REAL_CASE.N, "modular", trials=2,
               seed=1, **knobs)
    primed = identity in ("PROP_T", "COR_Q")
    assert r.lam == G.LAMBDA
    assert r.objects == (515_911_471_595_520 if primed else 19_781_353_800)
    assert r.equal is holds and (r.counterexample is None) is holds


@pytest.mark.parametrize("knobs", [
    {"cpm_q_scheme": "norm", "c0_mode": "literal"},
    {"st_q_neighbour": "above"},
])
def test_rejected_conventions_fail_in_modular_mode(knobs):
    identity = "COR_ST_Q" if "st_q_neighbour" in knobs else "COR_UASM_Q"
    r = verify(identity, (2,), 3, "modular", trials=4, seed=1, **knobs)
    assert not r.equal and r.counterexample is not None


class TestSweeps:
    def test_main_identity(self):
        reports = verify_sweep("THM_ST", 2, 3)
        assert len(reports) == 6  # partitions of weight <= 3 with <= 2 parts
        assert all(r.equal for r in reports)

    def test_matrix_identity_rank_one(self):
        assert all(r.equal for r in verify_sweep("COR_UASM", 1, 2))

    def test_deformed_identity_keeps_t(self):
        reports = verify_sweep("PROP_T", 2, 2)
        assert all(r.equal for r in reports)

    def test_workers_other_than_one_are_rejected(self):
        for workers in (0, 2, 4):
            with pytest.raises(ValueError, match="workers"):
                verify_sweep("COR_GT", 2, 2, workers=workers)

    def test_negative_max_weight_is_rejected(self):
        # no shape has a negative weight, so a sweep would check nothing; the
        # rejected conventions would read as satisfied
        calls = [
            lambda: verify_sweep("THM_ST", 2, -1),
            lambda: verify_sweep("COR_GT", 3, -5, "modular", trials=4),
            lambda: ambiguity_report(2, -1),
            lambda: _le_setbuilder_sweep(2, -1),
            lambda: verify_sweep("THM_ST", 2, 1.5),
            lambda: verify_sweep("THM_ST", 2, True),
        ]
        for call in calls:
            with pytest.raises(InvalidWeightError, match="max_weight"):
                call()


class TestBigModular:
    def test_no_fallback_when_feasible(self):
        r = verify_big_modular((1,), 2, trials=5, seed=1)
        assert r.equal and "fallback" not in r.params

    def test_fallback_search(self):
        lam, count = largest_feasible_subshape((3, 1), 10)
        assert lam == (3,) and count == 4

    @pytest.mark.parametrize("target,cap", [
        *product([(3, 1), (4, 2, 1), (5, 3, 1), (6, 4, 3, 1)],
                 [1, 4, 30, 500, 10 ** 4]),
        (G.LAMBDA, 10 ** 6),
    ])
    def test_fallback_search_matches_exhaustive_oracle(self, target, cap):
        # every strict lambda inside target, counted, and the largest by
        # (weight, lex) that fits under cap
        fits = []
        for entries in product(*(range(t + 1) for t in target)):
            lam = tuple(v for v in entries if v)
            if (lam == entries[:len(lam)] and lam
                    and all(a > b for a, b in zip(lam, lam[1:]))):
                count = count_gtp(lam, len(lam))
                if count <= cap:
                    fits.append(((sum(lam), lam), count))
        if not fits:
            with pytest.raises(ScaleExceededError):
                largest_feasible_subshape(target, cap)
            return
        (_, lam), count = max(fits)
        assert largest_feasible_subshape(target, cap) == (lam, count)

    def test_fallback_is_documented(self):
        r = verify_big_modular((4, 3, 3), 5, trials=5, seed=1)
        assert r.equal
        fb = r.params["fallback"]
        assert fb["requested"]["lambda"] == [9, 7, 6, 2, 1]
        assert fb["cap"] == identities.FALLBACK_OBJECT_CAP
        assert fb["chosen"]["objects"] <= identities.FALLBACK_OBJECT_CAP

    def test_fallback_search_counts_each_row_once(self, monkeypatch):
        # a GT row's sub-count depends only on the row and whether it is
        # barred, so one call expands each (row, length) once however many
        # candidates lie above it, and keeps nothing once it returns
        interlace, count = shapes._interlace, shapes.count_gtp
        expanded, counted = [], []

        def expanding(above, length):
            expanded.append((above, length))
            return interlace(above, length)

        def counting(lam, n, table=None):
            got = count(lam, n, table)
            counted.append((lam, n, table, got))
            return got

        monkeypatch.setattr(shapes, "_interlace", expanding)
        monkeypatch.setattr(identities, "count_gtp", counting)
        verify_big_modular((4, 3, 3), 5, trials=2, seed=1)
        assert len(expanded) <= len(set(expanded))
        assert len(counted) > 2
        assert all(table is counted[0][2] is not None for _, _, table, _ in counted)
        cold = []
        for _ in range(2):
            expanded.clear()
            count((9, 7, 6, 2, 1), 5)
            cold.append(len(expanded))
        assert cold[0] == cold[1] > 0
        assert all(got == count(lam, n) for lam, n, _, got in counted)

    @pytest.mark.parametrize("knobs", [
        {"trials": 0}, {"prime": 65536}, {"trials": 2.5}, {"seed": True},
        {"prime": 2147483647.0},
    ])
    def test_trials_and_modulus_are_checked_before_counting(self, monkeypatch,
                                                           knobs):
        # a run that verify would refuse counts no objects and searches no
        # fallback first
        def count_gtp(*args):
            raise AssertionError("objects counted before the checks")
        monkeypatch.setattr(identities, "count_gtp", count_gtp)
        with pytest.raises(ModularParameterError):
            verify_big_modular((4, 3, 3), 5, **knobs)


class TestAmbiguities:
    def test_findings(self):
        rep = ambiguity_report(n=2, max_weight=2)
        assert rep["cpm_q_norm_prefactor"]["full"]["satisfies"] is True
        assert rep["cpm_q_norm_prefactor"]["literal"]["satisfies"] is False
        assert rep["st_q_neighbour"]["below"]["satisfies"] is True
        assert rep["st_q_neighbour"]["above"]["satisfies"] is False
        assert rep["l_even_range"]["through_diagonal"]["satisfies"] is True
        assert rep["l_even_range"]["stop_before_diagonal"]["satisfies"] is False
        assert json.dumps(rep)  # machine readable

    def test_left_sides_agree_across_representations(self):
        # the three xy-weighted families produce identical sums
        families = ((enumerate_st, wgt_st),
                    (enumerate_uasm, lambda a: wgt_cpm(a, "CPM_XY")),
                    (enumerate_gtp, lambda g: wgt_gtp(g, "GT_XY")))
        for mu in ((), (1,), (2,)):
            lam = add_staircase(mu, 2)
            sums = [sum((weight(obj) for obj in family(lam, 2)), LaurentPoly.zero())
                    for family, weight in families]
            assert sums[0] == sums[1] == sums[2]

    def test_deformed_identity_collapses_to_undeformed_at_t_one(self):
        # substituting t = 1 into the deformed sum gives the t-free sum
        for lam, n in (((2, 1), 2), ((3, 1), 2)):
            deformed = q_lambda(lam, n, deformed=True)
            assert substitute(deformed, {TVAR: ONE}) == q_lambda(lam, n)


def test_golden_shape_count_guard():
    # the running example is far beyond the symbolic cap
    with pytest.raises(ScaleExceededError):
        verify("THM_ST", G.MU, G.N)


# -- one walk per sweep -------------------------------------------------------------

SWEEP_VARIANTS = GRID_VARIANTS + REJECTED_VARIANTS
SWEEP_IDS = ["-".join((identity, *knobs.values())) for identity, knobs in SWEEP_VARIANTS]


@pytest.mark.parametrize("identity,knobs", SWEEP_VARIANTS, ids=SWEEP_IDS)
def test_symbolic_sweep_reports_match_verify_per_mu(identity, knobs):
    # the sweep walks every mu's left side and sp_mu at once; verify walks
    # one target, and each mu's --no-timing report must not tell them apart
    for n, max_weight in GRID_RANKS:
        if n > 2:
            continue
        reports = verify_sweep(identity, n, max_weight, **knobs)
        assert [r.mu for r in reports] == list(partitions_up_to(max_weight, n))
        for r in reports:
            want = verify(identity, r.mu, n, **knobs)
            assert r.to_json_dict(include_timing=False) == \
                want.to_json_dict(include_timing=False), (n, r.mu)
        # the rejected conventions agree with the accepted ones at rank one
        if n == 2 or (identity, knobs) in GRID_VARIANTS:
            assert all(r.equal for r in reports) is ((identity, knobs) in GRID_VARIANTS)


@pytest.mark.parametrize("identity,knobs", [("THM_ST", {}), *REJECTED_VARIANTS],
                         ids=["THM_ST", *SWEEP_IDS[len(GRID_VARIANTS):]])
def test_modular_sweep_reports_match_verify_per_mu(identity, knobs):
    # one set of points serves the whole sweep, as each verify draws the same
    # points from the seed; a rejected variant's counterexample is the same
    reports = verify_sweep(identity, 3, 2, "modular", trials=4, seed=3, **knobs)
    for r in reports:
        want = verify(identity, r.mu, 3, "modular", trials=4, seed=3, **knobs)
        assert r.to_json_dict(include_timing=False) == \
            want.to_json_dict(include_timing=False), r.mu
    failed = [r for r in reports if not r.equal]
    assert bool(failed) is (identity != "THM_ST")
    assert all(r.counterexample["lhsValue"] != r.counterexample["rhsValue"]
               for r in failed)


@pytest.fixture
def counted(monkeypatch):
    """Records each walk as (its target count, whether it walks sp_mu) and
    the identity of each staircase product built."""
    transfer, factors = identities._transfer, identities.rhs_factors
    walks, products = [], []

    def walking(targets, n, table, lift, cells):
        targets = list(targets)
        walks.append((len(targets), cells is _letter_cells))
        return transfer(targets, n, table, lift, cells)

    def multiplying(identity, n):
        products.append(identity)
        return factors(identity, n)

    monkeypatch.setattr(identities, "_transfer", walking)
    monkeypatch.setattr(identities, "rhs_factors", multiplying)
    return walks, products


def test_a_sweep_walks_each_side_once(counted):
    # one left-side walk and one sp_mu walk per sweep, each over every mu,
    # and one staircase product; the narrow L_e control too
    walks, products = counted
    cases = len(list(partitions_up_to(3, 2)))
    for sweep in (lambda: verify_sweep("COR_UASM", 2, 3),
                  lambda: verify_sweep("PROP_T", 2, 3, "modular", trials=2),
                  lambda: _le_setbuilder_sweep(2, 3)):
        walks.clear()
        products.clear()
        sweep()
        assert sorted(walks) == [(cases, False), (cases, True)]
        assert len(products) == 1


def test_the_ambiguity_report_walks_sp_mu_once(counted):
    # its six sweeps all weigh the right side with sp_mu, undeformed, at one
    # (n, max_weight): six left-side walks and one sp_mu walk, not six, and
    # one q and one qx product, not four and two
    walks, products = counted
    ambiguity_report(2, 2)
    cases = len(list(partitions_up_to(2, 2)))
    assert sorted(walks) == [(cases, False)] * 6 + [(cases, True)]
    assert sorted(products) == ["COR_GT_QX", "COR_ST_Q"]


def test_sweeps_write_to_no_shared_value(monkeypatch):
    # the walk adds in place only into sums it made, and each case subtracts
    # in place only from its own left side: ONE, ZERO, the cached factor
    # tables, which the symbolic lift hands to the walk as they are, and the
    # cached shape graphs, which every walk of their rule, rank and targets
    # reads, stay put
    tables = {(scheme, n): factor_table(scheme, n)
              for scheme in (*weights.SCHEMES, "T") for n in (1, 2, 3)}
    shape_graph, graphs = identities._shape_graph, {}

    def recording(*key):
        graphs[key] = shape_graph(*key)
        return graphs[key]

    def sweeps():
        for identity, knobs in SWEEP_VARIANTS:
            verify_sweep(identity, 2, 2, **knobs)
            verify_sweep(identity, 3, 1, "modular", trials=2, **knobs)
        ambiguity_report(2, 1)

    def snapshot():
        return ({key: {fid: f.terms for fid, f in table.items()}
                 for key, table in tables.items()},
                {key: [(shapes, list(sources), list(dests))
                       for shapes, sources, dests in graph]
                 for key, graph in graphs.items()},
                algebra.ONE.terms, algebra.ZERO.terms)

    with monkeypatch.context() as patch:  # the graphs the sweeps walk
        patch.setattr(identities, "_shape_graph", recording)
        sweeps()
    assert 2 < len(graphs) <= identities.SHAPE_GRAPHS_KEPT
    before = snapshot()
    sweeps()
    assert snapshot() == before
    assert all(factor_table(*key) is table for key, table in tables.items())
    assert all(shape_graph(*key) is graph for key, graph in graphs.items())


def test_an_unreached_target_is_a_zero_of_its_own():
    # (2, 2) is no strict shape, so no shifted tableau reaches it; the
    # caller may write to what the walk returns, so it is not lift(ZERO) or
    # any other value the walk lifted
    table, lifted = factor_table("ST_XY", 2), []
    got = _transfer([(2, 2), (2, 1)], 2, table, lambda f: lifted.append(exact(f)) or lifted[-1],
                    _shifted_cells("below"))
    value, count, primed = got[(2, 2)]
    assert (EXACT.poly(value), count, primed) == (LaurentPoly.zero(), 0, 0)
    assert all(value is not v for v in lifted) and got[(2, 1)][1] == count_gtp((2, 1), 2)


def test_a_later_path_builds_no_product(monkeypatch):
    # a shape's first path stores value * f and every later one adds value * f
    # into that sum in place, so the walk multiplies once per first arrival
    # with ids, besides building each distinct step's product once
    lam, n = (5, 3, 1), 3
    table, (rule, cells) = factor_table("ST_XY", n), _shifted_cells("below")
    arrivals, first, steps = {}, set(), set()

    def recording(c, S, T):
        step = cells(c, S, T)
        if step is not None:
            arrivals[c, T] = arrivals.get((c, T), 0) + 1
            if arrivals[c, T] == 1 and step[0]:
                first.add((c, T))
            steps.add(step[0])
        return step

    calls = [0]

    def counting(op):
        def count(self, other):
            calls[0] += 1
            return op(self, other)
        return count

    monkeypatch.setattr(Packed, "_times", counting(Packed._times))  # * is _times too
    got = _transfer([lam], n, table, exact, (rule, recording))
    walked, calls[0] = calls[0], 0
    for ids in steps - {()}:  # each distinct step's product, built once
        reduce(operator.mul, (exact(table[fid]) ** e for fid, e in ids))
    assert got[lam][1] == count_gtp(lam, n)
    assert sum(arrivals.values()) > 2 * len(arrivals)  # many later paths
    assert walked <= len(first) + calls[0]


def test_the_shape_rule_runs_once_per_shape_and_letter(monkeypatch):
    # the shape graph checks a shape's rule where it first meets the shape on
    # a level, not on every step into it, and the shifted tableaux and the GT
    # patterns of one lam walk one graph; many steps reach each shape
    lam, n = (5, 3, 1), 3
    shifted, checks = weights._SHAPE_RULES["st"], Counter()

    def checking(c, T):
        checks[c, T] += 1
        return shifted(c, T)

    for family in ("st", "qt", "uasm", "gtp"):
        monkeypatch.setitem(weights._SHAPE_RULES, family, checking)
    gt_table = factor_table("GT_XY", n)
    walks = ((factor_table("ST_XY", n), _shifted_cells("below")),
             (gt_table, _pattern_cells(gt_table)))
    steps = []
    for table, (rule, cells) in walks:
        assert rule is checking  # the family's steps carry the table's rule
        steps.append(0)

        def stepping(c, S, T, cells=cells):
            steps[-1] += 1
            return cells(c, S, T)

        got = _transfer([lam], n, table, exact, (rule, stepping))
        assert got[lam][1] == count_gtp(lam, n)
    assert max(checks.values()) == 1
    assert steps[0] == steps[1] > 2 * len(checks)


def test_every_grid_variant_walks_one_of_two_shape_graphs():
    # at one case the ten variants' left sides walk one shifted-rule graph,
    # whatever their family, and their sp_mu one letter-rule graph
    identities._shape_graph.cache_clear()
    for identity, knobs in GRID_VARIANTS:
        assert verify(identity, (2,), 3, "modular", **knobs).equal
    info = identities._shape_graph.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 18, 2)


@pytest.mark.parametrize("lam,error", [((4, 2, 1), RankTooSmallError),
                                        ((1, 2), shapes.NotAPartitionError),
                                        ((2, -1), shapes.NotAPartitionError)])
def test_a_refused_walk_adds_no_shape_graph(lam, error):
    # the targets are checked before the cache is read
    identities._shape_graph.cache_clear()
    with pytest.raises(error):
        _transfer([(2, 1), lam], 2, factor_table("ST_XY", 2), exact, _shifted_cells("below"))
    info = identities._shape_graph.cache_info()
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0)


def test_a_modular_verify_reads_each_point_column_once(monkeypatch):
    # every lift of one verify shares its variables' values and inverses at
    # the points: at most one column per (variable, sign) of the identity
    column, calls = algebra._column, Counter()

    def counting(points, slot, inverse, modulus):
        calls[slot, inverse] += 1
        return column(points, slot, inverse, modulus)

    monkeypatch.setattr(algebra, "_column", counting)
    for identity, knobs in GRID_VARIANTS:
        calls.clear()
        assert verify(identity, (2,), 3, "modular", **knobs).equal
        assert max(calls.values()) == 1, (identity, knobs)
        assert len(calls) <= 2 * len(_identity_variables(identity, 3)), (identity, knobs)


def _modular_steps(scheme, n, targets):
    table = factor_table(scheme, n)
    if scheme == "T":
        return table, _letter_cells
    width = max(lam[0] for lam in targets)
    return table, weights._step_cells(scheme, table, width, "below")


def _sample(n, seed):
    rng = random.Random(seed)
    variables = ([xvar(i) for i in range(1, n + 1)] + [yvar(i) for i in range(1, n + 1)]
                 + [QVAR, TVAR])
    return [random_point(variables, rng) for _ in range(3)]


@pytest.mark.parametrize("scheme", (*weights.SCHEMES, "T"))
def test_modular_transfer_returns_reduced_lifts_of_the_symbolic_values(scheme):
    # sums are added unreduced and reduced once per shape: every value the
    # walk returns lies in [0, p) and is the lift of the symbolic value
    for n in (1, 2, 3):
        mus = list(partitions_up_to(2, n))
        targets = mus if scheme == "T" else [add_staircase(mu, n) for mu in mus]
        table, steps = _modular_steps(scheme, n, targets)
        sample = Sample(_sample(n, 20 + n), MERSENNE31)
        got = _transfer(targets, n, table, sample.lift, steps)
        want = _transfer(targets, n, table, exact, steps)
        for lam in targets:
            value, count, primed = got[lam]
            assert all(0 <= v < MERSENNE31 for v in value.values), (n, lam)
            assert value == sample.lift(EXACT.poly(want[lam][0])), (n, lam)
            assert (count, primed) == want[lam][1:], (n, lam)


def _check_walk(monkeypatch, scheme, value_type, lift, held, reduced):
    """Walk _transfer at n = 3 under the step rule of scheme, in value_type,
    and check that it writes only into sums it made: the lifted table
    factors, lift(ONE), lift(ZERO), the powers and the cached step products
    keep the list or dict that holds their numbers (held) and its numbers,
    and none of them is returned.  It reduces a sum when it pops its shape,
    so every operand is reduced when used, but for the partial products of
    a step product of several factors: values that _times made and only one
    more product read, once, as its left operand."""
    n, made, operands, products = 3, {}, [], []
    targets = [(5, 3, 1), (4, 3, 1), (3, 2, 1)] if scheme != "T" else [(2, 1), (2,)]
    table, steps = _modular_steps(scheme, n, targets)

    def recorded(value):  # at first sight: the value, its holder, a copy
        made.setdefault(id(value), (value, held(value), type(held(value))(held(value))))
        return value

    def recording(op):
        return lambda self, other: recorded(op(self, other))

    times, iadd_product = value_type._times, value_type._iadd_product

    def timing(self, other):  # other is a power or a step product
        operands.extend(((self, reduced(self), True), (recorded(other), reduced(other), False)))
        products.append(times(self, other))
        return products[-1]

    def adding(self, a, b, sign=1):
        operands.extend(((a, reduced(a), False), (recorded(b), reduced(b), False)))
        return iadd_product(self, a, b, sign)

    for name in ("__mul__", "__pow__"):
        monkeypatch.setattr(value_type, name, recording(getattr(value_type, name)))
    monkeypatch.setattr(value_type, "_times", timing)
    monkeypatch.setattr(value_type, "_iadd_product", adding)
    got = _transfer(targets, n, table, lambda f: recorded(lift(f)), steps)
    returned = {id(value) for value, _, _ in got.values()}
    assert len(made) > len(table) + 2 and operands
    assert all(held(value) is numbers and numbers == copy
               for value, numbers, copy in made.values())
    assert not made.keys() & returned
    assert all(reduced(value) for value, _, _ in got.values())
    uses = Counter(id(value) for value, _, _ in operands)
    made_by_times = {id(value) for value in products}
    for value, was_reduced, left in operands:
        if not was_reduced:  # a partial product
            assert left and id(value) in made_by_times and uses[id(value)] == 1
            assert id(value) not in returned


@pytest.mark.parametrize("scheme", ("ST_XY", "CPM_XY_ALT", "GT_QX", "T"))
def test_a_modular_walk_writes_to_no_factor_or_product(monkeypatch, scheme):
    sample = Sample(_sample(3, 7), MERSENNE31)
    _check_walk(monkeypatch, scheme, Residues, sample.lift, lambda value: value.values,
                lambda value: all(0 <= v < MERSENNE31 for v in value.values))


@pytest.mark.parametrize("scheme", ("ST_XY", "CPM_XY_ALT", "GT_QX", "T"))
def test_a_symbolic_walk_writes_to_no_factor_or_product(monkeypatch, scheme):
    # in the ring, a reduced value is one with no zero coefficient
    _check_walk(monkeypatch, scheme, Packed, exact, lambda value: value._terms,
                lambda value: 0 not in value._terms.values())


@pytest.mark.parametrize("scheme", ("ST_XY", "CPM_XY_ALT", "GT_QX"))
def test_a_step_product_is_reduced_once(monkeypatch, scheme):
    # each distinct step's product is its factors' powers multiplied
    # unreduced (_times) but for the last product (*), so building it takes
    # one reducing list operation, and each factor is lifted, and raised to
    # each power past the first, once a walk
    n, targets = 3, [(5, 3, 1), (4, 3, 1), (3, 2, 1)]
    table, (rule, cells) = _modular_steps(scheme, n, targets)
    distinct, counts, reduced, right, lifted = set(), Counter(), [], {}, []

    def recording(c, S, T):
        step = cells(c, S, T)
        distinct.add(step[0])
        return step

    def counting(name, op):
        def count(self, *args):
            if name == "_reduce":
                reduced.append(self)
            elif name in ("_times", "_iadd_product"):
                operand = args[0] if name == "_times" else args[1]
                right[id(operand)] = operand  # held, so no other value takes its id
            elif name == "__mul__" or args[0] != 1:  # x ** 1 is x itself
                counts[name] += 1
            return op(self, *args)
        return count

    for name in ("__mul__", "__pow__", "_reduce", "_times", "_iadd_product"):
        monkeypatch.setattr(Residues, name, counting(name, getattr(Residues, name)))
    sample = Sample(_sample(n, 8), MERSENNE31)
    _transfer(targets, n, table, lambda f: lifted.append(f) or sample.lift(f),
              (rule, recording))
    reductions = counts["__mul__"] + sum(id(value) in right for value in reduced)
    assert reductions == sum(len(ids) > 1 for ids in distinct)
    pairs = {pair for ids in distinct for pair in ids}
    assert counts["__pow__"] == sum(e != 1 for _, e in pairs)
    assert counts["__pow__"] < sum(e != 1 for ids in distinct for _, e in ids)
    # the factors the steps hold, besides 0 and 1
    assert sorted(map(LaurentPoly.to_text, lifted[2:])) == sorted(
        table[fid].to_text() for fid in {fid for fid, _ in pairs})
    assert max(map(len, distinct)) >= 3  # where a product per factor pair costs more


def test_only_symbolic_mode_loads_the_rings():
    # a modular verify compiles none of the symbolic value type
    code = ("import sys; from symptok.identities import verify; "
            "verify('THM_ST', (1,), 2, 'modular', trials=2); print('symptok.rings' in sys.modules); "
            "verify('THM_ST', (1,), 2); print('symptok.rings' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(identities.__file__).parent.parent)),
                         check=True).stdout
    assert out.split() == ["False", "True"]


def test_the_engine_loads_no_object_family():
    # the transfer builds no tableau, matrix or pattern, so neither mode, the
    # big modular case nor the ambiguity report loads an object module, the
    # CLI or the dataclasses (which import inspect)
    code = ("import sys, symptok; from symptok import identities; "
            "identities.verify('COR_UASM', (1,), 2, 'modular', trials=2); "
            "identities.verify('COR_GT_QX', (1,), 2, 'modular', trials=2); "
            "identities.verify_sweep('COR_UASM_Q', 2, 1, cpm_q_scheme='norm'); "
            "identities.verify_big_modular((4, 3, 3), 5, trials=2); "
            "identities.ambiguity_report(2, 2); "
            "print(sorted(m for m in sys.modules if m.startswith('symptok') "
            "or m in ('dataclasses', 'inspect')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(Path(identities.__file__).parent.parent)),
                         check=True).stdout
    assert out.strip() == str(["symptok", "symptok.algebra", "symptok.identities",
                               "symptok.rings", "symptok.shapes", "symptok.weights"])


class TestRecords:
    """The engine's record types are plain classes: immutable rows, and a
    report with a params dict of its own."""

    FIELDS = ("THM_ST", 2, (1,), (3, 1), "MODULAR", 10, None, None, True, None, 1.5)

    def test_a_report_is_built_positionally_with_params_of_its_own(self):
        a, b = VerificationReport(*self.FIELDS), VerificationReport(*self.FIELDS)
        assert a.params == b.params == {} and a.params is not b.params
        a.params["trials"] = 20
        assert b.params == {} and a != b
        assert VerificationReport(*self.FIELDS, {"x": 1}).params == {"x": 1}
        assert VerificationReport(*self.FIELDS, params={"x": 1}).params == {"x": 1}

    def test_reports_compare_field_by_field(self):
        a = VerificationReport(*self.FIELDS)
        assert a == VerificationReport(*self.FIELDS) and not a != VerificationReport(*self.FIELDS)
        for i, other in enumerate(("COR_GT", 3, (2,), (4, 1), "SYMBOLIC", 11, 4, 5, False,
                                   {"trial": 0}, 2.5)):
            changed = list(self.FIELDS)
            changed[i] = other
            assert a != VerificationReport(*changed), i
        assert a != self.FIELDS and a != object()
        with pytest.raises(TypeError):
            hash(a)
        assert repr(a) == (
            "VerificationReport(identity='THM_ST', n=2, mu=(1,), lam=(3, 1), "
            "mode='MODULAR', objects=10, lhs_terms=None, rhs_terms=None, equal=True, "
            "counterexample=None, millis=1.5, params={})")

    def test_to_json_dict_is_unchanged(self):
        report = VerificationReport("COR_UASM_Q", 2, (1,), (3, 1), "MODULAR", 10, None, None,
                                    False, {"trial": 3, "lhsValue": 1, "rhsValue": 2}, 1.23456,
                                    {"cpm_q_scheme": "plain", "trials": 20})
        want = ('{"identity": "COR_UASM_Q", "n": 2, "mu": [1], "lambda": [3, 1], '
                '"mode": "MODULAR", "counts": {"objects": 10, "lhsTerms": null, '
                '"rhsTerms": null}, "equal": false, "counterexample": {"trial": 3, '
                '"lhsValue": 1, "rhsValue": 2}, "params": {"cpm_q_scheme": "plain", '
                '"trials": 20}, "millis": 1.235}')
        assert json.dumps(report.to_json_dict()) == want
        assert json.dumps(report.to_json_dict(False)) == want.replace(', "millis": 1.235', "")
        bare = VerificationReport("THM_ST", 1, (), (1,), "SYMBOLIC", 1, 1, 1, True, None, 0.0)
        assert json.dumps(bare.to_json_dict(False)) == (
            '{"identity": "THM_ST", "n": 1, "mu": [], "lambda": [1], "mode": "SYMBOLIC", '
            '"counts": {"objects": 1, "lhsTerms": 1, "rhsTerms": 1}, "equal": true}')

    @pytest.mark.parametrize("rows", [identities.IDENTITY_ROWS, weights.SCHEMES],
                             ids=["IDENTITY_ROWS", "SCHEMES"])
    def test_rows_are_immutable_and_hashable(self, rows):
        for name, row in rows.items():
            for field in row._fields:
                with pytest.raises(AttributeError):
                    setattr(row, field, getattr(row, field))
            copy = type(row)(*row)
            assert copy is not row and copy == row and {row: name}[copy] == name
        assert identities.IDENTITY_ROWS["PROP_T"] == identities.Identity(
            "QT_DEFORMED", "xy", keeps_t=True, counts_primed=True)
        assert repr(identities.IDENTITY_ROWS["THM_ST"]) == (
            "Identity(scheme='ST_XY', product='xy', keeps_t=False, counts_primed=False)")
        assert repr(weights.SCHEMES["ST_Q"]) == "Scheme(family='st', reads=('st_q_neighbour',))"


def test_a_ring_too_narrow_runs_again_at_16_bits(monkeypatch):
    # every symbolic entry point, at a width whose exponents stop at 1: each
    # call's first ring overflows, and the run at 16 bits gives the report
    # and the polynomials that the call's own width gives
    calls = [
        lambda: [r.to_json_dict(False) for r in verify_sweep("COR_GT", 2, 2)],
        lambda: verify("COR_UASM_Q", (1,), 2, cpm_q_scheme="norm",
                       c0_mode="literal").to_json_dict(False),
        lambda: ambiguity_report(2, 1),
        lambda: _le_setbuilder_sweep(2, 2),
        lambda: sp_mu((2, 1), 2, deformed=True),
        lambda: rhs_product("PROP_T", (1,), 2),
    ]
    want = [call() for call in calls]
    init, widths = PackedRing.__init__, []

    def recording(self, variables, bits=None):
        init(self, variables, bits)
        widths.append(self.bits)

    monkeypatch.setattr(rings, "_ring_bits", lambda count: 2)
    monkeypatch.setattr(PackedRing, "__init__", recording)
    for call, expected in zip(calls, want):
        widths.clear()
        assert call() == expected
        assert widths == [2, 16]
    assert not want[1]["equal"] and want[1]["counterexample"]


@pytest.mark.parametrize("identity,knobs", REJECTED_VARIANTS)
def test_a_rejected_convention_reports_reduced_values(identity, knobs):
    r = verify(identity, (2,), 3, "modular", **knobs)
    values = r.counterexample["lhsValue"], r.counterexample["rhsValue"]
    assert not r.equal and values[0] != values[1]
    assert all(0 <= v < MERSENNE31 for v in values)


@pytest.mark.parametrize("st,step", [
    # a non-strict shape (1, 1), and row 2 still empty after the barred 2
    (ShiftedTableau((1, 1), ((1,), (3,))), "from (1, 0) to (1, 1) by letter 3"),
    (ShiftedTableau((2,), ((1, 3),)), "from (2, 0) to (2, 0) by letter 4"),
])
def test_path_weight_refuses_a_shape_the_rule_forbids(st, step):
    with pytest.raises(weights.ForbiddenPathError,
                       match=re.escape(f"no st object steps {step}")):
        path_weight(st, "ST_XY")


def test_reaches_matches_the_full_offset_count():
    # with as many letters left as T has rows the fit alone decides; every
    # shape of parts <= 6, fitting or not, against each strict lam of rank
    # <= 4 with parts <= 6, at every number of letters left
    for n in range(1, 5):
        shapes = [T for T in product(range(7), repeat=n)
                  if all(a >= b for a, b in zip(T, T[1:]))]
        for lam in combinations(range(6, 0, -1), n):
            for T in shapes:
                for letters_left in range(2 * n + 1):
                    assert _reaches(T, lam, letters_left) is \
                        reaches(T, lam, letters_left), (T, lam, letters_left)


@pytest.mark.parametrize("scheme", CPM_SCHEMES)
def test_no_compass_table_weighs_se(scheme):
    # a U-turn ASM's columns past lam_1 are all SE, so a compass walk as wide
    # as the widest target weighs a narrower target's matrices as its own
    # walk does only while no table holds an SE factor
    for n in range(1, 5):
        assert [fid for fid in factor_table(scheme, n) if fid[0] == "SE"] == []


@pytest.mark.parametrize("scheme", CPM_SCHEMES)
def test_a_wider_compass_walk_gives_the_same_steps(scheme):
    # on every step a walk takes, as _transfer and weights._path_ids take
    # them: S reached by letter c - 1 (the empty shape before letter 1), T
    # allowed by the shape rule, S <= T interlacing, rows from level k on kept
    lam, n = (4, 2, 1), 3
    table = factor_table(scheme, n)
    (rule, narrow), (_, wide) = (_compass_cells(w, table) for w in (lam[0], lam[0] + 3))
    shapes = list(product(*(range(part + 1) for part in lam)))
    steps = 0
    for S, T in product(shapes, shapes):
        for c in range(1, 2 * n + 1):
            k = letter_level(c)
            if ((rule(c - 1, S) if c > 1 else not any(S)) and rule(c, T)
                    and all(s <= t for s, t in zip(S, T)) and S[k:] == T[k:]
                    and all(t <= s for t, s in zip(T[1:], S))):
                steps += 1
                assert narrow(c, S, T) == wide(c, S, T), (S, T, c)
    assert steps > 100
