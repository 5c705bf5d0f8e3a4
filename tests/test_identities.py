import gc
import importlib.util
import json
import random
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

import golden as G
from symptok.algebra import (
    MERSENNE31,
    QVAR,
    TVAR,
    LaurentPoly,
    Residues,
    random_point,
    xvar,
    yvar,
)
from symptok.identities import (
    IDENTITIES,
    InvalidRankError,
    InvalidWeightError,
    ModularParameterError,
    ScaleExceededError,
    UnknownConventionError,
    UnknownIdentityError,
    UnusedConventionError,
    _factor_scheme,
    _identity_variables,
    _le_setbuilder_sweep,
    _left_side,
    _letter_cells,
    _pattern_cells,
    _shifted_cells,
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
from symptok.shapes import RankTooSmallError, add_staircase, partitions_up_to
from symptok.tableaux import (
    cell_cases,
    enumerate_st,
    enumerate_t,
    prime_freedom,
    primings,
)
from symptok.weights import (
    CPM_SCHEMES,
    cpm_factor_ids,
    cpm_q_norm_prefactor,
    factor_table,
    gt_factor_ids,
    gt_statistics,
    le_statistic_setbuilder,
    primed_weight_sum,
    qx_weight,
    st_q_factor_ids,
    wgt_cpm,
    wgt_gtp,
    wgt_qt,
    wgt_st,
    wgt_st_q,
    wgt_t,
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


def exact(f):
    return f


def modular_lift(points):
    return lambda f: Residues.lift(f, points, MERSENNE31)


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
        got = _left_side(identity, lam, n, scheme, c0_mode, "below", exact)
        assert got == (total, objects), (mu, n)
        got = _left_side(identity, lam, n, scheme, c0_mode, "below",
                         modular_lift(points))
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
        got, count, _ = _transfer(lam, n, table, exact,
                                  _pattern_cells(table, narrow_le=True))
        assert (got, count) == (want, objects), (mu, n)


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
                got, got_objects = _left_side(identity, lam, n, scheme, "full",
                                              neighbour, lift)
                assert got == lift(total) and got_objects == objects, (
                    identity, neighbour, mu, n)
        for deformed, (total, objects) in sp_reference(mu, n).items():
            table = factor_table("T_DEFORMED" if deformed else "T", n)
            got, got_objects, _ = _transfer(mu, n, table, lift, _letter_cells)
            assert got == lift(total) and got_objects == objects, (deformed, mu, n)


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
            for fid in (cell_cases(st) if neighbour == "below"
                        else st_q_factor_ids(st, neighbour)):
                weight = weight * vals[fid]
            want = want + weight
        got = _left_side(identity, lam, n, scheme, "full", neighbour, lift)
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
        got, got_objects = _left_side(identity, lam, n, scheme, c0_mode, "below",
                                      lift)
        assert (got.values, got_objects) == (want, len(objs)), (scheme, c0_mode)


@pytest.mark.parametrize("lam,n", sorted(
    {(add_staircase(mu, n), n) for mu, n in KERNEL_CASES}
    | {((9, 7, 6), 3), ((4, 3, 2, 1), 4)}))
def test_transfer_count_matches_gt_pattern_count(lam, n):
    # count_gtp walks interlacing GT rows and shares no code with the
    # transfer; (9,7,6) has 175,274 tableaux and (4,3,2,1) 10,336
    _, count, _ = _transfer(lam, n, factor_table("ST_XY", n), modular_lift([]),
                            _shifted_cells("below"))
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
        r = verify_big_modular((2,), 2, trials=5, seed=1, cap=10)
        assert r.equal
        fb = r.params["fallback"]
        assert fb["requested"]["lambda"] == [4, 1]
        assert fb["chosen"]["objects"] <= 10


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
            assert deformed.substitute({TVAR: ONE}) == q_lambda(lam, n)


def test_golden_shape_count_guard():
    # the running example is far beyond the symbolic cap
    with pytest.raises(ScaleExceededError):
        verify("THM_ST", G.MU, G.N)
