import json
import os
import subprocess
import sys
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

import golden as G
from oracles import (
    LemmaViolationError,
    gt_statistics,
    le_statistic_setbuilder,
    lemma_counts,
    primed_weight_sum,
    qx_weight,
    substitute,
    wgt_cpm,
    wgt_gtp,
    wgt_st,
    wgt_st_q,
    wgt_t,
)
from symptok.algebra import QVAR, TVAR, LaurentPoly, xvar, yvar
from symptok.identities import GRID_RANKS
from symptok.shapes import add_staircase, letter, partitions_up_to
from symptok.bijections import gtp_to_st, st_to_gtp, st_to_uasm, uasm_to_cpm
from symptok.matrices import (SympGTPattern, UTurnASM, enumerate_gtp, enumerate_uasm,
                              validate_gtp, validate_uasm)
from symptok.tableaux import (ShiftedTableau, SymplecticTableau, enumerate_st, enumerate_t,
                              primings, validate_st, validate_t)
from symptok.weights import (
    ForbiddenPathError,
    UnknownConventionError,
    UnknownSchemeError,
    UnusedConventionError,
    _path,
    cpm_q_norm_prefactor,
    factor_table,
    path_weight,
    qx_weight_factored,
    wgt_qt,
)


def V(v, e=1):
    return LaurentPoly.variable(v, e)


def mono(exps, c=1):
    return LaurentPoly.monomial(exps, c)


ONE = LaurentPoly.const(1)
X1, Y1, Q = V(xvar(1)), V(yvar(1)), V(QVAR)
T2 = V(TVAR, 2)

ST1 = ShiftedTableau((1,), ((1,),))
ST1BAR = ShiftedTableau((1,), ((2,),))
SWEEP_SHAPES = [((2, 1), 2), ((3, 2), 2), ((3, 2, 1), 3)]


class TestTableauWeights:
    def test_empty_tableau(self):
        assert wgt_t(SymplecticTableau((), ()), deformed=True) == ONE

    def test_single_barred_deformed(self):
        t = SymplecticTableau((1,), ((2,),))
        assert wgt_t(t, deformed=True) == T2 * V(xvar(1), -1)

    def test_high_letter_builds_no_factor_table(self):
        # one cell of level 4,000 is one monomial; a table of the whole rank
        # would hold 8,000 factors of 128,000-bit keys
        factor_table.cache_clear()
        t = SymplecticTableau((1,), ((letter(4000, False),),))
        assert wgt_t(t, deformed=True) == V(xvar(4000))
        assert path_weight(t, "T_DEFORMED") == V(xvar(4000))
        assert factor_table.cache_info().currsize == 0
        # nor does its path pad its one row with the 3,999 empty rows of its rank
        assert {len(S) for S in _path(t, "t")[1]} == {1}

    def test_character_sum_rank_two(self):
        total = LaurentPoly.zero()
        for t in enumerate_t((1,), 2):
            total = total + wgt_t(t)
        want = X1 + V(xvar(1), -1) + V(xvar(2)) + V(xvar(2), -1)
        assert total == want


class TestPrimedWeights:
    def test_single_cells(self):
        qts = list(primings(ST1))
        assert wgt_qt(qts[0]) == X1
        assert wgt_qt(qts[1]) == Y1

    def test_barred_primed_deformed(self):
        qt = next(p for p in primings(ST1BAR) if p.primed[0][0])
        assert wgt_qt(qt, deformed=True) == T2 * V(yvar(1), -1)

    def test_priming_sum_matches_unprimed_weight(self):
        total = sum((wgt_qt(qt) for qt in primings(ST1)), LaurentPoly.zero())
        assert total == X1 + Y1 == wgt_st(ST1)


class TestShiftedWeights:
    def test_golden_weight(self):
        assert wgt_st(G.ST) == G.golden_weight()

    def test_free_pair(self):
        st = ShiftedTableau((2,), ((1, 2),))
        assert wgt_st(st) == (X1 + Y1) * (V(xvar(1), -1) + V(yvar(1), -1))

    def test_left_equal_pair(self):
        st = ShiftedTableau((2,), ((1, 1),))
        assert wgt_st(st) == (X1 + Y1) * X1


class TestCompassWeights:
    def test_golden_weight_both_tables(self):
        assert wgt_cpm(G.A, "CPM_XY") == G.golden_weight()
        assert wgt_cpm(G.A, "CPM_XY_ALT") == G.golden_weight()

    def test_rank_one_xy(self):
        a = UTurnASM(((1,), (0,)))
        assert wgt_cpm(a, "CPM_XY") == X1 + Y1
        assert wgt_cpm(a, "CPM_XY_ALT") == X1 + Y1

    def test_rank_one_q(self):
        a1 = UTurnASM(((1,), (0,)))
        a2 = UTurnASM(((0,), (1,)))
        assert wgt_cpm(a1, "CPM_Q_PLAIN") == (ONE + Q) * X1
        assert wgt_cpm(a2, "CPM_Q_PLAIN") == (ONE + V(QVAR, -1)) * V(xvar(1), -1)

    def test_unknown_scheme(self):
        with pytest.raises(UnknownSchemeError):
            wgt_cpm(UTurnASM(((1,), (0,))), "ST_XY")


GT11 = SympGTPattern(((1,), (1,)))
GT10 = SympGTPattern(((0,), (1,)))


class TestPatternWeights:
    def test_golden_weight(self):
        assert wgt_gtp(G.GT, "GT_XY") == G.golden_weight()

    def test_rank_one_matches_tableau_weight(self):
        for g in (GT11, GT10):
            assert wgt_gtp(g, "GT_XY") == wgt_st(gtp_to_st(g))

    def test_rank_one_q_values(self):
        assert wgt_gtp(GT11, "GT_Q") == (ONE + Q) * X1
        assert wgt_gtp(GT10, "GT_Q") == (ONE + Q) * mono({QVAR: -1, xvar(1): -1})

    def test_unknown_scheme(self):
        with pytest.raises(UnknownSchemeError):
            wgt_gtp(GT11, "CPM_XY")


class TestStatistics:
    def test_golden_statistics(self):
        s = gt_statistics(G.GT)
        assert (s.b, s.r_odd, s.l_even) == (G.B_STAT, G.R_ODD_STAT, G.L_EVEN_STAT)
        assert s.x_exponents == G.QX_EXPONENTS
        assert qx_weight_factored(G.GT) == G.QX_FACTORED

    def test_rank_one_statistics(self):
        s = gt_statistics(GT11)
        assert (s.b, s.r_odd, s.l_even, s.x_exponents) == (0, 0, 1, {1: 1})
        s = gt_statistics(GT10)
        assert (s.b, s.r_odd, s.l_even, s.x_exponents) == (0, 0, 0, {1: -1})

    def test_setbuilder_variant_differs_on_golden_pattern(self):
        assert le_statistic_setbuilder(G.GT) == 4  # drops the (5,5) mark

    def test_statistics_match_compass_counts(self):
        # B counts the NS entries, R_o the NW in unbarred rows, L_e the NE
        # in barred rows of the recoded matrix
        for lam, n in SWEEP_SHAPES:
            for st in enumerate_st(lam, n):
                c = uasm_to_cpm(st_to_uasm(st))
                s = gt_statistics(st_to_gtp(st))
                assert s.b == sum(row.count("NS") for row in c.entries)
                assert s.r_odd == sum(
                    c.entries[2 * k - 2].count("NW") for k in range(1, n + 1))
                assert s.l_even == sum(
                    c.entries[2 * k - 1].count("NE") for k in range(1, n + 1))


class TestQTableauWeights:
    def test_single_cells(self):
        assert wgt_st_q(ST1) == (ONE + Q) * X1
        assert wgt_st_q(ST1BAR) == (ONE + V(QVAR, -1)) * V(xvar(1), -1)

    def test_unknown_neighbour(self):
        with pytest.raises(UnknownConventionError):
            wgt_st_q(ST1, "bogus")

    def test_sum_matches_product_form(self):
        total = sum((wgt_st_q(st) for st in enumerate_st((1,), 1)),
                    LaurentPoly.zero())
        product = (X1 + Q * X1) * (ONE + mono({QVAR: -1, xvar(1): -2}))
        assert total == product


class TestLemmaCounts:
    def test_golden_first_level(self):
        report = lemma_counts(G.CPM)
        top = report[0]
        assert top["ns_plain"] + top["nw_plain"] + top["ne_plain"] == 0
        assert top["we_bar"] + top["nw_bar"] + top["ne_bar"] == 1

    def test_rank_one_counts(self):
        c = uasm_to_cpm(UTurnASM(((1,), (0,))))
        row = lemma_counts(c)[0]
        assert row["we_bar"] + row["nw_bar"] + row["ne_bar"] == 1
        c = uasm_to_cpm(UTurnASM(((0,), (1,))))
        assert lemma_counts(c)[0]["we_bar"] == 1

    def test_violation_detected(self):
        from symptok.matrices import CompassPointMatrix
        fake = CompassPointMatrix((("NS",), ("WE",)))
        with pytest.raises(LemmaViolationError):
            lemma_counts(fake)


# -- the cross-scheme properties ------------------------------------------------


@pytest.mark.parametrize("lam,n", SWEEP_SHAPES)
def test_p1_weight_agrees_across_representations(lam, n):
    for st in enumerate_st(lam, n):
        w = wgt_st(st)
        assert wgt_cpm(st_to_uasm(st), "CPM_XY") == w
        assert wgt_gtp(st_to_gtp(st), "GT_XY") == w


@pytest.mark.parametrize("lam,n", SWEEP_SHAPES)
def test_p2_alternative_compass_weighting(lam, n):
    for a in enumerate_uasm(lam, n):
        assert wgt_cpm(a, "CPM_XY") == wgt_cpm(a, "CPM_XY_ALT")


@pytest.mark.parametrize("lam,n", [((2, 1), 2), ((3, 1), 2)])
def test_p3_priming_expansion(lam, n):
    for st in enumerate_st(lam, n):
        total = sum((wgt_qt(qt) for qt in primings(st)), LaurentPoly.zero())
        assert total == wgt_st(st)
        assert primed_weight_sum(st) == wgt_st(st)


@pytest.mark.parametrize("lam,n", [((2, 1), 2)])
def test_p4_homogeneity_under_rescaling(lam, n):
    # scaling x -> t x, y -> t y multiplies every deformed weight by t^|lambda|
    t = V(TVAR)
    scale = {}
    for k in range(1, n + 1):
        scale[xvar(k)] = t * V(xvar(k))
        scale[yvar(k)] = t * V(yvar(k))
    for st in enumerate_st(lam, n):
        for qt in primings(st):
            deformed = wgt_qt(qt, deformed=True)
            rescaled = substitute(deformed, scale)
            assert rescaled == V(TVAR, sum(lam)) * wgt_qt(qt, deformed=False)


@pytest.mark.parametrize("lam,n", SWEEP_SHAPES)
def test_p5_q_specialisation_consistency(lam, n):
    subst = {yvar(k): Q * V(xvar(k)) for k in range(1, n + 1)}
    for st in enumerate_st(lam, n):
        assert wgt_st_q(st) == substitute(wgt_st(st), subst)
        a = st_to_uasm(st)
        assert wgt_cpm(a, "CPM_Q_PLAIN") == substitute(wgt_cpm(a, "CPM_XY"), subst)
        g = st_to_gtp(st)
        assert wgt_gtp(g, "GT_Q") == substitute(wgt_gtp(g, "GT_XY"), subst)


@pytest.mark.parametrize("lam,n", SWEEP_SHAPES)
def test_p6_normalised_and_plain_q_weightings_agree(lam, n):
    plain = LaurentPoly.zero()
    norm = LaurentPoly.zero()
    for a in enumerate_uasm(lam, n):
        plain = plain + wgt_cpm(a, "CPM_Q_PLAIN")
        norm = norm + wgt_cpm(a, "CPM_Q_NORM")
    assert plain == norm


@pytest.mark.parametrize("lam,n", SWEEP_SHAPES)
def test_p7_statistics_form_carries_the_prefactor(lam, n):
    c0 = cpm_q_norm_prefactor(n, "full")
    for g in enumerate_gtp(lam, n):
        assert c0 * qx_weight(g) == wgt_gtp(g, "GT_Q")


@pytest.mark.parametrize("lam,n", SWEEP_SHAPES)
def test_p8_lemma_holds_on_every_matrix(lam, n):
    for a in enumerate_uasm(lam, n):
        lemma_counts(uasm_to_cpm(a))


# -- one rule per scheme: the path product against the per-object oracles ---------

#: (scheme, path_weight knobs, family, oracle weight of one object): the
#: eleven CLI schemes, T (sp_mu's weighting), the "above" ST_Q reading and
#: the "literal" CPM_Q_NORM prefactor.  QT_DEFORMED weighs a shifted tableau
#: by the sum over its primings.
PATH_VARIANTS = [
    ("T", {}, "t", wgt_t),
    ("T_DEFORMED", {}, "t", lambda t: wgt_t(t, deformed=True)),
    ("ST_XY", {}, "st", wgt_st),
    ("QT_DEFORMED", {}, "st", lambda st: primed_weight_sum(st, deformed=True)),
    ("ST_Q", {}, "st", wgt_st_q),
    ("ST_Q", {"neighbour": "above"}, "st", lambda st: wgt_st_q(st, "above")),
    *((scheme, {}, "uasm", lambda a, s=scheme: wgt_cpm(a, s))
      for scheme in ("CPM_XY", "CPM_XY_ALT", "CPM_Q_PLAIN", "CPM_Q_NORM")),
    ("CPM_Q_NORM", {"c0_mode": "literal"}, "uasm",
     lambda a: wgt_cpm(a, "CPM_Q_NORM", "literal")),
    ("GT_XY", {}, "gtp", lambda g: wgt_gtp(g, "GT_XY")),
    ("GT_Q", {}, "gtp", lambda g: wgt_gtp(g, "GT_Q")),
    ("GT_QX", {}, "gtp", qx_weight),
]

#: The C4 grid's shapes (identities.GRID_RANKS) as (mu, n), but for n = 3
#: only up to |mu| = 1: its |mu| = 2 shapes hold 3,068 of the grid's 4,691
#: objects of each family, and would triple the test's time.
PATH_RANKS = tuple((n, min(top, 1) if n == 3 else top) for n, top in GRID_RANKS)
PATH_CASES = [(mu, n) for n, top in PATH_RANKS for mu in partitions_up_to(top, n)]


@lru_cache(maxsize=None)
def path_objects(family, mu, n):
    lam = add_staircase(mu, n)
    enumerate_ = {"t": lambda: enumerate_t(mu, n), "st": lambda: enumerate_st(lam, n),
                  "uasm": lambda: enumerate_uasm(lam, n),
                  "gtp": lambda: enumerate_gtp(lam, n)}[family]
    return tuple(enumerate_())


@pytest.mark.parametrize(
    "scheme,knobs,family,oracle", PATH_VARIANTS,
    ids=[scheme + "".join(f"-{v}" for v in knobs.values())
         for scheme, knobs, _, _ in PATH_VARIANTS])
def test_path_weight_matches_the_per_object_oracle(scheme, knobs, family, oracle):
    # the engine's step callbacks along each object's own path, against the
    # cell, entry and mark rules of tests/oracles.py, on every object of the
    # C4 shapes
    objects = 0
    for mu, n in PATH_CASES:
        for obj in path_objects(family, mu, n):
            assert path_weight(obj, scheme, **knobs) == oracle(obj), (scheme, obj)
            objects += 1
    assert objects > 100


@pytest.mark.parametrize("obj,scheme", [
    # betweenness: mb(1,1) = 1 < m(1,1) = 2
    (SympGTPattern(((2,), (1,))), "GT_XY"),
    # seed rule: m(1,1) = mb(1,1) = 0
    (SympGTPattern(((0,), (0,))), "GT_QX"),
    # interlacing across levels: m(2,1) = 5 > ... and row 1' = (1) < m(2,2)
    (SympGTPattern(((1,), (2,), (5, 3), (6, 4))), "GT_Q"),
    # column sums leaving {0, 1}
    (UTurnASM(((1,), (1,))), "CPM_XY"),
    (UTurnASM(((-1,), (1,))), "CPM_Q_NORM"),
    # three rows, and rows of two lengths
    (UTurnASM(((1,), (0,), (0,))), "CPM_XY_ALT"),
    (UTurnASM(((1, 0), (0,))), "CPM_XY"),
    # a shifted row below level 1 holding a 1 (ST4), and two 1s on a diagonal
    (ShiftedTableau((1, 1), ((1,), (1,))), "ST_XY"),
    (ShiftedTableau((2, 1), ((1, 1), (2,))), "ST_Q"),
    # a decreasing row, and a letter code below 1
    (ShiftedTableau((2,), ((2, 1),)), "QT_DEFORMED"),
    (SymplecticTableau((1,), ((0,),)), "T"),
    # an ordinary column that does not increase strictly
    (SymplecticTableau((1, 1), ((3,), (3,))), "T_DEFORMED"),
])
def test_path_weight_refuses_a_forbidden_step(obj, scheme):
    # unvalidated objects built in Python: the per-object rules would weigh
    # them, the path has a step that no object of the family takes
    with pytest.raises(ForbiddenPathError):
        path_weight(obj, scheme)


@pytest.mark.parametrize("obj,scheme", [
    (G.GT, "ST_XY"), (G.ST, "GT_QX"), (G.A, "GT_XY"), (G.CPM, "CPM_XY"),
    (G.QT, "QT_DEFORMED"), (G.ST, "T_DEFORMED"), (None, "ST_Q"), (G.ST, "NOPE"),
])
def test_path_weight_refuses_an_object_of_another_family(obj, scheme):
    with pytest.raises(UnknownSchemeError):
        path_weight(obj, scheme)


def test_path_weight_refuses_a_convention_its_scheme_does_not_read():
    with pytest.raises(UnusedConventionError, match="not read by scheme ST_XY"):
        path_weight(G.ST, "ST_XY", neighbour="above")
    with pytest.raises(UnknownConventionError):
        path_weight(G.ST, "ST_Q", neighbour="bogus")


def factored_value(text):
    """The polynomial that a qx_weight_factored text names."""
    out = ONE
    for part in text.split(" * "):
        base, _, exp = part.partition("^")
        e = int(exp or 1)
        if base.startswith("x"):
            out = out * V(xvar(int(base[1:])), e)
        elif base != "1":
            out = out * (ONE + Q if base == "(1+q)" else Q) ** e
    return out


def test_factored_qx_weight_names_the_oracle_polynomial():
    # (1+q)^B q^E x^X fixes B, E and X, so the text, which counts the GT_QX
    # ids along the path, says what the statistics of the oracle say
    for mu, n in PATH_CASES:
        for g in path_objects("gtp", mu, n):
            assert factored_value(qx_weight_factored(g)) == qx_weight(g), g


def small_objects():
    """Every small object, valid or not, with its validator's verdict: GT
    patterns of rank 2 with entries up to 3, {-1, 0, 1} matrices of 2 x 1..3
    and 4 x 2, and tableaux of small shapes over their whole alphabet."""
    for entries in product(range(4), repeat=6):
        g = SympGTPattern((entries[:1], entries[1:2], entries[2:4], entries[4:]))
        yield g, "GT_QX", validate_gtp(g)[0]
    for rows, width in ((2, 1), (2, 2), (2, 3), (4, 2)):
        for entries in product((-1, 0, 1), repeat=rows * width):
            a = UTurnASM(tuple(entries[i:i + width] for i in range(0, rows * width, width)))
            yield a, "CPM_XY_ALT", validate_uasm(a)[0]
    for shape in ((1,), (2, 1), (3, 1), (3, 2)):
        for codes in product(range(1, 2 * len(shape) + 1), repeat=sum(shape)):
            rows = tuple(codes[sum(shape[:i]):sum(shape[:i + 1])] for i in range(len(shape)))
            st = ShiftedTableau(shape, rows)
            yield st, "ST_Q", validate_st(st)[0]
            t = SymplecticTableau(shape, rows)
            yield t, "T", validate_t(t, len(shape))[0]


def test_path_weight_accepts_exactly_the_objects_their_validators_accept():
    # the steps that the engine walks are the family's rules: an object
    # whose path leaves them is refused, and every other one is valid
    verdicts = {True: 0, False: 0}
    for obj, scheme, valid in small_objects():
        try:
            path_weight(obj, scheme)
            accepted = True
        except ForbiddenPathError:
            accepted = False
        assert accepted == valid, obj
        verdicts[valid] += 1
    assert min(verdicts.values()) > 100, verdicts


def test_path_weight_loads_the_object_modules_itself():
    # the weights module imports no object module: path_weight, in an
    # interpreter that loaded weights first, finds each family's class on
    # its own and gives one object of each family the oracle's weight
    tests = Path(__file__).resolve().parent
    code = ("import json, sys; from symptok import weights; "
            "loaded = [m for m in ('symptok.tableaux', 'symptok.matrices') if m in sys.modules]; "
            f"sys.path.insert(0, {str(tests)!r}); import golden as G; "
            "from symptok.tableaux import SymplecticTableau; "
            "T = SymplecticTableau((2, 1), ((1, 2), (3,))); "
            "cases = [(T, 'T_DEFORMED'), (G.ST, 'ST_XY'), (G.ST, 'QT_DEFORMED'), "
            "(G.A, 'CPM_Q_NORM'), (G.GT, 'GT_QX')]; "
            "print(json.dumps([loaded] + [weights.path_weight(o, s).to_text() for o, s in cases]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(tests.parent / "src")),
                         check=True).stdout
    t = SymplecticTableau((2, 1), ((1, 2), (3,)))
    want = [wgt_t(t, deformed=True), wgt_st(G.ST), primed_weight_sum(G.ST, deformed=True),
            wgt_cpm(G.A, "CPM_Q_NORM"), qx_weight(G.GT)]
    assert want[1] == G.golden_weight()
    assert json.loads(out) == [[]] + [w.to_text() for w in want]
