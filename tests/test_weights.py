import pytest

import golden as G
from oracles import LemmaViolationError, le_statistic_setbuilder, lemma_counts, substitute
from symptok.algebra import QVAR, TVAR, LaurentPoly, xvar, yvar
from symptok.shapes import letter
from symptok.bijections import gtp_to_st, st_to_gtp, st_to_uasm, uasm_to_cpm
from symptok.matrices import SympGTPattern, UTurnASM, enumerate_gtp, enumerate_uasm
from symptok.tableaux import ShiftedTableau, SymplecticTableau, enumerate_st, enumerate_t, primings
from symptok.weights import (
    UnknownConventionError,
    UnknownSchemeError,
    cpm_q_norm_prefactor,
    factor_table,
    gt_statistics,
    primed_weight_sum,
    qx_weight,
    qx_weight_factored,
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
        assert factor_table.cache_info().currsize == 0

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
