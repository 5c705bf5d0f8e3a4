"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; the timing assertions use wall-clock budgets from the criteria.
"""

import json
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

import golden as G
from oracles import (
    brute_force_uasm,
    chi_turn,
    gt_statistics,
    lemma_counts,
    qx_weight,
    substitute,
    wgt_cpm,
    wgt_gtp,
    wgt_st,
    wgt_st_q,
)
from symptok import bijections, render, weights
from symptok.algebra import LaurentPoly, QVAR, TVAR, xvar, yvar
from symptok.identities import (
    GRID_RANKS,
    GRID_VARIANTS,
    ambiguity_report,
    verify,
    verify_big_modular,
    verify_sweep,
)
from symptok.matrices import count_gtp, enumerate_gtp, enumerate_uasm
from symptok.shapes import add_staircase, partitions_up_to
from symptok.tableaux import enumerate_st, primings


@contextmanager
def criterion(label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    print(f"\nACCEPTANCE {label}: PASS ({time.perf_counter() - t0:.2f}s)")


# -- shared case lists -----------------------------------------------------------


def c4_shapes():
    for n, max_weight in GRID_RANKS:
        for mu in partitions_up_to(max_weight, n):
            yield add_staircase(mu, n), n


@lru_cache(maxsize=None)
def cached_st(lam, n):
    return tuple(enumerate_st(lam, n))


@lru_cache(maxsize=None)
def cached_uasm(lam, n):
    return tuple(enumerate_uasm(lam, n))


@lru_cache(maxsize=None)
def cached_gtp(lam, n):
    return tuple(enumerate_gtp(lam, n))


def run_c4_sweeps():
    reports = []
    for identity, knobs in GRID_VARIANTS:
        for n, max_weight in GRID_RANKS:
            reports.extend(verify_sweep(identity, n, max_weight,
                                        mode="symbolic", **knobs))
    return reports


@lru_cache(maxsize=None)
def c4_run():
    """The C4 grid's reports, run once per module so that C10 can compare a
    fresh run against them."""
    return tuple(run_c4_sweeps())


def c1_report():
    w = G.golden_weight()
    return {
        "tableau": weights.path_weight(G.ST, "ST_XY").to_text(),
        "matrix": weights.path_weight(G.A, "CPM_XY").to_text(),
        "pattern": weights.path_weight(G.GT, "GT_XY").to_text(),
        "expected": w.to_text(),
    }


def c2_report():
    s = gt_statistics(G.GT)
    return {
        "B": s.b, "R_o": s.r_odd, "L_e": s.l_even,
        "x_exponents": {str(k): v for k, v in sorted(s.x_exponents.items())},
        "qxwgt": weights.qx_weight_factored(G.GT),
    }


def c3_report():
    return {
        "st": render.to_json_data(bijections.uasm_to_st(G.A)),
        "gtp": render.to_json_data(bijections.uasm_to_gtp(G.A)),
        "cpm": render.to_json_data(bijections.uasm_to_cpm(G.A)),
        "matrix_roundtrip": render.to_json_data(
            bijections.st_to_uasm(bijections.uasm_to_st(G.A))),
    }


# -- criteria ---------------------------------------------------------------------


def test_c1_golden_weights():
    with criterion("C1 golden worked-example weights"):
        t0 = time.perf_counter()
        w = G.golden_weight()
        assert weights.path_weight(G.ST, "ST_XY") == w
        assert weights.path_weight(G.A, "CPM_XY") == w
        assert weights.path_weight(G.GT, "GT_XY") == w
        assert time.perf_counter() - t0 < 1.0


def test_c2_golden_statistics():
    with criterion("C2 golden q-statistics"):
        t0 = time.perf_counter()
        s = gt_statistics(G.GT)
        assert (s.b, s.r_odd, s.l_even) == (7, 2, 5)
        mono = LaurentPoly.monomial(
            {xvar(k): e for k, e in s.x_exponents.items() if e})
        assert mono == LaurentPoly.monomial({xvar(2): 1, xvar(4): -4})
        q = LaurentPoly.variable(QVAR)
        want = (LaurentPoly.const(1) + q) ** 7 * q ** 7 * mono
        assert weights.path_weight(G.GT, "GT_QX") == want
        assert weights.qx_weight_factored(G.GT) == "(1+q)^7 * q^7 * x2 * x4^-4"
        assert time.perf_counter() - t0 < 1.0


def test_c3_golden_bijections():
    with criterion("C3 golden bijections"):
        t0 = time.perf_counter()
        assert bijections.uasm_to_st(G.A) == G.ST
        assert bijections.uasm_to_gtp(G.A) == G.GT
        assert bijections.uasm_to_cpm(G.A) == G.CPM  # all 90 entries
        assert bijections.st_to_uasm(G.ST) == G.A
        assert time.perf_counter() - t0 < 1.0


def test_c4_symbolic_identity_suite():
    with criterion("C4 symbolic identity suite"):
        t0 = time.perf_counter()
        reports = c4_run()
        bad = [r for r in reports if not r.equal]
        assert not bad, [
            (r.identity, r.mu, r.n, r.counterexample) for r in bad]
        elapsed = time.perf_counter() - t0
        print(f"\n  {len(reports)} verifications in {elapsed:.1f}s")
        assert elapsed < 600.0


def test_c5_bijection_cardinality_suite():
    with criterion("C5 bijections and cardinalities"):
        for lam, n in c4_shapes():
            sts = cached_st(lam, n)
            uas = cached_uasm(lam, n)
            gts = cached_gtp(lam, n)
            assert len(sts) == len(uas) == len(gts) == count_gtp(lam, n)
            for st in sts:
                assert bijections.gtp_to_st(bijections.st_to_gtp(st)) == st
                assert bijections.uasm_to_st(bijections.st_to_uasm(st)) == st
            for a in uas:
                assert bijections.st_to_uasm(bijections.uasm_to_st(a)) == a
                assert bijections.uasm_to_gtp(a) == bijections.st_to_gtp(
                    bijections.uasm_to_st(a))
            for g in gts:
                assert bijections.st_to_gtp(bijections.gtp_to_st(g)) == g
            if 2 * n * lam[0] <= 12:
                brute = {a.entries for a in brute_force_uasm(lam, n)}
                assert brute == {a.entries for a in uas}


def test_c6_lemma_and_counting_identities():
    with criterion("C6 compass counting identities"):
        for lam, n in c4_shapes():
            for a in cached_uasm(lam, n):
                c = bijections.uasm_to_cpm(a)
                lemma_counts(c)  # raises on any violation
                for i, row in enumerate(c.entries, start=1):
                    assert row.count("WE") == row.count("NS") + chi_turn(c, i)
                for k in range(1, n + 1):
                    assert chi_turn(c, 2 * k - 1) + chi_turn(c, 2 * k) == 1


def test_c7_weight_equivalence_properties():
    with criterion("C7 weight equivalences P1-P8"):
        q = LaurentPoly.variable(QVAR)
        t = LaurentPoly.variable(TVAR)
        for lam, n in c4_shapes():
            subst = {yvar(k): q * LaurentPoly.variable(xvar(k))
                    for k in range(1, n + 1)}
            scale = {}
            for k in range(1, n + 1):
                scale[xvar(k)] = t * LaurentPoly.variable(xvar(k))
                scale[yvar(k)] = t * LaurentPoly.variable(yvar(k))
            t_weight = LaurentPoly.variable(TVAR, sum(lam))
            c0 = weights.cpm_q_norm_prefactor(n, "full")
            plain_total = LaurentPoly.zero()
            norm_total = LaurentPoly.zero()
            for st in cached_st(lam, n):
                w = wgt_st(st)
                a = bijections.st_to_uasm(st)
                g = bijections.st_to_gtp(st)
                # P1: one weight, three representations
                assert wgt_cpm(a, "CPM_XY") == w
                assert wgt_gtp(g, "GT_XY") == w
                # P2: both compass tables agree
                assert wgt_cpm(a, "CPM_XY_ALT") == w
                # P3: priming expansion
                psum = LaurentPoly.zero()
                for qt in primings(st):
                    psum = psum + weights.wgt_qt(qt)
                    # P4: rescaling the deformed weight per primed object
                    deformed = weights.wgt_qt(qt, deformed=True)
                    assert substitute(deformed, scale) == t_weight * weights.wgt_qt(qt)
                assert psum == w
                # P5: q-specialisation consistency
                assert wgt_st_q(st) == substitute(w, subst)
                plain = wgt_cpm(a, "CPM_Q_PLAIN")
                assert plain == substitute(wgt_cpm(a, "CPM_XY"), subst)
                assert wgt_gtp(g, "GT_Q") == \
                    substitute(wgt_gtp(g, "GT_XY"), subst)
                # P6 accumulations
                plain_total = plain_total + plain
                norm_total = norm_total + wgt_cpm(a, "CPM_Q_NORM")
                # P7: statistics form carries the prefactor
                assert c0 * qx_weight(g) == wgt_gtp(g, "GT_Q")
                # P8: counting identities on the recoded matrix
                lemma_counts(bijections.uasm_to_cpm(a))
            assert plain_total == norm_total  # P6


def test_c8_ambiguity_resolutions(tmp_path):
    with criterion("C8 ambiguity resolutions"):
        rep = ambiguity_report(n=2, max_weight=2)
        assert rep["cpm_q_norm_prefactor"]["full"]["satisfies"] is True
        assert rep["cpm_q_norm_prefactor"]["literal"]["satisfies"] is False
        assert rep["st_q_neighbour"]["below"]["satisfies"] is True
        path = tmp_path / "ambiguities.json"
        path.write_text(json.dumps(rep, indent=2), encoding="utf-8")
        assert json.loads(path.read_text(encoding="utf-8")) == rep


def test_c9_modular_engine_at_scale():
    with criterion("C9 modular verification at scale"):
        t0 = time.perf_counter()
        report = verify_big_modular(G.MU, G.N, trials=20, seed=20240601)
        assert report.equal
        assert report.mode == "MODULAR" and report.params["trials"] == 20
        # the requested case is beyond any enumeration budget; the fallback
        # must be documented in the report
        fb = report.params["fallback"]
        assert fb["requested"]["objects"] == 19781353800
        assert fb["chosen"]["objects"] <= fb["cap"]
        assert time.perf_counter() - t0 < 900.0


def test_c10_determinism():
    with criterion("C10 deterministic reports"):
        # golden-example reports
        assert json.dumps(c1_report()) == json.dumps(c1_report())
        assert json.dumps(c2_report()) == json.dumps(c2_report())
        assert json.dumps(c3_report()) == json.dumps(c3_report())
        # identity sweeps: a fresh run against C4's
        run1 = [r.to_json_dict(include_timing=False) for r in c4_run()]
        run2 = [r.to_json_dict(include_timing=False) for r in run_c4_sweeps()]
        assert json.dumps(run1) == json.dumps(run2)
        # seeded modular runs
        m1 = verify("THM_ST", (1,), 2, mode="modular", trials=12, seed=5)
        m2 = verify("THM_ST", (1,), 2, mode="modular", trials=12, seed=5)
        assert json.dumps(m1.to_json_dict(False)) == json.dumps(m2.to_json_dict(False))
        # the at-scale report, rerun
        b1 = verify_big_modular(G.MU, G.N, trials=20, seed=20240601)
        b2 = verify_big_modular(G.MU, G.N, trials=20, seed=20240601)
        assert json.dumps(b1.to_json_dict(False)) == json.dumps(b2.to_json_dict(False))
        # ambiguity findings
        assert json.dumps(ambiguity_report(2, 2)) == json.dumps(ambiguity_report(2, 2))


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
