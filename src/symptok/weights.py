"""Weight functions for tableaux, U-turn ASMs (via compass codes), and
Gelfand-Tsetlin patterns, all producing exact Laurent polynomials.

Scheme ids (the CLI speaks these names):

  T_DEFORMED   ordinary tableau, k -> x_k, k' -> t^2/x_k
  QT_DEFORMED  primed shifted tableau, k/k'/kbar/kbar' -> x, y, t^2/x, t^2/y
  ST_XY        shifted tableau, three-case row/column rule over x_k, y_k
  CPM_XY       compass matrix, WE -> x_k+y_k, NW -> y_k, SW -> x_k (bars inverted)
  CPM_XY_ALT   compass matrix, the sum factor moved from WE to NS plus a
               first-column correction factor
  GT_XY        pattern, saturation-mark factors times x-exponent differences
  ST_Q         ST_XY specialised along y_k = q x_k
  CPM_Q_PLAIN  CPM_XY specialised along y_k = q x_k (prefactor 1)
  CPM_Q_NORM   rebalanced q-weighting with prefactor (1+q)^n / q^(n(n+1)/2)
  GT_Q         GT_XY specialised along y_k = q x_k
  GT_QX        the statistics form (1+q)^B q^(Ro+Le) x^xwgt

The two q-weighting ambiguities keep switchable variants: wgt_st_q takes the
neighbour convention ("below" is the specialisation-consistent default,
"above" the rejected alternative) and wgt_cpm takes the CPM_Q_NORM prefactor
mode ("full" default, "literal" the rejected (1+q)/q^(n(n+1)/2)).

Every scheme is a product of local factors kept in factor_table (end of
module): T_DEFORMED and T (its t = 1 form, the weight of sp_mu) per letter,
ST_XY, QT_DEFORMED (the primed sum of primed_weight_sum) and ST_Q per
(letter, neighbour case), and the CPM and GT schemes as listed there.  The
xy builders make ST_Q, CPM_Q_PLAIN and GT_Q along y_k = q x_k; CPM_Q_NORM
and GT_QX, which are no such specialisation, are written by hand.  The
per-object weights multiply the entries, except wgt_t and wgt_qt, which sum
the exponents of one monomial; the engine lifts the same entries to
polynomials or to values at sample points.

SCHEMES holds one row per scheme the CLI speaks: the object family it weighs
and the convention knobs it reads.  Adding a scheme is one row there, with
its factors in factor_table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from .algebra import ONE, QVAR, TVAR, LaurentPoly, xvar, yvar
from .matrices import (
    CPM_CODES,
    CompassPointMatrix,
    SympGTPattern,
    UTurnASM,
    classify_blr,
)
from .shapes import as_rank, letter_level
from .tableaux import (
    PrimedShiftedTableau,
    ShiftedTableau,
    SymplecticTableau,
    UnknownConventionError,
    cell_cases,
)

class UnknownSchemeError(ValueError):
    pass


@dataclass(frozen=True)
class Scheme:
    """What a weighing scheme weighs and which convention knobs it reads."""

    family: str  # "t", "qt", "st", "uasm" or "gtp": a key of cli.FAMILIES
    reads: Tuple[str, ...] = ()


#: One row per scheme the CLI speaks.  Only COR_UASM_Q has the CPM_Q
#: schemes, and its cpm_q_scheme knob picks between them.
SCHEMES = {
    "T_DEFORMED": Scheme("t"),
    "QT_DEFORMED": Scheme("qt"),
    "ST_XY": Scheme("st"),
    "CPM_XY": Scheme("uasm"),
    "CPM_XY_ALT": Scheme("uasm"),
    "GT_XY": Scheme("gtp"),
    "ST_Q": Scheme("st", ("st_q_neighbour",)),
    "CPM_Q_PLAIN": Scheme("uasm", ("cpm_q_scheme",)),
    "CPM_Q_NORM": Scheme("uasm", ("cpm_q_scheme", "c0_mode")),
    "GT_Q": Scheme("gtp"),
    "GT_QX": Scheme("gtp"),
}

CPM_SCHEMES = tuple(name for name, row in SCHEMES.items() if row.family == "uasm")


def _x(k: int, e: int = 1) -> LaurentPoly:
    return LaurentPoly.variable(xvar(k), e)


def _y(k: int, e: int = 1) -> LaurentPoly:
    return LaurentPoly.variable(yvar(k), e)


def _q(e: int = 1) -> LaurentPoly:
    return LaurentPoly.variable(QVAR, e)


def _qx(k: int, e: int = 1) -> LaurentPoly:
    """y_k^e along the specialisation y_k = q x_k: q^e x_k^e."""
    return _q(e) * _x(k, e)


def _t2() -> LaurentPoly:
    return LaurentPoly.variable(TVAR, 2)


# -- tableau weights ----------------------------------------------------------


def _letter_rank(rows: Iterable[Iterable[int]]) -> int:
    """The least rank, at least 1, whose alphabet holds every letter of the rows."""
    return letter_level(max((code for row in rows for code in row), default=1))


def _cell_monomial(cells: Iterable[Tuple[int, bool]], deformed: bool) -> LaurentPoly:
    """The product of the (code, primed) cells' factors k, k', kbar, kbar'
    -> x_k, y_k, t^2/x_k, t^2/y_k (t = 1 if undeformed).

    The exponents are summed into one monomial, without factor_table, so
    that the engine's sums are checked against an independent reference and
    a cell of a high letter costs no table of its whole rank.
    """
    exps = Counter()
    for code, primed in cells:
        v = (yvar if primed else xvar)(letter_level(code))
        if code % 2:
            exps[v] += 1
        else:  # barred: invert, and deform by t^2
            exps[v] -= 1
            if deformed:
                exps[TVAR] += 2
    return LaurentPoly.monomial(exps)


def wgt_t(t: SymplecticTableau, deformed: bool = False) -> LaurentPoly:
    """Product over cells: k -> x_k, kbar -> t^2 x_k^-1 (t = 1 if undeformed)."""
    return _cell_monomial(((code, False) for _, _, code in t.cells()), deformed)


def wgt_qt(qt: PrimedShiftedTableau, deformed: bool = False) -> LaurentPoly:
    """Product over cells: k, k', kbar, kbar' -> x_k, y_k, t^2/x_k, t^2/y_k."""
    return _cell_monomial(((code, primed) for _, _, code, primed in qt.cells()),
                          deformed)


def _st_case_factor_xy(code: int, case: str, y=_y) -> LaurentPoly:
    k = (code + 1) // 2
    e = 1 if code % 2 else -1
    if case == "left":
        return _x(k, e)
    if case in ("below", "above"):
        return y(k, e)
    return _x(k, e) + y(k, e)


def wgt_st(st: ShiftedTableau) -> LaurentPoly:
    """Three-case rule: equal-left keeps x, equal-below keeps y, free cells
    take x + y; barred letters use the inverted variables."""
    return _product(factor_table("ST_XY", _letter_rank(st.rows)), cell_cases(st))


def primed_weight_sum(st: ShiftedTableau, deformed: bool = False) -> LaurentPoly:
    """Sum of wgt_qt over all primings of st, computed cell by cell.

    A free cell contributes x + y (times t^2 when barred and deformed);
    forced cells contribute their single weight.  Equals wgt_st at t = 1.
    """
    scheme = "QT_DEFORMED" if deformed else "ST_XY"
    return _product(factor_table(scheme, _letter_rank(st.rows)), cell_cases(st))


def wgt_st_q(st: ShiftedTableau, neighbour: str = "below") -> LaurentPoly:
    """The y_k = q x_k specialisation of wgt_st.

    neighbour="below" matches the substitution cell for cell; "above" is the
    alternative reading (the doubled factor moves to the lower cell of each
    vertical pair) kept only so reports can evaluate it.
    """
    return _product(factor_table("ST_Q", _letter_rank(st.rows)),
                    cell_cases(st, neighbour))


# -- compass-point weights ------------------------------------------------------

_TURN_START = frozenset(("WE", "SW", "NW"))
_TURN = "TURN"  # id code of the CPM_XY_ALT first-column term


def _cpm_entry_factor(scheme: str, code: str, k: int, barred: bool, y=_y) -> LaurentPoly:
    e = -1 if barred else 1
    if scheme in ("CPM_XY", "CPM_Q_PLAIN"):
        table = {"WE": _x(k, e) + y(k, e), "NW": y(k, e), "SW": _x(k, e)}
    elif scheme == "CPM_XY_ALT":
        table = {"NS": _x(k, e) + _y(k, e), "NW": _y(k, e), "SW": _x(k, e),
                 _TURN: _x(k, e) + _y(k, e)}
    else:  # CPM_Q_NORM
        if barred:
            table = {"WE": _x(k, e), "NS": ONE + _q(), "NE": _q(), "NW": _x(k, e),
                     "SW": _x(k, e)}
        else:
            table = {"WE": _x(k, e), "NS": ONE + _q(), "NW": _q() * _x(k, e),
                     "SW": _x(k, e)}
    return table.get(code, ONE)


def cpm_q_norm_prefactor(n: int, c0_mode: str = "full") -> LaurentPoly:
    """(1+q)^n / q^(n(n+1)/2), or the rejected literal (1+q) / q^(n(n+1)/2)."""
    n = as_rank(n)
    if c0_mode not in ("full", "literal"):
        raise UnknownConventionError(f"unknown c0 mode {c0_mode!r}")
    exponent = n if c0_mode == "full" else 1
    return (ONE + _q()) ** exponent * _q(-(n * (n + 1)) // 2)


def cpm_factor_ids(c: CompassPointMatrix, scheme: str) -> List[Tuple[str, int]]:
    """(code, row) of every entry whose factor is not 1, plus (TURN, row) for
    each row that starts a strip when the scheme has that term."""
    table = factor_table(scheme, c.n)
    ids: List[Tuple[str, int]] = []
    for i, row in enumerate(c.entries, start=1):
        ids += [fid for code in row if (fid := (code, i)) in table]
        if row[0] in _TURN_START and (_TURN, i) in table:
            ids.append((_TURN, i))
    return ids


def wgt_cpm(a: UTurnASM, scheme: str, c0_mode: str = "full") -> LaurentPoly:
    """Weight of a U-turn ASM through its compass-point recoding."""
    from .bijections import uasm_to_cpm

    if scheme not in CPM_SCHEMES:
        raise UnknownSchemeError(scheme)
    out = cpm_q_norm_prefactor(a.n, c0_mode) if scheme == "CPM_Q_NORM" else ONE
    ids = cpm_factor_ids(uasm_to_cpm(a), scheme)
    return out * _product(factor_table(scheme, a.n), ids)


# -- pattern weights --------------------------------------------------------------


def _gt_mark_factor(side: str, mark: str, k: int, y=_y) -> LaurentPoly:
    """GT_XY's factor of the unbarred ("u") or barred ("b") mark at level k."""
    e = 1 if side == "u" else -1
    return {"B": _x(k, e) + y(k, e), "L": _x(k, e), "R": y(k, e)}[mark]


def _x_exponents(g: SympGTPattern) -> Dict[int, int]:
    """Net x_k exponent per level: sum_j (2 m(k,j) - mb(k,j) - mb(k-1,j))."""
    return {
        k: sum(2 * g.m(k, j) - g.mb(k, j) - g.mb(k - 1, j) for j in range(1, k + 1))
        for k in range(1, g.n + 1)
    }


def gt_factor_ids(g: SympGTPattern, scheme: str) -> List[tuple]:
    """|e| unit ids ("x", k, sign of e) per level, then the mark ids
    (side, mark, k) of every position (GT_XY, GT_Q), or B ids for 1+q and
    Ro+Le ids for q (GT_QX)."""
    table = factor_table(scheme, g.n)
    if scheme == "GT_QX":
        s = gt_statistics(g)
        exps = s.x_exponents
        marks_ids = [("B",)] * s.b + [("q",)] * (s.r_odd + s.l_even)
    else:
        marks = classify_blr(g)
        exps = _x_exponents(g)
        marks_ids = [
            fid for (k, j), u in marks.unbarred.items()
            for fid in (("u", u, k), ("b", marks.barred[(k, j)], k)) if fid in table
        ]
    ids: List[tuple] = []
    for k, e in exps.items():
        ids += [("x", k, 1 if e > 0 else -1)] * abs(e)
    return ids + marks_ids


def wgt_gtp(g: SympGTPattern, scheme: str) -> LaurentPoly:
    """Saturation-mark weighting of a pattern (xy or q-specialised form)."""
    if scheme not in ("GT_XY", "GT_Q"):
        raise UnknownSchemeError(scheme)
    return _product(factor_table(scheme, g.n), gt_factor_ids(g, scheme))


@dataclass(frozen=True)
class GTStatistics:
    """The counting statistics of a pattern and its x-exponent vector."""

    b: int
    r_odd: int
    l_even: int
    x_exponents: Dict[int, int]


def gt_statistics(g: SympGTPattern) -> GTStatistics:
    """B counts doubly-strict positions (diagonal pairs jointly), R_o counts
    unbarred right-saturations, L_e barred left-saturations; exponents are
    sum_j (2 m(k,j) - mb(k,j) - mb(k-1,j)) per level."""
    marks = classify_blr(g)
    b = r_odd = l_even = 0
    for k in range(1, g.n + 1):
        for j in range(1, k):
            b += (marks.unbarred[(k, j)] == "B") + (marks.barred[(k, j)] == "B")
        b += (marks.unbarred[(k, k)] == "B") and (marks.barred[(k, k)] == "B")
        for j in range(1, k + 1):
            r_odd += marks.unbarred[(k, j)] == "R"
            l_even += marks.barred[(k, j)] == "L"
    return GTStatistics(b, r_odd, l_even, _x_exponents(g))


def qx_weight(g: SympGTPattern) -> LaurentPoly:
    """(1+q)^B q^(Ro+Le) x^xwgt as an expanded polynomial."""
    return _product(factor_table("GT_QX", g.n), gt_factor_ids(g, "GT_QX"))


def qx_weight_factored(g: SympGTPattern) -> str:
    """Display form like ``(1+q)^7 * q^7 * x2 * x4^-4``."""
    s = gt_statistics(g)
    parts: List[str] = []
    if s.b == 1:
        parts.append("(1+q)")
    elif s.b > 1:
        parts.append(f"(1+q)^{s.b}")
    e = s.r_odd + s.l_even
    if e == 1:
        parts.append("q")
    elif e > 1:
        parts.append(f"q^{e}")
    for k in sorted(s.x_exponents):
        exp = s.x_exponents[k]
        if exp == 1:
            parts.append(f"x{k}")
        elif exp:
            parts.append(f"x{k}^{exp}")
    return " * ".join(parts) if parts else "1"


# -- local factor tables ------------------------------------------------------------
#
# Every scheme weighs an object by a product of local factors.
# factor_table(scheme, n) names every factor that is not 1 by a small id;
# tableaux.cell_cases, cpm_factor_ids and gt_factor_ids list the ids
# of one object.  The weights above other than wgt_t and wgt_qt multiply the
# table entries, and the engine lifts the same entries to its value type.


@lru_cache(maxsize=64, typed=True)
def factor_table(scheme: str, n: int) -> Mapping[object, LaurentPoly]:
    """Read-only id -> factor map of the scheme's local factors at rank n:

      T, T_DEFORMED           letter code (the weights of sp_mu's tableaux)
      ST_XY, QT_DEFORMED      (code, case), case in left / below / free
                              (wgt_st and primed_weight_sum)
      ST_Q                    (code, case), case in left / below / above / free
      CPM_*        (compass code, row) and (TURN, row), rows 1..2n
      GT_XY, GT_Q  (side, mark, level), side "u" or "b", and ("x", level, +-1)
      GT_QX        ("B",) for 1+q, ("q",) for q, and ("x", level, +-1)

    ST_Q, CPM_Q_PLAIN and GT_Q are their xy forms along y_k = q x_k (y = _qx);
    CPM_Q_NORM and GT_QX are no specialisation and are written out.
    """
    n = as_rank(n)
    y = _qx if scheme in ("ST_Q", "CPM_Q_PLAIN", "GT_Q") else _y
    levels = range(1, n + 1)
    codes = range(1, 2 * n + 1)
    if scheme in ("T", "T_DEFORMED"):
        t2 = _t2() if scheme == "T_DEFORMED" else ONE
        table = {code: _x(letter_level(code)) if code % 2
                 else t2 * _x(letter_level(code), -1) for code in codes}
    elif scheme in ("ST_XY", "QT_DEFORMED"):
        t2 = _t2() if scheme == "QT_DEFORMED" else ONE
        table = {(code, case): _st_case_factor_xy(code, case) * (ONE if code % 2 else t2)
                 for code in codes for case in ("left", "below", "free")}
    elif scheme == "ST_Q":
        table = {(code, case): _st_case_factor_xy(code, case, y)
                 for code in codes for case in ("left", "below", "above", "free")}
    elif scheme in CPM_SCHEMES:
        table = {(code, i): _cpm_entry_factor(scheme, code, (i + 1) // 2, i % 2 == 0, y)
                 for i in range(1, 2 * n + 1) for code in CPM_CODES + (_TURN,)}
    elif scheme in ("GT_XY", "GT_Q"):
        table = {(side, mark, k): _gt_mark_factor(side, mark, k, y)
                 for side in "ub" for mark in "BLR" for k in levels}
    elif scheme == "GT_QX":
        table = {("B",): ONE + _q(), ("q",): _q()}
    else:
        raise UnknownSchemeError(scheme)
    if scheme.startswith("GT_"):
        table.update({("x", k, e): _x(k, e) for k in levels for e in (1, -1)})
    return MappingProxyType({fid: f for fid, f in table.items() if f != ONE})


def _product(table: Mapping[object, LaurentPoly], ids: Iterable[object]) -> LaurentPoly:
    # one-term factors first, while the running product is still one term
    out = ONE
    for f in sorted((table[fid] for fid in ids), key=LaurentPoly.num_terms):
        out = out * f
    return out
