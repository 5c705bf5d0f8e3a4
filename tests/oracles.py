"""Reference implementations that only the tests use.

Each recomputes, by a route of its own, something the package computes:
the weight of one object, the U-turn ASMs of a shape by brute force, the
compass-row counting identities, the interlacing rows below a GT row, the
narrow L_e statistic of the rejected reading, variable substitution in a
Laurent polynomial, sp_mu mod p by the Weyl character formula, the GT
left sides mod p by a walk over pattern rows, and the transfer's test of
whether a shape can still reach its target.  They read the package's
public types, the weights and the GT walk also its factor tables and its
cell, mark and row helpers, and nothing of the engine they check.  pytest
does not collect this file; the tests import it as they import golden.py.

The per-object weights (wgt_t ... qx_weight) weigh an object cell by cell,
entry by entry or position by position, where the package weighs it along
its path of shapes through the engine's step callbacks
(weights.path_weight).  The two share only factor_table, so each checks the
other, and both check the engine's sums.
"""

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Dict, Iterable, List, Mapping, Tuple

from symptok.algebra import ONE, TVAR, LaurentPoly, Residues, Sample, Var, xvar
from symptok.bijections import uasm_to_cpm
from symptok.matrices import (
    CompassPointMatrix,
    SympGTPattern,
    UTurnASM,
    _interlace,
    _mark,
    classify_blr,
    validate_uasm,
)
from symptok.shapes import as_strict_partition, letter_level
from symptok.tableaux import ShiftedTableau, SymplecticTableau, cell_cases
from symptok.weights import (
    CPM_SCHEMES,
    UnknownSchemeError,
    _TURN,
    _letter_rank,
    cpm_q_norm_prefactor,
    factor_table,
)

# -- per-object weights --------------------------------------------------------------


def _product(table: Mapping[object, LaurentPoly], ids: Iterable[object]) -> LaurentPoly:
    # one-term factors first, while the running product is still one term
    out = ONE
    for f in sorted((table[fid] for fid in ids), key=LaurentPoly.num_terms):
        out = out * f
    return out


def wgt_t(t: SymplecticTableau, deformed: bool = False) -> LaurentPoly:
    """Product over cells: k -> x_k, kbar -> t^2 x_k^-1 (t = 1 if undeformed),
    summed into one monomial."""
    exps: Dict[Var, int] = {}
    for _, _, code in t.cells():
        v, e = xvar(letter_level(code)), 1 if code % 2 else -1
        exps[v] = exps.get(v, 0) + e
        if e < 0 and deformed:
            exps[TVAR] = exps.get(TVAR, 0) + 2
    return LaurentPoly.monomial(exps)


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
    if scheme not in CPM_SCHEMES:
        raise UnknownSchemeError(scheme)
    out = cpm_q_norm_prefactor(a.n, c0_mode) if scheme == "CPM_Q_NORM" else ONE
    ids = cpm_factor_ids(uasm_to_cpm(a), scheme)
    return out * _product(factor_table(scheme, a.n), ids)


def _x_exponents(g: SympGTPattern) -> Dict[int, int]:
    """Net x_k exponent per level: sum_j (2 m(k,j) - mb(k,j) - mb(k-1,j))."""
    return {
        k: sum(2 * g.m(k, j) - g.mb(k, j) - g.mb(k - 1, j) for j in range(1, k + 1))
        for k in range(1, g.n + 1)
    }


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


def qx_weight(g: SympGTPattern) -> LaurentPoly:
    """(1+q)^B q^(Ro+Le) x^xwgt as an expanded polynomial."""
    return _product(factor_table("GT_QX", g.n), gt_factor_ids(g, "GT_QX"))


# -- U-turn ASMs by brute force ----------------------------------------------------

#: The largest grid brute_force_uasm filters: 3^16 matrices at most.
BRUTE_FORCE_CELLS = 16


def _alternating(row) -> bool:
    nz = [v for v in row if v]
    return all(a != b for a, b in zip(nz, nz[1:]))


def brute_force_uasm(lam, n: int) -> List[UTurnASM]:
    """Filter all {-1,0,1} matrices; exponential, for cross-checks only.

    Each row is drawn from the {-1,0,1} rows that pass the row-local rules
    (UA1 along the row, UA3, UA4's row sum), which validate_uasm checks
    anyway; every matrix of such rows is then validated in full.
    """
    lam = as_strict_partition(lam)
    m = lam[0]
    if 2 * n * m > BRUTE_FORCE_CELLS:
        raise ValueError(f"{2 * n}x{m} grid too large for brute force")
    rows = [row for row in itertools.product((-1, 0, 1), repeat=m)
            if _alternating(row) and sum(row) in (0, 1)
            and next((v for v in reversed(row) if v), 1) == 1]
    out = []
    for entries in itertools.product(rows, repeat=2 * n):
        a = UTurnASM(entries)
        if validate_uasm(a, lam)[0]:
            out.append(a)
    return out


# -- the narrow L_e -----------------------------------------------------------------


def le_statistic_setbuilder(g) -> int:
    """The narrower L_e that stops at j = k-1 (the rejected reading)."""
    marks = classify_blr(g)
    return sum(
        marks.barred[(k, j)] == "L" for k in range(1, g.n + 1) for j in range(1, k)
    )


# -- compass-row counting identities ----------------------------------------------


class LemmaViolationError(ValueError):
    """A compass-row counting identity failed."""


_TURN_START = ("WE", "SW", "NW")


def chi_turn(c: CompassPointMatrix, i: int) -> int:
    """1 if row i starts a horizontal strip: c_(i,1) in {WE, SW, NW}."""
    return 1 if c.entries[i - 1][0] in _TURN_START else 0


def lemma_counts(c: CompassPointMatrix) -> List[Dict[str, int]]:
    """Per-level compass-row counts with their four identities asserted:

    #NS_k + #NW_k + #NE_k = k-1,          #WE_k' + #NW_k' + #NE_k' = k,
    #WE_i = #NS_i + chi(P_i) for every row i,   chi(P_k) + chi(P_k') = 1.
    """
    report: List[Dict[str, int]] = []
    for k in range(1, c.n + 1):
        plain, bar = 2 * k - 1, 2 * k
        entry = {"k": k}
        for side, i in (("plain", plain), ("bar", bar)):
            for code in ("NS", "NW", "NE", "WE"):
                entry[f"{code.lower()}_{side}"] = c.entries[i - 1].count(code)
            entry[f"chi_{side}"] = chi_turn(c, i)
        if entry["ns_plain"] + entry["nw_plain"] + entry["ne_plain"] != k - 1:
            raise LemmaViolationError(f"level {k}: unbarred north-count != k-1")
        if entry["we_bar"] + entry["nw_bar"] + entry["ne_bar"] != k:
            raise LemmaViolationError(f"level {k}: barred west/north-count != k")
        if entry["we_plain"] != entry["ns_plain"] + entry["chi_plain"]:
            raise LemmaViolationError(f"row {plain}: #WE != #NS + chi(P)")
        if entry["we_bar"] != entry["ns_bar"] + entry["chi_bar"]:
            raise LemmaViolationError(f"row {bar}: #WE != #NS + chi(P)")
        if entry["chi_plain"] + entry["chi_bar"] != 1:
            raise LemmaViolationError(f"level {k}: chi(P_k) + chi(P_k') != 1")
        report.append(entry)
    return report


# -- substitution -------------------------------------------------------------------


def substitute(poly: LaurentPoly, mapping: Mapping[Var, LaurentPoly]) -> LaurentPoly:
    """poly with each variable v of mapping replaced by mapping[v], a unit
    monomial (single term, coefficient +-1), so that negative exponents stay
    well-defined; y_k -> q*x_k and x_k -> t*x_k are such substitutions."""
    images = _unit_images(tuple(mapping.items()))
    out: Dict[tuple, int] = {}
    for mono, c in poly.terms.items():
        exps: Dict[Var, int] = {}
        for v, e in mono:
            img, coef = images.get(v, (((v, 1),), 1))
            for w, we in img:
                exps[w] = exps.get(w, 0) + we * e
            if coef == -1 and e % 2:
                c = -c
        key = tuple(sorted((w, e) for w, e in exps.items() if e))
        out[key] = out.get(key, 0) + c
    return LaurentPoly(out)


@lru_cache(maxsize=8)
def _unit_images(items: tuple) -> Dict[Var, Tuple[tuple, int]]:
    """The (monomial, sign) of each image among the (variable, image) items,
    each checked to be a unit monomial.  The tests substitute one mapping
    into many polynomials, so each is decoded once."""
    images = {}
    for v, img in items:
        terms = img.terms
        if len(terms) != 1:
            raise ValueError("substitution image must be a single term")
        ((mono, coef),) = terms.items()
        if coef not in (1, -1):
            raise ValueError("substitution image must have coefficient +-1")
        images[v] = (mono, coef)
    return images


# -- sp_mu by the Weyl character formula -------------------------------------------


def _det_mod(rows: List[List[int]], prime: int) -> int:
    """The determinant mod prime, by Gaussian elimination."""
    a = [list(row) for row in rows]
    det = 1
    for c in range(len(a)):
        pivot = next((r for r in range(c, len(a)) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        det = det * a[c][c] % prime
        inv = pow(a[c][c], -1, prime)
        for r in range(c + 1, len(a)):
            f = a[r][c] * inv % prime
            a[r] = [(u - f * v) % prime for u, v in zip(a[r], a[c])]
    return det % prime


def weyl_sp_mu(mu, n: int, point: Mapping[Var, int], prime: int,
               deformed: bool = False) -> int:
    """sp_mu(x_1, ..., x_n) mod prime at point, as the ratio

        det(x_j^(l_i) - x_j^(-l_i)) / det(x_j^(n-i+1) - x_j^-(n-i+1)),

    l_i = mu_i + n - i + 1, of two n x n determinants.  Deformed, it is
    t^|mu| sp_mu(x/t).  Raises ZeroDivisionError where the denominator
    vanishes mod prime."""
    mu = tuple(mu) + (0,) * (n - len(mu))
    t_inv = pow(point[TVAR], -1, prime) if deformed else 1
    xs = [point[xvar(j)] * t_inv % prime for j in range(1, n + 1)]

    def det(exponents):
        return _det_mod([[(pow(x, e, prime) - pow(x, -e, prime)) % prime for x in xs]
                         for e in exponents], prime)

    den = det([n - i for i in range(n)])
    if not den:
        raise ZeroDivisionError("the Weyl denominator vanishes at this point")
    value = det([mu[i] + n - i for i in range(n)]) * pow(den, -1, prime) % prime
    return value * pow(point[TVAR], sum(mu), prime) % prime if deformed else value


# -- interlacing GT rows ------------------------------------------------------------


def interlace(above: Tuple[int, ...], length: int) -> List[Tuple[int, ...]]:
    """The rows r of the given length with above[j] >= r[j] >= above[j+1]
    (a missing above[j+1] reads as 0) that strictly decrease: every product
    of the entries' ranges, in lexicographic order, filtered."""
    padded = above + (0,) * (length + 1 - len(above))
    ranges = [range(padded[j + 1], padded[j] + 1) for j in range(length)]
    return [r for r in itertools.product(*ranges)
            if all(r[j] > r[j + 1] for j in range(length - 1))]


# -- GT left sides by a walk over pattern rows -------------------------------------


def gt_left_side(lam, n: int, scheme: str, points: List[Mapping[Var, int]],
                 prime: int, narrow_le: bool = False) -> Residues:
    """The sum of the GT_XY, GT_Q or GT_QX weights of the strict GT patterns
    with top row lam, at each point mod prime.

    The rows are walked from the top row n' = lam down to row 1, by
    _interlace and count_gtp's seed rule, and each row keeps the summed
    weight of the pattern rows above it.  The step from row k' to row k
    reads the barred marks of level k (_mark off the diagonal, mb(k,k) >
    m(k,k) on it) and the unbarred diagonal mark (m(k,k) > 0); the step
    from row k to row (k-1)' reads the unbarred marks off the diagonal.
    The two steps multiply in x_k^(|m_k| - |mb_k|) and x_k^(|m_k| -
    |mb_(k-1)|), which make up level k's exponent.  Under GT_QX a step
    counts (1+q) per B mark, the diagonal pair jointly, and q per unbarred R
    and barred L mark; narrow_le leaves the diagonal L out (the rejected
    reading).  Every factor is a factor_table entry, lifted once."""
    lift = Sample(points, prime).lift
    vals = {fid: lift(f) for fid, f in factor_table(scheme, n).items()}
    one = lift(ONE)

    def step_ids(k: int, upper, lower, barred: bool) -> tuple:
        marks = [_mark(upper[j], lower[j], upper[j + 1]) for j in range(k - 1)]
        m, other = (lower, upper) if barred else (upper, lower)
        e = sum(m) - sum(other)
        ids = [("x", k, 1 if e > 0 else -1)] * abs(e)
        if barred:
            diagonal_b = "B" if upper[k - 1] > lower[k - 1] else "L"
            diagonal_u = "B" if lower[k - 1] > 0 else "L"
        if scheme != "GT_QX":
            ids += [("b" if barred else "u", mark, k) for mark in marks]
            if barred:
                ids += [("b", diagonal_b, k), ("u", diagonal_u, k)]
        elif barred:
            ids += [("B",)] * (marks.count("B") + (diagonal_b == diagonal_u == "B"))
            ids += [("q",)] * (marks.count("L") + (diagonal_b == "L" and not narrow_le))
        else:
            ids += [("B",)] * marks.count("B") + [("q",)] * marks.count("R")
        return tuple(fid for fid in ids if fid in vals)

    products: Dict[tuple, Residues] = {}
    level = {tuple(lam): one}
    for k in range(n, 0, -1):
        for barred, length in ((True, k), (False, k - 1)):
            nxt: Dict[tuple, Residues] = {}
            for upper, value in level.items():
                for lower in _interlace(upper, length):
                    if barred and lower[-1] == 0 and upper[-1] == 0:
                        continue  # seed rule at (k, k)
                    ids = step_ids(k, upper, lower, barred)
                    f = products.get(ids)
                    if f is None:
                        f = products[ids] = reduce(operator.mul,
                                                   (vals[fid] for fid in ids), one)
                    w = value * f
                    nxt[lower] = nxt[lower] + w if lower in nxt else w
            level = nxt
    return level.get((), lift(LaurentPoly.zero()))


# -- the transfer's letters-left test ----------------------------------------------


def reaches(T, lam, letters_left: int) -> bool:
    """Whether a path of shapes through T can still end at lam (both of one
    length): T fits in lam, and at each offset a the rows still to fill
    there (T_i <= a < lam_i) are no more than the letters left, since no
    two cells of one letter share an offset.  Every offset is counted, with
    no early answer from the number of rows."""
    fits = all(t <= top for t, top in zip(T, lam))
    return fits and all(sum(b <= a < top for b, top in zip(T, lam)) <= letters_left
                        for a in T)
