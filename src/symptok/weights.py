"""Weighing schemes for tableaux, U-turn ASMs (via compass codes), and
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

The two q-weighting ambiguities keep switchable variants: ST_Q takes the
neighbour convention ("below" is the specialisation-consistent default,
"above" the rejected alternative) and CPM_Q_NORM the prefactor mode ("full"
default, "literal" the rejected (1+q)/q^(n(n+1)/2)).

Every scheme is a product of local factors kept in factor_table: T_DEFORMED
and T (its t = 1 form, the weight of sp_mu) per letter, ST_XY, QT_DEFORMED
(the sum over the primings) and ST_Q per (letter, neighbour case), and the
CPM and GT schemes as listed there.  The xy builders make ST_Q, CPM_Q_PLAIN
and GT_Q along y_k = q x_k; CPM_Q_NORM and GT_QX, which are no such
specialisation, are written by hand.

Which factors an object takes is written once, as step callbacks.  The
cells of a tableau with letter <= c form a shape S_c, so a tableau is a path
S_0 -> ... -> S_2n of shapes, which are also the rows of a GT pattern and
the column sums of a U-turn ASM after each alphabet row.  A family's steps
are a triple (rule, key, names) (_weighing, with the table and prefactor):
its shape rule (_SHAPE_RULES) says which shapes a step may reach, key(c,
S, T) counts the cells of a step of letter c into a flat tuple of small
ints, and names(c) lists the ids that the key's positions count (_pairs).
The engine (identities._transfer) keeps one product per letter and key
and sums the products over all paths; path_weight multiplies the named
factors along one path.  Only wgt_qt weighs cell by cell: it weighs one
priming, which the summed QT_DEFORMED factors do not see.  The per-object
weights of tests/oracles.py share only factor_table with the callbacks,
as the independent check of both.

SCHEMES holds one row per scheme the CLI speaks: the object family it weighs
and the convention knobs it reads.  Adding a scheme is one row there, with
its factors in factor_table and its family's steps in _weighing.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from functools import lru_cache, reduce
from itertools import chain
from operator import itemgetter, mul
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, NamedTuple, Tuple

from .algebra import ONE, QVAR, TVAR, LaurentPoly, xvar, yvar
# the convention error is re-exported for the callers of check_conventions
from .shapes import (
    CPM_CODES,
    UnknownConventionError,
    _step_ranges,
    as_rank,
    letter,
    letter_level,
)

# the engine weighs no object, so only _path and _path_ids load the object
# modules, when one object is weighed
if TYPE_CHECKING:
    from .matrices import SympGTPattern, UTurnASM
    from .tableaux import PrimedShiftedTableau, ShiftedTableau, SymplecticTableau


class UnknownSchemeError(ValueError):
    """A scheme id that no row names, or one that weighs another family."""


class ForbiddenPathError(ValueError):
    """An object whose rows give no path of its family: rows that the path
    does not read back, or a step that the family forbids."""


class UnusedConventionError(ValueError):
    """A convention knob set away from its default for a weighing that never
    reads it, where the output would not show that it did nothing."""


class Scheme(NamedTuple):
    """What a weighing scheme weighs and which convention knobs it reads."""

    family: str  # "t", "qt", "st", "uasm" or "gtp": a key of cli.families()
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

#: The accepted names of each convention knob, the default first.
CONVENTIONS = {
    "cpm_q_scheme": ("plain", "norm"),
    "c0_mode": ("full", "literal"),
    "st_q_neighbour": ("below", "above"),
}


def _row(scheme: str) -> Scheme:
    """The SCHEMES row of scheme; T, the weighting of sp_mu's tableaux, is
    T_DEFORMED at t = 1 and no CLI scheme."""
    row = SCHEMES.get("T_DEFORMED" if scheme == "T" else scheme)
    if row is None:
        raise UnknownSchemeError(scheme)
    return row


def check_conventions(scheme: str, reader: str, **given: str) -> None:
    """Refuse the convention knobs given for a weighing under scheme: an
    unknown name raises UnknownConventionError, and a knob set away from its
    default that scheme never reads (SCHEMES) raises UnusedConventionError
    naming reader.  verify, path_weight and the CLI's weight command share
    this rule."""
    for name, value in given.items():
        if value not in CONVENTIONS[name]:
            raise UnknownConventionError(f"unknown {name} {value!r}")
    reads = _row(scheme).reads
    for name, value in given.items():
        if value != CONVENTIONS[name][0] and name not in reads:
            raise UnusedConventionError(f"{name} {value!r} is not read by {reader}")


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


def wgt_qt(qt: PrimedShiftedTableau, deformed: bool = False) -> LaurentPoly:
    """Product over cells: k, k', kbar, kbar' -> x_k, y_k, t^2/x_k, t^2/y_k
    (t = 1 if undeformed), summed into one monomial without factor_table, so
    that a cell of a high letter costs no table of its whole rank."""
    exps = {}
    # one update per distinct (letter, primed) pair, by its cell count
    cells = zip(chain.from_iterable(qt.base.rows), chain.from_iterable(qt.primed))
    for (code, primed), count in Counter(cells).items():
        v = (yvar if primed else xvar)(letter_level(code))
        if code % 2:
            exps[v] = exps.get(v, 0) + count
        else:  # barred: invert, and deform by t^2
            exps[v] = exps.get(v, 0) - count
            if deformed:
                exps[TVAR] = exps.get(TVAR, 0) + 2 * count
    return LaurentPoly.monomial(exps)


def _letter_factor(scheme: str, code: int) -> LaurentPoly:
    """T's k -> x_k and kbar -> 1/x_k, kbar times t^2 under T_DEFORMED."""
    t2 = _t2() if scheme == "T_DEFORMED" and not code % 2 else ONE
    return t2 * _x(letter_level(code), 1 if code % 2 else -1)


def _st_case_factor_xy(code: int, case: str, y=_y) -> LaurentPoly:
    k = (code + 1) // 2
    e = 1 if code % 2 else -1
    if case == "left":
        return _x(k, e)
    if case in ("below", "above"):
        return y(k, e)
    return _x(k, e) + y(k, e)


# -- compass-point weights ------------------------------------------------------

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


# -- pattern weights --------------------------------------------------------------


def _gt_mark_factor(side: str, mark: str, k: int, y=_y) -> LaurentPoly:
    """GT_XY's factor of the unbarred ("u") or barred ("b") mark at level k."""
    e = 1 if side == "u" else -1
    return {"B": _x(k, e) + y(k, e), "L": _x(k, e), "R": y(k, e)}[mark]


def qx_weight_factored(g: SympGTPattern) -> str:
    """GT_QX's display form like ``(1+q)^7 * q^7 * x2 * x4^-4``: B, Ro+Le
    and the x exponents are the counts of its ids along g's path."""
    counts = Counter()
    for fid, e in _path_ids(g, "GT_QX")[1]:
        counts[fid] += e
    powers = [("(1+q)", counts[("B",)]), ("q", counts[("q",)])] + [
        (f"x{k}", counts[("x", k, 1)] - counts[("x", k, -1)]) for k in range(1, g.n + 1)]
    parts = [base if e == 1 else f"{base}^{e}" for base, e in powers if e]
    return " * ".join(parts) if parts else "1"


# -- local factor tables ------------------------------------------------------------
#
# Every scheme weighs an object by a product of local factors.
# factor_table(scheme, n) names every factor that is not 1 by a small id;
# the step callbacks below count each step of a path into a key and name
# the id that each position of the key counts.


@lru_cache(maxsize=64, typed=True)
def factor_table(scheme: str, n: int) -> Mapping[object, LaurentPoly]:
    """Read-only id -> factor map of the scheme's local factors at rank n:

      T, T_DEFORMED           letter code (the weights of sp_mu's tableaux)
      ST_XY, QT_DEFORMED      (code, case), case in left / below / free
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
        table = {code: _letter_factor(scheme, code) for code in codes}
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


# -- step callbacks -------------------------------------------------------------------
#
# A family's steps (rule, key, names): rule(c, T) says whether letter c may
# reach T, key(c, S, T) counts an allowed step's cells into a flat tuple of
# small ints and gives its free cells, and names(c) lists, in key order, the
# factor ids that the key's positions count.  Two keys of one letter name
# different (id, power) pairs, so a walk names and multiplies each letter's
# factors once per key.


def _pairs(names, key) -> tuple:
    """The (id, power) pairs of a step: each nonzero count with its name."""
    return tuple([(fid, e) for fid, e in zip(names, key) if e])


def _shifted_step(c: int, T) -> bool:
    """Whether a shifted tableau may reach T with letter c: T is strict and
    row i holds a cell by the barred letter of level i + 1 (ST4)."""
    return not (any(b and b >= a for a, b in zip(T, T[1:])) or any(
        not t and c >= letter(i + 1, True) for i, t in enumerate(T)))


def _letter_key(c: int, S, T):
    """Ordinary tableaux: the cells grown, each of which carries its letter."""
    return (sum(T) - sum(S),), 0


#: Each family's shape rule: ordinary tableaux may reach every shape.
_SHAPE_RULES = {"t": lambda c, T: True,
                **dict.fromkeys(("st", "qt", "uasm", "gtp"), _shifted_step)}
_letter_cells = _SHAPE_RULES["t"], _letter_key, lambda c: (c,)


def _shifted_cells(neighbour: str):
    """Shifted tableaux.  A new cell whose left neighbour is new too is
    "left".  A row's first new cell, at offset s, takes the neighbour case
    when the cell below it (offset s - 1 of the next row) or, in the "above"
    reading, above it (offset s + 1 of the previous row) is new too, and is
    "free" otherwise.  The key counts the (left, neighbour, free) cells."""
    below = neighbour == "below"

    def key(c: int, S, T):
        lefts = nears = frees = 0
        rows, last = (c + 1) >> 1, len(S) - 1  # rows from level k on are kept
        for i in range(rows if rows <= last else last + 1):
            s, t = S[i], T[i]
            if t > s:
                lefts += t - s - 1
                if (i < last and S[i + 1] < s <= T[i + 1] if below
                        else i and S[i - 1] <= s + 1 < T[i - 1]):
                    nears += 1
                else:
                    frees += 1
        return (lefts, nears, frees), frees

    def names(c: int):
        return (c, "left"), (c, neighbour), (c, "free")
    return _SHAPE_RULES["st"], key, names


def _pattern_cells(table: Mapping, narrow_le: bool = False):
    """Strict GT patterns.  S_c is pattern row c: m(k, j) = S_(2k-1)[j-1]
    and mb(k, j) = S_(2k)[j-1] (the bijections' dictionary), so the steps
    are the shifted ones, and step c at level k marks the unbarred ("u",
    odd c) or barred ("b", even c) positions of level k from the triples
    (T[j-1], S[j-1], T[j]), j < k; the diagonal is B when T[k-1] > S[k-1]
    (S[k-1] = mb(k-1, k) = 0 on odd steps).  Its x part is x_k^(|T|-|S|) on
    odd steps and x_k^(|S|-|T|) on even ones.  Under GT_QX a step counts
    ("B",) per B mark off the diagonal, plus the joint diagonal on even
    steps, and ("q",) per R mark on odd steps and L mark on even ones;
    narrow_le leaves the diagonal L out (the rejected set-builder L_e).
    The key is (cells grown, B, L, R), or (cells grown, B, q) under GT_QX."""
    statistics = ("q",) in table

    def key(c: int, S, T):
        k, odd = (c + 1) >> 1, c & 1  # letter_level(c), and whether c is unbarred
        b = l = r = 0
        for j in range(k - 1):
            if T[j] == S[j]:
                l += 1
            elif S[j] == T[j + 1]:
                r += 1
            else:
                b += 1
        diagonal = T[k - 1] > S[k - 1]  # a B mark, else an L mark
        grown = sum(T) - sum(S)
        if statistics:
            return (grown, b + (diagonal and not odd and S[k - 1] > 0),
                    r if odd else l + (not diagonal and not narrow_le)), 0
        return (grown, b + diagonal, l + (not diagonal), r), 0

    def names(c: int):
        k, odd = letter_level(c), c % 2
        marks = [("B",), ("q",)] if statistics else [
            ("u" if odd else "b", mark, k) for mark in "BLR"]
        return [("x", k, 1 if odd else -1)] + marks
    return _SHAPE_RULES["gtp"], key, names


def _compass_cells(width: int, table: Mapping):
    """U-turn ASMs of width columns through their compass codes.  Column v
    has summed to 1 after alphabet row c exactly when v is a part of S_c
    (uasm_to_gtp), so the steps are the shifted ones and row c is the 0/1
    column vector of T minus that of S: +1 is WE, -1 is NS, and a 0 takes
    its code from the sign of its nearest nonzero above (+1 when its column
    is marked in S) and to its right (+1 when the row sums to 1 right of
    it).  The ids are the (code, c) in the table, plus (TURN, c) when the
    table has it and the row's first entry starts a strip.

    S and T are strict shapes whose parts interlace, as the shape rule and
    the walk's steps give them, so the row is read by merging the two part
    tuples from the right: a part of both is a zero under a mark, a part of
    one is WE or NS, and the columns between two parts are zeros under no
    mark, all of one code.  The key holds the counts of only the ids that
    the table holds in row c: its codes in id order, then whether the row
    takes the TURN factor where the table holds one; which ids those are
    is decided once per letter."""
    counted = CPM_CODES + (_TURN,)  # the positions of the counts below
    letters: Dict[int, tuple] = {}  # c -> the ids held in row c, their picker, TURN held

    def held(c: int) -> tuple:
        named = tuple((code, c) for code in (*sorted(CPM_CODES), _TURN) if (code, c) in table)
        turn = (_TURN, c) in table
        return named, itemgetter(*(counted.index(code) for code, _ in named)), turn

    def key(c: int, S, T):
        _, pick, turn = letters.get(c) or letters.setdefault(c, held(c))
        si, ti = iter(S), iter(T)
        s, t = next(si, 0), next(ti, 0)
        right = width + 1  # the column right of the unread ones
        east = we = ns = ne = nw = sw = 0
        while s or t:
            v = s if s > t else t
            if east:  # the zeros under no mark between v and right are SW, else SE
                sw += right - v - 1
            if s == t:  # a zero under a mark
                if east:
                    nw += 1
                else:
                    ne += 1
                s, t = next(si, 0), next(ti, 0)
            elif s < t:
                we += 1
                east += 1
                t = next(ti, 0)
            else:
                ns += 1
                east -= 1
                s = next(si, 0)
            right = v
        if east:  # column 1 and the zeros right of it, if it is no part
            sw += right - 1
        if turn:  # column 1 is WE, or a zero with the row summing to 1 east of it
            turn = east != 0 if (1 in S) == (1 in T) else 1 in T
        # the counts in counted's order
        return pick((we, ns, ne, width - we - ns - ne - nw - sw, nw, sw, turn)), 0

    def names(c: int) -> tuple:
        return (letters.get(c) or letters.setdefault(c, held(c)))[0]
    return _SHAPE_RULES["uasm"], key, names


def _weighing(scheme: str, n: int, width: int, neighbour: str, c0_mode: str):
    """scheme's factor_table at rank n, the steps (rule, key, names) of the
    family it weighs, and its prefactor, ONE but under CPM_Q_NORM; width is
    a U-turn ASM's column count, neighbour the ST_Q reading and c0_mode the
    CPM_Q_NORM prefactor mode."""
    table, family = factor_table(scheme, n), _row(scheme).family
    steps = (_letter_cells if family == "t"
             else _compass_cells(width, table) if family == "uasm"
             else _pattern_cells(table) if family == "gtp"
             else _shifted_cells(neighbour))  # "st", and "qt" summed over primings
    prefactor = cpm_q_norm_prefactor(n, c0_mode) if scheme == "CPM_Q_NORM" else ONE
    return table, steps, prefactor


# -- one object's path ----------------------------------------------------------------

def _path(obj, family: str) -> Tuple[int, List[tuple]]:
    """The rank of obj and its shapes S_1, ..., S_2n, zero-padded to one
    length: per tableau row the count of letters <= c, pattern row c, or
    the parts of the column sums after alphabet row c.  Rows that the
    shapes do not give back raise ForbiddenPathError."""
    from .matrices import CumulativeSumError, _check_gtp_rows, col_cumsum
    if family == "gtp":
        _check_gtp_rows(obj.n, obj.rows)
        return obj.n, [tuple(row) + (0,) * (obj.n - len(row)) for row in obj.rows]
    if family == "uasm":
        if obj.n < 1 or len(obj.entries) % 2 or len(set(map(len, obj.entries))) > 1:
            raise ForbiddenPathError(f"a U-turn ASM has 2n >= 2 rows of one length, "
                                     f"got {list(map(len, obj.entries))}")
        try:
            sums = col_cumsum(obj)
        except CumulativeSumError as exc:
            raise ForbiddenPathError(str(exc)) from None
        path = [tuple(v for v in range(len(s), 0, -1) if s[v - 1]) for s in sums]
        if path[-1][:1] != (obj.m,):  # UA5: lambda_1 is the last column
            raise ForbiddenPathError(f"column {obj.m} is no part of {path[-1]}")
        size = max(obj.n, *map(len, path))
        return obj.n, [p + (0,) * (size - len(p)) for p in path]
    rows = obj.rows
    if any(list(row) != sorted(row) or min(row, default=1) < 1 for row in rows):
        raise ForbiddenPathError(f"rows {rows} are no weakly increasing letters")
    # a shifted tableau has a row per level (ST4); an ordinary one needs no
    # empty rows, so a few cells of a high letter walk short shapes
    n = _letter_rank(rows)
    pad = () if family == "t" else (0,) * max(n - len(rows), 0)
    return n, [tuple(bisect_right(row, c) for row in rows) + pad
               for c in range(1, 2 * n + 1)]


def _path_ids(obj, scheme: str, neighbour: str = "below", c0_mode: str = "full"):
    """The scheme's factor table, the (fid, e) that its steps name for each
    step S -> T of obj's path from S_0 = 0, and its prefactor (_weighing).
    A step with a row outside its _step_ranges (the engine's walk takes
    none) or to a shape that the family's shape rule refuses raises
    ForbiddenPathError; an object of another family UnknownSchemeError."""
    from .matrices import SympGTPattern, UTurnASM
    from .tableaux import ShiftedTableau, SymplecticTableau
    # the class whose rows give each family's paths; QT_DEFORMED weighs a
    # shifted tableau by the sum over its primings
    kinds = {"t": SymplecticTableau, "st": ShiftedTableau, "qt": ShiftedTableau,
             "uasm": UTurnASM, "gtp": SympGTPattern}
    family = _row(scheme).family
    if type(obj) is not kinds[family]:
        raise UnknownSchemeError(f"scheme {scheme} weighs no {type(obj).__name__}")
    n, path = _path(obj, family)
    if family == "t":  # its own letters only: a high letter needs no table of its rank
        table = {code: _letter_factor(scheme, code) for row in obj.rows for code in row}
        steps, prefactor = _letter_cells, ONE
    else:
        table, steps, prefactor = _weighing(scheme, n, obj.m if family == "uasm" else 0,
                                            neighbour, c0_mode)
    rule, key, names = steps
    S, out = (0,) * len(path[0]), []
    for c, T in enumerate(path, start=1):
        if not (all(t in r for t, r in zip(T, _step_ranges(S, c, T))) and rule(c, T)):
            raise ForbiddenPathError(f"no {family} object steps from {S} to {T} by letter {c}")
        out += _pairs(names(c), key(c, S, T)[0])
        S = T
    return table, out, prefactor


def path_weight(obj, scheme: str, neighbour: str = "below",
                c0_mode: str = "full") -> LaurentPoly:
    """obj's weight under scheme: the product of table[fid] ** e over the
    (fid, e) of the steps of its path, times the scheme's prefactor
    (_path_ids).  The knobs go through check_conventions."""
    check_conventions(scheme, f"scheme {scheme}", c0_mode=c0_mode,
                      st_q_neighbour=neighbour)
    table, ids, prefactor = _path_ids(obj, scheme, neighbour, c0_mode)
    factors = [table[fid] for fid, e in ids for _ in range(e)] + [prefactor]
    return reduce(mul, sorted(factors, key=LaurentPoly.num_terms), ONE)  # one-term first


# -- the traced per-object weights ----------------------------------------------------
#
# perfbench/layers.py's tracer resolves each of these as
# vars(symptok.weights)[name]; they can go once its TRACED drops them.


def wgt_t(t: SymplecticTableau, deformed: bool = False) -> LaurentPoly:
    return path_weight(t, "T_DEFORMED" if deformed else "T")


def wgt_st(st: ShiftedTableau) -> LaurentPoly:
    return path_weight(st, "ST_XY")


def primed_weight_sum(st: ShiftedTableau, deformed: bool = False) -> LaurentPoly:
    return path_weight(st, "QT_DEFORMED" if deformed else "ST_XY")


def wgt_st_q(st: ShiftedTableau, neighbour: str = "below") -> LaurentPoly:
    return path_weight(st, "ST_Q", neighbour)


def wgt_cpm(a: UTurnASM, scheme: str, c0_mode: str = "full") -> LaurentPoly:
    return path_weight(a, scheme, c0_mode=c0_mode)


def wgt_gtp(g: SympGTPattern, scheme: str) -> LaurentPoly:
    return path_weight(g, scheme)


def qx_weight(g: SympGTPattern) -> LaurentPoly:
    return path_weight(g, "GT_QX")
