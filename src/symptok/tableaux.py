"""Symplectic tableaux, symplectic shifted tableaux, and their primed refinements.

Entries are alphabet letter codes (see shapes).  The defining conditions:

ordinary tableau of shape mu (rank n):
  T1  rows weakly increase left to right
  T2  columns strictly increase top to bottom
  T3  letters of level k appear no lower than row k

shifted tableau of strict shape lambda with len(lambda) == n:
  ST1 rows weakly increase
  ST2 columns weakly increase
  ST3 diagonals (col - row constant) strictly increase down-right
  ST4 row k starts with level k (its first entry is k or k-bar)

primed refinement of a shifted tableau:
  QT1 an entry equal to its left neighbour is unprimed
  QT2 an entry equal to the entry directly below it is primed
  QT3 every other entry is free

ST3 makes QT1 and QT2 mutually exclusive: the left neighbour of a cell and
the cell below it share a diagonal, so they cannot both equal the cell.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Tuple

# UnknownConventionError lives in shapes, where the engine reads it without
# this module; it is re-exported here
from .shapes import (
    BadLengthError,
    InvalidRankError,
    RankTooSmallError,
    UnknownConventionError,
    as_partition,
    as_rank,
    as_strict_partition,
    letter,
    letter_level,
)


class ShapeMismatchError(ValueError):
    """Rows do not cover the cells of the declared shape."""


@dataclass(frozen=True)
class SymplecticTableau:
    shape: Tuple[int, ...]
    rows: Tuple[Tuple[int, ...], ...]

    def cells(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (row, col, letter) with 1-based row and col."""
        for i, row in enumerate(self.rows, start=1):
            for j, code in enumerate(row, start=1):
                yield i, j, code


@dataclass(frozen=True)
class ShiftedTableau:
    shape: Tuple[int, ...]
    rows: Tuple[Tuple[int, ...], ...]

    def cells(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (row, col, letter); row i occupies columns i..i+shape_i-1."""
        for i, row in enumerate(self.rows, start=1):
            for t, code in enumerate(row):
                yield i, i + t, code

    def at(self, i: int, col: int):
        """Letter at (row i, absolute column col), or None outside the shape."""
        if 1 <= i <= len(self.rows):
            t = col - i
            if 0 <= t < len(self.rows[i - 1]):
                return self.rows[i - 1][t]
        return None


@dataclass(frozen=True)
class PrimedShiftedTableau:
    base: ShiftedTableau
    primed: Tuple[Tuple[bool, ...], ...]

    def cells(self) -> Iterator[Tuple[int, int, int, bool]]:
        for i, row in enumerate(self.base.rows, start=1):
            for t, code in enumerate(row):
                yield i, i + t, code, self.primed[i - 1][t]


# -- validation ---------------------------------------------------------------


def _check_cover(shape, rows):
    if len(rows) != len(shape) or any(
        len(rows[i]) != shape[i] for i in range(len(shape))
    ):
        raise ShapeMismatchError(
            f"rows {[len(r) for r in rows]} do not cover shape {shape}"
        )


def validate_t(t: SymplecticTableau, n: int) -> Tuple[bool, List[str]]:
    """Check T1-T3 at rank n; violations name the condition and the cell."""
    n = as_rank(n)
    shape = as_partition(t.shape)
    _check_cover(shape, t.rows)
    bad: List[str] = []
    for i, j, code in t.cells():
        if not 1 <= code <= 2 * n:
            bad.append(f"alphabet: entry out of range at ({i},{j})")
            continue
        if j > 1 and code < t.rows[i - 1][j - 2]:
            bad.append(f"T1: row decreases at ({i},{j})")
        if i > 1 and j <= len(t.rows[i - 2]) and code <= t.rows[i - 2][j - 1]:
            bad.append(f"T2: column not strict at ({i},{j})")
        if letter_level(code) < i:
            bad.append(f"T3: level below its row bound at ({i},{j})")
    return (not bad, bad)


def validate_st(st: ShiftedTableau) -> Tuple[bool, List[str]]:
    """Check ST1-ST4 at the tableau's rank, len(shape)."""
    shape = as_strict_partition(st.shape)
    if not shape:
        raise InvalidRankError("a shifted tableau has rank len(shape) >= 1, "
                               "got the empty shape of rank 0")
    _check_cover(shape, st.rows)
    n = len(shape)
    bad: List[str] = []
    for i, col, code in st.cells():
        if not 1 <= code <= 2 * n:
            bad.append(f"alphabet: entry out of range at ({i},{col})")
            continue
        left = st.at(i, col - 1)
        above = st.at(i - 1, col)
        diag = st.at(i - 1, col - 1)
        if left is not None and code < left:
            bad.append(f"ST1: row decreases at ({i},{col})")
        if above is not None and code < above:
            bad.append(f"ST2: column decreases at ({i},{col})")
        if diag is not None and code <= diag:
            bad.append(f"ST3: diagonal not strict at ({i},{col})")
        if col == i and letter_level(code) != i:
            bad.append(f"ST4: row {i} does not start with level {i}")
    return (not bad, bad)


def validate_qt(qt: PrimedShiftedTableau) -> Tuple[bool, List[str]]:
    """Check the base tableau plus the priming rules QT1/QT2."""
    ok, bad = validate_st(qt.base)
    if len(qt.primed) != len(qt.base.rows) or any(
        len(qt.primed[i]) != len(qt.base.rows[i]) for i in range(len(qt.primed))
    ):
        raise ShapeMismatchError("prime flags do not cover the shape")
    for (i, col, _), (_, case) in zip(qt.base.cells(), cell_cases(qt.base)):
        p = qt.primed[i - 1][col - i]
        if case == "left" and p:
            bad.append(f"QT1: forced-unprimed cell is primed at ({i},{col})")
        if case == "below" and not p:
            bad.append(f"QT2: forced-primed cell is unprimed at ({i},{col})")
    return (not bad, bad)


# -- neighbour cases ----------------------------------------------------------


def cell_cases(st: ShiftedTableau, neighbour: str = "below") -> List[Tuple[int, str]]:
    """Per cell in row-major order: (letter, case) with case "left" when the
    cell equals its left neighbour, else neighbour when it equals the cell
    below ("below", the QT rules) or above ("above"), else "free".

    Under "below", ST3 rules out the first two at once.  "above" is the
    rejected ST_Q reading, kept so reports can evaluate it.
    """
    if neighbour not in ("below", "above"):
        raise UnknownConventionError(f"unknown neighbour convention {neighbour!r}")
    step = 1 if neighbour == "below" else -1
    cases = []
    for i, col, code in st.cells():
        if st.at(i, col - 1) == code:
            cases.append((code, "left"))
        elif st.at(i + step, col) == code:
            cases.append((code, neighbour))
        else:
            cases.append((code, "free"))
    return cases


# -- enumeration --------------------------------------------------------------


def enumerate_t(mu, n: int) -> Iterator[SymplecticTableau]:
    """All rank-n symplectic tableaux of shape mu, in row-major lex order."""
    mu = as_partition(mu)
    n = as_rank(n)
    if len(mu) > n:
        raise RankTooSmallError(f"shape {mu} needs more than n={n} rows")
    if not mu:
        yield SymplecticTableau((), ())
        return
    nrows = len(mu)
    rows = [[0] * mu[i] for i in range(nrows)]
    order = [(i, j) for i in range(nrows) for j in range(mu[i])]

    def fill(pos: int) -> Iterator[SymplecticTableau]:
        if pos == len(order):
            yield SymplecticTableau(mu, tuple(tuple(r) for r in rows))
            return
        i, j = order[pos]
        lo = letter(i + 1, False)              # T3 row bound
        if j > 0:
            lo = max(lo, rows[i][j - 1])       # T1 weak
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)   # T2 strict
        for code in range(lo, 2 * n + 1):
            rows[i][j] = code
            yield from fill(pos + 1)

    yield from fill(0)


def enumerate_st(lam, n: int) -> Iterator[ShiftedTableau]:
    """All shifted tableaux of strict shape lambda with len(lambda) == n.

    Rows are filled bottom-up (left to right within a row) so every
    constraint looks at already-placed cells; the order of outputs is the
    deterministic fill order.
    """
    lam = as_strict_partition(lam)
    n = as_rank(n)
    if len(lam) != n:
        raise BadLengthError(f"{lam} does not have length n={n}")
    rows = [[0] * lam[i] for i in range(n)]

    def fill(i: int, t: int) -> Iterator[ShiftedTableau]:
        if t == lam[i]:
            if i == 0:
                yield ShiftedTableau(lam, tuple(tuple(r) for r in rows))
            else:
                yield from fill(i - 1, 0)
            return
        hi = 2 * n
        below = rows[i + 1] if i + 1 < n else None
        if below is not None:
            if 0 <= t - 1 < lam[i + 1]:
                hi = min(hi, below[t - 1])          # ST2 weak column
            if t < lam[i + 1]:
                hi = min(hi, below[t] - 1)          # ST3 strict diagonal
        if t == 0:
            candidates = [c for c in (letter(i + 1, False), letter(i + 1, True))
                          if c <= hi]               # ST4
        else:
            candidates = range(rows[i][t - 1], hi + 1)  # ST1 weak row
        for code in candidates:
            rows[i][t] = code
            yield from fill(i, t + 1)

    yield from fill(n - 1, 0)


def prime_freedom(st: ShiftedTableau) -> Tuple[List[bool | None], List[int]]:
    """Forced prime flags per cell (row-major): True/False where QT1/QT2
    force the flag, None where free; plus the indices of the free cells."""
    forced: List[bool | None] = []
    free: List[int] = []
    for idx, (_, case) in enumerate(cell_cases(st)):
        if case == "left":
            forced.append(False)
        elif case == "below":
            forced.append(True)
        else:
            forced.append(None)
            free.append(idx)
    return forced, free


def primings(st: ShiftedTableau) -> Iterator[PrimedShiftedTableau]:
    """All 2^f primed refinements of st, f = number of free cells."""
    forced, free = prime_freedom(st)
    row_lens = [len(r) for r in st.rows]
    for choice in itertools.product((False, True), repeat=len(free)):
        flags = list(forced)
        for idx, val in zip(free, choice):
            flags[idx] = val
        rows: List[Tuple[bool, ...]] = []
        pos = 0
        for ln in row_lens:
            rows.append(tuple(flags[pos:pos + ln]))
            pos += ln
        yield PrimedShiftedTableau(st, tuple(rows))
