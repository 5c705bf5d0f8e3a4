"""The correspondences between shifted tableaux, U-turn ASMs, and
Gelfand-Tsetlin patterns, plus the compass-point recoding of a U-turn ASM.

The tableau <-> pattern dictionary counts letters:

    m(i, j) = number of entries <= letter i in row j of the tableau,

so the number of unbarred k in row j is m(k,j) - mb(k-1,j) and the number
of barred k is mb(k,j) - m(k,j).

The matrix routes go through cumulative sums: the 1s in column j of the
right-to-left row sums name, by row (= alphabet letter), the entries on
diagonal j of the tableau; the 1s in alphabet row i of the top-to-bottom
column sums name, by column, the entries of pattern row i (largest leftmost,
short rows padded with 0).

Compass recoding: +1 -> WE, -1 -> NS; a 0 is coded by its nearest nonzero
neighbours above (N) and to the right (E), a missing neighbour reading -1:

    (N, E) = (+1, -1) -> NE   (-1, -1) -> SE
             (+1, +1) -> NW   (-1, +1) -> SW

Sign alternation forces W = -E and S = -N whenever those neighbours exist;
that redundancy is checked and any violation raises UnmatchedPatternError.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .matrices import (
    CompassPointMatrix,
    SympGTPattern,
    UTurnASM,
    col_cumsum,
    row_cumsum,
)
from .shapes import _ZERO_CODES, as_strict_partition, conjugate, letter_level
from .tableaux import ShiftedTableau


class NegativeMultiplicityError(ValueError):
    """A letter-count difference went negative: the pattern is invalid."""


class NotInvertibleError(ValueError):
    """The tableau does not determine a matrix (never on valid input)."""


class UnmatchedPatternError(ValueError):
    """A zero's neighbour signs match no compass code (never on valid input)."""


def st_to_gtp(st: ShiftedTableau) -> SympGTPattern:
    """Count entries <= each letter per row."""
    n = len(st.shape)
    rows: List[Tuple[int, ...]] = []
    for code in range(1, 2 * n + 1):
        k = letter_level(code)
        rows.append(tuple(
            sum(1 for e in (st.rows[j - 1] if j <= len(st.rows) else ()) if e <= code)
            for j in range(1, k + 1)
        ))
    return SympGTPattern(tuple(rows))


def gtp_to_st(g: SympGTPattern) -> ShiftedTableau:
    """Rebuild each tableau row from the letter-count differences."""
    n = g.n
    rows: List[Tuple[int, ...]] = []
    for j in range(1, n + 1):
        row: List[int] = []
        for k in range(j, n + 1):
            plain = g.m(k, j) - (g.mb(k - 1, j) if k > j else 0)
            barred = g.mb(k, j) - g.m(k, j)
            if plain < 0 or barred < 0:
                raise NegativeMultiplicityError(
                    f"row {j}, level {k}: counts ({plain},{barred})"
                )
            row.extend([2 * k - 1] * plain)
            row.extend([2 * k] * barred)
        rows.append(tuple(row))
    shape = tuple(len(r) for r in rows)
    return ShiftedTableau(as_strict_partition(shape), tuple(rows))


def uasm_to_st(a: UTurnASM) -> ShiftedTableau:
    """Read diagonals off the right-to-left row sums.

    A matrix that is no U-turn ASM raises matrices.CumulativeSumError when
    its row sums leave {0,1}, or shapes.NotStrictError when its diagonals
    give no strict shape."""
    profile = row_cumsum(a)
    m = a.m
    diagonals: List[List[int]] = [[] for _ in range(m)]
    for code, line in enumerate(profile, start=1):
        for j in range(m):
            if line[j]:
                diagonals[j].append(code)
    for d in diagonals:
        d.sort()
    # diagonal j sits in rows 1..len(diagonals[j]); row i collects its cells
    heights = [len(d) for d in diagonals]
    nrows = max(heights, default=0)
    rows = tuple(
        tuple(diagonals[j][i] for j in range(m) if heights[j] > i)
        for i in range(nrows)
    )
    shape = tuple(len(r) for r in rows)
    return ShiftedTableau(as_strict_partition(shape), rows)


def st_to_uasm(st: ShiftedTableau) -> UTurnASM:
    """Unique matrix whose row-sum profile marks the diagonals of st."""
    lam = st.shape
    n, m = len(lam), lam[0]
    heights = conjugate(lam)
    profile = [[0] * m for _ in range(2 * n)]
    for i, col, code in st.cells():
        d = col - i  # 0-based diagonal index
        if profile[code - 1][d]:
            raise NotInvertibleError(
                f"letter {code} repeats on diagonal {d + 1}"
            )
        profile[code - 1][d] = 1
    for d in range(m):
        placed = sum(profile[c][d] for c in range(2 * n))
        if placed != heights[d]:
            raise NotInvertibleError(f"diagonal {d + 1} holds {placed} letters")
    entries = tuple(
        tuple(line[j] - (line[j + 1] if j + 1 < m else 0) for j in range(m))
        for line in profile
    )
    return UTurnASM(entries)


def uasm_to_gtp(a: UTurnASM) -> SympGTPattern:
    """Read pattern rows off the top-to-bottom column sums."""
    profile = col_cumsum(a)
    rows: List[Tuple[int, ...]] = []
    for code, line in enumerate(profile, start=1):
        k = letter_level(code)
        marked = [j + 1 for j in range(a.m) if line[j]]
        if len(marked) > k:
            raise ValueError(f"alphabet row {code} marks {len(marked)} columns")
        row = sorted(marked, reverse=True) + [0] * (k - len(marked))
        rows.append(tuple(row))
    return SympGTPattern(tuple(rows))


def uasm_to_cpm(a: UTurnASM) -> CompassPointMatrix:
    """Recode every entry by the compass table in the module docstring.

    The nearest nonzero neighbours come from running last-nonzero arrays:
    per column for S (bottom-up sweep) and N (top-down), per row for E
    (right-to-left) and W (left-to-right).
    """
    rows, m = a.entries, a.m
    south: List[List[Optional[int]]] = []
    below: List[Optional[int]] = [None] * m
    for row in reversed(rows):
        south.append(below)
        below = [v or s for v, s in zip(row, below)]
    south.reverse()
    north = [-1] * m
    out: List[Tuple[str, ...]] = []
    for i, row in enumerate(rows):
        east = [-1] * m
        for j in range(m - 1, 0, -1):
            east[j - 1] = row[j] or east[j]
        line: List[str] = []
        west = None
        for j, v in enumerate(row):
            if v:
                line.append("WE" if v == 1 else "NS")
                west = north[j] = v
                continue
            if west is not None and west != -east[j]:
                raise UnmatchedPatternError(f"({i + 1},{j + 1}): west breaks alternation")
            if south[i][j] is not None and south[i][j] != -north[j]:
                raise UnmatchedPatternError(f"({i + 1},{j + 1}): south breaks alternation")
            line.append(_ZERO_CODES[(north[j], east[j])])
        out.append(tuple(line))
    return CompassPointMatrix(tuple(out))
