"""U-turn alternating sign matrices, compass point matrices, and strict
symplectic Gelfand-Tsetlin patterns.

A U-turn ASM for rank n and breadth m is a 2n x m matrix over {-1, 0, 1}
whose rows are indexed by the alphabet order 1, 1', 2, 2', ..., n, n'
(row 2k-1 holds level k unbarred, row 2k barred), subject to

  UA1  nonzero entries alternate in sign along each row and each column
  UA2  the topmost nonzero entry of every column is 1
  UA3  the rightmost nonzero entry of every row is 1
  UA4  every row sum and column sum is 0 or 1
  UA4' row_k + row_k' = 1 for every level k (the U-turn pairing)
  UA5  col_j = 1 exactly when j is a part of lambda, else 0

A Gelfand-Tsetlin pattern for rank n has 2n rows indexed bottom-to-top
1, 1', 2, 2', ..., n, n'; rows k and k' hold k nonnegative integers each.
Writing m(k,j) and mb(k,j) for the unbarred/barred entries, with the
conventions mb(k, k+1) = 0 and mb(0, j) = 0:

  betweenness  mb(k,j) >= m(k,j) >= mb(k,j+1)          (k = 1..n, j = 1..k)
               m(k+1,j) >= mb(k,j) >= m(k+1,j+1)       (k = 1..n-1, j = 1..k)
  strictness   consecutive entries of every row strictly decrease
  seed rule    m(k,k) and mb(k,k) are never both 0

Each pattern position carries exactly one of three saturation marks:

  unbarred (k,j), j<k:  triple (m(k,j), mb(k-1,j), m(k,j+1))
  barred   (k,j), j<k:  triple (mb(k,j), m(k,j), mb(k,j+1))
      B strict on both sides, L equal on the left, R equal on the right
  diagonal j=k:  B/L by m(k,k) > 0 vs = 0, and mb(k,k) > m(k,k) vs equal;
      the R mark never occurs on the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

# CPM_CODES and the GT row counting live in shapes, where the engine reads
# them without this module; they are re-exported here
from .shapes import (
    CPM_CODES,
    BadLengthError,
    _count_below,
    _interlace,
    as_rank,
    as_strict_partition,
    count_gtp,
)


class DimensionMismatchError(ValueError):
    """Matrix dimensions do not match 2n x lambda_1."""


class CumulativeSumError(ValueError):
    """Cumulative row or column sums leave {0,1}: the matrix is no U-turn ASM."""


class GTShapeError(ValueError):
    """Pattern rows do not have the triangular lengths 1,1,2,2,...,n,n."""


@dataclass(frozen=True)
class UTurnASM:
    entries: Tuple[Tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries) // 2

    @property
    def m(self) -> int:
        return len(self.entries[0]) if self.entries else 0


@dataclass(frozen=True)
class CompassPointMatrix:
    entries: Tuple[Tuple[str, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries) // 2


@dataclass(frozen=True)
class SympGTPattern:
    """rows[0] is the bottom row (level 1 unbarred), rows[2n-1] the top."""

    rows: Tuple[Tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.rows) // 2

    def m(self, k: int, j: int) -> int:
        """Unbarred entry m(k,j)."""
        return self.rows[2 * k - 2][j - 1]

    def mb(self, k: int, j: int) -> int:
        """Barred entry mb(k,j); k = 0 or j = k+1 read as 0."""
        if k == 0 or j == k + 1:
            return 0
        return self.rows[2 * k - 1][j - 1]


@dataclass(frozen=True)
class BLRClassification:
    """Mark per position: unbarred[(k,j)] and barred[(k,j)] in {"B","L","R"}."""

    unbarred: Dict[Tuple[int, int], str]
    barred: Dict[Tuple[int, int], str]


# -- UASM validation ----------------------------------------------------------


def _alternating(seq) -> bool:
    nz = [v for v in seq if v]
    return all(nz[i] != nz[i + 1] for i in range(len(nz) - 1))


def validate_uasm(a: UTurnASM, lam=None) -> Tuple[bool, List[str]]:
    """Check UA1-UA5 against the column profile fixed by lambda.

    Without lambda, it is read off the columns that sum to 1, and a profile
    that fits no lambda (not n such columns, or a last column that is not
    one) is reported as UA5 problems, after the rules it breaks.
    """
    n = a.n
    if n < 1:
        raise DimensionMismatchError(f"a U-turn ASM has 2n >= 2 rows, got {len(a.entries)}")
    if lam is not None:
        lam = as_strict_partition(lam)
        if len(lam) != n:
            raise DimensionMismatchError(f"lambda {lam} does not have n={n} parts")
    m = a.m if lam is None else lam[0]
    if m < 1:
        raise DimensionMismatchError("a U-turn ASM has lambda_1 >= n >= 1 columns, got none")
    if len(a.entries) != 2 * n or any(len(r) != m for r in a.entries):
        raise DimensionMismatchError(
            f"expected {2 * n} x {m}, got {[len(r) for r in a.entries]}"
        )
    profile: List[str] = []
    if lam is None:
        sums = [sum(col) for col in zip(*a.entries)]
        lam = tuple(j for j in range(m, 0, -1) if sums[j - 1] == 1)
        if len(lam) != n:
            profile.append(f"UA5: {len(lam)} columns sum to 1, not n={n}")
        if m not in lam:
            profile.append(f"UA5: the last column, {m}, sums to {sums[-1]}, not 1")
    bad: List[str] = []
    if any(v not in (-1, 0, 1) for row in a.entries for v in row):
        bad.append("entries: values outside {-1,0,1}")
        return (False, bad)
    cols = list(zip(*a.entries))
    for i, row in enumerate(a.entries, start=1):
        if not _alternating(row):
            bad.append(f"UA1: signs do not alternate in row {i}")
        nz = [v for v in row if v]
        if nz and nz[-1] != 1:
            bad.append(f"UA3: rightmost nonzero of row {i} is not 1")
        if sum(row) not in (0, 1):
            bad.append(f"UA4: row {i} sums to {sum(row)}")
    for j, col in enumerate(cols, start=1):
        if not _alternating(col):
            bad.append(f"UA1: signs do not alternate in column {j}")
        nz = [v for v in col if v]
        if nz and nz[0] != 1:
            bad.append(f"UA2: topmost nonzero of column {j} is not 1")
        if sum(col) not in (0, 1):
            bad.append(f"UA4: column {j} sums to {sum(col)}")
        want = 1 if j in lam else 0
        if sum(col) in (0, 1) and sum(col) != want:
            bad.append(f"UA5: column {j} sums to {sum(col)}, profile wants {want}")
    for k in range(1, n + 1):
        pair = sum(a.entries[2 * k - 2]) + sum(a.entries[2 * k - 1])
        if pair != 1:
            bad.append(f"UA4': rows {k} and {k}' sum to {pair}, not 1")
    bad += profile
    return (not bad, bad)


def row_cumsum(a: UTurnASM) -> Tuple[Tuple[int, ...], ...]:
    """Right-to-left cumulative row sums; entries land in {0,1}."""
    out = []
    for row in a.entries:
        acc, line = 0, []
        for v in reversed(row):
            acc += v
            line.append(acc)
        line.reverse()
        out.append(tuple(line))
    _check_zero_one(out, "row")
    return tuple(out)


def col_cumsum(a: UTurnASM) -> Tuple[Tuple[int, ...], ...]:
    """Top-to-bottom cumulative column sums; entries land in {0,1}."""
    acc = [0] * a.m
    out = []
    for row in a.entries:
        acc = [s + v for s, v in zip(acc, row)]
        out.append(tuple(acc))
    _check_zero_one(out, "column")
    return tuple(out)


def _check_zero_one(rows, which: str) -> None:
    if any(v not in (0, 1) for row in rows for v in row):
        raise CumulativeSumError(f"{which} cumulative sums leave {{0,1}}: invalid matrix")


# -- GT pattern validation and enumeration -------------------------------------


def _check_gtp_rows(n: int, rows) -> None:
    """Refuse a rank below 1, rows that are not 2n of them, or a level k
    whose two rows do not hold k entries each.  For a pattern, n is half the
    row count, so this refuses an odd count or fewer than two."""
    if n < 1:
        raise GTShapeError(f"GT pattern rank n must be at least 1, got {n}")
    if len(rows) != 2 * n:
        raise GTShapeError(f"expected {2 * n} rows, got {len(rows)}")
    for k in range(1, n + 1):
        if len(rows[2 * k - 2]) != k or len(rows[2 * k - 1]) != k:
            raise GTShapeError(f"rows for level {k} do not have length {k}")


def validate_gtp(g: SympGTPattern) -> Tuple[bool, List[str]]:
    """Check betweenness, strictness, nonnegativity, and the seed rule."""
    _check_gtp_rows(g.n, g.rows)
    bad: List[str] = []
    if any(v < 0 for row in g.rows for v in row):
        bad.append("entries: negative value")
    for k in range(1, g.n + 1):
        for j in range(1, k + 1):
            if not g.mb(k, j) >= g.m(k, j) >= g.mb(k, j + 1):
                bad.append(f"betweenness: row {k} fails at ({k},{j})")
        if k < g.n:
            for j in range(1, k + 1):
                if not g.m(k + 1, j) >= g.mb(k, j) >= g.m(k + 1, j + 1):
                    bad.append(f"betweenness: row {k}' fails at ({k},{j})")
        for j in range(1, k):
            if not g.m(k, j) > g.m(k, j + 1):
                bad.append(f"strictness: row {k} stalls at j={j}")
            if not g.mb(k, j) > g.mb(k, j + 1):
                bad.append(f"strictness: row {k}' stalls at j={j}")
        if g.m(k, k) == 0 and g.mb(k, k) == 0:
            bad.append(f"seed: m({k},{k}) and mb({k},{k}) are both 0")
    return (not bad, bad)


def enumerate_gtp(lam, n: int) -> Iterator[SympGTPattern]:
    """All strict patterns with top row lambda, generated top row downward."""
    lam = as_strict_partition(lam)
    n = as_rank(n)
    if len(lam) != n:
        raise BadLengthError(f"{lam} does not have length n={n}")

    def descend(k: int, barred_row: Tuple[int, ...], stack: List[Tuple[int, ...]]):
        # stack holds rows from the top down; barred_row is row k'
        for unbarred in _interlace(barred_row, k):
            if unbarred[-1] == 0 and barred_row[-1] == 0:
                continue  # seed rule at (k,k)
            stack.append(unbarred)
            if k == 1:
                yield SympGTPattern(tuple(reversed(stack)))
            else:
                for nxt in _interlace(unbarred, k - 1):
                    stack.append(nxt)
                    yield from descend(k - 1, nxt, stack)
                    stack.pop()
            stack.pop()

    yield from descend(n, lam, [lam])


def classify_blr(g: SympGTPattern) -> BLRClassification:
    """Assign the B/L/R mark of every pattern position."""
    unbarred: Dict[Tuple[int, int], str] = {}
    barred: Dict[Tuple[int, int], str] = {}
    for k in range(1, g.n + 1):
        for j in range(1, k):
            unbarred[(k, j)] = _mark(g.m(k, j), g.mb(k - 1, j), g.m(k, j + 1))
            barred[(k, j)] = _mark(g.mb(k, j), g.m(k, j), g.mb(k, j + 1))
        unbarred[(k, k)] = "B" if g.m(k, k) > 0 else "L"
        if g.mb(k, k) < g.m(k, k):
            raise ValueError(f"invalid pattern: mb({k},{k}) < m({k},{k})")
        barred[(k, k)] = "B" if g.mb(k, k) > g.m(k, k) else "L"
    return BLRClassification(unbarred, barred)


def _mark(hi: int, mid: int, lo: int) -> str:
    if hi > mid > lo:
        return "B"
    if hi == mid > lo:
        return "L"
    if hi > mid == lo:
        return "R"
    raise ValueError(f"triple ({hi},{mid},{lo}) is not interlaced strictly")


# -- UASM enumeration -----------------------------------------------------------


def enumerate_uasm(lam, n: int) -> Iterator[UTurnASM]:
    """All U-turn ASMs with column profile lambda.

    Generated through the shifted-tableau correspondence and re-validated
    against UA1-UA5 independently, so a bug in either side cannot pass
    silently.  Tests check tiny shapes against tests/oracles.py's brute force.
    """
    from .bijections import st_to_uasm
    from .tableaux import enumerate_st

    lam = as_strict_partition(lam)
    for st in enumerate_st(lam, n):
        a = st_to_uasm(st)
        ok, bad = validate_uasm(a, lam)
        if not ok:
            raise AssertionError(f"correspondence produced an invalid matrix: {bad}")
        yield a

