"""Partitions, staircases, and the symplectic alphabet.

The alphabet for rank n is the 2n-letter ordered set

    1 < 1' < 2 < 2' < ... < n < n'      (k' denotes the barred letter)

encoded as integer letter codes 1..2n: level k unbarred is 2k-1, barred 2k.
Rows and columns of diagrams are 1-indexed; a shifted shape indents row i by
i-1 cells, so row i covers columns i .. i+lambda_i-1.

The verification engine (weights and identities) reads the rest of this
module, so that it builds on shapes alone and loads no object family: the
compass codes of a U-turn ASM's entries, the convention error, and the
count of GT patterns row by row.  The object modules re-export them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class RankTooSmallError(ValueError):
    """The partition has more parts than the rank allows."""


class BadLengthError(ValueError):
    """A strict partition does not have exactly the required length."""


class InvalidRankError(ValueError):
    """A rank n that is not an int of at least 1 (see as_rank)."""


class NotAPartitionError(ValueError):
    """Parts that are not a sequence of ints, or that have a negative part
    or do not weakly decrease (see as_partition)."""


class NotStrictError(ValueError):
    """Parts that must form a strict partition have a part below 1 or do
    not strictly decrease (see as_strict_partition)."""


class UnknownConventionError(ValueError):
    """A convention name (neighbour, c0 mode, q scheme) that no variant has."""


def as_rank(n: int) -> int:
    """n, refused with InvalidRankError unless it is an int (a bool is not)
    of at least 1.  Every public function that takes a rank calls this,
    itself or through the function it passes the rank to."""
    if type(n) is not int:
        raise InvalidRankError(f"rank n must be an integer, got {n!r}")
    if n < 1:
        raise InvalidRankError(f"rank n must be at least 1, got {n}")
    return n


def _int_parts(parts: Sequence[int]) -> Tuple[int, ...]:
    """The parts as a tuple.  Parts that are not a sequence (a number, None),
    or a part whose type is not int (a float, a bool, a character of a
    string), raise NotAPartitionError rather than being read as another
    number."""
    try:
        parts = tuple(parts)
    except TypeError:
        raise NotAPartitionError(f"shape {parts!r} is not a sequence of parts") from None
    for p in parts:
        if type(p) is not int:
            raise NotAPartitionError(f"part {p!r} of {parts} is not an integer")
    return parts


def as_partition(parts: Sequence[int]) -> Tuple[int, ...]:
    """Validate weak decrease and trim trailing zeros; a shape that is no
    partition raises NotAPartitionError."""
    parts = _int_parts(parts)
    if any(p < 0 for p in parts):
        raise NotAPartitionError(f"negative part in {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise NotAPartitionError(f"parts not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def as_strict_partition(parts: Sequence[int]) -> Tuple[int, ...]:
    parts = _int_parts(parts)
    if any(p <= 0 for p in parts):
        raise NotStrictError(f"nonpositive part in strict partition {parts}")
    if any(parts[i] <= parts[i + 1] for i in range(len(parts) - 1)):
        raise NotStrictError(f"parts not strictly decreasing: {parts}")
    return parts


def add_staircase(mu: Sequence[int], n: int) -> Tuple[int, ...]:
    """lambda = mu + (n, n-1, ..., 1); strictly decreasing of length n."""
    n = as_rank(n)
    mu = as_partition(mu)
    if len(mu) > n:
        raise RankTooSmallError(f"partition {mu} has more than n={n} parts")
    mu = mu + (0,) * (n - len(mu))
    return tuple(mu[i] + (n - i) for i in range(n))


def conjugate(parts: Sequence[int]) -> Tuple[int, ...]:
    parts = as_partition(parts)
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def partitions_up_to(max_weight: int, max_length: int) -> Iterator[Tuple[int, ...]]:
    """All partitions mu with |mu| <= max_weight and length <= max_length,
    in increasing (|mu|, mu) order."""
    def of_weight(w, max_part, length_left):
        if w == 0:
            yield ()
            return
        if length_left == 0:
            return
        for first in range(min(w, max_part), 0, -1):
            for rest in of_weight(w - first, first, length_left - 1):
                yield (first,) + rest

    for w in range(max_weight + 1):
        yield from sorted(of_weight(w, w, max_length))


# -- alphabet ---------------------------------------------------------------

def letter(level: int, barred: bool) -> int:
    return 2 * level - (0 if barred else 1)


def letter_level(code: int) -> int:
    return (code + 1) // 2


def letter_barred(code: int) -> bool:
    return code % 2 == 0


def letter_str(code: int, primed: bool = False) -> str:
    s = str(letter_level(code)) + ("-" if letter_barred(code) else "")
    return s + "'" if primed else s


# -- compass codes --------------------------------------------------------------

#: The codes of a compass point matrix: +1 is WE, -1 is NS, and a 0 is coded
#: by the signs of its nearest nonzero neighbours (N, E) above and to its
#: right, a missing neighbour reading -1 (_ZERO_CODES).
CPM_CODES = ("WE", "NS", "NE", "SE", "NW", "SW")

_ZERO_CODES: Dict[Tuple[int, int], str] = {
    (1, -1): "NE",
    (-1, -1): "SE",
    (1, 1): "NW",
    (-1, 1): "SW",
}


# -- GT pattern rows ---------------------------------------------------------------


def _interlace(above: Tuple[int, ...], length: int) -> List[Tuple[int, ...]]:
    """Strictly decreasing nonnegative rows r of the given length with
    above[j] >= r[j] >= above[j+1] (a missing above[j+1] reads as 0), in
    lexicographic order.

    Rows are built entry by entry, so no row that breaks strictness is
    formed.  low[j] is the least r[j] that leaves room for a strict tail, so
    every prefix built extends to at least one row.  count_gtp expands a
    row once per table of sub-counts; the fallback search shares one table
    across its candidates, freed when the search returns.
    """
    if length == 0:
        return [()]
    padded = above + (0,) * (length + 1 - len(above))
    low = list(padded[1:length + 1])
    for j in range(length - 2, -1, -1):
        low[j] = max(low[j], low[j + 1] + 1)
    if any(low[j] > padded[j] for j in range(length)):
        return []
    rows = [(v,) for v in range(low[0], padded[0] + 1)]
    for j in range(1, length):
        lo, hi = low[j], padded[j]
        rows = [r + (v,) for r in rows for v in range(lo, min(hi, r[-1] - 1) + 1)]
    return rows


def count_gtp(lam, n: int, table: Optional[Dict] = None) -> int:
    """|GT^lambda(n)|, counted top-down without materialising patterns.

    The patterns below a row depend only on that row and on whether it is
    barred (its level is its length), so each row's sub-count is computed
    once and kept in table.  Callers that count several shapes, like
    identities.verify_big_modular's fallback search, pass one dict to every
    call and share the sub-counts; without it each call counts in a fresh
    dict, freed when it returns.
    """
    n = as_rank(n)
    lam = as_strict_partition(lam)
    if len(lam) != n:
        raise BadLengthError(f"{lam} does not have length n={n}")
    return _count_below(lam, True, {} if table is None else table)


def _count_below(row: Tuple[int, ...], barred: bool, table: Dict) -> int:
    """Patterns below row k' (barred) or row k (unbarred), k = len(row),
    read from or added to table."""
    key = (row, barred)
    count = table.get(key)
    if count is not None:
        return count
    count = 0
    if barred:
        for r in _interlace(row, len(row)):
            if r[-1] or row[-1]:  # seed rule at (k,k)
                count += _count_below(r, False, table)
    elif len(row) == 1:
        count = 1
    else:
        for r in _interlace(row, len(row) - 1):
            count += _count_below(r, True, table)
    table[key] = count
    return count
