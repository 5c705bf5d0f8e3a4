"""Partitions, staircases, and the symplectic alphabet.

The alphabet for rank n is the 2n-letter ordered set

    1 < 1' < 2 < 2' < ... < n < n'      (k' denotes the barred letter)

encoded as integer letter codes 1..2n: level k unbarred is 2k-1, barred 2k.
Rows and columns of diagrams are 1-indexed; a shifted shape indents row i by
i-1 cells, so row i covers columns i .. i+lambda_i-1.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple


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
