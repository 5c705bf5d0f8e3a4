"""Exact sparse Laurent-polynomial arithmetic over arbitrary-precision integers.

Variables come in four families: x1..xn, y1..yn, and the single parameters
t and q.  Inverses are carried as negative exponents, so x_k^-1 is just the
exponent -1 on x_k; there are no separate "barred" symbols.

Representation:

  Var         = (kind, index) with kind in {KIND_X, KIND_Y, KIND_T, KIND_Q};
                index is 0 for t and q, at least 1 for x and y
  Monomial    = tuple of (Var, exponent) pairs, sorted by Var, no zero exponents
  LaurentPoly = wrapper around {packed monomial: int}, no zero coefficients

Inside LaurentPoly a monomial is one Python int, its exponent vector in
balanced base 2^16 (a Kronecker packing): the exponent of the variable in
slot s is the signed digit of weight 2^(16 s), with slots t -> 0, q -> 1,
x_i -> 2i and y_i -> 2i + 1.  The product of two monomials is the sum of
their ints, so multiplication never builds, sorts or compares tuples.  A
digit holds an exponent of absolute value at most MAX_EXPONENT = 2^15 - 1;
a monomial built or multiplied past that raises ExponentOverflowError
rather than carrying into the neighbouring slot.  Each polynomial keeps a
bound on its |exponents|, so a product checks the sum of its factors'
bounds, and its factors' exponents slot by slot only when that sum is past
MAX_EXPONENT.  ``terms``, ``to_text`` and the modular evaluation unpack the
digits; ``terms`` gives canonical Monomial keys.

symptok.rings packs in exactly one call's variables instead, for the
engine's symbolic mode: as many bits a slot as put every monomial of the
call in one machine digit, when that is at least 5, and 16 otherwise.

Residues is the modular counterpart: the values of one polynomial at the
points of a Sample, one call's points mod a prime, with the same +, * and
** taken point by point.  In both value types, lifts and the operators give
reduced values, while the private ``_iadd_product`` and ``_times`` may
leave theirs unreduced (Residues not yet in [0, prime), rings.Packed with
cancelled terms at 0), for a sum that is reduced once (``_reduce``) when it
is read.

Two polynomials are equal iff their term maps are equal, so all arithmetic
keeps results canonical.  Values are immutable after construction: every
operator allocates a fresh result, except that ``p ** 1`` is p itself.  The
exceptions are the private ``_iadd_product``, a multiply-accumulate, and
``_reduce``, which write into a value that only their caller holds.  One
loop (_accumulate) adds, multiplies and accumulates for every packing.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Tuple

KIND_X, KIND_Y, KIND_T, KIND_Q = 0, 1, 2, 3
_KIND_NAMES = ("x", "y", "t", "q")

Var = Tuple[int, int]
Monomial = Tuple[Tuple[Var, int], ...]

#: Default modulus for randomized identity testing (Mersenne prime 2^31 - 1).
MERSENNE31 = 2**31 - 1

_DIGIT_BITS = 16

#: The largest absolute value of an exponent in a LaurentPoly.
MAX_EXPONENT = (1 << (_DIGIT_BITS - 1)) - 1


def xvar(i: int) -> Var:
    """The variable x_i (i >= 1)."""
    return (KIND_X, i)


def yvar(i: int) -> Var:
    """The variable y_i (i >= 1)."""
    return (KIND_Y, i)


TVAR: Var = (KIND_T, 0)
QVAR: Var = (KIND_Q, 0)


def var_name(v: Var) -> str:
    kind, index = v
    name = _KIND_NAMES[kind]
    return name if kind in (KIND_T, KIND_Q) else f"{name}{index}"


def monomial_text(mono: Monomial) -> str:
    """Text form of a monomial, e.g. ``x1^2 * y2^-3``; ``1`` when empty."""
    if not mono:
        return "1"
    return " * ".join(var_name(v) if e == 1 else f"{var_name(v)}^{e}"
                      for v, e in mono)


class UnassignedVariableError(KeyError):
    """A variable of the polynomial has no value in the evaluation point."""


class NonInvertiblePointError(ZeroDivisionError):
    """A variable with a negative exponent is assigned a value that is not
    invertible mod the modulus."""


class ExponentOverflowError(ValueError):
    """An exponent beyond +-MAX_EXPONENT, which a packed monomial cannot hold."""


# -- packed monomials -----------------------------------------------------------


def _slot(v: Var) -> int:
    kind, index = v
    if kind == KIND_T and index == 0:
        return 0
    if kind == KIND_Q and index == 0:
        return 1
    if kind in (KIND_X, KIND_Y) and type(index) is int and index >= 1:
        return 2 * index + kind
    raise ValueError(f"not a variable: {v!r}")


def _slot_var(slot: int) -> Var:
    if slot < 2:
        return QVAR if slot else TVAR
    return (slot & 1, slot >> 1)  # KIND_X = 0, KIND_Y = 1


def _check_exponent(v: Var, e: int, limit: int = MAX_EXPONENT) -> None:
    if not -limit <= e <= limit:
        raise ExponentOverflowError(f"exponent {e} of {var_name(v)} is beyond +-{limit}")


class _Shifts(dict):
    """Var -> the shift of its slot's digit, each computed once."""

    def __missing__(self, v: Var) -> int:
        shift = self[v] = _DIGIT_BITS * _slot(v)
        return shift


_SHIFT = _Shifts()


def _pack(exps: Mapping[Var, int]) -> Tuple[int, int]:
    """The packed monomial of an exponent map, and its largest |exponent|."""
    key = bound = 0
    for v, e in exps.items():
        key += e << _SHIFT[v]
        if e > bound or -e > bound:
            bound = abs(e)
    if bound > MAX_EXPONENT:
        for v, e in exps.items():
            _check_exponent(v, e)
    return key, bound


def _unpack(key: int, bits: int = _DIGIT_BITS) -> List[Tuple[int, int]]:
    """The (slot, exponent) pairs of a monomial packed at bits a slot,
    lowest slot first.  A run of zero digits is jumped over by the key's
    trailing zero bits, so a lone variable of a high slot costs one shift,
    not one per slot below it."""
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    out = []
    slot = 0
    while key:
        e = key & mask
        if not e:
            skip = ((key & -key).bit_length() - 1) // bits
            key >>= bits * skip
            slot += skip
            e = key & mask
        if e >= half:
            e -= mask + 1
        out.append((slot, e))
        key = (key - e) >> bits
        slot += 1
    return out


def _monomial(key: int) -> Monomial:
    return tuple(sorted((_slot_var(s), e) for s, e in _unpack(key)))


def _slot_ranges(terms: Iterable[int], bits: int) -> Dict[int, Tuple[int, int]]:
    """Per slot, an interval holding the exponent of every monomial and 0."""
    ranges: Dict[int, Tuple[int, int]] = {}
    for key in terms:
        for slot, e in _unpack(key, bits):
            lo, hi = ranges.get(slot, (0, 0))
            ranges[slot] = (min(lo, e), max(hi, e))
    return ranges


def _product_bounds(a: Iterable[int], b: Iterable[int], bits: int,
                    variable=_slot_var) -> Dict[int, int]:
    """Per slot, a bound on the |exponents| of the products of a monomial of
    a and one of b, packed at bits a slot; raises ExponentOverflowError,
    naming variable(slot), if one of them is past the slot's range.  Per
    slot, the extreme sums lo_a + lo_b and hi_a + hi_b are attained by some
    pair.  Widening an interval to hold 0 moves a sum at most to the other
    factor's extreme, which fits, so no product that fits is refused."""
    ra, rb = _slot_ranges(a, bits), _slot_ranges(b, bits)
    limit, out = (1 << (bits - 1)) - 1, {}
    for slot in ra.keys() | rb.keys():
        lo_a, hi_a = ra.get(slot, (0, 0))
        lo_b, hi_b = rb.get(slot, (0, 0))
        for e in (lo_a + lo_b, hi_a + hi_b):
            _check_exponent(variable(slot), e, limit)
        out[slot] = max(-lo_a - lo_b, hi_a + hi_b)
    return out


def _accumulate(out: Dict[int, int], a: Mapping[int, int], b: Mapping[int, int],
                sign: int = 1) -> Dict[int, int]:
    """out + sign * a * b over monomials of one packing: the one
    multiply-accumulate loop of every product.  It writes into out, except
    that an empty out gives way to a new dict of the first row of products,
    which needs no lookups: its monomials are distinct.  A cancelled term
    stays at 0 for the caller to drop (_drop_zeros).  The caller has checked
    the exponents."""
    big, small = (a, b) if len(a) >= len(b) else (b, a)
    rows = iter(small.items())
    if not out and small:
        mb, cb = next(rows)
        cb *= sign
        out = {ma + mb: ca * cb for ma, ca in big.items()}
    get = out.get
    for mb, cb in rows:
        cb *= sign
        for ma, ca in big.items():
            mono = ma + mb
            out[mono] = get(mono, 0) + ca * cb
    return out


def _drop_zeros(terms: Dict[int, int]) -> Dict[int, int]:
    """terms without its zero coefficients; terms itself if it has none."""
    return {m: c for m, c in terms.items() if c} if 0 in terms.values() else terms


def _power(base, n: int, one):
    """base ** n by square-and-multiply from one, the unit of base's type;
    base itself when n is 1."""
    # square-and-multiply never ends on a negative n
    if n < 0:
        raise ValueError(f"negative power {n}")
    if n == 1:
        return base
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base if n > 1 else base
        n >>= 1
    return result


def _column(points: List[Mapping[Var, int]], slot: int, inverse: bool,
            modulus: int) -> List[int]:
    """The values mod modulus of a slot's variable, or of its inverse, at
    each point."""
    v = _slot_var(slot)
    try:
        col = [pt[v] % modulus for pt in points]
    except KeyError:
        raise UnassignedVariableError(var_name(v)) from None
    if inverse and col:
        # Montgomery's trick: one inverse of the product, 3 (len - 1) products
        if 0 in col:
            raise NonInvertiblePointError(var_name(v))
        prefix = list(accumulate(col, lambda a, b: a * b % modulus))
        try:
            inv = pow(prefix[-1], -1, modulus)
        except ValueError:  # a value shares a factor with a composite modulus
            raise NonInvertiblePointError(var_name(v)) from None
        for i in range(len(col) - 1, 0, -1):
            col[i], inv = inv * prefix[i - 1] % modulus, inv * col[i] % modulus
        col[0] = inv
    return col


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms", "_bound")

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        out: Dict[int, int] = {}
        bound = 0
        for mono, c in (terms or {}).items():
            key, b = _pack(dict(mono))
            out[key] = out.get(key, 0) + c
            bound = max(bound, b)
        self._terms = {key: c for key, c in out.items() if c}
        self._bound = bound

    @classmethod
    def _make(cls, terms: Dict[int, int], bound: int) -> "LaurentPoly":
        res = cls.__new__(cls)
        res._terms, res._bound = terms, bound
        return res

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls._make({}, 0)

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls._make({0: c} if c else {}, 0)

    @classmethod
    def variable(cls, v: Var, exp: int = 1) -> "LaurentPoly":
        _check_exponent(v, exp)
        return cls._make({exp << _SHIFT[v]: 1}, abs(exp))

    @classmethod
    def monomial(cls, exps: Mapping[Var, int], coef: int = 1) -> "LaurentPoly":
        if not coef:
            return cls.zero()
        key, bound = _pack(exps)
        return cls._make({key: coef}, bound)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, int]:
        return {_monomial(key): c for key, c in self._terms.items()}

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if len(self._terms) < len(other._terms):
            return other._plus(self, 1)
        return self._plus(other, 1)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._make({m: -c for m, c in self._terms.items()}, self._bound)

    def __sub__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other: "LaurentPoly", sign: int) -> "LaurentPoly":
        """self + sign * other, accumulated into a copy of self's terms."""
        return LaurentPoly._make(
            _drop_zeros(_accumulate(dict(self._terms), other._terms, {0: 1}, sign)),
            max(self._bound, other._bound))

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._terms or not other._terms:
            return LaurentPoly.zero()
        bound = self._bound + other._bound
        if bound > MAX_EXPONENT:
            bound = max(_product_bounds(self._terms, other._terms, _DIGIT_BITS).values())
        return LaurentPoly._make(_drop_zeros(_accumulate({}, self._terms, other._terms)),
                                 bound)

    def __pow__(self, n: int) -> "LaurentPoly":
        return _power(self, n, LaurentPoly.const(1))

    # -- modular evaluation -------------------------------------------------

    def eval_mod(self, assignment: Mapping[Var, int], modulus: int) -> int:
        """Value of the polynomial at a point of the prime field.

        Negative exponents go through the modular inverse, so a variable
        that such an exponent occurs on must be assigned a value invertible
        mod the modulus, or NonInvertiblePointError names it.
        """
        return self._values_mod([assignment], modulus, {}, {})[0]

    def _values_mod(self, points: List[Mapping[Var, int]], modulus: int,
                    columns: Dict[int, List[int]],
                    powers: Dict[Tuple[int, int], List[int]]) -> List[int]:
        """eval_mod at each point, each monomial unpacked once for all of them,
        each variable's values (slot s) and inverses (~s) read once into
        columns, and each power e past +-1 of them raised once into powers,
        under (s, e).  The terms are summed unreduced and the totals reduced
        once; a lone variable at power +-1 is its column itself."""
        totals = None
        for key, coef in self._terms.items():
            term = None
            for slot, e in _unpack(key):
                col = powers.get((slot, e)) if e not in (1, -1) else None
                if col is None:
                    col_id = slot if e > 0 else ~slot
                    col = columns.get(col_id)
                    if col is None:
                        col = columns[col_id] = _column(points, slot, e < 0, modulus)
                    if e not in (1, -1):
                        col = powers[slot, e] = [pow(b, abs(e), modulus) for b in col]
                term = col if term is None else [
                    a * b % modulus for a, b in zip(term, col)]
            if term is None:
                term = [coef] * len(points)
            elif coef != 1:
                term = [coef * b for b in term]
            totals = term if totals is None else [a + b for a, b in zip(totals, term)]
        return [a % modulus for a in totals or [0] * len(points)]

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``2 * x1^2 * y2^-3 - 1 * q``.

        Terms are sorted by monomial, so equal polynomials print the same
        text.
        """
        if not self._terms:
            return "0"
        parts = [f"{coef} * {monomial_text(mono)}" if mono else str(coef)
                 for mono, coef in sorted(self.terms.items())]
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)


class ResidueMismatchError(ValueError):
    """Residues of two samples."""


class Sample:
    """One call's points of a prime field: the prime, the points, and the
    columns and powered columns that its lifts share (_values_mod).
    ``lift`` gives a polynomial's Residues here.  As a value space of the
    engine, as a rings.PackedRing is, it also gives a value's term count,
    None since residues count no terms (``terms``), and where two unequal
    values first differ (``first_difference``)."""

    __slots__ = ("points", "prime", "columns", "powers")

    def __init__(self, points: List[Mapping[Var, int]], prime: int):
        self.points, self.prime = points, prime
        self.columns: Dict[int, List[int]] = {}
        self.powers: Dict[Tuple[int, int], List[int]] = {}

    def lift(self, poly: LaurentPoly) -> "Residues":
        """The values of poly at the points, reduced, as _values_mod."""
        return Residues(poly._values_mod(self.points, self.prime, self.columns,
                                         self.powers), self)

    def terms(self, value: "Residues") -> None:
        return None

    def first_difference(self, lhs: "Residues", rhs: "Residues") -> dict:
        """Where two unequal values differ first: the first trial whose values
        differ, its point by variable name in sorted variable order, and the
        two values there."""
        idx = next(i for i, (a, b) in enumerate(zip(lhs.values, rhs.values)) if a != b)
        point = self.points[idx]
        return {"trial": idx, "point": {var_name(v): point[v] for v in sorted(point)},
                "lhsValue": lhs.values[idx], "rhsValue": rhs.values[idx]}


class Residues:
    """The values of a polynomial at the points of a Sample.

    ``+``, ``*`` and ``**`` act point by point, so sums and products of
    lifted factors are the values of the polynomials' sums and products;
    they and lifts give values reduced into [0, prime).  The private
    ``_times`` and ``_iadd_product`` skip the reduction until ``_reduce``
    reduces in place.  An operation on residues of two samples raises
    ResidueMismatchError, even at one prime and point count; ``==``
    compares the prime and the values.
    """

    __slots__ = ("values", "sample")

    def __init__(self, values: List[int], sample: Sample):
        self.values, self.sample = values, sample

    def __add__(self, other: "Residues") -> "Residues":
        if other.sample is not self.sample:
            raise ResidueMismatchError("residues of two samples")
        p = self.sample.prime
        return Residues([(a + b) % p for a, b in zip(self.values, other.values)], self.sample)

    def _iadd_product(self, a: "Residues", b: "Residues",
                      sign: int = 1) -> "Residues":
        """self + sign * a * b, written into self unreduced.  The transfer's
        merges add (sign 1); a case subtracts once."""
        if a.sample is not self.sample or b.sample is not self.sample:
            raise ResidueMismatchError("residues of two samples")
        triples = zip(self.values, a.values, b.values)
        if sign == 1:
            self.values = [s + x * y for s, x, y in triples]
        else:
            self.values = [s + sign * x * y for s, x, y in triples]
        return self

    def _reduce(self) -> "Residues":
        """self with its values reduced into [0, prime), written into self."""
        p = self.sample.prime
        self.values = [a % p for a in self.values]
        return self

    def __mul__(self, other: "Residues") -> "Residues":
        if other.sample is not self.sample:
            raise ResidueMismatchError("residues of two samples")
        p = self.sample.prime
        return Residues([a * b % p for a, b in zip(self.values, other.values)], self.sample)

    def _times(self, other: "Residues") -> "Residues":
        """self * other, unreduced."""
        if other.sample is not self.sample:
            raise ResidueMismatchError("residues of two samples")
        return Residues([a * b for a, b in zip(self.values, other.values)], self.sample)

    def __pow__(self, e: int) -> "Residues":
        if e < 0:
            raise ValueError(f"negative power {e}")
        if e == 1:
            return self
        p = self.sample.prime
        return Residues([pow(a, e, p) for a in self.values], self.sample)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Residues) and self.sample.prime == other.sample.prime
                and self.values == other.values)

    def __repr__(self) -> str:
        return f"Residues({self.values}, mod {self.sample.prime})"


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
#: psi_k: Miller-Rabin with the first k primes as bases decides primality of
#: every integer below it (OEIS A014233; Jiang and Deng, 2014; Sorenson and
#: Webster, 2015).
_MR_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051,
           3825123056546413051, 3825123056546413051,
           318665857834031151167461, 3317044064679887385961981)
MILLER_RABIN_BOUND = _MR_PSI[-1]


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin test, for m below MILLER_RABIN_BOUND, over
    the shortest prefix of _MR_BASES whose psi_k exceeds m."""
    if m >= MILLER_RABIN_BOUND:
        raise ValueError(f"{m} is past the deterministic Miller-Rabin bound")
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES[:bisect_right(_MR_PSI, m) + 1]:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def random_point(variables: Iterable[Var], rng: random.Random,
                 modulus: int = MERSENNE31) -> Dict[Var, int]:
    """Uniform point with every coordinate in [1, modulus-1] (all invertible).

    Coordinates are drawn in sorted variable order so a seeded generator
    yields a reproducible point.
    """
    return {v: rng.randrange(1, modulus) for v in sorted(set(variables))}
