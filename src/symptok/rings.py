"""Symbolic values in a per-call packed ring: the engine's symbolic value
type, as algebra.Residues is its modular one.

A PackedRing packs monomials as a LaurentPoly does, but in exactly the
variables of one call: variable s in slot s, bits_per_digit //
len(variables) bits a slot when that is at least 5, else 16 (_ring_bits).
So a monomial of up to six variables, every grid case but PROP_T at n = 3,
is one digit of a Python int, which CPython adds and hashes on a fast path,
where the global layout makes a multi-digit int of every monomial at
n = 3.  A Packed value keeps its per-slot |exponent| bounds packed in one
int the same way, every slot's top (guard) bit clear: a product's bounds
are one addition, one mask finds a slot past its range, and only then are
the factors' exponents scanned.  ``lift`` and ``poly`` convert to and from
LaurentPoly.

Only symbolic mode reads this module, and identities imports it on its
first symbolic call, so modular work never compiles it.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable

from .algebra import (
    _DIGIT_BITS,
    _SHIFT,
    LaurentPoly,
    Var,
    _accumulate,
    _check_exponent,
    _drop_zeros,
    _power,
    _product_bounds,
    _slot,
    _slot_var,
    _unpack,
    var_name,
)


class RingMismatchError(ValueError):
    """Values of two packed rings, or a variable that a ring does not hold."""


def _ring_bits(count: int) -> int:
    """The slot width of a ring of count variables: the most bits that put
    every monomial in one digit of a Python int, if that is at least 5
    (exponents up to 15), and 16, as in a LaurentPoly, otherwise."""
    bits = sys.int_info.bits_per_digit // max(count, 1)
    return min(bits, _DIGIT_BITS) if bits >= 5 else _DIGIT_BITS


class PackedRing:
    """The Laurent polynomials in exactly the given variables, their
    monomials packed as a LaurentPoly packs them but with variables[s] in
    slot s, bits wide (_ring_bits unless given).  ``lift`` takes a
    LaurentPoly in, and ``poly`` takes a value back out."""

    __slots__ = ("variables", "bits", "max_exponent", "_slots", "_guard")

    def __init__(self, variables: Iterable[Var], bits: int | None = None):
        self.variables = tuple(variables)
        self.bits = bits = bits or _ring_bits(len(self.variables))
        self.max_exponent = (1 << (bits - 1)) - 1
        self._slots = {_slot(v): s for s, v in enumerate(self.variables)}
        # the top bit of each slot: set in a sum of bounds past max_exponent
        self._guard = sum(1 << (bits * s + bits - 1) for s in range(len(self.variables)))

    def lift(self, poly: LaurentPoly) -> "Packed":
        """poly in the ring; a variable it lacks raises RingMismatchError,
        an exponent past max_exponent ExponentOverflowError."""
        terms: Dict[int, int] = {}
        bound = 0
        for key, c in poly._terms.items():
            packed = 0
            for slot, e in _unpack(key):
                s = self._slots.get(slot)
                if s is None:
                    raise RingMismatchError(
                        f"{var_name(_slot_var(slot))} is not a variable of {self!r}")
                _check_exponent(self.variables[s], e, self.max_exponent)
                packed += e << (self.bits * s)
                bound |= abs(e) << (self.bits * s)
            terms[packed] = c
        return Packed(terms, bound, self)

    def poly(self, value: "Packed") -> LaurentPoly:
        """value, reduced or not, as the LaurentPoly it stands for."""
        if value.ring is not self:
            raise RingMismatchError(f"a value of {value.ring!r}, not of {self!r}")
        shifts = [_SHIFT[v] for v in self.variables]
        terms = {sum(e << shifts[s] for s, e in _unpack(key, self.bits)): c
                 for key, c in value._terms.items() if c}
        return LaurentPoly._make(terms, max(
            (e for _, e in _unpack(value._bound, self.bits)), default=0))

    def _product_bound(self, a: "Packed", b: "Packed") -> int:
        """The bounds of a monomial of a times one of b: the sum of a's and
        b's, and, where a guard bit says that is past max_exponent, the exact
        bounds of _product_bounds, which raises if a product is too."""
        bound = a._bound + b._bound
        if bound & self._guard:
            bounds = _product_bounds(a._terms, b._terms, self.bits, self.variables.__getitem__)
            bound = sum(e << (self.bits * s) for s, e in bounds.items())
        return bound

    def __repr__(self) -> str:
        names = ", ".join(map(var_name, self.variables))
        return f"PackedRing({names}; {self.bits} bits)"


class Packed:
    """A value of a PackedRing, the engine's symbolic value type as Residues
    is its modular one: {packed monomial: coefficient} and a bound on each
    slot's |exponents|, packed as the monomials are, with every guard bit
    clear.  A lift's or a sum's bounds are the OR of its terms': at least
    the largest of each slot's, and still under its guard bit.  ``+``,
    ``*`` and ``**`` act as on the LaurentPoly and, as lifts do, give
    reduced values: no zero coefficient, which ``==`` needs.  The private
    ``_times`` (``*`` unreduced) and ``_iadd_product`` (self + sign * a * b
    written into self, only for a sum its caller made and no one else
    holds) may keep cancelled terms at 0 until ``_reduce`` drops them in
    place; the ring's ``poly`` reads either.  An operation on values of
    two rings raises RingMismatchError."""

    __slots__ = ("_terms", "_bound", "ring")

    def __init__(self, terms: Dict[int, int], bound: int, ring: PackedRing):
        self._terms, self._bound, self.ring = terms, bound, ring

    def num_terms(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Packed) and self.ring is other.ring
                and self._terms == other._terms)

    def __add__(self, other: "Packed") -> "Packed":
        if other.ring is not self.ring:
            raise RingMismatchError("values of two rings")
        return Packed(_accumulate(dict(self._terms), other._terms, {0: 1}),
                      self._bound | other._bound, self.ring)._reduce()

    def __mul__(self, other: "Packed") -> "Packed":
        return self._times(other)._reduce()

    def _times(self, other: "Packed") -> "Packed":
        if other.ring is not self.ring:
            raise RingMismatchError("values of two rings")
        return Packed(_accumulate({}, self._terms, other._terms),
                      self.ring._product_bound(self, other), self.ring)

    def _iadd_product(self, a: "Packed", b: "Packed", sign: int = 1) -> "Packed":
        if a.ring is not self.ring or b.ring is not self.ring:
            raise RingMismatchError("values of two rings")
        bound = self.ring._product_bound(a, b)
        self._terms = _accumulate(self._terms, a._terms, b._terms, sign)
        self._bound |= bound
        return self

    def _reduce(self) -> "Packed":
        self._terms = _drop_zeros(self._terms)
        return self

    def __pow__(self, n: int) -> "Packed":
        return _power(self, n, Packed({0: 1}, 0, self.ring))
