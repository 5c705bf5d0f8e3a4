"""Exact sparse Laurent-polynomial arithmetic over arbitrary-precision integers.

Variables come in four families: x1..xn, y1..yn, and the single parameters
t and q.  Inverses are carried as negative exponents, so x_k^-1 is just the
exponent -1 on x_k; there are no separate "barred" symbols.

Representation:

  Var         = (kind, index) with kind in {KIND_X, KIND_Y, KIND_T, KIND_Q};
                index is 0 for t and q
  Monomial    = tuple of (Var, exponent) pairs, sorted by Var, no zero exponents
  LaurentPoly = wrapper around {Monomial: int}, no zero coefficients stored

Residues is the modular counterpart: the values of one polynomial at a
fixed list of points mod a prime, with the same +, * and ** taken point by
point.

Two polynomials are equal iff their term maps are equal, so all arithmetic
keeps results canonical.  Values are immutable after construction; every
operation allocates a fresh result.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Mapping, Tuple

KIND_X, KIND_Y, KIND_T, KIND_Q = 0, 1, 2, 3
_KIND_NAMES = ("x", "y", "t", "q")

Var = Tuple[int, int]
Monomial = Tuple[Tuple[Var, int], ...]

#: Default modulus for randomized identity testing (Mersenne prime 2^31 - 1).
MERSENNE31 = 2**31 - 1


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
    """A variable with a negative exponent is assigned 0 mod the modulus."""


class ParseError(ValueError):
    """Malformed polynomial text."""


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    exps = dict(a)
    for v, e in b:
        s = exps.get(v, 0) + e
        if s:
            exps[v] = s
        else:
            del exps[v]
    return tuple(sorted(exps.items()))


class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] | None = None):
        self._terms: Dict[Monomial, int] = (
            {m: c for m, c in terms.items() if c} if terms else {}
        )

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({(): c}) if c else cls()

    @classmethod
    def variable(cls, v: Var, exp: int = 1) -> "LaurentPoly":
        if exp == 0:
            return cls.const(1)
        return cls({((v, exp),): 1})

    @classmethod
    def monomial(cls, exps: Mapping[Var, int], coef: int = 1) -> "LaurentPoly":
        if not coef:
            return cls()
        mono = tuple(sorted((v, e) for v, e in exps.items() if e))
        return cls({mono: coef})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Dict[Monomial, int]:
        return dict(self._terms)

    def num_terms(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for mono, c in other._terms.items():
            s = out.get(mono, 0) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = {m: -c for m, c in self._terms.items()}
        return res

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return LaurentPoly.zero()
        out: Dict[Monomial, int] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                mono = _mono_mul(ma, mb)
                s = out.get(mono, 0) + ca * cb
                if s:
                    out[mono] = s
                else:
                    del out[mono]
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if len(self._terms) == 1:
                ((mono, coef),) = self._terms.items()
                if coef in (1, -1):
                    inv = tuple(sorted((v, -e) for v, e in mono))
                    return LaurentPoly({inv: coef}) ** (-n)
            raise ValueError("negative powers only for unit monomials")
        result = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def substitute(self, mapping: Mapping[Var, "LaurentPoly"]) -> "LaurentPoly":
        """Replace variables by unit monomials (single term, coefficient +-1).

        Unit-monomial images keep negative exponents well-defined, which is
        all the substitutions used here (y_k -> q*x_k, x_k -> t*x_k) need.
        """
        images = {}
        for v, img in mapping.items():
            if img.num_terms() != 1:
                raise ValueError("substitution image must be a single term")
            ((mono, coef),) = img._terms.items()
            if coef not in (1, -1):
                raise ValueError("substitution image must have coefficient +-1")
            images[v] = (mono, coef)
        out = LaurentPoly.zero()
        for mono, c in self._terms.items():
            acc_mono: Monomial = ()
            acc_coef = c
            for v, e in mono:
                if v in images:
                    img_mono, img_coef = images[v]
                    powed = tuple(sorted((w, we * e) for w, we in img_mono))
                    acc_mono = _mono_mul(acc_mono, powed)
                    if img_coef == -1 and e % 2:
                        acc_coef = -acc_coef
                else:
                    acc_mono = _mono_mul(acc_mono, ((v, e),))
            out = out + LaurentPoly({acc_mono: acc_coef})
        return out

    # -- modular evaluation -------------------------------------------------

    def eval_mod(self, assignment: Mapping[Var, int], modulus: int) -> int:
        """Value of the polynomial at a point of the prime field.

        Negative exponents go through the modular inverse, so every assigned
        value must be nonzero mod the modulus when such an exponent occurs.
        """
        total = 0
        inv_cache: Dict[Var, int] = {}
        for mono, coef in self._terms.items():
            term = coef % modulus
            for v, e in mono:
                if v not in assignment:
                    raise UnassignedVariableError(var_name(v))
                a = assignment[v] % modulus
                if e < 0:
                    if a == 0:
                        raise NonInvertiblePointError(var_name(v))
                    if v not in inv_cache:
                        inv_cache[v] = pow(a, -1, modulus)
                    a = inv_cache[v]
                    e = -e
                term = term * pow(a, e, modulus) % modulus
            total = (total + term) % modulus
        return total

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        """Canonical text form, e.g. ``2 * x1^2 * y2^-3 + -1 * q``.

        Terms are sorted by monomial; round-trips exactly through parse().
        """
        if not self._terms:
            return "0"
        parts = [f"{self._terms[mono]} * {monomial_text(mono)}" if mono
                 else str(self._terms[mono]) for mono in sorted(self._terms)]
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Inverse of to_text()."""
        text = text.strip()
        if not text:
            raise ParseError("empty polynomial text")
        if text == "0":
            return cls.zero()
        # split into signed terms on top-level " + " / " - "
        chunks = text.replace(" - ", " + -").split(" + ")
        result = cls.zero()
        for chunk in chunks:
            chunk = chunk.strip()
            if not chunk:
                raise ParseError("empty term")
            sign = 1
            if chunk.startswith("-"):
                sign = -1
                chunk = chunk[1:].strip()
            coef = 1
            exps: Dict[Var, int] = {}
            for factor in (f.strip() for f in chunk.split("*")):
                if not factor:
                    raise ParseError("empty factor")
                if factor.lstrip("-").isdigit():
                    coef *= int(factor)
                    continue
                name, _, exp_s = factor.partition("^")
                exp = int(exp_s) if exp_s else 1
                if name == "t":
                    v = TVAR
                elif name == "q":
                    v = QVAR
                elif name[0] in ("x", "y") and name[1:].isdigit():
                    kind = KIND_X if name[0] == "x" else KIND_Y
                    v = (kind, int(name[1:]))
                else:
                    raise ParseError(f"unknown factor {factor!r}")
                exps[v] = exps.get(v, 0) + exp
            result = result + cls.monomial(exps, sign * coef)
        return result

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()})"


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.const(1)


class Residues:
    """The values of a polynomial at a fixed list of points mod a prime.

    ``+``, ``*`` (also by an int) and ``**`` act point by point, so sums and
    products of lifted factors are the values of the polynomials' sums and
    products.
    """

    __slots__ = ("values", "prime")

    def __init__(self, values: List[int], prime: int):
        self.values, self.prime = values, prime

    @classmethod
    def lift(cls, poly: LaurentPoly, points: List[Mapping[Var, int]],
             prime: int) -> "Residues":
        return cls([poly.eval_mod(pt, prime) for pt in points], prime)

    def __add__(self, other: "Residues") -> "Residues":
        p = self.prime
        return Residues([(a + b) % p for a, b in zip(self.values, other.values)], p)

    def __mul__(self, other: "Residues | int") -> "Residues":
        p = self.prime
        if isinstance(other, int):
            return Residues([a * other % p for a in self.values], p)
        return Residues([a * b % p for a, b in zip(self.values, other.values)], p)

    def __pow__(self, e: int) -> "Residues":
        p = self.prime
        return Residues([pow(a, e, p) for a in self.values], p)

    def __eq__(self, other) -> bool:
        return isinstance(other, Residues) and self.values == other.values

    def __repr__(self) -> str:
        return f"Residues({self.values}, {self.prime})"


#: Miller-Rabin with the first 13 primes as bases decides primality of
#: every integer below this bound (Sorenson and Webster, 2015).
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, for n below MILLER_RABIN_BOUND."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"{n} is past the deterministic Miller-Rabin bound")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
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
    return {v: rng.randint(1, modulus - 1) for v in sorted(set(variables))}
