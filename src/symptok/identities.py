"""Character sums, product sides, and the identity verification engine.

Every identity equates a weighted sum over one combinatorial family with a
product of linear factors times the symplectic character sp_mu:

  PROP_T      primed shifted tableaux, t kept symbolic
  COR_Q       primed shifted tableaux at t = 1
  THM_ST      unprimed shifted tableaux, three-case xy weights
  COR_UASM    U-turn ASMs under the compass xy weighting
  COR_GT      Gelfand-Tsetlin patterns under the saturation-mark weighting
  COR_ST_Q    shifted tableaux, y = qx specialisation
  COR_UASM_Q  U-turn ASMs, q weighting (plain or normalised prefactor)
  COR_GT_Q    patterns, q weighting
  COR_GT_QX   patterns, statistics form (1+q)^B q^(Ro+Le) x^xwgt

verify() checks one (identity, mu, n) case either by exact polynomial
expansion (SYMBOLIC) or by evaluation at seeded random points of a prime
field (MODULAR).  One engine serves both modes; the mode only picks the
value type that each local factor of weights.factor_table is lifted to: the
LaurentPoly itself, or an algebra.Residues holding its values at the points.
Each left side is computed one of two ways:

  * the shifted-tableau identities (and sp_mu on the right) go through the
    letter-step transfer: the cells with letter <= c form a shape, so a
    tableau is a path of shapes, one strip per letter, each strip's factors
    depend only on the two shapes, and paths that reach the same shape are
    merged into one entry;
  * every other left side goes through the factor-id kernel: each object
    becomes the multiset of its local factor ids, objects with the same
    multiset are counted once, and each distinct multiset is multiplied out
    once.

The per-object weights of the weights module multiply the same table
entries and serve the tests as the reference.
"""

from __future__ import annotations

import operator
import random
import time
from collections import Counter
from functools import reduce
from itertools import groupby, product
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from . import weights
from .algebra import (
    MERSENNE31,
    MILLER_RABIN_BOUND,
    QVAR,
    TVAR,
    ZERO,
    LaurentPoly,
    Residues,
    is_prime,
    monomial_text,
    random_point,
    var_name,
    xvar,
    yvar,
)
from .matrices import count_gtp, enumerate_gtp, enumerate_uasm
from .shapes import (
    RankTooSmallError,
    add_staircase,
    as_partition,
    letter,
    letter_level,
    partitions_up_to,
)
from .weights import UnknownConventionError

IDENTITIES = (
    "PROP_T", "COR_Q", "THM_ST", "COR_UASM", "COR_GT",
    "COR_ST_Q", "COR_UASM_Q", "COR_GT_Q", "COR_GT_QX",
)

_ST_FAMILY = ("PROP_T", "COR_Q", "THM_ST", "COR_ST_Q")
_Q_IDENTITIES = ("COR_ST_Q", "COR_UASM_Q", "COR_GT_Q", "COR_GT_QX")

ONE = LaurentPoly.const(1)

#: Maps a table factor to the value type the engine computes in.
Lift = Callable[[LaurentPoly], Union[LaurentPoly, Residues]]


class UnknownIdentityError(ValueError):
    pass


class ScaleExceededError(RuntimeError):
    """Estimated object count exceeds the configured cap."""


class ModularParameterError(ValueError):
    """Trials or a modulus under which a modular verdict would not be earned."""


class InvalidRankError(ValueError):
    """A rank n below 1, where the identities have nothing to check."""


class InvalidWeightError(ValueError):
    """A sweep bound max_weight below 0, where no shape mu is left to check."""


#: Smallest modulus accepted for modular verification.
MIN_MODULUS = 2 ** 16

#: The accepted names of each convention knob.
CONVENTIONS = {
    "cpm_q_scheme": ("plain", "norm"),
    "c0_mode": ("full", "literal"),
    "st_q_neighbour": ("below", "above"),
}


# -- character sums and product sides -----------------------------------------


def _exact(f: LaurentPoly) -> LaurentPoly:
    """The symbolic lift: a factor stays the polynomial it is."""
    return f


def sp_mu(mu, n: int, deformed: bool = False) -> LaurentPoly:
    """Sum of wgt_t over all rank-n tableaux of shape mu."""
    scheme = "T_DEFORMED" if deformed else "T"
    return _transfer(mu, n, weights.factor_table(scheme, n), _exact, _letter_cells)[0]


def _xy_factors(n: int, deformed: bool) -> List[LaurentPoly]:
    x, y = weights._x, weights._y
    t2 = weights._t2() if deformed else ONE
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            out.append(x(i) + y(j))
            out.append(ONE + t2 * x(i, -1) * y(j, -1))
    return out


def _q_factors(n: int) -> List[LaurentPoly]:
    x, q = weights._x, weights._q
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            out.append(x(i) + q() * x(j))
            out.append(ONE + q(-1) * x(i, -1) * x(j, -1))
    return out


def _qx_factors(n: int) -> List[LaurentPoly]:
    x, q = weights._x, weights._q
    out = [q() * x(i) + x(i, -1) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(x(i) + q() * x(j))
            out.append(q() + x(i, -1) * x(j, -1))
    return out


def rhs_factors(identity: str, n: int) -> List[LaurentPoly]:
    """The product factors of the identity's right side, sp_mu excluded."""
    if identity == "PROP_T":
        return _xy_factors(n, deformed=True)
    if identity in ("COR_Q", "THM_ST", "COR_UASM", "COR_GT"):
        return _xy_factors(n, deformed=False)
    if identity in ("COR_ST_Q", "COR_UASM_Q", "COR_GT_Q"):
        return _q_factors(n)
    if identity == "COR_GT_QX":
        return _qx_factors(n)
    raise UnknownIdentityError(identity)


def _right_side(identity: str, mu, n: int, lift: Lift):
    """sp_mu times the rhs_factors, in the value type of lift."""
    factors = rhs_factors(identity, n)
    scheme = "T_DEFORMED" if identity == "PROP_T" else "T"
    out = _transfer(mu, n, weights.factor_table(scheme, n), lift, _letter_cells)[0]
    for f in factors:
        out = out * lift(f)
    return out


def rhs_product(identity: str, mu, n: int) -> LaurentPoly:
    """Exact expanded right side including the sp_mu factor."""
    return _right_side(identity, mu, n, _exact)


# -- left sides ----------------------------------------------------------------

# The factor-table scheme of each left side; COR_UASM_Q picks its own.
_SCHEMES = {"PROP_T": "QT_DEFORMED", "COR_Q": "ST_XY", "THM_ST": "ST_XY",
            "COR_ST_Q": "ST_Q", "COR_UASM": "CPM_XY", "COR_GT": "GT_XY",
            "COR_GT_Q": "GT_Q", "COR_GT_QX": "GT_QX"}


def _factor_scheme(identity: str, cpm_q_scheme: str, c0_mode: str,
                   st_q_neighbour: str) -> str:
    """The factor-table scheme of the identity's left side.  Unknown
    convention names raise UnknownConventionError."""
    given = {"cpm_q_scheme": cpm_q_scheme, "c0_mode": c0_mode,
             "st_q_neighbour": st_q_neighbour}
    for name, value in given.items():
        if value not in CONVENTIONS[name]:
            raise UnknownConventionError(f"unknown {name} {value!r}")
    if identity == "COR_UASM_Q":
        return "CPM_Q_PLAIN" if cpm_q_scheme == "plain" else "CPM_Q_NORM"
    return _SCHEMES[identity]


def _left_side(identity: str, lam, n: int, scheme: str, c0_mode: str,
               st_q_neighbour: str, lift: Lift):
    """The left side in the value type of lift, and its object count.  Only
    COR_ST_Q reads st_q_neighbour."""
    if identity not in _ST_FAMILY:
        return _factor_sums(lam, n, scheme, c0_mode, lift)
    neighbour = st_q_neighbour if identity == "COR_ST_Q" else "below"
    total, st_count, qt_count = _transfer(lam, n, weights.factor_table(scheme, n),
                                          lift, _shifted_cells(neighbour))
    return total, qt_count if identity in ("PROP_T", "COR_Q") else st_count


# -- the factor-id kernel ------------------------------------------------------------


def _factor_sums(lam, n: int, scheme: str, c0_mode: str, lift: Lift):
    """The left side in the value type of lift, and the object count, from
    factor ids.

    Every object of the family maps to the multiset of its factor ids.  Each
    used table entry is lifted once, each power of it once, and each
    distinct multiset is multiplied out once and counted with its
    multiplicity.  The CPM_Q_NORM prefactor multiplies the sum once.
    """
    from .bijections import uasm_to_cpm

    if scheme in weights.CPM_SCHEMES:
        ids = (weights.cpm_factor_ids(uasm_to_cpm(a), scheme)
               for a in enumerate_uasm(lam, n))
    else:
        ids = (weights.gt_factor_ids(g, scheme) for g in enumerate_gtp(lam, n))
    table = weights.factor_table(scheme, n)
    index = {fid: i for i, fid in enumerate(table)}
    factors = list(table.values())
    # A multiset is the bytes of its sorted table positions, a quarter of
    # the memory of a tuple.  A table holds at most 14n entries, and no
    # family of rank n >= 19 can be enumerated, so positions fit in a byte.
    multisets = Counter(bytes(sorted(index[fid] for fid in obj_ids))
                        for obj_ids in ids)

    vals = {i: lift(factors[i]) for i in {i for ms in multisets for i in ms}}
    powers: Dict[Tuple[int, int], object] = {}
    total = lift(ZERO)
    for ms, mult in multisets.items():
        term = None
        for i, run in groupby(ms):
            key = (i, sum(1 for _ in run))
            power = powers.get(key)
            if power is None:
                power = powers[key] = vals[i] ** key[1]
            term = power if term is None else term * power
        if term is None:
            term = lift(ONE)
        total = total + (term * mult if mult > 1 else term)
    if scheme == "CPM_Q_NORM":
        total = total * lift(weights.cpm_q_norm_prefactor(n, c0_mode))
    return total, sum(multisets.values())


# -- the letter-step transfer ------------------------------------------------------


def _transfer(lam, n: int, table: Mapping, lift: Lift, cells):
    """Sum over the rank-n tableaux of shape lam of the product of their
    cells' factors table[fid], in the value type of lift, with the tableau
    count and the primed count (2^free per tableau).

    The cells with letter <= c form a shape S_c, so a tableau is a path
    S_0 = (0, ..., 0) -> S_1 -> ... -> S_2n = lam of row lengths.  Row i
    (from 0) holds no letter below level i + 1 (T3, ST4), and a cell of
    letter c needs a smaller letter at its offset in row i - 1 (directly
    above it by T2, up-left on its diagonal by ST3), so step c takes S to
    the T with S_i <= T_i <= min(lam_i, S_(i-1)).  cells(c, S, T) gives the
    step's (id, power) pairs and its count of free cells, or None where the
    family forbids T.  Each level maps a shape to the summed product, count
    and primed count of its paths.  No two cells of one letter share an
    offset, so a shape that leaves some offset more cells than there are
    letters left is dropped.  Each distinct step's product is computed once.
    """
    lam = as_partition(lam)
    if len(lam) > n:
        raise RankTooSmallError(f"shape {lam} needs more than n={n} rows")
    vals = {fid: lift(f) for fid, f in table.items()}
    products: Dict[tuple, object] = {}
    level = {(0,) * len(lam): (lift(ONE), 1, 1)}
    for c in range(1, 2 * n + 1):
        rows, letters_left = min(len(lam), letter_level(c)), 2 * n - c
        nxt, alive = {}, {}
        for S, (value, count, primed) in level.items():
            ranges = [range(S[i], min(lam[i], S[i - 1] if i else lam[0]) + 1)
                      for i in range(rows)]
            for head in product(*ranges):
                T = head + S[rows:]
                ok = alive.get(T)
                if ok is None:
                    ok = alive[T] = all(
                        sum(b <= a < top for b, top in zip(T, lam)) <= letters_left
                        for a in T)
                step = cells(c, S, T) if ok else None
                if step is None:
                    continue
                ids, free = step
                f = products.get(ids)
                if f is None and ids:
                    f = products[ids] = reduce(
                        operator.mul, (vals[fid] ** e for fid, e in ids))
                value_t = value * f if ids else value
                primed_t, old = primed << free, nxt.get(T)
                nxt[T] = ((value_t, count, primed_t) if old is None else
                          (old[0] + value_t, old[1] + count, old[2] + primed_t))
        level = nxt
    return level.get(lam, (lift(ZERO), 0, 0))


def _letter_cells(c: int, S, T):
    """Ordinary tableaux: every strip is allowed, and each new cell carries
    its letter."""
    grown = sum(T) - sum(S)
    return ((c, grown),) if grown else (), 0


def _shifted_cells(neighbour: str):
    """Shifted tableaux: T is strict and row i holds a cell by the barred
    letter of level i + 1 (ST4).  A new cell whose left neighbour is new too
    is "left".  A row's first new cell, at offset s, takes the neighbour
    case when the cell below it (offset s - 1 of the next row) or, in the
    "above" reading, above it (offset s + 1 of the previous row) is new
    too, and is "free" otherwise."""
    def cells(c: int, S, T):
        if any(b and b >= a for a, b in zip(T, T[1:])) or any(
                not t and c >= letter(i + 1, True) for i, t in enumerate(T)):
            return None
        Sp, Tp = (0,) + S + (0,), (0,) + T + (0,)
        lefts = nears = frees = 0
        for i in range(1, len(Sp) - 1):
            s = Sp[i]
            if Tp[i] > s:
                lefts += Tp[i] - s - 1
                if (Sp[i + 1] <= s - 1 < Tp[i + 1] if neighbour == "below"
                        else Sp[i - 1] <= s + 1 < Tp[i - 1]):
                    nears += 1
                else:
                    frees += 1
        counts = (((c, "left"), lefts), ((c, neighbour), nears), ((c, "free"), frees))
        return tuple((fid, e) for fid, e in counts if e), frees
    return cells


# -- reports --------------------------------------------------------------------


@dataclass
class VerificationReport:
    identity: str
    n: int
    mu: Tuple[int, ...]
    lam: Tuple[int, ...]
    mode: str
    objects: int
    lhs_terms: Optional[int]
    rhs_terms: Optional[int]
    equal: bool
    counterexample: Optional[dict]
    millis: float
    params: dict = field(default_factory=dict)

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "identity": self.identity,
            "n": self.n,
            "mu": list(self.mu),
            "lambda": list(self.lam),
            "mode": self.mode,
            "counts": {
                "objects": self.objects,
                "lhsTerms": self.lhs_terms,
                "rhsTerms": self.rhs_terms,
            },
            "equal": self.equal,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.params:
            out["params"] = self.params
        if include_timing:
            out["millis"] = round(self.millis, 3)
        return out


def _identity_variables(identity: str, n: int) -> List:
    xs = [xvar(i) for i in range(1, n + 1)]
    if identity == "PROP_T":
        return xs + [yvar(i) for i in range(1, n + 1)] + [TVAR]
    if identity in _Q_IDENTITIES:
        return xs + [QVAR]
    return xs + [yvar(i) for i in range(1, n + 1)]


def _first_difference(lhs: LaurentPoly, rhs: LaurentPoly) -> dict:
    diff = lhs - rhs
    mono = sorted(diff.terms)[0]
    return {
        "monomial": monomial_text(mono),
        "lhsCoefficient": lhs.terms.get(mono, 0),
        "rhsCoefficient": rhs.terms.get(mono, 0),
    }


def _check_modular(trials: int, prime: int) -> None:
    """Refuse trials and moduli under which "equal" would not be earned:
    no trials at all, or a modulus that is not a prime of at least 2^16."""
    if trials <= 0:
        raise ModularParameterError(f"trials must be positive, got {trials}")
    if prime >= MILLER_RABIN_BOUND:
        raise ModularParameterError(
            f"modulus {prime} is too large for a deterministic primality test")
    if not is_prime(prime):
        raise ModularParameterError(f"modulus {prime} is not prime")
    if prime < MIN_MODULUS:
        raise ModularParameterError(f"modulus {prime} is below 2^16")


def verify(identity: str, mu, n: int, mode: str = "symbolic", trials: int = 20,
           seed: int = 0, prime: int = MERSENNE31, scale_cap: int = 10 ** 6,
           cpm_q_scheme: str = "plain", c0_mode: str = "full",
           st_q_neighbour: str = "below") -> VerificationReport:
    """Check one identity instance; see the module docstring for the ids."""
    if identity not in IDENTITIES:
        raise UnknownIdentityError(identity)
    mode = mode.lower()
    if mode not in ("symbolic", "modular"):
        raise ValueError(f"unknown mode {mode!r}")
    scheme = _factor_scheme(identity, cpm_q_scheme, c0_mode, st_q_neighbour)
    if mode == "modular":
        _check_modular(trials, prime)
    if n < 1:
        raise InvalidRankError(f"rank n must be at least 1, got {n}")
    mu = as_partition(mu)
    lam = add_staircase(mu, n)
    count = count_gtp(lam, n)
    if count > scale_cap:
        raise ScaleExceededError(
            f"{count} objects for lambda={lam}, cap is {scale_cap}"
        )
    params: dict = {}
    if identity == "COR_UASM_Q":
        params["cpm_q_scheme"] = cpm_q_scheme
        if cpm_q_scheme == "norm":
            params["c0_mode"] = c0_mode
    if identity == "COR_ST_Q" and st_q_neighbour != "below":
        params["st_q_neighbour"] = st_q_neighbour

    start = time.perf_counter()
    if mode == "symbolic":
        lift: Lift = _exact
    else:
        rng = random.Random(seed)
        variables = _identity_variables(identity, n)
        points = [random_point(variables, rng, prime) for _ in range(trials)]
        lift = lambda f: Residues.lift(f, points, prime)
    lhs, objects = _left_side(identity, lam, n, scheme, c0_mode,
                              st_q_neighbour, lift)
    rhs = _right_side(identity, mu, n, lift)
    equal = lhs == rhs

    if mode == "symbolic":
        counterexample = None if equal else _first_difference(lhs, rhs)
        return VerificationReport(
            identity, n, mu, lam, "SYMBOLIC", objects,
            lhs.num_terms(), rhs.num_terms(), equal, counterexample,
            (time.perf_counter() - start) * 1000.0, params,
        )
    params.update({"trials": trials, "seed": seed, "prime": prime})
    counterexample = None
    if not equal:
        idx = next(i for i, (a, b) in enumerate(zip(lhs.values, rhs.values))
                   if a != b)
        counterexample = {
            "trial": idx,
            "point": {var_name(v): points[idx][v] for v in sorted(points[idx])},
            "lhsValue": lhs.values[idx],
            "rhsValue": rhs.values[idx],
        }
    return VerificationReport(
        identity, n, mu, lam, "MODULAR", objects, None, None, equal,
        counterexample, (time.perf_counter() - start) * 1000.0, params,
    )


def _sweep_shapes(max_weight: int, n: int):
    """All mu with |mu| <= max_weight and at most n parts, in (|mu|, mu)
    order.  A negative max_weight raises InvalidWeightError."""
    if max_weight < 0:
        raise InvalidWeightError(f"max_weight must be at least 0, got {max_weight}")
    return partitions_up_to(max_weight, n)


def verify_sweep(identity: str, n: int, max_weight: int, mode: str = "symbolic",
                 workers: int = 1, **kwargs) -> List[VerificationReport]:
    """verify() over all mu with |mu| <= max_weight, in (|mu|, mu) order.

    The sweep runs serially; workers accepts only 1.
    """
    if workers != 1:
        raise ValueError(f"the sweep runs serially; workers must be 1, got {workers}")
    return [verify(identity, mu, n, mode, **kwargs)
            for mu in _sweep_shapes(max_weight, n)]


# -- the big modular case ---------------------------------------------------------


def largest_feasible_subshape(target, cap: int) -> Tuple[Tuple[int, ...], int]:
    """Largest (by weight, then lex) strict lambda contained in target whose
    staircase complement is a partition and whose object count is <= cap.

    Candidates are tried from the largest down, so the first one that fits
    is the answer and the larger ones are the only ones counted.
    """
    target = tuple(target)

    def strict(prefix: Tuple[int, ...], length: int):
        i = len(prefix)
        if i == length:
            yield prefix
            return
        hi = min(target[i], prefix[-1] - 1) if prefix else target[i]
        for v in range(hi, length - i - 1, -1):
            yield from strict(prefix + (v,), length)

    # every strict lambda has a partition lambda - delta as its complement
    candidates = [lam for length in range(len(target), 0, -1)
                  for lam in strict((), length)]
    for lam in sorted(candidates, key=lambda lam: (sum(lam), lam), reverse=True):
        cnt = count_gtp(lam, len(lam))
        if cnt <= cap:
            return lam, cnt
    raise ScaleExceededError(f"no subshape of {target} fits under {cap}")


def verify_big_modular(mu, n: int, trials: int = 20, seed: int = 0,
                       prime: int = MERSENNE31,
                       cap: int = 10 ** 6) -> VerificationReport:
    """THM_ST in modular mode, falling back to the largest feasible
    subshape of lambda when the requested case exceeds the cap; the report
    documents the request, the count, and the fallback."""
    mu = as_partition(mu)
    lam = add_staircase(mu, n)
    count = count_gtp(lam, n)
    if count <= cap:
        return verify("THM_ST", mu, n, "modular", trials, seed, prime, cap)
    fallback_lam, fallback_count = largest_feasible_subshape(lam, cap)
    fn = len(fallback_lam)
    fmu = tuple(fallback_lam[i] - (fn - i) for i in range(fn))
    report = verify("THM_ST", fmu, fn, "modular", trials, seed, prime, cap)
    report.params["fallback"] = {
        "requested": {"mu": list(mu), "n": n, "lambda": list(lam),
                      "objects": count},
        "cap": cap,
        "reason": "requested object count exceeds the enumeration cap",
        "chosen": {"lambda": list(fallback_lam), "n": fn, "mu": list(fmu),
                   "objects": fallback_count},
    }
    return report


# -- ambiguity resolutions ---------------------------------------------------------


def ambiguity_report(n: int = 2, max_weight: int = 2,
                     scale_cap: int = 10 ** 6) -> dict:
    """Machine-readable findings for the three under-determined conventions.

    Each finding lists, per mu, whether the variant satisfies the relevant
    identity symbolically at the given rank.
    """

    def sweep(identity, **kw):
        reports = verify_sweep(identity, n, max_weight, scale_cap=scale_cap, **kw)
        return _finding([(r.mu, r.equal) for r in reports])

    report = {
        "n": n,
        "max_weight": max_weight,
        "cpm_q_norm_prefactor": {
            "full": dict(
                formula="(1+q)^n / q^(n(n+1)/2)",
                **sweep("COR_UASM_Q", cpm_q_scheme="norm", c0_mode="full"),
            ),
            "literal": dict(
                formula="(1+q) / q^(n(n+1)/2)",
                **sweep("COR_UASM_Q", cpm_q_scheme="norm", c0_mode="literal"),
            ),
        },
        "st_q_neighbour": {
            "below": sweep("COR_ST_Q", st_q_neighbour="below"),
            "above": sweep("COR_ST_Q", st_q_neighbour="above"),
        },
        "l_even_range": {
            "through_diagonal": sweep("COR_GT_QX"),
            "stop_before_diagonal": _le_setbuilder_sweep(n, max_weight),
        },
    }
    return report


def _finding(cases: List[Tuple[Tuple[int, ...], bool]]) -> dict:
    """One variant's verdict per mu, and whether it holds for all of them."""
    return {"satisfies": all(equal for _, equal in cases),
            "cases": [{"mu": list(mu), "equal": equal} for mu, equal in cases]}


def _le_setbuilder_sweep(n: int, max_weight: int) -> dict:
    """COR_GT_QX with the narrower L_e that stops at j = k-1."""
    cases = []
    q = weights._q
    for mu in _sweep_shapes(max_weight, n):
        lam = add_staircase(mu, n)
        lhs = LaurentPoly.zero()
        for g in enumerate_gtp(lam, n):
            s = weights.gt_statistics(g)
            le = weights.le_statistic_setbuilder(g)
            mono = LaurentPoly.monomial(
                {xvar(k): e for k, e in s.x_exponents.items() if e})
            lhs = lhs + (ONE + q()) ** s.b * q(s.r_odd + le) * mono
        cases.append((mu, lhs == rhs_product("COR_GT_QX", mu, n)))
    return _finding(cases)
