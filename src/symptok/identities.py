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

  * the shifted-tableau identities (and sp_mu on the right) go through a
    row-transfer walker: a row's bounds and factors depend only on the row
    next to it, so the walker fills one row at a time and merges partial
    tableaux whose last row has the same contents into one entry;
  * every other left side goes through the factor-id kernel: each object
    becomes the multiset of its local factor ids, objects with the same
    multiset are counted once, and each distinct multiset is multiplied out
    once.

The per-object weights of the weights module multiply the same table
entries and serve the tests as the reference.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import groupby
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
from .shapes import RankTooSmallError, add_staircase, as_partition, letter, partitions_up_to
from .tableaux import enumerate_st
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
    return _t_sum(mu, n, weights.factor_table(scheme, n), _exact)


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
    out = _t_sum(mu, n, weights.factor_table(scheme, n), lift)
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
    """The left side in the value type of lift, and its object count.  The
    walker reads the below-neighbour cell cases, so the rejected "above"
    reading of ST_Q goes through the kernel."""
    if identity not in _ST_FAMILY or (identity == "COR_ST_Q"
                                      and st_q_neighbour == "above"):
        return _factor_sums(lam, n, scheme, c0_mode, st_q_neighbour, lift)
    total, st_count, qt_count = _st_sum(lam, n, weights.factor_table(scheme, n), lift)
    return total, qt_count if identity in ("PROP_T", "COR_Q") else st_count


# -- the factor-id kernel ------------------------------------------------------------


def _factor_sums(lam, n: int, scheme: str, c0_mode: str, st_q_neighbour: str,
                 lift: Lift):
    """The left side in the value type of lift, and the object count, from
    factor ids.

    Every object of the family maps to the multiset of its factor ids.  Each
    used table entry is lifted once, each power of it once, and each
    distinct multiset is multiplied out once and counted with its
    multiplicity.  The CPM_Q_NORM prefactor multiplies the sum once.
    """
    from .bijections import uasm_to_cpm

    if scheme == "ST_Q":
        ids = (weights.st_q_factor_ids(st, st_q_neighbour)
               for st in enumerate_st(lam, n))
    elif scheme in weights.CPM_SCHEMES:
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


# -- walkers for the tableau families -------------------------------------------


def _st_sum(lam, n: int, table: Mapping, lift: Lift):
    """Sum over the shifted tableaux of shape lam of the product of their
    cell factors table[(code, case)], in the value type of lift, with the
    tableau count and the count of their primed refinements (2^free each).

    A row's bounds and cell cases depend only on the row below it, so the
    walk goes bottom-up one row at a time.  Each level maps the contents of
    the row just filled to the summed product, tableau count and primed
    weight of the rows beneath; equal contents share one entry, and only
    the current level is kept.  Within a row the walk carries one running
    product per search node.  The children of the top row's last cell are
    all leaves, so its candidates' factors are added up and multiply the
    shared prefix once.
    """
    vals = {fid: lift(f) for fid, f in table.items()}
    total = lift(ZERO)
    st_count = qt_count = 0
    level = {(): (lift(ONE), 1, 1)}
    for i in range(n - 1, -1, -1):
        width, row, nxt = lam[i], [0] * lam[i], {}

        def walk(t: int, lo: int, prefix, frees: int):
            nonlocal total, st_count, qt_count
            last, down = t == width - 1, under[t]
            leaves = None
            for code in range(lo, his[t] + 1):
                case = ("left" if t and code == lo
                        else "below" if code == down else "free")
                f, free = vals[(code, case)], frees + (case == "free")
                row[t] = code
                if not last:
                    walk(t + 1, code, prefix * f, free)
                elif i == 0:
                    leaves = f if leaves is None else leaves + f
                    st_count += st
                    qt_count += qt << free
                else:
                    key, value = tuple(row), prefix * f
                    old = nxt.get(key)
                    nxt[key] = ((value, st, qt << free) if old is None else
                                (old[0] + value, old[1] + st, old[2] + (qt << free)))
            if leaves is not None:
                total = total + prefix * leaves

        for below, (value, st, qt) in level.items():
            # under[t] and under[t + 1] are the letters below cell t and on
            # its down-right diagonal (ST2, ST3); 2n + 1 stands for no cell
            under = (2 * n + 1,) + below + (2 * n + 1,) * (width - len(below))
            his = [min(under[t], under[t + 1] - 1) for t in range(width)]
            his[0] = min(his[0], letter(i + 1, True))  # ST4
            walk(0, letter(i + 1, False), value, 0)
        level = nxt
    del walk  # it refers to itself; dropping it frees the walk's state now
    return total, st_count, qt_count


def _t_sum(mu, n: int, table: Mapping, lift: Lift):
    """Sum over the rank-n tableaux of shape mu of the product of their
    letters' factors table[code], in the value type of lift.

    A row's bounds depend only on the row above it (T2), so, as in _st_sum,
    the sum is taken one row at a time, top-down, with one entry per
    distinct row contents.  The last cell's candidates are every letter
    from its least one up, so on the last row it multiplies the shared
    prefix once by a suffix sum of the table.
    """
    mu = as_partition(mu)
    if len(mu) > n:
        raise RankTooSmallError(f"shape {mu} needs more than n={n} rows")
    if not mu:
        return lift(ONE)
    top = 2 * n
    vals = {code: lift(f) for code, f in table.items()}
    suffix = {top: vals[top]}
    for code in range(top - 1, 0, -1):
        suffix[code] = vals[code] + suffix[code + 1]
    total = lift(ZERO)
    level = {(): lift(ONE)}
    for i, width in enumerate(mu):
        row, nxt = [0] * width, {}
        last_row = i == len(mu) - 1

        def walk(j: int, lo: int, prefix):
            nonlocal total
            lo = max(lo, floors[j])
            if j < width - 1:
                for code in range(lo, top + 1):
                    row[j] = code
                    walk(j + 1, code, prefix * vals[code])
            elif last_row:
                if lo <= top:
                    total = total + prefix * suffix[lo]
            else:
                for code in range(lo, top + 1):
                    row[j] = code
                    key, value = tuple(row), prefix * vals[code]
                    old = nxt.get(key)
                    nxt[key] = value if old is None else old + value

        for above, value in level.items():
            # per cell: the least letter by T2 and T3
            floors = [max(letter(i + 1, False), above[j] + 1 if above else 0)
                      for j in range(width)]
            walk(0, 0, value)
        level = nxt
    del walk  # as in _st_sum
    return total


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
