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
field (MODULAR).  Symbolic mode sums the per-object weights of _lhs_stream.
Modular mode never expands a left side.  The shifted-tableau sums (and sp_mu
on the right) stream through a walker that carries per-point running
products, so they scale far past what symbolic expansion allows.  Every
other left side goes through the factor-table kernel: each object becomes
the multiset of its local factor ids (weights.factor_table), objects with
the same multiset are counted once, each table entry is evaluated once per
point, and each distinct multiset once per point.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from . import weights
from .algebra import (
    MERSENNE31,
    MILLER_RABIN_BOUND,
    QVAR,
    TVAR,
    LaurentPoly,
    is_prime,
    random_point,
    xvar,
    yvar,
)
from .matrices import count_gtp, enumerate_gtp, enumerate_uasm
from .shapes import add_staircase, as_partition, letter, partitions_up_to
from .tableaux import enumerate_st, enumerate_t, prime_freedom
from .weights import UnknownConventionError

IDENTITIES = (
    "PROP_T", "COR_Q", "THM_ST", "COR_UASM", "COR_GT",
    "COR_ST_Q", "COR_UASM_Q", "COR_GT_Q", "COR_GT_QX",
)

_ST_FAMILY = ("PROP_T", "COR_Q", "THM_ST", "COR_ST_Q")
_Q_IDENTITIES = ("COR_ST_Q", "COR_UASM_Q", "COR_GT_Q", "COR_GT_QX")

ONE = LaurentPoly.const(1)


class UnknownIdentityError(ValueError):
    pass


class ScaleExceededError(RuntimeError):
    """Estimated object count exceeds the configured cap."""


class ModularParameterError(ValueError):
    """Trials or a modulus under which a modular verdict would not be earned."""


#: Smallest modulus accepted for modular verification.
MIN_MODULUS = 2 ** 16

_CONVENTIONS = {
    "cpm_q_scheme": ("plain", "norm"),
    "c0_mode": ("full", "literal"),
    "st_q_neighbour": ("below", "above"),
}


# -- character sums and product sides -----------------------------------------


def sp_mu(mu, n: int, deformed: bool = False) -> LaurentPoly:
    """Sum of wgt_t over all rank-n tableaux of shape mu."""
    total = LaurentPoly.zero()
    for t in enumerate_t(mu, n):
        total = total + weights.wgt_t(t, deformed)
    return total


def q_lambda(lam, n: int, deformed: bool = False) -> LaurentPoly:
    """Sum of wgt_qt over all primed tableaux of shape lambda.

    Computed as a sum over unprimed tableaux of per-cell two-term factors;
    tests check this against literal enumeration of primings.
    """
    total = LaurentPoly.zero()
    for st in enumerate_st(lam, n):
        total = total + weights.primed_weight_sum(st, deformed)
    return total


def q_delta_product(n: int, deformed: bool = False) -> LaurentPoly:
    """The staircase product over pairs i <= j."""
    out = ONE
    for f in _xy_factors(n, deformed):
        out = out * f
    return out


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


def rhs_product(identity: str, mu, n: int) -> LaurentPoly:
    """Exact expanded right side including the sp_mu factor."""
    out = sp_mu(mu, n, deformed=(identity == "PROP_T"))
    for f in rhs_factors(identity, n):
        out = out * f
    return out


# -- left sides ----------------------------------------------------------------


def _factor_scheme(identity: str, cpm_q_scheme: str, c0_mode: str,
                   st_q_neighbour: str) -> Optional[str]:
    """The factor-table scheme of the identity's left side, or None when
    the shifted-tableau walker takes it.  Unknown convention names raise
    UnknownConventionError."""
    given = {"cpm_q_scheme": cpm_q_scheme, "c0_mode": c0_mode,
             "st_q_neighbour": st_q_neighbour}
    for name, value in given.items():
        if value not in _CONVENTIONS[name]:
            raise UnknownConventionError(f"unknown {name} {value!r}")
    if identity in _ST_FAMILY:
        if identity == "COR_ST_Q" and st_q_neighbour == "above":
            return "ST_Q"
        return None
    if identity == "COR_UASM_Q":
        return "CPM_Q_PLAIN" if cpm_q_scheme == "plain" else "CPM_Q_NORM"
    schemes = {"COR_UASM": "CPM_XY", "COR_GT": "GT_XY", "COR_GT_Q": "GT_Q",
               "COR_GT_QX": "GT_QX"}
    if identity not in schemes:
        raise UnknownIdentityError(identity)
    return schemes[identity]


def _lhs_stream(identity: str, lam, n: int, cpm_q_scheme: str, c0_mode: str,
                st_q_neighbour: str) -> Iterator[Tuple[LaurentPoly, int]]:
    """Yield (object weight, multiplicity counted as objects)."""
    scheme = _factor_scheme(identity, cpm_q_scheme, c0_mode, st_q_neighbour)
    if identity in _ST_FAMILY:
        for st in enumerate_st(lam, n):
            if identity == "PROP_T":
                w, objs = weights.primed_weight_sum(st, True), None
            elif identity == "COR_Q":
                w, objs = weights.primed_weight_sum(st, False), None
            elif identity == "THM_ST":
                w, objs = weights.wgt_st(st), 1
            else:
                w, objs = weights.wgt_st_q(st, st_q_neighbour), 1
            if objs is None:
                objs = 2 ** len(prime_freedom(st)[1])  # primed refinements
            yield w, objs
    elif identity in ("COR_UASM", "COR_UASM_Q"):
        for a in enumerate_uasm(lam, n):
            yield weights.wgt_cpm(a, scheme, c0_mode), 1
    elif identity == "COR_GT_QX":
        for g in enumerate_gtp(lam, n):
            yield weights.qx_weight(g), 1
    else:
        for g in enumerate_gtp(lam, n):
            yield weights.wgt_gtp(g, scheme), 1


# -- the factor-table kernel ---------------------------------------------------------


def _factor_sums(lam, n: int, scheme: str, c0_mode: str, st_q_neighbour: str,
                 points: List[Dict], prime: int) -> Tuple[List[int], int]:
    """Per-point left-side sums and the object count, from factor ids.

    Every object of the family maps to the multiset of its factor ids.  Each
    used table entry is evaluated once per point, and each distinct multiset
    once per point, as a product of powers of those values.  The CPM_Q_NORM
    prefactor multiplies the sums once.
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

    used = {i for ms in multisets for i in ms}
    vals = {i: [factors[i].eval_mod(pt, prime) for pt in points] for i in used}
    powers: Dict[Tuple[int, int], List[int]] = {}
    sums = [0] * len(points)
    for ms, mult in multisets.items():
        acc = [mult] * len(points)
        for i, run in groupby(ms):
            count = sum(1 for _ in run)
            col = powers.get((i, count))
            if col is None:
                col = powers[(i, count)] = [pow(v, count, prime) for v in vals[i]]
            acc = [a * v % prime for a, v in zip(acc, col)]
        sums = [(s + a) % prime for s, a in zip(sums, acc)]
    if scheme == "CPM_Q_NORM":
        c0 = weights.cpm_q_norm_prefactor(n, c0_mode)
        sums = [s * c0.eval_mod(pt, prime) % prime for s, pt in zip(sums, points)]
    return sums, sum(multisets.values())


# -- streaming walkers for the tableau families ----------------------------------


def _st_case_factor(identity: str, code: int, case: str,
                    st_q_neighbour: str) -> LaurentPoly:
    if identity == "COR_ST_Q":
        return weights._st_case_factor_q(code, case)
    f = weights._st_case_factor_xy(code, case)
    if identity == "PROP_T" and code % 2 == 0:
        f = weights._t2() * f
    return f


def _stream_st_sums(lam, n: int, factor_of: Callable[[int, str], LaurentPoly],
                    points: List[Dict], prime: int) -> Tuple[List[int], int, int]:
    """Per-point sums of streamed tableau weights, with object counts.

    Mirrors the bottom-up enumerator but carries running per-point products,
    so the cost per search node is one multiplication per point.  Returns
    (sums, tableau count, primed-refinement count).
    """
    T = len(points)
    fv: Dict[Tuple[int, str], List[int]] = {}
    for code in range(1, 2 * n + 1):
        for case in ("left", "below", "free"):
            poly = factor_of(code, case)
            fv[(code, case)] = [poly.eval_mod(pt, prime) for pt in points]
    sums = [0] * T
    st_count = 0
    qt_count = 0
    rows = [[0] * lam[i] for i in range(n)]
    # prods[d] = per-point partial product after d placed cells; frees[d] likewise
    total_cells = sum(lam)
    prods = [[1] * T for _ in range(total_cells + 1)]
    frees = [0] * (total_cells + 1)

    def fill(i: int, t: int, depth: int):
        if t == lam[i]:
            if i == 0:
                take_leaf(depth)
                return
            fill(i - 1, 0, depth)
            return
        hi = 2 * n
        below_row = rows[i + 1] if i + 1 < n else None
        below = None
        if below_row is not None:
            if 0 <= t - 1 < lam[i + 1]:
                hi = min(hi, below_row[t - 1])
                below = below_row[t - 1]
            if t < lam[i + 1]:
                hi = min(hi, below_row[t] - 1)
        if t == 0:
            candidates = [c for c in (letter(i + 1, False), letter(i + 1, True))
                          if c <= hi]
        else:
            candidates = range(rows[i][t - 1], hi + 1)
        cur = prods[depth]
        nxt = prods[depth + 1]
        for code in candidates:
            rows[i][t] = code
            if t > 0 and rows[i][t - 1] == code:
                case = "left"
            elif below == code:
                case = "below"
            else:
                case = "free"
            vals = fv[(code, case)]
            for p in range(T):
                nxt[p] = cur[p] * vals[p] % prime
            frees[depth + 1] = frees[depth] + (case == "free")
            fill(i, t + 1, depth + 1)

    def take_leaf(depth: int):
        nonlocal st_count, qt_count
        st_count += 1
        qt_count += 1 << frees[depth]
        leaf = prods[depth]
        for p in range(T):
            sums[p] = (sums[p] + leaf[p]) % prime

    if n:
        fill(n - 1, 0, 0)
    return sums, st_count, qt_count


def _stream_t_sums(mu, n: int, points: List[Dict], prime: int,
                   deformed: bool) -> Tuple[List[int], int]:
    """Per-point sums of wgt_t over all tableaux of shape mu."""
    T = len(points)
    mu = as_partition(mu)
    fv = {}
    for code in range(1, 2 * n + 1):
        k = (code + 1) // 2
        if code % 2:
            poly = weights._x(k)
        else:
            poly = weights._x(k, -1)
            if deformed:
                poly = weights._t2() * poly
        fv[code] = [poly.eval_mod(pt, prime) for pt in points]
    sums = [0] * T
    count = 0
    if not mu:
        return [1 % prime] * T, 1
    nrows = len(mu)
    rows = [[0] * mu[i] for i in range(nrows)]
    order = [(i, j) for i in range(nrows) for j in range(mu[i])]
    prods = [[1] * T for _ in range(len(order) + 1)]

    def fill(pos: int):
        nonlocal count
        if pos == len(order):
            count += 1
            leaf = prods[pos]
            for p in range(T):
                sums[p] = (sums[p] + leaf[p]) % prime
            return
        i, j = order[pos]
        lo = letter(i + 1, False)
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        cur, nxt = prods[pos], prods[pos + 1]
        for code in range(lo, 2 * n + 1):
            rows[i][j] = code
            vals = fv[code]
            for p in range(T):
                nxt[p] = cur[p] * vals[p] % prime
            fill(pos + 1)

    fill(0)
    return sums, count


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
    mono_text = LaurentPoly({mono: 1}).to_text()[4:] if mono else "1"
    return {
        "monomial": mono_text,
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
        lhs = LaurentPoly.zero()
        objects = 0
        for w, objs in _lhs_stream(identity, lam, n, cpm_q_scheme, c0_mode,
                                   st_q_neighbour):
            lhs = lhs + w
            objects += objs
        rhs = rhs_product(identity, mu, n)
        equal = lhs == rhs
        counterexample = None if equal else _first_difference(lhs, rhs)
        report = VerificationReport(
            identity, n, mu, lam, "SYMBOLIC", objects,
            lhs.num_terms(), rhs.num_terms(), equal, counterexample,
            (time.perf_counter() - start) * 1000.0, params,
        )
        return report

    rng = random.Random(seed)
    variables = _identity_variables(identity, n)
    points = [random_point(variables, rng, prime) for _ in range(trials)]
    params.update({"trials": trials, "seed": seed, "prime": prime})

    if scheme is None:
        factor_of = lambda code, case: _st_case_factor(
            identity, code, case, st_q_neighbour)
        lhs_vals, st_count, qt_count = _stream_st_sums(
            lam, n, factor_of, points, prime)
        objects = qt_count if identity in ("PROP_T", "COR_Q") else st_count
    else:
        lhs_vals, objects = _factor_sums(lam, n, scheme, c0_mode,
                                         st_q_neighbour, points, prime)

    sp_deformed = identity == "PROP_T"
    sp_vals, _ = _stream_t_sums(mu, n, points, prime, sp_deformed)
    factors = rhs_factors(identity, n)
    rhs_vals = []
    for p, pt in enumerate(points):
        v = sp_vals[p]
        for f in factors:
            v = v * f.eval_mod(pt, prime) % prime
        rhs_vals.append(v)

    equal = lhs_vals == rhs_vals
    counterexample = None
    if not equal:
        idx = next(i for i in range(trials) if lhs_vals[i] != rhs_vals[i])
        from .algebra import var_name
        counterexample = {
            "trial": idx,
            "point": {var_name(v): points[idx][v] for v in sorted(points[idx])},
            "lhsValue": lhs_vals[idx],
            "rhsValue": rhs_vals[idx],
        }
    return VerificationReport(
        identity, n, mu, lam, "MODULAR", objects, None, None, equal,
        counterexample, (time.perf_counter() - start) * 1000.0, params,
    )


def verify_sweep(identity: str, n: int, max_weight: int, mode: str = "symbolic",
                 workers: int = 1, **kwargs) -> List[VerificationReport]:
    """verify() over all mu with |mu| <= max_weight, sorted by (|mu|, mu)."""
    mus = list(partitions_up_to(max_weight, n))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(
                lambda m: verify(identity, m, n, mode, **kwargs), mus))
    else:
        reports = [verify(identity, m, n, mode, **kwargs) for m in mus]
    reports.sort(key=lambda r: (sum(r.mu), r.mu))
    return reports


# -- the big modular case ---------------------------------------------------------


def largest_feasible_subshape(target, cap: int) -> Tuple[Tuple[int, ...], int]:
    """Largest (by weight, then lex) strict lambda contained in target whose
    staircase complement is a partition and whose object count is <= cap."""
    target = tuple(target)
    best: Optional[Tuple[Tuple[int, ...], int]] = None

    def candidates(length: int):
        def rec(prefix: List[int], i: int):
            if i == length:
                yield tuple(prefix)
                return
            hi = min(target[i], prefix[-1] - 1) if prefix else target[i]
            for v in range(hi, length - i - 1, -1):
                prefix.append(v)
                yield from rec(prefix, i + 1)
                prefix.pop()
        yield from rec([], 0)

    for length in range(len(target), 0, -1):
        delta = tuple(range(length, 0, -1))
        for lam in candidates(length):
            mu = tuple(lam[i] - delta[i] for i in range(length))
            if any(m < 0 for m in mu):
                continue
            if any(mu[i] < mu[i + 1] for i in range(length - 1)):
                continue
            if best is not None and (sum(lam), lam) <= (sum(best[0]), best[0]):
                continue
            cnt = count_gtp(lam, length)
            if cnt <= cap:
                best = (lam, cnt)
    if best is None:
        raise ScaleExceededError(f"no subshape of {target} fits under {cap}")
    return best


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
    mus = list(partitions_up_to(max_weight, n))

    def sweep(identity, **kw):
        cases = []
        all_equal = True
        for mu in mus:
            r = verify(identity, mu, n, "symbolic", scale_cap=scale_cap, **kw)
            cases.append({"mu": list(mu), "equal": r.equal})
            all_equal = all_equal and r.equal
        return {"satisfies": all_equal, "cases": cases}

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
            "stop_before_diagonal": _le_setbuilder_sweep(mus, n),
        },
    }
    return report


def _le_setbuilder_sweep(mus, n: int) -> dict:
    """COR_GT_QX with the narrower L_e that stops at j = k-1."""
    cases = []
    all_equal = True
    q = weights._q
    for mu in mus:
        lam = add_staircase(mu, n)
        lhs = LaurentPoly.zero()
        for g in enumerate_gtp(lam, n):
            s = weights.gt_statistics(g)
            le = weights.le_statistic_setbuilder(g)
            mono = LaurentPoly.monomial(
                {xvar(k): e for k, e in s.x_exponents.items() if e})
            lhs = lhs + (ONE + q()) ** s.b * q(s.r_odd + le) * mono
        equal = lhs == rhs_product("COR_GT_QX", mu, n)
        cases.append({"mu": list(mu), "equal": equal})
        all_equal = all_equal and equal
    return {"satisfies": all_equal, "cases": cases}
