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
Every left side, and sp_mu on the right, goes through one letter-step
transfer.  The cells of a tableau with letter <= c form a shape, so a
tableau is a path of shapes, one strip per letter; paths that reach the same
shape are merged into one entry.  The same shapes are the rows of a GT
pattern and the column sums of a U-turn ASM after each alphabet row, so one
walk serves every family, and three families of step callbacks name the
local factors of a step from the shapes before and after it: letters of an
ordinary tableau, cell cases of a shifted one, and the saturation marks or
compass codes of the pattern or matrix row that the step builds.  No object
is enumerated.

The per-object weights of the weights module multiply the same table
entries and serve the tests as the reference.
"""

from __future__ import annotations

import operator
import random
import time
from functools import reduce
from itertools import product
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
from .matrices import count_gtp
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
    """A symbolic case whose family has more than SYMBOLIC_OBJECT_CAP objects,
    or a fallback search with no subshape under its cap."""


class ModularParameterError(ValueError):
    """Trials or a modulus under which a modular verdict would not be earned."""


class UnusedConventionError(ValueError):
    """A convention knob set away from its default for a weighing that never
    reads it, where the output would not show that it did nothing."""


class InvalidRankError(ValueError):
    """A rank n below 1, where the identities have nothing to check."""


class InvalidWeightError(ValueError):
    """A sweep bound max_weight below 0, where no shape mu is left to check."""


#: Smallest modulus accepted for modular verification.
MIN_MODULUS = 2 ** 16

#: Largest family that symbolic mode expands.  Symbolic cost grows with the
#: expansion, so the family is counted before any algebra; modular cost
#: follows the shapes the transfer walks, and modular mode has no limit.
SYMBOLIC_OBJECT_CAP = 10 ** 6

#: The accepted names of each convention knob, the default first.
CONVENTIONS = {
    "cpm_q_scheme": ("plain", "norm"),
    "c0_mode": ("full", "literal"),
    "st_q_neighbour": ("below", "above"),
}

#: The convention knobs that each factor-table scheme reads; no other scheme
#: reads any.  Only COR_UASM_Q has the CPM_Q schemes, and cpm_q_scheme picks
#: between them.
_SCHEME_READS = {"CPM_Q_PLAIN": ("cpm_q_scheme",),
                 "CPM_Q_NORM": ("cpm_q_scheme", "c0_mode"),
                 "ST_Q": ("st_q_neighbour",)}


def check_conventions(scheme: str, reader: str, **given: str) -> None:
    """Refuse the convention knobs given for a weighing under scheme: an
    unknown name raises UnknownConventionError, and a knob set away from its
    default that scheme never reads raises UnusedConventionError naming
    reader.  verify and the CLI's weight command share this rule."""
    for name, value in given.items():
        if value not in CONVENTIONS[name]:
            raise UnknownConventionError(f"unknown {name} {value!r}")
    for name, value in given.items():
        if value != CONVENTIONS[name][0] and name not in _SCHEME_READS.get(scheme, ()):
            raise UnusedConventionError(f"{name} {value!r} is not read by {reader}")


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
    """The factor-table scheme of the identity's left side, once
    check_conventions has accepted the knobs for it."""
    if identity == "COR_UASM_Q":
        scheme = "CPM_Q_PLAIN" if cpm_q_scheme == "plain" else "CPM_Q_NORM"
        reader = f"{identity} with cpm_q_scheme {cpm_q_scheme!r}"
    else:
        scheme, reader = _SCHEMES[identity], identity
    check_conventions(scheme, reader, cpm_q_scheme=cpm_q_scheme,
                      c0_mode=c0_mode, st_q_neighbour=st_q_neighbour)
    return scheme


def _left_side(identity: str, lam, n: int, scheme: str, c0_mode: str,
               st_q_neighbour: str, lift: Lift):
    """The left side in the value type of lift, and its object count."""
    table = weights.factor_table(scheme, n)
    if identity in _ST_FAMILY:
        cells = _shifted_cells(st_q_neighbour)
    elif scheme in weights.CPM_SCHEMES:
        cells = _compass_cells(lam[0], table)
    else:
        cells = _pattern_cells(table)
    total, count, primed = _transfer(lam, n, table, lift, cells)
    if scheme == "CPM_Q_NORM":
        total = total * lift(weights.cpm_q_norm_prefactor(n, c0_mode))
    return total, primed if identity in ("PROP_T", "COR_Q") else count


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
    family forbids T.  Three families of callbacks share the walk:
    _letter_cells (ordinary tableaux, for sp_mu), _shifted_cells (shifted
    tableaux) and, through the bijections, the families that the shifted
    paths index: S_c is GT pattern row c (_pattern_cells) and the column
    sums of a U-turn ASM after alphabet row c (_compass_cells).  Each level
    maps a shape to the summed product, count and primed count of its
    paths.  No two cells of one letter share an offset, so a shape that
    leaves some offset more cells than there are letters left is dropped.
    Each distinct step's product is computed once.
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


def _shifted_step(c: int, T) -> bool:
    """Whether a shifted tableau may reach T with letter c: T is strict and
    row i holds a cell by the barred letter of level i + 1 (ST4)."""
    return not (any(b and b >= a for a, b in zip(T, T[1:])) or any(
        not t and c >= letter(i + 1, True) for i, t in enumerate(T)))


def _shifted_cells(neighbour: str):
    """Shifted tableaux (steps as _shifted_step).  A new cell whose left
    neighbour is new too is "left".  A row's first new cell, at offset s,
    takes the neighbour case when the cell below it (offset s - 1 of the
    next row) or, in the "above" reading, above it (offset s + 1 of the
    previous row) is new too, and is "free" otherwise."""
    def cells(c: int, S, T):
        if not _shifted_step(c, T):
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


def _pattern_cells(table: Mapping, narrow_le: bool = False):
    """Strict GT patterns.  S_c is pattern row c: m(k, j) = S_(2k-1)[j-1]
    and mb(k, j) = S_(2k)[j-1] (the bijections' dictionary), so the steps
    are the shifted ones, and step c at level k marks the unbarred ("u",
    odd c) or barred ("b", even c) positions of level k from the triples
    (T[j-1], S[j-1], T[j]), j < k; the diagonal is B when T[k-1] > S[k-1]
    (S[k-1] = mb(k-1, k) = 0 on odd steps).  Its x part is x_k^(|T|-|S|) on
    odd steps and x_k^(|S|-|T|) on even ones.  Under GT_QX a step counts
    ("B",) per B mark off the diagonal, plus the joint diagonal on even
    steps, and ("q",) per R mark on odd steps and L mark on even ones;
    narrow_le leaves the diagonal L out (the rejected set-builder L_e)."""
    statistics = ("q",) in table

    def cells(c: int, S, T):
        if not _shifted_step(c, T):
            return None
        k, odd = letter_level(c), c % 2
        marks = {"B": 0, "L": 0, "R": 0}
        for j in range(k - 1):
            marks["L" if T[j] == S[j] else "R" if S[j] == T[j + 1] else "B"] += 1
        diagonal = "B" if T[k - 1] > S[k - 1] else "L"
        grown = sum(T) - sum(S)
        ids = [(("x", k, 1 if odd else -1), grown)] if grown else []
        if statistics:
            b = marks["B"] + (not odd and S[k - 1] > 0 and diagonal == "B")
            q = marks["R"] if odd else marks["L"] + (diagonal == "L" and not narrow_le)
            ids += [(fid, e) for fid, e in ((("B",), b), (("q",), q)) if e]
        else:
            marks[diagonal] += 1
            side = "u" if odd else "b"
            ids += [((side, mark, k), e) for mark, e in marks.items()
                    if e and (side, mark, k) in table]
        return tuple(ids), 0
    return cells


def _compass_cells(width: int, table: Mapping):
    """U-turn ASMs of width columns through their compass codes.  Column v
    has summed to 1 after alphabet row c exactly when v is a part of S_c
    (uasm_to_gtp), so the steps are the shifted ones and row c is the 0/1
    column vector of T minus that of S: +1 is WE, -1 is NS, and a 0 takes
    its code from the sign of its nearest nonzero above (+1 when its column
    is marked in S) and to its right (+1 when the row sums to 1 right of
    it).  The ids are the (code, c) in the table, plus (TURN, c) when the
    table has it and the row's first entry starts a strip."""
    # only the U-turn families read the recoding, so importing this module
    # does not load the bijections
    from .bijections import _ZERO_CODES

    def cells(c: int, S, T):
        if not _shifted_step(c, T):
            return None
        before, after = set(S), set(T)
        counts: Dict[str, int] = {}
        east = 0
        for v in range(width, 0, -1):
            d = (v in after) - (v in before)
            if d:
                code = "WE" if d > 0 else "NS"
            else:
                code = _ZERO_CODES[(1 if v in before else -1, 1 if east else -1)]
            counts[code] = counts.get(code, 0) + 1
            east += d
        ids = sorted(((code, c), e) for code, e in counts.items() if (code, c) in table)
        if code in weights._TURN_START and (weights._TURN, c) in table:
            ids.append(((weights._TURN, c), 1))
        return tuple(ids), 0
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
           seed: int = 0, prime: int = MERSENNE31,
           cpm_q_scheme: str = "plain", c0_mode: str = "full",
           st_q_neighbour: str = "below") -> VerificationReport:
    """Check one identity instance; see the module docstring for the ids.

    Symbolic mode refuses a family of more than SYMBOLIC_OBJECT_CAP objects
    with ScaleExceededError before any algebra.  Modular mode counts nothing
    up front and has no object limit: the report's object count comes from
    the transfer, whose cost follows the shapes it walks.
    """
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
    if mode == "symbolic":
        count = count_gtp(lam, n)
        if count > SYMBOLIC_OBJECT_CAP:
            raise ScaleExceededError(
                f"{count} objects for lambda={lam}; symbolic mode expands at "
                f"most {SYMBOLIC_OBJECT_CAP}, modular mode has no such limit")
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
    subshape of lambda when the requested case has more than cap objects;
    the report documents the request, the count, and the fallback.

    The fallback dates from when modular cost grew with the object count;
    verify itself now runs the requested case in modular mode whatever its
    size.  It stays while the at_scale benchmark pins its answer.
    """
    mu = as_partition(mu)
    lam = add_staircase(mu, n)
    count = count_gtp(lam, n)
    if count <= cap:
        return verify("THM_ST", mu, n, "modular", trials=trials, seed=seed,
                      prime=prime)
    fallback_lam, fallback_count = largest_feasible_subshape(lam, cap)
    fn = len(fallback_lam)
    fmu = tuple(fallback_lam[i] - (fn - i) for i in range(fn))
    report = verify("THM_ST", fmu, fn, "modular", trials=trials, seed=seed,
                    prime=prime)
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


def ambiguity_report(n: int = 2, max_weight: int = 2) -> dict:
    """Machine-readable findings for the three under-determined conventions.

    Each finding lists, per mu, whether the variant satisfies the relevant
    identity symbolically at the given rank.
    """

    def sweep(identity, **kw):
        reports = verify_sweep(identity, n, max_weight, **kw)
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
    table = weights.factor_table("GT_QX", n)
    cases = []
    for mu in _sweep_shapes(max_weight, n):
        lam = add_staircase(mu, n)
        lhs = _transfer(lam, n, table, _exact, _pattern_cells(table, narrow_le=True))[0]
        cases.append((mu, lhs == rhs_product("COR_GT_QX", mu, n)))
    return _finding(cases)
