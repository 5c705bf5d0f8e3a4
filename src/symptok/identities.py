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

Adding an identity is one row of IDENTITY_ROWS.  GRID_VARIANTS,
REJECTED_VARIANTS and GRID_RANKS define the verified grid, which the scripts
and the acceptance tests run.

verify() checks one (identity, mu, n) case either by exact polynomial
expansion (SYMBOLIC) or by evaluation at seeded random points of a prime
field (MODULAR).  One engine serves both modes; the mode only picks the
call's value space, one per call: a rings.PackedRing of exactly the call's
variables (one machine digit a monomial at n <= 3, _symbolic), whose
values are rings.Packed, or an algebra.Sample of seeded points, whose
values are algebra.Residues.  The space lifts each local factor of
weights.factor_table, counts a value's terms and reads where two values
first differ, so one comparison (_compare) serves both modes and the
sweeps, and its in-place check (_holds) the ambiguity findings.  Public
results come back as LaurentPoly.
Every left side, and sp_mu on the right, goes through one letter-step
transfer: every object of every family is a path of shapes, one strip per
letter, and the transfer sums the step products named by the weights
module's step callbacks (weights._weighing) over all paths, merging paths
that reach the same shape.  Which steps the paths take depends only on the
family's shape rule, the rank and the targets, so one graph serves every family: the
shifted tableaux, the U-turn ASMs and the GT patterns share a rule, and
_shape_graph keeps the SHAPE_GRAPHS_KEPT most recently used graphs, at 8
bytes a step.  A graph counts the paths into each target as it is built,
so every object count is read from it: the reports', the symbolic cap's,
count_gtp's and the fallback search's.
What the walk keeps at a shape does not depend on where the paths go next,
so one walk serves many targets too: verify_sweep walks every mu's left
side at once and every sp_mu at once, and verify is the same engine with
one target.  No object is enumerated.  weights.path_weight multiplies the
factors that the same callbacks name along one object's path, and the
tests check both against per-object weights of their own
(tests/oracles.py).
"""

from __future__ import annotations

import operator
import random
import time
from functools import lru_cache, reduce
from itertools import product
from typing import (TYPE_CHECKING, Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Tuple, Union)

from . import weights
from .algebra import (
    _DIGIT_BITS,
    MERSENNE31,
    MILLER_RABIN_BOUND,
    ONE,
    QVAR,
    TVAR,
    ZERO,
    ExponentOverflowError,
    LaurentPoly,
    Residues,
    Sample,
    is_prime,
    random_point,
    xvar,
    yvar,
)
from .shapes import (  # InvalidRankError is re-exported for the callers of verify
    BadLengthError,
    InvalidRankError,
    RankTooSmallError,
    _step_ranges,
    add_staircase,
    as_partition,
    as_rank,
    as_strict_partition,
    partitions_up_to,
)
# the convention errors are re-exported for the callers of verify
from .weights import UnknownConventionError, UnusedConventionError, check_conventions

if TYPE_CHECKING:
    from .rings import Packed, PackedRing


class Identity(NamedTuple):
    """What tells one identity from another; the shared engine does the rest."""

    scheme: str  # the left side's factor-table scheme (weights.SCHEMES)
    product: str  # the right side's staircase product: "xy", "q" or "qx"
    keeps_t: bool = False  # t stays symbolic, on both sides
    counts_primed: bool = False  # the report counts primed refinements


#: One row per identity.  COR_UASM_Q's row names its plain scheme; its
#: cpm_q_scheme knob may pick CPM_Q_NORM instead (_factor_scheme).
IDENTITY_ROWS = {
    "PROP_T": Identity("QT_DEFORMED", "xy", keeps_t=True, counts_primed=True),
    "COR_Q": Identity("ST_XY", "xy", counts_primed=True),
    "THM_ST": Identity("ST_XY", "xy"),
    "COR_UASM": Identity("CPM_XY", "xy"),
    "COR_GT": Identity("GT_XY", "xy"),
    "COR_ST_Q": Identity("ST_Q", "q"),
    "COR_UASM_Q": Identity("CPM_Q_PLAIN", "q"),
    "COR_GT_Q": Identity("GT_Q", "q"),
    "COR_GT_QX": Identity("GT_QX", "qx"),
}

IDENTITIES = tuple(IDENTITY_ROWS)

#: The verified grid: the ten accepted variants (COR_UASM_Q under both
#: prefactor schemes), the two rejected conventions, which must keep
#: failing, and the ranks (n, max |mu|) of the symbolic grid.
GRID_VARIANTS = (
    ("PROP_T", {}), ("COR_Q", {}), ("THM_ST", {}), ("COR_UASM", {}),
    ("COR_GT", {}), ("COR_ST_Q", {}),
    ("COR_UASM_Q", {"cpm_q_scheme": "plain"}),
    ("COR_UASM_Q", {"cpm_q_scheme": "norm", "c0_mode": "full"}),
    ("COR_GT_Q", {}), ("COR_GT_QX", {}),
)
REJECTED_VARIANTS = (
    ("COR_UASM_Q", {"cpm_q_scheme": "norm", "c0_mode": "literal"}),
    ("COR_ST_Q", {"st_q_neighbour": "above"}),
)
GRID_RANKS = ((1, 4), (2, 4), (3, 2))

#: Maps a table factor to the value type the engine computes in.
Lift = Callable[[LaurentPoly], Union["Packed", Residues]]


class UnknownIdentityError(ValueError):
    pass


class ScaleExceededError(RuntimeError):
    """A symbolic case whose family has more than SYMBOLIC_OBJECT_CAP objects,
    or a fallback search with no subshape under its cap."""


class ModularParameterError(ValueError):
    """Trials or a modulus under which a modular verdict would not be earned."""


class InvalidWeightError(ValueError):
    """A sweep bound max_weight below 0, where no shape mu is left to check."""


#: Smallest modulus accepted for modular verification.
MIN_MODULUS = 2 ** 16

#: Largest family that verify_big_modular runs as requested; a larger one
#: falls back to the largest subshape under it.
FALLBACK_OBJECT_CAP = 10 ** 6

#: Largest family that symbolic mode expands.  Symbolic cost grows with the
#: expansion, so the family is counted before any algebra; modular cost
#: follows the shapes the transfer walks, and modular mode has no limit.
SYMBOLIC_OBJECT_CAP = 10 ** 6

# -- character sums and product sides -----------------------------------------


def _symbolic(variables, run: Callable[["PackedRing"], object]):
    """run(ring) in the packed ring of the variables, at its own width; a
    run whose exponents outgrow that width runs again at 16 bits, where they
    reach MAX_EXPONENT as in a LaurentPoly."""
    from .rings import PackedRing  # only symbolic mode loads the rings
    ring = PackedRing(variables)
    try:
        return run(ring)
    except ExponentOverflowError:
        if ring.bits == _DIGIT_BITS:
            raise
    return run(PackedRing(variables, _DIGIT_BITS))


def sp_mu(mu, n: int, deformed: bool = False) -> LaurentPoly:
    """Sum of wgt_t over all rank-n tableaux of shape mu."""
    n = as_rank(n)

    def run(ring):
        [value] = _characters((mu,), n, deformed, ring.lift).values()
        return ring.poly(value)
    return _symbolic([*map(xvar, range(1, n + 1)), TVAR], run)


def _characters(mus, n: int, deformed: bool, lift: Lift) -> Dict[tuple, object]:
    """sp_mu, or its t-deformation, of every mu of mus (partitions), in the
    value type of lift, from one walk."""
    table, steps, _ = weights._weighing("T_DEFORMED" if deformed else "T", n, 0, "below",
                                        "full")
    walked = _transfer(mus, n, table, lift, steps)
    return {mu: value for mu, (value, _, _) in walked.items()}


def _xy_factors(n: int, deformed: bool = False, y=weights._y) -> List[LaurentPoly]:
    x = weights._x
    t2 = weights._t2() if deformed else ONE
    out = []
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            out.append(x(i) + y(j))
            out.append(ONE + t2 * x(i, -1) * y(j, -1))
    return out


def _q_factors(n: int) -> List[LaurentPoly]:
    """The xy product along y_j = q x_j."""
    return _xy_factors(n, y=weights._qx)


def _qx_factors(n: int) -> List[LaurentPoly]:
    x, q = weights._x, weights._q
    out = [q() * x(i) + x(i, -1) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(x(i) + q() * x(j))
            out.append(q() + x(i, -1) * x(j, -1))
    return out


#: The staircase products of the right sides; only "xy" can keep t.
_PRODUCTS = {"xy": _xy_factors, "q": _q_factors, "qx": _qx_factors}


def rhs_factors(identity: str, n: int) -> List[LaurentPoly]:
    """The product factors of the identity's right side, sp_mu excluded."""
    n = as_rank(n)
    if identity not in IDENTITY_ROWS:
        raise UnknownIdentityError(identity)
    row = IDENTITY_ROWS[identity]
    factors = _PRODUCTS[row.product]
    return factors(n, deformed=True) if row.keeps_t else factors(n)


def _staircase(identity: str, n: int, lift: Lift):
    """The product of the identity's rhs_factors, in the value type of lift."""
    return reduce(operator.mul, map(lift, rhs_factors(identity, n)))


def rhs_product(identity: str, mu, n: int) -> LaurentPoly:
    """Exact expanded right side including the sp_mu factor."""
    def run(ring):
        keeps_t = IDENTITY_ROWS[identity].keeps_t
        [value] = _characters((mu,), n, keeps_t, ring.lift).values()
        return ring.poly(value * _staircase(identity, n, ring.lift))
    return _symbolic(_identity_variables(identity, n), run)


# -- left sides ----------------------------------------------------------------

def _factor_scheme(identity: str, cpm_q_scheme: str, c0_mode: str,
                   st_q_neighbour: str) -> str:
    """The factor-table scheme of the identity's left side, once
    check_conventions has accepted the knobs for it."""
    scheme, reader = IDENTITY_ROWS[identity].scheme, identity
    if identity == "COR_UASM_Q":
        scheme = "CPM_Q_PLAIN" if cpm_q_scheme == "plain" else "CPM_Q_NORM"
        reader = f"{identity} with cpm_q_scheme {cpm_q_scheme!r}"
    check_conventions(scheme, reader, cpm_q_scheme=cpm_q_scheme,
                      c0_mode=c0_mode, st_q_neighbour=st_q_neighbour)
    return scheme


def _left_side(identity: str, lams, n: int, scheme: str, c0_mode: str,
               st_q_neighbour: str, lift: Lift) -> Dict[tuple, tuple]:
    """{lam: (left side, object count)} for every lam of lams (strict, of
    length n), in the value type of lift, from one walk under the scheme's
    weighing, times its prefactor.  A U-turn ASM's columns past lam_1 are
    all SE, a code that no factor table holds, so one walk as wide as the
    widest lam weighs every target's matrices."""
    table, steps, prefactor = weights._weighing(scheme, n, max(lam[0] for lam in lams),
                                                st_q_neighbour, c0_mode)
    counts_primed = IDENTITY_ROWS[identity].counts_primed
    factor = None if prefactor == ONE else lift(prefactor)
    return {lam: (total if factor is None else total * factor,
                  primed if counts_primed else count)
            for lam, (total, count, primed) in _transfer(lams, n, table, lift, steps).items()}


# -- the letter-step transfer ------------------------------------------------------


def _reaches(T, lam, letters_left: int) -> bool:
    """Whether a path through shape T can still end at lam: T fits in lam,
    and no offset a needs a cell in more rows (those with T_i <= a < lam_i)
    than there are letters left, since no two cells of one letter share an
    offset.  No offset needs more rows than T has, so the fit decides alone
    while there are as many letters left."""
    fits = all(t <= top for t, top in zip(T, lam))
    return fits and (letters_left >= len(T) or all(
        sum(b <= a < top for b, top in zip(T, lam)) <= letters_left for a in T))


#: Largest number of shape graphs kept: an at_scale call walks eight.
SHAPE_GRAPHS_KEPT = 16


@lru_cache(maxsize=SHAPE_GRAPHS_KEPT)
def _shape_graph(rule, n: int, targets: Tuple[tuple, ...]) -> tuple:
    """(letters, paths): the steps of rank-n paths under rule towards
    targets (zero-padded to one length), and the number of paths that reach
    each shape of the last letter, {target: count}.  letters holds, per
    letter c = 1, ..., 2n, the shapes S_c reached, in the order first
    reached, and the steps S -> T into them as two array('I') of the
    indices of S among the shapes of letter c - 1 and of T among these,
    grouped by source, the last source first.

    The cells with letter <= c form a shape S_c, so a tableau is a path
    S_0 = (0, ..., 0) -> S_1 -> ... -> S_2n = lam of row lengths, and step
    c takes S to the T whose rows lie in _step_ranges(S, c, top), top the
    componentwise maximum of the targets.  A shape is kept, checked once
    per letter and nowhere else, while rule(c, T) allows it and some target
    can still be reached (_reaches).  Each step adds the paths into its
    source to those into its target: under the shifted rule a target's
    paths are its shifted tableaux, U-turn ASMs and GT patterns.  A graph
    costs 8 bytes a step besides its shapes; the SHAPE_GRAPHS_KEPT most
    recently used are kept, and each is shared: nothing may write to it."""
    from array import array  # an extension module: loaded on the first walk
    width = len(targets[0]) if targets else 0
    top = tuple(map(max, zip(*targets)))
    shapes, paths, letters = ((0,) * width,), [1], []
    for c in range(1, 2 * n + 1):
        index, reached, into = {}, [], []  # T -> its index, or -1 where it is not kept
        sources, dests = array("I"), array("I")
        for i in range(len(shapes) - 1, -1, -1):
            through = paths[i]
            for T in product(*_step_ranges(shapes[i], c, top)):
                j = index.get(T)
                if j is None:
                    j = index[T] = len(reached) if rule(c, T) and any(
                        _reaches(T, lam, 2 * n - c) for lam in targets) else -1
                    if j >= 0:
                        reached.append(T)
                        into.append(0)
                if j >= 0:
                    sources.append(i)
                    dests.append(j)
                    into[j] += through
        shapes, paths = tuple(reached), into
        letters.append((shapes, sources, dests))
    return tuple(letters), dict(zip(shapes, paths))


def _graph_of(targets, n: int, rule) -> tuple:
    """(lams, padded, graph): each shape of targets as as_partition gives
    it, each zero-padded to the widest, and the cached _shape_graph of rule
    at rank n towards them.  The targets are checked before the cache is
    read, so a refused call adds no graph."""
    lams = [as_partition(lam) for lam in targets]
    for lam in lams:
        if len(lam) > n:
            raise RankTooSmallError(f"shape {lam} needs more than n={n} rows")
    width = max(map(len, lams), default=0)
    padded = [lam + (0,) * (width - len(lam)) for lam in lams]
    return lams, padded, _shape_graph(rule, n, tuple(sorted(set(padded))))


def count_gtp(lam, n: int) -> int:
    """|GT^lambda(n)|: the paths into lam of the shifted-rule shape graph
    of (lam,), the graph that a walk of lam's left side reads too."""
    n = as_rank(n)
    lam = as_strict_partition(lam)
    if len(lam) != n:
        raise BadLengthError(f"{lam} does not have length n={n}")
    _, _, (_, paths) = _graph_of((lam,), n, weights._SHAPE_RULES["gtp"])
    return paths.get(lam, 0)


def _transfer(targets, n: int, table: Mapping, lift: Lift, steps) -> Dict[tuple, tuple]:
    """For each shape lam of targets, the sum over the rank-n tableaux of
    shape lam of the product of their cells' factors table[fid], in the
    value type of lift, with the graph's tableau count and the primed count
    (2^free per tableau): {lam: (value, count, primed)}, lam as as_partition
    gives it, and (lift(ZERO), 0, 0) for a lam that no path reaches.

    A tableau is a path of shapes, one per letter (_shape_graph).  steps is
    a family's (rule, key, names) triple from weights._weighing: rule(c, T)
    says whether letter c may take a path to T, key(c, S, T) gives an
    allowed step's key, a flat tuple of cell counts, and its count of free
    cells, and names(c) the ids that the key's positions count (the step's
    pairs, weights._pairs); S_c is also GT pattern row c and the column
    sums of a U-turn ASM after alphabet row c.
    Which steps the paths take depends only on the rule, the rank and the
    targets, so one cached graph serves every family of a rule: the shifted
    tableaux, the GT patterns and the U-turn ASMs share theirs.  The targets
    are checked before the cache is read, so a refused call adds no graph
    (_graph_of).  Each shape maps to the summed product and primed count of
    its paths, which do not depend on where the paths go next, so one walk
    serves every target.

    Each factor is lifted, and raised to each power past the first, once a
    walk, when a step first needs it.  Each letter keeps one product dict
    by key: the walk calls names once per letter, key once per step, and
    _pairs and the product f of the named powers only for a key the letter
    has not seen, so it builds one product per letter and id list.  Memory
    follows one letter's shapes and the next: each shape is dropped once
    its steps are taken, and merges add in place into the sums the walk
    owns.  The first path to reach T
    stores value * f unreduced (_times), or value itself when the key names
    no ids (f = 1); a later one adds value * f into the sum in place,
    unreduced (_iadd_product), once a sum the walk does not own has been
    copied.  Each sum is reduced once, when its steps are taken (_reduce),
    and each step product once, by the last * of its factors' powers: the
    products before it are unreduced (_times).  So no product is built only
    to be added, no value the walk did not make (lift(ONE), a cached product
    or a factor's power) is written to, and each returned value is reduced
    and the caller's own to write to.
    """
    rule, key, names = steps
    lams, padded, (letters, paths) = _graph_of(targets, n, rule)
    powers = {}  # (fid, e) -> lift(table[fid]) ** e, made on first use

    def power(pair):
        f = powers.get(pair)
        if f is None:
            fid, e = pair
            f = powers.get((fid, 1))
            if f is None:
                f = powers[fid, 1] = lift(table[fid])
            if e != 1:
                f = powers[pair] = f ** e
        return f

    zero, one = lift(ZERO), lift(ONE)
    # per shape: [value, primed, whether the walk owns value]
    shapes, level = ((0,) * len(padded[0]) if padded else (),), [[one, 1, False]]
    for c, (reached, sources, dests) in enumerate(letters, start=1):
        nxt = [None] * len(reached)
        named = names(c)
        products = {}  # key -> the product of its ids, one when it has none
        i = -1
        for source, j in zip(sources, dests):
            if source != i:
                i, S = source, shapes[source]
                value, primed, made = level[i]
                level[i] = None
                if made:
                    value._reduce()
            k, free = key(c, S, reached[j])
            f = products.get(k)
            if f is None:
                pairs, f = weights._pairs(named, k), one
                if pairs:
                    *rest, last = map(power, pairs)
                    f = reduce(lambda a, b: a._times(b), rest) * last if rest else last
                products[k] = f
            primed_t, old = primed << free, nxt[j]
            if old is None:
                nxt[j] = [value if f is one else value._times(f), primed_t, f is not one]
                continue
            if not old[2]:
                old[0], old[2] = old[0] + zero, True
            old[0]._iadd_product(value, f)
            old[1] += primed_t
        shapes, level = reached, nxt
    ends = dict(zip(shapes, level))
    out = {}
    for lam, end in zip(lams, padded):
        value, primed, made = ends.get(end) or (zero, 0, False)
        out[lam] = (value._reduce() if made else value + zero, paths.get(end, 0), primed)
    return out


# -- reports --------------------------------------------------------------------


class VerificationReport:
    """One checked case: what ran, what it counted and its verdict.  The
    fields compare one by one; params is a dict of each report's own."""

    __slots__ = ("identity", "n", "mu", "lam", "mode", "objects", "lhs_terms",
                 "rhs_terms", "equal", "counterexample", "millis", "params")
    __hash__ = None  # params is mutable

    def __init__(self, identity: str, n: int, mu: Tuple[int, ...], lam: Tuple[int, ...],
                 mode: str, objects: int, lhs_terms: Optional[int],
                 rhs_terms: Optional[int], equal: bool, counterexample: Optional[dict],
                 millis: float, params: Optional[dict] = None):
        self.identity, self.n, self.mu, self.lam = identity, n, mu, lam
        self.mode, self.objects = mode, objects
        self.lhs_terms, self.rhs_terms = lhs_terms, rhs_terms
        self.equal, self.counterexample, self.millis = equal, counterexample, millis
        self.params = {} if params is None else params

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

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
    n = as_rank(n)
    if identity not in IDENTITY_ROWS:
        raise UnknownIdentityError(identity)
    row = IDENTITY_ROWS[identity]
    out = [xvar(i) for i in range(1, n + 1)]
    out += [yvar(i) for i in range(1, n + 1)] if row.product == "xy" else [QVAR]
    return out + [TVAR] if row.keeps_t else out


def _check_modular(trials: int, seed: int, prime: int, sampled: bool = True) -> None:
    """Refuse trials, seeds and moduli under which "equal" would not be
    earned or the report would not say what ran: in either mode a value
    that is not an int, and when sampled no trials at all or a modulus that
    is not a prime of at least 2^16."""
    for name, value in (("trials", trials), ("seed", seed), ("prime", prime)):
        if type(value) is not int:
            raise ModularParameterError(f"{name} must be an integer, got {value!r}")
    if not sampled:
        return
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
    return _verify_cases(identity, (mu,), n, mode, trials, seed, prime,
                         cpm_q_scheme, c0_mode, st_q_neighbour)[0]


def _verify_cases(identity: str, mus, n: int, mode: str, trials: int, seed: int,
                  prime: int, cpm_q_scheme: str, c0_mode: str,
                  st_q_neighbour: str) -> List[VerificationReport]:
    """verify() of every mu of mus, one report each, in their order.  The
    cases share one walk of the left sides, one walk of the sp_mu and one
    staircase product, all in one value space, which is all the mode picks:
    the packed ring of the identity's variables in symbolic mode
    (_symbolic), and in modular mode a Sample of trials seeded points.

    Each report's millis is its share of the shared work (the walks and the
    product, split evenly) plus the time of its own comparison."""
    if identity not in IDENTITIES:
        raise UnknownIdentityError(identity)
    if mode not in ("symbolic", "modular"):
        raise ValueError(f"unknown mode {mode!r}")
    scheme = _factor_scheme(identity, cpm_q_scheme, c0_mode, st_q_neighbour)
    sampled = mode == "modular"
    _check_modular(trials, seed, prime, sampled)
    cases = [(mu, add_staircase(mu, n)) for mu in map(as_partition, mus)]
    mus, lams = [mu for mu, _ in cases], [lam for _, lam in cases]
    params: dict = {}
    if identity == "COR_UASM_Q":
        params["cpm_q_scheme"] = cpm_q_scheme
        if cpm_q_scheme == "norm":
            params["c0_mode"] = c0_mode
    if identity == "COR_ST_Q" and st_q_neighbour != "below":
        params["st_q_neighbour"] = st_q_neighbour
    variables = _identity_variables(identity, n)

    def run(space: Union["PackedRing", Sample]) -> List[VerificationReport]:
        start = time.perf_counter()
        lefts = _left_side(identity, lams, n, scheme, c0_mode, st_q_neighbour, space.lift)
        characters = _characters(mus, n, IDENTITY_ROWS[identity].keeps_t, space.lift)
        staircase = _staircase(identity, n, space.lift)
        shared = (time.perf_counter() - start) / len(mus)

        zero, reports = space.lift(ZERO), []
        for mu, lam in cases:
            start = time.perf_counter()
            lhs, objects = lefts.pop(lam)
            outcome = _compare(space, zero, lhs, characters[mu], staircase)
            millis = (shared + time.perf_counter() - start) * 1000.0
            reports.append(VerificationReport(
                identity, n, mu, lam, mode.upper(), objects, *outcome, millis,
                dict(params)))
        return reports
    if sampled:
        params.update({"trials": trials, "seed": seed, "prime": prime})
        rng = random.Random(seed)
        return run(Sample([random_point(variables, rng, prime) for _ in range(trials)],
                          prime))
    # the paths of the graph that the left side walks, from the same cache
    _, _, (_, paths) = _graph_of(lams, n, weights._SHAPE_RULES[weights._row(scheme).family])
    for lam in lams:
        count = paths.get(lam, 0)
        if count > SYMBOLIC_OBJECT_CAP:
            raise ScaleExceededError(
                f"{count} objects for lambda={lam}; symbolic mode expands at "
                f"most {SYMBOLIC_OBJECT_CAP}, modular mode has no such limit")
    return _symbolic(variables, run)


def _holds(zero, lhs, character, staircase) -> bool:
    """Whether lhs, the caller's own, equals character * staircase, values
    of the space whose lift of ZERO is zero; lhs is left holding lhs - rhs."""
    return lhs._iadd_product(character, staircase, -1)._reduce() == zero


def _compare(space: Union["PackedRing", Sample], zero, lhs, character,
             staircase) -> tuple:
    """(lhs terms, rhs terms, equal, counterexample) of one case: lhs
    against character * staircase, all values of space (_holds).  The
    right side is multiplied out only when the two differ, and the space
    reads their first difference."""
    terms = space.terms(lhs)
    if _holds(zero, lhs, character, staircase):
        return terms, terms, True, None
    rhs = character * staircase
    lhs = lhs + rhs  # lhs held lhs - rhs
    return terms, space.terms(rhs), False, space.first_difference(lhs, rhs)


def _sweep_shapes(max_weight: int, n: int):
    """All mu with |mu| <= max_weight and at most n parts, in (|mu|, mu)
    order.  A max_weight that is not an int, or is negative, raises
    InvalidWeightError."""
    if type(max_weight) is not int:
        raise InvalidWeightError(f"max_weight must be an integer, got {max_weight!r}")
    if max_weight < 0:
        raise InvalidWeightError(f"max_weight must be at least 0, got {max_weight}")
    return partitions_up_to(max_weight, n)


def verify_sweep(identity: str, n: int, max_weight: int, mode: str = "symbolic",
                 workers: int = 1, trials: int = 20, seed: int = 0,
                 prime: int = MERSENNE31, cpm_q_scheme: str = "plain",
                 c0_mode: str = "full", st_q_neighbour: str = "below"
                 ) -> List[VerificationReport]:
    """verify() over all mu with |mu| <= max_weight, in (|mu|, mu) order,
    with the same reports but one walk of each side for the whole sweep.

    The sweep runs serially; workers accepts only the int 1.
    """
    if type(workers) is not int or workers != 1:
        raise ValueError(f"the sweep runs serially; workers must be 1, got {workers}")
    return _verify_cases(identity, _sweep_shapes(max_weight, n), n, mode,
                         trials, seed, prime, cpm_q_scheme, c0_mode, st_q_neighbour)


# -- the big modular case ---------------------------------------------------------


def largest_feasible_subshape(target, cap: int) -> Tuple[Tuple[int, ...], int]:
    """Largest (by weight, then lex) strict lambda contained in target, a
    strict partition, whose staircase complement is a partition and whose
    object count is <= cap.

    The candidates of one length are counted together, as the paths into
    the targets of one shifted-rule shape graph of that rank; a target
    that is no strict partition is refused before any graph is built.
    """
    target = as_strict_partition(target)

    def strict(prefix: Tuple[int, ...], length: int):
        i = len(prefix)
        if i == length:
            yield prefix
            return
        hi = min(target[i], prefix[-1] - 1) if prefix else target[i]
        for v in range(hi, length - i - 1, -1):
            yield from strict(prefix + (v,), length)

    # every strict lambda has a partition lambda - delta as its complement
    fits = []
    for length in range(len(target), 0, -1):
        lams, _, (_, paths) = _graph_of(list(strict((), length)), length,
                                        weights._SHAPE_RULES["gtp"])
        fits += [((sum(lam), lam), paths[lam]) for lam in lams if paths[lam] <= cap]
    if not fits:
        raise ScaleExceededError(f"no subshape of {target} fits under {cap}")
    (_, lam), count = max(fits)
    return lam, count


def verify_big_modular(mu, n: int, trials: int = 20, seed: int = 0,
                       prime: int = MERSENNE31) -> VerificationReport:
    """THM_ST in modular mode, falling back to the largest feasible
    subshape of lambda when the requested case has more than
    FALLBACK_OBJECT_CAP objects; the report documents the request, the
    count, and the fallback.

    The fallback dates from when modular cost grew with the object count;
    verify itself now runs the requested case in modular mode whatever its
    size.  It stays while the at_scale benchmark pins its answer.

    Every count is read from a cached shape graph: the requested one from
    the graph of lambda, which verify's left side would walk, and the
    search's from one graph per candidate length.
    """
    _check_modular(trials, seed, prime)
    mu = as_partition(mu)
    lam = add_staircase(mu, n)
    count = count_gtp(lam, n)
    if count <= FALLBACK_OBJECT_CAP:
        return verify("THM_ST", mu, n, "modular", trials=trials, seed=seed,
                      prime=prime)
    fallback_lam, fallback_count = largest_feasible_subshape(lam, FALLBACK_OBJECT_CAP)
    fn = len(fallback_lam)
    fmu = tuple(fallback_lam[i] - (fn - i) for i in range(fn))
    report = verify("THM_ST", fmu, fn, "modular", trials=trials, seed=seed,
                    prime=prime)
    report.params["fallback"] = {
        "requested": {"mu": list(mu), "n": n, "lambda": list(lam),
                      "objects": count},
        "cap": FALLBACK_OBJECT_CAP,
        "reason": "requested object count exceeds the enumeration cap",
        "chosen": {"lambda": list(fallback_lam), "n": fn, "mu": list(fmu),
                   "objects": fallback_count},
    }
    return report


# -- ambiguity resolutions ---------------------------------------------------------


def ambiguity_report(n: int = 2, max_weight: int = 2) -> dict:
    """Machine-readable findings for the three under-determined conventions.

    Each finding lists, per mu, whether the variant satisfies the relevant
    identity symbolically at the given rank.  Every variant's right side is
    sp_mu, undeformed, times the q or the qx product, so the six sweeps
    share one sp_mu walk and one product per kind.
    """
    mus = list(_sweep_shapes(max_weight, n))
    # every variant's variables are those of COR_GT_QX: x1..xn and q
    return _symbolic(_identity_variables("COR_GT_QX", n),
                     lambda ring: _ambiguity_findings(n, max_weight, mus, ring))


def _ambiguity_findings(n: int, max_weight: int, mus, ring: PackedRing) -> dict:
    """ambiguity_report's findings, computed in ring: each variant's left
    side from a walk of its own, checked (_holds) against one sp_mu walk
    times the one q or qx staircase product."""
    lams = [add_staircase(mu, n) for mu in mus]
    characters = _characters(mus, n, False, ring.lift)
    staircases = {IDENTITY_ROWS[identity].product: _staircase(identity, n, ring.lift)
                  for identity in ("COR_ST_Q", "COR_GT_QX")}
    zero = ring.lift(ZERO)

    def finding(lefts, product):
        """One variant's verdict per mu, and whether it holds for all of them."""
        equal = [_holds(zero, lefts[lam][0], characters[mu], staircases[product])
                 for mu, lam in zip(mus, lams)]
        return {"satisfies": all(equal),
                "cases": [{"mu": list(mu), "equal": e} for mu, e in zip(mus, equal)]}

    def sweep(identity, cpm_q_scheme="plain", c0_mode="full", st_q_neighbour="below"):
        scheme = _factor_scheme(identity, cpm_q_scheme, c0_mode, st_q_neighbour)
        return finding(_left_side(identity, lams, n, scheme, c0_mode, st_q_neighbour,
                                  ring.lift), IDENTITY_ROWS[identity].product)

    # COR_GT_QX with the narrower L_e that stops at j = k-1
    table = weights.factor_table("GT_QX", n)
    return {
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
            "stop_before_diagonal": finding(_transfer(
                lams, n, table, ring.lift, weights._pattern_cells(table, narrow_le=True)),
                "qx"),
        },
    }
