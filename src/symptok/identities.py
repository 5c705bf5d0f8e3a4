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
value type that each local factor of weights.factor_table is lifted to: a
rings.Packed of a ring packed in exactly the call's variables (one machine
digit a monomial at n <= 3, _symbolic), or an algebra.Residues holding its
values at the points of the call's algebra.Sample.  Public results and
counterexamples come back as LaurentPoly.
Every left side, and sp_mu on the right, goes through one letter-step
transfer: every object of every family is a path of shapes, one strip per
letter, and the transfer sums the products of the weights module's step
callbacks over all paths, merging paths that reach the same shape.  Which
steps the paths take depends only on the family's shape rule, the rank and
the targets, so one graph serves every family: the shifted tableaux, the
U-turn ASMs and the GT patterns share a rule, and _shape_graph keeps the
SHAPE_GRAPHS_KEPT most recently used graphs, at 8 bytes a step.
What the walk keeps at a shape does not depend on where the paths go next,
so one walk serves many targets too: verify_sweep walks every mu's left
side at once and every sp_mu at once, and verify is the same engine with
one target.  No object is enumerated.  weights.path_weight multiplies the
same callbacks along one object's path, and the tests check both against
per-object weights of their own (tests/oracles.py).
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
    monomial_text,
    random_point,
    var_name,
    xvar,
    yvar,
)
from .shapes import (  # InvalidRankError is re-exported for the callers of verify
    InvalidRankError,
    RankTooSmallError,
    add_staircase,
    as_partition,
    as_rank,
    count_gtp,
    letter_level,
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
    table = weights.factor_table("T_DEFORMED" if deformed else "T", n)
    walked = _transfer(mus, n, table, lift, weights._letter_cells)
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


def _right_factors(identity: str, mus, n: int, lift: Lift):
    """The right side of every mu of mus (partitions) as its two factors, in
    the value type of lift: {mu: sp_mu} from one walk, and the product of
    the rhs_factors, built once."""
    staircase = reduce(operator.mul, map(lift, rhs_factors(identity, n)))
    return _characters(mus, n, IDENTITY_ROWS[identity].keeps_t, lift), staircase


def rhs_product(identity: str, mu, n: int) -> LaurentPoly:
    """Exact expanded right side including the sp_mu factor."""
    def run(ring):
        characters, staircase = _right_factors(identity, (mu,), n, ring.lift)
        [value] = characters.values()
        return ring.poly(value * staircase)
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
    length n), in the value type of lift, from one walk under the step
    callback of the family that scheme weighs.  A U-turn ASM's columns past
    lam_1 are all SE, a code that no factor table holds, so one walk as
    wide as the widest lam weighs every target's matrices."""
    table = weights.factor_table(scheme, n)
    steps = weights._step_cells(scheme, table, max(lam[0] for lam in lams),
                                st_q_neighbour)
    counts_primed = IDENTITY_ROWS[identity].counts_primed
    prefactor = (lift(weights.cpm_q_norm_prefactor(n, c0_mode))
                 if scheme == "CPM_Q_NORM" else None)
    out = {}
    for lam, (total, count, primed) in _transfer(lams, n, table, lift, steps).items():
        if prefactor is not None:
            total = total * prefactor
        out[lam] = (total, primed if counts_primed else count)
    return out


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


#: Largest number of shape graphs kept: a symbolic_grid pass walks six.
SHAPE_GRAPHS_KEPT = 16


@lru_cache(maxsize=SHAPE_GRAPHS_KEPT)
def _shape_graph(rule, n: int, targets: Tuple[tuple, ...]) -> tuple:
    """The steps of rank-n paths under rule towards targets (zero-padded
    to one length), per letter c = 1, ..., 2n: the shapes S_c reached, in
    the order first reached, and the steps S -> T into them as two
    array('I') of the indices of S among the shapes of letter c - 1 and of
    T among these, grouped by source, the last source first.

    The cells with letter <= c form a shape S_c, so a tableau is a path
    S_0 = (0, ..., 0) -> S_1 -> ... -> S_2n = lam of row lengths.  Row i
    (from 0) holds no letter below level i + 1 (T3, ST4), and a cell of
    letter c needs a smaller letter at its offset in row i - 1 (directly
    above it by T2, up-left on its diagonal by ST3), so step c takes S to
    the T with S_i <= T_i <= min(top_i, S_(i-1)), top the componentwise
    maximum of the targets.  A shape is kept, checked once per letter and
    nowhere else, while rule(c, T) allows it and some target can still be
    reached (_reaches).  A graph costs 8 bytes a step besides its shapes;
    the SHAPE_GRAPHS_KEPT most recently used are kept, and each is shared:
    nothing may write to it."""
    from array import array  # an extension module: loaded on the first walk
    width = len(targets[0]) if targets else 0
    top = tuple(map(max, zip(*targets)))
    shapes, graph = ((0,) * width,), []
    for c in range(1, 2 * n + 1):
        rows, letters_left = min(width, letter_level(c)), 2 * n - c
        index, reached = {}, []  # T -> its index, or -1 where it is not kept
        sources, dests = array("I"), array("I")
        for i in range(len(shapes) - 1, -1, -1):
            S = shapes[i]
            ranges = [range(S[r], min(top[r], S[r - 1] if r else top[0]) + 1)
                      for r in range(rows)]
            for head in product(*ranges):
                T = head + S[rows:]
                j = index.get(T)
                if j is None:
                    j = index[T] = len(reached) if rule(c, T) and any(
                        _reaches(T, lam, letters_left) for lam in targets) else -1
                    if j >= 0:
                        reached.append(T)
                if j >= 0:
                    sources.append(i)
                    dests.append(j)
        shapes = tuple(reached)
        graph.append((shapes, sources, dests))
    return tuple(graph)


def _transfer(targets, n: int, table: Mapping, lift: Lift, steps) -> Dict[tuple, tuple]:
    """For each shape lam of targets, the sum over the rank-n tableaux of
    shape lam of the product of their cells' factors table[fid], in the
    value type of lift, with the tableau count and the primed count
    (2^free per tableau): {lam: (value, count, primed)}, lam as as_partition
    gives it, and (lift(ZERO), 0, 0) for a lam that no path reaches.

    A tableau is a path of shapes, one per letter (_shape_graph).  steps is
    a family's (rule, cells) pair from the weights module: rule(c, T) says
    whether letter c may take a path to T, and cells(c, S, T) gives an
    allowed step's (id, power) pairs and count of free cells; S_c is also GT
    pattern row c and the column sums of a U-turn ASM after alphabet row c.
    Which steps the paths take depends only on the rule, the rank and the
    targets, so one cached graph serves every family of a rule: the shifted
    tableaux, the GT patterns and the U-turn ASMs share theirs.  The targets
    are checked before the cache is read, so a refused call adds no graph.
    Each shape maps to the summed product, count and primed count of its
    paths, which do not depend on where the paths go next, so one walk
    serves every target.

    Each factor is lifted, and raised to each power past the first, once a
    walk, when a step first needs it, and each distinct step's product f is
    computed once.  Memory follows one letter's shapes and the next: each
    shape is dropped once its steps are taken, and merges add in place
    into the sums the walk owns.  The first path to reach T stores value * f
    unreduced (_times), or value itself when the step has no ids (f = 1); a
    later one adds value * f into the sum in place, unreduced
    (_iadd_product), once a sum the walk does not own has been copied.  Each
    sum is reduced once, when its steps are taken (_reduce), and each step
    product once, by the last * of its factors' powers: the products before
    it are unreduced (_times).  So no product is built only to be added, no
    value the walk did not make (lift(ONE), a cached product or a factor's
    power) is written to, and each returned value is reduced and the
    caller's own to write to.
    """
    lams = [as_partition(lam) for lam in targets]
    for lam in lams:
        if len(lam) > n:
            raise RankTooSmallError(f"shape {lam} needs more than n={n} rows")
    width = max(map(len, lams), default=0)
    padded = [lam + (0,) * (width - len(lam)) for lam in lams]
    rule, cells = steps
    graph = _shape_graph(rule, n, tuple(sorted(set(padded))))
    powers = {}  # (fid, e) -> lift(table[fid]) ** e, made on first use

    def power(key):
        f = powers.get(key)
        if f is None:
            fid, e = key
            f = powers.get((fid, 1))
            if f is None:
                f = powers[fid, 1] = lift(table[fid])
            if e != 1:
                f = powers[key] = f ** e
        return f

    zero, products = lift(ZERO), {(): lift(ONE)}
    # per shape: [value, count, primed, whether the walk owns value]
    shapes, level = ((0,) * width,), [[products[()], 1, 1, False]]
    for c, (reached, sources, dests) in enumerate(graph, start=1):
        nxt = [None] * len(reached)
        i = -1
        for source, j in zip(sources, dests):
            if source != i:
                i, S = source, shapes[source]
                value, count, primed, made = level[i]
                level[i] = None
                if made:
                    value._reduce()
            T = reached[j]
            ids, free = cells(c, S, T)
            f = products.get(ids)
            if f is None:
                *rest, last = map(power, ids)
                f = products[ids] = reduce(
                    lambda a, b: a._times(b), rest) * last if rest else last
            primed_t, old = primed << free, nxt[j]
            if old is None:
                nxt[j] = [value._times(f) if ids else value, count, primed_t, bool(ids)]
                continue
            if not old[3]:
                old[0], old[3] = old[0] + zero, True
            old[0]._iadd_product(value, f)
            old[1] += count
            old[2] += primed_t
        shapes, level = reached, nxt
    ends = dict(zip(shapes, level))
    out = {}
    for lam, key in zip(lams, padded):
        value, count, primed, made = ends.get(key) or (zero, 0, 0, False)
        out[lam] = (value._reduce() if made else value + zero, count, primed)
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


def _first_difference(lhs: LaurentPoly, rhs: LaurentPoly) -> dict:
    diff = lhs - rhs
    mono = sorted(diff.terms)[0]
    return {
        "monomial": monomial_text(mono),
        "lhsCoefficient": lhs.terms.get(mono, 0),
        "rhsCoefficient": rhs.terms.get(mono, 0),
    }


def _check_modular(trials: int, seed: int, prime: int) -> None:
    """Refuse trials, seeds and moduli under which "equal" would not be
    earned or the report would not say what ran: a value that is not an
    int, no trials at all, or a modulus that is not a prime of at least
    2^16."""
    for name, value in (("trials", trials), ("seed", seed), ("prime", prime)):
        if type(value) is not int:
            raise ModularParameterError(f"{name} must be an integer, got {value!r}")
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
                  st_q_neighbour: str, right=None) -> List[VerificationReport]:
    """verify() of every mu of mus, one report each, in their order.  The
    cases share one walk of the left sides, one walk of the sp_mu and one
    staircase product; in modular mode they share the sample points too.
    Symbolic mode computes in the packed ring of the identity's variables
    (_symbolic).  right, if given, is a (ring, sp_mu, product) triple that
    the caller shares, and the cases run in its ring.

    Each report's millis is its share of the shared work (the walks and the
    product, split evenly) plus the time of its own comparison."""
    if identity not in IDENTITIES:
        raise UnknownIdentityError(identity)
    if mode not in ("symbolic", "modular"):
        raise ValueError(f"unknown mode {mode!r}")
    scheme = _factor_scheme(identity, cpm_q_scheme, c0_mode, st_q_neighbour)
    if mode == "modular":
        _check_modular(trials, seed, prime)
    cases = [(mu, add_staircase(mu, n)) for mu in map(as_partition, mus)]
    mus, lams = [mu for mu, _ in cases], [lam for _, lam in cases]
    if mode == "symbolic":
        table: Dict = {}  # GT row sub-counts, shared by the sweep's lams
        for lam in lams:
            count = count_gtp(lam, n, table)
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
    if mode == "modular":
        params.update({"trials": trials, "seed": seed, "prime": prime})

    variables = _identity_variables(identity, n)

    def run(ring: Optional[PackedRing]) -> List[VerificationReport]:
        start = time.perf_counter()
        if ring:
            lift: Lift = ring.lift
        else:
            rng = random.Random(seed)
            lift = Sample([random_point(variables, rng, prime) for _ in range(trials)],
                          prime).lift
        lefts = _left_side(identity, lams, n, scheme, c0_mode, st_q_neighbour, lift)
        characters, staircase = right[1:] if right else _right_factors(identity, mus, n, lift)
        shared = (time.perf_counter() - start) / len(mus)

        zero, reports = lift(ZERO), []
        for mu, lam in cases:
            start = time.perf_counter()
            lhs, objects = lefts.pop(lam)
            character = characters[mu]
            terms = (lhs.num_terms(),) * 2 if ring else (None, None)
            equal = lhs._iadd_product(character, staircase, -1)._reduce() == zero
            counterexample = None
            if not equal:  # lhs holds lhs - rhs now
                rhs = character * staircase
                lhs = lhs + rhs
                if ring:
                    terms = terms[0], rhs.num_terms()
                    counterexample = _first_difference(ring.poly(lhs), ring.poly(rhs))
                else:
                    counterexample = _first_mismatch(lhs, rhs)
            millis = (shared + time.perf_counter() - start) * 1000.0
            reports.append(VerificationReport(
                identity, n, mu, lam, mode.upper(), objects, *terms, equal,
                counterexample, millis, dict(params)))
        return reports
    if mode == "modular":
        return run(None)
    return run(right[0]) if right else _symbolic(variables, run)


def _first_mismatch(lhs: Residues, rhs: Residues) -> dict:
    points = lhs.sample.points
    idx = next(i for i, (a, b) in enumerate(zip(lhs.values, rhs.values)) if a != b)
    return {
        "trial": idx,
        "point": {var_name(v): points[idx][v] for v in sorted(points[idx])},
        "lhsValue": lhs.values[idx],
        "rhsValue": rhs.values[idx],
    }


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

    The sweep runs serially; workers accepts only 1.
    """
    if workers != 1:
        raise ValueError(f"the sweep runs serially; workers must be 1, got {workers}")
    return _verify_cases(identity, _sweep_shapes(max_weight, n), n, mode,
                         trials, seed, prime, cpm_q_scheme, c0_mode, st_q_neighbour)


# -- the big modular case ---------------------------------------------------------


def largest_feasible_subshape(target, cap: int, table: Optional[Dict] = None
                              ) -> Tuple[Tuple[int, ...], int]:
    """Largest (by weight, then lex) strict lambda contained in target whose
    staircase complement is a partition and whose object count is <= cap.

    Candidates are tried from the largest down, so the first one that fits
    is the answer and the larger ones are the only ones counted.  Every
    candidate is counted through one dict of GT row sub-counts (count_gtp's
    table), so a row below several candidates is counted once; it is the
    caller's table if one is passed, else a fresh one freed on return.
    """
    if table is None:
        table = {}
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
        cnt = count_gtp(lam, len(lam), table)
        if cnt <= cap:
            return lam, cnt
    raise ScaleExceededError(f"no subshape of {target} fits under {cap}")


def verify_big_modular(mu, n: int, trials: int = 20, seed: int = 0,
                       prime: int = MERSENNE31) -> VerificationReport:
    """THM_ST in modular mode, falling back to the largest feasible
    subshape of lambda when the requested case has more than
    FALLBACK_OBJECT_CAP objects; the report documents the request, the
    count, and the fallback.

    The fallback dates from when modular cost grew with the object count;
    verify itself now runs the requested case in modular mode whatever its
    size.  It stays while the at_scale benchmark pins its answer.

    The requested count and every candidate count of the search share one
    dict of GT row sub-counts, so each row is counted once per call; the
    dict is freed when the call returns.
    """
    _check_modular(trials, seed, prime)
    mu = as_partition(mu)
    lam = add_staircase(mu, n)
    table: Dict = {}
    count = count_gtp(lam, n, table)
    if count <= FALLBACK_OBJECT_CAP:
        return verify("THM_ST", mu, n, "modular", trials=trials, seed=seed,
                      prime=prime)
    fallback_lam, fallback_count = largest_feasible_subshape(
        lam, FALLBACK_OBJECT_CAP, table)
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
    """ambiguity_report's findings, computed in ring."""
    characters = _characters(mus, n, False, ring.lift)
    rights = {IDENTITY_ROWS[identity].product:
              (ring, characters, reduce(operator.mul, map(ring.lift, rhs_factors(identity, n))))
              for identity in ("COR_ST_Q", "COR_GT_QX")}

    def sweep(identity, cpm_q_scheme="plain", c0_mode="full", st_q_neighbour="below"):
        reports = _verify_cases(identity, mus, n, "symbolic", 20, 0, MERSENNE31,
                                cpm_q_scheme, c0_mode, st_q_neighbour,
                                rights[IDENTITY_ROWS[identity].product])
        return _finding([(r.mu, r.equal) for r in reports])

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
            "stop_before_diagonal": _le_setbuilder_sweep(n, max_weight, rights["qx"]),
        },
    }


def _finding(cases: List[Tuple[Tuple[int, ...], bool]]) -> dict:
    """One variant's verdict per mu, and whether it holds for all of them."""
    return {"satisfies": all(equal for _, equal in cases),
            "cases": [{"mu": list(mu), "equal": equal} for mu, equal in cases]}


def _le_setbuilder_sweep(n: int, max_weight: int, right=None) -> dict:
    """COR_GT_QX with the narrower L_e that stops at j = k-1 (right: see
    _verify_cases)."""
    cases = [(mu, add_staircase(mu, n)) for mu in _sweep_shapes(max_weight, n)]
    mus, lams = [mu for mu, _ in cases], [lam for _, lam in cases]
    table = weights.factor_table("GT_QX", n)

    def run(ring: PackedRing) -> dict:
        lefts = _transfer(lams, n, table, ring.lift,
                          weights._pattern_cells(table, narrow_le=True))
        characters, staircase = (right[1:] if right else
                                 _right_factors("COR_GT_QX", mus, n, ring.lift))
        return _finding([(mu, lefts[lam][0] == characters[mu] * staircase)
                         for mu, lam in cases])
    return run(right[0]) if right else _symbolic(_identity_variables("COR_GT_QX", n), run)
