"""The traced functions of each layer and the per-layer metrics read off
their spans.  README.md maps each of them to the end-to-end metric it
should move.

The layers are the modules of ``symptok``: ``tableaux`` and ``matrices``
(enumeration), ``bijections`` (ST -> UASM -> compass recoding), ``weights``,
``algebra`` (``LaurentPoly`` multiply, add, ``eval_mod``), ``identities``
(the engine) and ``cli``.
"""

from __future__ import annotations

import importlib
from typing import Dict

from spans import BOOKKEEPING, Tracer


# (module, attribute, span name, "call" or "gen", stats reported)
TRACED = (
    ("symptok.algebra", "LaurentPoly.__mul__", "algebra.mul", "call",
     ("calls", "self_s", "terms_out")),
    ("symptok.algebra", "LaurentPoly.__add__", "algebra.add", "call",
     ("calls", "self_s")),
    ("symptok.algebra", "LaurentPoly.eval_mod", "algebra.eval_mod", "call",
     ("calls", "self_s", "terms_in")),
    *(("symptok.weights", fn, "weights." + fn, "call",
       ("calls", "self_s", "distinct_share"))
      for fn in ("wgt_st", "primed_weight_sum", "wgt_st_q", "wgt_cpm",
                 "wgt_gtp", "qx_weight", "wgt_t")),
    ("symptok.bijections", "st_to_uasm", "bijections.st_to_uasm", "call",
     ("calls", "self_s")),
    ("symptok.bijections", "uasm_to_cpm", "bijections.uasm_to_cpm", "call",
     ("calls", "self_s")),
    ("symptok.matrices", "validate_uasm", "matrices.validate_uasm", "call",
     ("calls", "self_s")),
    ("symptok.matrices", "classify_blr", "matrices.classify_blr", "call",
     ("calls", "self_s")),
    ("symptok.tableaux", "enumerate_st", "tableaux.enumerate_st", "gen",
     ("objects", "self_s")),
    ("symptok.tableaux", "enumerate_t", "tableaux.enumerate_t", "gen",
     ("objects", "self_s")),
    ("symptok.matrices", "enumerate_uasm", "matrices.enumerate_uasm", "gen",
     ("objects", "self_s")),
    ("symptok.matrices", "enumerate_gtp", "matrices.enumerate_gtp", "gen",
     ("objects", "self_s")),
    ("symptok.matrices", "count_gtp", "matrices.count_gtp", "call",
     ("calls", "self_s")),
    ("symptok.identities", "largest_feasible_subshape",
     "identities.largest_feasible_subshape", "call", ("self_s",)),
    ("symptok.identities", "verify", "identities.verify", "call",
     ("calls", "self_s")),
    ("symptok.identities", "verify_big_modular",
     "identities.verify_big_modular", "call", ("self_s",)),
    ("symptok.identities", "rhs_product", "identities.rhs_product", "call",
     ("self_s",)),
    ("symptok.identities", "sp_mu", "identities.sp_mu", "call", ("self_s",)),
)

# Counters a span keeps, updated in its bookkeeping span: (stat, f(result, args)).
COUNTS = {
    "algebra.mul": ("terms_out", lambda res, args: res.num_terms()),
    "algebra.eval_mod": ("terms_in", lambda res, args: args[0].num_terms()),
}

# Metrics measured outside the span table, by the traced run itself.
EXTRA = (
    ("identities.lhs_terms.max", "count", "lower"),
    ("cli.verify.wall_s", "s", "lower"),
    ("cli.verify.mismatches", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_UNIT = {"calls": "count", "self_s": "s", "objects": "count",
         "terms_out": "count", "terms_in": "count", "distinct_share": "ratio"}
_BETTER = {"objects": "higher"}


def metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{span}.{stat}", _UNIT[stat], _BETTER.get(stat, "lower"))
             for _, _, span, _, stats in TRACED for stat in stats]
    return specs + list(EXTRA)


def install(tracer: Tracer) -> None:
    # Import every module first, so none binds a wrapper that uninstall
    # would not find.
    for module in {t[0] for t in TRACED}:
        importlib.import_module(module)
    for module, attr, span, kind, stats in TRACED:
        if kind == "gen":
            tracer.install(module, attr, lambda fn, s=span: tracer.wrap_gen(s, fn))
        else:
            tracer.install(module, attr, lambda fn, s=span, st=stats: tracer.wrap_call(
                s, fn, count=COUNTS.get(s), distinct="distinct_share" in st))


def span_metrics(tracer: Tracer, totals: Dict[str, tuple]) -> Dict[str, float]:
    """The TRACED metrics of one traced pass, given ``tracer.totals()``."""
    out: Dict[str, float] = {}
    for _, _, span, _, stats in TRACED:
        calls, self_s, _ = totals.get(span, (0, 0.0, 0.0))
        for stat in stats:
            if stat == "calls":
                v = calls
            elif stat == "self_s":
                v = self_s
            elif stat == "distinct_share":
                v = len(tracer.distinct[span]) / calls if calls else 0.0
            else:
                v = tracer.counters[f"{span}.{stat}"]
            out[f"{span}.{stat}"] = v
    return out


def module_shares(totals: Dict[str, tuple], pass_span: str) -> Dict[str, float]:
    """Share of the traced pass's time that is self time of each module's
    spans; ``other`` is the benchmark's glue and the tracer's bookkeeping."""
    whole = totals[pass_span][2]
    shares: Dict[str, float] = {}
    for span, (_, self_s, _) in totals.items():
        module = span.split(".")[0]
        if span in (pass_span, BOOKKEEPING):
            module = "other"
        shares[module] = shares.get(module, 0.0) + self_s / whole
    return shares

