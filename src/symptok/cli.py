"""Command-line front end.

Subcommands: enumerate, bijection, weight, verify, sweep, render.  All JSON
output is deterministic; reports can drop their timing field (--no-timing)
so identical invocations are byte-identical.  Exit codes: 0 success/equal,
1 identity or invariant failure, 2 invalid input or usage, 141 (128 + SIGPIPE,
as the shell reports a process ended by a closed pipe) when the reader of
stdout closes it early, as `symptok enumerate ... | head -1` does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, List, Optional

from . import bijections, identities, render, weights
from .algebra import MERSENNE31, LaurentPoly
from .matrices import SympGTPattern, UTurnASM
from .shapes import as_partition, as_strict_partition
from .tableaux import (
    PrimedShiftedTableau,
    ShiftedTableau,
    SymplecticTableau,
    cell_cases,
    enumerate_st,
    enumerate_t,
    primings,
)

_SCHEME_FAMILY = {
    "T_DEFORMED": "t", "QT_DEFORMED": "qt",
    "ST_XY": "st", "ST_Q": "st",
    "CPM_XY": "uasm", "CPM_XY_ALT": "uasm",
    "CPM_Q_PLAIN": "uasm", "CPM_Q_NORM": "uasm",
    "GT_XY": "gtp", "GT_Q": "gtp", "GT_QX": "gtp",
}


def _partition_arg(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _load_object(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return render.from_json(fh.read())


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# -- subcommands -----------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    shape = _partition_arg(args.shape)
    n = args.n
    if args.family == "t":
        stream = enumerate_t(as_partition(shape), n)
    else:
        lam = as_strict_partition(shape)
        if args.family == "st":
            stream = enumerate_st(lam, n)
        elif args.family == "qt":
            stream = (qt for st in enumerate_st(lam, n) for qt in primings(st))
        elif args.family == "uasm":
            from .matrices import enumerate_uasm
            stream = enumerate_uasm(lam, n)
        else:
            from .matrices import enumerate_gtp
            stream = enumerate_gtp(lam, n)
    if args.count_only:
        print(sum(1 for _ in stream))
        return 0
    for obj in stream:
        print(json.dumps(render.to_json_data(obj)))
    return 0


def _cmd_bijection(args) -> int:
    obj = _load_object(args.input)
    expected = {"st": ShiftedTableau, "uasm": UTurnASM, "gtp": SympGTPattern}
    if not isinstance(obj, expected[args.source]):
        return _fail(f"input is not a {args.source} object")
    if isinstance(obj, ShiftedTableau):
        st = obj
        a = bijections.st_to_uasm(st)
    elif isinstance(obj, UTurnASM):
        a = obj
        st = bijections.uasm_to_st(a)
    else:
        st = bijections.gtp_to_st(obj)
        a = bijections.st_to_uasm(st)
    g = bijections.st_to_gtp(st)
    c = bijections.uasm_to_cpm(a)
    forms = [("st", st), ("uasm", a), ("cpm", c), ("gtp", g)]
    if args.format in ("json", "both"):
        doc = {name: render.to_json_data(obj) for name, obj in forms}
        print(json.dumps(doc, indent=2))
    if args.format in ("ascii", "both"):
        for name, obj in forms:
            print(f"-- {name} --")
            print(render.to_ascii(obj))
    return 0


def _annotated(st: ShiftedTableau, scheme: str, neighbour: str) -> str:
    if scheme == "ST_XY":
        cells = [weights._st_case_factor_xy(c, case) for c, case in cell_cases(st)]
    else:
        cells = [weights._st_case_factor_q(c, case)
                 for c, case in weights.st_q_factor_ids(st, neighbour)]
    texts, pos = [], 0
    for row in st.rows:
        texts.append([render_poly_compact(cells[pos + j]) for j in range(len(row))])
        pos += len(row)
    width = max(len(s) for row in texts for s in row) + 2
    lines = []
    for i, row in enumerate(texts):
        lines.append(" " * (i * width) + "".join(s.ljust(width) for s in row).rstrip())
    return "\n".join(lines)


def render_poly_compact(p: LaurentPoly) -> str:
    """Short display form: unit coefficients dropped, as in x1+y1."""
    if p.is_zero():
        return "0"
    parts = []
    for mono in sorted(p.terms):
        coef = p.terms[mono]
        factors = []
        for v, e in mono:
            from .algebra import var_name
            factors.append(var_name(v) if e == 1 else f"{var_name(v)}^{e}")
        body = "*".join(factors)
        if not factors:
            parts.append(str(coef))
        elif coef == 1:
            parts.append(body)
        elif coef == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{coef}*{body}")
    out = parts[0]
    for s in parts[1:]:
        out += s if s.startswith("-") else "+" + s
    return out


def _cmd_weight(args) -> int:
    obj = _load_object(args.input)
    scheme = args.scheme
    family = _SCHEME_FAMILY[scheme]
    kinds = {"t": SymplecticTableau, "qt": PrimedShiftedTableau,
             "st": ShiftedTableau, "uasm": UTurnASM, "gtp": SympGTPattern}
    if not isinstance(obj, kinds[family]):
        return _fail(f"scheme {scheme} expects a {family} object")
    if args.annotate and family != "st":
        return _fail("--annotate applies to tableau schemes only")
    identities.check_conventions(scheme, f"scheme {scheme}", c0_mode=args.c0,
                                 st_q_neighbour=args.neighbour)
    if scheme == "T_DEFORMED":
        poly = weights.wgt_t(obj, deformed=True)
    elif scheme == "QT_DEFORMED":
        poly = weights.wgt_qt(obj, deformed=True)
    elif scheme == "ST_XY":
        poly = weights.wgt_st(obj)
    elif scheme == "ST_Q":
        poly = weights.wgt_st_q(obj, args.neighbour)
    elif family == "uasm":
        poly = weights.wgt_cpm(obj, scheme, args.c0)
    elif scheme == "GT_QX":
        print(weights.qx_weight_factored(obj))
        return 0
    else:
        poly = weights.wgt_gtp(obj, scheme)
    print(poly.to_text())
    if args.annotate:
        print(_annotated(obj, scheme, args.neighbour))
    return 0


def _report_out(report, args) -> None:
    print(json.dumps(report.to_json_dict(include_timing=not args.no_timing),
                     indent=2))


def _cmd_verify(args) -> int:
    report = identities.verify(
        args.id, _partition_arg(args.mu), args.n, mode=args.mode,
        trials=args.trials, seed=args.seed, prime=args.prime,
        cpm_q_scheme=args.cpm_q_scheme, c0_mode=args.c0,
        st_q_neighbour=args.neighbour,
    )
    _report_out(report, args)
    return 0 if report.equal else 1


def _cmd_sweep(args) -> int:
    reports = identities.verify_sweep(
        args.id, args.n, args.max_weight, mode=args.mode,
        trials=args.trials, seed=args.seed, prime=args.prime,
        cpm_q_scheme=args.cpm_q_scheme, c0_mode=args.c0,
        st_q_neighbour=args.neighbour,
    )
    print(json.dumps(
        [r.to_json_dict(include_timing=not args.no_timing) for r in reports],
        indent=2))
    return 0 if all(r.equal for r in reports) else 1


def _cmd_render(args) -> int:
    obj = _load_object(args.input)
    if args.format == "json":
        print(render.to_json(obj))
    else:
        print(render.to_ascii(obj))
    return 0


# -- parser -----------------------------------------------------------------------


def _add_weight_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c0", choices=identities.CONVENTIONS["c0_mode"], default="full")
    p.add_argument("--neighbour", choices=identities.CONVENTIONS["st_q_neighbour"],
                   default="below")


def _add_verify_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("symbolic", "modular"), default="symbolic")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int, default=MERSENNE31)
    p.add_argument("--cpm-q-scheme", choices=identities.CONVENTIONS["cpm_q_scheme"],
                   default="plain")
    _add_weight_knobs(p)
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-clock millis for byte-stable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symptok")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list a combinatorial family")
    p.add_argument("--family", choices=("st", "t", "qt", "uasm", "gtp"),
                   required=True)
    p.add_argument("--lambda", dest="shape", required=True,
                   help="comma-separated shape; empty string for the empty shape")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("bijection", help="translate between representations")
    p.add_argument("--from", dest="source", choices=("st", "uasm", "gtp"),
                   required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("json", "ascii", "both"), default="both")
    p.set_defaults(func=_cmd_bijection)

    p = sub.add_parser("weight", help="weigh one object under a scheme")
    p.add_argument("--scheme", choices=sorted(_SCHEME_FAMILY), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--annotate", action="store_true",
                   help="print the per-cell weight grid (tableau schemes)")
    _add_weight_knobs(p)
    p.set_defaults(func=_cmd_weight)

    p = sub.add_parser("verify", help="check one identity instance")
    p.add_argument("--id", choices=identities.IDENTITIES, required=True)
    p.add_argument("--mu", default="")
    p.add_argument("--n", type=int, required=True)
    _add_verify_knobs(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sweep", help="verify over all small mu")
    p.add_argument("--id", choices=identities.IDENTITIES, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-weight", type=int, required=True)
    _add_verify_knobs(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("render", help="pretty-print an object file")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("ascii", "json"), default="ascii")
    p.set_defaults(func=_cmd_render)

    return parser


def exit_code(run: Callable[[], int]) -> int:
    """run()'s exit code, or 2 with one "error:" line on stderr when the
    input is bad: a ValueError (malformed JSON, shapes and parameters
    included), a file that cannot be read or written, or a symbolic case
    over the object cap.  A reader that closes stdout early is not bad
    input: the run ends quietly with 141, and stdout is pointed at the null
    device so that the flush at interpreter exit cannot fail again.  The
    CLI and the scripts share it."""
    try:
        return run()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except identities.ScaleExceededError as exc:
        return _fail(f"scale cap exceeded: {exc}")
    except (OSError, ValueError) as exc:
        return _fail(str(exc))


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(lambda: args.func(args))


if __name__ == "__main__":
    sys.exit(main())
