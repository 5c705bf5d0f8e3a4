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
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import identities, weights
from .algebra import MERSENNE31, LaurentPoly, monomial_text

if TYPE_CHECKING:
    from .tableaux import ShiftedTableau


class Family(NamedTuple):
    """An object family the CLI names: its class, the check an object of it
    read from a file must pass, and its enumerator (shape, rank)."""

    kind: type
    check: Callable[[object], Tuple[bool, List[str]]]
    enumerate: Callable[[tuple, int], Iterable[object]]


#: The families --family lists, in order; the families of weights.SCHEMES are
#: among them.  A compass matrix is no family: it has neither a check nor an
#: enumerator.
FAMILY_NAMES = ("st", "t", "qt", "uasm", "gtp")


@lru_cache(maxsize=1)
def families() -> Dict[str, Family]:
    """One row per family of FAMILY_NAMES, in its order.  Only the commands
    that read or make objects build the rows, so verify and sweep load no
    object module."""
    from .matrices import (SympGTPattern, UTurnASM, enumerate_gtp, enumerate_uasm,
                           validate_gtp, validate_uasm)
    from .tableaux import (PrimedShiftedTableau, ShiftedTableau, SymplecticTableau,
                           enumerate_st, enumerate_t, primings, validate_qt, validate_st,
                           validate_t)
    return {
        "st": Family(ShiftedTableau, validate_st, enumerate_st),
        "t": Family(SymplecticTableau,
                    lambda t: validate_t(t, weights._letter_rank(t.rows)), enumerate_t),
        "qt": Family(PrimedShiftedTableau, validate_qt,
                     lambda shape, n: (qt for st in enumerate_st(shape, n)
                                       for qt in primings(st))),
        "uasm": Family(UTurnASM, validate_uasm, enumerate_uasm),  # lambda from column sums
        "gtp": Family(SympGTPattern, validate_gtp, enumerate_gtp),
    }


def _partition_arg(text: str):
    text = text.strip()
    if not text:
        return ()
    return tuple(int(p) for p in text.split(","))


def _load_object(path: str):
    """The object in the JSON file at path, refused with InputFormatError
    when it breaks its family's rules."""
    from . import render
    with open(path, "r", encoding="utf-8") as fh:
        obj = render.from_json(fh.read())
    for family in families().values():
        if type(obj) is family.kind:
            bad = family.check(obj)[1]
            if bad:
                raise render.InputFormatError(
                    f"invalid object in {path}: {'; '.join(bad)}")
    return obj


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# -- subcommands -----------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    from . import render
    stream = families()[args.family].enumerate(_partition_arg(args.shape), args.n)
    if args.count_only:
        print(sum(1 for _ in stream))
        return 0
    for obj in stream:
        print(json.dumps(render.to_json_data(obj)))
    return 0


def _cmd_bijection(args) -> int:
    from . import bijections, render
    obj = _load_object(args.input)
    rows = families()
    if not isinstance(obj, rows[args.source].kind):
        return _fail(f"input is not a {args.source} object")
    if isinstance(obj, rows["st"].kind):
        st = obj
        a, g = bijections.st_to_uasm(st), bijections.st_to_gtp(st)
    elif isinstance(obj, rows["uasm"].kind):
        a = obj
        st, g = bijections.uasm_to_st(a), bijections.uasm_to_gtp(a)
    else:
        g = obj
        st = bijections.gtp_to_st(g)
        a = bijections.st_to_uasm(st)
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
    from . import render
    from .tableaux import cell_cases
    table = weights.factor_table(scheme, weights._letter_rank(st.rows))
    # row-major; ST_XY reads only "below", where the ST_Q cases are ST_XY's
    ids = iter(cell_cases(st, neighbour))
    texts = [[render_poly_compact(table[next(ids)]) for _ in row] for row in st.rows]
    width = max(len(s) for row in texts for s in row) + 2
    return render._grid(texts, width, [i * width for i in range(len(texts))])


def render_poly_compact(p: LaurentPoly) -> str:
    """Short display form: unit coefficients dropped, as in x1+y1."""
    if p.is_zero():
        return "0"
    parts = []
    for mono in sorted(p.terms):
        coef = p.terms[mono]
        body = monomial_text(mono).replace(" * ", "*")
        if not mono:
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
    family = weights.SCHEMES[scheme].family
    if not isinstance(obj, families()[family].kind):
        return _fail(f"scheme {scheme} expects a {family} object")
    if args.annotate and family != "st":
        return _fail("--annotate applies to the ST_XY and ST_Q schemes only")
    weights.check_conventions(scheme, f"scheme {scheme}", c0_mode=args.c0,
                              st_q_neighbour=args.neighbour)
    if scheme == "GT_QX":
        print(weights.qx_weight_factored(obj))
        return 0
    # a primed tableau is one priming, which the summed QT_DEFORMED path does not see
    poly = (weights.wgt_qt(obj, deformed=True) if scheme == "QT_DEFORMED"
            else weights.path_weight(obj, scheme, args.neighbour, args.c0))
    print(poly.to_text())
    if args.annotate:
        print(_annotated(obj, scheme, args.neighbour))
    return 0


def _report_out(report, args) -> None:
    print(json.dumps(report.to_json_dict(include_timing=not args.no_timing),
                     indent=2))


def _verify_knobs(args) -> dict:
    """The keyword arguments verify and verify_sweep take from the flags."""
    return dict(mode=args.mode, trials=args.trials, seed=args.seed,
                prime=args.prime, cpm_q_scheme=args.cpm_q_scheme,
                c0_mode=args.c0, st_q_neighbour=args.neighbour)


def _cmd_verify(args) -> int:
    report = identities.verify(args.id, _partition_arg(args.mu), args.n,
                               **_verify_knobs(args))
    _report_out(report, args)
    return 0 if report.equal else 1


def _cmd_sweep(args) -> int:
    reports = identities.verify_sweep(args.id, args.n, args.max_weight,
                                      **_verify_knobs(args))
    print(json.dumps(
        [r.to_json_dict(include_timing=not args.no_timing) for r in reports],
        indent=2))
    return 0 if all(r.equal for r in reports) else 1


def _cmd_render(args) -> int:
    from . import render
    obj = _load_object(args.input)
    if args.format == "json":
        print(render.to_json(obj))
    else:
        print(render.to_ascii(obj))
    return 0


# -- parser -----------------------------------------------------------------------


def _add_weight_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c0", choices=weights.CONVENTIONS["c0_mode"], default="full")
    p.add_argument("--neighbour", choices=weights.CONVENTIONS["st_q_neighbour"],
                   default="below")


def _add_verify_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("symbolic", "modular"), default="symbolic")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prime", type=int, default=MERSENNE31)
    p.add_argument("--cpm-q-scheme", choices=weights.CONVENTIONS["cpm_q_scheme"],
                   default="plain")
    _add_weight_knobs(p)
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-clock millis for byte-stable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="symptok")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list a combinatorial family")
    p.add_argument("--family", choices=FAMILY_NAMES, required=True)
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
    p.add_argument("--scheme", choices=sorted(weights.SCHEMES), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--annotate", action="store_true",
                   help="print the per-cell weight grid (ST_XY and ST_Q)")
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
