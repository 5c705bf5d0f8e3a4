#!/usr/bin/env python3
"""Randomized verification of every identity at the paper's running case.

Requests mu = (4,3,3) at n = 5 (lambda = (9,7,6,2,1), 19,781,353,800
objects; 515,911,471,595,520 primed tableaux for PROP_T and COR_Q) with the
scale cap set to that count, so no identity falls back to a smaller shape.  Runs
the ten variants of the identity grid and the two rejected conventions
(the literal CPM_Q_NORM prefactor and the "above" neighbour reading) at
the seeded random points, and writes the twelve reports to JSON.

Usage: python scripts/real_case.py [--trials 20] [--seed 20240601]

Exit status: 0 if every grid variant holds and both rejected conventions
fail, 1 otherwise, 2 on bad input (as the CLI).  The directory of --out is
made before the runs, so a bad one fails fast.
"""

import argparse
import json
import os
import sys
import time

from symptok.cli import exit_code
from symptok.identities import verify
from symptok.matrices import count_gtp
from symptok.shapes import add_staircase

MU, N = (4, 3, 3), 5

# (identity, conventions, whether the identity should hold)
VARIANTS = [
    ("PROP_T", {}, True),
    ("COR_Q", {}, True),
    ("THM_ST", {}, True),
    ("COR_UASM", {}, True),
    ("COR_GT", {}, True),
    ("COR_ST_Q", {}, True),
    ("COR_UASM_Q", {"cpm_q_scheme": "plain"}, True),
    ("COR_UASM_Q", {"cpm_q_scheme": "norm", "c0_mode": "full"}, True),
    ("COR_GT_Q", {}, True),
    ("COR_GT_QX", {}, True),
    ("COR_UASM_Q", {"cpm_q_scheme": "norm", "c0_mode": "literal"}, False),
    ("COR_ST_Q", {"st_q_neighbour": "above"}, False),
]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="reports/real_case.json")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=20240601)
    parser.add_argument("--no-timing", action="store_true")
    args = parser.parse_args()

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    t0 = time.perf_counter()
    cap = count_gtp(add_staircase(MU, N), N)
    docs = []
    wrong = 0
    for identity, knobs, holds in VARIANTS:
        report = verify(identity, MU, N, "modular", trials=args.trials,
                        seed=args.seed, scale_cap=cap, **knobs)
        docs.append(report.to_json_dict(include_timing=not args.no_timing))
        wrong += report.equal is not holds
        label = identity + (f"[{knobs}]" if knobs else "")
        expected = "" if report.equal is holds else "  UNEXPECTED"
        print(f"{label:<58} equal={report.equal}{expected}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(docs, fh, indent=2)
    print(f"\n{len(docs)} reports at lambda={docs[0]['lambda']}, "
          f"{args.trials} trials each ({time.perf_counter() - t0:.1f}s)")
    print(f"report -> {args.out}")
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(exit_code(main))
