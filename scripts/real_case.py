#!/usr/bin/env python3
"""Randomized verification of every identity at the paper's running case.

Requests mu = (4,3,3) at n = 5 (lambda = (9,7,6,2,1), 19,781,353,800
objects; 515,911,471,595,520 primed tableaux for PROP_T and COR_Q) in
modular mode, which has no object limit, so every identity runs at that
shape itself.  Runs the ten variants of the identity grid and the two
rejected conventions (the literal CPM_Q_NORM prefactor and the "above"
neighbour reading), as identities.GRID_VARIANTS and REJECTED_VARIANTS define
them, at the seeded random points, and writes the twelve reports to JSON.

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
from symptok.identities import GRID_VARIANTS, REJECTED_VARIANTS, verify

MU, N = (4, 3, 3), 5

# (identity, conventions, whether the identity should hold)
VARIANTS = ([(identity, knobs, True) for identity, knobs in GRID_VARIANTS]
            + [(identity, knobs, False) for identity, knobs in REJECTED_VARIANTS])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="reports/real_case.json")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=20240601)
    parser.add_argument("--no-timing", action="store_true")
    args = parser.parse_args()

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    t0 = time.perf_counter()
    docs = []
    wrong = 0
    for identity, knobs, holds in VARIANTS:
        report = verify(identity, MU, N, "modular", trials=args.trials,
                        seed=args.seed, **knobs)
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
