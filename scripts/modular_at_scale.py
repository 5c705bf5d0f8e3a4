#!/usr/bin/env python3
"""Randomized verification of the main identity at the largest feasible size.

Requests mu = (4,3,3) at n = 5 (the running shape lambda = (9,7,6,2,1),
19,781,353,800 objects).  That object count is over the fallback cap of
10^6, so verify_big_modular falls back to the largest shape contained in it
whose family fits under the cap, records both in the report, and sums that
family's weights at the seeded random points.  scripts/real_case.py runs
the requested shape itself.

Usage: python scripts/modular_at_scale.py [--trials 20] [--seed 20240601]

Exit status: 0 if the identity holds, 1 if it fails, 2 on bad input (as the
CLI).  The directory of --out is made before the run, so a bad one fails
fast.
"""

import argparse
import json
import os
import sys
import time

from symptok.cli import exit_code
from symptok.identities import verify_big_modular

MU, N, CAP = (4, 3, 3), 5, 10 ** 6


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="reports/modular_at_scale.json")
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=20240601)
    parser.add_argument("--no-timing", action="store_true")
    args = parser.parse_args()

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    t0 = time.perf_counter()
    report = verify_big_modular(MU, N, trials=args.trials, seed=args.seed,
                                cap=CAP)
    elapsed = time.perf_counter() - t0
    doc = report.to_json_dict(include_timing=not args.no_timing)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)

    fb = report.params.get("fallback")
    if fb:
        print(f"requested lambda={fb['requested']['lambda']} has "
              f"{fb['requested']['objects']} objects (cap {fb['cap']})")
        print(f"fell back to lambda={fb['chosen']['lambda']} with "
              f"{fb['chosen']['objects']} objects")
    print(f"equal={report.equal} after {report.params['trials']} trials, "
          f"{report.objects} objects, {elapsed:.1f}s")
    print(f"report -> {args.out}")
    return 0 if report.equal else 1


if __name__ == "__main__":
    sys.exit(exit_code(main))
