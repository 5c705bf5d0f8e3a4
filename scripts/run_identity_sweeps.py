#!/usr/bin/env python3
"""Run the full symbolic identity grid and write the reports to JSON.

Grid: every identity (the normalised U-turn q-weighting included as its own
variant) over n in {1, 2} with |mu| <= 4 and n = 3 with |mu| <= 2, as
identities.GRID_VARIANTS and GRID_RANKS define it.  Exit
status is 0 only if every case verifies, and 2 on bad input (as the CLI).
The directory of --out is made before the grid runs, so a bad one fails fast.

Usage: python scripts/run_identity_sweeps.py [--out reports/identity_sweeps.json]
"""

import argparse
import json
import os
import sys
import time

from symptok.cli import exit_code
from symptok.identities import GRID_RANKS, GRID_VARIANTS, verify_sweep


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="reports/identity_sweeps.json")
    parser.add_argument("--no-timing", action="store_true")
    args = parser.parse_args()

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    t0 = time.perf_counter()
    docs = []
    failures = 0
    for identity, knobs in GRID_VARIANTS:
        for n, max_weight in GRID_RANKS:
            reports = verify_sweep(identity, n, max_weight, **knobs)
            for r in reports:
                docs.append(r.to_json_dict(include_timing=not args.no_timing))
            bad = [r for r in reports if not r.equal]
            failures += len(bad)
            label = identity + (f"[{knobs}]" if knobs else "")
            status = "ok" if not bad else f"{len(bad)} FAILED"
            print(f"{label:<42} n={n} |mu|<={max_weight}: "
                  f"{len(reports)} cases {status}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(docs, fh, indent=2)
    print(f"\n{len(docs)} reports -> {args.out} "
          f"({time.perf_counter() - t0:.1f}s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(exit_code(main))
