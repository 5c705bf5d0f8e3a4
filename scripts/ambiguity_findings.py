#!/usr/bin/env python3
"""Resolve the under-determined weighting conventions symbolically and write
the findings to JSON.

Three conventions admit two readings each; the discriminating rank is n = 2,
checked over every mu with |mu| <= 2:

  * the prefactor of the normalised U-turn q-weighting,
    (1+q)^n / q^(n(n+1)/2)  versus the literal  (1+q) / q^(n(n+1)/2);
  * the neighbour examined by the q tableau weight (the cell below, matching
    the y -> qx specialisation, versus the cell above);
  * the range of the barred left-saturation count L_e (through the diagonal
    position j = k versus stopping at j = k-1).

Usage: python scripts/ambiguity_findings.py [--out reports/ambiguities.json]

Exit status: 0 if every accepted convention holds, 1 if one fails, 2 on bad
input (as the CLI).  The directory of --out is made before the run, so a bad
one fails fast.
"""

import argparse
import json
import os
import sys

from symptok.cli import exit_code
from symptok.identities import ambiguity_report

N, MAX_WEIGHT = 2, 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", default="reports/ambiguities.json")
    args = parser.parse_args()

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    rep = ambiguity_report(n=N, max_weight=MAX_WEIGHT)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(rep, fh, indent=2)

    for key, variants in rep.items():
        if not isinstance(variants, dict):
            continue
        print(f"{key}:")
        for name, finding in variants.items():
            print(f"  {name:<22} satisfies={finding['satisfies']}")
    print(f"\nfindings -> {args.out}")
    ok = (rep["cpm_q_norm_prefactor"]["full"]["satisfies"]
          and rep["st_q_neighbour"]["below"]["satisfies"]
          and rep["l_even_range"]["through_diagonal"]["satisfies"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(exit_code(main))
