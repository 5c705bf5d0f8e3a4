#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each end-to-end
metric by its median, quartiles and spread (q3 - q1) / median.

Usage, from the repository root:

  python3 perfbench/repeat.py --runs 10
  python3 perfbench/repeat.py --runs 10 --record "<commit> <note>"

Every workload runs once per seed, seeds 1 to ``--runs``, interleaved seed
by seed.  ``--record`` also makes one traced run per workload, with seed 1,
and appends both summaries to trajectory.json, the benchmark's record of
baselines.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    """The metrics of one run; exits if the run fails or misses a check."""
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args()

    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    for seed in range(1, args.runs + 1):
        for w in names:
            metrics = run_once(spec, w, seed, 0)
            for name, value in metrics.items():
                values[w][name].append(value)
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k} {v:.5g}" for k, v in metrics.items()), flush=True)

    summary = {}
    for w in names:
        summary[w] = {}
        for m in spec["end_to_end"]:
            vals = values[w][m["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[w][m["name"]] = {"median": median, "q1": q1, "q3": q3,
                                     "n": len(vals), "spread": spread}
            flag = "ok" if spread < m["bound"] / 3 else "WIDE"
            print(f"{w:<14} {m['name']:<14} median {median:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.3f} bound {m['bound']} {flag}")
    if args.record:
        traced = {w: run_once(spec, w, 1, 1) for w in names}
        path = os.path.join(HERE, "trajectory.json")
        entries = []
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                entries = json.load(fh)
        entries.append({
            "label": args.record,
            "date": datetime.date.today().isoformat(),
            "machine": f"{platform.machine()}, {os.cpu_count()} cores, "
                       f"Python {platform.python_version()}",
            "runs_per_workload": args.runs,
            "run_seconds": spec["run_seconds"],
            "end_to_end": summary,
            "per_layer_traced_seed": 1,
            "per_layer": traced,
        })
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entries, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
