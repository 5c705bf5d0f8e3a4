#!/usr/bin/env python3
"""Benchmark of the symptok verification engine.

Usage, from the repository root:

  python3 perfbench/run.py --workload symbolic_grid --seed 1 --seconds 36 --trace 0
  python3 perfbench/run.py            # every workload, each in its own process

One process runs one workload as a closed loop with one client: one
``verify`` call at a time, no threads.  With ``--trace 0`` it times whole
passes over the workload's cases while one more fits in ``--seconds``, and
at least two, samples set-up before the first pass and after each one, and
reports the end-to-end metrics.  Those times are corrected for the host's
speed by ``hostspeed``.  With ``--trace 1`` it times a traced pass between
two plain ones, in raw wall time, and reports the per-layer metrics.  Every
report is checked against ``expected.json``, the passes' ``--no-timing``
JSON must be byte-identical, and the three rejected conventions must keep
failing.  The last line of stdout is one JSON object; any miss makes the
exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 8  # per sampling point: before the first pass and after each
MIN_PASSES = 2
PASS_SPAN = "bench.pass"

# Set-up as a user pays it: a fresh interpreter importing the package and
# building the workload's case list.  Reference slices timed just before and
# after it correct it for host speed, as the passes are corrected.
SETUP_CODE = """
import sys, time
sys.path.insert(0, {here!r})
import hostspeed
samples = [hostspeed.time_reference() for _ in range(5)]
start = time.perf_counter()
sys.path.insert(0, {src!r})
import workloads
workloads.build({name!r}, {seed!r})
wall = time.perf_counter() - start
samples += [hostspeed.time_reference() for _ in range(5)]
print(hostspeed.scale(wall, samples))
"""


def setup_seconds(name: str, seed: int) -> list:
    code = SETUP_CODE.format(src=SRC, here=HERE, name=name, seed=seed)
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def run_pass(calls, sampler=None):
    """(seconds, [(case key, report)]) of one pass over the calls: wall
    seconds, or with a ``hostspeed.Sampler``, seconds at nominal host speed."""
    results = []
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        for call in calls:
            try:
                results.extend(call())
            except Exception:  # the case counts as missed; keep measuring
                traceback.print_exc()
        wall = time.perf_counter() - start
    return (sampler.corrected(wall) if sampler else wall), results


def no_timing_json(results) -> str:
    return json.dumps([r.to_json_dict(include_timing=False) for _, r in results])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import hostspeed
    import layers
    import spans
    import workloads

    calls = workloads.build(name, seed)
    expected = workloads.load_expected()[name]
    checker = workloads.Checker()
    walls, objects, setups, slices, first_json = [], [], [], [], None
    lhs_terms_max = 0
    tracer = None

    def record(wall, results):
        nonlocal first_json
        workloads.check_pass(checker, results, expected["cases"])
        text = no_timing_json(results)
        if first_json is None:
            first_json = text
        else:
            checker.check(text == first_json,
                          f"pass {len(walls) + 1}: --no-timing JSON differs from pass 1")
        walls.append(wall)
        objects.append(sum(r.objects for _, r in results))

    if trace:
        record(*run_pass(calls))
        tracer = spans.Tracer()
        layers.install(tracer)
        try:
            with tracer.span(PASS_SPAN):
                wall, results = run_pass(calls)
        finally:
            tracer.uninstall()
        record(wall, results)
        lhs_terms_max = max((r.lhs_terms or 0 for _, r in results), default=0)
        record(*run_pass(calls))
    else:
        # Set-up is sampled between the passes too, so that its median
        # spans the run as the passes do.  Stop before a pass that would
        # likely end past --seconds.
        start = time.perf_counter()
        setups += setup_seconds(name, seed)
        while True:
            step_start = time.perf_counter()
            sampler = hostspeed.Sampler()
            record(*run_pass(calls, sampler))
            slices.append(statistics.harmonic_mean(sampler.samples))
            setups += setup_seconds(name, seed)
            now = time.perf_counter()
            if len(walls) >= MIN_PASSES and now - start + (now - step_start) > seconds:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if "controls" in expected:
        workloads.check_controls(checker, expected["controls"])
    cli_wall, cli_mismatches = workloads.cli_probe(name, seed, SRC)
    checker.check(cli_mismatches == 0, "cli verify output differs from the library")

    for miss in checker.misses:
        print(f"MISS {miss}", file=sys.stderr)
    print(f"workload {name} seed {seed}: {len(walls)} passes, "
          f"{checker.attempted} checks, {checker.failed} missed")
    if trace:
        totals = tracer.totals()
        metrics = layers.span_metrics(tracer, totals)
        metrics.update({
            "identities.lhs_terms.max": lhs_terms_max,
            "cli.verify.wall_s": cli_wall,
            "cli.verify.mismatches": cli_mismatches,
            "trace.overhead_s": walls[1] - (walls[0] + walls[2]) / 2,
        })
        units = {n: u for n, u, _ in layers.metric_specs()}
        shares = layers.module_shares(totals, PASS_SPAN)
        print("self-time share of the traced pass: " + ", ".join(
            f"{m} {s:.1%}" for m, s in sorted(shares.items(), key=lambda kv: -kv[1])))
        for key, value in metrics.items():
            print(f"  {key:<44} {value:>14.6g} {units[key]}")
        out = {key: {"value": value, "unit": units[key]}
               for key, value in metrics.items()}
    else:
        rates = [o / w for o, w in zip(objects, walls)]
        rows = [("pass_s", walls, "s"), ("objects_per_s", rates, "1/s"),
                ("setup_s", setups, "s")]
        out = {}
        for key, values, unit in rows:
            q1, median, q3 = statistics.quantiles(values, n=4)
            print(f"  {key:<14} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"n {len(values)} {unit}")
            out[key] = {"value": median, "unit": unit}
        print(f"  host slice     {statistics.median(slices) * 1e3:.4g} ms per pass, "
              f"median of harmonic means; nominal {hostspeed.NOMINAL_S * 1e3:.4g} ms")
        print(f"  {'peak_rss_mb':<14} {peak_rss_mb:.6g} MB")
        print(f"  {'failed_frac':<14} {checker.failed_frac:.6g} "
              f"({checker.failed} of {checker.attempted} checks) ratio")
        out["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print(json.dumps({"correct": checker.correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": out}))
    return 0 if checker.correct else 1


def run_all(args) -> int:
    """Every workload in a process of its own; the worst exit code wins."""
    import workloads

    code = 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        code = max(code, subprocess.run(argv, timeout=900).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; all of them if omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "symptok")):
        print(f"error: no symptok sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload is None:
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
