"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import hostspeed  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_on_a_synthetic_nested_tree():
    # A[0,10] > B[1,4] > C[2,3];  A > B[5,9] > C[6,6.5]
    names = [0, 1, 2, 1, 2]
    parents = [spans.ROOT, 0, 1, 0, 3]
    starts = [0.0, 1.0, 2.0, 5.0, 6.0]
    ends = [10.0, 4.0, 3.0, 9.0, 6.5]
    got = spans.self_times(names, parents, starts, ends)
    assert got[0] == (1, 3.0, 10.0)
    assert got[1] == (2, 2.0 + 3.5, 7.0)
    assert got[2] == (2, 1.5, 1.5)
    whole = got[0][2]
    assert sum(v[1] for v in got.values()) == pytest.approx(whole)


def test_tracer_spans_calls_and_generators_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        return x + 1

    traced_leaf = tracer.wrap_call("leaf", leaf, count=("out", lambda res, args: res),
                                   distinct=True)

    def gen():
        yield traced_leaf(1)
        yield traced_leaf(1)

    traced_gen = tracer.wrap_gen("gen", gen)
    with tracer.span("root"):
        assert list(traced_gen()) == [2, 2]
    totals = tracer.totals()
    # every clock read is one tick; the bookkeeping spans (counting and
    # hashing) are siblings of the leaf inside each next(), so they are
    # nobody's self time
    assert totals["leaf"] == (2, 2.0, 2.0)
    assert totals[spans.BOOKKEEPING][0] == 2
    assert totals["gen"][0] == 3  # two items and the StopIteration
    assert tracer.counters["gen.objects"] == 2
    assert tracer.counters["leaf.out"] == 4
    assert len(tracer.distinct["leaf"]) == 1
    assert sum(v[1] for v in totals.values()) == pytest.approx(totals["root"][2])


def test_install_rebinds_importers_and_uninstall_restores():
    from symptok import identities, matrices

    original = matrices.count_gtp
    tracer = spans.Tracer()
    tracer.install("symptok.matrices", "count_gtp",
                   lambda fn: tracer.wrap_call("matrices.count_gtp", fn))
    try:
        assert identities.count_gtp is matrices.count_gtp is not original
        assert identities.count_gtp((2, 1), 2) == original((2, 1), 2)
    finally:
        tracer.uninstall()
    assert identities.count_gtp is matrices.count_gtp is original
    assert tracer.totals()["matrices.count_gtp"][0] == 1


def _report(equal, objects):
    return SimpleNamespace(equal=equal, objects=objects)


def test_a_flipped_expected_verdict_is_a_miss():
    checker = workloads.Checker()
    expected = {"A": {"equal": False, "objects": 5}, "B": {"equal": True, "objects": 3}}
    workloads.check_pass(checker, [("A", _report(True, 5)), ("B", _report(True, 3))],
                         expected)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert checker.failed_frac == 0.5 and not checker.correct


def test_missing_duplicate_and_unexpected_cases_are_misses():
    checker = workloads.Checker()
    expected = {"A": {"equal": True, "objects": 1}, "B": {"equal": True, "objects": 1}}
    results = [("A", _report(True, 1)), ("A", _report(True, 1)), ("C", _report(True, 1))]
    workloads.check_pass(checker, results, expected)
    assert (checker.attempted, checker.failed) == (3, 3)


def test_a_run_that_checks_nothing_is_not_correct():
    checker = workloads.Checker()
    assert not checker.correct and checker.failed_frac == 1.0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        layers.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    expected = workloads.load_expected()
    assert set(expected) == set(workloads.WORKLOADS)
    assert all(expected[w]["cases"] for w in workloads.WORKLOADS)


def _copy_checkout(tmp_path, with_src=True):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src", "symptok"),
                        tmp_path / "src" / "symptok",
                        ignore=shutil.ignore_patterns("__pycache__"))


def _run(cwd, workload="at_scale"):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", "0"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_the_command_fails_on_a_flipped_expected_verdict(tmp_path):
    _copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    (case,) = expected["at_scale"]["cases"].values()
    case["equal"] = not case["equal"]
    path.write_text(json.dumps(expected))
    proc = _run(tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # two passes, each one miss
    assert result["correct"] is False and result["failed"] == 2
    assert "failed_frac" in proc.stdout and "MISS" in proc.stderr


def test_the_command_refuses_to_run_without_the_sources(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    proc = _run(tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_host_speed_correction_cancels_a_uniform_slowdown():
    nominal = hostspeed.NOMINAL_S
    # the same work on a host half as fast: twice the wall, twice the slice
    assert hostspeed.scale(6.0, [2 * nominal] * 3) == pytest.approx(3.0)
    # half of 4 s at nominal speed and half at half speed: 2 s + 1 s of work
    assert hostspeed.scale(4.0, [nominal, nominal, 2 * nominal, 2 * nominal]) == \
        pytest.approx(3.0)


def test_the_sampler_times_slices_while_active_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        end = time.perf_counter() + 10 * hostspeed.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    slices = sum(sampler.samples[1:])
    assert sampler.corrected(1.0) == pytest.approx(
        hostspeed.scale(1.0 - slices, sampler.samples))
