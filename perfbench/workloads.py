"""The benchmark's workloads: their cases, one timed pass, and the checks.

Every workload is a fixed list of calls into ``symptok.identities``.  A pass
makes each call once, in one process, one call at a time (a closed loop with
one client, ``workers=1``).  Each returned report is checked against the
verdict and object count fixed in ``expected.json``.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
import time
from typing import Callable, Dict, List, Tuple

from symptok import identities
from symptok.algebra import MERSENNE31

HERE = os.path.dirname(os.path.abspath(__file__))

# The symbolic grid: the identity variants of the acceptance sweep, kept
# here so the benchmark stays fixed when the scripts change.
GRID_VARIANTS = (
    ("PROP_T", {}),
    ("COR_Q", {}),
    ("THM_ST", {}),
    ("COR_UASM", {}),
    ("COR_GT", {}),
    ("COR_ST_Q", {}),
    ("COR_UASM_Q", {"cpm_q_scheme": "plain"}),
    ("COR_UASM_Q", {"cpm_q_scheme": "norm", "c0_mode": "full"}),
    ("COR_GT_Q", {}),
    ("COR_GT_QX", {}),
)
GRID_RANKS = ((1, 4), (2, 4), (3, 2))
MODULAR_MU, MODULAR_N, TRIALS = (2,), 3, 20
AT_SCALE_MU, AT_SCALE_N = (4, 3, 3), 5

# The CLI probe: one cheap case per workload, in the workload's mode.
PROBES = {
    "symbolic_grid": ("COR_GT", (1,), 2, "symbolic"),
    "modular_n3": ("THM_ST", MODULAR_MU, MODULAR_N, "modular"),
    "at_scale": ("THM_ST", MODULAR_MU, MODULAR_N, "modular"),
}

Call = Callable[[], List[Tuple[str, identities.VerificationReport]]]


def label(identity: str, knobs: dict) -> str:
    if not knobs:
        return identity
    return identity + "[" + ",".join(f"{k}={v}" for k, v in knobs.items()) + "]"


def case_key(variant: str, report) -> str:
    mu = ",".join(map(str, report.mu))
    return f"{variant} n={report.n} mu=({mu})"


def _sweep(identity: str, knobs: dict, n: int, max_weight: int):
    reports = identities.verify_sweep(identity, n, max_weight, "symbolic",
                                      workers=1, **knobs)
    variant = label(identity, knobs)
    return [(case_key(variant, r), r) for r in reports]


def _modular(identity: str, knobs: dict, seed: int):
    r = identities.verify(identity, MODULAR_MU, MODULAR_N, "modular",
                          trials=TRIALS, seed=seed, prime=MERSENNE31, **knobs)
    return [(case_key(label(identity, knobs), r), r)]


def _at_scale(seed: int):
    r = identities.verify_big_modular(AT_SCALE_MU, AT_SCALE_N, trials=TRIALS,
                                      seed=seed, prime=MERSENNE31)
    return [(case_key("THM_ST", r), r)]


def build(name: str, seed: int) -> List[Call]:
    """The calls of one pass.  The seed orders the grid's sweeps and seeds
    the sample points of the modular workloads."""
    if name == "symbolic_grid":
        calls = [functools.partial(_sweep, ident, knobs, n, w)
                 for ident, knobs in GRID_VARIANTS for n, w in GRID_RANKS]
        random.Random(seed).shuffle(calls)
        return calls
    if name == "modular_n3":
        return [functools.partial(_modular, ident, knobs, seed)
                for ident, knobs in GRID_VARIANTS]
    if name == "at_scale":
        return [functools.partial(_at_scale, seed)]
    raise KeyError(name)


WORKLOADS = tuple(PROBES)


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Checker:
    """Counts every check made and every one missed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.misses.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def check_pass(checker: Checker, results: List[Tuple[str, object]],
               expected_cases: Dict[str, dict]) -> None:
    """One check per expected case: it was produced once, with the expected
    verdict and object count.  A case nobody expected is a miss too."""
    got: Dict[str, list] = {}
    for key, report in results:
        got.setdefault(key, []).append(report)
    for key, want in expected_cases.items():
        reports = got.pop(key, [])
        ok = (len(reports) == 1 and reports[0].equal == want["equal"]
              and reports[0].objects == want["objects"])
        detail = [(r.equal, r.objects) for r in reports]
        checker.check(ok, f"{key}: expected {(want['equal'], want['objects'])}, got {detail}")
    for key in got:
        checker.check(False, f"{key}: not an expected case")


def control_findings(report: dict) -> Dict[str, bool]:
    """``satisfies`` of every variant in an ambiguity report, by path."""
    return {f"{group}.{variant}": finding["satisfies"]
            for group, variants in report.items() if isinstance(variants, dict)
            for variant, finding in variants.items()}


def check_controls(checker: Checker, expected_controls: Dict[str, bool]) -> None:
    """The convention findings at n = 2, |mu| <= 2; the rejected variants
    must keep reporting ``satisfies: false``."""
    found = control_findings(identities.ambiguity_report(2, 2))
    for key, want in expected_controls.items():
        checker.check(found.get(key) is want,
                      f"control {key}: expected satisfies={want}, got {found.get(key)}")


def cli_probe(name: str, seed: int, src: str) -> Tuple[float, int]:
    """Run the workload's probe case through ``symptok verify`` in a fresh
    interpreter.  Returns its wall seconds and the number of mismatches with
    the library: a nonzero exit, and stdout differing from the report."""
    identity, mu, n, mode = PROBES[name]
    argv = [sys.executable, "-m", "symptok.cli", "verify", "--id", identity,
            "--mu", ",".join(map(str, mu)), "--n", str(n), "--mode", mode,
            "--trials", str(TRIALS), "--seed", str(seed), "--no-timing"]
    env = dict(os.environ, PYTHONPATH=src)
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=120)
    wall = time.perf_counter() - start
    want = identities.verify(identity, mu, n, mode, trials=TRIALS, seed=seed)
    want_text = json.dumps(want.to_json_dict(include_timing=False), indent=2) + "\n"
    return wall, (proc.returncode != 0) + (proc.stdout != want_text)
