"""Pins the --no-timing JSON of the identity reports to a recorded fixture,
so a report that drifts between commits fails here (C10 only compares two
runs of the same tree).

The fixture covers the ten grid variants plus the rejected `literal` and
`above` conventions: symbolic at n <= 2, |mu| <= 2, counterexamples
included, and modular at n = 3, mu = (2), T = 20, seed 1; and the at-scale
check verify_big_modular((4,3,3), 5) at T = 20, seed 1, with its fallback.
Re-record it only for a change that means to alter reports:

  PYTHONPATH=src python3 tests/test_report_pins.py
"""

import json
import os

from symptok.identities import verify, verify_big_modular, verify_sweep

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures",
                       "pinned_reports.json")

VARIANTS = (
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
    ("COR_UASM_Q", {"cpm_q_scheme": "norm", "c0_mode": "literal"}),
    ("COR_ST_Q", {"st_q_neighbour": "above"}),
)


def pinned_reports():
    """(label, --no-timing report) of every pinned case, in fixture order."""
    out = []
    for identity, knobs in VARIANTS:
        label = identity + "".join(f" {k}={v}" for k, v in knobs.items())
        for n in (1, 2):
            for r in verify_sweep(identity, n, 2, "symbolic", **knobs):
                out.append((label, r.to_json_dict(include_timing=False)))
        r = verify(identity, (2,), 3, "modular", trials=20, seed=1, **knobs)
        out.append((label, r.to_json_dict(include_timing=False)))
    r = verify_big_modular((4, 3, 3), 5, trials=20, seed=1)
    out.append(("verify_big_modular", r.to_json_dict(include_timing=False)))
    return out


def test_reports_match_the_pinned_fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = pinned_reports()
    assert [label for label, _ in got] == [e["variant"] for e in pinned]
    for (label, report), entry in zip(got, pinned):
        # dumps keeps key order, so this compares the bytes the CLI prints
        assert json.dumps(report, indent=2) == json.dumps(entry["report"], indent=2), (
            label, report["mode"], report["n"], report["mu"])


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump([{"variant": label, "report": report}
                   for label, report in pinned_reports()], fh, indent=1)
        fh.write("\n")
