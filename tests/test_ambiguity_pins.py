"""Pins the JSON of ambiguity_report(2, 2), as scripts/ambiguity_findings.py
writes it, to a recorded fixture: every variant's verdict per mu, not only
whether it holds for all of them.  Re-record it only for a change that means
to alter the findings:

  PYTHONPATH=src python3 tests/test_ambiguity_pins.py
"""

import json
import os

from symptok.identities import ambiguity_report

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures",
                       "pinned_ambiguities.json")


def findings_text() -> str:
    """The bytes that scripts/ambiguity_findings.py writes at n = 2, |mu| <= 2."""
    return json.dumps(ambiguity_report(2, 2), indent=2)


def test_findings_match_the_pinned_fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        assert findings_text() == fh.read()


if __name__ == "__main__":
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        fh.write(findings_text())
