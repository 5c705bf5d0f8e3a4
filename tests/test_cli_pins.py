"""Pins the exit code, stdout and stderr of a fixed list of CLI invocations
to a recorded fixture, so a change meant to keep the CLI's output (a
refactor of the object classes, the family table or the renderers) cannot
drift a byte unnoticed.

Every invocation runs in-process through cli.main, in a temporary working
directory that holds the input files below, so the file names in error
messages are the relative --input paths.  The objects are of rank <= 3.
Re-record the fixture only for a change that means to alter the CLI's
output:

  PYTHONPATH=src python3 tests/test_cli_pins.py
"""

import contextlib
import io
import json
import os
import tempfile

from symptok import weights
from symptok.cli import main

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures",
                       "pinned_cli.json")


def _cell(level, barred=False, primed=False):
    return {"level": level, "barred": barred, "primed": primed}


# A rank-2 shifted tableau of shape (3,1), its primed refinement, and its
# matrix, compass matrix and pattern; an ordinary tableau; a rank-3 pattern;
# the empty ordinary tableau; and files that break their family's rules.
FILES = {
    "st.json": {"family": "st", "shape": [3, 1],
                "rows": [[_cell(1), _cell(1, True), _cell(2)], [_cell(2)]]},
    "qt.json": {"family": "qt", "shape": [3, 1],
                "rows": [[_cell(1), _cell(1, True), _cell(2)],
                         [_cell(2, primed=True)]]},
    "t.json": {"family": "t", "shape": [2, 1],
               "rows": [[_cell(1), _cell(2)], [_cell(2, True)]]},
    "t_empty.json": {"family": "t", "shape": [], "rows": []},
    "uasm.json": [[1, 0, 0], [-1, 1, 0], [1, -1, 1], [0, 0, 0]],
    "cpm.json": [["WE", "SE", "SE"], ["NS", "WE", "SE"], ["WE", "NS", "WE"],
                 ["NE", "SE", "NE"]],
    "gt.json": {"n": 2, "rows": [[1], [2], [3, 1], [3, 1]]},
    "gt3.json": {"n": 3, "rows": [[0], [2], [3, 1], [3, 2], [4, 2, 0], [4, 2, 1]]},
    "gt_n_negative.json": {"n": -1, "rows": [[1], [2]]},
    "gt_n_zero.json": {"n": 0, "rows": []},
    "gt_n_two_on_two_rows.json": {"n": 2, "rows": [[1], [2]]},
    "gt_n_one_on_four_rows.json": {"n": 1, "rows": [[1], [2], [3, 1], [3, 1]]},
    "gt_n_one_on_three_rows.json": {"n": 1, "rows": [[2], [1], [3]]},
    "gt_n_float.json": {"n": 1.0, "rows": [[1], [2]]},
    "uasm_odd.json": [[1], [0], [1]],
}

# The object file each family's schemes weigh, and one they refuse.
OWN = {"t": "t.json", "qt": "qt.json", "st": "st.json", "uasm": "uasm.json",
       "gtp": "gt.json"}
WRONG = {"t": "st.json", "qt": "st.json", "st": "qt.json", "uasm": "cpm.json",
         "gtp": "uasm.json"}


def _invocations():
    out = []
    for family in ("st", "t", "qt", "uasm", "gtp"):
        base = ["enumerate", "--family", family]
        out += [base + ["--lambda", "2,1", "--n", "2"],
                base + ["--lambda", "2,1", "--n", "2", "--count-only"],
                base + ["--lambda", "1,3", "--n", "2"],
                base + ["--lambda", "1", "--n", "0"],
                base + ["--lambda", "2,a", "--n", "2"]]
    out.append(["enumerate", "--family", "cpm", "--lambda", "1", "--n", "1"])
    for source, path in (("st", "st.json"), ("uasm", "uasm.json"),
                         ("gtp", "gt.json"), ("gtp", "gt3.json")):
        for fmt in ("json", "ascii", "both"):
            out.append(["bijection", "--from", source, "--input", path,
                        "--format", fmt])
    out += [["bijection", "--from", "st", "--input", "qt.json"],
            ["bijection", "--from", "uasm", "--input", "cpm.json"],
            ["bijection", "--from", "gtp", "--input", "t.json"]]
    for scheme in weights.SCHEMES:
        family = weights.SCHEMES[scheme].family
        out += [["weight", "--scheme", scheme, "--input", OWN[family]],
                ["weight", "--scheme", scheme, "--input", WRONG[family]]]
    out += [["weight", "--scheme", "ST_XY", "--input", "st.json", "--annotate"],
            ["weight", "--scheme", "ST_Q", "--input", "st.json", "--annotate"],
            ["weight", "--scheme", "ST_Q", "--input", "st.json", "--annotate",
             "--neighbour", "above"],
            ["weight", "--scheme", "GT_XY", "--input", "gt.json", "--annotate"],
            ["weight", "--scheme", "CPM_Q_NORM", "--input", "uasm.json",
             "--c0", "literal"],
            ["weight", "--scheme", "CPM_XY", "--input", "uasm.json",
             "--c0", "literal"],
            ["weight", "--scheme", "T_DEFORMED", "--input", "t_empty.json"]]
    for name in FILES:
        for fmt in ("ascii", "json"):
            out.append(["render", "--input", name, "--format", fmt])
    out += [["verify", "--id", "THM_ST", "--mu", "1", "--n", "2", "--no-timing"],
            ["verify", "--id", "COR_UASM_Q", "--mu", "1", "--n", "2",
             "--cpm-q-scheme", "norm", "--c0", "literal", "--no-timing"],
            ["verify", "--id", "PROP_T", "--mu", "1", "--n", "2", "--mode",
             "modular", "--trials", "5", "--seed", "3", "--no-timing"],
            ["verify", "--id", "COR_GT", "--mu", "", "--n", "0", "--no-timing"],
            ["sweep", "--id", "COR_GT_QX", "--n", "2", "--max-weight", "1",
             "--no-timing"],
            ["sweep", "--id", "COR_ST_Q", "--n", "1", "--max-weight", "2",
             "--neighbour", "above", "--no-timing"]]
    return out


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def pinned_runs():
    """The fixture's entries: each invocation with what it printed."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in FILES.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        os.chdir(tmp)
        try:
            return [_run(argv) for argv in _invocations()]
        finally:
            os.chdir(cwd)


def test_cli_output_matches_the_pinned_fixture():
    with open(FIXTURE, encoding="utf-8") as fh:
        pinned = json.load(fh)
    got = pinned_runs()
    assert [r["argv"] for r in got] == [e["argv"] for e in pinned]
    for run, entry in zip(got, pinned):
        assert run == entry, run["argv"]


if __name__ == "__main__":
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(pinned_runs(), fh, indent=1)
        fh.write("\n")
