import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def assert_usage_error(proc):
    # exit code 1 means an identity failed; bad input is 2, as in the CLI
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["--out", "taken/ambiguities.json"],
                                  ["--out", "."]])
def test_ambiguity_findings_bad_input_exits_2(tmp_path, argv):
    # "taken" is a regular file, so no report directory can be made in it;
    # "." is a directory, so no report can be written there
    (tmp_path / "taken").write_text("")
    assert_usage_error(run_script("ambiguity_findings.py", *argv, cwd=tmp_path))


@pytest.mark.parametrize("argv", [["--trials", "0"],
                                  ["--out", "taken/real_case.json"]])
def test_real_case_bad_input_exits_2(tmp_path, argv):
    # "taken" is a regular file, so no report directory can be made in it
    (tmp_path / "taken").write_text("")
    assert_usage_error(run_script("real_case.py", *argv, cwd=tmp_path))


def test_run_identity_sweeps_unwritable_out_exits_2(tmp_path):
    # the report's directory would have to be made inside a regular file
    (tmp_path / "taken").write_text("")
    proc = run_script("run_identity_sweeps.py", "--out", "taken/sweeps.json",
                      cwd=tmp_path)
    assert_usage_error(proc)
