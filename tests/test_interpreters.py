"""The B3 report is byte-identical on every local Python from 3.10 to 3.13.

`requires-python` is >= 3.10.  Each such interpreter that starts (probed
with `-c pass`) and is not the one running the tests runs the package from
src/ as a child, since none of them needs pytest; the test skips when no
other interpreter starts.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
ARGS = ["-m", "subadjoint", "--case", "B3", "--checks", "all", "--seed", "7",
        "--format", "json"]


def _starts(python: str) -> bool:
    try:
        probe = subprocess.run([python, "-c", "pass"], capture_output=True,
                               timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return False
    return probe.returncode == 0


def _report(python: str) -> bytes:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([python, *ARGS], env=env, capture_output=True,
                          check=True, timeout=300).stdout


def test_report_is_identical_on_other_interpreters():
    others = [exe for minor in range(10, 14)
              if sys.version_info[:2] != (3, minor)
              and (exe := shutil.which(f"python3.{minor}")) and _starts(exe)]
    if not others:
        pytest.skip("no other Python 3.10-3.13 starts here")
    want = _report(sys.executable)
    assert want
    for exe in others:
        assert _report(exe) == want, exe
