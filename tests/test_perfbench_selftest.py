"""The benchmark's self-test accepts the outputs of the current code.

A change to a function the benchmark captures (its return value feeds a
check) fails here, not first in a benchmark run.
"""

import os
import pathlib
import subprocess
import sys

SELFTEST = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    # no bytecode file is written next to the benchmark's sources
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    res = subprocess.run(
        [sys.executable, str(SELFTEST)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
