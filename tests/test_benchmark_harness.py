"""Smoke test of the benchmark harness's contract with the package.

``perfbench/session.py`` imports besselsix and runs a workload's set-up
before its timed ops.  A name the harness reads that the package no longer
has fails here, in seconds, instead of in a full benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["session-warm", "analytic"])
def test_session_setup_reports_ready(workload):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, str(ROOT / "perfbench" / "session.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0", "--setup-only"]
    result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert {"event": "ready"} in [json.loads(line) for line in result.stdout.splitlines()]
