"""Smoke test of the experiment scripts: each runs to exit 0 on tiny arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["derandomize_corpus.py", "--max-n", "5"],
    ["family_reach.py", "--max-n", "5", "--samples", "3", "--relabelings", "2"],
    ["isolation_rate.py", "--draws", "20"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
