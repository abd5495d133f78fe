"""Every demo runs to completion and prints the same under any hash seed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(path):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    pythonpath = os.pathsep.join(p for p in paths if p)
    procs = [
        subprocess.run(
            [sys.executable, str(path)],
            env={**os.environ, "PYTHONPATH": pythonpath, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        for seed in ("1", "2")
    ]
    for proc in procs:
        assert proc.returncode == 0, proc.stderr
    assert procs[0].stdout.strip()
    assert procs[0].stdout == procs[1].stdout  # no set or dict order leaks out
