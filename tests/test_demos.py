"""Every demo script runs to completion and prints something."""

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
    proc = subprocess.run(
        [sys.executable, str(path)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
