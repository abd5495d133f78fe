"""Process and statistics helpers shared by the timed and the traced run."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: A CLI call still running after this long is killed and counted as failed;
#: the whole run has to end within 180 s.
CALL_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Call:
    """One CLI process: wall time from spawn to exit, peak RSS and its stdout."""

    wall_s: float
    rss_kib: int
    returncode: int
    stdout: bytes


def call_cli(argv: list[str], workdir: Path) -> Call:
    """Run ``python -m netcover <argv>`` from the checkout's ``src``.

    The child's stdout goes to a file so that ``os.wait4`` can reap it and
    report its own peak RSS.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_path = workdir / "stdout"
    with open(out_path, "wb") as out, open(workdir / "stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "netcover", *argv], stdout=out, stderr=err, env=env
        )
        killer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Call(wall, usage.ru_maxrss, proc.returncode, out_path.read_bytes())


def tail_percentile(n: int) -> float | None:
    """Highest of p90/p99/p99.9 with at least ten of ``n`` samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (1 - p / 100) >= 10:
            best = p
    return best


def describe(values: list[float]) -> str:
    """``median`` plus the tail percentile the sample count allows, with n."""
    text = f"median of n={len(values)}"
    p = tail_percentile(len(values))
    if p is not None:
        q = statistics.quantiles(values, n=1000, method="inclusive")
        text += f", p{p:g}={q[round(p * 10) - 1]:.4f}"
    return text


def peak_mib(fn, *args):
    """Run ``fn(*args)`` under tracemalloc; return (result, peak MiB)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20
