"""Closed-loop runner and the arithmetic behind the end-to-end metrics.

One client, one request in flight: each op is a fresh
``python -m projclass.cli`` process started only after the previous one has
been waited for.  Wall time is taken around spawn and reap, CPU time and peak
RSS come from the child's own rusage.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

OP_TIMEOUT_S = 150.0


@dataclass(frozen=True)
class Sample:
    """What one finished child process cost and printed."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env(root: Path) -> dict[str, str]:
    """Environment that makes children import projclass from root/src only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PROJCLASS_ENTRY_CAP", None)
    return env


def run_child(args: list[str], env: dict[str, str], cwd: Path, scratch: Path) -> Sample:
    """Run `python <args>` to completion and measure it.

    Output goes to files, not pipes, so the parent can block in wait4 and
    read the child's rusage.  A watchdog kills a child that outlives
    OP_TIMEOUT_S; the kill shows up as exit code -9.
    """
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Sample(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
            code=proc.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
        )


def run_cli(argv: list[str], env: dict[str, str], cwd: Path, scratch: Path) -> Sample:
    return run_child(["-m", "projclass.cli", *argv], env, cwd, scratch)


# --------------------------------------------------------------- statistics

PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest of PERCENTILES with at least MIN_BEYOND samples above its rank.

    Nearest-rank definition: the p-th percentile of n sorted samples is the
    k-th smallest, k = ceil(p*n/100), and n - k samples lie beyond it.
    Returns (p, value), or None when even the median has too few beyond it.
    """
    xs = sorted(samples)
    n = len(xs)
    best = None
    for p in PERCENTILES:
        k = math.ceil(p * n / 100)
        if k >= 1 and n - k >= MIN_BEYOND:
            best = (p, xs[k - 1])
    return best


@dataclass
class Tally:
    """Attempted and failed op counts; a wrong answer is also a failure."""

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def add(self, status: str, reason: str = "", label: str = "") -> None:
        self.attempted += 1
        if status == "ok":
            return
        self.failed += 1
        if status == "wrong":
            self.wrong += 1
        key = f"{label}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
