"""Timing records, percentile rules and the CLI child-process runner."""

import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

LAUNCHER = Path(__file__).resolve().with_name("launcher.py")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
CHILD_TIMEOUT_S = 150


@dataclass
class Op:
    """One timed operation: a CLI process or an in-process library call."""

    kind: str
    seconds: float
    problems: list = field(default_factory=list)  # empty when the op succeeded

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    rank = p / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def beyond(n, p):
    """Samples strictly above the p-th percentile rank of n distinct samples."""
    return n - math.floor(p / 100.0 * (n - 1)) - 1


def tail_percentile(n):
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it.

    `n` is the number of operations in one pass of the workload, a fixed
    property of the workload, so the percentile does not move when a faster
    program fits more passes into a run. Falls back to the median when even
    that has fewer than MIN_BEYOND beyond it.
    """
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return 50.0


def fail_counts(ops):
    """(attempted, failed) over operations."""
    return len(ops), sum(op.failed for op in ops)


@dataclass
class Child:
    seconds: float
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_cli(args, cwd, env, log_stem):
    """Run the launcher with CLI `args`; wall time covers spawn to reap.

    Output goes to files, not pipes, so nothing reads while the clock runs.
    The child's own peak RSS comes from wait4.
    """
    out_path, err_path = Path(f"{log_stem}.out"), Path(f"{log_stem}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), *args],
            cwd=cwd, env=env, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        seconds,
        proc.returncode,
        out_path.read_text(errors="replace"),
        err_path.read_text(errors="replace"),
        usage.ru_maxrss,
    )
