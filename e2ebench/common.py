"""Shared helpers: percentiles, operation counts, child processes."""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, *q* in [0, 1]; 0 without samples (a run
    without samples has failed operations, which the result reports)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def median(values) -> float:
    return percentile(values, 0.5)


def geomean(values) -> float:
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Phase:
    sent: int = 0
    ok: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, success: bool, problem: str = "") -> None:
        self.sent += 1
        if success:
            self.ok += 1
        else:
            self.failed += 1
            if problem and len(self.problems) < 20:
                self.problems.append(problem)


class Ledger:
    """Operations sent, succeeded and failed, per phase."""

    def __init__(self) -> None:
        self.phases: dict = {}

    def __getitem__(self, name: str) -> Phase:
        return self.phases.setdefault(name, Phase())

    @property
    def attempted(self) -> int:
        return sum(p.sent for p in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.phases.values())


def child_env(root: str) -> dict:
    """The environment of every program process: the checkout's sources
    on the path."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"))


def run_child(argv: list, root: str, timeout: float = 120.0):
    """Run one program process to completion.  Returns (wall seconds,
    exit code, stdout bytes)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=root, env=child_env(root), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except BaseException:  # a timeout, or the benchmark being stopped
        proc.kill()
        proc.communicate()
        raise
    return time.perf_counter() - started, proc.returncode, stdout


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest child process that has ended so far."""
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / (1024 * 1024) if sys.platform == "darwin" else peak / 1024


def stop(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Terminate a long-running child, killing it after *grace* seconds,
    and wait until it has ended.  (Not SIGINT: a shell that starts the
    benchmark in the background makes its children ignore SIGINT.)"""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
