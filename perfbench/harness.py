"""Shared machinery of the benchmark: statistics, child processes, results.

Everything here is independent of the program under test: it never
imports ``repro``.  Workloads run the program in child processes
(``child.py``) so every measured sweep, server or executor starts with
cold process-wide caches, as it does for a user.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
#: The checkout the benchmark runs in: it is started from the root.
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Everything a run writes (sweep caches, traces, counter records).
OUT = ROOT / ".bench_out"

#: Minimum number of samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class BenchError(Exception):
    """The benchmark could not run (missing program, crashed child)."""


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float, min_beyond: int = MIN_BEYOND) -> float | None:
    """The ``q``-th percentile (linear interpolation), or ``None`` when
    fewer than ``min_beyond`` samples lie beyond it.

    A percentile with too few samples above it is decided by a handful
    of outliers, so it is not reported at all.
    """
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < min_beyond:
        return None
    ordered = sorted(values)
    rank = q / 100.0 * (n - 1)
    low = math.floor(rank)
    high = min(low + 1, n - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_percentile(
    values: list[float], wanted: tuple[float, ...] = (99.0, 95.0, 90.0, 75.0, 50.0)
) -> tuple[float, float] | None:
    """``(q, value)`` for the highest of ``wanted`` that may be reported."""
    for q in wanted:
        value = percentile(values, q)
        if value is not None:
            return q, value
    return None


def median(values: list[float]) -> float:
    if not values:
        raise BenchError("median of no samples")
    return statistics.median(values)


# ----------------------------------------------------------------------
# timed operations
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One operation of a load phase.

    ``due`` is when the schedule wanted it sent, ``sent`` when it was,
    ``done`` when its answer arrived; all on one ``perf_counter`` clock.
    """

    index: int
    cls: str
    due: float
    sent: float
    done: float
    ok: bool = True
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency_s(self) -> float:
        """Open-loop latency: from the due time, so a stall that delays
        later sends is charged to the requests that waited."""
        return self.done - self.due

    @property
    def late_s(self) -> float:
        """How far the send lagged behind the due time."""
        return self.sent - self.due


def goodput(outcomes: list[Outcome], limit_s: float, duration_s: float) -> float:
    """Correct answers per second that finished within ``limit_s``.

    A failed or refused operation misses the limit whatever its latency.
    """
    good = sum(1 for o in outcomes if o.ok and o.latency_s <= limit_s)
    return good / duration_s


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    """Environment for a process running the program: ``src`` on the
    import path, temporary files inside the run's output directory.
    BLAS thread variables are passed through untouched."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env["TMPDIR"] = str(tmp)
    return env


def require_program() -> None:
    """Refuse to run where the program's sources are absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run from a checkout")


@dataclass
class Child:
    """A ``child.py`` process speaking JSON lines on stdout.

    The child prints ``{"ready": true}`` once it can issue its first
    operation; the time until then is its set-up time.  Its last line
    is its result.
    """

    args: list[str]
    proc: subprocess.Popen[str] = field(init=False)
    started: float = field(init=False)

    def __post_init__(self) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *self.args],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.PIPE,
            text=True,
        )

    def wait_ready(self) -> float:
        assert self.proc.stdout is not None
        line = self.proc.stdout.readline()
        if not line:
            self.finish(timeout=30.0)
            raise BenchError(f"child {self.args[0]} exited before it was ready")
        setup_s = time.perf_counter() - self.started
        if json.loads(line) != {"ready": True}:
            raise BenchError(f"child {self.args[0]} sent {line!r} before ready")
        return setup_s

    def finish(self, timeout: float = 170.0) -> dict[str, Any]:
        # Read through the text buffer ``wait_ready`` filled; a timer
        # kills a child that runs past its deadline.
        assert self.proc.stdout is not None
        watchdog = threading.Timer(timeout, self.proc.kill)
        watchdog.start()
        try:
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            watchdog.cancel()
        if self.proc.returncode == -signal.SIGKILL:
            raise BenchError(f"child {self.args[0]} timed out")
        if self.proc.returncode != 0:
            raise BenchError(f"child {self.args[0]} exited {self.proc.returncode}")
        lines = [line for line in out.splitlines() if line.strip()]
        if not lines:
            raise BenchError(f"child {self.args[0]} printed no result")
        result: dict[str, Any] = json.loads(lines[-1])
        return result


def run_child(args: list[str], timeout: float = 170.0) -> tuple[float, dict[str, Any]]:
    """Run one child to completion: ``(setup_s, result)``."""
    child = Child(args)
    setup = child.wait_ready()
    return setup, child.finish(timeout)


def setup_only(times: int) -> list[float]:
    """Set-up times of ``times`` children that exit once ready."""
    return [run_child(["setup"])[0] for _ in range(times)]


# ----------------------------------------------------------------------
# work counters
# ----------------------------------------------------------------------
def code_version() -> str:
    """Hash of the program's and the benchmark's code and data.

    Work counters are compared only between runs of the same code: a
    change that does more or less work legitimately moves them.
    """
    digest = hashlib.sha256()
    for top in (SRC, HERE):
        for path in sorted(top.rglob("*")):
            if path.suffix in (".py", ".json") and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(top)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_counters(workload: str, seed: int, counters: dict[str, int]) -> list[str]:
    """Compare ``counters`` with the first run of the same workload,
    seed and code in this checkout; record them if this is the first.

    Work counters count what the program did, not how long it took, so
    two runs of the same code on the same inputs must agree exactly.
    Returns one line per counter that differs.
    """
    path = OUT / "counters" / code_version() / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if not path.exists():
        path.write_text(json.dumps(counters, sort_keys=True, indent=1))
        return []
    previous = json.loads(path.read_text())
    diffs = [
        f"{name}: {previous[name]} then {value}"
        for name, value in sorted(counters.items())
        if name in previous and previous[name] != value
    ]
    merged = {**previous, **counters}
    if merged != previous:
        path.write_text(json.dumps(merged, sort_keys=True, indent=1))
    return diffs


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class Result:
    """What one run of one workload reports."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Human-readable figures printed before the result line.
    notes: list[str] = field(default_factory=list)

    def check(self, problems: list[str]) -> None:
        """Count one checked operation; it failed if ``problems`` is
        not empty.  Attempts and failures share one unit, so the share
        of failures stays within [0, 1]."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += problems

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )
