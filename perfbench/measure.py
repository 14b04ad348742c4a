"""Timing statistics, the calibration unit, peak RSS and run provenance.

Nothing here imports qubitfit: the calibration unit in particular must
stay independent of the code under test, so that it measures only how
fast the host is running at the moment.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# End-to-end times are reported in reference-host seconds: a unit's wall
# time x (the calibration's reference time / the calibration time measured
# with the unit). The host's speed drifts by up to 2x over seconds to
# minutes; that ratio holds within a few percent. Reference times are
# those of a quiet phase on a 2-core Intel Xeon VM, Python 3.11.7, numpy 2.4.6.
CALIB_REF_S = 0.0005  # one calibration burst
CHILD_CALIB_REF_S = 0.14  # one calibration child
BURST_REPS = 100
BURST_PERIOD_S = 0.05

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

_X = np.linspace(-1.5, 1.5, 30)


def calib_burst() -> float:
    """Time a fixed numpy/Python loop shaped like the objective kernel; calls no qubitfit code."""
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(BURST_REPS):
        h = 0.5 * (_X - 1e-3 * i)
        r = np.square(np.cos(h) - np.sin(h)) - _X
        acc += float(np.dot(r, r))
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("calibration burst produced a non-finite value")
    return elapsed


# The calibration for units that run in a child process: a fresh
# interpreter that imports numpy and runs the burst's loop. It shares the
# spawn, import and page-fault costs of such units, which a burst in this
# process does not see.
CHILD_CALIB_CODE = (
    "import numpy as np\n"
    "x = np.linspace(-1.5, 1.5, 30)\n"
    "for i in range(2000):\n"
    "    h = 0.5 * (x - 1e-3 * i)\n"
    "    float(np.dot(np.square(np.cos(h) - np.sin(h)) - x, x))\n"
)


def calib_child() -> float:
    """Time one fresh calibration interpreter, spawn to exit."""
    t0 = time.perf_counter()
    proc = run_child(python_argv("-c", CHILD_CALIB_CODE))
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"calibration child failed: {proc.stderr[-500:]!r}")
    return elapsed


class Timeline:
    """Wall times of units, each with the host speed measured with it.

    Work in this process (``child=False``): a timer signal runs a
    calibration burst every BURST_PERIOD_S while a unit runs, in the
    measuring thread, so slow phases of any length are sampled in
    proportion. The bursts are taken out of the unit's wall time and the
    unit's host speed is its mean burst. Work in a child process
    (``child=True``): a calibration child runs after every unit and a unit
    uses the mean of those on both sides of it. Use as a context manager:
    it owns SIGALRM while open.
    """

    def __init__(self, child: bool) -> None:
        self.child = child
        self.calib_ref_s = CHILD_CALIB_REF_S if child else CALIB_REF_S
        self.raw: list[float] = []
        self.speed: list[float] = []
        self.calib: list[float] = []
        self._bursts: list[float] = []
        self._saved_handler = None

    def __enter__(self) -> "Timeline":
        if self.child:
            calib_child()  # the first one runs cold
            self.calib.append(calib_child())
        else:
            calib_burst()
            self._saved_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc) -> None:
        if not self.child:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._saved_handler)

    def _on_alarm(self, _signum, _frame) -> None:
        self._bursts.append(calib_burst())

    def time(self, fn, *args):
        if self.child:
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.raw.append(time.perf_counter() - t0)
                self.calib.append(calib_child())
                self.speed.append(0.5 * (self.calib[-2] + self.calib[-1]) / self.calib_ref_s)
        self._bursts = []
        signal.setitimer(signal.ITIMER_REAL, BURST_PERIOD_S, BURST_PERIOD_S)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            bursts = self._bursts or [calib_burst()]
            self.raw.append(wall - sum(self._bursts))
            self.speed.append(statistics.fmean(bursts) / self.calib_ref_s)
            self.calib += bursts

    def scaled(self) -> list[float]:
        """Each unit's time in reference-host seconds."""
        return [raw / speed for raw, speed in zip(self.raw, self.speed)]


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) for the highest percentile with >= 10 samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p * n / 100.0 - 1e-9)
        if rank >= 1 and n - rank >= TAIL_MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def summary(values: list[float]) -> dict:
    """Median, tail and sample count of a list of timings."""
    t = tail(values)
    return {
        "median": statistics.median(values),
        "tail_percentile": t[0] if t else None,
        "tail": t[1] if t else None,
        "samples": len(values),
    }


def peak_rss_mb(children: bool) -> float:
    """Peak resident set size of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def provenance(root: Path, seed: int, calib: list[float], calib_ref_s: float) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git": git_revision(root),
        "seed": seed,
        "calib_s": statistics.median(calib),  # one calibration unit, burst or child
        "calib_ref_s": calib_ref_s,
    }


def git_revision(root: Path) -> dict:
    """HEAD and a dirty flag, or nulls when the checkout is not a git work tree."""
    if not (root / ".git").exists():
        return {"revision": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root, capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    return {"revision": rev, "dirty": bool(status.strip())}


def run_child(argv: list[str], cwd: Path | None = None, env: dict | None = None,
              timeout: float = 60.0) -> subprocess.CompletedProcess:
    """Run one child process to completion; on timeout it is killed and reaped."""
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=timeout, stdin=subprocess.DEVNULL)


def python_argv(*args: str) -> list[str]:
    return [sys.executable, *args]
