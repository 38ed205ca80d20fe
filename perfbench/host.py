"""Host fingerprint, calibration, and the reference loop of the time metrics.

:func:`reference_s` times a fixed pure-Python loop. ``child.py`` runs it
right before and right after every timed part, and the end-to-end time
metrics are expressed in units of it (see ``run.py``).

The fingerprint and the calibration pair are recorded with every result,
not gated; they let results from different sessions be compared:

* ``python_loop_mops`` -- a pure-Python loop, in million iterations per
  second: how fast this interpreter runs plain bytecode right now.
* ``handoff_us`` -- a two-thread lock ping-pong, in microseconds per
  handoff: the price of the thread-to-thread baton pass the engine makes
  on every fiber switch.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import threading
import time
from pathlib import Path


def _git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(root),
    }


#: Iterations of the reference loop that timed parts are measured against
#: (``child.py``): 0.12-0.2 s on a 2-vCPU cloud VM.
REFERENCE_ITERATIONS = 3_000_000


def reference_s(n: int = REFERENCE_ITERATIONS) -> float:
    """Wall seconds of ``n`` iterations of a fixed pure-Python loop."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(n):
        acc += i & 7
    return time.perf_counter() - t0


def python_loop_mops(n: int = 300_000) -> float:
    return n / reference_s(n) / 1e6


def handoff_us(rounds: int = 2000) -> float:
    ping, pong = threading.Lock(), threading.Lock()
    ping.acquire()
    pong.acquire()

    def partner() -> None:
        for _ in range(rounds):
            ping.acquire()
            pong.release()

    thread = threading.Thread(target=partner, daemon=True)
    thread.start()
    t0 = time.perf_counter()
    for _ in range(rounds):
        ping.release()
        pong.acquire()
    elapsed = time.perf_counter() - t0
    thread.join(timeout=10)
    return elapsed / (2 * rounds) * 1e6


def calibrate(repeats: int = 3) -> dict:
    return {
        "python_loop_mops": statistics.median(python_loop_mops() for _ in range(repeats)),
        "handoff_us": statistics.median(handoff_us() for _ in range(repeats)),
    }
