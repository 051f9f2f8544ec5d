"""Machine-speed calibration for the gated timings.

On a shared virtual machine the same work can take 1.6 to 1.9 times as
long in one minute as in the next, in spells that CPU time does not
exclude (the slowdown is not stolen time). A run of the benchmark cannot
outlast such spells, so every timed unit of work is bracketed by a fixed
reference task, timed just before and just after it (one timing serves as
the "after" of one unit and the "before" of the next), and the unit's
wall time is rescaled to the speed at which the reference task takes its
reference time:

    scaled = wall * reference time / mean(task before, task after)

The reference tasks are the benchmark's own code, so that a change to
procmine cannot move them. Each matches the kind of unit it calibrates,
because the spells slow kinds of work by different amounts:

- `KERNEL`, for units run in the measuring process (a document, a
  training pass): one run of a pure-Python kernel of regular-expression
  tokenizing, dictionary counting, tuple sorting, string building and
  float arithmetic, the kinds of work procmine's stages do. One run of
  about 20 ms tracks the speed the work sees; the fastest of three runs of
  6 ms caught fast moments and over-corrected.
- `threaded_process`, for units that are a CLI process: a fresh
  interpreter that writes one byte into every page of a 48 MB buffer
  (about the CLI process's peak memory), then runs 16 slices of the
  kernel on a pool of 8 threads, as the CLI's extract runs its documents;
  fastest of 2. In some spells CLI processes took 1.8 times as long while
  the in-process kernel barely moved: a process whose threads pass the
  interpreter lock between the two CPUs, and that first touches its
  memory, is what those spells slow most. Over 25-second windows in such
  a spell, CLI wall times spread 0.36 unscaled, 0.29 scaled by the
  page-touching interpreter alone and 0.08 by this task.
- `interpreter`, for the set-up probes: a bare `python -c pass`, fastest
  of 3, which pays interpreter start, site imports and exit as the probe
  does.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Reference:
    time: Callable[[], float]  # seconds the reference task takes now
    reference_s: float  # its time at reference speed

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a wall time measured between two timings of
        the task into one at reference speed."""
        return 2 * self.reference_s / (before + after)


_WORDS = ("server", "network", "adapter", "console", "service", "instance",
          "cluster", "backup", "storage", "user", "password", "address")
_TOKEN = re.compile(r"[a-z]+")
_THREADED = f"""
import sys
from concurrent.futures import ThreadPoolExecutor
buffer = bytearray(48 << 20)
buffer[::4096] = bytes(len(range(0, 48 << 20, 4096)))
sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
import calib
with ThreadPoolExecutor(max_workers=8) as pool:
    list(pool.map(lambda _: calib.kernel(600), range(16)))
"""


def kernel(rounds: int = 5000) -> float:
    counts: dict[str, int] = {}
    rows = []
    weights = [0.5 / (1 + k) for k in range(8)]
    acc = 0.0
    for i in range(rounds):
        text = f"Open the {_WORDS[i % 12]} on the {_WORDS[(i * 7) % 12]} {i}"
        for token in _TOKEN.findall(text.lower()):
            counts[token] = counts.get(token, 0) + 1
        rows.append((i % 37, text))
        acc += sum(w * ((i + k) % 5) for k, w in enumerate(weights))
    rows.sort()
    return acc + len(counts) + len(rows)


def kernel_time() -> float:
    """Seconds one run of the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def _fastest_child(code: str, env: dict, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        best = min(best, time.perf_counter() - start)
    return best


# Reference times are round figures near the tasks' times on the machine
# the benchmark was defined on (2 vCPU Intel Xeon, Python 3.11) in a quiet
# spell. Scaled timings read as wall times at that speed.
KERNEL = Reference(kernel_time, 0.02)


def threaded_process(env: dict) -> Reference:
    return Reference(lambda: _fastest_child(_THREADED, env, 2), 0.2)


def interpreter(env: dict) -> Reference:
    return Reference(lambda: _fastest_child("pass", env, 3), 0.05)
