"""Inputs, /proc readings, percentiles and provenance for the benchmark."""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.hamming.packing import random_packed, unpack_bits
from repro.hamming.points import PackedPoints

ROOT = Path(__file__).resolve().parents[1]
#: A tail is reported at the highest percentile (in steps of 0.1, at
#: most 99.9) that leaves at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


# -- inputs -----------------------------------------------------------------
def random_database(rng: np.random.Generator, n: int, d: int):
    """A uniform packed database of ``n`` points in ``{0,1}^d``."""
    return PackedPoints(random_packed(rng, n, d), d)


def planted_bits(rng: np.random.Generator, db, rows: np.ndarray) -> np.ndarray:
    """``(len(rows), d)`` 0/1 queries: each is its database row with at
    most ``d // 20`` bits flipped (the flip count is uniform)."""
    d = db.d
    bits = unpack_bits(db.words[rows], d).astype(np.uint8)
    max_flips = d // 20
    flips = rng.integers(0, max_flips + 1, size=len(rows))
    positions = rng.integers(0, d, size=(len(rows), max_flips))
    use = np.arange(max_flips)[None, :] < flips[:, None]
    qi = np.repeat(np.arange(len(rows)), max_flips).reshape(len(rows), max_flips)
    mask = np.zeros_like(bits)
    mask[qi[use], positions[use]] = 1
    return bits ^ mask


# -- statistics ---------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)`` at the highest percentile that leaves at
    least TAIL_MIN_BEYOND samples beyond it, and never below the median
    (with under 20 samples the tail is the median)."""
    q = math.floor(1000 * (1 - TAIL_MIN_BEYOND / len(values))) / 10
    q = min(99.9, max(50.0, q))
    return q, percentile(values, q)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


# -- /proc ----------------------------------------------------------------------
_TICK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pids: Iterable[int]) -> float:
    """utime + stime of the given processes (all their threads)."""
    total = 0
    for pid in pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICK


def peak_rss_mib(pids: Iterable[int]) -> float:
    """Sum of VmHWM (peak resident set) over the processes, in MiB."""
    total_kib = 0
    for pid in pids:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def host_ticks() -> Tuple[int, int]:
    """``(total, steal)`` jiffies of all CPUs from /proc/stat."""
    fields = Path("/proc/stat").read_text().splitlines()[0].split()[1:]
    values = [int(v) for v in fields[:8]]
    return sum(values), values[7]


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    total = after[0] - before[0]
    return (after[1] - before[1]) / total if total > 0 else 0.0


def filesystem_of(path) -> str:
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    target = str(Path(path).resolve())
    best, fstype = "", "unknown"
    for line in Path("/proc/mounts").read_text().splitlines():
        parts = line.split()
        mount = parts[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, parts[2]
    return f"{fstype} ({best})"


# -- host speed -------------------------------------------------------------------
#: Reference computations, by kind: the thread CPU time, in ms, each
#: takes at nominal host speed, and the numpy work it adds to a fixed
#: interpreter loop, as (64-bit words, passes).  The nominal times are
#: about the fastest each took run alone, caches warm, on the host the
#: README's figures come from; they only set the scale.  Between the
#: program's calls it runs with the caches those calls left, so the
#: slowness reads above 1 even on a quiet host.  ``interpreter``
#: streams a 512 KiB array twenty times, ``memory`` a 16 MiB one once.
#: The work loads the host as the workload does, so that contention
#: slows both alike.
REFERENCES = {
    "interpreter": (4.5, 1 << 16, 20),
    "memory": (9.0, 1 << 21, 1),
}


def reference_ms(words: np.ndarray, xored: np.ndarray, counts: np.ndarray,
                 passes: int) -> float:
    """Thread CPU time, in ms, of a reference computation: a fixed
    interpreter loop, then ``passes`` XOR-and-popcount passes over
    ``words`` into the preallocated ``xored`` and ``counts``.

    The host's other tenants slow every instruction by up to 2x for
    seconds to minutes at a time, in CPU time as well as wall time.
    Timed next to the program's work, a fixed computation that loads
    the host the way that work does measures how slow the host is right
    then.  Thread CPU time leaves out time the thread waits for the CPU
    or the GIL.  Nothing large is allocated, so the time does not depend
    on the state the program left the allocator in."""
    start = time.thread_time()
    total = 0
    for i in range(40000):
        total += i * i
    for _ in range(passes):
        np.bitwise_xor(words, words[::-1], out=xored)
        np.bitwise_count(xored, out=counts)
        counts.sum()
    return (time.thread_time() - start) * 1000


class HostSpeed:
    """Runs the reference computation between a loop's calls.

    ``around()``, called right after a call, returns the host's
    slowness for it (reference time over nominal, the mean of the
    samples before and after the call); ``total_ms`` is the CPU time
    the samples took, to leave out of the loop's CPU time."""

    def __init__(self, kind: str):
        self.nominal_ms, size, self.passes = REFERENCES[kind]
        self.words = np.random.default_rng(0).integers(0, 2**63, size=size, dtype=np.uint64)
        self.xored = np.empty_like(self.words)
        self.counts = np.empty(size, dtype=np.uint8)
        self.total_ms = 0.0
        self.last = self._sample()

    def _sample(self) -> float:
        ms = reference_ms(self.words, self.xored, self.counts, self.passes)
        self.total_ms += ms
        return ms / self.nominal_ms

    def around(self) -> float:
        after = self._sample()
        slowness, self.last = (self.last + after) / 2, after
        return slowness


# -- provenance -------------------------------------------------------------------
def git_commit() -> str:
    """The checkout's commit, or ``unknown`` when the checkout is not a
    git repository (git is not asked to search parent directories)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance() -> Dict[str, object]:
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }

