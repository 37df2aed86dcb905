"""Host-speed probe: scales measured times to a reference host speed.

The benchmark runs on shared hosts whose speed drifts.  On a shared
2-core x86-64 Linux VM (Python 3.11), a fixed loop took anywhere from
24 to 53 ms within one minute, identical rounds of ops differed by up
to 2x, and raw ``ops_per_s`` spread by 0.12-0.24 of its median over ten
runs.  So every op (on ``campaign_pool``, every engine call) and every
set-up is paired with runs of a fixed pure-Python probe taken just
before and after it (or during it), and its time is scaled by
``REFERENCE_S / probe``:
the time it would have taken on a host where the probe takes
``REFERENCE_S``.  Scaled this way, the spread of ``ops_per_s`` between
identical rounds fell from 0.17-0.26 to 0.04-0.08.  Unscaled values are
reported in the ``info`` record next to the scaled ones.

The probe measures thread CPU time, which on a paravirtualised guest
excludes time the hypervisor steals from the virtual CPU, so it cannot
see a host that runs other guests on this one's cores, or other
processes that take this one's cores.  For work in other processes the
:class:`Sampler` therefore also subtracts from its window the time the
workers lost that way: the hypervisor's steal time of this VM (from
``/proc/stat``) per core, plus the time the workers waited runnable on
a run queue (from ``/proc/<pid>/schedstat``), averaged over workers.
A worker that sleeps for lack of work loses nothing, so idle time from
an uneven split of work still counts in the latency.

The probe mixes integer arithmetic on a list with the kind of work a
compile does most: allocating small objects, grouping them in a dict
and sorting.  When that VM slowed down, the compiles slowed more than
the arithmetic alone: a compile twice as slow came with an arithmetic
loop only ~1.7x as slow, so scaled latencies still rose by ~18 %.  With
the mixed probe they rose by ~4 %.  The garbage collector is off while
the probe runs, so the size of the program's heap cannot slow it down.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from typing import List, Sequence

#: Probe seconds on the reference host (the VM above when it is calm).
REFERENCE_S = 0.0002

_TABLE = list(range(256))
_ITERATIONS = 1000
_NODES = 150


class _Node:
    __slots__ = ("index", "key")

    def __init__(self, index: int, key: int) -> None:
        self.index = index
        self.key = key


def _by_key(node: _Node) -> int:
    return node.key


def probe() -> float:
    """CPU seconds one run of the fixed probe takes right now.

    Thread CPU time rather than wall time: a probe preempted by this
    host's other processes (the pool's workers) says nothing about the
    host's speed, while a slowed-down host slows the probe's CPU time
    as much as its wall time.
    """
    table = _TABLE
    acc = 0
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.thread_time()
        for i in range(_ITERATIONS):
            slot = (i * 7 + acc) & 255
            acc = (acc + table[slot] * i) & 0xFFFFF
            table[slot] = acc & 0xFF
        groups = {}
        for i in range(_NODES):
            node = _Node(i, (i * 7919 + acc) % 211)
            groups.setdefault(node.key % 17, []).append(node)
        for key in sorted(groups):
            acc += sum(node.index for node in sorted(groups[key],
                                                     key=_by_key))
        return time.thread_time() - started
    finally:
        if collecting:
            gc.enable()


def scales(probes: List[float]) -> List[float]:
    """Reference-speed factors of ops run between consecutive probes:
    ``probes[i]`` ran just before op ``i`` and ``probes[i + 1]`` just
    after it, so each op is scaled by the probes on both sides."""
    return [
        2 * REFERENCE_S / (before + after)
        for before, after in zip(probes, probes[1:])
    ]


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def steal_s() -> float:
    """Seconds the hypervisor has stolen from this VM's cores, summed
    over cores (0 where the kernel does not report it)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:  # pragma: no cover - no procfs
        return 0.0
    return int(fields[8]) * _TICK_S if len(fields) > 8 else 0.0


def run_delay_s(pid: int) -> float:
    """Seconds process ``pid`` has waited runnable on a run queue
    (0 once it has ended or where the kernel does not report it)."""
    try:
        with open(f"/proc/{pid}/schedstat") as handle:
            return int(handle.read().split()[1]) * 1e-9
    except (OSError, IndexError, ValueError):
        return 0.0


class Sampler:
    """Probes from a background thread every ``interval_s`` while open,
    for work that runs in other processes (the engine's pool, set-up), and
    measures the time those processes (``pids``) lost to other work."""

    def __init__(self, pids: Sequence[int] = (),
                 interval_s: float = 0.02) -> None:
        self.interval_s = interval_s
        self.pids = tuple(pids)
        self.samples: List[float] = []
        self.window_s = 0.0
        self.lost_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.samples.append(probe())

    def _lost(self) -> float:
        delays = [run_delay_s(pid) for pid in self.pids]
        waited = statistics.mean(delays) if delays else 0.0
        return steal_s() / (os.cpu_count() or 1) + waited

    def __enter__(self) -> "Sampler":
        self._lost_before = self._lost()
        self._started = time.perf_counter()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.window_s = time.perf_counter() - self._started
        self.lost_s = self._lost() - self._lost_before

    def scale(self) -> float:
        """Reference-speed factor for the window the sampler was open:
        the probes' factor times the share of the window the workers
        did not lose to other work."""
        samples = self.samples or [probe()]
        kept = 1.0 - self.lost_s / self.window_s if self.window_s else 1.0
        return kept * REFERENCE_S / statistics.median(samples)
