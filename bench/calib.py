"""Host speed, measured by a fixed loop that uses none of the library's code.

On a shared 2-vCPU Xeon VM the speed of the same code moved by up to half
for minutes at a time, in CPU time as well as in wall time (other guests
on the same cores), so raw timings of unchanged code drifted between sets
of runs.  Every timed process therefore runs short chunks of a fixed plain
Python loop between its operations: the dense survivor sweep of
``refs.survivor_counts`` (the same big-integer list work as the library's
counting) over a fixed 60-state machine, with the collector off.
``scale`` turns a CPU time measured next to a few chunks into seconds at
the reference speed, at which one chunk takes ``REFERENCE_S``.
The chunks run no program code, so a change to the program moves a scaled
time by the same share as the raw one.
"""

from __future__ import annotations

import gc
import random
import resource
import statistics
import time
from types import SimpleNamespace

import refs

REFERENCE_S = 0.017  # CPU time of one chunk at the reference speed: about
# its median on that VM, so scaled times read close to its raw ones
INTERVAL_S = 0.2  # CPU time between chunks while operations run
_LEVELS = 1000


def _machine():
    """Two letters; a state leads to the dead state 0 with one letter in
    five, so the counts grow at a fixed rate and reach a few hundred bits."""
    rng = random.Random(20181)
    n = 60
    transitions = [(0, 0)] + [
        tuple(0 if rng.random() < 0.2 else rng.randrange(1, n) for _ in range(2))
        for _ in range(1, n)
    ]
    return SimpleNamespace(n_states=n, transitions=transitions)


_MACHINE = _machine()


def cpu() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def chunk() -> float:
    """CPU seconds of one run of the fixed loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        refs.survivor_counts(_MACHINE, 1, {0}, _LEVELS)
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def scale(chunks) -> float:
    """Factor taking CPU seconds measured next to ``chunks`` to reference seconds."""
    return REFERENCE_S / statistics.median(chunks)


class Calibration:
    """Chunk times of one process, sampled between its operations."""

    def __init__(self):
        self.samples = []
        self._next = cpu() + INTERVAL_S

    def between_ops(self):
        """Run one chunk if ``INTERVAL_S`` of CPU time passed since the last."""
        if cpu() >= self._next:
            self.sample(1)

    def sample(self, count: int):
        self.samples += [chunk() for _ in range(count)]
        self._next = cpu() + INTERVAL_S
