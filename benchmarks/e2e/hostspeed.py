"""Clock and host-speed calibration for a shared, noisy box.

The sandbox this benchmark runs in is a small VM whose host is shared:
over minutes the same code runs up to 2x slower, while the hypervisor
gives half the vCPU's time to other guests (steal).  Two measures keep
the numbers repeatable there:

* every timed region is read with the thread's CPU clock, which on a
  quiet host agrees with the wall clock to 1 % (the benchmark is one
  thread and never waits) and on a busy one leaves out most of the time
  the vCPU was taken away;
* beside every slice and set-up, one run of a fixed pure-Python
  *reference kernel* is timed the same way, and each host time is scaled
  by ``REFERENCE_NS / (10th percentile of the reference times)``: the
  time the work would have taken on a host where the kernel takes
  ``REFERENCE_NS``.  The kernel's mix (tuple-keyed dict writes, slot
  attribute reads, method calls, a filtered list) follows the core's
  own; its time tracked the core's slice time to a few percent while
  both moved by 90 % (see README).

The factor is reported as ``e2e.host_speed``; multiply a scaled rate by
it to get the raw one.
"""

from __future__ import annotations

from math import ceil
from time import thread_time_ns

__all__ = [
    "clock_ns", "p10", "reference_ns", "reference_samples", "host_speed",
    "REFERENCE_NS",
]

clock_ns = thread_time_ns

#: The nominal host: one run of the reference kernel takes this long on
#: the sandbox when nothing else runs on its host.
REFERENCE_NS = 800_000


class _Cell:
    __slots__ = ("key", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.weight = weight

    def add(self, value: int) -> int:
        return self.weight + value


_CELLS = [_Cell(index, index + 1) for index in range(200)]


def _kernel() -> int:
    table = {}
    total = 0
    for round_ in range(12):
        for cell in _CELLS:
            key = (cell.key, cell.weight, round_)
            table[key] = cell.add(round_)
            total += table[key]
        total += len([value for value in table.values() if value & 1])
    return total


def reference_ns() -> int:
    """Host time of one run of the reference kernel."""
    start = clock_ns()
    _kernel()
    return clock_ns() - start


def reference_samples(count: int = 4) -> list:
    """A few runs of the kernel, for before and after a long timed part."""
    return [reference_ns() for _ in range(count)]


def p10(values) -> float:
    """Nearest-rank 10th percentile."""
    ordered = sorted(values)
    return ordered[max(0, ceil(0.10 * len(ordered)) - 1)]


def host_speed(reference_samples) -> float:
    """Speed of this host relative to the nominal one (1.0 = nominal).

    Multiply a measured time by it to get the nominal host's time.
    """
    return REFERENCE_NS / p10(reference_samples)
