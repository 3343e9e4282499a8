"""Host-speed calibration for wall times measured on a shared machine.

On a shared virtual machine the speed of the host drifts: the same
request can take 1.7 times as long a minute later, for minutes at a
time, whatever the program does. A short fixed kernel is timed next to
the requests; a wall time measured between two probes is scaled by
REFERENCE_S over the mean of the two probe times. The result reads as
seconds on a host at the reference speed, where one kernel run takes
REFERENCE_S. The kernels live here, outside the program, so no change to
circorbits can move them.

The drift does not hit all work alike: over 10-second windows on a
2-vCPU host, interpreter loops swung by about 22% and big-integer
multiply/divide loops by about 8%, so each workload is probed with the
kernel that does its kind of work.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0005


def interpreter() -> int:
    """Bytecode dispatch with small-int arithmetic, dict stores and tuples."""
    s = 0
    d: dict = {}
    for i in range(3500):
        s += i * i % 7
        d[i & 63] = (i, s)
    return s


def big_integer() -> int:
    """The stepwise multiply/divide of an exact binomial, to about 3 kbit."""
    r = 1
    for i in range(1, 701):
        r = r * (8000 - 700 + i) // i
    return r


KERNELS = {"interpreter": interpreter, "big-integer": big_integer}


class Scale:
    """A sequence of probes; factor(j) scales times taken after probe j."""

    def __init__(self, kernel: str) -> None:
        self.kernel = KERNELS[kernel]
        self.probes: list[float] = []

    def probe(self) -> int:
        """Time the kernel (fastest of three runs); return the probe's index."""
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            self.kernel()
            best = min(best, time.perf_counter() - start)
        self.probes.append(best)
        return len(self.probes) - 1

    def factor(self, j: int) -> float:
        """Scale for a time taken between probe j and the next probe, if any."""
        pair = self.probes[j:j + 2]
        return REFERENCE_S * len(pair) / sum(pair)
