"""Host-speed calibration of the benchmark's times.

The hosts this benchmark runs on change speed by up to half within seconds
(shared cores), which moves every time it measures.  So each timed piece of
work is paired with a fixed reference kernel timed at the same moment, and a
time t is reported as t * REFERENCE_S / r, with r the kernel's time then:
the time the work would take on a host that runs the kernel in REFERENCE_S.
The kernel mixes what the workloads do: interpreted loops, Fraction
arithmetic, small matrix products and a 300 x 300 rank-one update.

Stream steps are paired with the kernel run right after each step, and a
rolling median over neighbouring steps smooths the kernel's own noise.  Set-up
probes run the kernel in their own process after the timed set-up.  A grid
pass keeps both cores busy with pool workers, so it is paired with a sampler
process that runs the kernel every 20 ms beside them for as long as the pass
runs (about 5% of one core).

    python3 calibrate.py --sample    # the sampler: stops at EOF on stdin
"""

from __future__ import annotations

import select
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 1e-3
_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((8, 8)) * 0.1
_BIG = np.eye(300)
_VEC = _RNG.standard_normal(300) * 1e-6


def kernel() -> None:
    total = 0
    for i in range(6000):
        total += i * i % 7
    frac = Fraction(0)
    for i in range(1, 90):
        frac += Fraction(i, i + 1)
    m = _SMALL
    for _ in range(70):
        m = m @ _SMALL + 1.0
    for _ in range(2):
        _BIG[:] -= np.outer(_VEC, _VEC)


def time_kernel(clock=time.perf_counter) -> float:
    start = clock()
    kernel()
    return clock() - start


def factors(refs: list[float], half_window: int = 10) -> list[float]:
    """REFERENCE_S over the median kernel time around each position."""
    out = []
    for i in range(len(refs)):
        window = refs[max(0, i - half_window): i + half_window + 1]
        out.append(REFERENCE_S / statistics.median(window))
    return out


class Sampler:
    """The sampler process; `stop` ends it and returns the calibration factor."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, __file__, "--sample"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def stop(self) -> float:
        out, _ = self.proc.communicate(timeout=60)
        return REFERENCE_S / statistics.median(float(v) for v in out.split())


def _sample() -> None:
    samples = []
    while True:
        samples.append(time_kernel())
        if select.select([sys.stdin], [], [], 0.02)[0]:
            break
    print(" ".join(repr(v) for v in samples))


if __name__ == "__main__" and sys.argv[1:] == ["--sample"]:
    _sample()
