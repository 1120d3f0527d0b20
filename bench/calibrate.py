"""Machine-speed reference for the timed loop.

The shared VM this benchmark was tuned on runs its whole CPU 1.3 to 1.8
times slower or faster for minutes at a time, and process CPU time follows
wall time, so the cause is not descheduling.  Raw wall times of the same
code therefore spread past any useful bound across a set of runs.

So every timed op is also expressed at a fixed reference speed.  Between
batches of ops the loop runs kernel(), a fixed piece of work that never
imports qfun, and times it.  A batch's speed factor is the kernel's
reference seconds over the median kernel time of the slices around it; an op's reported time is its
wall time times that factor.  A change to qfun moves op times and leaves
the kernel alone, so it shows in full; a change of machine speed moves
both and cancels.  Set-up launches are scaled the same way by a reference
launch (LAUNCH_CODE), which tracks interpreter start and imports far
better than a compute kernel does.  The kernel mixes what a qfun op does: Python calls and
float arithmetic, numpy exp/expm1/sum over one chunk of a Lambert series,
math.fsum and string formatting.  Its chunk lengths follow the workload:
64, the first chunk, where most calls stop, and for near q = 1 also
65,536, the longest chunk, which the huge term-bound calls spend their
time in.  The two lengths meet the VM's speed phases differently.  Do not
edit the kernels: their times are the unit the bounded metrics are
measured in.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# chunk length -> (rounds, reference seconds).  The reference speed: the
# kernels take 24 and 27 ms in a slow phase of a 2-vCPU Xeon VM (Python
# 3.11, numpy 2.4), and with these references reported times come close to
# the wall times of its fastest phases.
KERNELS = {64: (1500, 0.015), 65536: (14, 0.0165)}
# slices on each side of a batch that its speed factor takes the median of
WINDOW = 2
# a fresh interpreter importing what qfun imports, but not qfun, and
# printing the seconds that took; and those seconds at the reference speed
LAUNCH_CODE = """\
import time
t0 = time.perf_counter()
import dataclasses, enum, math, typing
import numpy as np
float(np.sum(np.exp(np.arange(64.0))))
print(repr(time.perf_counter() - t0))
"""
LAUNCH_REF_SECONDS = 0.075
_STEPS = (0.6180339887498949, 0.41421356237309515)


def kernel(n: int = 64) -> float:
    """A fixed, qfun-free stand-in for a qfun op's instruction mix, over
    chunks of n terms."""
    k = np.arange(1.0, n + 1.0)
    acc = 0.0
    for r in range(KERNELS[n][0]):
        q = 0.15 + 0.7 * ((r * _STEPS[0]) % 1.0)
        x = 0.05 + 5.0 * ((r * _STEPS[1]) % 1.0)
        lnq = math.log(q)
        s = float(np.sum(np.exp(k * (x * lnq)) / -np.expm1(k * lnq)))
        acc += math.fsum((s, -math.log1p(-q), lnq * s))
        row = {"q": f"{q:.17g}", "x": f"{x:.17g}", "v": repr(acc)}
        acc += len(",".join(row.values())) * 1e-12
    return acc


class Speed:
    """Kernel slices taken between batches of ops, and the speed factors
    they give.  Batch b is the ops run between slice b and slice b + 1."""

    def __init__(self, chunks: tuple[int, ...] = (64,), warmup: int = 3) -> None:
        self.chunks = chunks
        self.ref_seconds = sum(KERNELS[n][1] for n in chunks)
        self.slices: list[float] = []
        for _ in range(warmup):
            self._run()

    def _run(self) -> None:
        for n in self.chunks:
            kernel(n)

    def sample(self) -> float:
        """Time one slice: the kernel once for each chunk length."""
        t0 = time.perf_counter()
        self._run()
        self.slices.append(time.perf_counter() - t0)
        return self.slices[-1]

    @property
    def batch(self) -> int:
        """The index of the batch that the next op belongs to."""
        return len(self.slices) - 1

    def factor(self, batch: int) -> float:
        """The reference seconds over the median of the WINDOW slices
        before batch and the WINDOW slices after it (fewer at the ends)."""
        lo = max(0, batch + 1 - WINDOW)
        hi = min(len(self.slices), batch + 1 + WINDOW)
        return self.ref_seconds / statistics.median(self.slices[lo:hi])
