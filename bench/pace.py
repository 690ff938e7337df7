"""Machine pace: a fixed reference kernel, timed between the ops.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes.  A fixed flow map on 100 points took 0.14 s to 0.28 s
within one 20 s window on a 2-core VM, at 99.6% CPU.  Every reported time is
therefore scaled to a fixed pace.  The run times a reference kernel every
EVERY_S seconds, and in a burst after every long op.  An op that took
`elapsed` seconds while the kernel took `d` (the median of the samples
nearest the op's midpoint) reports elapsed * reference_s / d.

Each workload uses the kernel that resembles its own work: `point` (many
numpy calls on two-element arrays) for one-point integration and scalar
loops, `grid` (field-like updates on 5712-point arrays) for the batched grid
flow.  A kernel of 5 ms sampled too noisily: lengthening the grid kernel to
about 25 ms cut the spread (IQR/median) of grid-flow's op median over five
30 s runs from 11% to 3.3%, against 12% unpaced.  The kernels use numpy
and plain Python only, never the package, so a change to the package moves
the paced times and leaves the kernels alone.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

EVERY_S = 0.5
BURST = 3
NEAREST = 6


def point_kernel() -> float:
    """Many numpy calls on two-element arrays, like one-point integration."""
    z = np.array([0.3 + 1.2j, 0.4 - 0.2j])
    worst = 0.0
    for _ in range(2400):
        k = np.array([-1.0 / z[0], z[1] / (2.0 * z[0] ** 2)])
        z = z + 1e-3 * k
        worst = max(worst, float(np.max(np.abs(k))))
    return worst


def grid_kernel() -> float:
    """Field-like updates on arrays the size of siegel-grid-v1."""
    z = np.stack([np.linspace(-10.0, 10.0, 5712) + 2.0j,
                  np.linspace(0.0, 1.0, 5712) + 0.1j], axis=-1)
    worst = 0.0
    for _ in range(200):
        k = np.empty_like(z)
        k[:, 0] = -1.0 / z[:, 0]
        k[:, 1] = z[:, 1] / (2.0 * z[:, 0] * z[:, 0])
        z = z + 1e-4 * k
        worst = max(worst, float(np.max(np.abs(k))))
    return worst


# Kernel and its nominal time: paced times read as seconds at that pace.
KERNELS = {"point": (point_kernel, 0.012), "grid": (grid_kernel, 0.025)}


class Pace:
    """Timeline of reference-kernel durations."""

    def __init__(self, kernel: str) -> None:
        self.kernel, self.reference_s = KERNELS[kernel]
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        self.kernel()
        end = perf_counter()
        self.times.append(0.5 * (start + end))
        self.durations.append(end - start)

    def maybe_sample(self) -> None:
        """Sample if EVERY_S has passed since the last sample."""
        if not self.times or perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def after_op(self, elapsed: float) -> None:
        """A long op gets a burst of samples right after it."""
        if elapsed < EVERY_S:
            self.maybe_sample()
            return
        for _ in range(BURST):
            self.sample()

    def scale(self, start: float, elapsed: float) -> float:
        """Factor that turns `elapsed` seconds from `start` into paced seconds.

        The kernel time is the median of the NEAREST samples to the op's
        midpoint, so one disturbed sample does not carry into the op.
        """
        times = np.asarray(self.times)
        nearest = np.argsort(np.abs(times - (start + 0.5 * elapsed)))[:NEAREST]
        return self.reference_s / float(np.median(np.asarray(self.durations)[nearest]))
