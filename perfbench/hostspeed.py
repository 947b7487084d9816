"""The host's speed, measured by a fixed reference kernel between experiment calls.

The host this benchmark was defined on gives it two vCPUs of a shared
machine, and their speed drifts with the load of other tenants: a fixed
64^2 step loop ran anywhere from 1.0x to 2.3x its fastest time, in
stretches from a fraction of a second to minutes.  A statistic of one
run's calls removes the fast part of that drift but not the slow part,
because a slow stretch can outlast a run.

The slowdown is also per vCPU: at one moment one vCPU can run at 1.0x
while the other runs at 1.8x.  So each worker times this kernel right
before and right after its experiment call, in its own process and so on
the same vCPU, and ``run.py`` divides the call's wall time by the host's
slowdown over that bracket.  The kernel is fixed code that uses only
numpy, so a change to the program cannot move it.  It has two parts that
slow down differently under contention, as the solver's own work does:

- spectral: 64^2 pseudo-spectral advection steps (five complex 2-D
  transforms, products and a 2/3 mask, then a linear update);
- interpreter: a pure-Python arithmetic loop.

The slowdown is the geometric mean of the two parts' times over their
typical times on the reference host (2-vCPU Intel Xeon VM at 2.0 GHz,
Python 3.11, numpy 2.4), so it reads about 1 at that host's typical load
and a normalised time reads in that host's typical seconds.
"""

from __future__ import annotations

import math
import time

import numpy as np

N = 64
SPECTRAL_REPS = 80
LOOP_ITERATIONS = 300_000
# Typical (median) times of the two parts on the reference host.
SPECTRAL_REF_S = 0.050
LOOP_REF_S = 0.035


class Kernel:
    """Build it before any transform is wrapped for tracing: it keeps the transforms it finds."""

    def __init__(self):
        self.fft2, self.ifft2 = np.fft.fft2, np.fft.ifft2
        k = np.fft.fftfreq(N, 1.0 / N)
        self.kx, self.ky = np.meshgrid(k, k, indexing="ij")
        ksq = self.kx**2 + self.ky**2
        ksq[0, 0] = 1.0
        self.inv_ksq = 1.0 / ksq
        self.mask = (np.abs(self.kx) < N / 3) & (np.abs(self.ky) < N / 3)
        self.decay = np.exp(-0.01 * ksq)
        rng = np.random.default_rng(1)
        self.w0 = (rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))) * self.mask * self.inv_ksq
        self._advect(self.w0)  # transform plans are made on first use

    def _advect(self, w):
        psi = w * self.inv_ksq
        u = self.ifft2(1j * self.ky * psi)
        v = self.ifft2(-1j * self.kx * psi)
        wx = self.ifft2(1j * self.kx * w)
        wy = self.ifft2(1j * self.ky * w)
        return self.fft2(u * wx + v * wy) * self.mask

    def spectral_s(self) -> float:
        started = time.perf_counter()
        w = self.w0
        for _ in range(SPECTRAL_REPS):
            w = self.decay * w + 1e-3 * self._advect(w)
        return time.perf_counter() - started

    @staticmethod
    def loop_s() -> float:
        started = time.perf_counter()
        total = 0
        for i in range(LOOP_ITERATIONS):
            total += i * i % 7
        return time.perf_counter() - started

    def measure(self) -> tuple[float, float]:
        """Each part's time over its typical time on the reference host."""
        return self.spectral_s() / SPECTRAL_REF_S, self.loop_s() / LOOP_REF_S


def slowdown(readings: list[tuple[float, float]]) -> float:
    """The host's slowdown against its typical speed over a few readings; about 1 at typical load."""
    return sum(math.sqrt(spectral * loop) for spectral, loop in readings) / len(readings)
