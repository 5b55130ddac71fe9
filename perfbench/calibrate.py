"""Calibrated seconds: host time corrected for the machine's speed of the moment.

Host time on a shared machine swings by half within seconds as neighbours
come and go: on a shared 2-vCPU Intel Xeon VM a fixed Python loop timed for 90 s
had 6-second medians from 0.115 s to 0.184 s, in process CPU time as much as
in wall time. So the runner interleaves short reference samples with the
work, and rescales each stretch of work by the samples taken beside it:

    calibrated seconds = host seconds x nominal sample time / mean sample time

A slow spell slows the work and its samples alike and cancels out; a change
to aqmsim moves only the work. There are two reference kernels, because the
simulator's interpreter-bound work and the forecaster's small-array numpy
work slow down differently: "sim" samples follow each simulated second,
"train" samples precede each LSTM training step.

The kernels run with the cyclic garbage collector switched off. With it on,
a sample's own allocations would set off collections that also scan
aqmsim's live objects, so the sample time, the divisor, would depend on the
code under test: a change that cuts allocations would look smaller than it
is, and one that adds live objects would be flattered.
"""
from __future__ import annotations

import gc
import heapq
from time import perf_counter

import numpy as np


class _Slot:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, x: int) -> int:
        self.total += x
        return self.total


_SLOTS = [_Slot() for _ in range(64)]
_RNG = np.random.default_rng(0)
_X = _RNG.random((64, 30))
_W = _RNG.random((30, 120))
_B = _RNG.random(120)


def sim_sample() -> None:
    """Interpreter work shaped like the simulator's hot path: heap pushes
    and pops of event tuples, bound-method calls, slot updates, dict stores."""
    heap, table = [], {}
    for i in range(4000):
        heapq.heappush(heap, (i * 7919 % 1000003, i, _SLOTS[i & 63].add))
        if len(heap) > 256:
            t, _, fn = heapq.heappop(heap)
            table[t & 1023] = fn(t & 7)


def train_sample() -> None:
    """Small-array numpy work shaped like one LSTM step: a batch-64 gate
    projection, sigmoid, tanh, and a gradient-shaped product."""
    for _ in range(20):
        z = _X @ _W + _B
        h = 1.0 / (1.0 + np.exp(-z)) * np.tanh(z)
        h.T @ _X


# kind -> (kernel, nominal seconds: about one sample on that VM, so that
# calibrated seconds read close to host seconds there)
KERNELS = {"sim": (sim_sample, 0.004), "train": (train_sample, 0.002)}


def run_kernel(kind: str) -> None:
    """One `kind` sample with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        KERNELS[kind][0]()
    finally:
        if enabled:
            gc.enable()


def sample_s(kind: str, n: int) -> float:
    """Mean seconds of n `kind` samples."""
    t0 = perf_counter()
    for _ in range(n):
        run_kernel(kind)
    return (perf_counter() - t0) / n


def calibrate(host_s: float, kind: str, mean_sample_s: float) -> float:
    return host_s * KERNELS[kind][1] / mean_sample_s


class Calibrator:
    """Reference samples interleaved with one stretch of timed work.

    `tick(kind)` closes the current stretch of work, books it under `kind`
    and takes one `kind` sample; `stop()` books the last stretch under the
    last kind and ends the timed work. Later ticks and stops are ignored, so
    a workload may stop the clock before its unit ends (`stopped_at`).
    """

    def __init__(self):
        self.work_s = dict.fromkeys(KERNELS, 0.0)
        self.ref_s = dict.fromkeys(KERNELS, 0.0)
        self.samples = dict.fromkeys(KERNELS, 0)
        self.stopped_at = None
        self._kind = "sim"
        self._mark = None

    def start(self) -> None:
        self._mark = perf_counter()

    def tick(self, kind: str) -> None:
        if self.stopped_at is not None:
            return
        t0 = perf_counter()
        self.work_s[kind] += t0 - self._mark
        run_kernel(kind)
        t1 = perf_counter()
        self.ref_s[kind] += t1 - t0
        self.samples[kind] += 1
        self._kind = kind
        self._mark = t1

    def stop(self) -> None:
        if self.stopped_at is not None:
            return
        if self.samples[self._kind] == 0:
            self.tick(self._kind)
        self.stopped_at = perf_counter()
        self.work_s[self._kind] += self.stopped_at - self._mark

    def host_s(self) -> float:
        """Seconds of work, reference samples excluded."""
        return sum(self.work_s.values())

    def calibrated_s(self) -> float:
        return sum(calibrate(self.work_s[k], k, self.ref_s[k] / self.samples[k])
                   for k in KERNELS if self.work_s[k])
