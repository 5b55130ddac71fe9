"""Discrete-event core: integer-nanosecond clock and an ordered event heap.

All simulation timestamps are integer nanoseconds so that repeated runs with
the same seed produce bit-identical results on any platform.

An event is a callback with at most one argument: `schedule(t, fn, arg)`
makes `run` call `fn(arg)` at `t`, and `schedule(t, fn)` makes it call
`fn()`. `None` is an argument like any other.
"""
from __future__ import annotations

from heapq import heappop, heappush

US = 1_000
MS = 1_000_000
SECOND = 1_000_000_000

_NO_ARG = object()


def transmit_delay(size_bytes: int, bandwidth_bps: int) -> int:
    """Serialization delay in integer ns (round-half-up)."""
    if bandwidth_bps <= 0:
        raise ValueError("bandwidth_bps must be positive")
    num = size_bytes * 8 * SECOND
    return (num + bandwidth_bps // 2) // bandwidth_bps


class Simulator:
    """Virtual clock plus event queue; ties dequeue in insertion order."""

    __slots__ = ("now", "_heap", "_seq")

    def __init__(self):
        self.now = 0
        self._heap = []
        self._seq = 0

    def schedule(self, t: int, fn, arg=_NO_ARG) -> None:
        if t < self.now:
            raise RuntimeError(f"event scheduled in the past: {t} < {self.now}")
        self._seq += 1
        heappush(self._heap, (t, self._seq, fn, arg))

    def run(self, t_end: int) -> None:
        """Dispatch every event with timestamp <= t_end, then park the clock
        there. Each event is popped before its time is read, so only the
        first one past t_end is pushed back."""
        heap = self._heap
        no_arg = _NO_ARG
        while heap:
            t, seq, fn, arg = heappop(heap)
            if t > t_end:
                # The first event past the end goes back as it was: its
                # sequence number keeps its place among ties.
                heappush(heap, (t, seq, fn, arg))
                break
            self.now = t
            if arg is no_arg:
                fn()
            else:
                fn(arg)
        self.now = t_end

    def __len__(self) -> int:
        return len(self._heap)
