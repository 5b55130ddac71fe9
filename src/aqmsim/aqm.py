"""Egress queue disciplines: tail-drop, CoDel, and FQ-CoDel.

The CoDel control law follows RFC 8289, but for the one deviation that
`Codel` names: it watches packet sojourn time at dequeue, enters a dropping
phase once the sojourn has stayed above `target` for a full `interval`, and
then spaces successive actions by interval/sqrt(count). With ECN enabled, a
control-law action on an ECT packet sets CE and forwards it instead of
dropping. The hard queue limit always drops and never marks.

FQ-CoDel makes a bucket (a sub-queue) when a flow first hashes to it, runs
the control law per bucket, and schedules the buckets with deficit round
robin over a new-flows / old-flows list pair.
"""
from __future__ import annotations

from collections import deque
from math import sqrt

from .engine import MS
from .packets import CE, ECT0, ECT1

# A backlog of at most one MTU is exempt from the control law.
MAX_PACKET_BYTES = 1514
DRR_QUANTUM = 1514
NUM_SUBQUEUES = 1024  # the flow hash's modulus; a bucket exists once a flow uses it
# Re-entering the dropping phase within this many intervals of the last
# scheduled action reuses the previous count (minus two) instead of restarting.
REENTRY_WINDOW_INTERVALS = 16

DEFAULT_TARGET = 5 * MS
DEFAULT_INTERVAL = 100 * MS
DEFAULT_HARD_LIMIT = 1000


class AqmParams:
    """Runtime-settable control parameters shared by a discipline instance.

    The discipline reads them at every packet, so `set` retunes it in place
    and its control-law state (count, dropping, schedule) survives.
    """

    __slots__ = ("target", "interval", "hard_limit", "ecn_enabled")

    def __init__(self, target: int = DEFAULT_TARGET, interval: int = DEFAULT_INTERVAL,
                 hard_limit: int = DEFAULT_HARD_LIMIT, ecn_enabled: bool = True):
        if hard_limit < 1:
            raise ValueError("hard_limit must be >= 1")
        self.hard_limit = hard_limit
        self.ecn_enabled = ecn_enabled
        self.target = 0
        self.interval = 0
        self.set(target, interval)

    def set(self, target: int, interval: int) -> None:
        if target <= 0 or interval <= 0:
            raise ValueError("target and interval must be positive")
        if target >= interval:
            raise ValueError(f"target must be below interval (got {target} >= {interval})")
        self.target = target
        self.interval = interval


class QueueStats:
    """Packet counters plus time-weighted occupancy integration.

    `queued` is the resident packet count, kept as an integer that every
    counter update moves with it, so one stats object can be shared by all
    sub-queues of FQ-CoDel and still report the total. It always equals
    `enqueued - forwarded - dropped_law - dropped_overflow`, which undercounts
    by one packet per overflow drop (ROADMAP item 1, defect A). `max_queued`
    is its peak over the run.
    """

    __slots__ = ("enqueued", "forwarded", "marked", "dropped_law", "dropped_overflow",
                 "queued", "area_pkt_ns", "last_ns", "max_queued")

    def __init__(self):
        self.enqueued = 0
        self.forwarded = 0
        self.marked = 0
        self.dropped_law = 0
        self.dropped_overflow = 0
        self.queued = 0
        self.area_pkt_ns = 0
        self.last_ns = 0
        self.max_queued = 0

    def on_enqueue(self, now: int) -> None:
        q = self.queued
        self.area_pkt_ns += q * (now - self.last_ns)
        self.last_ns = now
        self.enqueued += 1
        self.queued = q = q + 1
        if q > self.max_queued:
            self.max_queued = q

    def on_forward(self, now: int) -> None:
        self.area_pkt_ns += self.queued * (now - self.last_ns)
        self.last_ns = now
        self.forwarded += 1
        self.queued -= 1

    def on_drop_law(self, now: int) -> None:
        self.area_pkt_ns += self.queued * (now - self.last_ns)
        self.last_ns = now
        self.dropped_law += 1
        self.queued -= 1

    def on_drop_overflow(self, now: int) -> None:
        self.area_pkt_ns += self.queued * (now - self.last_ns)
        self.last_ns = now
        self.dropped_overflow += 1
        # Defect A: an overflow drop was never enqueued, yet it leaves the
        # count. The fix deletes this line.
        self.queued -= 1

    def drain_area(self, now: int) -> int:
        """Occupancy integral (packet*ns) since the previous drain."""
        area = self.area_pkt_ns + self.queued * (now - self.last_ns)
        self.last_ns = now
        self.area_pkt_ns = 0
        return area


def control_interval(interval: int, count: int) -> int:
    """Spacing between control-law actions: interval / sqrt(count), in ns."""
    return int(round(interval / sqrt(count)))


class TailDrop:
    """FIFO with a hard packet limit; drops on overflow, never marks."""

    __slots__ = ("params", "_q", "stats")

    def __init__(self, params: AqmParams):
        self.params = params
        self._q = deque()
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._q)

    def enqueue(self, pkt, now: int) -> bool:
        if len(self._q) >= self.params.hard_limit:
            self.stats.on_drop_overflow(now)
            return False
        pkt.enq_ns = now
        self._q.append(pkt)
        self.stats.on_enqueue(now)
        return True

    def dequeue(self, now: int):
        if not self._q:
            return None
        pkt = self._q.popleft()
        self.stats.on_forward(now)
        return pkt

    def queued_packets(self):
        return iter(self._q)


class Codel:
    """Single FIFO managed by the CoDel control law, whose state is kept on
    the queue as in RFC 8289's pseudocode. One deviation from RFC 8289 §5:
    re-entering the dropping phase within REENTRY_WINDOW_INTERVALS intervals
    of the last action restarts from `count - 2` (at least 1), where the RFC
    restarts from `count - lastcount`."""

    __slots__ = ("params", "stats", "_q", "backlog_bytes",
                 "first_above_time", "drop_next", "count", "dropping")

    def __init__(self, params: AqmParams, stats: QueueStats | None = None):
        self.params = params
        self.stats = stats if stats is not None else QueueStats()
        self._q = deque()
        self.backlog_bytes = 0
        self.first_above_time = 0
        self.drop_next = 0
        self.count = 0
        self.dropping = False

    def __len__(self) -> int:
        return len(self._q)

    def enqueue(self, pkt, now: int) -> bool:
        if self.stats.queued >= self.params.hard_limit:
            self.stats.on_drop_overflow(now)
            return False
        pkt.enq_ns = now
        self._q.append(pkt)
        self.backlog_bytes += pkt.size_bytes
        self.stats.on_enqueue(now)
        return True

    def _pop(self, now: int):
        """Head packet with sojourn verdict, or (None, False) on empty."""
        if not self._q:
            self.first_above_time = 0
            return None, False
        pkt = self._q.popleft()
        self.backlog_bytes -= pkt.size_bytes
        p = self.params
        if now - pkt.enq_ns < p.target or self.backlog_bytes <= MAX_PACKET_BYTES:
            self.first_above_time = 0
            return pkt, False
        if self.first_above_time == 0:
            self.first_above_time = now + p.interval
            return pkt, False
        return pkt, now >= self.first_above_time

    def _action(self, pkt, now: int) -> bool:
        """Apply one control-law action. True if the packet was marked (and
        should be forwarded), False if it was dropped."""
        if self.params.ecn_enabled and (pkt.ecn == ECT0 or pkt.ecn == ECT1):
            pkt.ecn = CE
            self.stats.marked += 1
            return True
        self.stats.on_drop_law(now)
        return False

    def dequeue(self, now: int):
        pkt, ok_to_drop = self._pop(now)
        if pkt is None:
            return None
        p = self.params
        if self.dropping:
            if not ok_to_drop:
                self.dropping = False
            else:
                while self.dropping and now >= self.drop_next:
                    self.count += 1
                    if self._action(pkt, now):
                        self.drop_next += control_interval(p.interval, self.count)
                        self.stats.on_forward(now)
                        return pkt
                    pkt, ok_to_drop = self._pop(now)
                    if pkt is None:
                        return None
                    if not ok_to_drop:
                        self.dropping = False
                    else:
                        self.drop_next += control_interval(p.interval, self.count)
        elif ok_to_drop:
            # Enter the dropping phase with one immediate action.
            self.dropping = True
            if now - self.drop_next < REENTRY_WINDOW_INTERVALS * p.interval:
                self.count = self.count - 2 if self.count > 2 else 1
            else:
                self.count = 1
            marked = self._action(pkt, now)
            self.drop_next = now + control_interval(p.interval, self.count)
            if not marked:
                pkt, _ = self._pop(now)
                if pkt is None:
                    return None
        self.stats.on_forward(now)
        return pkt

    def queued_packets(self):
        return iter(self._q)


class _SubQueue(Codel):
    """One FQ-CoDel bucket: a CoDel queue plus DRR bookkeeping."""

    __slots__ = ("deficit", "listed")

    def __init__(self, params: AqmParams, stats: QueueStats):
        super().__init__(params, stats=stats)
        self.deficit = 0
        self.listed = False  # on the new or the old list


def mix64(x: int) -> int:
    """splitmix64 finalizer; deterministic flow-to-bucket hashing."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class FqCodel:
    """Deficit round robin over hashed sub-queues, CoDel applied per queue.
    A bucket's sub-queue is made when a flow first hashes to it.

    The per-flow queues, the DRR scheduling and the new and old lists follow
    RFC 8290. One deviation from RFC 8290 §4.1: at the hard limit the
    arriving packet is dropped, where the RFC drops from the head of the
    queue with the largest backlog.
    """

    __slots__ = ("params", "stats", "hash_seed", "_subs", "_sub_of_flow", "_new", "_old")

    def __init__(self, params: AqmParams, hash_seed: int = 0):
        self.params = params
        self.stats = QueueStats()
        self.hash_seed = hash_seed
        self._subs = {}  # bucket index -> _SubQueue, for the buckets in use
        self._sub_of_flow = {}  # memo of bucket_of, by flow id
        # The DRR lists hold the sub-queues themselves.
        self._new = deque()
        self._old = deque()

    def __len__(self) -> int:
        return self.stats.queued

    def bucket_of(self, flow_id: int) -> int:
        return mix64(flow_id ^ self.hash_seed) % NUM_SUBQUEUES

    def enqueue(self, pkt, now: int) -> bool:
        stats = self.stats
        if stats.queued >= self.params.hard_limit:
            stats.on_drop_overflow(now)
            return False
        sub = self._sub_of_flow.get(pkt.flow_id)
        if sub is None:
            bucket = self.bucket_of(pkt.flow_id)
            if bucket not in self._subs:
                self._subs[bucket] = _SubQueue(self.params, stats)
            sub = self._sub_of_flow[pkt.flow_id] = self._subs[bucket]
        # The limit covers all buckets and was checked above, so the packet
        # joins its bucket directly.
        pkt.enq_ns = now
        sub._q.append(pkt)
        sub.backlog_bytes += pkt.size_bytes
        stats.on_enqueue(now)
        if not sub.listed:
            sub.deficit = DRR_QUANTUM
            sub.listed = True
            self._new.append(sub)
        return True

    def dequeue(self, now: int):
        while True:
            if self._new:
                lst = self._new
                from_new = True
            elif self._old:
                lst = self._old
                from_new = False
            else:
                return None
            sub = lst[0]
            if sub.deficit <= 0:
                sub.deficit += DRR_QUANTUM
                lst.popleft()
                self._old.append(sub)
                continue
            pkt = sub.dequeue(now)
            if pkt is None:
                lst.popleft()
                if from_new and self._old:
                    # Empty new queue parks at the old-list tail for one cycle.
                    self._old.append(sub)
                else:
                    sub.listed = False
                continue
            sub.deficit -= pkt.size_bytes
            return pkt

    def queued_packets(self):
        for sub in self._subs.values():
            yield from sub.queued_packets()


def make_discipline(kind: str, params: AqmParams, hash_seed: int = 0):
    if kind == "taildrop":
        return TailDrop(params)
    if kind == "codel":
        return Codel(params)
    if kind == "fq_codel":
        return FqCodel(params, hash_seed=hash_seed)
    raise ValueError(f"unknown discipline: {kind!r}")
