from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from aqmsim.aqm import (DRR_QUANTUM, MAX_PACKET_BYTES, AqmParams, Codel, FqCodel,
                        TailDrop, control_interval, make_discipline, mix64)
from aqmsim.engine import MS, SECOND, US
from aqmsim.harness import SimContext
from aqmsim.packets import CE, ECT0, NOT_ECT, F_ACK, Packet
from aqmsim.scenario import ScenarioConfig


def mk_pkt(flow=1, size=1500, ecn=ECT0):
    return Packet(flow, 0, size, ecn, F_ACK, 0, dst_id=0)


def fill(q, n, now, flow=1, ecn=ECT0):
    for _ in range(n):
        assert q.enqueue(mk_pkt(flow=flow, ecn=ecn), now)


class TestHardLimit:
    def test_overflow_drops_even_ect(self):
        q = Codel(AqmParams(hard_limit=1000))
        fill(q, 1000, now=0)
        pkt = mk_pkt(ecn=ECT0)
        assert not q.enqueue(pkt, 0)
        assert pkt.ecn == ECT0  # overflow never marks
        assert q.stats.dropped_overflow == 1
        assert len(q) == 1000

    def test_empty_queue_starts_sojourn_clock(self):
        q = Codel(AqmParams())
        pkt = mk_pkt()
        assert q.enqueue(pkt, 5 * MS)
        assert pkt.enq_ns == 5 * MS
        assert q.dequeue(5 * MS) is pkt

    def test_occupancy(self):
        q = Codel(AqmParams(hard_limit=1000))
        assert len(q) == 0
        fill(q, 16, now=0)
        assert len(q) == 16
        fill(q, 984, now=0)
        assert len(q) == q.params.hard_limit


class TestSetParams:
    def test_grid_endpoints_and_defaults(self):
        q = Codel(AqmParams())
        q.params.set(50 * US, 1 * MS)
        assert (q.params.target, q.params.interval) == (50 * US, 1 * MS)
        q.params.set(5 * MS, 100 * MS)
        assert (q.params.target, q.params.interval) == (5 * MS, 100 * MS)

    def test_rejects_target_at_or_above_interval(self):
        q = Codel(AqmParams())
        with pytest.raises(ValueError):
            q.params.set(5 * MS, 4 * MS)
        with pytest.raises(ValueError):
            AqmParams(target=10 * MS, interval=10 * MS)

    def test_retune_preserves_law_state(self):
        q, _ = _driven_into_dropping()
        count_before = q.count
        assert q.dropping
        q.params.set(2 * MS, 40 * MS)
        assert q.dropping
        assert q.count == count_before


def _driven_into_dropping(target=5 * MS, interval=100 * MS, ecn=True):
    """Dequeue packets with high sojourn until the law engages; the queue is
    left loaded and the state in the dropping phase."""
    q = Codel(AqmParams(target=target, interval=interval, ecn_enabled=ecn))
    now = 0
    while not q.dropping:
        q.enqueue(mk_pkt(), now)
        q.enqueue(mk_pkt(), now)  # keep backlog above one MTU
        now += 8 * MS
        got = q.dequeue(now)
        assert got is not None
    return q, now


class TestControlLaw:
    def test_hand_trace_first_action_and_spacing(self):
        """Constant 8 ms sojourn, target 5 ms, interval 100 ms: the first
        action lands exactly one interval after the sojourn is first seen
        above target, with count 1 and the next action an interval later."""
        q = Codel(AqmParams(target=5 * MS, interval=100 * MS, ecn_enabled=True))
        tick = 4 * MS
        events = []
        # Enqueue one packet per tick; from tick 2 on, also dequeue. The
        # popped packet is always two ticks old (8 ms sojourn) and two
        # packets stay queued, keeping the backlog above one MTU.
        for k in range(60):
            now = k * tick
            q.enqueue(mk_pkt(), now)
            if k >= 2:
                out = q.dequeue(now)
                assert out.enq_ns == now - 8 * MS
                events.append((now, out.ecn, q.count, q.drop_next))
        t_first_above = 2 * tick  # first dequeue that sees sojourn > target
        marks = [e for e in events if e[1] == CE]
        assert len(marks) >= 2, "control law never engaged"
        first_t, _, first_count, first_next = marks[0]
        assert first_t == t_first_above + 100 * MS
        assert first_count == 1
        assert first_next == first_t + 100 * MS
        # Second action falls due one full interval later (count was 1) and
        # schedules the next one interval/sqrt(2) after that.
        second_t, _, second_count, second_next = marks[1]
        assert second_t == first_t + 100 * MS
        assert second_count == 2
        assert second_next == second_t + control_interval(100 * MS, 2)

    def test_inverse_sqrt_spacing_exact(self):
        """Drive dequeues exactly at drop_next instants; spacing = interval/sqrt(count)."""
        q, _ = _driven_into_dropping()
        interval = 100 * MS
        assert q.count == 1
        action_times = [q.drop_next - control_interval(interval, 1)]
        for expected_count in (2, 3, 4, 5):
            t = q.drop_next
            # keep sojourn at 8 ms and the queue loaded
            q.enqueue(mk_pkt(), t - 8 * MS)
            q.enqueue(mk_pkt(), t - 8 * MS)
            q.enqueue(mk_pkt(), t - 8 * MS)
            out = q.dequeue(t)
            assert out.ecn == CE
            assert q.count == expected_count
            action_times.append(t)
        gaps = [b - a for a, b in zip(action_times, action_times[1:])]
        assert gaps[0] == control_interval(interval, 1)   # 100 ms
        assert gaps[1] == control_interval(interval, 2)
        assert gaps[2] == control_interval(interval, 3)
        assert gaps[3] == control_interval(interval, 4)   # 50 ms at count 4
        assert control_interval(interval, 4) == 50 * MS

    def test_below_target_exits_dropping(self):
        q, now = _driven_into_dropping()
        assert q.dropping
        # Pile fresh packets behind the stale ones, then pop the stale ones
        # (no action falls due before drop_next). The next head has a 2 ms
        # sojourn with plenty of backlog left: the dropping state exits.
        n_old = len(q)
        for _ in range(10):
            q.enqueue(mk_pkt(), now)
        for _ in range(n_old):
            out = q.dequeue(now)
            assert out.enq_ns < now
        assert q.dropping
        out = q.dequeue(now + 2 * MS)  # sojourn 2 ms < target 5 ms
        assert out is not None and out.ecn == ECT0
        assert not q.dropping

    def test_ect_marked_not_dropped(self):
        q, _ = _driven_into_dropping(ecn=True)
        assert q.stats.dropped_law == 0
        assert q.stats.marked >= 1

    def test_not_ect_dropped_instead(self):
        q = Codel(AqmParams(target=5 * MS, interval=100 * MS, ecn_enabled=True))
        now = 0
        while q.stats.dropped_law == 0:
            q.enqueue(mk_pkt(ecn=NOT_ECT), now)
            q.enqueue(mk_pkt(ecn=NOT_ECT), now)
            now += 8 * MS
            q.dequeue(now)
        assert q.stats.marked == 0

    def test_ecn_disabled_drops_ect(self):
        q, _ = _driven_into_dropping(ecn=False)
        assert q.stats.marked == 0
        assert q.stats.dropped_law >= 1

    def test_single_mtu_backlog_exempt(self):
        q = Codel(AqmParams(target=50 * US, interval=1 * MS))
        now = 0
        for _ in range(200):
            q.enqueue(mk_pkt(), now)
            now += 10 * MS
            out = q.dequeue(now)  # sojourn 10 ms but backlog drains to 0
            assert out.ecn == ECT0


class TestConservation:
    def test_counts_balance(self):
        q, _ = _driven_into_dropping(ecn=False)
        s = q.stats
        assert s.enqueued == s.forwarded + s.dropped_law + s.dropped_overflow + len(q)

    @pytest.mark.parametrize("kind", ["taildrop", "codel", "fq_codel"])
    def test_queued_counter_against_held_packets(self, kind):
        # Three arrivals and two departures per ms against a 20-packet limit:
        # overflow drops from the first tens of ms, a standing queue that the
        # law drops from (no ECN), and a retune halfway.
        params = AqmParams(hard_limit=20, ecn_enabled=False)
        q = make_discipline(kind, params, hash_seed=3)
        s = q.stats

        def check():
            held = sum(1 for _ in q.queued_packets())
            # ROADMAP item 1 (defect A) turns this into `s.queued == held`.
            assert s.queued == held - s.dropped_overflow

        for ms in range(600):
            now = ms * MS
            if ms == 300:
                params.set(1 * MS, 20 * MS)
            for flow in (1, 2, 3):
                q.enqueue(mk_pkt(flow=flow, ecn=NOT_ECT), now)
                check()
            for _ in range(2):
                q.dequeue(now)
                check()
        assert s.dropped_overflow > 0
        assert kind == "taildrop" or s.dropped_law > 0


class TestFqCodel:
    def test_hash_partition_spread(self):
        q = FqCodel(AqmParams(), hash_seed=99)
        buckets = {q.bucket_of(f) for f in range(1000)}
        # 1000 distinct flow ids over 1024 buckets: expect ~633 occupied
        assert len(buckets) > 500

    def test_distinct_flows_usually_distinct_buckets(self):
        q = FqCodel(AqmParams(), hash_seed=4)
        assert q.bucket_of(1) != q.bucket_of(2)

    def test_overflow_counts_total_across_subqueues(self):
        q = FqCodel(AqmParams(hard_limit=100))
        for f in range(10):
            for _ in range(10):
                assert q.enqueue(mk_pkt(flow=f), 0)
        assert not q.enqueue(mk_pkt(flow=11), 0)
        assert q.stats.dropped_overflow == 1

    def test_new_flow_served_before_old(self):
        q = FqCodel(AqmParams())
        fill(q, 5, 0, flow=1)
        assert q.dequeue(0).flow_id == 1  # deficit 1514 - 1500 = 14 left
        fill(q, 1, 0, flow=2)  # fresh flow enters the new list behind flow 1
        assert q.dequeue(0).flow_id == 1  # head keeps its slot while deficit > 0
        # Deficit now negative: flow 1 parks on the old list and the new
        # flow is served ahead of it.
        assert q.dequeue(0).flow_id == 2
        assert q.dequeue(0).flow_id == 1

    def test_fresh_flow_position_independent_of_target(self):
        # A sparse packet waits only for the flows on the new list ahead of
        # it, whatever the target: the control law acts inside the backlogged
        # sub-queues (it marks there at the low target) but never reorders
        # the DRR service that reaches the sparse packet.
        bulk = range(1, 9)
        short, fresh = 50, 100

        def fresh_position(target, interval):
            q = FqCodel(AqmParams(target=target, interval=interval, hard_limit=10**6))
            assert len({q.bucket_of(f) for f in (*bulk, short, fresh)}) == len(bulk) + 2
            for f in bulk:
                fill(q, 40, 0, flow=f)
            fill(q, 1, 0, flow=short)
            now = 10 * MS
            for _ in range(30):
                q.dequeue(now)
                now += 600 * US
            # Every bulk flow is backlogged on the old list; the short flow
            # has drained and left both lists.
            assert not q._new and len(q._old) == len(bulk)
            assert not q._subs[q.bucket_of(short)].listed
            fill(q, 1, now, flow=short)  # re-enters the new list ...
            q.enqueue(mk_pkt(flow=fresh, size=64), now)  # ... ahead of the fresh flow
            order = [q.dequeue(now).flow_id for _ in range(len(bulk) + 2)]
            return order.index(fresh) + 1, q.stats.marked

        low_pos, low_marks = fresh_position(50 * US, 1 * MS)
        high_pos, high_marks = fresh_position(6 * MS, 120 * MS)
        assert low_marks > 0 and high_marks == 0
        assert low_pos == high_pos == 2

    def test_drr_fairness_equal_backlogs(self):
        q = FqCodel(AqmParams(target=50 * MS, interval=100 * MS, hard_limit=10**6))
        flows = [3, 5, 7, 11]
        for f in flows:
            for _ in range(200):
                q.enqueue(mk_pkt(flow=f, size=1500), 0)
        sent = {f: 0 for f in flows}
        for _ in range(400):
            pkt = q.dequeue(1)
            sent[pkt.flow_id] += pkt.size_bytes
        spread = max(sent.values()) - min(sent.values())
        assert spread <= DRR_QUANTUM + 1500

    def test_buckets_are_made_on_first_use(self):
        q = FqCodel(AqmParams(), hash_seed=5)
        assert q._subs == {}
        # The first flow id after 1 that shares flow 1's bucket.
        twin = next(f for f in range(2, 10**4) if q.bucket_of(f) == q.bucket_of(1))
        flows = [1, 2, 3, twin]
        for f in flows:
            fill(q, 2, 0, flow=f)
        assert set(q._subs) == {q.bucket_of(f) for f in flows}
        assert len(q._subs) == len(flows) - 1
        assert q._sub_of_flow[1] is q._sub_of_flow[twin] is q._subs[q.bucket_of(1)]
        assert len(q._subs[q.bucket_of(1)]) == 4
        assert sum(1 for _ in q.queued_packets()) == 2 * len(flows)

    @pytest.mark.parametrize("seed,shared", [
        (1, []), (101, []), (3, [(2, 4)]), (6, [(1, 15)]),
    ])
    def test_default_run_makes_a_bucket_per_hashed_flow(self, seed, shared):
        # The 20 bulk flows, the monitor connection and the two probes make
        # 23 flows; a seed whose hash puts two of them in one bucket makes 22.
        ctx = SimContext(replace(ScenarioConfig(), duration_s=2), seed)
        ctx.run()
        q = ctx.topo.bottleneck
        assert len(q._sub_of_flow) == 23
        assert len(q._subs) == 23 - len(shared)
        pairs = [(a, b) for a, b in combinations(sorted(q._sub_of_flow), 2)
                 if q._sub_of_flow[a] is q._sub_of_flow[b]]
        assert pairs == shared

    def test_taildrop_never_marks(self):
        q = TailDrop(AqmParams(hard_limit=10))
        fill(q, 10, 0)
        assert not q.enqueue(mk_pkt(), 0)
        out = [q.dequeue(10**9) for _ in range(10)]
        assert all(p.ecn == ECT0 for p in out)
        assert q.stats.marked == 0


def test_make_discipline_kinds():
    for kind, cls in (("taildrop", TailDrop), ("codel", Codel), ("fq_codel", FqCodel)):
        assert isinstance(make_discipline(kind, AqmParams()), cls)
    with pytest.raises(ValueError):
        make_discipline("red", AqmParams())


def test_mix64_is_stable():
    assert mix64(0) == mix64(0)
    assert mix64(1) != mix64(2)


def _bucket(flow_id: int) -> int:
    return FqCodel(AqmParams()).bucket_of(flow_id)


_sizes = st.integers(64, MAX_PACKET_BYTES)


@given(
    flows=st.lists(st.integers(0, 2**16), min_size=2, max_size=4, unique_by=_bucket),
    bursts=st.lists(st.lists(_sizes, min_size=1, max_size=25), min_size=4, max_size=4),
    # None is a dequeue; (k, size) an arrival for the k-th flow, kept only
    # while that flow is backlogged.
    ops=st.lists(st.one_of(st.none(), st.tuples(st.integers(0, 3), _sizes)), max_size=150),
)
def test_drr_fairness_bound(flows, bursts, ops):
    """While two flows stay backlogged, their dequeued bytes differ by at
    most DRR_QUANTUM + MAX_PACKET_BYTES (Shreedhar & Varghese, SIGCOMM 1995).

    With the control law held off, every packet that arrives leaves by DRR.
    Every flow arrives before the first dequeue, so all start on the new
    list with deficit Q (the quantum); later arrivals only join a backlogged
    flow, which is listed already, so no flow enters the new list again.
    Flow i's dequeued bytes are then S_i = Q * (1 + r_i) - d_i, where r_i
    counts its refills and d_i is its deficit. A visit serves while the
    deficit is positive, and a packet is at most M = MAX_PACKET_BYTES, so a
    visit leaves d_i in (-M, 0] and a refill puts it in (Q - M, Q]; always
    d_i is in (-M, Q]. The two flows keep their cyclic order, so r_i and r_j
    differ by at most one. If equal, |S_i - S_j| = |d_i - d_j| < Q + M. If
    r_i = r_j + 1, flow i was refilled and has not been served since, so
    d_i is in (Q - M, Q] and S_i - S_j = Q - d_i + d_j lies in (-M, Q + M).
    """
    q = FqCodel(AqmParams(target=10 * SECOND, interval=20 * SECOND, hard_limit=10**6))
    backlog = {f: 0 for f in flows}
    sent = {f: 0 for f in flows}
    now = 0

    def arrive(f, size):
        assert q.enqueue(mk_pkt(flow=f, size=size), now)
        backlog[f] += 1

    def depart():
        busy = [f for f in flows if backlog[f]]
        pkt = q.dequeue(now)
        assert pkt is not None
        backlog[pkt.flow_id] -= 1
        sent[pkt.flow_id] += pkt.size_bytes
        for a, b in combinations(busy, 2):
            assert abs(sent[a] - sent[b]) <= DRR_QUANTUM + MAX_PACKET_BYTES

    for f, burst in zip(flows, bursts):
        for size in burst:
            arrive(f, size)
    for op in ops:
        now += US
        if op is None:
            if len(q):
                depart()
        elif op[0] < len(flows) and backlog[flows[op[0]]]:
            arrive(flows[op[0]], op[1])
    while len(q):
        now += US
        depart()
    assert q.dequeue(now) is None
    assert q.stats.marked == q.stats.dropped_law == 0
