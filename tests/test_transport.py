import pytest

from aqmsim.aqm import AqmParams, TailDrop
from aqmsim.engine import MS, SECOND, Simulator, transmit_delay
from aqmsim.harness import SimContext
from aqmsim.network import EgressPort, Host
from aqmsim.packets import (CE, ECT0, NOT_ECT, F_ACK, F_CWR, F_ECE, F_SYN, Packet)
from aqmsim.scenario import ScenarioConfig
from aqmsim.transport import (AIMD_RATE, CUBIC_BETA, CUBIC_C, MSS, Connection, cubic_k,
                              cubic_window, negotiate_ecn, syn_flags, synack_flags)


class TestCubicWindow:
    def test_equals_wmax_at_k(self):
        k = (100 * (1 - CUBIC_BETA) / CUBIC_C) ** (1 / 3)
        assert cubic_window(k, 100.0) == pytest.approx(100.0, abs=1e-9)

    def test_at_zero_equals_beta_wmax(self):
        assert cubic_window(0.0, 100.0) == pytest.approx(70.0, abs=1e-9)

    def test_two_seconds_after_reduction(self):
        k = (100 * 0.3 / 0.4) ** (1 / 3)
        assert k == pytest.approx(4.217, abs=1e-3)
        assert cubic_window(2.0, 100.0) == pytest.approx(95.64, abs=5e-3)

    def test_never_below_one_packet(self):
        assert cubic_window(0.0, 1.0) == 1.0

    def test_strictly_increasing_above_k(self):
        k = (50 * 0.3 / 0.4) ** (1 / 3)
        values = [cubic_window(k + 0.1 * i, 50.0) for i in range(30)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_continuity_near_k(self):
        k = (80 * 0.3 / 0.4) ** (1 / 3)
        assert cubic_window(k - 1e-6, 80.0) == pytest.approx(
            cubic_window(k + 1e-6, 80.0), abs=1e-4)

    def test_validation(self):
        with pytest.raises(ValueError):
            cubic_window(-1.0, 10.0)
        with pytest.raises(ValueError):
            cubic_window(0.0, 0.5)


class TestNegotiation:
    def test_flag_layout(self):
        assert syn_flags(True) == F_SYN | F_ECE | F_CWR
        assert syn_flags(False) == F_SYN
        assert synack_flags(True) == F_SYN | F_ACK | F_ECE
        assert synack_flags(False) == F_SYN | F_ACK

    def test_outcomes(self):
        assert negotiate_ecn(True, True)
        assert not negotiate_ecn(True, False)
        assert not negotiate_ecn(False, True)


class StubHost:
    """Captures everything a connection endpoint transmits."""

    def __init__(self, node_id):
        self.node_id = node_id
        self.sent = []
        self.egress = self
        self.handlers = {}

    def register(self, cid, handler):
        self.handlers[cid] = handler

    def send(self, pkt):
        self.sent.append(pkt)


def stub_conn(sim, ecn=True):
    src = StubHost(0)
    dst = StubHost(1)
    conn = Connection(sim, 0, src, dst, ecn_capable=ecn)
    return conn, src, dst


def establish(sim, conn, src, responder_capable=True):
    conn.start()
    sim.run(sim.now)
    assert src.sent[0].flags & F_SYN
    conn.on_sender_receive(Packet(0, 0, 64, NOT_ECT,
                                  synack_flags(responder_capable), 0, 0))


class TestSenderSide:
    def test_handshake_negotiates_and_sends_initial_window(self):
        sim = Simulator()
        conn, src, _ = stub_conn(sim)
        establish(sim, conn, src)
        assert conn.ecn_negotiated
        data = [p for p in src.sent if not p.flags & F_SYN]
        assert len(data) == 10  # initial window
        assert all(p.ecn == ECT0 for p in data)

    def test_negotiation_failure_sends_not_ect(self):
        sim = Simulator()
        conn, src, _ = stub_conn(sim)
        establish(sim, conn, src, responder_capable=False)
        assert not conn.ecn_negotiated
        data = [p for p in src.sent if not p.flags & F_SYN]
        assert all(p.ecn == NOT_ECT for p in data)

    def test_ece_ack_reduces_once_and_sets_cwr(self):
        sim = Simulator()
        conn, src, _ = stub_conn(sim)
        establish(sim, conn, src)
        sim.run(50 * MS)
        cwnd0 = conn.cwnd
        conn.on_sender_receive(Packet(0, 1500, 64, NOT_ECT, F_ACK | F_ECE, 0, 0))
        # cut to beta * cwnd, then at most one ack's worth of regrowth
        assert 0.7 * cwnd0 <= conn.cwnd <= 0.7 * cwnd0 + 1.0
        assert conn.cwr_pending
        # once the window reopens, the first new data packet carries CWR
        before = len(src.sent)
        conn.on_sender_receive(Packet(0, 9000, 64, NOT_ECT, F_ACK, 0, 0))
        fresh = src.sent[before:]
        assert fresh and fresh[0].flags & F_CWR
        assert not any(p.flags & F_CWR for p in fresh[1:])
        # a second ECE inside the same RTT does not cut again
        cwnd1 = conn.cwnd
        conn.on_sender_receive(Packet(0, 10500, 64, NOT_ECT, F_ACK | F_ECE, 0, 0))
        assert conn.cwnd >= cwnd1  # growth only, no reduction

    def test_second_reduction_after_rtt_passes(self):
        sim = Simulator()
        conn, src, _ = stub_conn(sim)
        establish(sim, conn, src)
        sim.run(50 * MS)
        conn.on_sender_receive(Packet(0, 1500, 64, NOT_ECT, F_ACK | F_ECE, 0, 0))
        assert len(conn.reduction_log) == 1
        sim.run(sim.now + conn.srtt_ns + 1)
        conn.on_sender_receive(Packet(0, 3000, 64, NOT_ECT, F_ACK | F_ECE, 0, 0))
        assert len(conn.reduction_log) == 2
        t0, srtt0 = conn.reduction_log[0]
        t1, _ = conn.reduction_log[1]
        assert t1 - t0 >= srtt0

    def test_triple_dupack_retransmits_and_reduces(self):
        sim = Simulator()
        conn, src, _ = stub_conn(sim)
        establish(sim, conn, src)
        sim.run(50 * MS)
        cwnd0 = conn.cwnd
        before = len(src.sent)
        for _ in range(3):
            conn.on_sender_receive(Packet(0, 0, 64, NOT_ECT, F_ACK, 0, 0))
        assert conn.cwnd == pytest.approx(max(0.7 * cwnd0, 1.0))
        retx = src.sent[before:]
        assert any(p.seq == 0 and p.size_bytes == 1500 for p in retx)
        assert conn.retx_segments == 1

    # Every advancing ACK is timed from the send time it echoes (RFC 7323
    # §4), so a retransmission is timed like any segment, and an ACK that
    # answers the original is timed from the original.
    def test_ack_answering_a_retransmission_is_timed_from_it(self):
        sim = Simulator()
        conn, src, _ = stub_conn(sim)
        establish(sim, conn, src)  # ten segments sent at 0
        samples = []
        conn.rtt_cb = samples.append
        sim.run(50 * MS)
        conn._retransmit(conn.snd_una)
        retx = src.sent[-1]
        assert (retx.seq, retx.sent_at) == (0, 50 * MS)
        sim.run(70 * MS)
        conn.on_sender_receive(ack(2 * MSS, sent_at=retx.sent_at))
        assert samples == [20 * MS]
        assert (conn.srtt_ns, conn.snd_una) == (20 * MS, 2 * MSS)

    def test_ack_answering_the_original_after_a_spurious_retransmission(self):
        sim = Simulator()
        conn, src, _ = stub_conn(sim)
        establish(sim, conn, src)  # ten segments sent at 0
        samples = []
        conn.rtt_cb = samples.append
        sim.run(50 * MS)
        conn._retransmit(conn.snd_una)  # the original was not lost
        sim.run(80 * MS)
        conn.on_sender_receive(ack(MSS, sent_at=0))
        assert samples == [80 * MS]
        # The retransmission's own ACK comes later and advances nothing, so
        # it is not timed.
        sim.run(90 * MS)
        conn.on_sender_receive(ack(MSS, sent_at=50 * MS))
        assert samples == [80 * MS]
        assert conn.dup_acks == 1

    def test_send_rearms_a_lapsed_timer_which_retransmits(self):
        # A window that sends nothing lets the SYN's timer lapse with no data
        # outstanding; the next send must arm a fresh timer from its own
        # time, or the connection could wait forever on a lost segment.
        sim = Simulator()
        conn, src, _ = stub_conn(sim)
        conn.start()
        sim.run(30 * MS)
        conn.cwnd = 0.0
        conn.on_sender_receive(Packet(0, 0, 64, NOT_ECT, synack_flags(True), 0, 0))
        assert conn.srtt_ns == 30 * MS and conn.snd_nxt == 0
        sim.run(2 * SECOND)  # the SYN's timer fires at 1 s and finds nothing to time
        assert not conn.rto_pending and conn.rto_deadline <= sim.now
        conn.cwnd = 2.0
        conn._try_send()
        assert conn.snd_nxt == 2 * MSS
        assert conn.rto_pending
        deadline = 2 * SECOND + 200 * MS  # MIN_RTO, above 2 srtt
        assert conn.rto_deadline == deadline
        sim.run(deadline - 1)
        assert conn.retx_segments == 0
        sim.run(deadline)
        assert conn.retx_segments == 1
        retx = src.sent[-1]
        assert (retx.seq, retx.size_bytes, retx.sent_at) == (conn.snd_una, MSS, deadline)
        assert conn.cwnd == 1.0

    def test_cwnd_floor_is_one_packet(self):
        sim = Simulator()
        conn, src, _ = stub_conn(sim)
        establish(sim, conn, src)
        conn.cwnd = 1.1
        sim.run(sim.now + SECOND)
        for i in range(5):
            sim.run(sim.now + SECOND)
            conn.on_sender_receive(
                Packet(0, 1500 * (i + 1), 64, NOT_ECT, F_ACK | F_ECE, 0, 0))
        assert conn.cwnd >= 1.0


def ack(seq, flags=F_ACK, sent_at=0):
    return Packet(0, seq, 64, NOT_ECT, flags, sent_at, 0)


def reference_grow(conn, newly_acked):
    """(cwnd, w_est) after `newly_acked` segments, from cubic_window."""
    cwnd, w_est = conn.cwnd, conn.w_est
    for _ in range(newly_acked):
        if cwnd < conn.ssthresh:
            cwnd += 1.0
            w_est = cwnd
        else:
            t = (conn.sim.now - conn.epoch_start_ns + conn.srtt_ns) / SECOND
            target = cubic_window(t, conn.w_max)
            if target > cwnd:
                cwnd += (target - cwnd) / cwnd
            else:
                cwnd += 0.01 / cwnd
            w_est += AIMD_RATE / cwnd
            if w_est > cwnd:
                cwnd = w_est
    return cwnd, w_est


class TestCachedCubicGrowth:
    """The connection keeps CUBIC's K with w_max; its growth must equal the
    one cubic_window gives, bit for bit, after every kind of window cut."""

    @pytest.mark.parametrize("cut", ["ece", "loss", "timeout"])
    def test_growth_matches_cubic_window(self, cut):
        sim = Simulator()
        conn, src, _ = stub_conn(sim)
        establish(sim, conn, src)
        # Slow start to cwnd 14, so that the cut's w_max differs from the
        # initial one.
        for i in range(1, 5):
            sim.run(sim.now + 10 * MS)
            conn.on_sender_receive(ack(i * MSS))
        cwnd0 = conn.cwnd
        if cut == "ece":
            # On a duplicate ACK, so that no growth follows the cut.
            conn.on_sender_receive(ack(4 * MSS, F_ACK | F_ECE))
            now = sim.now
        elif cut == "loss":
            for _ in range(3):
                conn.on_sender_receive(ack(4 * MSS))
            now = sim.now
        else:
            while not conn.retx_segments:
                sim.run(sim.now + 10 * MS)
            # The timeout's retransmission was sent at the cut.
            assert src.sent[-1].seq == conn.snd_una
            now = src.sent[-1].sent_at
        assert len(conn.reduction_log) == (cut != "timeout")
        # Right after the cut: the epoch starts at the pre-cut window.
        assert conn.w_max == cwnd0 > 10.0
        assert conn.k_s == cubic_k(conn.w_max)
        assert conn.epoch_start_ns == now
        assert conn.in_cwr_until == now + conn.srtt_ns
        assert conn.w_est == conn.cwnd
        if cut == "timeout":
            assert (conn.cwnd, conn.ssthresh) == (1.0, max(CUBIC_BETA * cwnd0, 2.0))
        else:
            assert conn.cwnd == conn.ssthresh == max(CUBIC_BETA * cwnd0, 1.0)
        avoidance_steps = 0
        for _ in range(30):  # 150 ms: no further timeout
            sim.run(sim.now + 5 * MS)
            avoidance_steps += conn.cwnd >= conn.ssthresh
            expected = reference_grow(conn, 2)
            # Two new segments acked, with an echo one smoothed RTT old, so
            # that srtt_ns, which the growth reads, does not move.
            srtt = conn.srtt_ns
            assert conn.snd_nxt >= conn.snd_una + 2 * MSS
            conn.on_sender_receive(ack(conn.snd_una + 2 * MSS, sent_at=sim.now - srtt))
            assert conn.srtt_ns == srtt
            assert (conn.cwnd, conn.w_est) == expected
        assert avoidance_steps >= 20


def make_receiver(sim):
    conn, src, dst = stub_conn(sim)
    return conn, dst


def data_pkt(seq, ecn=ECT0, flags=F_ACK):
    return Packet(0, seq, 1500, ecn, flags, 0, 1)


class TestReceiverSide:
    def test_ce_sets_ece_on_acks_until_cwr(self):
        sim = Simulator()
        conn, dst = make_receiver(sim)
        conn.on_receiver_receive(data_pkt(0, ecn=CE))
        conn.on_receiver_receive(data_pkt(1500))
        conn.on_receiver_receive(data_pkt(3000))
        acks = dst.sent
        assert all(a.flags & F_ECE for a in acks)
        # CWR-flagged data clears the echo
        conn.on_receiver_receive(data_pkt(4500, flags=F_ACK | F_CWR))
        assert not dst.sent[-1].flags & F_ECE
        conn.on_receiver_receive(data_pkt(6000))
        assert not dst.sent[-1].flags & F_ECE

    def test_plain_data_gets_plain_ack(self):
        sim = Simulator()
        conn, dst = make_receiver(sim)
        conn.on_receiver_receive(data_pkt(0))
        ack = dst.sent[-1]
        assert ack.flags == F_ACK
        assert ack.seq == 1500
        assert ack.size_bytes == 64
        assert ack.ecn == NOT_ECT

    def test_cwr_and_ce_on_same_packet_keeps_echo(self):
        sim = Simulator()
        conn, dst = make_receiver(sim)
        conn.on_receiver_receive(data_pkt(0, ecn=CE))
        conn.on_receiver_receive(data_pkt(1500, ecn=CE, flags=F_ACK | F_CWR))
        assert dst.sent[-1].flags & F_ECE  # fresh congestion after the reduction

    def test_out_of_order_fills_hole(self):
        sim = Simulator()
        conn, dst = make_receiver(sim)
        conn.on_receiver_receive(data_pkt(0))
        conn.on_receiver_receive(data_pkt(3000))
        assert dst.sent[-1].seq == 1500  # duplicate cumulative ack
        conn.on_receiver_receive(data_pkt(1500))
        assert dst.sent[-1].seq == 4500

    def test_acks_echo_the_send_time_of_the_segment_they_answer(self):
        sim = Simulator()
        conn, dst = make_receiver(sim)
        sim.run(9 * MS)
        conn.on_receiver_receive(Packet(0, 0, 64, NOT_ECT, syn_flags(True), 3 * MS, 1))
        for seq, sent_at in ((0, 4 * MS), (3000, 5 * MS), (1500, 6 * MS)):
            conn.on_receiver_receive(Packet(0, seq, 1500, ECT0, F_ACK, sent_at, 1))
        # The SYN-ACK, an in-order ACK, a duplicate for the segment beyond
        # the hole, and the ACK of the segment that fills it.
        assert [(a.flags, a.seq, a.sent_at) for a in dst.sent] == [
            (synack_flags(True), 0, 3 * MS), (F_ACK, 1500, 4 * MS),
            (F_ACK, 1500, 5 * MS), (F_ACK, 4500, 6 * MS)]

    def test_syn_answered_with_synack_ece_iff_capable(self):
        sim = Simulator()
        conn, dst = make_receiver(sim)
        conn.on_receiver_receive(Packet(0, 0, 64, NOT_ECT, syn_flags(True), 0, 1))
        reply = dst.sent[-1]
        assert reply.flags == synack_flags(True)


class TestEndToEndPair:
    """Two hosts wired back to back through real ports."""

    def build(self, bw=10 * 10**6, prop=5 * MS):
        sim = Simulator()
        b = Host(0)
        a = Host(1)
        b.egress = EgressPort(sim, bw, prop, TailDrop(AqmParams()), a)
        a.egress = EgressPort(sim, bw, prop, TailDrop(AqmParams()), b)
        conn = Connection(sim, 0, b, a)
        conn.start()
        return sim, conn

    def test_bulk_transfer_progresses_and_conserves_bytes(self):
        sim, conn = self.build()
        sim.run(3 * SECOND)
        assert conn.established and conn.ecn_negotiated
        assert conn.delivered_bytes > 100 * 1500
        assert conn.delivered_bytes <= conn.snd_nxt
        assert conn.rcv_nxt <= conn.snd_nxt

    def test_handshake_round_trip_is_the_first_rtt_sample(self):
        bw, prop = 10 * 10**6, 5 * MS
        sim, conn = self.build(bw, prop)
        samples = []
        conn.rtt_cb = samples.append
        # SYN and SYN-ACK are 64 B each way: one serialization plus one
        # propagation delay per direction.
        rtt = 2 * (transmit_delay(64, bw) + prop)
        sim.run(rtt - 1)
        assert not conn.established
        sim.run(rtt)
        assert conn.established
        assert conn.srtt_ns == rtt
        assert samples == [rtt]

    def test_srtt_close_to_path_rtt(self):
        sim, conn = self.build()
        sim.run(2 * SECOND)
        # 2 * 5 ms propagation plus serialization; the pipe is self-congested,
        # so allow generous queueing headroom above the base RTT.
        assert conn.srtt_ns >= 10 * MS


# The pinned configs that lose packets: the tail-drop goldens (seed 3, 10 s,
# fixed and random topology) and the unchained bottlenecks (seed 3, 5 s).
LOSSY = {
    "golden-taildrop-fixed": dict(disc="taildrop", duration_s=10),
    "golden-taildrop-random": dict(disc="taildrop", duration_s=10, random_topology=True),
    **{f"unchained-{disc}": dict(disc=disc, duration_s=5, bottleneck_prop_ns=5 * MS,
                                 hard_limit=60)
       for disc in ("taildrop", "codel", "fq_codel")},
}


def propagation_round_trip(topo, conn) -> int:
    """The sum of the propagation delays of the links a connection's data
    and ACKs cross, read from the links themselves."""
    src, dst = conn.src.node_id, conn.dst.node_id
    data = (conn.src.egress.prop_ns + topo.bottleneck_port.prop_ns
            + topo.r2.routes[dst].prop_ns)
    acks = conn.dst.egress.prop_ns + topo.r2.routes[src].prop_ns + topo.r1.routes[src].prop_ns
    return data + acks


@pytest.mark.parametrize("name", sorted(LOSSY))
def test_every_rtt_sample_exceeds_its_propagation_round_trip(name):
    """Whatever a segment's fate, the send time an ACK echoes is that of a
    transmission the ACK answers, so no sample can be shorter than the
    path's round trip; an echo of the wrong time (the receiver's clock, say)
    would give one-way samples."""
    ctx = SimContext(ScenarioConfig(**LOSSY[name]), 3)
    conns = ctx.conns + [ctx.monitor]
    floor = {conn.cid: propagation_round_trip(ctx.topo, conn) for conn in conns}
    samples = []
    for conn in conns:
        def record(sample, cid=conn.cid, keep=conn.rtt_cb):
            samples.append((cid, sample))
            if keep is not None:
                keep(sample)
        conn.rtt_cb = record
    ctx.run()
    assert sum(conn.retx_segments for conn in conns) > 0
    assert {cid for cid, _ in samples} == set(floor)
    assert [(cid, s) for cid, s in samples if s <= floor[cid]] == []
