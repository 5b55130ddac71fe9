"""ECN-capable TCP abstraction with CUBIC-style congestion control.

The feedback chain under study is primary here: a CE-marked data packet makes
the receiver echo ECE on every ACK until it sees a CWR-flagged data packet;
the sender reduces its window at most once per round trip no matter how many
ECE or loss signals arrive inside that window. Each ACK and SYN-ACK echoes the
send time of the segment it answers, and the sender times every advancing ACK
from that echo (RFC 7323 §4), so it keeps no table of send times. Delayed
ACKs, SACK and Nagle are deliberately absent.
"""
from __future__ import annotations

from .engine import MS, SECOND
from .packets import (CE, ECT0, NOT_ECT, F_ACK, F_CWR, F_ECE, F_SYN, Packet)

MSS = 1500
ACK_SIZE = 64
MIN_RTO = 200 * MS
INITIAL_RTO = SECOND
INITIAL_CWND = 10.0


# CUBIC's growth constant and multiplicative decrease factor (RFC 9438).
CUBIC_C = 0.4
CUBIC_BETA = 0.7
# Reno-equivalent additive increase (packets per RTT) used for the
# TCP-friendly region.
AIMD_RATE = 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)


def cubic_k(w_max: float) -> float:
    """Seconds from a reduction until the window is back at w_max."""
    return (w_max * (1.0 - CUBIC_BETA) / CUBIC_C) ** (1.0 / 3.0)


def cubic_window(t_since_epoch: float, w_max: float) -> float:
    """Window size C*(t-K)^3 + w_max in packets, floored at one packet."""
    if t_since_epoch < 0:
        raise ValueError("t_since_epoch must be >= 0")
    if w_max < 1:
        raise ValueError("w_max must be >= 1")
    w = CUBIC_C * (t_since_epoch - cubic_k(w_max)) ** 3 + w_max
    return w if w > 1.0 else 1.0


def negotiate_ecn(initiator_capable: bool, responder_capable: bool) -> bool:
    """Outcome of the SYN / SYN-ACK ECN handshake."""
    return initiator_capable and responder_capable


def syn_flags(initiator_capable: bool) -> int:
    return F_SYN | F_ECE | F_CWR if initiator_capable else F_SYN


def synack_flags(responder_capable: bool) -> int:
    return F_SYN | F_ACK | F_ECE if responder_capable else F_SYN | F_ACK


class Connection:
    """One unidirectional bulk transfer: sender on src host, receiver on dst.

    The object owns both endpoint state machines; the network between them is
    real (packets are routed and queued), so all ECN signaling travels
    in-band.
    """

    mss = MSS  # every connection sends MSS segments and ACK_SIZE acks

    __slots__ = (
        "sim", "cid", "src", "dst", "ecn_capable", "start_ns",
        # sender
        "cwnd", "ssthresh", "w_max", "k_s", "w_est", "epoch_start_ns", "in_cwr_until",
        "cwr_pending", "ecn_negotiated", "established", "snd_nxt", "snd_una",
        "dup_acks", "recover_seq", "srtt_ns",
        "rto_deadline", "rto_pending", "rto_backoff",
        "retx_segments", "reduction_log",
        # receiver
        "rcv_nxt", "ooo", "ece_pending", "delivered_bytes",
        # hooks
        "rtt_cb",
    )

    def __init__(self, sim, cid: int, src, dst, *, ecn_capable: bool = True,
                 start_ns: int = 0):
        self.sim = sim
        self.cid = cid
        self.src = src
        self.dst = dst
        self.ecn_capable = ecn_capable
        self.start_ns = start_ns

        self.cwnd = INITIAL_CWND
        self.ssthresh = float("inf")
        self.w_max = INITIAL_CWND
        self.k_s = cubic_k(INITIAL_CWND)  # cubic_k(w_max), kept with w_max
        self.w_est = INITIAL_CWND
        self.epoch_start_ns = 0
        self.in_cwr_until = -1
        self.cwr_pending = False
        self.ecn_negotiated = False
        self.established = False
        self.snd_nxt = 0
        self.snd_una = 0
        self.dup_acks = 0
        self.recover_seq = 0
        self.srtt_ns = 0
        self.rto_deadline = 0
        self.rto_pending = False
        self.rto_backoff = 1
        self.retx_segments = 0
        self.reduction_log = []

        self.rcv_nxt = 0
        self.ooo = set()
        self.ece_pending = False
        self.delivered_bytes = 0

        self.rtt_cb = None

        src.register(cid, self.on_sender_receive)
        dst.register(cid, self.on_receiver_receive)

    # -- setup ------------------------------------------------------------

    def start(self) -> None:
        self.sim.schedule(self.start_ns, self._send_syn)

    def _send_syn(self) -> None:
        now = self.sim.now
        pkt = Packet(self.cid, 0, ACK_SIZE, NOT_ECT,
                     syn_flags(self.ecn_capable), now, self.dst.node_id)
        self.src.egress.send(pkt)
        # srtt_ns is 0 before the handshake, so this is INITIAL_RTO, backed off.
        self.rto_deadline = now + self._rto()
        self._schedule_rto()

    # -- sender side ------------------------------------------------------

    def on_sender_receive(self, pkt) -> None:
        now = self.sim.now
        if pkt.flags & F_SYN:  # SYN-ACK completes the handshake
            if self.established:
                return
            self.established = True
            self.ecn_negotiated = negotiate_ecn(self.ecn_capable,
                                                bool(pkt.flags & F_ECE))
            # The first RTT sample, from the SYN it echoes: no data is acked
            # yet, so srtt_ns is 0.
            self.srtt_ns = now - pkt.sent_at
            if self.rtt_cb is not None:
                self.rtt_cb(self.srtt_ns)
            self.rto_backoff = 1
            self._try_send()
            return
        ack = pkt.seq
        if ack > self.snd_una:
            # Every advancing ACK is timed from the send time it echoes, that
            # of a retransmission included (RFC 7323 §4); Karn's rule is for
            # timing without an echo (RFC 6298 §3).
            sample = now - pkt.sent_at
            self.srtt_ns = (7 * self.srtt_ns + sample) // 8 if self.srtt_ns else sample
            if self.rtt_cb is not None:
                self.rtt_cb(sample)
            newly_acked = (ack - self.snd_una) // MSS
            self.snd_una = ack
            self.dup_acks = 0
            if pkt.flags & F_ECE:
                self._congestion_signal("ece")
            # Window growth, one step per newly acked segment.
            for _ in range(newly_acked):
                if self.cwnd < self.ssthresh:
                    self.cwnd += 1.0
                    self.w_est = self.cwnd
                else:
                    t = (now - self.epoch_start_ns + self.srtt_ns) / SECOND
                    # cubic_window(t, w_max) from the cached K. Its one-packet
                    # floor cannot change the comparison: cwnd is never below 1.
                    target = CUBIC_C * (t - self.k_s) ** 3 + self.w_max
                    if target > self.cwnd:
                        self.cwnd += (target - self.cwnd) / self.cwnd
                    else:
                        self.cwnd += 0.01 / self.cwnd
                    # TCP-friendly region: never grow slower than a Reno-rate
                    # window started from the same reduction.
                    self.w_est += AIMD_RATE / self.cwnd
                    if self.w_est > self.cwnd:
                        self.cwnd = self.w_est
            if ack < self.recover_seq:
                # Partial ack exposes the next hole; fill it without a new cut.
                self._retransmit(ack)
            self.rto_backoff = 1
            base = 2 * self.srtt_ns if self.srtt_ns else INITIAL_RTO  # _rto, inline
            self.rto_deadline = now + (base if base > MIN_RTO else MIN_RTO)
            self._try_send()
        elif ack == self.snd_una and self.snd_nxt > self.snd_una:
            self.dup_acks += 1
            if pkt.flags & F_ECE:
                self._congestion_signal("ece")
            if self.dup_acks == 3 and self.snd_una >= self.recover_seq:
                self._congestion_signal("loss")
            self._try_send()

    def _rto(self) -> int:
        # The advancing-ACK branch of `on_sender_receive` has a copy of this
        # inline at backoff 1.
        base = 2 * self.srtt_ns if self.srtt_ns else INITIAL_RTO
        if base < MIN_RTO:
            base = MIN_RTO
        return base * self.rto_backoff

    def _cut(self, now: int, cwnd: float, ssthresh: float) -> None:
        """Start a CUBIC epoch at `now` whose w_max is the current window (at
        least one packet); no further cut comes within one smoothed RTT."""
        self.w_max = max(self.cwnd, 1.0)
        self.k_s = cubic_k(self.w_max)
        self.cwnd = self.w_est = cwnd
        self.ssthresh = ssthresh
        self.epoch_start_ns = now
        self.in_cwr_until = now + (self.srtt_ns if self.srtt_ns else INITIAL_RTO)

    def _congestion_signal(self, kind: str) -> None:
        now = self.sim.now
        if now >= self.in_cwr_until:
            cwnd = max(CUBIC_BETA * self.cwnd, 1.0)
            self._cut(now, cwnd, cwnd)
            self.reduction_log.append((now, self.srtt_ns))
            if kind == "ece":
                self.cwr_pending = True
        if kind == "loss":
            self.recover_seq = self.snd_nxt
            self._retransmit(self.snd_una)

    def _retransmit(self, seq: int) -> None:
        now = self.sim.now
        self.retx_segments += 1
        pkt = Packet(self.cid, seq, MSS,
                     ECT0 if self.ecn_negotiated else NOT_ECT,
                     F_ACK, now, self.dst.node_id)
        self.src.egress.send(pkt)
        self.rto_deadline = now + self._rto()
        self._schedule_rto()

    def _try_send(self) -> None:
        now = self.sim.now
        snd_una = self.snd_una
        snd_nxt = self.snd_nxt
        limit = snd_una + int(self.cwnd) * MSS
        send = self.src.egress.send
        ecn = ECT0 if self.ecn_negotiated else NOT_ECT
        # Sending schedules events and returns; it never re-enters this
        # connection, so snd_nxt can live in a local until the loop ends.
        while snd_nxt < limit:
            flags = F_ACK
            if self.cwr_pending:
                flags |= F_CWR
                self.cwr_pending = False
            pkt = Packet(self.cid, snd_nxt, MSS, ecn, flags, now, self.dst.node_id)
            snd_nxt += MSS
            send(pkt)
        self.snd_nxt = snd_nxt
        if snd_nxt > snd_una:
            if self.rto_deadline <= now:
                self.rto_deadline = now + self._rto()
            if not self.rto_pending:  # the guard inline: every ACK passes it
                self._schedule_rto()

    # -- retransmission timer ----------------------------------------------

    def _schedule_rto(self) -> None:
        if not self.rto_pending:
            self.rto_pending = True
            self.sim.schedule(self.rto_deadline, self._on_rto)

    def _on_rto(self) -> None:
        self.rto_pending = False
        now = self.sim.now
        if self.established and self.snd_nxt == self.snd_una:
            return
        if now < self.rto_deadline:
            self._schedule_rto()
            return
        if not self.established:
            self.rto_backoff = min(self.rto_backoff * 2, 8)
            self._send_syn()
            return
        # Timeout: collapse to one segment and restart from the first hole.
        self._cut(now, 1.0, max(CUBIC_BETA * self.cwnd, 2.0))
        self.dup_acks = 0
        self.recover_seq = self.snd_nxt
        self.rto_backoff = min(self.rto_backoff * 2, 8)
        self._retransmit(self.snd_una)

    # -- receiver side -----------------------------------------------------

    def on_receiver_receive(self, pkt) -> None:
        if pkt.flags & F_SYN:
            reply = Packet(self.cid, 0, ACK_SIZE, NOT_ECT,
                           synack_flags(self.ecn_capable), pkt.sent_at, self.src.node_id)
            self.dst.egress.send(reply)
            return
        if pkt.flags & F_CWR:
            self.ece_pending = False
        if pkt.ecn == CE:
            self.ece_pending = True
        seq = pkt.seq
        if seq == self.rcv_nxt:
            self.rcv_nxt += MSS
            while self.rcv_nxt in self.ooo:
                self.ooo.remove(self.rcv_nxt)
                self.rcv_nxt += MSS
            self.delivered_bytes = self.rcv_nxt
        elif seq > self.rcv_nxt:
            self.ooo.add(seq)
        flags = F_ACK | F_ECE if self.ece_pending else F_ACK
        ack = Packet(self.cid, self.rcv_nxt, ACK_SIZE, NOT_ECT,
                     flags, pkt.sent_at, self.src.node_id)
        self.dst.egress.send(ack)
