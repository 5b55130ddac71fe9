"""Hosts, routers, duplex links, and the dumbbell topology.

An EgressPort owns one direction of a link: a transmitter in front of a
queue. The transmitter tracks serialization arithmetically (busy_until), so
a packet costs one delivery event per hop, at the end of its serialization
plus the propagation delay. On a chained port (no propagation delay) that
delivery puts the next packet on the wire; on any other, a wakeup event
does, armed only while the queue is backlogged. The queue is the
bottleneck's discipline, or, for a Link, a plain drop-tail FIFO with a hard
packet limit; every hop except the bottleneck is a Link. A Link overrides
only the methods that touch its queue (`send`, `_pump`, `_deliver_chain`)
and inherits the wire step and the wakeup, so a hop schedules the same
events at the same times in the same order whichever queue it has. Each
port looks up a packet's serialization time in its own `SerializationTimes`
and hands deliveries to a callback bound once.

A host sends only across the dumbbell, and its router sends every such
packet through one egress port: the bottleneck for a B-side host, the
reverse bottleneck link for an A-side one. So each host's uplink delivers
straight to that port, and a router runs only where it chooses a port (at
the far end of either bottleneck direction) or feeds R1's ECE tap. Both
routers keep their full tables. R1's tap counts every echo its one inbound
port, the reverse bottleneck link, delivers, with no destination filter:
that port carries only B-bound packets, and no B-side uplink carries one.

A host's downlink carries only packets addressed to that host, each of a
flow that ends there. So on a host where one flow ends, every bulk host, the
downlink delivers straight to that flow's handler; a monitor host, where
three flows end, dispatches in `Host.receive`. `Host.register` binds the
downlink either way.
"""
from __future__ import annotations

from collections import deque

from .aqm import AqmParams, make_discipline
from .engine import MS, transmit_delay
from .packets import ECT0, F_ACK, F_ECE, F_SYN, Packet
from .rng import stream


class SerializationTimes(dict):
    """Serialization time in ns by packet size at one link rate; each size
    is computed once, on its first lookup, by `transmit_delay`."""

    __slots__ = ("bandwidth_bps",)

    def __init__(self, bandwidth_bps: int):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        super().__init__()
        self.bandwidth_bps = bandwidth_bps

    def __missing__(self, size_bytes: int) -> int:
        ns = self[size_bytes] = transmit_delay(size_bytes, self.bandwidth_bps)
        return ns


class EgressPort:
    """Unidirectional transmitter in front of a queue discipline."""

    __slots__ = ("sim", "prop_ns", "q", "dst", "busy_until",
                 "_kick_pending", "_chained", "_tx_ns", "_receive", "_deliver")

    def __init__(self, sim, bandwidth_bps: int, prop_ns: int, discipline, dst):
        self.sim = sim
        self.prop_ns = prop_ns
        self.q = discipline
        self.dst = dst
        self.busy_until = 0
        self._kick_pending = False
        self._chained = prop_ns == 0
        self._tx_ns = SerializationTimes(bandwidth_bps)
        self.bind(dst.receive)

    def bind(self, receive) -> None:
        """Hand each delivered packet to `receive`; a chained port starts
        its next transmission after the handing over."""
        self._receive = receive
        self._deliver = self._deliver_chain if self._chained else receive

    @property
    def receive(self):
        """A port as a hop's destination sends on what arrives: a host's
        uplink delivers straight to its router's egress port."""
        return self.send

    def send(self, pkt) -> None:
        self.q.enqueue(pkt, self.sim.now)
        if self.busy_until <= self.sim.now:
            self._pump()
        elif not self._chained and not self._kick_pending:
            self._kick_pending = True
            self.sim.schedule(self.busy_until, self._kick)

    def _pump(self) -> None:
        pkt = self.q.dequeue(self.sim.now)
        if pkt is not None:
            self._transmit(pkt)

    def _transmit(self, pkt) -> None:
        """Put `pkt` on the idle wire and schedule its delivery; an unchained
        port that still holds packets arms its wakeup for the instant the
        wire frees."""
        sim = self.sim
        done = sim.now + self._tx_ns[pkt.size_bytes]
        self.busy_until = done
        sim.schedule(done + self.prop_ns, self._deliver, pkt)
        if not self._chained and len(self.q) and not self._kick_pending:
            self._kick_pending = True
            sim.schedule(done, self._kick)

    def _kick(self) -> None:
        self._kick_pending = False
        if self.sim.now >= self.busy_until:
            self._pump()
        elif len(self.q):
            self._kick_pending = True
            self.sim.schedule(self.busy_until, self._kick)

    def _deliver_chain(self, pkt) -> None:
        self._receive(pkt)
        if self.sim.now >= self.busy_until:
            self._pump()


class Link(EgressPort):
    """Unidirectional transmitter in front of a tail-drop FIFO, the deque `q`.

    Counters: `arrivals` (every packet handed to `send`), `forwarded`
    (packets that started transmission), `overflow_drops` (arrivals refused
    at the hard limit) and `peak` (most packets ever waiting at once, not
    counting the one on the wire). A packet that finds the link idle and the
    FIFO empty goes straight onto the wire without touching the FIFO.
    """

    __slots__ = ("hard_limit", "arrivals", "forwarded", "overflow_drops", "peak")

    def __init__(self, sim, bandwidth_bps: int, prop_ns: int, hard_limit: int, dst):
        if hard_limit < 1:
            raise ValueError("hard_limit must be >= 1")
        super().__init__(sim, bandwidth_bps, prop_ns, deque(), dst)
        self.hard_limit = hard_limit
        self.arrivals = 0
        self.forwarded = 0
        self.overflow_drops = 0
        self.peak = 0

    def send(self, pkt) -> None:
        self.arrivals += 1
        sim = self.sim
        if self.busy_until <= sim.now:
            if not self.q:
                # The common case, `_transmit` inline: with the FIFO empty
                # there is no wakeup to arm.
                self.forwarded += 1
                done = sim.now + self._tx_ns[pkt.size_bytes]
                self.busy_until = done
                sim.schedule(done + self.prop_ns, self._deliver, pkt)
                return
            # The wire fell idle at this very instant and its wakeup has not
            # run yet: join the FIFO and send its head.
            self._admit(pkt)
            self._pump()
        else:
            self._admit(pkt)
            if not self._chained and not self._kick_pending:
                self._kick_pending = True
                sim.schedule(self.busy_until, self._kick)

    def _admit(self, pkt) -> None:
        q = self.q
        if len(q) >= self.hard_limit:
            self.overflow_drops += 1
            return
        q.append(pkt)
        if len(q) > self.peak:
            self.peak = len(q)

    def _pump(self) -> None:
        if self.q:
            self.forwarded += 1
            self._transmit(self.q.popleft())

    def _deliver_chain(self, pkt) -> None:
        self._receive(pkt)
        if self.q and self.sim.now >= self.busy_until:
            self._pump()


class Host:
    """End host with a single uplink and a single downlink; hands each
    packet to the handler of its flow's end on this host."""

    __slots__ = ("node_id", "egress", "downlink", "handlers")

    def __init__(self, node_id: int):
        self.node_id = node_id
        self.egress = None
        self.downlink = None
        self.handlers = {}

    def register(self, cid: int, handler) -> None:
        """Hand flow `cid`'s packets to `handler`: straight from the
        downlink while it is the one flow that ends here, else through
        `receive`."""
        self.handlers[cid] = handler
        if self.downlink is not None:
            self.downlink.bind(handler if len(self.handlers) == 1 else self.receive)

    def receive(self, pkt) -> None:
        self.handlers[pkt.flow_id](pkt)


class Router:
    """Static routing by destination node id, with an optional tap,
    `ece_hook`, called for every ECE-flagged, non-negotiation packet."""

    __slots__ = ("routes", "ece_hook")

    def __init__(self):
        self.routes = {}
        self.ece_hook = None

    def receive(self, pkt) -> None:
        # The flag first: most packets carry no ECE, and only R1 has a hook.
        if pkt.flags & F_ECE and not pkt.flags & F_SYN and self.ece_hook is not None:
            self.ece_hook()
        self.routes[pkt.dst_id].send(pkt)


class PingProbe:
    """Request/response probe between the monitor hosts.

    With the default 64 B request this measures the path round trip; with a
    data-sized request it times single-segment probe transfers. The
    responder echoes each request immediately with a 64 B reply. Round-trip
    samples land in `samples` (ns). Probes travel as ECT so a control-law
    action marks them instead of eating them; a CE mark does not affect the
    timing. Lost probes (overflow) simply never produce a sample.
    """

    REPLY_SIZE = 64
    INTERVAL_NS = 100 * MS  # ten request/response pairs per 1 s epoch

    def __init__(self, sim, cid: int, src, dst, start_ns: int = 0,
                 request_size: int = 64):
        self.sim = sim
        self.cid = cid
        self.src = src
        self.dst = dst
        self.start_ns = start_ns
        self.request_size = request_size
        self.samples = []
        self._seq = 0
        src.register(cid, self.on_sender_receive)
        dst.register(cid, self.on_receiver_receive)

    def start(self) -> None:
        self.sim.schedule(self.start_ns, self._send_request)

    def _send_request(self) -> None:
        now = self.sim.now
        pkt = Packet(self.cid, self._seq, self.request_size, ECT0, F_ACK,
                     now, self.dst.node_id)
        self._seq += 1
        self.src.egress.send(pkt)
        self.sim.schedule(now + self.INTERVAL_NS, self._send_request)

    def on_receiver_receive(self, pkt) -> None:
        reply = Packet(self.cid, pkt.seq, self.REPLY_SIZE, ECT0, F_ACK,
                       pkt.sent_at, self.src.node_id)
        self.dst.egress.send(reply)

    def on_sender_receive(self, pkt) -> None:
        self.samples.append(self.sim.now - pkt.sent_at)


# The random topology's access links: bandwidth and one-way propagation,
# each drawn uniformly from these inclusive integer ranges per sender.
RAND_ACCESS_BW_MBPS = (50, 200)
RAND_PROP_MS = (1, 20)


class Topology:
    """Dumbbell: sender hosts behind edge router R1, one bottleneck link to
    R2, receiver hosts behind R2, and one monitor pair."""

    def __init__(self, sim, cfg, seed: int):
        self.cfg = cfg
        n = cfg.pairs
        ids = iter(range(2 * n + 2))
        self.hosts_b = [Host(next(ids)) for _ in range(n)]
        self.hosts_a = [Host(next(ids)) for _ in range(n)]
        self.mon_b = Host(next(ids))
        self.mon_a = Host(next(ids))
        self.r1 = Router()
        self.r2 = Router()

        configured = (cfg.access_bw_bps, cfg.access_prop_ns)
        if cfg.random_topology:
            rng = stream(seed, "topology")
            (bw_lo, bw_hi), (prop_lo, prop_hi) = RAND_ACCESS_BW_MBPS, RAND_PROP_MS
            access = [(int(rng.integers(bw_lo, bw_hi + 1)) * 10**6,
                       int(rng.integers(prop_lo, prop_hi + 1)) * MS) for _ in range(n)]
        else:
            access = [configured] * n

        hash_seed = int(stream(seed, "fq-hash").integers(0, 2**63))
        self.aqm_params = AqmParams(cfg.target_ns, cfg.interval_ns,
                                    cfg.hard_limit, cfg.ecn)
        self.bottleneck = make_discipline(cfg.disc, self.aqm_params, hash_seed)

        b_hosts = self.hosts_b + [self.mon_b]
        a_hosts = self.hosts_a + [self.mon_a]

        def link(bw, prop, dst):
            return Link(sim, bw, prop, cfg.hard_limit, dst)

        # The single bottleneck R1 -> R2 carries every A-bound packet, and
        # its reverse direction R2 -> R1 every B-bound one.
        bport = EgressPort(sim, cfg.bottleneck_bw_bps, cfg.bottleneck_prop_ns,
                           self.bottleneck, self.r2)
        self.bottleneck_port = bport
        rev = link(cfg.bottleneck_bw_bps, cfg.bottleneck_prop_ns, self.r1)

        def attach(host, router, across, bw, prop):
            """The host's uplink, delivering straight to the port `across`
            that its router routes every packet of the host through, and
            its downlink, the router's port back to the host."""
            host.egress = link(bw, prop, across)
            router.routes[host.node_id] = host.downlink = link(bw, prop, host)

        # B side: the monitor keeps the configured access link.
        for host, (bw, prop) in zip(b_hosts, access + [configured]):
            attach(host, self.r1, bport, bw, prop)
            self.r2.routes[host.node_id] = rev
        for host in a_hosts:
            attach(host, self.r2, rev, cfg.exit_bw_bps, cfg.exit_prop_ns)
            self.r1.routes[host.node_id] = bport

    def base_rtt_ns(self) -> int:
        """Idle round trip on the monitor path (propagation only)."""
        cfg = self.cfg
        return 2 * (cfg.access_prop_ns + cfg.bottleneck_prop_ns + cfg.exit_prop_ns)
