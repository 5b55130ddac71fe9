"""Hosts, routers, duplex links, and the dumbbell topology.

Each direction of a link is a `Hop`, whose wire tracks serialization
arithmetically (`busy_until`): a packet costs one delivery event per hop.
Every hop but the bottleneck is a `Link`, a tail-drop FIFO with nothing to
decide at dequeue, so `Link.send` fixes a packet's wire start on arrival
(Lindley's recursion) and schedules its delivery at once. The bottleneck is
an `EgressPort` in front of its discipline, which decides at dequeue, so
each transmission there starts in an event: on a chained port (no
propagation delay) the delivery that ends the one before, on any other a
wakeup armed while the queue is backlogged. Each hop hands its deliveries
to a handler bound once.

A host sends only across the dumbbell, and its router sends every such
packet through one egress port: the bottleneck for a B-side host, the
reverse bottleneck link for an A-side one. So each host's uplink delivers
straight to that port, and only R2, at the far end of the bottleneck,
receives packets as a `Router`. R1's one inbound port is the reverse
bottleneck link, which carries only B-bound packets, and each B-side
downlink is fed by R1 alone. So that link hands each packet through R1 as
it admits it, at the time it would arrive there: R1's ECE tap
(`Topology.ece_hook`) counts an echo by that time, and the B-side downlink
takes the packet as arriving then, with no event at R1. Both routers keep
their full tables.

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


class Hop:
    """One direction of a link: a wire whose serialization is tracked
    arithmetically (`busy_until`), a propagation delay, and the handler its
    deliveries go to."""

    __slots__ = ("sim", "prop_ns", "dst", "busy_until", "_tx_ns", "_receive")

    def __init__(self, sim, bandwidth_bps: int, prop_ns: int, dst):
        self.sim = sim
        self.prop_ns = prop_ns
        self.dst = dst
        self.busy_until = 0
        self._tx_ns = SerializationTimes(bandwidth_bps)
        self.bind(dst.receive)

    def bind(self, receive) -> None:
        """Hand each delivered packet to `receive`."""
        self._receive = receive

    @property
    def receive(self):
        """A hop as a destination sends on what arrives: a host's uplink
        delivers straight to its router's egress port."""
        return self.send


class EgressPort(Hop):
    """Unidirectional transmitter in front of a queue discipline, which
    decides at dequeue: each transmission starts in an event of its own."""

    __slots__ = ("q", "_kick_pending", "_chained", "_deliver")

    def __init__(self, sim, bandwidth_bps: int, prop_ns: int, discipline, dst):
        self.q = discipline
        self._kick_pending = False
        self._chained = prop_ns == 0
        super().__init__(sim, bandwidth_bps, prop_ns, dst)

    def bind(self, receive) -> None:
        """Hand each delivered packet to `receive`; a chained port starts
        its next transmission after the handing over."""
        self._receive = receive
        self._deliver = self._deliver_chain if self._chained else receive

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


class Link(Hop):
    """Unidirectional tail-drop FIFO: a pure delay line. A packet's wire
    start is fixed on arrival, at the later of its arrival and `busy_until`
    (Lindley's recursion), so `send` schedules its delivery at once and
    keeps only the start times of the packets still waiting, in `_waiting`
    (a start at or before an arrival leaves it at the next arrival on a busy
    wire). `_at` is called with each delivery: the engine's `schedule`, or
    for a link whose destination can take each packet ahead of the clock, a
    hand-over at the delivery time that `Topology` sets in its place.

    Counters: `arrivals` (every packet handed to `send`), `forwarded`
    (packets admitted), `overflow_drops` (arrivals refused with `hard_limit`
    packets waiting) and `peak` (most packets ever waiting at once, not
    counting the one on the wire).
    """

    __slots__ = ("hard_limit", "arrivals", "forwarded", "overflow_drops", "peak",
                 "_waiting", "_at")

    def __init__(self, sim, bandwidth_bps: int, prop_ns: int, hard_limit: int, dst):
        if hard_limit < 1:
            raise ValueError("hard_limit must be >= 1")
        super().__init__(sim, bandwidth_bps, prop_ns, dst)
        self.hard_limit = hard_limit
        self.arrivals = 0
        self.forwarded = 0
        self.overflow_drops = 0
        self.peak = 0
        self._waiting = deque()
        self._at = sim.schedule

    def send(self, pkt, now=None) -> None:
        """Take `pkt`, arriving at `now`: the clock's time, unless a
        hand-over gives the arrival ahead of the clock."""
        self.arrivals += 1
        if now is None:
            now = self.sim.now
        start = self.busy_until
        if start > now:
            # The wire is busy: the packet waits until `start`.
            waiting = self._waiting
            while waiting and waiting[0] <= now:
                waiting.popleft()
            if len(waiting) >= self.hard_limit:
                self.overflow_drops += 1
                return
            waiting.append(start)
            if len(waiting) > self.peak:
                self.peak = len(waiting)
        else:
            start = now
        self.forwarded += 1
        done = self.busy_until = start + self._tx_ns[pkt.size_bytes]
        self._at(done + self.prop_ns, self._receive, pkt)


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
    """Static routing by destination node id. Only R2 receives packets here:
    the reverse bottleneck link hands each of its packets through R1's
    table itself, and R1's ECE tap with it (`Topology`)."""

    __slots__ = ("routes",)

    def __init__(self):
        self.routes = {}

    def receive(self, pkt) -> None:
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
        # R1's ECE tap, set before a run: called with the time at which each
        # non-negotiation echo reaches R1.
        self.ece_hook = None

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
        r1_routes = self.r1.routes

        def through_r1(t, _receive, pkt):
            """R1 at `t`, when `pkt` reaches it: tap an echo, and hand the
            packet to the B-side downlink that R1's table names, arriving
            then. Nothing else feeds that downlink, and the reverse link's
            delivery times increase, so its arrivals come in time order.
            Its delivery is scheduled earlier than an event at R1 would
            have, so a tie with another event at that nanosecond may run in
            another order (ROADMAP item 11); that the bytes stay the same is
            checked by the pins and by `tests/test_config_space.py`, not
            proved."""
            if pkt.flags & F_ECE and not pkt.flags & F_SYN:
                self.ece_hook(t)
            r1_routes[pkt.dst_id].send(pkt, t)

        # The link's `dst` and `_receive` (R1 and `Router.receive`) are
        # never used: each delivery goes through R1 here instead.
        rev._at = through_r1

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
