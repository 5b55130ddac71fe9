import contextlib
import random
from dataclasses import replace
from unittest import mock

import pytest

from aqmsim.aqm import AqmParams, TailDrop
from aqmsim.engine import MS, SECOND, Simulator, transmit_delay
from aqmsim.harness import RAND_START_MAX_S, SimContext
from aqmsim.network import EgressPort, Host, Link, PingProbe, Router
from aqmsim.packets import ECT0, F_ACK, F_ECE, F_SYN, NOT_ECT, Packet
from aqmsim.scenario import ScenarioConfig
from aqmsim.transport import Connection


class Sink:
    """Records (arrival time, size) of every packet it receives."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, pkt) -> None:
        self.arrivals.append((self.sim.now, pkt.size_bytes))


def make_hop(kind, sim, bandwidth_bps, prop_ns, hard_limit=10, sink_type=Sink):
    """A tail-drop EgressPort or a Link, delivering to a new sink."""
    sink = sink_type(sim)
    if kind == "port":
        return EgressPort(sim, bandwidth_bps, prop_ns,
                          TailDrop(AqmParams(hard_limit=hard_limit)), sink)
    return Link(sim, bandwidth_bps, prop_ns, hard_limit, sink)


def packet(size, now):
    return Packet(0, 0, size, ECT0, F_ACK, now, 0)


# A chained port, a port with delay, a chained link and a link with delay,
# each at its own rate.
HOPS = (("port", 20 * 10**6, 0), ("port", 10 * 10**6, 3 * MS),
        ("link", 100 * 10**6, 0), ("link", 55 * 10**6, 2 * MS))


def test_hops_deliver_after_their_own_serialization_and_propagation():
    sim = Simulator()
    hops = [(make_hop(kind, sim, bw, prop), bw, prop) for kind, bw, prop in HOPS]
    # Every hop sees the same sizes in turn, so a hop that used another's
    # serialization times would deliver at the wrong time.
    for size in (64, 1500, 64):
        for hop, bw, prop in hops:
            start = sim.now
            hop.send(packet(size, start))
            sim.run(start + SECOND)
            assert hop.dst.arrivals[-1] == (start + transmit_delay(size, bw) + prop, size)
    # Two packets at once: the second waits for the first to leave the wire.
    for hop, bw, prop in hops:
        start = sim.now
        hop.send(packet(1500, start))
        hop.send(packet(64, start))
        sim.run(start + SECOND)
        first = start + transmit_delay(1500, bw)
        assert hop.dst.arrivals[-2:] == [
            (first + prop, 1500), (first + transmit_delay(64, bw) + prop, 64)]


@pytest.mark.parametrize("kind,prop", [("port", 0), ("port", MS), ("link", 0), ("link", MS)])
def test_serialization_rounds_half_up(kind, prop):
    # 1 byte at 3 bps: 8e9/3 ns = 2666666666.67 -> 2666666667
    sim = Simulator()
    hop = make_hop(kind, sim, 3, prop)
    hop.send(packet(1, 0))
    sim.run(10 * SECOND)
    assert hop.dst.arrivals == [(2_666_666_667 + prop, 1)]


@pytest.mark.parametrize("kind", ["port", "link"])
def test_zero_rate_is_refused_at_construction(kind):
    with pytest.raises(ValueError, match="bandwidth_bps"):
        make_hop(kind, Simulator(), 0, 0)


class RecordingSimulator(Simulator):
    """Logs every scheduled event as (time, callback name)."""

    def __init__(self):
        super().__init__()
        self.log = []

    def schedule(self, t, fn, *arg):
        self.log.append((t, fn.__name__))
        super().schedule(t, fn, *arg)


class SeqSink(Sink):
    """Records (arrival time, seq) of every packet it receives."""

    def receive(self, pkt) -> None:
        self.arrivals.append((self.sim.now, pkt.seq))


# At 8 Gb/s a packet's serialization takes as many ns as it has bytes. Every
# size and every gap between arrivals is a multiple of 64 ns, so arrivals
# often land on the very instant the wire frees.
WIRE_BPS = 8 * 10**9
SIZES = (64, 576, 1472)
TICK_NS = 64


def arrival_schedule(seed, n=400):
    """Seeded (time, size) arrivals: a third in bursts at one instant, the
    rest after gaps of up to about two of the largest packets."""
    rng = random.Random(seed)
    t = 0
    arrivals = []
    for _ in range(n):
        if rng.random() >= 1 / 3:
            t += TICK_NS * rng.randint(1, 50)
        arrivals.append((t, rng.choice(SIZES)))
    return arrivals


def replay(kind, arrivals, prop_ns):
    """Run `arrivals` through one hop with a hard limit of 3. Each arrival is
    scheduled by the one before it, so arrivals and the hop's own events at
    one instant run in either order."""
    sim = RecordingSimulator()
    hop = make_hop(kind, sim, WIRE_BPS, prop_ns, hard_limit=3, sink_type=SeqSink)

    def arrive(i):
        t, size = arrivals[i]
        hop.send(Packet(0, i, size, ECT0, F_ACK, t, 0))
        if i + 1 < len(arrivals):
            sim.schedule(arrivals[i + 1][0], arrive, i + 1)

    sim.schedule(arrivals[0][0], arrive, 0)
    sim.run(arrivals[-1][0] + SECOND)
    assert len(sim) == 0
    return hop, sim.log, hop.dst.arrivals


@pytest.mark.parametrize("prop_ns", [0, 3_000])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_link_and_taildrop_port_are_one_transmitter(seed, prop_ns):
    arrivals = arrival_schedule(seed)
    port, port_events, port_out = replay("port", arrivals, prop_ns)
    link, link_events, link_out = replay("link", arrivals, prop_ns)
    # The same events at the same times in the same order, so the same
    # deliveries and the same number of events dispatched.
    assert link_events == port_events
    assert link_out == port_out
    drops = port.q.stats.dropped_overflow
    assert link.overflow_drops == drops > 0
    assert link.arrivals == len(arrivals)
    assert link.forwarded == len(link_out) == len(arrivals) - drops
    assert link.peak == 3
    # An independent oracle: the wire is a work-conserving FIFO, so each
    # delivered packet starts when it arrives or when the one before it
    # leaves, whichever is later.
    free = 0
    frees = set()
    for delivered_at, i in link_out:
        t, size = arrivals[i]
        free = max(t, free) + size
        frees.add(free)
        assert delivered_at == free + prop_ns
    # The schedule reaches the case this test is for.
    assert any(t in frees for t, _ in arrivals)


@pytest.mark.parametrize("random_topology", [False, True])
def test_uplinks_deliver_to_the_port_their_router_routes_through(random_topology):
    cfg = replace(ScenarioConfig(), pairs=3, duration_s=2,
                  random_topology=random_topology)
    init, send = Link.__init__, Link.send
    built = []  # every Link made
    carried = []  # (uplink, packet) for every packet a host put on its uplink

    def counted_init(self, *args):
        init(self, *args)
        built.append(self)

    def counted_send(self, pkt):
        if self in uplinks:
            carried.append((self, pkt))
        send(self, pkt)

    with mock.patch.object(Link, "__init__", counted_init):
        ctx = SimContext(cfg, seed=5)
    topo = ctx.topo
    r1, r2 = topo.r1, topo.r2
    b_side = topo.hosts_b + [topo.mon_b]
    a_side = topo.hosts_a + [topo.mon_a]
    router_of = {id(h.egress): router for hosts, router in ((b_side, r1), (a_side, r2))
                 for h in hosts}
    uplinks = {h.egress for h in b_side + a_side}
    with mock.patch.object(Link, "send", counted_send):
        ctx.run()

    # Each uplink's destination is the port its router names for every host
    # across the dumbbell, which is every host it sends to.
    for hosts, peers, router in ((b_side, a_side, r1), (a_side, b_side, r2)):
        for host in hosts:
            assert {id(router.routes[peer.node_id]) for peer in peers} == {id(host.egress.dst)}
    assert len(carried) > 0
    b_ids = {h.node_id for h in b_side}
    for uplink, pkt in carried:
        router = router_of[id(uplink)]
        assert router.routes[pkt.dst_id] is uplink.dst
        # No B-side uplink carries a B-bound packet, so an uplink that
        # passes R1 by never hides an echo from R1's ECE tap.
        assert (pkt.dst_id in b_ids) == (router is r2)
    assert r1.ece_hook is not None and r2.ece_hook is None

    # Every Link made is still reachable from the hosts' uplinks and the two
    # routing tables, which the conservation checks enumerate.
    reachable = [h.egress for h in b_side + a_side]
    reachable += list(r1.routes.values()) + list(r2.routes.values())
    assert {id(p) for p in reachable} == {id(p) for p in built} | {id(topo.bottleneck_port)}
    assert len(built) == 4 * cfg.pairs + 5


@pytest.mark.parametrize("random_topology", [False, True])
@pytest.mark.parametrize("bottleneck_prop_ms", [0, 5])
def test_r1_receives_only_b_bound_packets_and_taps_every_echo(random_topology,
                                                             bottleneck_prop_ms):
    # R1's tap has no destination filter: the wiring alone keeps every packet
    # that reaches R1 bound for the B side, chained bottleneck or not.
    cfg = replace(ScenarioConfig(), pairs=4, duration_s=3, disc="codel",
                  random_topology=random_topology,
                  bottleneck_prop_ns=bottleneck_prop_ms * MS)
    receive = Router.receive
    received = []  # (router, packet) for every packet a router received

    def counted_receive(self, pkt):
        received.append((self, pkt))
        receive(self, pkt)

    with mock.patch.object(Router, "receive", counted_receive):
        ctx = SimContext(cfg, seed=3)
        ctx.run()
    topo = ctx.topo
    b_ids = {h.node_id for h in topo.hosts_b + [topo.mon_b]}
    at_r1 = [pkt for router, pkt in received if router is topo.r1]
    at_r2 = [pkt for router, pkt in received if router is topo.r2]
    assert at_r1 and at_r2
    assert all(pkt.dst_id in b_ids for pkt in at_r1)
    assert not any(pkt.dst_id in b_ids for pkt in at_r2)

    def echoes(pkts):
        return sum(1 for pkt in pkts if pkt.flags & F_ECE and not pkt.flags & F_SYN)
    # Every non-negotiation echo R1 receives lands in one 100 ms bin, and
    # the run marks enough for the count to mean something.
    assert echoes(at_r1) == sum(ctx.bins100) > 0
    assert echoes(at_r2) == 0


@pytest.mark.parametrize("random_topology", [False, True])
@pytest.mark.parametrize("bottleneck_prop_ms", [0, 5])
def test_a_one_flow_hosts_downlink_delivers_straight_to_its_flow(random_topology,
                                                                 bottleneck_prop_ms):
    # A downlink carries only packets addressed to its host, each of a flow
    # that ends there, so a bulk host's downlink hands every packet to its
    # one flow's handler; the monitor hosts, where three flows end, keep
    # Host.receive. The A side's downlinks are chained (exit_prop 0), the
    # B side's are not. The run outlasts the random topology's latest start.
    cfg = replace(ScenarioConfig(), pairs=3, duration_s=RAND_START_MAX_S + 1, disc="codel",
                  random_topology=random_topology,
                  bottleneck_prop_ns=bottleneck_prop_ms * MS)
    handled = []  # (flow end, its host, packet) for every packet a handler took
    host_rx = []  # every packet Host.receive dispatched
    receive = Host.receive

    def counted_receive(self, pkt):
        host_rx.append(pkt)
        receive(self, pkt)

    def recorded(handler, host_of):
        def record(self, pkt):
            handled.append((self, host_of(self), pkt))
            handler(self, pkt)
        return record

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(Host, "receive", counted_receive))
        for owner in (Connection, PingProbe):
            for name, host_of in (("on_sender_receive", lambda end: end.src),
                                  ("on_receiver_receive", lambda end: end.dst)):
                stack.enter_context(mock.patch.object(
                    owner, name, recorded(getattr(owner, name), host_of)))
        ctx = SimContext(cfg, seed=5)
        topo = ctx.topo
        for conn in ctx.conns:
            for host, handler, router in ((conn.src, conn.on_sender_receive, topo.r1),
                                          (conn.dst, conn.on_receiver_receive, topo.r2)):
                port = host.downlink
                assert router.routes[host.node_id] is port
                assert host.handlers == {conn.cid: handler}
                assert port._receive == handler
                assert port._deliver == (port._deliver_chain if port._chained else handler)
        monitors = (topo.mon_b, topo.mon_a)
        for host in monitors:
            assert len(host.handlers) == 3
            assert host.downlink._receive == host.receive
        ctx.run()

    chained = {conn.dst.downlink._chained for conn in ctx.conns}
    unchained = {conn.src.downlink._chained for conn in ctx.conns}
    assert chained == {True} and unchained == {False}
    # Every packet a flow's end took carries that flow's id and was
    # addressed to its host, and every bulk end took some.
    assert all(pkt.flow_id == end.cid and pkt.dst_id == host.node_id
               for end, host, pkt in handled)
    ends = {(id(end), host.node_id) for end, host, _ in handled}
    assert all((id(conn), host.node_id) in ends
               for conn in ctx.conns for host in (conn.src, conn.dst))
    # Host.receive dispatched exactly the monitor hosts' packets.
    monitor_ids = {host.node_id for host in monitors}
    assert host_rx == [pkt for _, host, pkt in handled if host.node_id in monitor_ids]
    assert host_rx


def test_a_router_routes_and_taps_only_non_negotiation_echoes():
    routed, tapped = [], []
    router = Router()
    router.routes[7] = mock.Mock(send=routed.append)
    pkts = [Packet(0, 0, 64, NOT_ECT, flags, 0, 7)
            for flags in (F_ACK | F_ECE, F_ACK, F_SYN | F_ACK | F_ECE)]
    # Without a hook, a router routes an echo and calls nothing.
    router.receive(pkts[0])
    router.ece_hook = lambda: tapped.append(len(routed))
    for pkt in pkts:
        router.receive(pkt)
    assert routed == [pkts[0]] + pkts
    assert tapped == [1]
