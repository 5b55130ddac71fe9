import pytest

from aqmsim.aqm import AqmParams, TailDrop
from aqmsim.engine import MS, SECOND, Simulator, transmit_delay
from aqmsim.network import EgressPort, Link
from aqmsim.packets import ECT0, F_ACK, Packet


class Sink:
    """Records (arrival time, size) of every packet it receives."""

    def __init__(self, sim):
        self.sim = sim
        self.arrivals = []

    def receive(self, pkt) -> None:
        self.arrivals.append((self.sim.now, pkt.size_bytes))


def make_hop(kind, sim, bandwidth_bps, prop_ns):
    sink = Sink(sim)
    if kind == "port":
        return EgressPort(sim, bandwidth_bps, prop_ns, TailDrop(AqmParams()), sink)
    return Link(sim, bandwidth_bps, prop_ns, 10, sink)


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
