"""Shared test utilities: rank correlation, tiny oracles, a memory probe, the
name of the BLAS kernel behind numpy's matmul, a trace writer, a setter
of a forecaster's flat parameter vector, a recorder of what a
connection's receiver sees and sends, and the plain links of a topology
with a balance of each one's packets counted outside its counters."""

import ctypes
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np

from aqmsim.packets import F_ECE, F_SYN


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks on ties."""

    def rank(v):
        order = sorted(range(len(v)), key=lambda i: v[i])
        r = [0.0] * len(v)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and v[order[j + 1]] == v[order[i]]:
                j += 1
            avg = (i + j) / 2 + 1
            for k in range(i, j + 1):
                r[order[k]] = avg
            i = j + 1
        return r

    rx, ry = rank(list(xs)), rank(list(ys))
    n = len(rx)
    mx, my = sum(rx) / n, sum(ry) / n
    num = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    den = math.sqrt(sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry))
    return num / den


def value_iteration(transitions, rewards, gamma, tol=1e-12, max_iter=100000):
    """Exact action values for a small deterministic MDP.

    transitions[s][a] -> next state, rewards[s][a] -> reward.
    """
    n_s = len(transitions)
    n_a = len(transitions[0])
    q = [[0.0] * n_a for _ in range(n_s)]
    for _ in range(max_iter):
        delta = 0.0
        for s in range(n_s):
            for a in range(n_a):
                nxt = transitions[s][a]
                new = rewards[s][a] + gamma * max(q[nxt])
                delta = max(delta, abs(new - q[s][a]))
                q[s][a] = new
        if delta < tol:
            break
    return q


def traced_peak(fn, *args, **kwargs):
    """Call fn(*args, **kwargs); return its result and the tracemalloc peak,
    in bytes, of the allocations made during the call."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def blas_core() -> str:
    """The OpenBLAS core that numpy's bundled scipy-openblas runs (for
    example "SkylakeX" or "Haswell"), or "unknown" when numpy does not link
    that library. Products, and so the forecaster pins, can differ between
    cores."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        corename = lib.scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def stationary_off_probability(p_on_enter: float, p_on_stay: float) -> float:
    """Long-run share of OFF intervals in synth_trace's two-state chain."""
    leave = 1.0 - p_on_stay
    if p_on_enter + leave == 0:
        return 1.0
    return leave / (p_on_enter + leave)


def write_trace(series, path) -> None:
    """Write an EceSeries as the `interval_index,ece_count` CSV that
    ingest_trace reads."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, c in enumerate(series.counts):
            fh.write(f"{i},{int(c)}\n")


def set_flat(model, flat) -> None:
    """Overwrite every forecaster parameter from one vector laid out as
    model.get_flat()."""
    model._flat[...] = flat


def record_receiver(conn) -> list:
    """The list that a run fills with what `conn`'s receiver sees and sends,
    SYNs skipped: ("data", ecn, flags) for each segment that arrives, then
    ("ack", ECE set, flags) for the ACK it answers with. Call before the
    run; it wraps the receiver's handler and its host's uplink."""
    log = []
    host = conn.dst
    handle, uplink = host.handlers[conn.cid], host.egress

    def on_segment(pkt):
        if not pkt.flags & F_SYN:
            log.append(("data", pkt.ecn, pkt.flags))
        handle(pkt)

    def send(pkt):
        if pkt.flow_id == conn.cid and not pkt.flags & F_SYN:
            log.append(("ack", bool(pkt.flags & F_ECE), pkt.flags))
        uplink.send(pkt)

    host.register(conn.cid, on_segment)
    host.egress = SimpleNamespace(send=send)
    return log


def plain_links(topo) -> list:
    """Every port of the topology except the bottleneck, each once."""
    hosts = topo.hosts_a + topo.hosts_b + [topo.mon_a, topo.mon_b]
    ports = [h.egress for h in hosts]
    ports += list(topo.r1.routes.values()) + list(topo.r2.routes.values())
    return list({id(p): p for p in ports if p is not topo.bottleneck_port}.values())


def reverse_link(topo):
    """The reverse bottleneck link, R2 -> R1, which hands each packet it
    admits through R1 to a B-side downlink instead of delivering it."""
    return topo.r2.routes[topo.mon_b.node_id]


def count_deliveries(topo, links) -> dict:
    """Bind each link's deliveries but the reverse bottleneck's through a
    counter of its own, keyed by the link's id: the packets it hands its
    destination. Call after the flows have registered with their hosts and
    before the run."""
    delivered = {}
    rev = reverse_link(topo)
    for link in links:
        if link is rev:
            continue
        delivered[id(link)] = 0

        def counted(pkt, key=id(link), handler=link._receive):
            delivered[key] += 1
            handler(pkt)

        link.bind(counted)
    return delivered


def check_links_balance(topo, links, delivered: dict, sim) -> None:
    """Every packet a link took was refused at the hard limit or admitted;
    an admitted one was delivered or is still to be delivered (an event in
    the engine's heap), or, on the reverse bottleneck, handed over to a
    B-side downlink, whose own `arrivals` count it. On every link, the
    packets still waiting for the wire, those that start after now, number
    no more than its peak, which is within the hard limit."""
    rev = reverse_link(topo)
    for link in links:
        assert link.arrivals == link.forwarded + link.overflow_drops
        if link is rev:
            downlinks = (h.downlink for h in topo.hosts_b + [topo.mon_b])
            assert link.forwarded == sum(d.arrivals for d in downlinks)
        else:
            pending = sum(1 for event in sim._heap if event[2] is link._receive)
            assert link.forwarded == delivered[id(link)] + pending
        waiting = sum(1 for start in link._waiting if start > sim.now)
        assert waiting <= link.peak <= link.hard_limit
