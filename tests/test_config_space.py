"""Properties over the configuration space (ROADMAP item 17): every config
that `validate` accepts runs to in-range, self-consistent outputs. Each
clause is checked against a count kept outside the counters it checks:
class-level wrappers of the bottleneck's `enqueue` and `dequeue` count the
packets it holds and when each one leaves, a wrapper of
`QueueStats.on_drop_law` when a law drop leaves, and wrappers of `Packet`
and of the four handlers a packet can reach a host through (each end of a
`Connection` and of a `PingProbe`) follow every packet from the moment it is
built; each plain link's deliveries are counted through a handler of its
own, bound after the flows register, except the reverse bottleneck's, which
it hands through R1 to the B-side downlinks that count them as arrivals.

A second property holds the reverse bottleneck's hand-over through R1 to
the wiring it replaced, a plain link into R1 that `Router.receive` routes
from, with R1's tap counting each echo in the event that delivers it: both
write the same bytes."""
import math
import os
import tempfile
from contextlib import ExitStack
from dataclasses import replace
from unittest import mock

from hypothesis import assume, example, given
from hypothesis import strategies as st

from aqmsim.aqm import Codel, FqCodel, QueueStats, TailDrop
from aqmsim.engine import MS, SECOND, US
from aqmsim.harness import (EPOCH_COLUMNS, SimContext, write_epochs_csv,
                            write_summary_csv)
from aqmsim.network import Link, PingProbe
from aqmsim.packets import F_ECE, F_SYN, Packet
from aqmsim.scenario import (DISCIPLINES, MAX_BW_BPS, MBPS, ScenarioConfig,
                             apply_setting)
from aqmsim.transport import Connection
from helpers import check_links_balance, count_deliveries, plain_links

DISCIPLINE_CLASS = {"taildrop": TailDrop, "codel": Codel, "fq_codel": FqCodel}


def _ms(us: int) -> str:
    """A delay in ms, as a config file gives it, from a whole number of us."""
    return repr(us / 1000)


def _delay_ms(most_us: int):
    """0 (a chained port) as often as a drawn delay of up to `most_us`."""
    return st.one_of(st.just(0), st.integers(1, most_us)).map(_ms)


# Any whole Mbps up to the fastest rate `validate` accepts, with the edges
# and the defaults' order of magnitude as often as the rest.
_LINK_MBPS = st.one_of(st.sampled_from((1, 100, MAX_BW_BPS // MBPS)),
                       st.integers(1, MAX_BW_BPS // MBPS))


@st.composite
def configs(draw) -> ScenarioConfig:
    """A config built the way a config file builds one: a text value for
    each drawn key, converted by `apply_setting` with the key's parser in
    KEY_SPECS."""
    target_us = draw(st.one_of(st.sampled_from((50, 1000, 5000)), st.integers(1, 20_000)))
    settings = {
        "pairs": draw(st.integers(1, 4)),
        "duration_s": draw(st.integers(1, 3)),
        "disc": draw(st.sampled_from(DISCIPLINES)),
        # Small limits, where overflow is the rule, as often as any other.
        "hard_limit_pkts": draw(st.one_of(st.integers(1, 30), st.integers(1, 2000))),
        "target_us": target_us,
        "interval_us": draw(st.integers(target_us + 1, max(target_us + 1, 200_000))),
        "access_prop_ms": _ms(draw(st.integers(0, 30_000))),
        "bottleneck_prop_ms": draw(_delay_ms(10_000)),
        "exit_prop_ms": draw(_delay_ms(5_000)),
        "bottleneck_bw_mbps": draw(st.sampled_from((1, 5, 20))),
        "access_bw_mbps": draw(_LINK_MBPS),
        "exit_bw_mbps": draw(_LINK_MBPS),
        "ecn": draw(st.booleans()),
        "random_topology": draw(st.booleans()),
    }
    cfg = ScenarioConfig()
    for key, value in settings.items():
        cfg = apply_setting(cfg, key, str(value))
    # `validate` refuses a monitor path without propagation delay.
    assume(cfg.access_prop_ns + cfg.bottleneck_prop_ns + cfg.exit_prop_ns > 0)
    return cfg


def _held(q) -> int:
    return sum(1 for _ in q.queued_packets())


def _epoch_areas(changes, duration_s: int) -> list:
    """The integral, in packet*ns, of a count that starts at 0 and takes each
    (time, value) of `changes` from its time on, over each second of the run."""
    areas = [0] * duration_s
    t_prev = held = 0
    for t, value in changes + [(duration_s * SECOND, 0)]:
        while t_prev < t:
            k = t_prev // SECOND
            end = min(t, (k + 1) * SECOND)
            areas[k] += held * (end - t_prev)
            t_prev = end
        held = value
    return areas


@given(configs())
def test_every_accepted_config_runs_to_consistent_outputs(cfg):
    cls = DISCIPLINE_CLASS[cfg.disc]
    enqueue, dequeue = cls.enqueue, cls.dequeue
    init = Packet.__init__
    on_drop_law, drain_area = QueueStats.on_drop_law, QueueStats.drain_area
    changes = []  # (time, packets held) after each enqueue and dequeue
    after_enqueue = []  # packets held after each enqueue
    admitted = []  # enq_ns of each packet admitted
    departures = []  # the time each admitted packet left: forwarded or law-dropped
    drained = []  # each occupancy integral drain_area returned
    built = []
    host_rx = []

    def counted_enqueue(self, pkt, now):
        ok = enqueue(self, pkt, now)
        held = _held(self)
        after_enqueue.append(held)
        changes.append((now, held))
        if ok:
            admitted.append(pkt.enq_ns)
        return ok

    def counted_dequeue(self, now):
        pkt = dequeue(self, now)
        changes.append((now, _held(self)))
        if pkt is not None:
            departures.append(now)
        return pkt

    def counted_drop_law(self, now):
        departures.append(now)
        on_drop_law(self, now)

    def counted_drain(self, now):
        drained.append(drain_area(self, now))
        return drained[-1]

    def counted_init(self, *args):
        init(self, *args)
        built.append(self)

    def counted(handler):
        def counted_handler(self, pkt):
            host_rx.append(pkt)
            handler(self, pkt)
        return counted_handler

    with ExitStack() as patches:
        # Installed before the topology is built, where each flow's ends
        # register these handlers with their hosts.
        for owner, name, wrapper in ((cls, "enqueue", counted_enqueue),
                                     (cls, "dequeue", counted_dequeue),
                                     (QueueStats, "on_drop_law", counted_drop_law),
                                     (QueueStats, "drain_area", counted_drain),
                                     (Packet, "__init__", counted_init)):
            patches.enter_context(mock.patch.object(owner, name, wrapper))
        for owner in (Connection, PingProbe):
            for name in ("on_sender_receive", "on_receiver_receive"):
                patches.enter_context(
                    mock.patch.object(owner, name, counted(getattr(owner, name))))
        ctx = SimContext(cfg, seed=1)
        topo = ctx.topo
        links = plain_links(topo)
        delivered = count_deliveries(topo, links)
        ctx.run()

    q = topo.bottleneck
    s = q.stats
    limit = cfg.hard_limit
    held = _held(q)

    # The counter agrees with the packets held, which never pass the limit.
    assert s.queued == held
    assert max(after_enqueue, default=0) <= limit
    assert s.max_queued == max(after_enqueue, default=0)
    assert len(after_enqueue) == s.enqueued + s.dropped_overflow

    # Every epoch's occupancy is the held-packet integral over its second.
    column = {name: i for i, (name, _) in enumerate(EPOCH_COLUMNS)}
    occupancy = [row[column["occupancy_pct"]] for row in ctx.rows]
    areas = _epoch_areas(changes, cfg.duration_s)
    assert occupancy == [100.0 * a / (SECOND * limit) for a in areas]
    assert all(0.0 <= pct <= 100.0 for pct in occupancy)

    # Little's law on the sample path: the integral of the packets held is
    # the sum of the admitted packets' sojourns, each from its enq_ns to its
    # departure, or to the run's end if it is still held.
    departures += [cfg.duration_s * SECOND] * held
    assert len(departures) == len(admitted)
    assert sum(drained) == sum(departures) - sum(admitted)

    # Every plain hop balances against the deliveries counted at its
    # destination and those still in the engine's heap; the reverse
    # bottleneck, against the arrivals of the downlinks it hands over to.
    check_links_balance(topo, links, delivered, ctx.sim)

    # Every packet built reached a host, was dropped at a named hop, is held
    # in the bottleneck's queue, or rides a pending delivery event (a packet
    # waiting at a plain link among them).
    dropped = (s.dropped_overflow + s.dropped_law
               + sum(link.overflow_drops for link in links))
    in_flight = sum(isinstance(event[3], Packet) for event in ctx.sim._heap)
    assert len(built) == len(host_rx) + dropped + held + in_flight

    # Every figure is finite, and the target and interval reported are the
    # ones the discipline ran with.
    assert all(math.isfinite(v) for v in ctx.summary.values() if not isinstance(v, str))
    assert {(row[column["target_us"]] * US, row[column["interval_us"]] * US)
            for row in ctx.rows} == {(cfg.target_ns, cfg.interval_ns)}
    assert (ctx.topo.aqm_params.target, ctx.topo.aqm_params.interval) == (
        cfg.target_ns, cfg.interval_ns)


def _unfuse(ctx) -> None:
    """Wire `ctx`'s reverse bottleneck as a plain link into R1, before the
    run: R1 receives each packet in an event at its arrival, taps an echo
    then and routes it through `Router.receive`. The A side's uplinks and
    R2's routes to the B side point at the new link."""
    topo, cfg, sim = ctx.topo, ctx.cfg, ctx.sim
    r1 = topo.r1

    def r1_receive(pkt):
        if pkt.flags & F_ECE and not pkt.flags & F_SYN:
            ctx._note_ece(sim.now)
        r1.receive(pkt)

    rev = Link(sim, cfg.bottleneck_bw_bps, cfg.bottleneck_prop_ns, cfg.hard_limit, r1)
    rev.bind(r1_receive)
    for host in topo.hosts_a + [topo.mon_a]:
        host.egress.dst = rev
        host.egress.bind(rev.receive)
    for host in topo.hosts_b + [topo.mon_b]:
        topo.r2.routes[host.node_id] = rev


def _outputs(cfg, unfused: bool) -> tuple:
    """The bytes of a run's epochs.csv and summary.csv."""
    ctx = SimContext(cfg, seed=1)
    if unfused:
        _unfuse(ctx)
    ctx.run()
    with tempfile.TemporaryDirectory() as out:
        files = (os.path.join(out, "epochs.csv"), os.path.join(out, "summary.csv"))
        write_epochs_csv(ctx, files[0])
        write_summary_csv(ctx, files[1])
        return tuple(open(f, "rb").read() for f in files)


# Echoes marked on a slow bottleneck with a long reverse path are still on
# their way to R1 when the run ends, more than a 100 ms bin past it.
@example(replace(ScenarioConfig(), pairs=2, duration_s=2, bottleneck_prop_ns=300 * MS,
                 bottleneck_bw_bps=1 * MBPS))
@given(configs())
def test_the_hand_over_through_r1_writes_what_an_event_at_r1_does(cfg):
    assert _outputs(cfg, unfused=False) == _outputs(cfg, unfused=True)
