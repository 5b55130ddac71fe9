"""The default dumbbell against results that queueing and congestion control
say it must reproduce (ROADMAP item 15): FQ-CoDel's shares follow its flow
hash, the bottleneck stays busy once the bulk flows are backlogged, and it
never idles while it holds a packet."""
from dataclasses import replace

import pytest

from aqmsim.engine import MS, SECOND
from aqmsim.harness import SimContext
from aqmsim.network import EgressPort
from aqmsim.scenario import ScenarioConfig
from aqmsim.transport import MSS


def _goodput_bps(ctx, from_s: int) -> dict:
    """Run `ctx` to its end; each bulk and monitor connection's goodput from
    `from_s` on, by connection id."""
    flows = ctx.conns + [ctx.monitor]
    ctx.sim.run(from_s * SECOND)
    start = [c.delivered_bytes for c in flows]
    ctx.run()
    span_s = ctx.cfg.duration_s - from_s
    return {c.cid: (c.delivered_bytes - s0) * 8 / span_s for c, s0 in zip(flows, start)}


@pytest.mark.parametrize("seed,buckets", [(1, 21), (3, 20)])
def test_fq_codel_shares_follow_the_hash(seed, buckets):
    """DRR gives each of the B buckets that hold a backlogged flow 1/B of the
    link, C, split among the bucket's n flows: each of the 20 bulk flows and
    the monitor connection should get C / B / n over 10-60 s.

    The bounds are set by what the check must tell apart, not by the run.
    Each bucket's total (a lone flow's goodput) must name B: the shares
    predicted for B and B + 1 buckets differ by 1 / (B + 1) of C / B (4.8 %
    at B = 20), and the bound is half that. The known effects are far
    smaller: the ping and transfer probes take (64 + 1500) B per 100 ms of
    the bottleneck, 0.63 % of C, from the bulk flows, and the DRR deficit and
    the bytes in flight at the window's edges are a few kB of the ~6 MB a
    flow delivers. How n flows split one bucket is TCP's doing in one CoDel
    FIFO, not DRR's, so each of them need only name n: the shares predicted
    for n and n + 1 differ by 1 / (n + 1) of C / B / n, and the bound is
    half that (17 % at n = 2).
    """
    ctx = SimContext(replace(ScenarioConfig(), duration_s=60), seed)
    goodput = _goodput_bps(ctx, 10)
    members = {}
    for cid in goodput:
        members.setdefault(ctx.topo.bottleneck.bucket_of(cid), []).append(cid)
    B = len(members)
    assert B == buckets  # seed 3 hashes flows 2 and 4 to one bucket
    share = ctx.cfg.bottleneck_bw_bps / B
    for cids in members.values():
        n = len(cids)
        total = sum(goodput[c] for c in cids)
        assert abs(total / share - 1) <= 1 / (2 * (B + 1)), (cids, total, share)
        if n > 1:
            for c in cids:
                assert abs(goodput[c] / (share / n) - 1) <= 1 / (2 * (n + 1)), (
                    c, goodput[c], share / n)


@pytest.mark.parametrize("disc", ["taildrop", "codel", "fq_codel"])
def test_the_bottleneck_stays_busy(disc, monkeypatch):
    """From 5 s on every bulk flow is backlogged, so the bottleneck should
    transmit at least 99 % of the time under every discipline; the
    serialization times of the packets it starts over 5-30 s, taken from
    their sizes and the link rate, must sum to at least 0.99 of the window,
    and to no more than the window plus one packet. Goodput cannot exceed
    capacity. Taildrop's goodput efficiency (unique bytes delivered over
    bytes forwarded, probes included) is printed, not gated: drop-tail
    lock-out and synchronized losses (RFC 2309 §2) waste some of the busy
    time."""
    lo_s, hi_s = 5, 30
    ctx = SimContext(replace(ScenarioConfig(), disc=disc, duration_s=hi_s), 1)
    port = ctx.topo.bottleneck_port
    capacity = ctx.cfg.bottleneck_bw_bps
    sent_bits = []
    transmit = EgressPort._transmit

    def counted(self, pkt) -> None:
        if self is port and lo_s * SECOND <= self.sim.now < hi_s * SECOND:
            sent_bits.append(pkt.size_bytes * 8)
        transmit(self, pkt)

    monkeypatch.setattr(EgressPort, "_transmit", counted)
    goodput = sum(_goodput_bps(ctx, lo_s).values())
    window_s = hi_s - lo_s
    busy = sum(sent_bits) / capacity / window_s
    assert 0.99 <= busy <= 1 + MSS * 8 / capacity / window_s, busy
    assert goodput <= capacity
    print(f"{disc}: busy {busy:.4f}, bulk + monitor goodput {goodput / 1e6:.2f} Mbps, "
          f"goodput efficiency {goodput * window_s / sum(sent_bits):.4f}")


def test_an_unchained_bottleneck_never_idles_with_packets_held():
    """A work-conserving port: with propagation delay the bottleneck port is
    unchained, so only its wakeup (`_kick`) puts a waiting packet on the
    wire. Polled every ms, it must never be idle (wire free, no wakeup
    armed) while its queue holds a packet. The limit of 30 packets makes
    FQ-CoDel overflow from the first second on."""
    cfg = replace(ScenarioConfig(), bottleneck_prop_ns=5 * MS, hard_limit=30,
                  duration_s=10)
    ctx = SimContext(cfg, 1)
    port, q = ctx.topo.bottleneck_port, ctx.topo.bottleneck
    stuck = 0
    for ms in range(1, cfg.duration_s * 1000 + 1):
        ctx.sim.run(ms * MS)
        if (port.busy_until <= ctx.sim.now and not port._kick_pending
                and next(iter(q.queued_packets()), None) is not None):
            stuck += 1
    s = ctx.run().summary
    assert s["overflow_drops"] > 0
    assert stuck == 0
