"""Acceptance suite: one test per criterion, cheap ones first.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The heavy experiments (sweep, comparison) fan out over worker
processes and take several minutes combined.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from aqmsim.aqm import MAX_PACKET_BYTES, AqmParams, Codel, control_interval
from aqmsim.engine import MS
from aqmsim.harness import (TRANSFER_PROBE_BYTES, SimContext, compare_iaqm,
                            pretrain_predictor, run_scenario, target_sweep)
from aqmsim.packets import CE, ECT0, F_ACK, F_ECE, Packet
from aqmsim.predictor import (LstmForecaster, build_windows, neurons_per_layer,
                              normalize, rmse, synth_trace)
from aqmsim.scenario import ScenarioConfig
from aqmsim.tuner import q_update
from helpers import record_receiver, set_flat, spearman, value_iteration

SWEEP_SECONDS = 20
COMPARE_SECONDS = 300
COMPARE_SEEDS = (1, 2, 3, 4, 5)


def note(criterion: str, detail: str) -> None:
    print(f"\n[PASS] {criterion}: {detail}")


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """Criterion 10's pre-training, shared with the criterion 9 comparison."""
    path = tmp_path_factory.mktemp("acceptance") / "pretrained.json"
    model, report = pretrain_predictor(path)
    return str(path), model, report


def test_c01_neuron_sizing_formula():
    assert neurons_per_layer(10, 6000, 3) == 30
    note("criterion 1", "neurons_per_layer(10, 6000, 3) == 30")


def test_c02_windowing_matches_bruteforce():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(11, 300))
        series = rng.integers(0, 100, size=n)
        X, y = build_windows(series)
        for r in range(n - 10):
            assert list(X[r]) == list(series[r:r + 10])
            assert y[r] == series[r + 10]
            checked += 1
    note("criterion 2", f"{checked} window rows match brute-force slices exactly")


def test_c03_q_update_arithmetic_and_bound():
    q = np.zeros((100, 100))
    q_update(q, 0, 0, 1.0, 0, 0.5, 0.8)
    assert abs(q[0, 0] - 0.5) < 1e-12
    q_update(q, 0, 0, 1.0, 0, 0.5, 0.8)
    assert abs(q[0, 0] - 0.95) < 1e-12

    q = np.zeros((100, 100))
    rng = np.random.default_rng(3)
    for _ in range(100_000):
        q_update(q, int(rng.integers(100)), int(rng.integers(100)),
                 float(rng.random()), int(rng.integers(100)), 0.5, 0.8)
    bound = 1.0 / (1.0 - 0.8)
    assert float(np.abs(q).max()) <= bound + 1e-9
    note("criterion 3", "0 -> 0.5 -> 0.95 exact; |Q| <= R_max/(1-gamma) over 1e5 updates")


def test_c04_toy_mdp_converges_to_value_iteration():
    transitions = [[1, 2], [2, 0], [0, 1]]
    rewards = [[0.0, 0.5], [0.0, 1.0], [0.2, 0.0]]
    gamma = 0.8
    oracle = np.array(value_iteration(transitions, rewards, gamma))
    q = np.zeros((3, 2))
    visits = np.zeros((3, 2))
    rng = np.random.default_rng(4)
    s = 0
    iterations = 100_000
    for _ in range(iterations):
        a = int(rng.integers(2))
        visits[s, a] += 1
        alpha = 1.0 / visits[s, a] ** 0.7
        s2 = transitions[s][a]
        q_update(q, s, a, rewards[s][a], s2, alpha, gamma)
        s = s2
    err = float(np.abs(q - oracle).max())
    assert err < 1e-2, f"max-norm error {err}"
    note("criterion 4", f"toy-MDP Q-learning within {err:.2e} of value iteration")


def test_c05_lstm_gradient_check():
    m = LstmForecaster(steps=4, layers=2, hidden=3, dropout=0.0, seed=5)
    rng = np.random.default_rng(55)
    X = rng.random((3, 4))
    y = rng.random(3)
    theta0 = m.get_flat()
    h = 1e-5
    checked = 0
    worst = 0.0
    for _ in range(5):
        set_flat(m, theta0 + 0.25 * rng.standard_normal(theta0.size))
        base = m.get_flat()
        _, grads = m.loss_and_gradients(X, y)
        flat = np.concatenate([g.ravel() for g in grads])
        for i in rng.choice(base.size, size=5, replace=False):
            step = np.zeros_like(base)
            step[i] = h
            set_flat(m, base + step)
            lp, _ = m.loss_and_gradients(X, y)
            set_flat(m, base - step)
            lm, _ = m.loss_and_gradients(X, y)
            set_flat(m, base)
            fd = (lp - lm) / (2 * h)
            rel = abs(fd - flat[i]) / max(abs(fd), abs(flat[i]), 1e-8)
            worst = max(worst, rel)
            assert rel < 1e-4, f"param {i}: rel err {rel}"
            checked += 1
    assert checked >= 20
    note("criterion 5", f"{checked} BPTT gradients vs central differences, worst rel err {worst:.2e}")


def test_c06_codel_control_law_hand_trace():
    q = Codel(AqmParams(target=5 * MS, interval=100 * MS, ecn_enabled=True))
    tick = 4 * MS
    marks = []
    for k in range(80):
        now = k * tick
        q.enqueue(Packet(1, 0, 1500, ECT0, F_ACK, now, 0), now)
        if k >= 2:
            out = q.dequeue(now)
            assert out.enq_ns == now - 8 * MS  # constant 8 ms sojourn
            if out.ecn == CE:
                marks.append((now, q.count, q.drop_next))
                break
    t_first_above = 2 * tick
    assert marks, "control law never engaged"
    t1, count1, next1 = marks[0]
    assert t1 == t_first_above + 100 * MS
    assert count1 == 1
    assert next1 == t1 + 100 * MS

    # Exact inverse-sqrt spacing when dequeues land on the schedule.
    spacings = []
    for expected_count in (2, 3, 4, 5):
        t = q.drop_next
        for _ in range(3):
            q.enqueue(Packet(1, 0, 1500, ECT0, F_ACK, t - 8 * MS, 0), t - 8 * MS)
        out = q.dequeue(t)
        assert out.ecn == CE and q.count == expected_count
        spacings.append(q.drop_next - t)
    # spacings follow interval/sqrt(count) for count = 2, 3, 4, 5
    for spacing, count in zip(spacings, (2, 3, 4, 5)):
        assert spacing == control_interval(100 * MS, count)
    assert spacings[2] == 50 * MS  # count 4
    note("criterion 6", "first action at first_above + interval; spacing "
                        "interval/sqrt(count), 50 ms at count 4")


def test_c07_ecn_semantics_end_to_end():
    cfg = replace(ScenarioConfig(), pairs=6, duration_s=10, disc="codel",
                  target_ns=1 * MS, interval_ns=20 * MS, hard_limit=60)
    ctx = SimContext(cfg, seed=11)
    logs = {conn: record_receiver(conn) for conn in ctx.conns}
    ctx.run()

    # (a) CE appears only on packets from ECN-negotiated (ECT) senders
    ce_seen = 0
    for conn in ctx.conns:
        for kind, ecn, flags in logs[conn]:
            if kind == "data" and ecn == CE:
                assert conn.ecn_negotiated
                ce_seen += 1
    assert ce_seen > 0

    # (b) every ack between CE arrival and CWR arrival carries ECE
    acks_checked = 0
    for conn in ctx.conns:
        pending = False
        for kind, ecn, flags in logs[conn]:
            if kind == "data":
                if flags & 16:
                    pending = False
                if ecn == CE:
                    pending = True
            else:
                assert bool(flags & F_ECE) == pending
                acks_checked += 1
    assert acks_checked > 100

    # (c) at most one multiplicative reduction per measured round trip
    reductions = 0
    for conn in ctx.conns + [ctx.monitor]:
        for (t0, srtt0), (t1, _) in zip(conn.reduction_log, conn.reduction_log[1:]):
            assert t1 - t0 >= srtt0
        reductions += len(conn.reduction_log)
    assert reductions > 10

    # (d) hard-limit overflow drops never mark
    stats = ctx.topo.bottleneck.stats
    assert stats.dropped_overflow > 0
    delivered_ce = sum(1 for conn in ctx.conns
                       for kind, ecn, _ in logs[conn]
                       if kind == "data" and ecn == CE)
    queued_ce = sum(1 for p in ctx.topo.bottleneck.queued_packets() if p.ecn == CE)
    assert delivered_ce + queued_ce <= stats.marked

    # (e) negotiation ECE (SYN-flagged) never reaches the feedback counters
    cfg2 = replace(ScenarioConfig(), pairs=4, duration_s=3,
                   bottleneck_bw_bps=10**9)
    ctx2 = SimContext(cfg2, seed=12)
    res2 = ctx2.run()
    assert all(c.ecn_negotiated for c in ctx2.conns)
    assert sum(res2.bins100) == 0

    note("criterion 7", f"CE/ECE/CWR chain held over {acks_checked} acks, "
                        f"{reductions} reductions, {stats.dropped_overflow} overflow drops")


def test_c08_target_sweep_trends(tmp_path):
    """Criterion 8: the target trades latency, and FQ-CoDel keeps probe latency
    at or below CoDel's.

    Under CoDel the probes share the one FIFO with the bulk flows, so their
    mRTT must rise and their throughput fall with the target. Under FQ-CoDel
    the 64 B ping and the single-segment transfer probe are sparse flows: they
    wait only for the packet in service and for the heads of any flows on the
    new list, never behind a standing queue (RFC 8290 flow isolation). The
    target cannot reach them, so FQ-CoDel's latency trend is read from the bulk
    monitor connection, whose sub-queue is backlogged, and its probes must
    instead stay flat: their spread across the grid stays below one MTU
    serialization time at the bottleneck.
    """
    cfg = ScenarioConfig()
    targets_ms = (0.05, 0.5, 1.0, 2.0, 4.0, 6.0)
    rows = target_sweep(cfg, tmp_path, targets_ms=targets_ms, seeds=(1, 2, 3),
                        disciplines=("codel", "fq_codel"),
                        duration_s=SWEEP_SECONDS, jobs=2)
    failures = []
    pts = {d: sorted((r for r in rows if r["disc"] == d), key=lambda r: r["target_us"])
           for d in ("codel", "fq_codel")}
    targets = [r["target_us"] for r in pts["codel"]]
    co = [r["mrtt_us_mean"] for r in pts["codel"]]
    fq = [r["mrtt_us_mean"] for r in pts["fq_codel"]]

    co_rho_m = spearman(targets, co)
    co_rho_t = spearman(targets, [r["throughput_bps_mean"] for r in pts["codel"]])
    if co_rho_m < 0.8:
        failures.append(f"codel: rho(target, mRTT) = {co_rho_m:+.3f} < 0.8")
    if co_rho_t > -0.5:
        failures.append(f"codel: rho(target, throughput) = {co_rho_t:+.3f} > -0.5")

    fq_rho_c = spearman(targets, [r["conn_rtt_us_mean"] for r in pts["fq_codel"]])
    if fq_rho_c < 0.8:
        failures.append(f"fq_codel: rho(target, conn_rtt) = {fq_rho_c:+.3f} < 0.8")
    mtu_us = MAX_PACKET_BYTES * 8 * 1e6 / cfg.bottleneck_bw_bps
    mrtt_spread = max(fq) - min(fq)
    transfer_us = [TRANSFER_PROBE_BYTES * 8 * 1e6 / r["throughput_bps_mean"]
                   for r in pts["fq_codel"]]
    transfer_spread = max(transfer_us) - min(transfer_us)
    if mrtt_spread >= mtu_us:
        failures.append(f"fq_codel: probe mRTT spread {mrtt_spread:.1f} us "
                        f">= one MTU time {mtu_us:.1f} us")
    if transfer_spread >= mtu_us:
        failures.append(f"fq_codel: transfer-probe round-trip spread "
                        f"{transfer_spread:.1f} us >= one MTU time {mtu_us:.1f} us")

    for t, f, c in zip(targets_ms, fq, co):
        if f > c:
            failures.append(f"FQ-CoDel mRTT {f:.1f} us > CoDel {c:.1f} us at target {t} ms")
    assert not failures, "sweep trend sub-clauses failed: " + " | ".join(failures)
    note("criterion 8",
         f"codel: rho_mrtt {co_rho_m:+.2f}, rho_thr {co_rho_t:+.2f}; "
         f"fq_codel: rho_conn_rtt {fq_rho_c:+.2f}, probe spreads "
         f"mRTT {mrtt_spread:.0f} us, transfer {transfer_spread:.0f} us "
         f"< {mtu_us:.0f} us; FQ-CoDel mRTT <= CoDel at every point; distinct "
         f"runs per point of {rows[0]['seeds']} seeds: "
         + ", ".join(f"{d} {sorted({r['distinct_runs'] for r in pts[d]})}"
                     for d in ("codel", "fq_codel")))


def test_c09_intelligent_vs_static_direction(tmp_path, pretrained):
    ckpt, _, _ = pretrained
    cfg = replace(ScenarioConfig(), duration_s=COMPARE_SECONDS, checkpoint=ckpt)
    table = compare_iaqm(cfg, tmp_path, seeds=COMPARE_SEEDS,
                         disciplines=("codel", "fq_codel"), jobs=2)
    details = []
    for disc in ("codel", "fq_codel"):
        smart = table[(disc, "intelligent")]
        plain = table[(disc, "static")]
        assert smart["final_cumulative_power_mean"] >= plain["final_cumulative_power_mean"], (
            f"{disc}: intelligent power {smart['final_cumulative_power_mean']:.3f} < "
            f"static {plain['final_cumulative_power_mean']:.3f}")
        assert smart["occupancy_mean_pct"] < plain["occupancy_mean_pct"], (
            f"{disc}: intelligent occupancy {smart['occupancy_mean_pct']:.3f}% not below "
            f"static {plain['occupancy_mean_pct']:.3f}%")
        details.append(
            f"{disc}: power {smart['final_cumulative_power_mean']:.2f} vs "
            f"{plain['final_cumulative_power_mean']:.2f}, occupancy "
            f"{smart['occupancy_mean_pct']:.2f}% vs {plain['occupancy_mean_pct']:.2f}%")
    note("criterion 9", " | ".join(details))


def test_c10_predictor_pipeline(pretrained):
    _, model, report = pretrained
    assert report.rmse_test <= 0.15, f"pre-train test RMSE {report.rmse_test:.4f} > 0.15"

    shifted = synth_trace(777, 6000, lam=55.0, p_on_stay=0.85, p_on_enter=0.08).counts
    lo = float(shifted[:4800].min())
    hi = float(shifted[:4800].max())
    X, y = build_windows(normalize(shifted, lo, hi))
    n_train = model._split_rows(len(shifted))
    pred, _, _ = model._forward(X[n_train:])
    before = rmse(y[n_train:], pred)

    # Timed together with its scoring: the bound was set on a retrain that
    # scored itself.
    t0 = time.time()
    model.retrain_one_epoch(shifted)
    after = model.score(shifted, epochs=1)
    wall = time.time() - t0
    assert wall < 10.0, f"one-epoch re-train took {wall:.1f}s"
    assert math.isfinite(after.rmse_test)
    assert after.rmse_test <= 2 * before, (
        f"re-train RMSE {after.rmse_test:.4f} > 2x pre-retrain {before:.4f}")
    note("criterion 10", f"pre-train test RMSE {report.rmse_test:.4f} <= 0.15; "
                         f"re-train {wall:.1f}s, RMSE {after.rmse_test:.4f} "
                         f"<= 2 x {before:.4f}")


def test_c11_byte_identical_reruns(tmp_path):
    cfg = replace(ScenarioConfig(), pairs=5, duration_s=5)
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_scenario(cfg, 42, a)
    run_scenario(cfg, 42, b)
    for name in ("epochs.csv", "summary.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), f"{name} differs"
    note("criterion 11", "epochs.csv and summary.csv byte-identical across reruns")
