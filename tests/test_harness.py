import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aqmsim import harness
from aqmsim.engine import MS, Simulator
from aqmsim.harness import (COMPARE_COLUMNS, EPOCH_COLUMNS, FIT_REPORT_COLUMNS,
                            SUMMARY_COLUMNS, SWEEP_COLUMNS, SimContext,
                            compare_iaqm, pretrain_predictor, retrain_demo,
                            run_scenario, target_sweep)
from aqmsim.packets import CE, F_ECE
from aqmsim.predictor import LstmForecaster
from aqmsim.scenario import ScenarioConfig
from helpers import record_receiver


def header(columns) -> str:
    return ",".join(name for name, _ in columns)


def small_cfg(**kw):
    base = dict(pairs=3, duration_s=4, disc="fq_codel")
    base.update(kw)
    return replace(ScenarioConfig(), **base)


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "tiny.json"
    pretrain_predictor(path, synth_seed=50, length=200, epochs=2,
                       layers=2, hidden=6)
    return str(path)


class TestRunScenario:
    def test_row_count_equals_duration(self):
        res = SimContext(small_cfg(duration_s=5), seed=3).run()
        assert len(res.rows) == 5
        assert [r[0] for r in res.rows] == list(range(5))

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = small_cfg()
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_scenario(cfg, 1, a)
        run_scenario(cfg, 1, b)
        for name in ("epochs.csv", "summary.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        cfg = small_cfg(random_topology=True)
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_scenario(cfg, 1, a)
        run_scenario(cfg, 2, b)
        assert (a / "epochs.csv").read_bytes() != (b / "epochs.csv").read_bytes()

    def test_csv_headers_match_documented_schema(self, tmp_path):
        run_scenario(small_cfg(), 1, tmp_path)
        assert (tmp_path / "epochs.csv").read_text().splitlines()[0] == header(EPOCH_COLUMNS)
        assert (tmp_path / "summary.csv").read_text().splitlines()[0] == header(SUMMARY_COLUMNS)

    def test_readme_headers_match_column_tables(self):
        # README "Output schemas" gives each file's header line in a code block.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("\n## Output schemas\n")[1].split("\n## ")[0]
        documented = dict(re.findall(r"^`(\w+\.csv)`[^\n]*\n(?:[^\n]+\n)*\n```\n(.+)\n```$",
                                     section, re.MULTILINE))
        assert documented == {
            "epochs.csv": header(EPOCH_COLUMNS),
            "summary.csv": header(SUMMARY_COLUMNS),
            "sweep.csv": header(SWEEP_COLUMNS),
            "compare.csv": header(COMPARE_COLUMNS),
            "fit_report.csv": header(FIT_REPORT_COLUMNS),
        }

    def test_static_run_leaves_tuner_columns_empty(self):
        res = SimContext(small_cfg(), seed=2).run()
        for row in res.rows:
            assert row[2] == "" and row[3] == ""
            assert row[4] == 5000 and row[5] == 100000  # default params in force

    def test_taildrop_saturated_drops_but_never_marks(self):
        cfg = small_cfg(disc="taildrop", pairs=6, duration_s=6, hard_limit=50)
        res = SimContext(cfg, seed=1).run()
        assert res.summary["overflow_drops"] > 0
        assert res.summary["marks"] == 0

    def test_cumulative_power_non_decreasing(self):
        res = SimContext(small_cfg(duration_s=6), seed=4).run()
        cums = [r[13] for r in res.rows]
        assert all(b >= a for a, b in zip(cums, cums[1:]))

    def test_intelligent_requires_checkpoint(self):
        with pytest.raises(ValueError, match="checkpoint"):
            SimContext(small_cfg(intelligent=True, checkpoint=""), seed=1).run()


class TestIntelligentRun:
    def test_actions_stay_on_grid_and_params_applied(self, tiny_checkpoint):
        cfg = small_cfg(intelligent=True, checkpoint=tiny_checkpoint,
                        duration_s=6, retrain_at_s=0)
        ctx = SimContext(cfg, seed=5)
        res = ctx.run()
        acted = [r for r in res.rows if r[3] != ""]
        assert acted, "tuner never acted"
        for row in acted:
            action = int(row[3])
            assert 0 <= action < 100
            assert row[4] == (action + 1) * 50
            assert row[5] == row[4] * 20
        # the discipline's live parameters match the last decision
        last = acted[-1]
        assert ctx.topo.aqm_params.target == last[4] * 1000

    def test_predictions_logged_and_updates_counted(self, tiny_checkpoint):
        cfg = small_cfg(intelligent=True, checkpoint=tiny_checkpoint,
                        duration_s=6, retrain_at_s=0)
        ctx = SimContext(cfg, seed=6)
        res = ctx.run()
        assert ctx.tuner.updates == cfg.duration_s - 1
        preds = [r[9] for r in res.rows]
        assert all(p != "" for p in preds)

    def test_the_tuner_learns_the_logged_forecast(self, tiny_checkpoint):
        # The context owns the forecaster: each epoch it logs the forecast
        # and hands that same number to the tuner; a run returns the context.
        cfg = small_cfg(intelligent=True, checkpoint=tiny_checkpoint,
                        duration_s=4, retrain_at_s=0)
        ctx = SimContext(cfg, seed=6)
        fed = []
        learn = ctx.tuner.learn
        ctx.tuner.learn = lambda reward, predicted: fed.append(predicted) or learn(
            reward, predicted)
        assert ctx.run() is ctx
        assert fed == [r[9] for r in ctx.rows] and len(fed) == cfg.duration_s
        assert ctx.summary["intelligent"] == 1

    def test_online_retrain_runs(self, tiny_checkpoint):
        cfg = small_cfg(intelligent=True, checkpoint=tiny_checkpoint,
                        duration_s=8, retrain_at_s=6)
        ctx = SimContext(cfg, seed=7)
        before = ctx.model.get_flat().copy()
        res = ctx.run()
        assert len(ctx.bins1ms) == 6000
        assert not np.array_equal(ctx.model.get_flat(), before)
        assert len(res.rows) == 8

    def test_run_short_of_its_retrain_keeps_no_1ms_bins(self, tiny_checkpoint):
        # The retrain at 6 s never comes in a 2 s run, so nothing would read
        # its 1 ms bins.
        cfg = small_cfg(intelligent=True, checkpoint=tiny_checkpoint,
                        duration_s=2, retrain_at_s=6)
        ctx = SimContext(cfg, seed=7)
        assert ctx.bins1ms == []
        assert len(ctx.run().rows) == 2

    def test_online_retrain_does_not_score(self, tiny_checkpoint, monkeypatch):
        # The loop reads only the retrained weights; scoring them is a
        # forward pass over every window, which nothing would read.
        scored = []
        report = LstmForecaster._report
        monkeypatch.setattr(LstmForecaster, "_report",
                            lambda model, *args: scored.append(args) or report(model, *args))
        cfg = small_cfg(intelligent=True, checkpoint=tiny_checkpoint,
                        duration_s=7, retrain_at_s=6)
        ctx = SimContext(cfg, seed=7)
        before = ctx.model.get_flat().copy()
        ctx.run()
        assert not np.array_equal(ctx.model.get_flat(), before)
        assert scored == []

    def test_static_arm_never_retunes(self):
        cfg = small_cfg(duration_s=4)
        ctx = SimContext(cfg, seed=8)
        ctx.run()
        assert ctx.topo.aqm_params.target == cfg.target_ns
        assert ctx.topo.aqm_params.interval == cfg.interval_ns

    def test_intelligent_runs_byte_identical(self, tiny_checkpoint, tmp_path):
        cfg = small_cfg(intelligent=True, checkpoint=tiny_checkpoint,
                        duration_s=6, retrain_at_s=3)
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_scenario(cfg, 21, a)
        run_scenario(cfg, 21, b)
        assert (a / "epochs.csv").read_bytes() == (b / "epochs.csv").read_bytes()


def plain_links(topo):
    """Every port of the topology except the bottleneck, each once."""
    hosts = topo.hosts_a + topo.hosts_b + [topo.mon_a, topo.mon_b]
    ports = [h.egress for h in hosts]
    ports += list(topo.r1.routes.values()) + list(topo.r2.routes.values())
    return list({id(p): p for p in ports if p is not topo.bottleneck_port}.values())


class TestConservation:
    def test_bottleneck_accounting_balances(self):
        # run() raises unless enqueued == forwarded + law drops + resident
        for disc in ("taildrop", "codel", "fq_codel"):
            SimContext(small_cfg(disc=disc, duration_s=3), seed=9).run()

    def test_all_ports_balance(self):
        # The default limit, then one small enough that plain links overflow.
        for hard_limit in (ScenarioConfig.hard_limit, 5):
            cfg = small_cfg(duration_s=3, hard_limit=hard_limit)
            ctx = SimContext(cfg, seed=10)
            ctx.run()
            topo = ctx.topo
            links = plain_links(topo)
            assert len(links) == 4 * cfg.pairs + 5
            for link in links:
                # The resident count comes from the FIFO itself, not the counters.
                assert link.arrivals == (link.forwarded + link.overflow_drops
                                         + len(link.q))
                assert len(link.q) <= link.peak <= hard_limit
            if hard_limit == 5:
                assert sum(link.overflow_drops for link in links) > 0
            s = topo.bottleneck.stats
            resident = sum(1 for _ in topo.bottleneck.queued_packets())
            assert s.enqueued == s.forwarded + s.dropped_law + resident

    @pytest.mark.parametrize("disc", ["taildrop", "codel", "fq_codel"])
    def test_occupancy_max_is_the_peak_of_resident_packets(self, monkeypatch, disc):
        # A shadow peak, counted from the queues themselves after each
        # enqueue, at a limit small enough that arrivals overflow.
        ctx = SimContext(small_cfg(disc=disc, duration_s=3, hard_limit=8), seed=9)
        q = ctx.topo.bottleneck
        enqueue = type(q).enqueue
        peak = 0

        def shadowed(self, pkt, now):
            nonlocal peak
            admitted = enqueue(self, pkt, now)
            peak = max(peak, sum(1 for _ in q.queued_packets()))
            return admitted

        monkeypatch.setattr(type(q), "enqueue", shadowed)
        s = ctx.run().summary
        assert s["overflow_drops"] > 0
        assert peak == ctx.cfg.hard_limit
        assert s["occupancy_max_pct"] == 100.0 * peak / ctx.cfg.hard_limit


class TestProbeRtt:
    def test_idle_network_mrtt_matches_propagation(self):
        # monitor alone: bulk flows start far beyond the horizon
        cfg = small_cfg(pairs=1, duration_s=2, bulk_start_ms=10**7)
        res = SimContext(cfg, seed=1).run()
        mrtt_us = res.rows[-1][7]
        base_us = 2 * (20 * MS) / 1000
        assert abs(mrtt_us - base_us) < 600  # within one data serialization

    def test_loaded_bottleneck_adds_queue_delay(self):
        cfg = small_cfg(pairs=8, duration_s=8, disc="codel",
                        target_ns=5 * MS, interval_ns=100 * MS)
        res = SimContext(cfg, seed=2).run()
        mrtt_late = res.rows[-1][7]
        assert mrtt_late > 2 * (20 * MS) / 1000 + 1000  # >= 1 ms of queueing

    def test_mrtt_carry_flag_over_idle_epochs(self):
        cfg = small_cfg(pairs=1, duration_s=2, bulk_start_ms=10**7,
                        monitor_start_ms=1500)
        res = SimContext(cfg, seed=3).run()
        assert res.rows[0][14] == 1  # no probe completed in epoch 0
        assert res.rows[1][14] == 0


@pytest.fixture(scope="module")
def instrumented():
    cfg = small_cfg(pairs=6, duration_s=10, disc="codel",
                    target_ns=1 * MS, interval_ns=20 * MS, hard_limit=60)
    ctx = SimContext(cfg, seed=11)
    logs = {conn: record_receiver(conn) for conn in ctx.conns}
    ctx.run()
    return ctx, logs


class TestEcnSemantics:
    """End-to-end assertions on the CE -> ECE -> CWR chain."""

    def test_ce_only_on_ect_packets(self, instrumented):
        ctx, logs = instrumented
        seen_ce = 0
        for conn in ctx.conns:
            for kind, ecn, flags in logs[conn]:
                if kind == "data" and ecn == CE:
                    seen_ce += 1
                    assert conn.ecn_negotiated
        assert seen_ce > 0

    def test_ece_echoed_until_cwr(self, instrumented):
        ctx, logs = instrumented
        checked = 0
        for conn in ctx.conns:
            pending = False
            for kind, ecn, flags in logs[conn]:
                if kind == "data":
                    if flags & 16:  # CWR
                        pending = False
                    if ecn == CE:
                        pending = True
                else:  # ack
                    assert bool(flags & F_ECE) == pending
                    checked += 1
        assert checked > 100

    def test_at_most_one_reduction_per_rtt(self, instrumented):
        ctx, _ = instrumented
        reductions = 0
        for conn in ctx.conns + [ctx.monitor]:
            log = conn.reduction_log
            reductions += len(log)
            for (t0, srtt0), (t1, _) in zip(log, log[1:]):
                assert t1 - t0 >= srtt0
        assert reductions > 10

    def test_overflow_drops_never_marked(self, instrumented):
        ctx, logs = instrumented
        stats = ctx.topo.bottleneck.stats
        assert stats.dropped_overflow > 0  # hard limit 60 forced overflow
        delivered_ce = sum(1 for conn in ctx.conns
                           for kind, ecn, _ in logs[conn]
                           if kind == "data" and ecn == CE)
        queued_ce = sum(1 for pkt in ctx.topo.bottleneck.queued_packets()
                        if pkt.ecn == CE)
        # every CE in flight or delivered came from the control law
        assert delivered_ce + queued_ce <= stats.marked
        assert stats.marked > 0

    def test_syn_ece_excluded_from_feedback_counts(self):
        # big bottleneck: ECN negotiation happens, congestion never does
        cfg = small_cfg(pairs=4, duration_s=3, bottleneck_bw_bps=10**9)
        ctx = SimContext(cfg, seed=12)
        res = ctx.run()
        assert sum(res.bins100) == 0
        assert all(c.ecn_negotiated for c in ctx.conns)

    def test_byte_conservation(self, instrumented):
        ctx, _ = instrumented
        for conn in ctx.conns + [ctx.monitor]:
            assert conn.rcv_nxt <= conn.snd_nxt
            assert conn.delivered_bytes <= conn.snd_nxt


class TestSweepAndCompare:
    def test_sweep_csv_shape(self, tmp_path):
        cfg = small_cfg(pairs=2)
        rows = target_sweep(cfg, tmp_path, targets_ms=(1.0, 4.0), seeds=(1,),
                            disciplines=("codel",), duration_s=3, jobs=1)
        assert len(rows) == 2
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == ("disc,target_us,interval_us,mrtt_us_mean,"
                            "throughput_bps_mean,conn_rtt_us_mean,"
                            "conn_goodput_bps_mean,seeds,distinct_runs")
        assert len(lines) == 3

    def test_sweep_reports_the_target_and_interval_run(self, tmp_path, monkeypatch):
        rows = target_sweep(small_cfg(pairs=1), tmp_path, targets_ms=(0.05, 1.0),
                            seeds=(1,), disciplines=("codel",), duration_s=1, jobs=1)
        assert [(r["target_us"], r["interval_us"]) for r in rows] == [
            (50, 1000), (1000, 20000)]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[1].startswith("codel,50,1000,")
        # sweep.csv, like epochs.csv, reports whole us: 0.0505 ms (50,500 ns)
        # would run unreported, so it is refused before any point runs.
        calls = []
        monkeypatch.setattr(Simulator, "run", lambda sim, until: calls.append(until))
        with pytest.raises(ValueError, match="target_us must be a whole number of us, "
                                             "got 50.5"):
            target_sweep(small_cfg(pairs=1), tmp_path / "odd", targets_ms=(1.0, 0.0505),
                         seeds=(1,), disciplines=("codel",), duration_s=1, jobs=1)
        assert calls == []
        assert not (tmp_path / "odd").exists()

    def test_sweep_counts_distinct_runs(self, tmp_path):
        # On the fixed topology the seed reaches only the FQ-CoDel flow hash,
        # so CoDel seeds repeat one run; random topologies differ per seed.
        rows = target_sweep(small_cfg(pairs=2), tmp_path / "fixed", targets_ms=(1.0,),
                            seeds=(1, 2), disciplines=("codel",), duration_s=2, jobs=1)
        assert [(r["seeds"], r["distinct_runs"]) for r in rows] == [(2, 1)]
        rows = target_sweep(small_cfg(pairs=2, random_topology=True), tmp_path / "rand",
                            targets_ms=(1.0,), seeds=(1, 2), disciplines=("codel",),
                            duration_s=2, jobs=1)
        assert [(r["seeds"], r["distinct_runs"]) for r in rows] == [(2, 2)]
        last = (tmp_path / "rand" / "sweep.csv").read_text().splitlines()[-1]
        assert last.endswith(",2,2")

    def test_negative_seed_refused_before_any_run(self, tmp_path, monkeypatch):
        # The last seed is bad: the first must not run, and compare must not
        # pretrain its checkpoint first.
        calls = []
        monkeypatch.setattr(Simulator, "run", lambda sim, until: calls.append(until))
        monkeypatch.setattr(harness, "pretrain_predictor",
                            lambda path, **kwargs: calls.append(path))
        for experiment in (target_sweep, compare_iaqm):
            with pytest.raises(ValueError, match="seeds must be >= 0, got -1"):
                experiment(small_cfg(pairs=1), tmp_path / "exp", seeds=(1, -1),
                           disciplines=("codel",), jobs=1)
        assert calls == []
        assert not (tmp_path / "exp").exists()

    def test_negative_jobs_refused_before_any_run(self, tmp_path, monkeypatch):
        # Only 0 means "cpu count"; a negative count is an error, found
        # before any run and before compare pretrains its checkpoint.
        calls = []
        monkeypatch.setattr(Simulator, "run", lambda sim, until: calls.append(until))
        monkeypatch.setattr(harness, "pretrain_predictor",
                            lambda path, **kwargs: calls.append(path))
        for experiment in (target_sweep, compare_iaqm):
            with pytest.raises(ValueError, match="jobs must be >= 0 .*, got -1"):
                experiment(small_cfg(pairs=1), tmp_path / "exp", seeds=(1,),
                           disciplines=("codel",), jobs=-1)
        assert calls == []
        assert not (tmp_path / "exp").exists()

    @pytest.mark.parametrize("duration_s,random_topology", [
        (2, False), (40, True), (ScenarioConfig.duration_s, False)])
    def test_retrain_demo_runs_the_seconds_it_trains_on(self, tmp_path, tiny_checkpoint,
                                                        duration_s, random_topology):
        cfg = replace(ScenarioConfig(), pairs=2, duration_s=duration_s,
                      random_topology=random_topology)
        retrain_demo(cfg, tiny_checkpoint, tmp_path, seed=2)
        lines = (tmp_path / "epochs.csv").read_text().splitlines()
        assert len(lines) == 1 + harness.RETRAIN_DEMO_COLLECT_S == 7

    def test_retrain_demo_outputs(self, tmp_path, tiny_checkpoint):
        cfg = replace(ScenarioConfig(), pairs=2, duration_s=7,
                      random_topology=True, bottleneck_bw_bps=10 * 10**6)
        model, report = retrain_demo(cfg, tiny_checkpoint, tmp_path, seed=2)
        assert report.epochs == 1
        assert os.path.exists(tmp_path / "retrained.json")
        assert os.path.exists(tmp_path / "fit_report.csv")
        assert os.path.exists(tmp_path / "epochs.csv")
