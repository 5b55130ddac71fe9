"""Scenario orchestration: build, run, measure, and write CSV outputs.

One SimContext owns one simulation instance and, in the intelligent loop,
the forecaster. Every decision epoch (1 s of simulated time) it closes out
the monitor connection's goodput and measured RTT, computes the power
reward, and, when the intelligent loop is on, forecasts the next epoch's ECE
count, feeds reward and forecast to the Q-learning tuner and applies its
chosen (target, interval) pair to the edge router's discipline. A run
returns its context, which the CSV writers read. Multi-run experiments
(sweep, compare) fan out across processes; each run is fully determined by
(config, seed).
"""
from __future__ import annotations

import os
from dataclasses import asdict, replace

import numpy as np

from .engine import MS, SECOND, US, Simulator
from .predictor import (STEPS, LstmForecaster, ingest_trace, load_checkpoint,
                        min_series_length, neurons_per_layer, save_checkpoint,
                        synth_trace)
from .rng import stream
from .scenario import ScenarioConfig, _scaled_int
from .transport import Connection
from .network import PingProbe, Topology
from .tuner import INTERVAL_FACTOR, QLearningTuner, action_to_params, power_reward

EPOCH_BINS = STEPS  # ECE bins per 1 s decision epoch: one forecast window
BIN_NS = SECOND // EPOCH_BINS
RETRAIN_BIN_NS = 1 * MS
RETRAIN_DEMO_COLLECT_S = 6  # seconds retrain-demo runs, and trains on in 1 ms bins
RAND_START_MAX_S = 10
TRANSFER_PROBE_BYTES = 1500  # single-segment probe transfers time the path

# One column table per output file: (name, format spec) in file order. A
# cell is written as format(value, spec), except that an empty string (a
# value the row does not have) is written as is.
EPOCH_COLUMNS = (
    ("epoch_index", ""), ("observed_count", ""), ("state", ""), ("action", ""),
    ("target_us", ""), ("interval_us", ""), ("throughput_bps", ".0f"),
    ("mrtt_us", ".3f"), ("reward", ".9e"), ("predicted_next", ".6f"),
    ("occupancy_pct", ".6f"), ("drops", ""), ("marks", ""),
    ("cumulative_power", ".9e"), ("mrtt_carried", ""),
    ("conn_goodput_bps", ".0f"), ("conn_rtt_us", ".3f"),
)

SUMMARY_COLUMNS = (
    ("seed", ""), ("disc", ""), ("ecn", ""), ("intelligent", ""),
    ("duration_s", ""), ("pairs", ""), ("mean_mrtt_us", ".3f"),
    ("mean_throughput_bps", ".3f"), ("mean_conn_goodput_bps", ".3f"),
    ("mean_conn_rtt_us", ".3f"), ("mean_agg_goodput_bps", ".3f"),
    ("final_cumulative_power", ".9e"), ("occupancy_mean_pct", ".6f"),
    ("occupancy_max_pct", ".6f"), ("marks", ""), ("law_drops", ""),
    ("overflow_drops", ""), ("reward_normalizer", ".9e"),
)

SWEEP_COLUMNS = (
    ("disc", ""), ("target_us", ""), ("interval_us", ""),
    ("mrtt_us_mean", ".3f"), ("throughput_bps_mean", ".3f"),
    ("conn_rtt_us_mean", ".3f"), ("conn_goodput_bps_mean", ".3f"),
    ("seeds", ""), ("distinct_runs", ""),
)

COMPARE_COLUMNS = (
    ("disc", ""), ("arm", ""), ("seed", ""), ("final_cumulative_power", ".9e"),
    ("occupancy_mean_pct", ".6f"), ("occupancy_max_pct", ".6f"),
    ("mean_mrtt_us", ".3f"), ("mean_throughput_bps", ".3f"),
)

FIT_REPORT_COLUMNS = (
    ("rmse_train", ".6f"), ("rmse_test", ".6f"), ("mae_train", ".6f"),
    ("mae_test", ".6f"), ("epochs", ""), ("split", ""),
    ("n_train_windows", ""), ("n_test_windows", ""),
)


def named(columns, record) -> tuple:
    """The row of `record[name]` for each column, in column order."""
    return tuple(record[name] for name, _ in columns)


def write_csv(path, columns, rows) -> None:
    """The header line of column names, then one line per row; makes the
    file's directory."""
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(name for name, _ in columns) + "\n")
        for row in rows:
            fh.write(",".join(v if v == "" else format(v, spec)
                              for v, (_, spec) in zip(row, columns)) + "\n")


def _epoch_mean(samples, last, term=None):
    """The mean of an epoch's samples (of term(sample), if given), which it
    clears; `last` carried over when the epoch has none."""
    if not samples:
        return last
    mean = sum(samples if term is None else map(term, samples)) / len(samples)
    samples.clear()
    return mean


class SimContext:
    """One fully wired simulation run; `run` executes it and stores its
    `summary`."""

    def __init__(self, cfg: ScenarioConfig, seed: int, collect_1ms_s: int = 0):
        cfg.validate()
        self.cfg = cfg
        self.seed = seed
        self.sim = Simulator()
        self.topo = Topology(self.sim, cfg, seed)
        self.duration_ns = cfg.duration_s * SECOND

        # ECE echoes reaching R1, per 100 ms bin of their arrival there. Each
        # is counted as the reverse bottleneck admits it, so in the middle of
        # a run the bins ahead of the clock already hold echoes in flight.
        self.bins100 = [0] * (cfg.duration_s * EPOCH_BINS + 1)
        # The in-loop retrain runs once, at retrain_at_s, on 1 ms bins from
        # the start: only a run that reaches it keeps them.
        retrains = cfg.intelligent and 0 < cfg.retrain_at_s <= cfg.duration_s
        if retrains:
            collect_1ms_s = max(collect_1ms_s, cfg.retrain_at_s)
        self._ms_limit_ns = collect_1ms_s * SECOND
        self.bins1ms = [0] * (self._ms_limit_ns // RETRAIN_BIN_NS)

        self.topo.ece_hook = self._note_ece

        # Bulk transfers B -> A plus the monitor pair's probe connection.
        # The monitor comes up first; load starts at bulk_start_ms, or on a
        # random topology at a draw in [0, RAND_START_MAX_S) s per flow.
        self.conns = []
        starts = stream(seed, "flow-starts") if cfg.random_topology else None
        for i in range(cfg.pairs):
            if cfg.random_topology:
                start = int(starts.integers(0, RAND_START_MAX_S * SECOND))
            else:
                start = cfg.bulk_start_ms * MS
            conn = Connection(self.sim, i, self.topo.hosts_b[i], self.topo.hosts_a[i],
                              ecn_capable=cfg.ecn, start_ns=start)
            conn.start()
            self.conns.append(conn)
        # Monitor pair, three probe channels: 64 B pings measure the path
        # round trip; data-sized single-segment transfers time the
        # achievable probe-transfer rate; one bulk connection carries the
        # reward (the power of the connection: its goodput over its own
        # measured RTT).
        self.monitor = Connection(self.sim, cfg.pairs, self.topo.mon_b, self.topo.mon_a,
                                  ecn_capable=cfg.ecn, start_ns=cfg.monitor_start_ms * MS)
        self.monitor.start()
        self._conn_rtt_samples = []
        self.monitor.rtt_cb = self._conn_rtt_samples.append
        self.pinger = PingProbe(self.sim, cfg.pairs + 1, self.topo.mon_b,
                                self.topo.mon_a, start_ns=cfg.monitor_start_ms * MS)
        self.pinger.start()
        self.transfer_probe = PingProbe(self.sim, cfg.pairs + 2, self.topo.mon_b,
                                        self.topo.mon_a,
                                        start_ns=cfg.monitor_start_ms * MS + 50 * MS,
                                        request_size=TRANSFER_PROBE_BYTES)
        self.transfer_probe.start()

        base_rtt_s = self.topo.base_rtt_ns() / SECOND
        self.reward_normalizer = cfg.bottleneck_bw_bps / base_rtt_s
        self.tuner = None
        self.model = None
        if cfg.intelligent:
            if not cfg.checkpoint:
                raise ValueError("intelligent runs need a predictor checkpoint")
            self.model = load_checkpoint(cfg.checkpoint)
            self.tuner = QLearningTuner(cfg.alpha, cfg.gamma, cfg.epsilon,
                                        stream(seed, "tuner"))
            if retrains:
                self.sim.schedule(cfg.retrain_at_s * SECOND, self._retrain)

        # Per-epoch state.
        self.rows = []
        self.cumulative_power = 0.0
        self._prev_mon_delivered = 0
        self._agg_delivered = 0  # bulk bytes delivered by the last epoch
        self._prev_marks = 0
        self._prev_drops = 0
        self._mrtt_ns = float(self.topo.base_rtt_ns())
        self._conn_rtt_ns = float(self.topo.base_rtt_ns())
        self._thr_bps = TRANSFER_PROBE_BYTES * 8.0 * SECOND / self.topo.base_rtt_ns()
        for k in range(1, cfg.duration_s + 1):
            self.sim.schedule(k * SECOND, self._on_epoch, k)

    # -- instrumentation ----------------------------------------------------

    def _note_ece(self, t: int) -> None:
        """Count an echo that reaches R1 at `t`, which the clock may not
        have reached yet; one due after the run's end counts nowhere."""
        if t <= self.duration_ns:
            self.bins100[t // BIN_NS] += 1
            if t < self._ms_limit_ns:
                self.bins1ms[t // RETRAIN_BIN_NS] += 1

    def _retrain(self) -> None:
        self.model.retrain_one_epoch(np.array(self.bins1ms, dtype=np.float64))

    # -- epoch loop -----------------------------------------------------------

    def _on_epoch(self, k: int) -> None:
        cfg = self.cfg
        stats = self.topo.bottleneck.stats
        now = self.sim.now

        mon_delivered = self.monitor.delivered_bytes
        conn_goodput_bps = (mon_delivered - self._prev_mon_delivered) * 8.0
        self._prev_mon_delivered = mon_delivered
        self._agg_delivered = sum(c.delivered_bytes for c in self.conns)

        carried = 0 if self.pinger.samples else 1
        self._mrtt_ns = _epoch_mean(self.pinger.samples, self._mrtt_ns)
        bits = TRANSFER_PROBE_BYTES * 8.0 * SECOND
        self._thr_bps = _epoch_mean(self.transfer_probe.samples, self._thr_bps,
                                    lambda d: bits / d)
        self._conn_rtt_ns = _epoch_mean(self._conn_rtt_samples, self._conn_rtt_ns)

        area = stats.drain_area(now)
        occupancy_pct = 100.0 * area / (SECOND * cfg.hard_limit)

        marks = stats.marked
        drops_total = stats.dropped_law + stats.dropped_overflow
        d_marks = marks - self._prev_marks
        d_drops = drops_total - self._prev_drops
        self._prev_marks = marks
        self._prev_drops = drops_total

        reward = power_reward(conn_goodput_bps, self._conn_rtt_ns / SECOND,
                              self.reward_normalizer)
        self.cumulative_power += reward
        predicted = state = action = ""
        if self.tuner is not None:
            predicted = self.model.predict_next_count(
                self.bins100[(k - 1) * EPOCH_BINS:k * EPOCH_BINS])
            self.tuner.learn(reward, predicted)
            if self.tuner.pending is not None:
                state, action = self.tuner.pending
        params = self.topo.aqm_params
        observed_prev = self.bins100[(k - 1) * EPOCH_BINS - 1] if k > 1 else 0

        self.rows.append((
            k - 1,
            observed_prev,
            state,
            action,
            params.target // US,
            params.interval // US,
            self._thr_bps,
            self._mrtt_ns / US,
            reward,
            predicted,
            occupancy_pct,
            d_drops,
            d_marks,
            self.cumulative_power,
            carried,
            conn_goodput_bps,
            self._conn_rtt_ns / US,
        ))

        if self.tuner is not None and k < cfg.duration_s:
            a = self.tuner.decide(self.bins100[k * EPOCH_BINS - 1])
            params.set(*action_to_params(a))

    # -- results ---------------------------------------------------------------

    def run(self) -> SimContext:
        self.sim.run(self.duration_ns)
        cfg = self.cfg
        stats = self.topo.bottleneck.stats
        # Admitted packets left by forwarding, a law drop, or are still
        # queued; the resident count comes from the queues themselves, and
        # the counter `queued` must agree with it.
        resident = sum(1 for _ in self.topo.bottleneck.queued_packets())
        balance = stats.enqueued - (stats.forwarded + stats.dropped_law + resident)
        if balance != 0 or stats.queued != resident:
            raise RuntimeError(f"queue accounting out of balance by {balance} packets, "
                               f"{stats.queued} counted against {resident} held")
        n = len(self.rows)
        column = dict(zip((name for name, _ in EPOCH_COLUMNS), zip(*self.rows)))
        self.summary = {
            "seed": self.seed,
            "disc": cfg.disc,
            "ecn": int(cfg.ecn),
            "intelligent": int(cfg.intelligent),
            "duration_s": cfg.duration_s,
            "pairs": cfg.pairs,
            "mean_mrtt_us": sum(column["mrtt_us"]) / n,
            "mean_throughput_bps": sum(column["throughput_bps"]) / n,
            "mean_conn_goodput_bps": sum(column["conn_goodput_bps"]) / n,
            "mean_conn_rtt_us": sum(column["conn_rtt_us"]) / n,
            "mean_agg_goodput_bps": self._agg_delivered * 8.0 / n,
            "final_cumulative_power": self.cumulative_power,
            "occupancy_mean_pct": sum(column["occupancy_pct"]) / n,
            "occupancy_max_pct": 100.0 * stats.max_queued / cfg.hard_limit,
            "marks": stats.marked,
            "law_drops": stats.dropped_law,
            "overflow_drops": stats.dropped_overflow,
            "reward_normalizer": self.reward_normalizer,
        }
        return self


# -- CSV writers -------------------------------------------------------------


def write_epochs_csv(run: SimContext, path) -> None:
    write_csv(path, EPOCH_COLUMNS, run.rows)


def write_summary_csv(run: SimContext, path) -> None:
    write_csv(path, SUMMARY_COLUMNS, [named(SUMMARY_COLUMNS, run.summary)])


def run_scenario(cfg: ScenarioConfig, seed: int, outdir) -> SimContext:
    """Single run; writes epochs.csv and summary.csv under outdir."""
    run = SimContext(cfg, seed).run()
    write_epochs_csv(run, os.path.join(outdir, "epochs.csv"))
    write_summary_csv(run, os.path.join(outdir, "summary.csv"))
    return run


# -- multi-run experiments ------------------------------------------------------


def _simulate_summary(task):
    _, cfg, seed = task
    return SimContext(cfg, seed).run().summary


def _validate_all(tasks, jobs: int) -> None:
    """Check the worker count, and every task's config and seed, before any
    task runs."""
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = cpu count), got {jobs}")
    for _, cfg, seed in tasks:
        cfg.validate()
        if seed < 0:
            raise ValueError(f"seeds must be >= 0, got {seed}")


def _run_labelled(tasks, jobs: int):
    """Run (label, cfg, seed) tasks in order; fan out when jobs > 1 (0 = cpu
    count). Returns the summaries in task order, and grouped by label with
    the labels in first-seen order."""
    if jobs == 0:
        jobs = os.cpu_count() or 1
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        summaries = [_simulate_summary(t) for t in tasks]
    else:
        # Imported here: a run that does not fan out never loads the pool.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            summaries = list(pool.map(_simulate_summary, tasks))
    groups = {}
    for (label, _, _), s in zip(tasks, summaries):
        groups.setdefault(label, []).append(s)
    return summaries, groups


def _mean(runs, key) -> float:
    return sum(r[key] for r in runs) / len(runs)


SWEEP_TARGETS_MS = (0.05, 0.5, 1.0, 2.0, 4.0, 6.0)


def _require_runs(name: str, values, key=None) -> None:
    """Reject an experiment list that leaves no run to average, or that names
    one run twice (entries with equal `key`), which would average that run
    as two samples."""
    if len(values) == 0:
        raise ValueError(f"no {name} given: the experiment needs at least one")
    seen = {}
    for i, v in enumerate(values):
        first = seen.setdefault(v if key is None else key(v), i)
        if first != i:
            raise ValueError(f"{name} name one run twice ({values[first]!r} and "
                             f"{v!r}): each entry must be distinct")


def target_sweep(cfg: ScenarioConfig, outdir, targets_ms=SWEEP_TARGETS_MS,
                 seeds=(1, 2, 3), disciplines=("codel", "fq_codel"),
                 duration_s: int = 20, jobs: int = 0) -> list:
    """Fixed-topology sweep of (target, interval = INTERVAL_FACTOR x target)
    per discipline, the rule of the tuner's action grid.

    Returns one dict per (discipline, target) with seed-averaged mean mRTT
    and mean throughput; also written to sweep.csv. `distinct_runs` counts
    the distinct summaries (seed column aside) among the `seeds` averaged:
    seeds that reach no random draw of the run repeat one trajectory.
    """
    ms_to_ns = _scaled_int(MS)
    _require_runs("seeds", seeds)
    _require_runs("targets", targets_ms, key=ms_to_ns)
    _require_runs("disciplines", disciplines)
    tasks = []
    for disc in disciplines:
        for t_ms in targets_ms:
            target_ns = ms_to_ns(t_ms)
            run_cfg = replace(cfg, disc=disc, intelligent=False,
                              duration_s=duration_s, target_ns=target_ns,
                              interval_ns=INTERVAL_FACTOR * target_ns)
            tasks += [((disc, t_ms), run_cfg, seed) for seed in seeds]
    _validate_all(tasks, jobs)
    _, groups = _run_labelled(tasks, jobs)
    point_cfg = {label: run_cfg for label, run_cfg, _ in tasks}
    out_rows = [{
        "disc": disc,
        "target_us": point_cfg[disc, t_ms].target_ns // US,
        "interval_us": point_cfg[disc, t_ms].interval_ns // US,
        "mrtt_us_mean": _mean(runs, "mean_mrtt_us"),
        "throughput_bps_mean": _mean(runs, "mean_throughput_bps"),
        "conn_rtt_us_mean": _mean(runs, "mean_conn_rtt_us"),
        "conn_goodput_bps_mean": _mean(runs, "mean_conn_goodput_bps"),
        "seeds": len(runs),
        "distinct_runs": len({tuple(v for k, v in r.items() if k != "seed")
                              for r in runs}),
    } for (disc, t_ms), runs in groups.items()]
    write_csv(os.path.join(outdir, "sweep.csv"), SWEEP_COLUMNS,
              [named(SWEEP_COLUMNS, r) for r in out_rows])
    return out_rows


def compare_iaqm(cfg: ScenarioConfig, outdir, seeds=(1, 2, 3, 4, 5),
                 disciplines=("codel", "fq_codel"), jobs: int = 0) -> dict:
    """Intelligent vs static arms over shared seeds; Table-style occupancy.

    Static arms keep the configured defaults for the whole run; intelligent
    arms start from the same defaults and retune every second, forecasting
    with cfg.checkpoint, or else with outdir/pretrained.json, trained if absent.
    """
    _require_runs("seeds", seeds)
    _require_runs("disciplines", disciplines)
    checkpoint = cfg.checkpoint or os.path.join(outdir, "pretrained.json")
    tasks = [((disc, arm), replace(cfg, disc=disc, intelligent=smart,
                                   checkpoint=checkpoint if smart else ""), seed)
             for disc in disciplines
             for arm, smart in (("static", False), ("intelligent", True))
             for seed in seeds]
    # A bad arm fails here, not after a pretrain of minutes.
    _validate_all(tasks, jobs)
    if not cfg.checkpoint and not os.path.exists(checkpoint):
        pretrain_predictor(checkpoint)
    load_checkpoint(checkpoint)  # a bad checkpoint fails before any run
    summaries, groups = _run_labelled(tasks, jobs)
    rows = [label + (seed,) + named(COMPARE_COLUMNS[3:], s)
            for (label, _, seed), s in zip(tasks, summaries)]
    table = {label: {
        "final_cumulative_power_mean": _mean(runs, "final_cumulative_power"),
        "occupancy_mean_pct": _mean(runs, "occupancy_mean_pct"),
        "occupancy_max_pct": max(r["occupancy_max_pct"] for r in runs),
        "mean_mrtt_us": _mean(runs, "mean_mrtt_us"),
        "mean_throughput_bps": _mean(runs, "mean_throughput_bps"),
        "seeds": len(runs),
    } for label, runs in groups.items()}
    for (disc, arm), agg in sorted(table.items()):
        rows.append((disc, arm, "mean", agg["final_cumulative_power_mean"])
                    + named(COMPARE_COLUMNS[4:], agg))
    write_csv(os.path.join(outdir, "compare.csv"), COMPARE_COLUMNS, rows)
    return table


# -- predictor workflows ---------------------------------------------------------


def write_fit_report_csv(report, path) -> None:
    write_csv(path, FIT_REPORT_COLUMNS, [named(FIT_REPORT_COLUMNS, asdict(report))])


def pretrain_predictor(checkpoint_path, trace_path=None, synth_seed: int = 1234,
                       length: int = 6000, epochs: int = 100,
                       layers: int = 3, hidden: int = 0,
                       report_path=None, model_seed: int = 7):
    """Train a forecaster on a trace (CSV path or synthetic) and checkpoint it."""
    if trace_path is not None:
        series = ingest_trace(trace_path)
        least = min_series_length(STEPS)
        if len(series.counts) < least:
            raise ValueError(f"trace {trace_path} has {len(series.counts)} samples; "
                             f"pretraining needs at least {least}, so that the "
                             f"training split holds a {STEPS}-step window")
    else:
        series = synth_trace(synth_seed, length)
    if hidden <= 0:
        hidden = neurons_per_layer(STEPS, len(series.counts), layers)
    model = LstmForecaster(steps=STEPS, layers=layers, hidden=hidden,
                           seed=model_seed)
    report = model.fit(series.counts, epochs)
    save_checkpoint(model, checkpoint_path)
    if report_path is not None:
        write_fit_report_csv(report, report_path)
    return model, report


def retrain_demo(cfg: ScenarioConfig, checkpoint_path, outdir, seed: int = 1):
    """Transfer workflow: run a static random scenario for
    RETRAIN_DEMO_COLLECT_S seconds, whatever cfg.duration_s, and retrain the
    pre-trained model for one epoch on the run's 1 ms ECE bins. A fixed
    topology in cfg becomes a random one with a 10 Mbps bottleneck."""
    model = load_checkpoint(checkpoint_path)  # a bad checkpoint fails before the run
    run_cfg = replace(cfg, intelligent=False, duration_s=RETRAIN_DEMO_COLLECT_S)
    if not run_cfg.random_topology:
        run_cfg = replace(run_cfg, random_topology=True, bottleneck_bw_bps=10 * 10**6)
    run = SimContext(run_cfg, seed, collect_1ms_s=RETRAIN_DEMO_COLLECT_S).run()
    report = model.fit(np.array(run.bins1ms, dtype=np.int64), 1)
    out_ckpt = os.path.join(outdir, "retrained.json")
    save_checkpoint(model, out_ckpt)
    write_fit_report_csv(report, os.path.join(outdir, "fit_report.csv"))
    write_epochs_csv(run, os.path.join(outdir, "epochs.csv"))
    return model, report
