"""The benchmark's workloads: what each sets up, times, checks and counts.

A workload is driven only through aqmsim's public API. `setup(seed)` builds
everything a timed unit needs (this is what `setup_s` measures), `run`
is the timed unit itself including the writing of its output files, and
`check` and `counts` read the outputs and the program state afterwards,
outside the timed region.

`run` calls `clock.tick("sim")` after every simulated second and
`clock.tick("train")` before every LSTM training step. The runner uses the
ticks to interleave short reference samples with the work (calibrate.py)
and subtracts their time; ticking changes no output. A workload whose unit
ends in one-off work that the figure should not weigh calls `clock.stop()`
before it; the runner stops the clock at the end of `run` otherwise.
"""
from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import replace

from aqmsim import harness
from aqmsim.engine import SECOND
from aqmsim.predictor import (STEPS, LstmForecaster, load_checkpoint,
                              neurons_per_layer, save_checkpoint, synth_trace)
from aqmsim.scenario import ScenarioConfig

# The fixed forecaster checkpoint of the intelligent workload: one epoch on
# the default synthetic trace, from these seeds, whatever the workload seed.
CHECKPOINT_TRACE_SEED = 1234
CHECKPOINT_MODEL_SEED = 7
# Weight-init seed and depth of the pretrain workload (`aqmsim pretrain`'s
# defaults); the workload seed picks the training trace.
PRETRAIN_MODEL_SEED = 7
PRETRAIN_LAYERS = 3


@contextmanager
def calling_before(attr: str, hook):
    """Call `hook()` before each call of the `LstmForecaster` method `attr`."""
    original = vars(LstmForecaster)[attr]

    def hooked(*args, **kwargs):
        hook()
        return original(*args, **kwargs)

    setattr(LstmForecaster, attr, hooked)
    try:
        yield
    finally:
        setattr(LstmForecaster, attr, original)


def ticking_train_steps(clock):
    """Tick the clock's "train" samples before each training step."""
    return calling_before("loss_and_gradients", lambda: clock.tick("train"))


class Dumbbell:
    """One `SimContext.run()` of the default dumbbell plus its two CSVs."""

    unit = "sim_s"
    unit_metric = "host_s_per_sim_s"
    outputs = ("epochs.csv", "summary.csv")

    def __init__(self, name: str, sim_s: int, trace_len: int, **overrides):
        self.name = name
        self.cfg = ScenarioConfig(duration_s=sim_s, **overrides)
        self.units = sim_s
        self.trace_len = trace_len

    def prepare(self, workdir) -> None:
        """Untimed: make the intelligent loop's checkpoint unless it is
        there already, and point the config at it."""
        if not self.cfg.intelligent:
            return
        path = os.path.join(workdir, "checkpoint.json")
        if not os.path.exists(path):
            harness.pretrain_predictor(path, synth_seed=CHECKPOINT_TRACE_SEED,
                                       length=self.trace_len, epochs=1,
                                       model_seed=CHECKPOINT_MODEL_SEED)
        self.cfg = replace(self.cfg, checkpoint=path)

    def setup(self, seed: int):
        return harness.SimContext(self.cfg, seed)

    def run(self, ctx, outdir, clock):
        # Stopping the simulator at each second boundary leaves the event
        # order, and so every output byte, as one uninterrupted run has it.
        with ticking_train_steps(clock):
            for k in range(1, self.cfg.duration_s + 1):
                ctx.sim.run(k * SECOND)
                clock.tick("sim")
            result = ctx.run()
        harness.write_epochs_csv(result, os.path.join(outdir, "epochs.csv"))
        harness.write_summary_csv(result, os.path.join(outdir, "summary.csv"))
        return result

    def check(self, ctx, result, outdir) -> list:
        """Properties that hold for any correct run, independent of speed."""
        cfg = self.cfg
        s = result.summary
        problems = []
        if len(result.rows) != cfg.duration_s:
            problems.append(f"{len(result.rows)} epoch rows for {cfg.duration_s} s")
        for key, value in s.items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"summary {key} is {value}")
        # Every delivered byte crossed the bottleneck.
        if not 0 < s["mean_agg_goodput_bps"] <= cfg.bottleneck_bw_bps:
            problems.append(f"aggregate goodput {s['mean_agg_goodput_bps']:.0f} bps "
                            f"outside (0, {cfg.bottleneck_bw_bps}]")
        if cfg.intelligent:
            if ctx.tuner.updates != cfg.duration_s - 1:
                problems.append(f"{ctx.tuner.updates} tuner updates in "
                                f"{cfg.duration_s} epochs")
            if any(r[9] == "" or not r[9] >= 0.0 for r in result.rows):
                problems.append("an epoch has no valid forecast")
        return problems

    def counts(self, ctx, result) -> dict:
        """Layer counts read from program state after the run."""
        stats = ctx.topo.bottleneck.stats
        conns = ctx.conns + [ctx.monitor]
        sent = sum(c.snd_nxt + c.retx_segments * c.mss for c in conns)
        delivered = sum(c.delivered_bytes for c in conns)
        return {
            "aqm.bottleneck.forwarded": stats.forwarded,
            "aqm.bottleneck.marked": stats.marked,
            "aqm.bottleneck.law_drops": stats.dropped_law,
            "aqm.bottleneck.overflow_drops": stats.dropped_overflow,
            "transport.retx_segments": sum(c.retx_segments for c in conns),
            "transport.cwnd_cuts": sum(len(c.reduction_log) for c in conns),
            "transport.sent_bytes": sent,
            "transport.delivered_bytes": delivered,
            "occupancy_mean_pct": result.summary["occupancy_mean_pct"],
        }


class Pretrain:
    """`LstmForecaster.fit` on the synthetic bursty trace, then the checkpoint
    write, as `aqmsim pretrain` does it.

    The clock stops when the training loop ends. The end-of-fit report (a
    forward pass over every window) and the checkpoint write run once per
    pretrain, so in a unit of a few epochs they would weigh some 50 times
    more than in the 100-epoch pretrain; the runner records them apart.
    """

    unit = "epoch"
    unit_metric = "epoch_s"
    outputs = ("pretrained.json",)

    def __init__(self, name: str, epochs: int, trace_len: int):
        self.name = name
        self.units = epochs
        self.trace_len = trace_len

    def prepare(self, workdir) -> None:
        pass

    def setup(self, seed: int):
        series = synth_trace(seed, self.trace_len)
        hidden = neurons_per_layer(STEPS, len(series.counts), PRETRAIN_LAYERS)
        model = LstmForecaster(steps=STEPS, layers=PRETRAIN_LAYERS, hidden=hidden,
                               seed=PRETRAIN_MODEL_SEED)
        return series, model

    def run(self, state, outdir, clock):
        series, model = state
        with ticking_train_steps(clock), calling_before("_report", clock.stop):
            report = model.fit(series.counts, self.units)
        save_checkpoint(model, os.path.join(outdir, "pretrained.json"))
        return report

    def check(self, state, report, outdir) -> list:
        _, model = state
        problems = []
        for key in ("rmse_train", "rmse_test", "mae_train", "mae_test"):
            if not math.isfinite(getattr(report, key)):
                problems.append(f"fit report {key} is {getattr(report, key)}")
        # The checkpoint must load back to the trained weights bit for bit.
        loaded = load_checkpoint(os.path.join(outdir, "pretrained.json"))
        if loaded.get_flat().tobytes() != model.get_flat().tobytes():
            problems.append("checkpoint does not round-trip the trained weights")
        return problems

    def counts(self, state, report) -> dict:
        return {}


def make_workloads(sim_s: int = 30, epochs: int = 2, trace_len: int = 6000,
                   retrain_at_s: int = 6) -> dict:
    """The benchmark's workloads by name. The defaults are the benchmark;
    the smoke test passes tiny sizes."""
    return {w.name: w for w in (
        Dumbbell("dumbbell_fq_codel", sim_s, trace_len, disc="fq_codel"),
        Dumbbell("dumbbell_codel_intelligent", sim_s, trace_len, disc="codel",
                 intelligent=True, retrain_at_s=retrain_at_s),
        Pretrain("pretrain_lstm", epochs, trace_len),
    )}
