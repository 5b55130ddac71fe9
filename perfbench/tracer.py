"""Span tracer that times aqmsim's layers from outside the package.

`Tracer.install` replaces layer entry points on their classes (and two
module functions of `harness`) with timing wrappers, in this process only;
`uninstall` puts the originals back. Nothing under `src/aqmsim` changes.

A wrapper opens a span only when the caller is in another layer, so a layer
calling itself (FQ-CoDel into its CoDel buckets, a router into a port) costs
a call count but no nested span. A span's self time is its duration minus the
durations of the spans it directly caused. Spans are folded into per-target
totals as they close instead of being stored one by one: a 30 s dumbbell run
opens millions of them, and the totals are all the report needs. The totals
are kept in memory and written out when the benchmark ends.
"""
from __future__ import annotations

from time import perf_counter

from aqmsim import harness
from aqmsim.aqm import Codel, FqCodel, TailDrop
from aqmsim.engine import Simulator
from aqmsim.network import EgressPort, Host, PingProbe, Router
from aqmsim.predictor import LstmForecaster
from aqmsim.transport import Connection
from aqmsim.tuner import QLearningTuner

# (owner, attribute, layer). Besides public methods, the list holds the
# callbacks that Simulator.run dispatches into each layer (`_kick`,
# `_deliver_chain`, `_send_request`, `_send_syn`, `_on_rto`, `_on_epoch`,
# `_retrain`): they are where the engine hands control to a layer, so
# without them that layer's work would count as engine self time.
# `LstmForecaster._report`, the forward pass over every window at the end of
# a fit, is a layer of its own so that it opens a span inside the fit and
# training-step time can leave it out.
TARGETS = (
    (Simulator, "run", "engine"),
    (Simulator, "schedule", "engine"),
    (EgressPort, "send", "network"),
    (EgressPort, "_kick", "network"),
    (EgressPort, "_deliver_chain", "network"),
    (Router, "receive", "network"),
    (Host, "receive", "network"),
    (PingProbe, "_send_request", "network"),
    (PingProbe, "on_receiver_receive", "network"),
    (PingProbe, "on_sender_receive", "network"),
    (TailDrop, "enqueue", "aqm.plain"),
    (TailDrop, "dequeue", "aqm.plain"),
    (Codel, "enqueue", "aqm.bottleneck"),
    (Codel, "dequeue", "aqm.bottleneck"),
    (FqCodel, "enqueue", "aqm.bottleneck"),
    (FqCodel, "dequeue", "aqm.bottleneck"),
    (Connection, "on_sender_receive", "transport"),
    (Connection, "on_receiver_receive", "transport"),
    (Connection, "_send_syn", "transport"),
    (Connection, "_on_rto", "transport"),
    (LstmForecaster, "fit", "predictor"),
    (LstmForecaster, "retrain_one_epoch", "predictor"),
    (LstmForecaster, "loss_and_gradients", "predictor"),
    (LstmForecaster, "predict_next_count", "predictor"),
    (LstmForecaster, "_report", "predictor.report"),
    (QLearningTuner, "decide", "tuner"),
    (QLearningTuner, "learn", "tuner"),
    (harness.SimContext, "run", "harness"),
    (harness.SimContext, "_on_epoch", "harness"),
    (harness.SimContext, "_retrain", "harness"),
    (harness, "write_epochs_csv", "harness"),
    (harness, "write_summary_csv", "harness"),
)


def target_name(owner, attr: str) -> str:
    """`Class.method`, or `module.function` for a module-level function."""
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Stat:
    """Totals for one wrapped target."""

    __slots__ = ("layer", "calls", "spans", "total_s", "self_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.calls = 0    # every call, nested same-layer calls included
        self.spans = 0    # calls that opened a span (caller in another layer)
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Per-target call counts and span times for one traced run."""

    def __init__(self):
        self.stats = {}
        self.root_s = 0.0         # summed duration of spans with no parent
        self.pending_peak = 0     # largest event-heap size seen after a schedule
        self.plain_sends = 0      # EgressPort.send calls on TailDrop ports
        self._stack = []
        self._saved = []

    def install(self) -> None:
        for owner, attr, layer in TARGETS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            stat = self.stats.setdefault(target_name(owner, attr), Stat(layer))
            setattr(owner, attr, self._wrap(original, stat, self._observer(owner, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _observer(self, owner, attr):
        if owner is Simulator and attr == "schedule":
            def observe(args):
                n = len(args[0])
                if n > self.pending_peak:
                    self.pending_peak = n
            return observe
        if owner is EgressPort and attr == "send":
            def observe(args):
                if type(args[0].q) is TailDrop:
                    self.plain_sends += 1
            return observe
        return None

    def _wrap(self, fn, stat: Stat, observe):
        stack = self._stack
        layer = stat.layer
        tracer = self

        def traced(*args, **kwargs):
            stat.calls += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    stat.spans += 1
                    stat.total_s += dur
                    stat.self_s += dur - frame[1]
                    if stack:
                        stack[-1][1] += dur
                    else:
                        tracer.root_s += dur
            if observe is not None:
                observe(args)
            return result

        return traced

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for s in self.stats.values() if s.layer == layer)

    def counts(self) -> dict:
        """Every integer the trace recorded; equal across repeats of one run."""
        out = {"pending_peak": self.pending_peak, "plain_sends": self.plain_sends}
        for name, s in self.stats.items():
            out[name + ".calls"] = s.calls
            out[name + ".spans"] = s.spans
        return out

    def to_json(self) -> dict:
        return {name: {"layer": s.layer, "calls": s.calls, "spans": s.spans,
                       "total_s": s.total_s, "self_s": s.self_s}
                for name, s in self.stats.items()}
