"""aqmsim benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it imports aqmsim from `src/` and
nowhere else. Each timed unit (one dumbbell run with its CSV writes, or
`fit` with its checkpoint write) is repeated until S seconds have passed,
and its outputs are hashed and checked. With `--trace 0` the last line of
stdout is the end-to-end result, with `--trace 1` the per-layer result of
two further traced units. See perfbench/README.md for the metrics.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

from calibrate import Calibrator, calibrate, sample_s

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "aqmsim")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

DEFAULT_SEED = 1
# Not used while tuning a change; recheck a claimed gain on it.
HELDOUT_SEED = 101
MIN_REPEATS = 3
TRACED_REPEATS = 2
SETUP_PROBES = 9
PROBE_REF_SAMPLES = 10
PROBE_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_aqmsim() -> None:
    """Import aqmsim from this checkout's src/, refusing any other copy."""
    if not os.path.isfile(os.path.join(PKG, "__init__.py")):
        raise BenchError(f"no aqmsim sources under {PKG}")
    sys.path.insert(0, SRC)
    import aqmsim
    if os.path.dirname(os.path.abspath(aqmsim.__file__)) != PKG:
        raise BenchError(f"imported aqmsim from {aqmsim.__file__}, not {PKG}")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; "
                        f"held-out seed {HELDOUT_SEED})")
    p.add_argument("--seconds", type=float, default=20.0,
                   help="how long to repeat the timed unit")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a child process that only imports and sets up, timed by
    # its parent for setup_s.
    p.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- environment ---------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    digest = hashlib.sha256()
    lines = 0
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            with open(os.path.join(PKG, name), "rb") as fh:
                data = fh.read()
            digest.update(name.encode() + b"\0" + data)
            lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


# -- measurement -----------------------------------------------------------------


def probe_setup(name: str, seed: int, workdir: str, n: int) -> list:
    """(host, calibrated) seconds from spawning a fresh interpreter to a
    set-up workload, n times; "sim" reference samples bracket each probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-probe", workdir]
    times = []
    for _ in range(n):
        before = sample_s("sim", PROBE_REF_SAMPLES)
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if rc != 0 or line.strip() != b"ready":
            raise BenchError(f"setup probe failed with exit code {rc}")
        after = sample_s("sim", PROBE_REF_SAMPLES)
        times.append((elapsed, calibrate(elapsed, "sim", (before + after) / 2)))
    return times


def prepare(workload, workdir: str) -> None:
    """Run `workload.prepare` in a forked child, then here.

    The child builds what the workload needs on disk (the intelligent
    workload's checkpoint: a 1-epoch fit whose end-of-fit report takes
    about 275 MB), so that its memory stays out of this process's
    `ru_maxrss`; the call here then only finds it.
    """
    child = multiprocessing.get_context("fork").Process(
        target=workload.prepare, args=(workdir,))
    child.start()
    child.join(PROBE_TIMEOUT_S)
    if child.is_alive():
        child.kill()
        child.join()
    if child.exitcode != 0:
        raise BenchError(f"prepare failed in its child process "
                         f"(exit code {child.exitcode})")
    workload.prepare(workdir)


def digest_outputs(workload, outdir) -> tuple:
    out = []
    for name in workload.outputs:
        with open(os.path.join(outdir, name), "rb") as fh:
            out.append(hashlib.sha256(fh.read()).hexdigest())
    return tuple(out)


class NullClock:
    """The clock of a traced unit: no reference samples."""

    def tick(self, kind: str) -> None:
        pass

    def stop(self) -> None:
        pass


class Unit:
    """One timed unit: set up, run, hash and check.

    Untraced, it interleaves reference samples with the work. It reports the
    host seconds (`work_s`) and calibrated seconds (`cal_s`) of the work up
    to the clock's stop, the host seconds after it (`tail_s`) and of the
    whole unit (`wall_s`), reference samples excluded. Traced, it takes no
    samples, so spans see only aqmsim's work, and reports `wall_s`.
    """

    def __init__(self, workload, seed: int, outdir: str):
        self.workload = workload
        self.seed = seed
        self.outdir = outdir

    def __call__(self, tracer=None):
        w = self.workload
        if tracer is None:
            state = w.setup(self.seed)
            gc.collect()
            cal = Calibrator()
            cal.start()
            result = w.run(state, self.outdir, cal)
            end = perf_counter()
            cal.stop()
            tail = max(end - cal.stopped_at, 0.0)
            timing = {"work_s": cal.host_s(), "cal_s": cal.calibrated_s(),
                      "tail_s": tail, "wall_s": cal.host_s() + tail,
                      "covered_s": 0.0}
        else:
            tracer.install()
            try:
                state = w.setup(self.seed)
                gc.collect()
                root_before = tracer.root_s
                t0 = perf_counter()
                result = w.run(state, self.outdir, NullClock())
                wall = perf_counter() - t0
                covered = tracer.root_s - root_before
            finally:
                tracer.uninstall()
            timing = {"wall_s": wall, "cal_s": None, "covered_s": covered}
        return {**timing, "problems": w.check(state, result, self.outdir),
                "digests": digest_outputs(w, self.outdir),
                "counts": w.counts(state, result)}


def repeat(unit, seconds: float, min_repeats: int, ledger: dict,
           make_tracer=None) -> list:
    """Run the unit until `seconds` pass, and at least `min_repeats` times.

    Returns the good runs. A run that raises, fails its checks, or whose
    digests differ from the first good run counts as failed; so does a
    traced run whose counts differ from the first traced run.
    """
    good = []
    n = 0
    t_start = perf_counter()
    while n < min_repeats or perf_counter() - t_start < seconds:
        n += 1
        ledger["attempted"] += 1
        tracer = make_tracer() if make_tracer is not None else None
        try:
            run = unit(tracer)
        except Exception:
            traceback.print_exc()
            ledger["failed"] += 1
            continue
        run["tracer"] = tracer
        if tracer is not None:
            run["counts"] = {**run["counts"], **tracer.counts()}
        problems = list(run["problems"])
        ref = ledger.get("reference")
        if ref is not None and run["digests"] != ref["digests"]:
            problems.append(f"output digests {run['digests']} differ from "
                            f"{ref['digests']}")
        traced_ref = ledger.get("traced_reference")
        if traced_ref is not None and run["counts"] != traced_ref["counts"]:
            problems.append("per-layer counts differ between traced repeats")
        if problems:
            print(f"run {ledger['attempted']} failed: " + "; ".join(problems),
                  file=sys.stderr)
            ledger["failed"] += 1
            continue
        ledger.setdefault("reference", run)
        if tracer is not None:
            ledger.setdefault("traced_reference", run)
        good.append(run)
    return good


# -- metrics ---------------------------------------------------------------------


def end_to_end_metrics(workload, runs: list, setup_times: list) -> dict:
    per_unit = statistics.median(r["cal_s"] for r in runs) / workload.units
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "host_s_per_unit": {"value": per_unit, "unit": "s"},
        "setup_s": {"value": statistics.median(c for _, c in setup_times), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
    }


def per_layer_metrics(run: dict, untraced_s: float) -> dict:
    """Per-layer metrics from one traced unit; zero where a layer is idle."""
    t = run["tracer"]
    st = t.stats
    c = run["counts"]

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    def calls(name):
        return st[name].calls

    engine_events = calls("Simulator.schedule")
    sends = calls("EgressPort.send")
    bn_enq = st["FqCodel.enqueue"].spans + st["Codel.enqueue"].spans
    bn_deq = st["FqCodel.dequeue"].spans + st["Codel.dequeue"].spans
    bn_self = t.layer_self_s("aqm.bottleneck")
    forwarded = c.get("aqm.bottleneck.forwarded", 0)
    acks = calls("Connection.on_sender_receive")
    train_steps = calls("LstmForecaster.loss_and_gradients")
    train_s = (st["LstmForecaster.fit"].total_s
               + st["LstmForecaster.retrain_one_epoch"].total_s
               - st["LstmForecaster._report"].total_s)
    predicts = calls("LstmForecaster.predict_next_count")
    decisions = calls("QLearningTuner.decide")
    learns = calls("QLearningTuner.learn")
    csv_s = st["harness.write_epochs_csv"].total_s + st["harness.write_summary_csv"].total_s

    values = {
        "engine.events": (engine_events, "count"),
        "engine.pending_peak": (t.pending_peak, "count"),
        "engine.self_s": (t.layer_self_s("engine"), "s"),
        "network.port_sends": (sends, "count"),
        "network.router_rx": (calls("Router.receive"), "count"),
        "network.host_rx": (calls("Host.receive"), "count"),
        "network.self_s": (t.layer_self_s("network"), "s"),
        "network.plain_port_share": (ratio(t.plain_sends, sends), "ratio"),
        "aqm.plain.enqueues": (calls("TailDrop.enqueue"), "count"),
        "aqm.plain.self_s": (t.layer_self_s("aqm.plain"), "s"),
        "aqm.bottleneck.enqueues": (bn_enq, "count"),
        "aqm.bottleneck.dequeues": (bn_deq, "count"),
        "aqm.bottleneck.self_s": (bn_self, "s"),
        "aqm.bottleneck.ns_per_pkt": (ratio(bn_self, bn_enq, 1e9), "ns"),
        "aqm.bottleneck.useful_frac": (ratio(forwarded, bn_enq), "ratio"),
        "aqm.bottleneck.forwarded": (forwarded, "count"),
        "aqm.bottleneck.marked": (c.get("aqm.bottleneck.marked", 0), "count"),
        "aqm.bottleneck.law_drops": (c.get("aqm.bottleneck.law_drops", 0), "count"),
        "aqm.bottleneck.overflow_drops":
            (c.get("aqm.bottleneck.overflow_drops", 0), "count"),
        "aqm.bottleneck.occupancy_mean_pct": (c.get("occupancy_mean_pct", 0.0), "%"),
        "transport.data_rx": (calls("Connection.on_receiver_receive"), "count"),
        "transport.ack_rx": (acks, "count"),
        "transport.self_s": (t.layer_self_s("transport"), "s"),
        "transport.ns_per_ack":
            (ratio(st["Connection.on_sender_receive"].self_s, acks, 1e9), "ns"),
        "transport.retx_segments": (c.get("transport.retx_segments", 0), "count"),
        "transport.cwnd_cuts": (c.get("transport.cwnd_cuts", 0), "count"),
        "transport.goodput_frac": (ratio(c.get("transport.delivered_bytes", 0),
                                         c.get("transport.sent_bytes", 0)), "ratio"),
        "predictor.train_steps": (train_steps, "count"),
        "predictor.train_step_ms": (ratio(train_s, train_steps, 1e3), "ms"),
        "predictor.retrain_s": (st["LstmForecaster.retrain_one_epoch"].total_s, "s"),
        "predictor.predict_calls": (predicts, "count"),
        "predictor.predict_ms":
            (ratio(st["LstmForecaster.predict_next_count"].total_s, predicts, 1e3), "ms"),
        "tuner.decisions": (decisions, "count"),
        "tuner.decide_us": (ratio(st["QLearningTuner.decide"].total_s, decisions, 1e6), "us"),
        "tuner.learn_us": (ratio(st["QLearningTuner.learn"].self_s, learns, 1e6), "us"),
        "harness.csv_write_s": (csv_s, "s"),
        "harness.other_s": (max(run["wall_s"] - run["covered_s"], 0.0), "s"),
        "trace.overhead_ratio": (ratio(run["wall_s"], untraced_s), "ratio"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


# -- main ------------------------------------------------------------------------


def setup_probe_main(args, workloads) -> int:
    workload = workloads[args.workload]
    workload.prepare(args.setup_probe)
    workload.setup(args.seed)
    print("ready", flush=True)
    return 0


def bench(args, workloads, setup_probes: int) -> dict:
    workload = workloads[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        prepare(workload, workdir)
        setup_times = [] if args.trace else probe_setup(
            workload.name, args.seed, workdir, setup_probes)
        ledger = {"attempted": 0, "failed": 0}
        unit = Unit(workload, args.seed, workdir)
        runs = repeat(unit, args.seconds, MIN_REPEATS, ledger)
        if not runs:
            raise BenchError("every timed run failed")
        untraced_s = statistics.median(r["wall_s"] for r in runs)
        record = {"workload": workload.name, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "unit": workload.unit, "units_per_run": workload.units,
                  "host_s": [r["work_s"] for r in runs],
                  "calibrated_s": [r["cal_s"] for r in runs],
                  "tail_s": [r["tail_s"] for r in runs],
                  "setup_probes_s": setup_times,
                  "digests": dict(zip(workload.outputs, runs[0]["digests"]))}
        if args.trace:
            from tracer import Tracer
            traced = repeat(unit, 0.0, TRACED_REPEATS, ledger, make_tracer=Tracer)
            if not traced:
                raise BenchError("every traced run failed")
            metrics = per_layer_metrics(traced[0], untraced_s)
            record["spans"] = traced[0]["tracer"].to_json()
            record["counts"] = traced[0]["counts"]
        else:
            metrics = end_to_end_metrics(workload, runs, setup_times)
            # The same figures under the workload's own name, uncalibrated,
            # and the host time of the unit after the clock stopped.
            record["also"] = {
                workload.unit_metric: metrics["host_s_per_unit"],
                "uncalibrated_" + workload.unit_metric:
                    {"value": statistics.median(r["work_s"] for r in runs)
                     / workload.units, "unit": "s"},
                "uncalibrated_setup_s":
                    {"value": statistics.median(h for h, _ in setup_times), "unit": "s"},
                "untimed_tail_s":
                    {"value": statistics.median(r["tail_s"] for r in runs), "unit": "s"},
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["metrics"] = metrics
    record["attempted"] = ledger["attempted"]
    record["failed"] = ledger["failed"]
    return record


def main(argv=None, workloads=None, setup_probes: int = SETUP_PROBES) -> int:
    args = parse_args(argv)
    try:
        import_aqmsim()
        if workloads is None:
            from workloads import make_workloads
            workloads = make_workloads()
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads)}")
        if args.setup_probe:
            return setup_probe_main(args, workloads)
        env = environment()
        record = bench(args, workloads, setup_probes)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    record["env"] = env
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print("env " + json.dumps(env))
    for name, digest in record["digests"].items():
        print(f"sha256 {name} {digest}")
    for name, m in record.get("also", {}).items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
