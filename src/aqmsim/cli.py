"""Command-line entry points for single runs and the experiment families."""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from functools import partial

from . import harness
from .engine import MS, US
from .predictor import MAX_SYNTH_LENGTH, STEPS, min_series_length
from .scenario import ScenarioConfig, _scaled_int, apply_overrides, load_config


class _Parser(argparse.ArgumentParser):
    """Refuses a flag by raising ValueError, which `main` reports in one line
    with exit code 2; its subparsers are of this class too."""

    def error(self, message):
        raise ValueError(message)


def _add_common(p: argparse.ArgumentParser, seed: bool, duration: bool) -> None:
    """The flags the simulating commands share; --seed and --duration-s only
    on the commands that read them, so that argparse refuses them elsewhere."""
    p.add_argument("--config", help="path to a key = value config file")
    if seed:
        p.add_argument("--seed", type=_seed, default=1, help="master seed (default 1)")
    p.add_argument("--out", default="out", help="output directory (default ./out)")
    if duration:
        p.add_argument("--duration-s", type=_int_at_least(1),
                       help="simulated seconds override")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="config override, repeatable")


def _build_config(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    cfg = apply_overrides(cfg, args.overrides)
    if getattr(args, "duration_s", None) is not None:
        cfg = replace(cfg, duration_s=args.duration_s)
    cfg.validate()
    return cfg


def _int_at_least(least: int, most: int | None = None):
    """An argparse type: an integer >= `least`, and <= `most` if given;
    argparse reports a refused value with the flag's name."""
    span = f">= {least}" if most is None else f"in [{least}, {most}]"

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least or most is not None and value > most:
            raise argparse.ArgumentTypeError(f"expected an integer {span}, got {text!r}")
        return value
    return convert


# A seed is an integer >= 0, as numpy's seed sequences take.
_seed = _int_at_least(0)


def _target_ms(text: str) -> float:
    """A sweep target in ms that is finite and, once rounded to the
    nanoseconds a run is configured in, a whole number of us, at least 1."""
    value = float(text)
    ns = _scaled_int(MS)(value)
    if ns < US or ns % US:
        raise ValueError(f"a target must be a whole number of us, at least 1, "
                         f"got {text!r} ms")
    return value


def _parse_list(flag: str, text: str, conv) -> list:
    """A comma-separated flag's entries; a bad one is reported with its flag,
    as a bad --set value is with its key."""
    try:
        return [conv(entry) for entry in text.split(",") if entry]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ValueError(f"bad value for {flag}: {exc}") from None


def main(argv=None) -> int:
    parser = _Parser(
        prog="aqmsim",
        description="Deterministic AQM simulator with an ECN-driven "
                    "forecast-and-tune control loop.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags match whole, never by prefix: sweep's and compare's --seeds
    # would otherwise take an unregistered --seed.
    command = partial(sub.add_parser, allow_abbrev=False)

    p_run = command("run", help="run one scenario, write epochs/summary CSVs")
    _add_common(p_run, seed=True, duration=True)

    p_sweep = command("sweep", help="target/interval sweep per discipline")
    _add_common(p_sweep, seed=False, duration=False)
    p_sweep.add_argument("--targets-ms", default="0.05,0.5,1,2,4,6",
                         help="comma-separated target values in ms")
    p_sweep.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    p_sweep.add_argument("--sweep-duration-s", type=_int_at_least(1), default=20,
                         help="simulated seconds per sweep point (default 20)")

    p_cmp = command("compare", help="intelligent vs static arms")
    _add_common(p_cmp, seed=False, duration=True)
    p_cmp.add_argument("--seeds", default="1,2,3,4,5", help="comma-separated seeds")
    p_cmp.add_argument("--disciplines", default="codel,fq_codel")
    # Only the experiments fan out; run and retrain-demo refuse --jobs.
    for p in (p_sweep, p_cmp):
        p.add_argument("--jobs", type=_int_at_least(0), default=0,
                       help="parallel worker processes (0 = cpu count)")

    p_pre = command("pretrain", help="pre-train the congestion forecaster")
    p_pre.add_argument("--trace", help="trace CSV (interval_index,ece_count); "
                                       "omitted = synthetic bursty trace")
    p_pre.add_argument("--synth-seed", type=_seed, default=1234)
    least = min_series_length(STEPS)
    p_pre.add_argument("--length", type=_int_at_least(least, MAX_SYNTH_LENGTH), default=6000,
                       help=f"synthetic trace samples (default 6000; at least {least}, "
                            f"so that the training split holds a {STEPS}-step window, "
                            f"and at most {MAX_SYNTH_LENGTH}, since the forecaster is "
                            f"sized from it)")
    p_pre.add_argument("--epochs", type=_int_at_least(0), default=100)
    p_pre.add_argument("--out", default="out")

    p_rt = command("retrain-demo",
                   help=f"random-scenario transfer: collect "
                        f"{harness.RETRAIN_DEMO_COLLECT_S} s of 1 ms bins, one-epoch retrain")
    _add_common(p_rt, seed=True, duration=False)
    p_rt.add_argument("--checkpoint", required=True,
                      help="pre-trained forecaster checkpoint")

    try:
        return _dispatch(parser.parse_args(argv))
    except (ValueError, OSError, RuntimeError) as exc:
        # Escaped, so that a newline in a path or a stray word keeps it one line.
        print(f"error: {exc}".replace("\n", "\\n"), file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.command == "run":
        cfg = _build_config(args)
        result = harness.run_scenario(cfg, args.seed, args.out)
        s = result.summary
        print(f"wrote {args.out}/epochs.csv ({len(result.rows)} epochs) and summary.csv")
        print(f"mean mRTT {s['mean_mrtt_us']:.1f} us, "
              f"mean throughput {s['mean_throughput_bps'] / 1e6:.3f} Mbps, "
              f"final cumulative power {s['final_cumulative_power']:.4f}")
        return 0

    if args.command == "sweep":
        cfg = _build_config(args)
        targets = _parse_list("--targets-ms", args.targets_ms, _target_ms)
        seeds = _parse_list("--seeds", args.seeds, _seed)
        rows = harness.target_sweep(cfg, args.out, targets_ms=targets, seeds=seeds,
                                    duration_s=args.sweep_duration_s, jobs=args.jobs)
        for r in rows:
            print(f"{r['disc']:9s} target {r['target_us']:>5d} us: "
                  f"mRTT {r['mrtt_us_mean']:.1f} us, "
                  f"thr {r['throughput_bps_mean'] / 1e6:.3f} Mbps")
        print(f"wrote {args.out}/sweep.csv")
        return 0

    if args.command == "compare":
        cfg = _build_config(args)
        seeds = _parse_list("--seeds", args.seeds, _seed)
        discs = [d for d in args.disciplines.split(",") if d]
        table = harness.compare_iaqm(cfg, args.out, seeds=seeds,
                                     disciplines=discs, jobs=args.jobs)
        for (disc, arm), agg in sorted(table.items()):
            print(f"{disc:9s} {arm:12s} power {agg['final_cumulative_power_mean']:.4f} "
                  f"occupancy avg {agg['occupancy_mean_pct']:.3f}% "
                  f"max {agg['occupancy_max_pct']:.3f}%")
        print(f"wrote {args.out}/compare.csv")
        return 0

    if args.command == "pretrain":
        ckpt = os.path.join(args.out, "pretrained.json")
        _, report = harness.pretrain_predictor(
            ckpt, trace_path=args.trace, synth_seed=args.synth_seed,
            length=args.length, epochs=args.epochs,
            report_path=os.path.join(args.out, "fit_report.csv"))
        print(f"wrote {ckpt}")
        print(f"train RMSE {report.rmse_train:.4f} MAE {report.mae_train:.4f} | "
              f"test RMSE {report.rmse_test:.4f} MAE {report.mae_test:.4f}")
        return 0

    if args.command == "retrain-demo":
        cfg = _build_config(args)
        _, report = harness.retrain_demo(cfg, args.checkpoint, args.out, seed=args.seed)
        print(f"one-epoch retrain: train RMSE {report.rmse_train:.4f} "
              f"MAE {report.mae_train:.4f} | test RMSE {report.rmse_test:.4f} "
              f"MAE {report.mae_test:.4f}")
        print(f"wrote {args.out}/retrained.json, fit_report.csv and epochs.csv")
        return 0

    raise ValueError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
