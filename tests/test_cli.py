import inspect
import json
import os

import pytest

from aqmsim import harness
from aqmsim.cli import main
from aqmsim.engine import Simulator
from aqmsim.predictor import (MAX_SYNTH_LENGTH, STEPS, FitReport, LstmForecaster,
                              min_series_length, neurons_per_layer, save_checkpoint,
                              synth_trace)
from aqmsim.scenario import MAX_DURATION_S, MAX_PAIRS, MAX_RETRAIN_AT_S


def test_run_subcommand_writes_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["run", "--seed", "1", "--out", str(out), "--duration-s", "3",
               "--set", "pairs=2"])
    assert rc == 0
    assert os.path.exists(out / "epochs.csv")
    assert os.path.exists(out / "summary.csv")
    assert "mean mRTT" in capsys.readouterr().out


def test_run_with_config_file(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("pairs = 2\ndisc = taildrop\nduration_s = 2\n")
    out = tmp_path / "o"
    rc = main(["run", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    summary = (out / "summary.csv").read_text()
    assert "taildrop" in summary


def test_invalid_config_exits_nonzero(tmp_path, capsys):
    rc = main(["run", "--set", "disc=red", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_key_exits_nonzero(tmp_path, capsys):
    rc = main(["run", "--set", "bogus=1", "--out", str(tmp_path)])
    assert rc == 2
    assert "bogus" in capsys.readouterr().err


def test_sweep_subcommand(tmp_path):
    out = tmp_path / "sweep"
    rc = main(["sweep", "--out", str(out), "--targets-ms", "1,4",
               "--seeds", "1", "--sweep-duration-s", "2", "--jobs", "1",
               "--set", "pairs=2"])
    assert rc == 0
    assert os.path.exists(out / "sweep.csv")


def test_compare_subcommand_with_checkpoint(tmp_path, capsys):
    from aqmsim.harness import pretrain_predictor

    ckpt = tmp_path / "tiny.json"
    pretrain_predictor(ckpt, synth_seed=3, length=150, epochs=1, layers=1, hidden=4)
    out = tmp_path / "cmp"
    rc = main(["compare", "--out", str(out), "--seeds", "1", "--duration-s", "4",
               "--jobs", "1", "--disciplines", "codel",
               "--set", "pairs=2", "--set", f"checkpoint={ckpt}",
               "--set", "retrain_at_s=0"])
    assert rc == 0
    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0].startswith("disc,arm,seed,final_cumulative_power")
    assert any(",mean," in ln for ln in lines)
    assert "wrote" in capsys.readouterr().out


@pytest.mark.parametrize("command,named", [
    (["sweep", "--seeds", ","], "seeds"),
    (["sweep", "--targets-ms", ","], "targets"),
    (["compare", "--seeds", ","], "seeds"),
    (["compare", "--disciplines", ","], "disciplines"),
    # A repeated entry would average one run as several samples.
    (["sweep", "--seeds", "1,1"], "seeds"),
    (["sweep", "--targets-ms", "1,2,1"], "targets"),
    # Targets are compared in the nanoseconds a run is configured in.
    (["sweep", "--targets-ms", "1,1.0000000001"], "targets"),
    (["compare", "--seeds", "2,3,2"], "seeds"),
    (["compare", "--disciplines", "codel,codel"], "disciplines"),
])
def test_empty_experiment_list_exits_2_before_any_run(tmp_path, capsys, command, named):
    # Checked before any run and before compare pretrains a checkpoint, so
    # nothing is written.
    out = tmp_path / "exp"
    rc = main(command + ["--out", str(out), "--jobs", "1", "--set", "pairs=1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert named in err
    assert not out.exists()


def test_compare_bad_discipline_exits_2_before_pretraining(tmp_path, capsys):
    # No checkpoint is set, so compare would pretrain one first; the bad arm
    # must be rejected before that.
    out = tmp_path / "cmp"
    rc = main(["compare", "--out", str(out), "--disciplines", "codel,bogus",
               "--seeds", "1", "--jobs", "1", "--set", "pairs=1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "'bogus'" in err
    assert not (out / "pretrained.json").exists()


def test_pretrain_and_retrain_demo(tmp_path, capsys):
    out = tmp_path / "pre"
    rc = main(["pretrain", "--out", str(out), "--length", "200",
               "--epochs", "2", "--synth-seed", "9"])
    assert rc == 0
    ckpt = out / "pretrained.json"
    assert os.path.exists(ckpt)
    assert os.path.exists(out / "fit_report.csv")

    demo_out = tmp_path / "demo"
    rc = main(["retrain-demo", "--checkpoint", str(ckpt), "--out", str(demo_out),
               "--seed", "2", "--set", "pairs=2"])
    assert rc == 0
    assert os.path.exists(demo_out / "retrained.json")
    assert len((demo_out / "epochs.csv").read_text().splitlines()) == 7
    assert "one-epoch retrain" in capsys.readouterr().out


def test_missing_checkpoint_error(tmp_path, capsys):
    ckpt = tmp_path / "nope.json"
    out = tmp_path / "demo"
    rc = main(["retrain-demo", "--checkpoint", str(ckpt),
               "--out", str(out), "--set", "pairs=2"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and str(ckpt) in err
    assert not out.exists()


@pytest.mark.parametrize("setting,named", [
    ("access_prop_ms=-5", "access_prop_ms"),
    ("bottleneck_prop_ms=-5", "bottleneck_prop_ms"),
    ("exit_prop_ms=-5", "exit_prop_ms"),
    ("bulk_start_ms=-5", "bulk_start_ms"),
    ("monitor_start_ms=-5", "monitor_start_ms"),
    ("access_prop_ms=0", "access_prop_ms + bottleneck_prop_ms + exit_prop_ms"),
    ("retrain_at_s=-1", "retrain_at_s"),
    ("target_us=inf", "target_us"),
    ("access_prop_ms=1e400", "access_prop_ms"),
    ("exit_prop_ms=nan", "exit_prop_ms"),
    ("bottleneck_bw_mbps=1e305", "bottleneck_bw_mbps"),
    # A rate at which a 64 B packet serializes in 0 ns, or no rate at all.
    *((f"{key}={value}", key)
      for key in ("access_bw_mbps", "bottleneck_bw_mbps", "exit_bw_mbps")
      for value in ("1e300", "2e6", "0")),
    ("alpha=1.5", "alpha must be in [0, 1]"),
    ("gamma=2", "gamma must be in [0, 1]"),
    ("epsilon=-0.1", "epsilon must be in [0, 1]"),
])
def test_bad_delay_or_offset_exits_2_with_one_line(tmp_path, capsys, setting, named):
    rc = main(["run", "--set", "pairs=1", "--duration-s", "1", "--set", setting,
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert named in err
    assert "Traceback" not in err


# The fastest rate the integer-ns clock times: a 64 B packet takes 1 ns.
@pytest.mark.parametrize("key", ["access_bw_mbps", "bottleneck_bw_mbps", "exit_bw_mbps"])
def test_fastest_timed_link_rate_runs(tmp_path, key):
    assert main(["run", "--set", "pairs=1", "--duration-s", "1",
                 "--set", f"{key}=1024000", "--out", str(tmp_path)]) == 0


# Not config keys: the random topology's ranges are constants, and every
# bulk flow of the fixed topology starts at bulk_start_ms.
@pytest.mark.parametrize("key", [
    "rand_access_bw_min_mbps", "rand_access_bw_max_mbps", "rand_prop_min_ms",
    "rand_prop_max_ms", "rand_start_max_s", "flow_stagger_ms",
])
def test_removed_config_key_exits_2(tmp_path, capsys, key):
    out = tmp_path / "run"
    rc = main(["run", "--set", "pairs=1", "--duration-s", "1", "--set", f"{key}=5",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "unknown config key" in err and key in err
    assert not out.exists()


# A trace that pretrain cannot train on is refused, naming the file, before
# --out is made: too short for a training window, rows out of order, a count
# beyond int64, absent.
@pytest.mark.parametrize("case,named", [
    ("short", "3 samples"),
    ("out_of_order", "out of order"),
    ("huge_count", "trace.csv:21: count out of range"),
    ("missing", "No such file"),
])
def test_pretrain_bad_trace_exits_2_before_out(tmp_path, capsys, case, named):
    trace = tmp_path / "trace.csv"
    if case == "short":
        trace.write_text("0,1\n1,0\n2,4\n")
    elif case == "out_of_order":
        trace.write_text("".join(f"{i},1\n" for i in (*range(20), 25)))
    elif case == "huge_count":
        trace.write_text("".join(f"{i},1\n" for i in range(20)) + f"20,{10**30}\n")
    out = tmp_path / "pre"
    rc = main(["pretrain", "--trace", str(trace), "--epochs", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert named in err and str(trace) in err
    if case == "short":
        assert f"at least {min_series_length(STEPS)}" in err
    assert not out.exists()


# epochs.csv reports the target and interval in whole us, so a value that is
# not one is refused, naming its key, wherever the config comes from.
@pytest.mark.parametrize("settings,config,named", [
    (["target_us=0.5", "interval_us=0.9"], "", "target_us must be a whole number of us"),
    (["interval_us=100000.5"], "", "interval_us must be a whole number of us"),
    ([], "target_us = 2500.25\n", "target_us must be a whole number of us, got 2500.25"),
], ids=["set-both", "set-interval", "config-file"])
def test_target_or_interval_not_whole_us_exits_2_before_out(tmp_path, capsys, settings,
                                                            config, named):
    argv = ["run", "--duration-s", "1", "--set", "pairs=1"]
    for setting in settings:
        argv += ["--set", setting]
    if config:
        path = tmp_path / "odd.conf"
        path.write_text(config)
        argv += ["--config", str(path)]
    out = tmp_path / "run"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert named in err
    assert not out.exists()


@pytest.fixture
def runs(monkeypatch):
    """The `until` of every Simulator.run call, each made a no-op."""
    calls = []
    monkeypatch.setattr(Simulator, "run", lambda sim, until: calls.append(until))
    return calls


# A run allocates its per-second state before it simulates, so a run length
# beyond the bound is refused before any run is built, in every command.
@pytest.mark.parametrize("argv", [
    ["run", "--duration-s", str(MAX_DURATION_S + 1)],
    ["run", "--set", f"duration_s={10**12}"],
    ["sweep", "--sweep-duration-s", str(10**12), "--seeds", "1", "--targets-ms", "1"],
    ["compare", "--duration-s", str(MAX_DURATION_S + 1), "--seeds", "1"],
], ids=["run", "run-set", "sweep", "compare"])
def test_run_length_beyond_the_bound_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                           argv):
    built = []

    def refuse(self, cfg, *args, **kwargs):
        built.append(cfg.duration_s)
        raise AssertionError("a SimContext was built")

    monkeypatch.setattr(harness.SimContext, "__init__", refuse)
    monkeypatch.setattr(harness, "pretrain_predictor",
                        lambda path, **kwargs: built.append(path))
    out = tmp_path / "out"
    extra = ["--jobs", "1"] if argv[0] != "run" else []
    rc = main(argv + extra + ["--set", "pairs=1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert f"duration_s must be at most {MAX_DURATION_S}" in err
    assert built == []
    assert not out.exists()


# An intelligent run allocates its 1 ms bins up to the retrain before it
# simulates, so a retrain beyond the bound is refused before any run is
# built, from --set and from a config file alike.
@pytest.mark.parametrize("source", ["set", "config"])
def test_retrain_beyond_the_bound_exits_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                        source):
    built = []

    def refuse(self, cfg, *args, **kwargs):
        built.append(cfg.retrain_at_s)
        raise AssertionError("a SimContext was built")

    monkeypatch.setattr(harness.SimContext, "__init__", refuse)
    setting = f"retrain_at_s={MAX_RETRAIN_AT_S + 1}"
    argv = ["run", "--set", "intelligent=true", "--set", "checkpoint=absent.json",
            "--duration-s", str(MAX_DURATION_S)]
    if source == "set":
        argv += ["--set", setting]
    else:
        config = tmp_path / "late.conf"
        config.write_text(setting.replace("=", " = ") + "\n")
        argv += ["--config", str(config)]
    out = tmp_path / "out"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert f"retrain_at_s must be at most {MAX_RETRAIN_AT_S}" in err
    assert built == []
    assert not out.exists()


# A run builds every pair before it simulates, so more pairs than the bound
# are refused before any run is built, from --set and from a config file,
# in every command that simulates.
@pytest.mark.parametrize("command,source", [
    ("run", "set"), ("run", "config"), ("sweep", "set"), ("compare", "set"),
    ("retrain-demo", "set")])
def test_pairs_beyond_the_bound_exit_2_before_any_run(tmp_path, capsys, monkeypatch,
                                                      command, source):
    built = []

    def refuse(self, cfg, *args, **kwargs):
        built.append(cfg.pairs)
        raise AssertionError("a SimContext was built")

    monkeypatch.setattr(harness.SimContext, "__init__", refuse)
    monkeypatch.setattr(harness, "pretrain_predictor",
                        lambda path, **kwargs: built.append(path))
    setting = f"pairs={MAX_PAIRS + 1}"
    if source == "set":
        argv = ["--set", setting]
    else:
        config = tmp_path / "wide.conf"
        config.write_text(setting.replace("=", " = ") + "\n")
        argv = ["--config", str(config)]
    out = tmp_path / "out"
    rc = main([command, *COMMAND_REST[command], *argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert f"pairs must be at most {MAX_PAIRS}" in err
    assert built == []
    assert not out.exists()


# The forecaster `pretrain` trains is sized from its synthetic trace, so a
# --length beyond the bound is refused before the trace is drawn; the bound
# itself reaches the trace as given.
def test_synthetic_length_is_bounded_before_the_trace_is_drawn(tmp_path, capsys,
                                                                monkeypatch):
    drawn = []

    def record(seed, length):
        drawn.append(length)
        return synth_trace(seed, min_series_length(STEPS))

    monkeypatch.setattr(harness, "synth_trace", record)
    for length in (MAX_SYNTH_LENGTH + 1, 10**13):
        out = tmp_path / f"refused{length}"
        rc = main(["pretrain", "--length", str(length), "--epochs", "0", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "--length" in err and str(MAX_SYNTH_LENGTH) in err
        assert not out.exists()
    assert drawn == []
    out = tmp_path / "at-the-bound"
    rc = main(["pretrain", "--length", str(MAX_SYNTH_LENGTH), "--epochs", "0",
               "--out", str(out)])
    assert rc == 0
    assert drawn == [MAX_SYNTH_LENGTH]
    assert (out / "pretrained.json").exists()


# A --trace sizes the forecaster as --length does, so a trace past the same
# bound is refused as it is read, naming the first row past it; a trace at
# the bound reaches the forecaster's sizing whole. The forecaster is a
# recorder, so that nothing trains.
def test_trace_is_bounded_while_it_is_read(tmp_path, capsys, monkeypatch):
    built, fitted = [], []

    def forecaster(**kwargs):
        built.append(kwargs)
        return LstmForecaster(layers=1, hidden=2, seed=1)

    def fit(self, counts, epochs):
        fitted.append(len(counts))
        return FitReport(0.0, 0.0, 0.0, 0.0, 1, 0.8, 1, 1)

    monkeypatch.setattr(harness, "LstmForecaster", forecaster)
    monkeypatch.setattr(LstmForecaster, "fit", fit)
    at, past = tmp_path / "at.csv", tmp_path / "past.csv"
    rows = [f"{i},{i % 5}\n" for i in range(MAX_SYNTH_LENGTH + 1)]
    at.write_text("".join(rows[:-1]))
    past.write_text("".join(rows))

    out = tmp_path / "refused"
    rc = main(["pretrain", "--trace", str(past), "--epochs", "0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert f"{past}:{MAX_SYNTH_LENGTH + 1}:" in err and f"more than {MAX_SYNTH_LENGTH}" in err
    assert not out.exists()
    assert built == fitted == []

    out = tmp_path / "at-the-bound"
    rc = main(["pretrain", "--trace", str(at), "--epochs", "0", "--out", str(out)])
    assert rc == 0
    assert [kw["hidden"] for kw in built] == [neurons_per_layer(STEPS, MAX_SYNTH_LENGTH, 3)]
    assert fitted == [MAX_SYNTH_LENGTH]
    assert (out / "pretrained.json").exists()


# The message is printed on one line whatever it holds: a stray word and a
# config path with a newline in them are shown escaped.
@pytest.mark.parametrize("case", ["stray", "config"])
def test_a_newline_in_the_message_stays_on_one_line(tmp_path, capsys, case):
    out = tmp_path / "out"
    if case == "stray":
        argv, shown = ["run", "a\nb"], "a\\nb"
    else:
        config = tmp_path / "cfg\nx"
        config.write_text("bogus = 1\n")
        argv, shown = ["run", "--config", str(config)], "cfg\\nx:1: unknown config key"
    rc = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert shown in err
    assert not out.exists()


@pytest.mark.parametrize("targets,named", [
    ("inf", "inf"),
    ("1,1e400", "inf"),
    ("1,nan", "nan"),
    ("1,1e-9", "target"),
    # sweep.csv reports whole us: 1.1 and 1.2 us would both print as 1.
    ("0.0011,0.0012", "whole number of us"),
    ("1,0.0505", "whole number of us"),
    ("inf", "--targets-ms"),
    ("1,abc", "--targets-ms"),
])
def test_bad_sweep_target_exits_2_before_any_run(tmp_path, capsys, runs, targets, named):
    # Every point is checked first: the 1 ms point must not run before a
    # later one is refused.
    out = tmp_path / "sweep"
    rc = main(["sweep", "--targets-ms", targets, "--seeds", "1", "--jobs", "1",
               "--sweep-duration-s", "1", "--set", "pairs=1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert named in err
    assert "--targets-ms" in err
    if targets == "1,1e-9":
        assert "'1e-9'" in err
    assert "Traceback" not in err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "compare"])
def test_bad_seed_entry_exits_2_naming_the_flag(tmp_path, capsys, runs, monkeypatch,
                                                command):
    # A negative seed is refused before compare pretrains its checkpoint.
    pretrains = []
    monkeypatch.setattr(harness, "pretrain_predictor",
                        lambda path, **kwargs: pretrains.append(path))
    out = tmp_path / "exp"
    for seeds, entry in (("1,x", "'x'"), ("-1", "'-1'"), ("1,-2", "'-2'")):
        rc = main([command, "--seeds", seeds, "--jobs", "1", "--set", "pairs=1",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.count("\n") == 1 and err.startswith("error:")
        assert "--seeds" in err and entry in err
    assert runs == [] and pretrains == []
    assert not out.exists()


# The rest of each command line: what the command requires, and a --jobs
# for the experiments, which take it.
COMMAND_REST = {
    "sweep": ["--seeds", "1", "--jobs", "1"],
    "compare": ["--seeds", "1", "--jobs", "1"],
    "run": [],
    "retrain-demo": ["--checkpoint", "absent.json"],
    "pretrain": [],
}


@pytest.mark.parametrize("command,flag", [
    ("sweep", "--seed"),
    ("compare", "--seed"),
    ("sweep", "--duration-s"),
    ("run", "--jobs"),
    ("retrain-demo", "--jobs"),
    # The demo always simulates the seconds it trains on.
    ("retrain-demo", "--duration-s"),
])
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, runs, command, flag):
    # Registered only where read, and matched whole: sweep's and compare's
    # --seeds must not take --seed by prefix.
    out = tmp_path / "exp"
    rc = main([command, flag, "9", *COMMAND_REST[command], "--set", "pairs=1",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith(f"error: unrecognized arguments: {flag}")
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("command,flag", [
    ("run", "--seed"),
    ("retrain-demo", "--seed"),
    ("pretrain", "--synth-seed"),
])
def test_negative_seed_exits_2_naming_the_flag(tmp_path, capsys, runs, command, flag):
    out = tmp_path / "out"
    rc = main([command, flag, "-3", *COMMAND_REST[command], "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith(f"error: argument {flag}: ")
    assert "'-3'" in err
    assert runs == []
    assert not out.exists()


@pytest.mark.parametrize("command,flag,value", [
    ("pretrain", "--length", "-5"),
    ("pretrain", "--length", "0"),
    # Two windows, but the training split (the first 9 samples) holds none.
    ("pretrain", "--length", "12"),
    ("sweep", "--jobs", "-3"),
    ("compare", "--jobs", "-3"),
    ("sweep", "--sweep-duration-s", "0"),
    ("run", "--duration-s", "0"),
    ("compare", "--duration-s", "0"),
])
def test_flag_out_of_range_exits_2_naming_the_flag(tmp_path, capsys, runs, monkeypatch,
                                                   command, flag, value):
    pretrains = []
    monkeypatch.setattr(harness, "pretrain_predictor",
                        lambda path, **kwargs: pretrains.append(path))
    out = tmp_path / "out"
    rc = main([command, *COMMAND_REST[command], flag, value, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith(f"error: argument {flag}: ")
    assert repr(value) in err
    assert runs == [] and pretrains == []
    assert not out.exists()


def test_pretrain_length_minimum_is_the_split_rule(tmp_path):
    # The least --length the CLI takes is the shortest series the forecaster
    # trains on: 14 samples at 10 steps.
    least = min_series_length(STEPS)
    assert least == 14
    model = LstmForecaster(steps=STEPS, layers=1, hidden=2, seed=1)
    assert model._split_rows(least) == 1
    with pytest.raises(ValueError, match="no complete"):
        model._split_rows(least - 1)
    out = tmp_path / "pre"
    assert main(["pretrain", "--length", str(least), "--epochs", "1",
                 "--out", str(out)]) == 0
    assert (out / "pretrained.json").exists()


# The commands that load a checkpoint; each must refuse a bad one before
# the simulator runs and before --out is made. compare is given its
# checkpoint, so it pretrains none.
CHECKPOINT_COMMANDS = [
    ["retrain-demo", "--checkpoint", "{ckpt}"],
    ["run", "--set", "intelligent=true", "--set", "checkpoint={ckpt}", "--duration-s", "1"],
    ["compare", "--set", "checkpoint={ckpt}", "--seeds", "1", "--disciplines", "codel",
     "--jobs", "1", "--duration-s", "1"],
]


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS)
def test_checkpoint_missing_field_exits_2_with_one_line(tmp_path, capsys, runs, command):
    ckpt = tmp_path / "partial.json"
    ckpt.write_text('{"kind": "lstm-forecaster", "version": 1}\n')
    argv = [arg.format(ckpt=ckpt) for arg in command]
    rc = main(argv + ["--set", "pairs=1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert str(ckpt) in err and "'steps'" in err
    assert "Traceback" not in err
    assert runs == []
    assert not (tmp_path / "out").exists()


def _short_rows(matrices):
    return [[row[:-1] for row in matrices[0]]] + matrices[1:]


@pytest.mark.parametrize("command", CHECKPOINT_COMMANDS, ids=lambda command: command[0])
@pytest.mark.parametrize("field,corrupt", [
    ("steps", lambda blob: "ten"),
    ("Wx", lambda blob: blob["Wx"][:1]),
    ("Wh", lambda blob: _short_rows(blob["Wh"])),
    ("norm_max", lambda blob: float("nan")),
    ("w_out", lambda blob: [float("inf")] + blob["w_out"][1:]),
    # Finite, but beyond float32, which training computes in.
    ("b", lambda blob: [[1e39] + blob["b"][0][1:]] + blob["b"][1:]),
    ("b_out", lambda blob: -1e39),
], ids=["mistyped-steps", "short-Wx-list", "short-Wh-rows", "nan-norm_max",
        "inf-w_out", "float32-overflow-b", "float32-overflow-b_out"])
def test_checkpoint_bad_field_exits_2_with_one_line(tmp_path, capsys, runs, command,
                                                     field, corrupt):
    ckpt = tmp_path / "bad.json"
    save_checkpoint(LstmForecaster(layers=2, hidden=3, seed=1), ckpt)
    blob = json.loads(ckpt.read_text())
    blob[field] = corrupt(blob)
    ckpt.write_text(json.dumps(blob))
    argv = [arg.format(ckpt=ckpt) for arg in command]
    rc = main(argv + ["--set", "pairs=1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert str(ckpt) in err and repr(field) in err
    assert "Traceback" not in err
    assert runs == []
    assert not (tmp_path / "out").exists()


def test_compare_missing_checkpoint_exits_2_without_pretraining(tmp_path, capsys, runs,
                                                                monkeypatch):
    # Only an unset checkpoint is pre-trained; a configured one that is
    # missing is an error, never a file that compare makes.
    pretrains = []
    monkeypatch.setattr(harness, "pretrain_predictor",
                        lambda path, **kwargs: pretrains.append(path))
    ckpt = tmp_path / "nope.json"
    argv = [arg.format(ckpt=ckpt) for arg in CHECKPOINT_COMMANDS[2]]
    rc = main(argv + ["--set", "pairs=1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert str(ckpt) in err
    assert runs == [] and pretrains == []
    assert not ckpt.exists()
    assert not (tmp_path / "out").exists()


def test_checkpoint_steps_unlike_the_loop_exits_2_before_the_run(tmp_path, capsys, runs):
    # The loop forecasts from the 10 bins of 100 ms in each 1 s epoch, and
    # retrain-demo's model goes back into that loop; a 12-step model would
    # fail at the first forecast, a simulated second into a run. So every
    # checkpoint reader refuses it, retrain-demo included.
    ckpt = tmp_path / "steps12.json"
    save_checkpoint(LstmForecaster(steps=12, layers=1, hidden=3, seed=1), ckpt)
    for command in CHECKPOINT_COMMANDS:
        argv = [arg.format(ckpt=ckpt) for arg in command]
        rc = main(argv + ["--set", "pairs=1", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, command[0]
        assert err.count("\n") == 1 and err.startswith("error:")
        assert str(ckpt) in err and "'steps'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists(), command[0]
    assert runs == []


@pytest.mark.parametrize("command", ["run", "sweep", "compare", "retrain-demo"])
def test_bad_config_value_exits_2_and_leaves_no_out(tmp_path, capsys, runs, command):
    out = tmp_path / "out"
    rc = main([command, *COMMAND_REST[command], "--set", "pairs=0", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "pairs" in err
    assert runs == []
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: aqmsim run")


def test_pretrain_negative_epochs_exits_2_with_one_line(tmp_path, capsys):
    out = tmp_path / "pre"
    rc = main(["pretrain", "--out", str(out), "--length", "200", "--epochs", "-3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert "--epochs" in err
    assert not out.exists()


class _Called(Exception):
    """Raised by a stand-in harness entry to end the command it was called by."""


# For each command, the harness entry it calls and the keyword arguments
# whose CLI defaults restate that entry's own defaults.
RESTATED_DEFAULTS = {
    "sweep": ("target_sweep", ("targets_ms", "seeds", "duration_s", "jobs")),
    "compare": ("compare_iaqm", ("seeds", "disciplines", "jobs")),
    "pretrain": ("pretrain_predictor", ("synth_seed", "length", "epochs")),
    "retrain-demo": ("retrain_demo", ("seed",)),
}


@pytest.mark.parametrize("command", sorted(RESTATED_DEFAULTS))
def test_cli_defaults_equal_the_harness_defaults(tmp_path, monkeypatch, command):
    # The CLI spells out the defaults of the harness entry it calls, so one
    # side could change alone. Run with no such flag, each command must pass
    # each of them as the entry's own default.
    entry, names = RESTATED_DEFAULTS[command]
    params = inspect.signature(getattr(harness, entry)).parameters
    passed = {}

    def called(*args, **kwargs):
        passed.update(kwargs)
        raise _Called

    monkeypatch.setattr(harness, entry, called)
    monkeypatch.chdir(tmp_path)
    rest = ["--checkpoint", "absent.json"] if command == "retrain-demo" else []
    with pytest.raises(_Called):
        main([command, *rest])
    for name in names:
        value = passed[name]
        assert (tuple(value) if isinstance(value, list) else value) == params[name].default, name
    if command == "sweep":
        assert params["targets_ms"].default == harness.SWEEP_TARGETS_MS
