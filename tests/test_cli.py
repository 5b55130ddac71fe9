import json
import os
from types import SimpleNamespace

import pytest

from aqmsim import harness
from aqmsim.cli import main
from aqmsim.engine import Simulator
from aqmsim.predictor import STEPS, LstmForecaster, min_series_length, save_checkpoint


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
               "--seed", "2", "--duration-s", "7", "--set", "pairs=2"])
    assert rc == 0
    assert os.path.exists(demo_out / "retrained.json")
    assert "one-epoch retrain" in capsys.readouterr().out


def test_missing_checkpoint_error(tmp_path, capsys):
    ckpt = tmp_path / "nope.json"
    out = tmp_path / "demo"
    rc = main(["retrain-demo", "--checkpoint", str(ckpt),
               "--out", str(out), "--set", "pairs=2", "--duration-s", "7"])
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
# --out is made: too short for a training window, rows out of order, absent.
@pytest.mark.parametrize("case,named", [
    ("short", "3 samples"),
    ("out_of_order", "out of order"),
    ("missing", "No such file"),
])
def test_pretrain_bad_trace_exits_2_before_out(tmp_path, capsys, case, named):
    trace = tmp_path / "trace.csv"
    if case == "short":
        trace.write_text("0,1\n1,0\n2,4\n")
    elif case == "out_of_order":
        trace.write_text("".join(f"{i},1\n" for i in (*range(20), 25)))
    out = tmp_path / "pre"
    rc = main(["pretrain", "--trace", str(trace), "--epochs", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and err.startswith("error:")
    assert named in err and str(trace) in err
    if case == "short":
        assert f"at least {min_series_length(STEPS)}" in err
    assert not out.exists()


@pytest.fixture
def runs(monkeypatch):
    """The `until` of every Simulator.run call, each made a no-op."""
    calls = []
    monkeypatch.setattr(Simulator, "run", lambda sim, until: calls.append(until))
    return calls


@pytest.mark.parametrize("targets,named", [
    ("inf", "inf"),
    ("1,1e400", "inf"),
    ("1,nan", "nan"),
    ("1,1e-9", "target"),
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
    ("retrain-demo", "--duration-s", "0"),
    # retrain-demo collects 6 s, and turns the default fixed topology into a
    # random one of at most 10 s: a length it would override is refused
    # before the checkpoint is read.
    ("retrain-demo", "--duration-s", "2"),
    ("retrain-demo", "--duration-s", "40"),
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


@pytest.mark.parametrize("args,duration_s", [
    (["--duration-s", "6"], 6),
    (["--duration-s", "10"], 10),
    (["--duration-s", "40", "--set", "random_topology=true"], 40),
    (["--duration-s", "5", "--set", "random_topology=true"], None),
    # A config's own duration_s is not a flag: the demo keeps its rule and
    # lengthens or shortens the run.
    (["--set", "duration_s=2"], 2),
    ([], 300),
])
def test_retrain_demo_duration_is_run_or_refused(tmp_path, capsys, monkeypatch, args,
                                                 duration_s):
    demos = []

    def demo(cfg, checkpoint, out, seed):
        demos.append(cfg.duration_s)
        return None, SimpleNamespace(rmse_train=0, mae_train=0, rmse_test=0, mae_test=0)

    monkeypatch.setattr(harness, "retrain_demo", demo)
    rc = main(["retrain-demo", "--checkpoint", "absent.json", *args,
               "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if duration_s is None:
        assert rc == 2 and demos == []
        assert err.count("\n") == 1 and err.startswith("error: argument --duration-s: ")
    else:
        assert rc == 0 and demos == [duration_s]


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
    ["retrain-demo", "--checkpoint", "{ckpt}", "--duration-s", "7"],
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
