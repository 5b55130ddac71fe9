"""The refusal property over `cli.main` (ROADMAP item 17): every argv either
runs (exit 0) or is refused with exit code 2, exactly one `error:` line on
stderr and no output directory; none ends in a traceback.

The argv are drawn per command from each flag's values at and beyond its
edges, NaN, inf and non-numbers, with flags repeated, flags another command
takes, and flags none takes. The simulation, the fan-out, the synthetic
trace, the forecaster's construction and the fit are replaced with
recorders, so an accepted argv costs nothing; all that runs is parsing,
validation, config, trace and checkpoint reading, the writers, and the
building of a single run, which the draws keep small (see `SET_VALUES`).

Two more properties draw malformed input files, trace CSVs and mutated
checkpoints, under the commands that read them."""
import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aqmsim import harness
from aqmsim.cli import main
from aqmsim.predictor import (MAX_SYNTH_LENGTH, STEPS, FitReport, LstmForecaster,
                              min_series_length, save_checkpoint, synth_trace)
from aqmsim.scenario import (KEY_SPECS, MAX_BW_BPS, MAX_DURATION_S, MAX_PAIRS,
                             MAX_RETRAIN_AT_S, MBPS)

COMMANDS = ("run", "sweep", "compare", "pretrain", "retrain-demo")
REPORT = FitReport(0.0, 0.0, 0.0, 0.0, 1, 0.8, 1, 1)
SUMMARY = {name: 0 for name, _ in harness.SUMMARY_COLUMNS}

# Text that is no number, or a number in a form that int() or float() reads.
JUNK = ("nan", "inf", "-inf", "1e400", "abc", "", "1.5", "0x10", "1_0", " 7 ", "-0",
        "+3", "1e3")


def _int_edge(least: int, *more):
    """Integer text just below, at and above the least value a flag takes,
    or junk, as often as each other."""
    return st.one_of(st.sampled_from((str(least - 1), str(least), str(least + 1),
                                      *map(str, more))),
                     st.sampled_from(JUNK))


def _listed(entries):
    """A comma-separated list of 0-3 entries, repeats and empties included."""
    return st.lists(st.sampled_from(entries), max_size=3).map(",".join)


_BW = ("-1", "0", "1e-9", "1", "20", str(MAX_BW_BPS // MBPS),
       f"{MAX_BW_BPS // MBPS}.0000001", str(MAX_BW_BPS // MBPS + 1), "1e300", "inf", "nan")
_PROP = ("-1", "-0.0000001", "0", "0.0000001", "0.001", "20", "inf", "nan")
_TIME_US = ("-1", "0", "0.5", "1", "5000", "99999", "100000", "100001", "1e400", "nan")
_UNIT = ("-0.1", "0", "-0", "0.5", "1", "1.0000001", "nan", "inf")
_BOOL = ("true", "false", "yes", "2", "")
# Each key's values at and beyond its edges. No key but `pairs`,
# `duration_s` and `retrain_at_s` has an upper edge; the sizes a single run
# allocates up front grow with those three (1 ms bins up to the retrain), so
# they are drawn at their edges and at their defaults, and far beyond only
# where the bound refuses the value. A run built at the pairs bound takes
# about 0.1 s and 25 MB.
SET_VALUES = {
    "pairs": ("-1", "0", "1", "2", "20", str(MAX_PAIRS), str(MAX_PAIRS + 1), str(10**12),
              "1.5", "nan", "x"),
    "disc": ("codel", "fq_codel", "taildrop", "bogus", ""),
    "ecn": _BOOL,
    "intelligent": _BOOL,
    "duration_s": ("0", "1", "2", str(MAX_DURATION_S), str(MAX_DURATION_S + 1), "1e3", "nan"),
    "access_bw_mbps": _BW,
    "access_prop_ms": _PROP,
    "bottleneck_bw_mbps": _BW,
    "bottleneck_prop_ms": _PROP,
    "exit_bw_mbps": _BW,
    "exit_prop_ms": _PROP,
    "target_us": _TIME_US,
    "interval_us": _TIME_US,
    "hard_limit_pkts": ("-1", "0", "1", "2", "1000", "1e3"),
    "alpha": _UNIT,
    "gamma": _UNIT,
    "epsilon": _UNIT,
    "checkpoint": ("{good}", "{absent}", "{bad}", ""),
    "retrain_at_s": ("-1", "0", "1", "6", "7", "1.5", str(MAX_RETRAIN_AT_S),
                     str(MAX_RETRAIN_AT_S + 1), str(MAX_DURATION_S), "1e3"),
    "random_topology": _BOOL,
    "bulk_start_ms": ("-1", "0", "50", "1.5"),
    "monitor_start_ms": ("-1", "0", "50", "1.5"),
}
assert set(SET_VALUES) == set(KEY_SPECS)

_SETTING = st.one_of(
    st.sampled_from(sorted(SET_VALUES)).flatmap(
        lambda key: st.sampled_from(SET_VALUES[key]).map(lambda v: f"{key}={v}")),
    st.sampled_from(("bogus=1", "pairs", "=1", "pairs==1")),
)
_SEEDS = ("0", "1", "2", "-1", "1.5", "x", "nan")
_TARGETS_MS = ("0.001", "0.0015", "0.05", "1", "6", "0", "-1", "1e-9", "inf", "nan", "abc",
               "1e400")

# Every flag some command takes, and two that none takes (one a prefix of a
# real one, which is never expanded), each with the values drawn for it.
FLAG_VALUES = {
    "--config": st.sampled_from(("{config}", "{badconfig}", "{nlconfig}", "{absent}",
                                 "{dir}")),
    "--out": st.just("{out}/other"),
    "--set": _SETTING,
    "--seed": _int_edge(0, 10**30),
    "--duration-s": _int_edge(1, MAX_DURATION_S, MAX_DURATION_S + 1),
    "--sweep-duration-s": _int_edge(1, MAX_DURATION_S, MAX_DURATION_S + 1),
    "--jobs": _int_edge(0, 10**6),
    "--seeds": _listed(_SEEDS),
    "--targets-ms": _listed(_TARGETS_MS),
    "--disciplines": _listed(("codel", "fq_codel", "taildrop", "bogus", "")),
    "--trace": st.sampled_from(("{absent}", "{bad}")),
    "--synth-seed": _int_edge(0, 10**30),
    "--length": _int_edge(min_series_length(STEPS), MAX_SYNTH_LENGTH, MAX_SYNTH_LENGTH + 1,
                          10**13),
    "--epochs": _int_edge(0, 10**6),
    "--checkpoint": st.sampled_from(("{good}", "{absent}", "{bad}")),
    "--bogus": st.sampled_from(("1", "")),
    "--dur": st.sampled_from(("1", "")),
}


# The flags each command takes; --set is drawn as often as the others
# together.
COMMAND_FLAGS = {
    "run": ("--config", "--out", "--seed", "--duration-s"),
    "sweep": ("--config", "--out", "--targets-ms", "--seeds", "--sweep-duration-s", "--jobs"),
    "compare": ("--config", "--out", "--duration-s", "--seeds", "--disciplines", "--jobs"),
    "pretrain": ("--out", "--trace", "--synth-seed", "--length", "--epochs"),
    "retrain-demo": ("--config", "--out", "--seed", "--checkpoint"),
}


@st.composite
def argvs(draw):
    """One command, then up to four of its flags, each repeated at times,
    and at times a flag it does not take, in any order. A flag is given no
    value at times, and a stray word, with a newline in it at times,
    follows at times. retrain-demo is mostly given its required
    --checkpoint."""
    command = draw(st.sampled_from(COMMANDS))
    own = st.sampled_from(COMMAND_FLAGS[command])
    if command != "pretrain":
        own = st.one_of(own, st.just("--set"))
    flags = [(flag, draw(FLAG_VALUES[flag])) for flag in draw(st.lists(own, max_size=4))]
    if draw(st.integers(0, 4)) == 0:
        flag = draw(st.sampled_from(sorted(FLAG_VALUES)))
        flags.append((flag, draw(FLAG_VALUES[flag])))
    if command == "retrain-demo" and draw(st.integers(0, 3)):
        flags.append(("--checkpoint", draw(FLAG_VALUES["--checkpoint"])))
    # The loop with each kind of checkpoint, which is read only once the
    # config has passed validation.
    if command in ("run", "compare") and draw(st.integers(0, 2)) == 0:
        flags.append(("--set", "intelligent=true"))
        flags.append(("--set", "checkpoint=" + draw(st.sampled_from(SET_VALUES["checkpoint"]))))
    argv = [command]
    for flag, value in draw(st.permutations(flags)):
        argv.append(flag)
        if draw(st.integers(0, 19)):
            argv.append(value)
    if draw(st.integers(0, 19)) == 0:
        argv.append(draw(st.sampled_from(("stray", "a\nb"))))
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The paths an argv may name: a checkpoint and a config that load, a
    file that is neither, a refused config whose path holds a newline, a
    directory, a path that does not exist, and a trace one row past the
    bound."""
    base = tmp_path_factory.mktemp("cli-files")
    with open(base / "past.csv", "w", encoding="utf-8") as fh:
        fh.writelines(f"{i},{i % 7}\n" for i in range(MAX_SYNTH_LENGTH + 1))
    good = base / "good.json"
    save_checkpoint(LstmForecaster(layers=1, hidden=2, seed=1), good)
    (base / "bad.json").write_text("not json\n")
    (base / "config.txt").write_text("pairs = 2\nduration_s = 2\n")
    (base / "badconfig.txt").write_text("pairs = 2\nbogus = 1\n")
    (base / "bad\nconfig.txt").write_text("pairs = 2\nbogus = 1\n")
    return {"good": good, "bad": base / "bad.json", "absent": base / "absent",
            "config": base / "config.txt", "badconfig": base / "badconfig.txt",
            "nlconfig": base / "bad\nconfig.txt", "dir": base, "past": base / "past.csv"}


@pytest.fixture(scope="module")
def workers():
    """Recorders in place of every worker that simulates, draws a synthetic
    trace or trains. Each returns what its caller reads, so an accepted argv
    runs to exit 0: the stand-in trace is the shortest one pretraining takes,
    and the stand-in forecaster a small one, whose checkpoint the pretrain
    writes where it was asked to."""
    calls = []

    def run(self):
        calls.append(("run", self.cfg, self.seed))
        self.summary = SUMMARY
        return self

    def run_labelled(tasks, jobs):
        calls.append(("run_labelled", len(tasks), jobs))
        groups = {}
        for label, _, _ in tasks:
            groups.setdefault(label, []).append(SUMMARY)
        return [SUMMARY] * len(tasks), groups

    def synth(seed, length):
        calls.append(("synth", length))
        return synth_trace(seed, min_series_length(STEPS))

    def forecaster(**kwargs):
        calls.append(("forecaster", kwargs))
        return LstmForecaster(layers=1, hidden=2, seed=1)

    def fit(self, series, epochs):
        calls.append(("fit", len(series), epochs))
        return REPORT

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(harness.SimContext, "run", run))
        stack.enter_context(mock.patch.object(harness, "_run_labelled", run_labelled))
        stack.enter_context(mock.patch.object(harness, "synth_trace", synth))
        stack.enter_context(mock.patch.object(harness, "LstmForecaster", forecaster))
        stack.enter_context(mock.patch.object(LstmForecaster, "fit", fit))
        yield calls


# The derandomized profile, at more examples than its default: an accepted
# argv takes about 5 ms on a 2-vCPU x86-64 VM, so 1,800 take about 10 s.
@settings(max_examples=1800)
@given(argvs())
def test_every_argv_runs_or_is_refused_in_one_line(files, workers, argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        names = {key: str(path) for key, path in files.items()}
        argv = [arg.format(out=tmp, **names) for arg in argv] + ["--out", out]
        del workers[:]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse's own exit, which main must not reach
                rc = exc.code
        err = stderr.getvalue()
        assert "Traceback" not in err
        if rc == 0:
            assert workers, "an accepted argv reached no worker"
        else:
            assert rc == 2
            assert err.count("\n") == 1 and err.startswith("error:"), err
            assert os.listdir(tmp) == [], "a refused argv left output behind"


# The fields a checkpoint must hold, each of which load_checkpoint checks.
CHECKPOINT_FIELDS = ("kind", "version", "steps", "layers", "hidden", "dropout", "seed",
                     "norm_min", "norm_max", "Wx", "Wh", "b", "w_out", "b_out")
ARRAY_FIELDS = ("Wx", "Wh", "b", "w_out")


@st.composite
def bad_traces(draw):
    """A trace CSV's text and the diagnosis of its last row: up to 20 good
    rows, then one with a wrong column count, a non-integer field, an index
    out of order, a negative count or a count beyond int64."""
    n = draw(st.integers(0, 20))
    rows = [f"{i},{draw(st.integers(0, 50))}" for i in range(n)]
    fault = draw(st.sampled_from(("columns", "field", "order", "negative", "int64")))
    if fault == "columns":
        row = draw(st.sampled_from((f"{n}", f"{n},1,2", f"{n},1,", f"{n};1")))
        named = "expected 'index,count'"
    elif fault == "field":
        # The last is too long for `int()` to read (4,300 digits at most).
        junk = draw(st.sampled_from(("x", "", "1.5", "nan", "1e3", "0x10", "--1", "1_0",
                                     "+3", "\u0663", "9" * 5000)))
        row = draw(st.sampled_from((f"{junk},1", f"{n},{junk}")))
        named = "non-integer field"
    elif fault == "order":
        index = draw(st.sampled_from((n - 1, n + 1, -1, n + 10**6)))
        row = f"{index},1"
        named = f"interval index {index} out of order"
    elif fault == "negative":
        row = f"{n},{-draw(st.integers(1, 2**70))}"
        named = "negative count"
    else:
        row = f"{n},{2**63 + draw(st.integers(0, 2**70))}"
        named = "count out of range"
    return "\n".join(rows + [row]) + "\n", f":{n + 1}: {named}"


def _paths(value, at=()):
    """The index path of every entry of a nested list, itself included."""
    yield at
    if isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, at + (i,))


def _at(value, path):
    for i in path:
        value = value[i]
    return value


@st.composite
def checkpoint_mutations(draw):
    """A function that breaks a saved checkpoint's JSON in one way: a field
    dropped, retyped, set to NaN (an array field in one entry), or an array
    field mis-shaped (one list in it a row short or a row long)."""
    how = draw(st.sampled_from(("drop", "retype", "nan", "shape")))
    key = draw(st.sampled_from(ARRAY_FIELDS if how == "shape" else CHECKPOINT_FIELDS))
    other = draw(st.sampled_from(("x", True, None, {}, [])))
    pick = draw(st.integers(0, 10**6))
    longer = draw(st.booleans())

    def mutate(blob):
        if how == "drop":
            del blob[key]
        elif how == "retype":
            blob[key] = other
        elif how == "nan" and key not in ARRAY_FIELDS:
            blob[key] = float("nan")
        else:
            # One entry of the array: a number set to NaN, or a list made a
            # row long or a row short.
            paths = [p for p in _paths(blob[key])
                     if isinstance(_at(blob[key], p), list) == (how == "shape")]
            path = paths[pick % len(paths)]
            if how == "nan":
                _at(blob[key], path[:-1])[path[-1]] = float("nan")
            elif longer:
                _at(blob[key], path).append(_at(blob[key], path)[-1])
            else:
                _at(blob[key], path).pop()
    mutate.__name__ = f"{how} {key}"
    return mutate


# Commands that read a checkpoint, each as small as it runs.
CHECKPOINT_ARGV = (
    ("retrain-demo", "--checkpoint", "{path}"),
    ("run", "--duration-s", "1", "--set", "pairs=1", "--set", "intelligent=true",
     "--set", "checkpoint={path}"),
    ("compare", "--seeds", "1", "--disciplines", "codel", "--duration-s", "1",
     "--set", "pairs=1", "--set", "checkpoint={path}"),
)


def _refused(argv, path, tmp, workers):
    """`argv` naming the file `path` exits 2 with one `error:` line that
    names the file, before any worker runs and before its `--out` in `tmp`
    is made."""
    out = os.path.join(tmp, "out")
    del workers[:]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        rc = main(argv + ["--out", out])
    err = stderr.getvalue()
    assert rc == 2, err
    assert err.count("\n") == 1 and err.startswith("error:"), err
    assert path in err
    assert workers == []
    assert not os.path.exists(out), "a refused file left output behind"
    return err


# The trace one row past the bound (None) takes about 0.2 s to read, so it
# is drawn in a tenth of the draws, and always once.
@settings(max_examples=150)
@given(st.integers(0, 9).flatmap(lambda k: bad_traces() if k else st.just(None)))
@example(None)
def test_every_bad_trace_is_refused_in_one_line(files, workers, trace):
    with tempfile.TemporaryDirectory() as tmp:
        if trace is None:
            path = str(files["past"])
            named = f":{MAX_SYNTH_LENGTH + 1}: trace holds more than"
        else:
            text, named = trace
            path = os.path.join(tmp, "trace.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        err = _refused(["pretrain", "--trace", path, "--epochs", "1"], path, tmp, workers)
        # Refused at the faulty row, for its fault.
        assert path + named in err, err


@settings(max_examples=150)
@given(st.sampled_from(CHECKPOINT_ARGV), checkpoint_mutations())
def test_every_bad_checkpoint_is_refused_in_one_line(files, workers, argv, mutate):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "checkpoint.json")
        with open(files["good"], encoding="utf-8") as fh:
            blob = json.load(fh)
        mutate(blob)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(blob, fh)
        _refused([arg.format(path=path) for arg in argv], path, tmp, workers)
