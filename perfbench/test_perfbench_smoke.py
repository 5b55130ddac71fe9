"""Smoke test of the benchmark runner's output schema at tiny sizes.

Checks that the last stdout line carries exactly the result keys and, per
mode, exactly the metrics BENCHMARK.json declares, with their units.
"""
import json
import os

import pytest

import run
from workloads import make_workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture
def tiny(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path / "work"))
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path / "out"))
    return make_workloads(sim_s=2, epochs=1, trace_len=300, retrain_at_s=1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_schema(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, workloads=tiny, setup_probes=1) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == run.MIN_REPEATS + trace * run.TRACED_REPEATS
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_refuses_checkout_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "PKG", str(tmp_path / "src" / "aqmsim"))
    argv = ["--workload", "pretrain_lstm", "--seconds", "0"]
    assert run.main(argv) == 2
    assert capsys.readouterr().out == ""
