"""Golden output digests: fixed (config, seed) pairs must keep every byte.

A refactor or speed-up of the simulator must leave `epochs.csv` and
`summary.csv` unchanged. The six runs below cover all three disciplines on
the fixed and the randomized topology. The experiment files `sweep.csv`,
`compare.csv` and `fit_report.csv` are pinned on tiny runs at the end. At these settings a change of event
order among events that share a nanosecond (for example scheduling each
hop's delivery when the packet arrives instead of when it starts
transmission) changes some of the digests, so the test catches it.

A change that alters outputs on purpose updates the digests here and says
why in CHANGES.md.
"""
import hashlib

import pytest

from aqmsim.harness import (compare_iaqm, pretrain_predictor, run_scenario,
                            target_sweep, write_fit_report_csv)
from aqmsim.predictor import FitReport
from aqmsim.scenario import ScenarioConfig

SEED = 3
DURATION_S = 10

GOLDEN = {
    ("taildrop", False):
        "5b09ed1c27cedaa7ffc1a4c858275a8d183dc6985c878d5bbe81c36616c0fbca",
    ("codel", False):
        "c8fe039f755177ecad7a4a018a136870fcdfd516c05d7be4ecb297bb4b8b06c1",
    ("fq_codel", False):
        "347447c30dac68ae04c6fa1937a3150497b0e07efbb7a5d6f4422fd2bcb4888b",
    ("taildrop", True):
        "e2b15dda8cfce433fa6bd437665d4ff5bd9e58d3226f88a7645f0ae45a408305",
    ("codel", True):
        "352299b60f960e2dcc12c657369852719c3af43b0ccb3faaa53e25161827468a",
    ("fq_codel", True):
        "ed904e096a83511faef0054a571d1935a3716ba283b0c5243b9f95de2b43ae0a",
}


def output_digest(outdir) -> str:
    h = hashlib.sha256()
    for name in ("epochs.csv", "summary.csv"):
        h.update((outdir / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("disc,random_topology", sorted(GOLDEN))
def test_output_digest_unchanged(tmp_path, disc, random_topology):
    cfg = ScenarioConfig(disc=disc, random_topology=random_topology,
                         duration_s=DURATION_S)
    run_scenario(cfg, SEED, tmp_path)
    assert output_digest(tmp_path) == GOLDEN[(disc, random_topology)]


def file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sweep_csv_digest_unchanged(tmp_path):
    target_sweep(ScenarioConfig(pairs=2), tmp_path, targets_ms=(1.0, 4.0),
                 seeds=(1,), duration_s=2, jobs=1)
    assert file_digest(tmp_path / "sweep.csv") == (
        "03bebc4a8bac81491568d15594a57bc7987fb7519581367c17f8b968c248d78c")


def test_compare_csv_digest_unchanged(tmp_path):
    ckpt = tmp_path / "tiny.json"
    pretrain_predictor(ckpt, synth_seed=3, length=150, epochs=1, layers=1, hidden=4)
    cfg = ScenarioConfig(pairs=2, duration_s=4, checkpoint=str(ckpt), retrain_at_s=0)
    compare_iaqm(cfg, tmp_path / "cmp", seeds=(1, 2), jobs=1)
    assert file_digest(tmp_path / "cmp" / "compare.csv") == (
        "8867d725735d158aa600892b0ec956d6808c61f3f71380245ab118802f952a1c")


def test_fit_report_csv_digest_unchanged(tmp_path):
    # Hand-built, so that the pin does not depend on the BLAS in use.
    report = FitReport(rmse_train=0.1234567, rmse_test=float("nan"),
                       mae_train=1.0000005, mae_test=12.5, epochs=100, split=0.8,
                       n_train_windows=4790, n_test_windows=1200)
    write_fit_report_csv(report, tmp_path / "fit_report.csv")
    assert file_digest(tmp_path / "fit_report.csv") == (
        "da07aa0bccc2d747358769f489a4b72d08db5d85abd7287f1901a6176b35cb21")
