"""Golden output digests: fixed (config, seed) pairs must keep every byte.

A refactor or speed-up of the simulator must leave `epochs.csv` and
`summary.csv` unchanged. The six runs below cover all three disciplines on
the fixed and the randomized topology, and three more the bottleneck with
propagation delay. The experiment files `sweep.csv`,
`compare.csv` and `fit_report.csv`, and the two files `retrain-demo` writes
from its model, are pinned on tiny runs, and the forecaster's trained
weights (a short fit plus retrain) and gradients (one BPTT pass, in float64
and in float32) on small models, at the end; the pins that rest on numpy's
matmul are kept per OpenBLAS core. At these settings a change of event
order among events that share a nanosecond changes some of the digests, so
the test catches it: scheduling a plain link's deliveries when each packet
arrives, not when it reaches the wire, moved five of them.

A change that alters outputs on purpose updates the digests here and says
why in CHANGES.md.
"""
import hashlib

import numpy as np
import pytest

from aqmsim.engine import MS
from aqmsim.harness import (compare_iaqm, pretrain_predictor, retrain_demo,
                            run_scenario, target_sweep, write_fit_report_csv)
from aqmsim.predictor import STEPS, FitReport, LstmForecaster, synth_trace
from aqmsim.scenario import ScenarioConfig
from helpers import blas_core, set_flat

SEED = 3
DURATION_S = 10

GOLDEN = {
    ("taildrop", False):
        "d21cf5a50fd00580c0d5f9fbddba33e2997900878e3a5dd2d11cf30c578f119b",
    ("codel", False):
        "9093a3aba063abe1f49eed977e8bd0a15e8de8f38f3a14e2c9162531deceb868",
    ("fq_codel", False):
        "347447c30dac68ae04c6fa1937a3150497b0e07efbb7a5d6f4422fd2bcb4888b",
    ("taildrop", True):
        "b952c2aef7e06c2b38b9ad82f8413bcba108241dcbf3b7b3e49443c6bdfb477c",
    ("codel", True):
        "352299b60f960e2dcc12c657369852719c3af43b0ccb3faaa53e25161827468a",
    ("fq_codel", True):
        "ed904e096a83511faef0054a571d1935a3716ba283b0c5243b9f95de2b43ae0a",
}

# The BLAS-dependent pins below are keyed by the OpenBLAS core they were
# taken on: cores round some products differently, so each core has its own
# digests, and a core with none fails (see on_core).


def on_core(pins: dict) -> str:
    """The digest in `pins` for the OpenBLAS core that numpy's matmul runs."""
    core = blas_core()
    if core not in pins:
        pytest.fail(f"no pin for OpenBLAS core {core}; pinned on {', '.join(pins)}")
    return pins[core]


# sha256 of `get_flat().tobytes()` after `fit` plus `retrain_one_epoch`, by
# (layers, hidden). Widths from 1 up are pinned, so that a one-column hidden
# state is covered as well as the usual sizes. Like the compare.csv pin,
# these rest on numpy's matmul, here in float32 (training's TRAIN_DTYPE), so
# they are taken with numpy 2.4's bundled OpenBLAS.
TRAINED_WEIGHTS = {
    (1, 5):
        {"SkylakeX": "94a592e9a9ec005f2a35ce8affa843129cefd8d08d7b9262e1a638cd30501871",
         "Haswell": "3c0b6e618f0fc9ddefa322f0c66b897df500f5df3477af1d82223241bd353391"},
    (2, 5):
        {"SkylakeX": "20bb7e399b8eed5f9efee7dc32cf908e8ccf6e66a0997b90f5521e717024b963",
         "Haswell": "1108dbc750219be9aa109c5895042014beba0381ae383d6c58b9967fdf5efcdb"},
    (3, 5):
        {"SkylakeX": "f9edd0becd892bcee235a6614c5420bfe145fd3a8848fd78de15dc1b152c7fa1",
         "Haswell": "5f9db81ab990391c88a31004f0db2f8857f1cbc265ab9fdb5801a99b1bcbc092"},
    (2, 1):
        {"SkylakeX": "344f15ed223f1163877eec6716efd003f651ac09056fd9efd8a8165c3df6f546",
         "Haswell": "46fec5d2305e3a7b8a985be0b380c874e50e1a4f47cde3375917098e6c34ab5f"},
    (3, 3):
        {"SkylakeX": "549ee58b184a9422e3ecb5e1eec7b9907f1df6a01954ca6808bfe5900858be6c",
         "Haswell": "f0401822b6a46ff5d6db5d3cc16adce144541dabc79b6bc7997f13bd031c019a"},
}

# sha256 of the loss, every gradient and the predictions of one BPTT pass
# over several batch sizes, by (layers, hidden); they catch a one-ulp
# gradient change that Adam's rounding can hide from the weights.
GRADIENTS = {
    (1, 3):
        {"SkylakeX": "24027322ab3fefcffe85055223f007a75d9be288f4f471fdea34be22e0ded2b6",
         "Haswell": "5da909dc455608cb26e022e3a2a87d27a9daee5b696ec8fa2444d6a4de5eb0ad"},
    (2, 1):
        {"SkylakeX": "01dd3a4d0b096df1416e5b64134d891ef926d7c97996d127a755ff056f6fa98a",
         "Haswell": "7a936c5115137e209ee3c1868a4bdfe9dba3a58680af02c269267114a75aa9cf"},
    (3, 3):
        {"SkylakeX": "e42f56de49e9b4b6270e897802be9a79fedf08625c67f48e9629499e73528e68",
         "Haswell": "c0a20201bb9d1ca7fd33d7589d436eb3e0925e76304347425cf4a60e90012062"},
    (3, 30):
        {"SkylakeX": "43c767dc5899339d6db6ce4693683fd77dd6098dd8d69a990d732e5b16febc74",
         "Haswell": "71b4245a7004706f738e6d656d89e35dfe03fde3c6dac7ddd5336bca14fe531e"},
}

# The same in float32, the dtype of training's steps, over batches of 64,
# 38, 229 and 1: the 38 and the 1 run on leading slices of the arrays the
# larger batch before them left in the model's scratch store.
GRADIENTS_F32 = {
    (1, 3):
        {"SkylakeX": "c40195822e268a27055dd58348343366116beae6c0217291a0c39ae5f75bd7e2",
         "Haswell": "e415b9ba2537a0893aa86c389e89c660822b91a5627c7888f2dda4de6b880e17"},
    (2, 1):
        {"SkylakeX": "2b677e987dc9e43b67b1250777bfabbcb849734510473193bfd5ee99b44b19f9",
         "Haswell": "a9315766b9bd9280b8f4b1e66546e4ca889a8f2f192620decb72eeadff5be730"},
    (3, 3):
        {"SkylakeX": "687d4ab51c542868f2af18f440ca4431dd0680a1596b865984b3c346cd3ab52e",
         "Haswell": "52a19f80412626a730869584629398bc6a58758a4b7d4dc0a8cda49364e1f931"},
    (3, 30):
        {"SkylakeX": "1397e180724fbb7916170ddca44516291a9c4eb250edb541447f2f4bd58147d0",
         "Haswell": "51e2694d72481a947b8fa9dec32f332573f53315b148bbcedfc08aaaa1b3e59d"},
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


# The bottleneck with propagation delay: an unchained `EgressPort`, whose
# `_kick` wakeups no pin above reaches, at a small hard limit so that every
# discipline overflows. The port arms its wakeup from the count of packets
# its queue holds, which an overflow drop must leave as it is: a count that
# fell below the packets held would idle the port with packets waiting.
UNCHAINED = {
    "taildrop": "24a1a2a9424b5fa471885f468ce1ebd8d2a7dc1c91cc95688a658b34eeaf42e5",
    "codel": "fbce70fc2ae3f19fa99b94249d20a0bcc9730e540749e59e55f934192f813d8c",
    "fq_codel": "b49bc5027486e43b0979c5ad3aeceebf267ab785b96402a3067aee69d0613cf9",
}


@pytest.mark.parametrize("disc", sorted(UNCHAINED))
def test_unchained_bottleneck_digest_unchanged(tmp_path, disc):
    cfg = ScenarioConfig(disc=disc, duration_s=5, bottleneck_prop_ns=5 * MS,
                         hard_limit=60)
    run_scenario(cfg, SEED, tmp_path)
    assert output_digest(tmp_path) == UNCHAINED[disc]


def file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# The benchmark's two dumbbell workloads at their full 30 s and seed 1, run
# through the harness: sha256 of (epochs.csv, summary.csv). The intelligent
# one loads a 1-epoch checkpoint trained on the 6,000-interval synthetic
# trace of seed 1234 from model seed 7, so like the compare.csv pin it is
# taken with numpy 2.4's bundled OpenBLAS, per core (at present both cores
# give the same bytes). A change that moves these bytes fails here, before
# a benchmark run would reject it.
BENCHMARK_WORKLOADS = {
    "fq_codel": (
        "b2676ecc2c6e3986b5b44d51561b5bd8b41beedb1f609172baf9f12e2a59d0a0",
        "93b905e2a8a44de98e9e3d7f63b134ee01d95b7b34d704a41af68b531714ab61"),
    "codel_intelligent": {
        "SkylakeX": (
            "b0152a26870582bb09f8b1798f8a4058ac1bae9b93cd6f412fb74e66fdc942eb",
            "f0f6524102b88cab55b9fa9c7130b4d516c193a0a2e2c994185f5fc728140fb1"),
        "Haswell": (
            "b0152a26870582bb09f8b1798f8a4058ac1bae9b93cd6f412fb74e66fdc942eb",
            "f0f6524102b88cab55b9fa9c7130b4d516c193a0a2e2c994185f5fc728140fb1")},
}


@pytest.mark.parametrize("workload", sorted(BENCHMARK_WORKLOADS))
def test_benchmark_workload_digests_unchanged(tmp_path, workload):
    if workload == "fq_codel":
        cfg = ScenarioConfig(duration_s=30, disc="fq_codel")
        expected = BENCHMARK_WORKLOADS[workload]
    else:
        expected = on_core(BENCHMARK_WORKLOADS[workload])
        ckpt = tmp_path / "checkpoint.json"
        pretrain_predictor(ckpt, synth_seed=1234, length=6000, epochs=1,
                           model_seed=7)
        cfg = ScenarioConfig(duration_s=30, disc="codel", intelligent=True,
                             retrain_at_s=6, checkpoint=str(ckpt))
    run_scenario(cfg, 1, tmp_path)
    assert (file_digest(tmp_path / "epochs.csv"),
            file_digest(tmp_path / "summary.csv")) == expected


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
    assert file_digest(tmp_path / "cmp" / "compare.csv") == on_core({
        "SkylakeX": "8867d725735d158aa600892b0ec956d6808c61f3f71380245ab118802f952a1c",
        "Haswell": "8867d725735d158aa600892b0ec956d6808c61f3f71380245ab118802f952a1c"})


def test_fit_report_csv_digest_unchanged(tmp_path):
    # Hand-built, so that the pin does not depend on the BLAS in use.
    report = FitReport(rmse_train=0.1234567, rmse_test=float("nan"),
                       mae_train=1.0000005, mae_test=12.5, epochs=100, split=0.8,
                       n_train_windows=4790, n_test_windows=1200)
    write_fit_report_csv(report, tmp_path / "fit_report.csv")
    assert file_digest(tmp_path / "fit_report.csv") == (
        "da07aa0bccc2d747358769f489a4b72d08db5d85abd7287f1901a6176b35cb21")


def test_retrain_demo_digests_unchanged(tmp_path):
    """The retrained weights and their fit report, from the transfer
    workflow on a tiny random topology. Like the compare.csv pin, this rests
    on numpy's matmul, so it is taken with numpy 2.4's bundled OpenBLAS, per
    core."""
    ckpt = tmp_path / "tiny.json"
    pretrain_predictor(ckpt, synth_seed=3, length=150, epochs=1, layers=1, hidden=4)
    cfg = ScenarioConfig(pairs=2, duration_s=6, random_topology=True,
                         bottleneck_bw_bps=10 * 10**6)
    retrain_demo(cfg, ckpt, tmp_path / "demo", seed=1)
    assert file_digest(tmp_path / "demo" / "fit_report.csv") == on_core({
        "SkylakeX": "ff4b6019f1dafb5a1bcaa98d42bc42ad0dcd7b7fb4eb8a4488afc3a042cd13e4",
        "Haswell": "ff4b6019f1dafb5a1bcaa98d42bc42ad0dcd7b7fb4eb8a4488afc3a042cd13e4"})
    assert file_digest(tmp_path / "demo" / "retrained.json") == on_core({
        "SkylakeX": "d9dd5f238c6e9b769efb7ec82ebb86bf26af5879b89779fef1e140bf9ec7f3d9",
        "Haswell": "aae9722e1c736511fd091bc4d43974c5d7d8af32163dd3a77e510e5c0951dddb"})


def _trained_weights_digest(layers: int, hidden: int) -> str:
    model = LstmForecaster(steps=STEPS, layers=layers, hidden=hidden, seed=11)
    # 230 training windows: three full mini-batches of 64 and a ragged 38.
    model.fit(synth_trace(21, 300).counts, epochs=3)
    # 150 windows: 64, 64 and a ragged 22, on a different series.
    model.retrain_one_epoch(synth_trace(22, 200, lam=35.0).counts)
    return hashlib.sha256(model.get_flat().tobytes()).hexdigest()


@pytest.mark.parametrize("layers,hidden", sorted(TRAINED_WEIGHTS))
def test_trained_weights_unchanged(layers, hidden):
    # Dropout is on (the default 0.2); 15 Adam steps in all, so a one-ulp
    # change in any parameter, b_out included, changes the digest.
    assert (_trained_weights_digest(layers, hidden)
            == on_core(TRAINED_WEIGHTS[(layers, hidden)]))


def _gradient_digest(layers: int, hidden: int, dtype=np.float64,
                     batches=(1, 38, 64, 229)) -> str:
    rng = np.random.default_rng(5)
    model = LstmForecaster(steps=STEPS, layers=layers, hidden=hidden, seed=11)
    theta = model.get_flat()
    set_flat(model, theta + 0.5 * rng.standard_normal(theta.size))
    h = hashlib.sha256()
    for batch in batches:
        X = (3.0 * rng.random((batch, STEPS))).astype(dtype)
        y = rng.random(batch).astype(dtype)
        loss, grads = model.loss_and_gradients(X, y, model._draw_masks(batch))
        h.update(np.float64(loss).tobytes())
        for g in grads:
            h.update(g.tobytes())
        yhat, _, _ = model._forward(X)
        h.update(yhat.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("layers,hidden", sorted(GRADIENTS))
def test_gradients_unchanged(layers, hidden):
    assert _gradient_digest(layers, hidden) == on_core(GRADIENTS[(layers, hidden)])


@pytest.mark.parametrize("layers,hidden", sorted(GRADIENTS_F32))
def test_float32_gradients_unchanged(layers, hidden):
    assert (_gradient_digest(layers, hidden, np.float32, (64, 38, 229, 1))
            == on_core(GRADIENTS_F32[(layers, hidden)]))
