import json
import math
import warnings

import numpy as np
import pytest

from aqmsim.predictor import (BATCH_SIZE, EceSeries, LstmForecaster, _sigmoid,
                              build_windows, denormalize, ingest_trace,
                              load_checkpoint, mae, neurons_per_layer, normalize,
                              rmse, save_checkpoint, synth_trace)
from helpers import set_flat, stationary_off_probability, traced_peak, write_trace


class TestNeuronSizing:
    def test_reference_configuration(self):
        assert neurons_per_layer(10, 6000, 3) == 30

    def test_tiny(self):
        assert neurons_per_layer(1, 1, 1) == 2

    def test_exact_division(self):
        assert neurons_per_layer(10, 100, 2) == 10

    def test_rejects_nonpositive(self):
        for bad in ((0, 10, 1), (10, 0, 1), (10, 10, 0)):
            with pytest.raises(ValueError):
                neurons_per_layer(*bad)


class TestWindows:
    def test_eleven_samples_single_window(self):
        X, y = build_windows(np.arange(11))
        assert X.shape == (1, 10)
        assert list(X[0]) == list(range(10))
        assert list(y) == [10]

    def test_twelve_samples_two_windows(self):
        X, y = build_windows(np.arange(12))
        assert X.shape == (2, 10)
        assert y.shape == (2,)

    def test_too_short_errors(self):
        with pytest.raises(ValueError):
            build_windows(np.arange(10))

    def test_matches_bruteforce_slices(self):
        # Lengths from the one-window minimum up; a float64 series is viewed,
        # never copied, and the windows are read-only.
        rng = np.random.default_rng(11)
        lengths = [11, 75, 6000] + [int(n) for n in rng.integers(11, 200, size=100)]
        for n in lengths:
            series = rng.integers(0, 50, size=n)
            X, y = build_windows(series)
            assert X.shape == (n - 10, 10)
            assert np.array_equal(X, [series[r:r + 10] for r in range(n - 10)])
            assert np.array_equal(y, [series[r + 10] for r in range(n - 10)])
            floats = series.astype(np.float64)
            X, y = build_windows(floats)
            assert np.shares_memory(X, floats) and np.shares_memory(y, floats)
            assert not X.flags.writeable

    def test_shift_consumes_one_sample(self):
        series = np.arange(30)
        X, _ = build_windows(series)
        for r in range(len(X) - 1):
            assert list(X[r + 1][:-1]) == list(X[r][1:])


class TestNormalization:
    def test_endpoints(self):
        out = normalize([0, 5, 10], 0, 10)
        assert list(out) == [0.0, 0.5, 1.0]

    def test_round_trip(self):
        vals = np.array([3.0, 17.5, 42.0, 8.25])
        back = denormalize(normalize(vals, 3.0, 42.0), 3.0, 42.0)
        assert np.allclose(back, vals, rtol=1e-9)

    def test_constant_series_degenerates_to_zero(self):
        assert list(normalize([4, 4, 4], 4, 4)) == [0.0, 0.0, 0.0]

    def test_out_of_bounds_not_clipped(self):
        out = normalize([20], 0, 10)
        assert out[0] == 2.0
        out = normalize([-5], 0, 10)
        assert out[0] == -0.5


class TestErrorScores:
    def test_identical_vectors_zero(self):
        assert rmse([1, 2, 3], [1, 2, 3]) == 0.0
        assert mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_hand_computed(self):
        assert rmse([0, 1], [1, 1]) == pytest.approx(math.sqrt(0.5))
        assert mae([0, 1], [1, 1]) == pytest.approx(0.5)

    def test_single_element(self):
        assert rmse([0.0], [0.08]) == pytest.approx(0.08)
        assert mae([0.0], [0.08]) == pytest.approx(0.08)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse([1, 2], [1])
        with pytest.raises(ValueError):
            mae([], [])


class TestForward:
    def test_zero_network_outputs_zero(self):
        m = LstmForecaster(steps=10, layers=3, hidden=4, seed=3)
        for p in m.param_list():
            p[...] = 0.0
        m.b_out = 0.0
        assert m.predict_window(np.linspace(0, 1, 10)) == 0.0

    def test_inference_deterministic(self):
        m = LstmForecaster(steps=10, layers=3, hidden=8, seed=5)
        w = np.linspace(0.1, 0.9, 10)
        assert m.predict_window(w) == m.predict_window(w)

    def test_matches_hand_recurrence(self):
        """1 layer, 2 neurons, 2 steps against a scalar-loop oracle."""
        m = LstmForecaster(steps=2, layers=1, hidden=2, dropout=0.0, seed=9)
        wx = np.array([[0.1], [-0.2], [0.3], [0.05], [-0.15], [0.25], [0.4], [-0.3]])
        wh = np.array([
            [0.05, -0.1], [0.2, 0.15], [-0.25, 0.1], [0.3, -0.05],
            [0.12, 0.07], [-0.18, 0.22], [0.09, -0.11], [0.21, 0.02],
        ])
        b = np.array([0.01, -0.02, 0.03, 0.04, 1.0, 1.0, -0.01, 0.02])
        w_out = np.array([0.5, -0.6])
        m.Wx[0][...] = wx
        m.Wh[0][...] = wh
        m.b[0][...] = b
        m.w_out[...] = w_out
        m.b_out = 0.123
        x_seq = [0.4, -0.7]

        def sig(v):
            return 1.0 / (1.0 + math.exp(-v))

        h = [0.0, 0.0]
        c = [0.0, 0.0]
        for x in x_seq:
            zi = [wx[n][0] * x + wh[n][0] * h[0] + wh[n][1] * h[1] + b[n] for n in range(2)]
            zf = [wx[2 + n][0] * x + wh[2 + n][0] * h[0] + wh[2 + n][1] * h[1] + b[2 + n] for n in range(2)]
            zg = [wx[4 + n][0] * x + wh[4 + n][0] * h[0] + wh[4 + n][1] * h[1] + b[4 + n] for n in range(2)]
            zo = [wx[6 + n][0] * x + wh[6 + n][0] * h[0] + wh[6 + n][1] * h[1] + b[6 + n] for n in range(2)]
            for n in range(2):
                i_g = sig(zi[n])
                f_g = sig(zf[n])
                g_g = math.tanh(zg[n])
                o_g = sig(zo[n])
                c[n] = f_g * c[n] + i_g * g_g
                h[n] = o_g * math.tanh(c[n])
        expected = w_out[0] * h[0] + w_out[1] * h[1] + 0.123
        assert m.predict_window(x_seq) == pytest.approx(expected, abs=1e-12)


class TestSigmoid:
    def test_saturates_silently_and_matches_the_logistic(self):
        z = np.concatenate([[-1000.0, 1000.0], np.linspace(-40.0, 40.0, 8001)])
        out = np.empty_like(z)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _sigmoid(z, out)
        assert ((out >= 0.0) & (out <= 1.0)).all()
        assert (out[0], out[1]) == (0.0, 1.0)
        grid = z[2:]
        assert np.abs(out[2:] - 1.0 / (1.0 + np.exp(-grid))).max() <= 1e-15


class TestGradients:
    def test_bptt_matches_central_differences(self):
        m = LstmForecaster(steps=4, layers=2, hidden=3, dropout=0.0, seed=21)
        rng = np.random.default_rng(77)
        X = rng.random((3, 4))
        y = rng.random(3)
        _, grads = m.loss_and_gradients(X, y)
        flat_grad = np.concatenate([g.ravel() for g in grads])
        theta = m.get_flat()
        h = 1e-5
        idx = rng.choice(theta.size, size=25, replace=False)
        for i in idx:
            step = np.zeros_like(theta)
            step[i] = h
            set_flat(m, theta + step)
            lp, _ = m.loss_and_gradients(X, y)
            set_flat(m, theta - step)
            lm, _ = m.loss_and_gradients(X, y)
            set_flat(m, theta)
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(flat_grad[i]), 1e-8)
            assert abs(fd - flat_grad[i]) / denom < 1e-4, f"param {i}: {fd} vs {flat_grad[i]}"

    def test_gradcheck_multiple_random_points(self):
        rng = np.random.default_rng(123)
        m = LstmForecaster(steps=3, layers=1, hidden=2, dropout=0.0, seed=4)
        X = rng.random((2, 3))
        y = rng.random(2)
        theta0 = m.get_flat()
        checked = 0
        for point in range(5):
            set_flat(m, theta0 + 0.3 * rng.standard_normal(theta0.size))
            base = m.get_flat()
            _, grads = m.loss_and_gradients(X, y)
            flat_grad = np.concatenate([g.ravel() for g in grads])
            h = 1e-5
            for i in rng.choice(base.size, size=4, replace=False):
                step = np.zeros_like(base)
                step[i] = h
                set_flat(m, base + step)
                lp, _ = m.loss_and_gradients(X, y)
                set_flat(m, base - step)
                lm, _ = m.loss_and_gradients(X, y)
                set_flat(m, base)
                fd = (lp - lm) / (2 * h)
                denom = max(abs(fd), abs(flat_grad[i]), 1e-8)
                assert abs(fd - flat_grad[i]) / denom < 1e-4
                checked += 1
        assert checked >= 20


class TestPrecision:
    """Training steps run in float32 against float64 weights (TRAIN_DTYPE)."""

    def test_float32_step_agrees_with_float64(self):
        # One step of the default 3 x 30 model with dropout, in float32 and
        # in float64 on the same batch and masks: a full batch, then a
        # ragged one after the weights move, so that a float32 copy of the
        # weights that is not refreshed shows. Measured: 1.3e-7 at most.
        series = synth_trace(1, 400).counts
        m = LstmForecaster(seed=7)
        X, y = build_windows(normalize(series, series.min(), series.max()))
        rng = np.random.default_rng(9)
        for batch in (BATCH_SIZE, 38):
            xb, yb = X[:batch], y[:batch]
            masks = m._draw_masks(batch)
            g64 = np.empty(m.get_flat().size)
            g32 = np.empty(g64.size, np.float32)
            loss64, _ = m.loss_and_gradients(xb, yb, masks, out=g64)
            loss32, _ = m.loss_and_gradients(xb.astype(np.float32),
                                             yb.astype(np.float32), masks, out=g32)
            assert abs(loss32 - loss64) <= 1e-5 * loss64
            gap = np.linalg.norm(g32 - g64) / np.linalg.norm(g64)
            assert gap <= 1e-5, f"batch {batch}: float32 gradient off by {gap:.2e}"
            set_flat(m, m.get_flat() + 0.05 * rng.standard_normal(g64.size))

    def test_training_step_keeps_only_float32_scratch(self, monkeypatch):
        # An input left in float64 (the masks or a bias, say) would widen
        # the step's arrays to float64: still correct, but no faster.
        m = LstmForecaster(seed=7)
        step = m.loss_and_gradients
        seen = []

        def recording(*args, **kwargs):
            result = step(*args, **kwargs)
            seen.append({arr.dtype for arr in m._scratch.values()})
            return result

        monkeypatch.setattr(m, "loss_and_gradients", recording)
        # 230 training windows: three batches of 64 and a ragged 38.
        m.retrain_one_epoch(synth_trace(1, 300).counts)
        assert seen == [{np.dtype(np.float32)}] * 4


class TestScratch:
    """The arrays a pass writes are kept in `_scratch` at the largest batch
    seen, and a smaller batch works on their leading slices."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_smaller_batch_after_larger_matches_fresh_model(self, dtype):
        # After a batch of 64, a batch of 38 runs on slices of the 64-row
        # slabs, whose (T, B, ·) stacks are not contiguous: a stacked
        # product written through a reshaped copy of one would be lost.
        series = synth_trace(1, 400).counts
        X, y = build_windows(normalize(series, series.min(), series.max()).astype(dtype))
        used, fresh = LstmForecaster(seed=7), LstmForecaster(seed=7)
        used.loss_and_gradients(X[:BATCH_SIZE], y[:BATCH_SIZE],
                                used._draw_masks(BATCH_SIZE))
        xb, yb = X[BATCH_SIZE:BATCH_SIZE + 38], y[BATCH_SIZE:BATCH_SIZE + 38]
        masks = fresh._draw_masks(38)
        results = []
        for m in (used, fresh):
            loss, grads = m.loss_and_gradients(xb, yb, masks)
            results.append((loss, [g.tobytes() for g in grads],
                            m._forward(xb)[0].tobytes()))
        assert results[0] == results[1]

    @pytest.mark.parametrize("layers", [1, 3])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_slabs_predict_as_the_cache_does(self, dtype, layers):
        # A pass that keeps the BPTT cache and one that only predicts run
        # the same cell step, on per-layer slabs and on slabs the layers
        # share. A full batch, then a ragged one on slices of its slabs.
        series = synth_trace(1, 400).counts
        X, _ = build_windows(normalize(series, series.min(), series.max()).astype(dtype))
        m = LstmForecaster(layers=layers, seed=7)
        for xb in (X[:BATCH_SIZE], X[BATCH_SIZE:BATCH_SIZE + 38]):
            cached = m._forward(xb, keep_cache=True)[0]
            shared = m._forward(xb)[0]
            assert shared.dtype == dtype
            assert shared.tobytes() == cached.tobytes()

    def test_training_scratch_bounded(self):
        # One batch-64 training step of the default 3 x 30 model keeps
        # 2,746,684 bytes: each layer's forward cache, one slab of the
        # dropout-masked layer inputs and one set of BPTT slabs that the
        # layers share. A per-layer copy of the masked inputs (76,800 bytes),
        # the dz slab (307,200) or the weight-gradient products (144,000)
        # would show in the benchmark's peak RSS, and fails here.
        series = synth_trace(1, 400).counts
        X, y = build_windows(normalize(series, series.min(), series.max())
                             .astype(np.float32))
        m = LstmForecaster()
        m.loss_and_gradients(X[:BATCH_SIZE], y[:BATCH_SIZE], m._draw_masks(BATCH_SIZE),
                             out=np.empty(m.get_flat().size, np.float32))
        assert sum(arr.nbytes for arr in m._scratch.values()) <= 2_746_684


class TestTraining:
    def test_training_beats_untrained(self):
        series = synth_trace(31, 400).counts
        fresh = LstmForecaster(steps=10, layers=2, hidden=8, seed=2)
        fresh.norm_min = float(series[:320].min())
        fresh.norm_max = float(series[:320].max())
        norm = normalize(series, fresh.norm_min, fresh.norm_max)
        X, y = build_windows(norm)
        n_train = fresh._split_rows(len(series))
        pred0, _, _ = fresh._forward(X[n_train:])
        rmse0 = rmse(y[n_train:], pred0)
        report = fresh.fit(series, epochs=10)
        assert report.rmse_test < rmse0

    def test_zero_epochs_leaves_model_unchanged(self):
        series = synth_trace(8, 120).counts
        m = LstmForecaster(steps=10, layers=2, hidden=5, seed=6)
        theta0 = m.get_flat().copy()
        report = m.fit(series, epochs=0)
        assert np.array_equal(m.get_flat(), theta0)
        assert report.epochs == 0
        assert math.isfinite(report.rmse_train)

    def test_negative_epochs_rejected(self):
        m = LstmForecaster(steps=10, layers=1, hidden=3, seed=1)
        theta0 = m.get_flat()
        with pytest.raises(ValueError, match="epochs"):
            m.fit(synth_trace(8, 120).counts, epochs=-3)
        assert np.array_equal(m.get_flat(), theta0)

    def test_series_without_training_window_rejected_by_every_entry(self):
        # 12 samples at 10 steps give two windows, but the first 80% (9
        # samples) hold none, so there is nothing to train or score on.
        m = LstmForecaster(steps=10, layers=1, hidden=4, seed=1)
        theta0 = m.get_flat().copy()
        bounds0 = (m.norm_min, m.norm_max)
        for call in (lambda c: m.fit(c, epochs=1), m.retrain_one_epoch,
                     lambda c: m.score(c, 0)):
            with pytest.raises(ValueError, match="12-sample series has no complete "
                                                 "10-step window"):
                call(np.arange(12.0))
        assert np.array_equal(m.get_flat(), theta0)
        assert (m.norm_min, m.norm_max) == bounds0

    def test_report_pass_bounded_by_the_batch(self):
        # The end-of-fit report of the default model on 5,990 windows (the
        # 6,000-sample default trace) runs in batch-sized slices on slabs
        # that the layers share, so it peaks below the one-epoch retrain on
        # the same series (1.6 MB against 3.6 MB) and never sets fit's peak.
        # With a per-layer BPTT cache it peaked above it (4.2 MB against
        # 3.8 MB), and scored in one pass with that cache at 368 MB. A
        # forecast peaks below what the per-layer cache of its one window
        # alone takes (44 kB against 59 kB; with the cache, 69 kB). The
        # scratch arrays are emptied when each returns.
        series = synth_trace(1, 6000).counts
        m = LstmForecaster(steps=10, layers=3, hidden=30, seed=7)
        report, peak = traced_peak(m.fit, series, epochs=0)
        assert report.n_train_windows + report.n_test_windows == 5990
        assert peak < 8e6, f"report pass peaked at {peak / 1e6:.1f} MB"
        assert m._scratch == {}
        _, retrain_peak = traced_peak(m.retrain_one_epoch, series)
        assert peak < retrain_peak, (f"report pass peaked at {peak / 1e6:.2f} MB, "
                                     f"the retrain at {retrain_peak / 1e6:.2f} MB")
        _, forecast_peak = traced_peak(m.predict_next_count, series[-10:])
        T, H = m.steps, m.hidden
        cache_bytes = m.layers * 8 * (T * 4 * H + 2 * T * H + 2 * (T + 1) * H)
        assert forecast_peak < cache_bytes, f"a forecast peaked at {forecast_peak} bytes"
        assert m._scratch == {}

    def test_retrain_allocates_no_report(self):
        # The control loop's retrain: one epoch of the default model on
        # 6,000 bins, whose last batch is ragged (74 x 64 + 54 windows).
        # Training keeps one set of step arrays; a second set for the ragged
        # batch peaked at 10 MB, and scoring every window as well at 60 MB.
        series = synth_trace(1, 6000).counts
        m = LstmForecaster(steps=10, layers=3, hidden=30, seed=7)
        _, peak = traced_peak(m.retrain_one_epoch, series)
        assert peak < 8e6, f"retrain peaked at {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("hidden", [3, 30])
    def test_score_in_slices_matches_one_pass_per_split(self, hidden, monkeypatch):
        # 254 samples: 244 windows, the first 193 in the training split, so
        # one slice straddles the split and the last is ragged (52 rows).
        series = synth_trace(2, 254).counts
        m = LstmForecaster(steps=10, layers=3, hidden=hidden, seed=7)
        m._set_bounds(series.astype(np.float64))
        X, y = build_windows(normalize(series, m.norm_min, m.norm_max))
        n_train = m._split_rows(len(series))
        assert (n_train, len(X)) == (193, 244)
        forward = m._forward
        slices, preds = [], []

        def recording(Xb, *args, **kwargs):
            out = forward(Xb, *args, **kwargs)
            slices.append(np.array(Xb))
            preds.append(out[0])
            return out

        monkeypatch.setattr(m, "_forward", recording)
        report = m.score(series, epochs=0)
        assert all(1 <= len(rows) <= BATCH_SIZE for rows in slices)
        assert np.array_equal(np.concatenate(slices), X)
        pred = np.concatenate(preds)
        assert (report.rmse_train, report.mae_train) == (rmse(y[:n_train], pred[:n_train]),
                                                         mae(y[:n_train], pred[:n_train]))
        assert (report.rmse_test, report.mae_test) == (rmse(y[n_train:], pred[n_train:]),
                                                       mae(y[n_train:], pred[n_train:]))
        assert np.abs(pred - forward(X)[0]).max() <= 1e-12

    def test_training_is_deterministic(self):
        series = synth_trace(12, 150).counts
        reports = []
        for _ in range(2):
            m = LstmForecaster(steps=10, layers=2, hidden=5, seed=14)
            reports.append(m.fit(series, epochs=3))
        assert reports[0].rmse_test == reports[1].rmse_test

    def test_retrain_on_same_data_does_not_regress(self):
        series = synth_trace(3, 300).counts
        m = LstmForecaster(steps=10, layers=2, hidden=6, seed=8)
        report = m.fit(series, epochs=15)
        m.retrain_one_epoch(series)
        again = m.score(series, epochs=1)
        assert again.rmse_test <= report.rmse_test + 1e-3
        assert again.epochs == 1

    def test_retrain_on_shifted_distribution(self):
        base = synth_trace(5, 300).counts
        m = LstmForecaster(steps=10, layers=2, hidden=6, seed=8)
        m.fit(base, epochs=10)
        shifted = synth_trace(6, 300, lam=60.0, p_on_stay=0.8).counts
        norm = normalize(shifted, float(shifted[:240].min()), float(shifted[:240].max()))
        X, y = build_windows(norm)
        n_train = m._split_rows(len(shifted))
        pred, _, _ = m._forward(X[n_train:])
        before = rmse(y[n_train:], pred)
        m.retrain_one_epoch(shifted)
        report = m.score(shifted, epochs=1)
        assert math.isfinite(report.rmse_test)
        assert report.rmse_test <= 2 * before

    def test_retrain_empty_series_errors(self):
        m = LstmForecaster(steps=10, layers=1, hidden=3, seed=1)
        with pytest.raises(ValueError):
            m.retrain_one_epoch(np.array([], dtype=np.float64))


class TestTraces:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("0,0\n1,3\n2,0\n")
        series = ingest_trace(path)
        assert list(series.counts) == [0, 3, 0]

    def test_write_then_ingest(self, tmp_path):
        series = synth_trace(4, 50)
        path = tmp_path / "t.csv"
        write_trace(series, path)
        back = ingest_trace(path)
        assert np.array_equal(back.counts, series.counts)

    def test_malformed_rows_rejected(self, tmp_path):
        for body in ("0,1,2\n", "0,x\n", "1,5\n", "0,5\n2,1\n", "0,-3\n"):
            path = tmp_path / "bad.csv"
            path.write_text(body)
            with pytest.raises(ValueError):
                ingest_trace(path)

    def test_never_on_gives_all_zero(self):
        series = synth_trace(9, 200, p_on_enter=0.0)
        assert series.counts.sum() == 0

    def test_zero_fraction_tracks_off_probability(self):
        series = synth_trace(7, 6000)
        off = stationary_off_probability(0.05, 0.90)
        zeros = float((series.counts == 0).mean())
        assert abs(zeros - off) < 0.05

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            EceSeries(counts=np.array([1, -1]))


class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        series = synth_trace(2, 200).counts
        m = LstmForecaster(steps=10, layers=2, hidden=6, seed=13)
        m.fit(series, epochs=2)
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        w = np.linspace(0, 1, 10)
        assert back.predict_window(w) == m.predict_window(w)
        assert back.norm_min == m.norm_min and back.norm_max == m.norm_max
        assert np.array_equal(back.get_flat(), m.get_flat())

    @pytest.mark.parametrize("field,corrupt", [
        ("b_out", lambda blob: float("-inf")),
        ("norm_min", lambda blob: 10 ** 400),
        ("Wh", lambda blob: [[[float("nan")] + blob["Wh"][0][0][1:]] + blob["Wh"][0][1:]]
                            + blob["Wh"][1:]),
    ], ids=["inf-number", "huge-integer", "nan-layer-array"])
    def test_non_finite_field_refused_by_name(self, tmp_path, field, corrupt):
        # json reads NaN, Infinity and integers too large for a float;
        # tests/test_cli.py refuses a NaN norm_max and an infinite w_out entry
        # under every command that loads a checkpoint.
        path = tmp_path / "model.json"
        save_checkpoint(LstmForecaster(layers=2, hidden=3, seed=1), path)
        blob = json.loads(path.read_text())
        blob[field] = corrupt(blob)
        path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="finite") as exc:
            load_checkpoint(path)
        assert str(path) in str(exc.value) and repr(field) in str(exc.value)

    def test_oversized_hidden_refused_before_the_model_is_built(self, tmp_path):
        # A 10 kB file that declares hidden = 1500 for one layer, with a
        # matching w_out: the model's Wh alone would be 4 x 1500^2 floats
        # (72 MB). The arrays are checked against the declared sizes first.
        path = tmp_path / "big.json"
        save_checkpoint(LstmForecaster(layers=1, hidden=4, seed=1), path)
        blob = json.loads(path.read_text())
        blob["hidden"] = 1500
        blob["w_out"] = [0.0] * 1500
        path.write_text(json.dumps(blob))

        def load():
            with pytest.raises(ValueError, match=r"'Wx' \(layer 0\) has shape") as exc:
                load_checkpoint(path)
            return exc.value

        err, peak = traced_peak(load)
        assert str(path) in str(err)
        assert peak < 1e6, f"loader peaked at {peak / 1e6:.1f} MB"

    def test_rejects_other_files(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"kind": "other"}')
        with pytest.raises(ValueError):
            load_checkpoint(path)
