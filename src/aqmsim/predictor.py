"""LSTM forecaster for rest-of-path congestion.

The model ingests per-interval counts of ECE-marked packets, rearranges them
into ten-step supervised windows, and predicts the next interval's count.
Everything is implemented directly on numpy arrays: stacked LSTM layers with
sigmoid gates and tanh squashing, inverted dropout between layers during
training, full backpropagation through time, and adaptive-moment updates.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .engine import MS

STEPS = 10
DROPOUT = 0.20
ADAM_LR = 1e-3
ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8
BATCH_SIZE = 64
TRAIN_SPLIT = 0.80


def neurons_per_layer(n_in: int, n_samples: int, n_layers: int) -> int:
    """Hidden-layer width: ceil((n_in + sqrt(n_samples)) / n_layers)."""
    if n_in < 1 or n_samples < 1 or n_layers < 1:
        raise ValueError("all sizing arguments must be >= 1")
    return math.ceil((n_in + math.sqrt(n_samples)) / n_layers)


@dataclass
class EceSeries:
    """Counts of ECE-marked (non-negotiation) packets per fixed interval."""

    interval_ns: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if (self.counts < 0).any():
            raise ValueError("ECE counts must be nonnegative")


@dataclass
class FitReport:
    rmse_train: float
    rmse_test: float
    mae_train: float
    mae_test: float
    epochs: int
    split: float
    n_train_windows: int
    n_test_windows: int


def build_windows(values, steps: int = STEPS):
    """Slide a length-`steps` window over the series.

    Row r of X is values[r .. r+steps-1]; y[r] is values[r+steps].
    """
    v = np.asarray(values, dtype=np.float64)
    n = len(v)
    if n < steps + 1:
        raise ValueError(f"series of length {n} has no complete {steps}-step window")
    rows = n - steps
    idx = np.arange(steps)[None, :] + np.arange(rows)[:, None]
    return v[idx], v[steps:]


def normalize(values, lo: float, hi: float):
    """Min-max scale with training-subset bounds; constant series maps to 0.
    Values outside the bounds are not clipped."""
    v = np.asarray(values, dtype=np.float64)
    if hi <= lo:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def denormalize(values, lo: float, hi: float):
    v = np.asarray(values, dtype=np.float64)
    if hi <= lo:
        return np.full_like(v, lo)
    return v * (hi - lo) + lo


def rmse(actual, predicted) -> float:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.size == 0:
        raise ValueError("rmse needs two equal-length, non-empty vectors")
    return float(np.sqrt(np.mean((a - p) ** 2)))


def mae(actual, predicted) -> float:
    a = np.asarray(actual, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if a.shape != p.shape or a.size == 0:
        raise ValueError("mae needs two equal-length, non-empty vectors")
    return float(np.mean(np.abs(a - p)))


def _sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class LstmForecaster:
    """Stacked LSTM with a scalar linear head.

    Gate parameters per layer are one (4H, D) input matrix, one (4H, H)
    recurrent matrix and a (4H,) bias, in i/f/g/o block order. Hidden and
    cell states are zeroed per window, so inference is a pure function of
    the weights and the input window.
    """

    def __init__(self, steps: int = STEPS, layers: int = 3, hidden: int = 30,
                 dropout: float = DROPOUT, seed: int = 0):
        if layers < 1 or hidden < 1 or steps < 1:
            raise ValueError("steps, layers and hidden must be >= 1")
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        self.steps = steps
        self.layers = layers
        self.hidden = hidden
        self.dropout = dropout
        self.seed = seed
        self.norm_min = 0.0
        self.norm_max = 0.0
        self._rng = np.random.default_rng(np.random.SeedSequence([seed, 0x4C53544D]))
        h = hidden
        self.Wx, self.Wh, self.b = [], [], []
        for l in range(layers):
            d = 1 if l == 0 else h
            self.Wx.append(self._init_matrix((4 * h, d), d))
            self.Wh.append(self._init_matrix((4 * h, h), h))
            bias = np.zeros(4 * h)
            bias[h:2 * h] = 1.0  # forget gate opens by default
            self.b.append(bias)
        self.w_out = self._init_matrix((h,), h)
        self.b_out = 0.0

    def _init_matrix(self, shape, fan_in: int):
        bound = 1.0 / math.sqrt(fan_in)
        return self._rng.uniform(-bound, bound, size=shape)

    # -- parameter plumbing -------------------------------------------------

    def param_list(self):
        out = []
        for l in range(self.layers):
            out.extend((self.Wx[l], self.Wh[l], self.b[l]))
        out.append(self.w_out)
        return out

    def get_flat(self) -> np.ndarray:
        parts = [p.ravel() for p in self.param_list()]
        parts.append(np.array([self.b_out]))
        return np.concatenate(parts)

    def set_flat(self, flat: np.ndarray) -> None:
        pos = 0
        for p in self.param_list():
            p[...] = flat[pos:pos + p.size].reshape(p.shape)
            pos += p.size
        self.b_out = float(flat[pos])

    # -- forward / backward ---------------------------------------------------

    def _forward(self, X: np.ndarray, masks=None):
        """Run the recurrence over a (B, steps) batch.

        Returns predictions plus the per-step caches needed for BPTT.
        """
        B, T = X.shape
        H = self.hidden
        caches = []
        layer_in = X
        for l in range(self.layers):
            Wx, Wh, b = self.Wx[l], self.Wh[l], self.b[l]
            h = np.zeros((B, H))
            c = np.zeros((B, H))
            steps_cache = []
            outs = np.empty((B, T, H))
            for t in range(T):
                x = layer_in[:, t:t + 1] if l == 0 else layer_in[:, t, :]
                z = x @ Wx.T + h @ Wh.T + b
                i = _sigmoid(z[:, :H])
                f = _sigmoid(z[:, H:2 * H])
                g = np.tanh(z[:, 2 * H:3 * H])
                o = _sigmoid(z[:, 3 * H:])
                c_prev = c
                c = f * c + i * g
                tc = np.tanh(c)
                h_prev_cached = h
                h = o * tc
                outs[:, t, :] = h
                steps_cache.append((x, h_prev_cached, c_prev, i, f, g, o, tc))
            caches.append(steps_cache)
            if l < self.layers - 1:
                if masks is not None:
                    layer_in = outs * masks[l][:, None, :]
                else:
                    layer_in = outs
            else:
                layer_in = outs
        top_last = layer_in[:, -1, :]
        yhat = top_last @ self.w_out + self.b_out
        return yhat, caches, top_last

    def predict_window(self, window) -> float:
        """Forecast the next normalized value from one normalized window."""
        w = np.asarray(window, dtype=np.float64).reshape(1, -1)
        if w.shape[1] != self.steps:
            raise ValueError(f"window must have {self.steps} values")
        yhat, _, _ = self._forward(w)
        return float(yhat[0])

    def predict_next_count(self, recent_counts) -> float:
        """Forecast the next interval's raw count from the last `steps` counts."""
        w = normalize(np.asarray(recent_counts, dtype=np.float64)[-self.steps:],
                      self.norm_min, self.norm_max)
        raw = float(denormalize(np.array([self.predict_window(w)]),
                                self.norm_min, self.norm_max)[0])
        return max(raw, 0.0)

    def loss_and_gradients(self, X: np.ndarray, y: np.ndarray, masks=None):
        """Mean-squared-error loss plus gradients for every parameter.

        Gradient order matches param_list() with b_out appended.
        """
        B, T = X.shape
        H = self.hidden
        yhat, caches, top_last = self._forward(X, masks)
        err = yhat - y
        loss = float(np.mean(err ** 2))
        dy = 2.0 * err / B

        gWx = [np.zeros_like(m) for m in self.Wx]
        gWh = [np.zeros_like(m) for m in self.Wh]
        gb = [np.zeros_like(v) for v in self.b]
        gw_out = top_last.T @ dy
        gb_out = float(dy.sum())

        # dh from the step above (x-path), per layer, current step only.
        dh_time = [np.zeros((B, H)) for _ in range(self.layers)]
        dc_time = [np.zeros((B, H)) for _ in range(self.layers)]
        dx_above = [None] * self.layers  # filled top-down within one step
        for t in range(T - 1, -1, -1):
            for l in range(self.layers - 1, -1, -1):
                dh = dh_time[l].copy()
                if l == self.layers - 1 and t == T - 1:
                    dh += dy[:, None] * self.w_out[None, :]
                if l < self.layers - 1:
                    up = dx_above[l + 1]
                    if masks is not None:
                        up = up * masks[l]
                    dh += up
                x, h_prev, c_prev, i, f, g, o, tc = caches[l][t]
                dc = dc_time[l] + dh * o * (1.0 - tc * tc)
                do = dh * tc
                di = dc * g
                df = dc * c_prev
                dg = dc * i
                dz = np.concatenate([di * i * (1.0 - i),
                                     df * f * (1.0 - f),
                                     dg * (1.0 - g * g),
                                     do * o * (1.0 - o)], axis=1)
                gWx[l] += dz.T @ x
                gWh[l] += dz.T @ h_prev
                gb[l] += dz.sum(axis=0)
                dx_above[l] = dz @ self.Wx[l]
                dh_time[l] = dz @ self.Wh[l]
                dc_time[l] = dc * f
        grads = []
        for l in range(self.layers):
            grads.extend((gWx[l], gWh[l], gb[l]))
        grads.append(gw_out)
        grads.append(np.array([gb_out]))
        return loss, grads

    # -- training -------------------------------------------------------------

    def _split_rows(self, n_samples: int) -> int:
        """Window rows whose target falls inside the first 80% of samples."""
        n_train_samples = int(n_samples * TRAIN_SPLIT)
        return max(n_train_samples - self.steps, 0)

    def fit(self, counts, epochs: int, batch_size: int = BATCH_SIZE) -> FitReport:
        """Pre-train on a raw count series for a number of epochs.

        Bounds for min-max normalization come from the training subset only
        (first 80% of samples, chronological split).
        """
        counts = np.asarray(counts, dtype=np.float64)
        self._set_bounds(counts)
        return self._run_epochs(counts, epochs, batch_size)

    def retrain_one_epoch(self, counts, batch_size: int = BATCH_SIZE) -> FitReport:
        """Transfer step: exactly one epoch on new data, starting from the
        current weights; normalization bounds are refreshed for the new data."""
        counts = np.asarray(counts, dtype=np.float64)
        if len(counts) < self.steps + 1:
            raise ValueError("re-training series is too short")
        self._set_bounds(counts)
        return self._run_epochs(counts, 1, batch_size)

    def _set_bounds(self, counts: np.ndarray) -> None:
        """Min-max bounds of the training subset (first 80% of samples)."""
        train = counts[:int(len(counts) * TRAIN_SPLIT)]
        self.norm_min = float(train.min()) if len(train) else 0.0
        self.norm_max = float(train.max()) if len(train) else 0.0

    def _run_epochs(self, counts: np.ndarray, epochs: int, batch_size: int) -> FitReport:
        norm = normalize(counts, self.norm_min, self.norm_max)
        X, y = build_windows(norm, self.steps)
        n_train = self._split_rows(len(counts))
        if n_train < 1:
            raise ValueError("training subset has no complete window")
        Xtr, ytr = X[:n_train], y[:n_train]
        params = self.param_list()
        m = [np.zeros_like(p) for p in params] + [0.0]
        v = [np.zeros_like(p) for p in params] + [0.0]
        step = 0
        for _ in range(epochs):
            for lo in range(0, n_train, batch_size):
                xb = Xtr[lo:lo + batch_size]
                yb = ytr[lo:lo + batch_size]
                masks = self._draw_masks(len(xb))
                loss, grads = self.loss_and_gradients(xb, yb, masks)
                if not math.isfinite(loss):
                    raise RuntimeError(
                        f"training diverged: non-finite loss at update {step}")
                step += 1
                b1c = 1.0 - ADAM_B1 ** step
                b2c = 1.0 - ADAM_B2 ** step
                for k, p in enumerate(params):
                    m[k] = ADAM_B1 * m[k] + (1 - ADAM_B1) * grads[k]
                    v[k] = ADAM_B2 * v[k] + (1 - ADAM_B2) * grads[k] ** 2
                    p -= ADAM_LR * (m[k] / b1c) / (np.sqrt(v[k] / b2c) + ADAM_EPS)
                gb = float(grads[-1][0])
                m[-1] = ADAM_B1 * m[-1] + (1 - ADAM_B1) * gb
                v[-1] = ADAM_B2 * v[-1] + (1 - ADAM_B2) * gb * gb
                self.b_out -= ADAM_LR * (m[-1] / b1c) / (math.sqrt(v[-1] / b2c) + ADAM_EPS)
        return self._report(X, y, n_train, epochs)

    def _draw_masks(self, batch: int):
        if self.dropout <= 0.0 or self.layers < 2:
            return None
        keep = 1.0 - self.dropout
        return [(self._rng.random((batch, self.hidden)) < keep) / keep
                for _ in range(self.layers - 1)]

    def _report(self, X, y, n_train: int, epochs: int) -> FitReport:
        pred_tr, _, _ = self._forward(X[:n_train])
        pred_te, _, _ = self._forward(X[n_train:])
        return FitReport(
            rmse_train=rmse(y[:n_train], pred_tr),
            rmse_test=rmse(y[n_train:], pred_te) if len(y) > n_train else float("nan"),
            mae_train=mae(y[:n_train], pred_tr),
            mae_test=mae(y[n_train:], pred_te) if len(y) > n_train else float("nan"),
            epochs=epochs,
            split=TRAIN_SPLIT,
            n_train_windows=n_train,
            n_test_windows=len(y) - n_train,
        )


# -- traces ---------------------------------------------------------------


def synth_trace(rng, length: int, p_on_enter: float = 0.05, p_on_stay: float = 0.90,
                lam: float = 20.0, interval_ns: int = 100 * MS) -> EceSeries:
    """ON/OFF bursty counts: a two-state chain where the OFF state emits zero
    and the ON state emits Poisson(lam) counts per interval."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(np.random.SeedSequence([int(rng), 0x545243]))
    counts = np.zeros(length, dtype=np.int64)
    on = False
    for k in range(length):
        if on:
            on = rng.random() < p_on_stay
        else:
            on = rng.random() < p_on_enter
        if on:
            counts[k] = rng.poisson(lam)
    return EceSeries(interval_ns=interval_ns, counts=counts)


def stationary_off_probability(p_on_enter: float, p_on_stay: float) -> float:
    leave = 1.0 - p_on_stay
    if p_on_enter + leave == 0:
        return 1.0
    return leave / (p_on_enter + leave)


def ingest_trace(path, interval_ns: int = 100 * MS) -> EceSeries:
    """Read a two-column CSV: interval_index (0-based consecutive), ece_count."""
    counts = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln + 1}: expected 'index,count'")
            try:
                idx, cnt = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{ln + 1}: non-integer field") from None
            if idx != len(counts):
                raise ValueError(f"{path}:{ln + 1}: interval index {idx} out of order")
            if cnt < 0:
                raise ValueError(f"{path}:{ln + 1}: negative count")
            counts.append(cnt)
    return EceSeries(interval_ns=interval_ns, counts=np.array(counts, dtype=np.int64))


def write_trace(series: EceSeries, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for i, c in enumerate(series.counts):
            fh.write(f"{i},{int(c)}\n")


# -- checkpoints ------------------------------------------------------------


def save_checkpoint(model: LstmForecaster, path) -> None:
    """Self-describing JSON container; floats round-trip exactly."""
    blob = {
        "kind": "lstm-forecaster",
        "version": 1,
        "steps": model.steps,
        "layers": model.layers,
        "hidden": model.hidden,
        "dropout": model.dropout,
        "seed": model.seed,
        "norm_min": model.norm_min,
        "norm_max": model.norm_max,
        "Wx": [m.tolist() for m in model.Wx],
        "Wh": [m.tolist() for m in model.Wh],
        "b": [v.tolist() for v in model.b],
        "w_out": model.w_out.tolist(),
        "b_out": model.b_out,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(blob, fh)
        fh.write("\n")


def load_checkpoint(path) -> LstmForecaster:
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict) or blob.get("kind") != "lstm-forecaster":
        raise ValueError(f"{path}: not a forecaster checkpoint")
    try:
        model = LstmForecaster(steps=blob["steps"], layers=blob["layers"],
                               hidden=blob["hidden"], dropout=blob["dropout"],
                               seed=blob["seed"])
        model.norm_min = blob["norm_min"]
        model.norm_max = blob["norm_max"]
        model.Wx = [np.array(m, dtype=np.float64) for m in blob["Wx"]]
        model.Wh = [np.array(m, dtype=np.float64) for m in blob["Wh"]]
        model.b = [np.array(v, dtype=np.float64) for v in blob["b"]]
        model.w_out = np.array(blob["w_out"], dtype=np.float64)
        model.b_out = float(blob["b_out"])
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint lacks the {exc.args[0]!r} field") from None
    return model
