"""LSTM forecaster for rest-of-path congestion.

The model ingests per-interval counts of ECE-marked packets, rearranges them
into ten-step supervised windows, and predicts the next interval's count.
Everything is implemented directly on numpy arrays: stacked LSTM layers with
sigmoid gates and tanh squashing, inverted dropout between layers during
training, full backpropagation through time, and adaptive-moment updates.

Training is mixed precision: each step's forward and backward pass runs in
TRAIN_DTYPE (float32) on a copy of the weights, and its gradient updates the
float64 weights through float64 adaptive moments. The forward and backward
passes compute in the dtype of their input, so scoring, forecasting and
checkpoints, which hand them float64, stay float64 throughout.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

STEPS = 10
DROPOUT = 0.20
ADAM_LR = 1e-3
ADAM_B1 = 0.9
ADAM_B2 = 0.999
ADAM_EPS = 1e-8
BATCH_SIZE = 64
TRAIN_SPLIT = 0.80
# The dtype of a training step's arithmetic; the weights and Adam's moments
# stay float64.
TRAIN_DTYPE = np.float32


def neurons_per_layer(n_in: int, n_samples: int, n_layers: int) -> int:
    """Hidden-layer width: ceil((n_in + sqrt(n_samples)) / n_layers)."""
    if n_in < 1 or n_samples < 1 or n_layers < 1:
        raise ValueError("all sizing arguments must be >= 1")
    return math.ceil((n_in + math.sqrt(n_samples)) / n_layers)


def train_rows(n_samples: int, steps: int) -> int:
    """Window rows whose target falls inside the first 80% of a series'
    samples (the training split); below 1 the split holds no window."""
    return int(n_samples * TRAIN_SPLIT) - steps


def min_series_length(steps: int) -> int:
    """The fewest samples whose training split holds one window."""
    n = steps + 1
    while train_rows(n, steps) < 1:
        n += 1
    return n


@dataclass
class EceSeries:
    """Counts of ECE-marked (non-negotiation) packets per fixed interval."""

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
    """Slide a length-`steps` window over the series. Row r of X is
    values[r .. r+steps-1] and y[r] is values[r+steps]; both are views of
    a float32 or float64 series, X a read-only view, so nothing is copied.
    A series of another type is converted to float64 first."""
    v = np.asarray(values)
    if v.dtype not in (np.float32, np.float64):
        v = v.astype(np.float64)
    n = len(v)
    if n < steps + 1:
        raise ValueError(f"series of length {n} has no complete {steps}-step window")
    return np.lib.stride_tricks.sliding_window_view(v[:-1], steps), v[steps:]


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


def _buffer(store: dict, key, shape, dtype: np.dtype) -> np.ndarray:
    """A `shape` array of `dtype` from the one kept in `store` under `key`
    and `dtype`.

    The kept array is made when `shape` does not fit in it, and a smaller
    shape gets its leading slice, so an epoch's ragged last mini-batch reuses
    the full batches' arrays. Callers vary only the batch axis, so each
    step's (B, ·) slab of a slice stays C-contiguous.
    """
    key = (key, dtype)
    arr = store.get(key)
    if arr is None or (arr.shape != shape
                       and any(n > m for n, m in zip(shape, arr.shape))):
        arr = store[key] = np.empty(shape, dtype)
    return arr if arr.shape == shape else arr[tuple(map(slice, shape))]


def _sigmoid(z: np.ndarray, out: np.ndarray) -> None:
    """Write sigmoid(z) = (1 + tanh(z / 2)) / 2 into `out`; tanh saturates
    where exp(-z) would overflow."""
    np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5


def _param_shapes(layers: int, hidden: int) -> list:
    """Parameter shapes in param_list() order, then b_out's (1,)."""
    h = hidden
    shapes = []
    for l in range(layers):
        shapes += [(4 * h, 1 if l == 0 else h), (4 * h, h), (4 * h,)]
    return shapes + [(h,), (1,)]


class LstmForecaster:
    """Stacked LSTM with a scalar linear head.

    Gate parameters per layer are one (4H, D) input matrix, one (4H, H)
    recurrent matrix and a (4H,) bias, in i/f/g/o block order. Hidden and
    cell states are zeroed per window, so inference is a pure function of
    the weights and the input window.

    Every parameter, b_out last, is a view of one flat vector, in
    param_list() order; gradients share that layout, so an Adam step is one
    vector update.
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
        # Arrays a forward pass and a training step write, kept between
        # passes by name and dtype at the largest batch seen: first-touch
        # page faults on fresh multi-megabyte arrays cost about as much as a
        # step's arithmetic. Only a training step's forward pass keeps a
        # set of slabs per layer (see _forward). A low-precision pass keeps
        # its copy of the weights here too. Emptied when training, scoring
        # or a forecast ends.
        self._scratch = {}
        h = hidden
        self._shapes = _param_shapes(layers, hidden)
        self._flat = np.zeros(sum(math.prod(shape) for shape in self._shapes))
        views = self._unflatten(self._flat)
        self.Wx, self.Wh, self.b = views[0:-2:3], views[1:-2:3], views[2:-2:3]
        self.w_out = views[-2]
        for l in range(layers):
            self._init_uniform(self.Wx[l])
            self._init_uniform(self.Wh[l])
            self.b[l][h:2 * h] = 1.0  # forget gate opens by default
        self._init_uniform(self.w_out)

    def _init_uniform(self, weights: np.ndarray) -> None:
        """Draw from U(-1/sqrt(fan_in), 1/sqrt(fan_in)); fan_in is the last
        dimension."""
        bound = 1.0 / math.sqrt(weights.shape[-1])
        weights[...] = self._rng.uniform(-bound, bound, size=weights.shape)

    # -- parameter plumbing -------------------------------------------------

    def _unflatten(self, flat: np.ndarray) -> list:
        """Views of `flat` shaped as param_list(), then b_out's (1,) view."""
        views, pos = [], 0
        for shape in self._shapes:
            size = math.prod(shape)
            views.append(flat[pos:pos + size].reshape(shape))
            pos += size
        return views

    @property
    def b_out(self) -> float:
        return float(self._flat[-1])

    @b_out.setter
    def b_out(self, value: float) -> None:
        self._flat[-1] = value

    def param_list(self):
        return self._unflatten(self._flat)[:-1]

    def get_flat(self) -> np.ndarray:
        return self._flat.copy()

    def _weights(self, dtype: np.dtype) -> list:
        """_unflatten() views of the parameters in `dtype`: of the weights
        themselves in theirs (float64), else of a copy kept with the scratch
        arrays and refreshed from the weights by this call."""
        if dtype == self._flat.dtype:
            return self._unflatten(self._flat)
        copy = _buffer(self._scratch, "weights", self._flat.shape, dtype)
        np.copyto(copy, self._flat)
        return self._unflatten(copy)

    # -- forward / backward ---------------------------------------------------

    def _forward(self, X: np.ndarray, masks=None, weights=None, keep_cache=False):
        """Run the recurrence over a (B, steps) batch, with `weights`, the
        _weights() of X's dtype when not given.

        Returns the predictions, the BPTT cache and the top layer's last
        hidden state. The cache is kept only when `keep_cache` is set, for
        loss_and_gradients, which reads it; it is None otherwise. Per layer
        it holds the layer's step-major (T, B, D) input and step-major slabs:
        gate sigmoids S (T, B, 4H), whose g block is then overwritten with
        the input gate i (the factor the g block takes in backward),
        g = tanh(z_g) and tanh(c) G and TC (T, B, H), and cell and hidden
        states C and Hs (T + 1, B, H; slot 0 is the zero initial state).
        Without the cache the same steps run on one set of slabs that the
        layers share: a layer reads its input, the hidden states of the one
        below, only in the stacked input projection, before its own step
        loop overwrites them. Either way the dropout-masked layer inputs
        share one slab, which ends holding the top layer's; loss_and_gradients
        writes each layer's back before it reads it.

        The slabs live in the model's scratch arrays, so the cache is valid
        until the next call. Those arrays take the common type of X, the
        masks and the weights, so an input wider than X widens the whole
        pass instead of being rounded to X's type.

        A layer's input projection does not depend on the recurrence, so it
        is one stacked product over all T steps, written into S; the step
        loop adds h Wh^T and then b, the order of (x Wx^T + h Wh^T) + b. A
        stacked matmul makes the same BLAS call on each (B, ·) step slab as
        a per-step one, so the bytes are those of a per-step loop.
        """
        B, T = X.shape
        H = self.hidden
        if weights is None:
            weights = self._weights(X.dtype)
        dtype = np.result_type(X, *weights, *(masks or ()))
        store = self._scratch
        zh = _buffer(store, "zh", (B, 4 * H), dtype)
        ig = _buffer(store, "ig", (B, H), dtype)
        cache = [] if keep_cache else None
        layer_in = X.T[:, :, None]  # (T, B, 1): layer 0's input width is 1
        for l in range(self.layers):
            Wx, Wh, b = weights[3 * l:3 * l + 3]
            key = l if keep_cache else 0
            S = _buffer(store, ("S", key), (T, B, 4 * H), dtype)
            G, TC = (_buffer(store, (name, key), (T, B, H), dtype) for name in ("G", "TC"))
            C, Hs = (_buffer(store, (name, key), (T + 1, B, H), dtype)
                     for name in ("C", "Hs"))
            C[0] = 0.0
            Hs[0] = 0.0
            if l == 0:
                # One input per step: the projection is a broadcast product.
                # np.matmul makes the same bytes (K = 1), but its loop takes
                # twice as long and a pretrain epoch 4 % longer.
                np.multiply(layer_in, Wx[:, 0], out=S)
            else:
                np.matmul(layer_in, Wx.T, out=S)
            for t in range(T):
                s, g, tc, c = S[t], G[t], TC[t], C[t + 1]
                np.matmul(Hs[t], Wh.T, out=zh)
                s += zh
                s += b
                np.tanh(s[:, 2 * H:3 * H], out=g)
                # One sigmoid over all 4H columns; the g block's is unused.
                _sigmoid(s, s)
                np.multiply(s[:, H:2 * H], C[t], out=c)
                np.multiply(s[:, :H], g, out=ig)
                c += ig
                np.tanh(c, out=tc)
                np.multiply(s[:, 3 * H:], tc, out=Hs[t + 1])
            if keep_cache:
                S[:, :, 2 * H:3 * H] = S[:, :, :H]
                cache.append((layer_in, S, G, TC, C, Hs))
            layer_in = Hs[1:]
            if l < self.layers - 1 and masks is not None:
                layer_in = np.multiply(layer_in, masks[l],
                                       out=_buffer(store, "drop", (T, B, H), dtype))
        top_last = layer_in[-1]
        yhat = top_last @ weights[-2] + weights[-1]
        return yhat, cache, top_last

    def predict_window(self, window) -> float:
        """Forecast the next normalized value from one normalized window."""
        w = np.asarray(window, dtype=np.float64).reshape(1, -1)
        if w.shape[1] != self.steps:
            raise ValueError(f"window must have {self.steps} values")
        yhat, _, _ = self._forward(w)
        self._scratch.clear()
        return float(yhat[0])

    def predict_next_count(self, recent_counts) -> float:
        """Forecast the next interval's raw count from the last `steps` counts."""
        w = normalize(np.asarray(recent_counts, dtype=np.float64)[-self.steps:],
                      self.norm_min, self.norm_max)
        raw = float(denormalize(np.array([self.predict_window(w)]),
                                self.norm_min, self.norm_max)[0])
        return max(raw, 0.0)

    def loss_and_gradients(self, X: np.ndarray, y: np.ndarray, masks=None, out=None):
        """Mean-squared-error loss plus gradients for every parameter,
        computed in the dtype of the forward pass (see _forward).

        Gradient order matches param_list() with b_out appended; the arrays
        are views of one flat vector laid out as get_flat(), which is `out`
        when given.
        """
        B, T = X.shape
        H = self.hidden
        weights = self._weights(X.dtype)
        Wx, Wh, w_out = weights[0:-2:3], weights[1:-2:3], weights[-2]
        yhat, cache, top_last = self._forward(X, masks, weights, keep_cache=True)
        dtype = yhat.dtype
        err = yhat - y
        loss = float(np.mean(err ** 2))
        dy = 2.0 * err / B

        # Every gradient is written below, none accumulated into.
        grads = self._unflatten(np.empty(self._flat.shape, dtype) if out is None else out)
        gWx, gWh, gb = grads[0:-2:3], grads[1:-2:3], grads[2:-2:3]
        grads[-2][...] = top_last.T @ dy
        grads[-1][0] = dy.sum()

        # Per step dz = D * (G * S), one (B, 4H) product: for the i/f/g/o
        # blocks G = (dc g, dc c_prev, dc, dh tanh(c)), S = (i, f, i, o) and
        # D = (1 - i, 1 - f, 1 - g^2, 1 - o). D and 1 - tanh(c)^2 (TD) do not
        # depend on the recurrence, so each is one pass per layer, D into the
        # DZ slab that the reverse sweep then turns into dz step by step.
        store = self._scratch
        DZ = _buffer(store, "DZ", (T, B, 4 * H), dtype)
        TD = _buffer(store, "TD", (T, B, H), dtype)
        gs = _buffer(store, "gs", (B, 4 * H), dtype)
        dc, dh_time, dc_time = (_buffer(store, name, (B, H), dtype)
                                for name in ("dc", "dh_time", "dc_time"))
        # Gradient reaching each step's output from the layer above: read at
        # step t, then overwritten with what this layer passes below.
        dx = _buffer(store, "dx", (T, B, H), dtype)
        g_blk = slice(2 * H, 3 * H)
        # Layers run top-down, each over all steps in reverse: a layer needs
        # from the one above only its per-step dx.
        for l in range(self.layers - 1, -1, -1):
            layer_in, S, G, TC, C, Hs = cache[l]
            top = l == self.layers - 1
            if not top and masks is not None:
                dx *= masks[l]
            np.multiply(TC, TC, out=TD)
            np.subtract(1.0, TD, out=TD)
            np.subtract(1.0, S, out=DZ)
            np.multiply(G, G, out=DZ[:, :, g_blk])
            np.subtract(1.0, DZ[:, :, g_blk], out=DZ[:, :, g_blk])
            # dh is dh_time plus what reaches h from outside the recurrence;
            # both carries are overwritten only after this step's last use.
            dh = dh_time
            dh.fill(0.0)
            dc_time.fill(0.0)
            for t in range(T - 1, -1, -1):
                if not top:
                    dh += dx[t]
                elif t == T - 1:
                    dh += dy[:, None] * w_out[None, :]
                s, g, tc = S[t], G[t], TC[t]
                np.multiply(dh, s[:, 3 * H:], out=dc)
                dc *= TD[t]
                dc += dc_time
                np.multiply(dc, g, out=gs[:, :H])
                np.multiply(dc, C[t], out=gs[:, H:2 * H])
                gs[:, g_blk] = dc
                np.multiply(dh, tc, out=gs[:, 3 * H:])
                gs *= s
                DZ[t] *= gs
                if t > 0:
                    np.matmul(DZ[t], Wh[l], out=dh_time)
                    np.multiply(dc, s[:, H:2 * H], out=dc_time)
            if l > 0 and masks is not None:
                # The masked layer inputs share one slab: this layer's input
                # is the product _forward wrote there, made again.
                np.multiply(cache[l - 1][-1][1:], masks[l - 1], out=layer_in)
            # The weight gradients are per-step products, stacked, then summed
            # over the steps in the sweep's order from +0.0; the bias's
            # per-step terms are sums over the batch.
            DZt = DZ.transpose(0, 2, 1)
            for gW, inp in ((gWx[l], layer_in), (gWh[l], Hs[:-1])):
                P = _buffer(store, ("P", inp.shape[2]), (T, 4 * H, inp.shape[2]), dtype)
                np.matmul(DZt, inp, out=P)
                np.add.reduce(P[::-1], axis=0, out=gW, initial=0.0)
            P = np.add.reduce(DZ, axis=1, out=_buffer(store, "Pb", (T, 4 * H), dtype))
            np.add.reduce(P[::-1], axis=0, out=gb[l], initial=0.0)
            if l > 0:
                np.matmul(DZ, Wx[l], out=dx)
        return loss, grads

    # -- training -------------------------------------------------------------

    def _split_rows(self, n_samples: int) -> int:
        """train_rows() of the series; a series that leaves the training
        split no window is refused."""
        n_train = train_rows(n_samples, self.steps)
        if n_train < 1:
            raise ValueError(f"training subset of a {n_samples}-sample series has "
                             f"no complete {self.steps}-step window")
        return n_train

    def fit(self, counts, epochs: int) -> FitReport:
        """Pre-train on a raw count series for a number of epochs.

        Bounds for min-max normalization come from the training subset only
        (first 80% of samples, chronological split).
        """
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        counts = np.asarray(counts, dtype=np.float64)
        self._run_epochs(counts, epochs)
        return self.score(counts, epochs)

    def retrain_one_epoch(self, counts) -> None:
        """Transfer step: exactly one epoch on new data, starting from the
        current weights; normalization bounds are refreshed for the new data.
        It trains only: a caller that wants the fit scored calls score()."""
        self._run_epochs(np.asarray(counts, dtype=np.float64), 1)

    def score(self, counts, epochs: int) -> FitReport:
        """Error of the current weights on a raw count series, normalized
        with the current bounds and split as training splits it, by forward
        passes over batch-sized slices of the windows; `epochs` is recorded
        as trained."""
        counts = np.asarray(counts, dtype=np.float64)
        n_train = self._split_rows(len(counts))
        X, y = build_windows(normalize(counts, self.norm_min, self.norm_max), self.steps)
        return self._report(X, y, n_train, epochs)

    def _set_bounds(self, counts: np.ndarray) -> None:
        """Min-max bounds of the training subset (first 80% of samples)."""
        train = counts[:int(len(counts) * TRAIN_SPLIT)]
        self.norm_min = float(train.min())
        self.norm_max = float(train.max())

    def _run_epochs(self, counts: np.ndarray, epochs: int) -> None:
        """Set the bounds from `counts`, then train on its training split.

        The windows and masks are in TRAIN_DTYPE, so each step computes its
        gradient in it; the update is float64."""
        n_train = self._split_rows(len(counts))
        self._set_bounds(counts)
        norm = normalize(counts, self.norm_min, self.norm_max).astype(TRAIN_DTYPE)
        X, y = build_windows(norm, self.steps)
        Xtr, ytr = X[:n_train], y[:n_train]
        # Adam runs on the flat parameter vector, in place. It reads the
        # TRAIN_DTYPE gradient as it is: dtype=np.float64 makes each product
        # that takes it widen it (exactly) and compute in float64, where
        # numpy would compute in TRAIN_DTYPE and round.
        theta = self._flat
        g = np.empty(theta.shape, TRAIN_DTYPE)
        m, v = np.zeros_like(theta), np.zeros_like(theta)
        num, den = np.empty_like(theta), np.empty_like(theta)
        step = 0
        for _ in range(epochs):
            for lo in range(0, n_train, BATCH_SIZE):
                xb = Xtr[lo:lo + BATCH_SIZE]
                yb = ytr[lo:lo + BATCH_SIZE]
                masks = self._draw_masks(len(xb))
                loss, _ = self.loss_and_gradients(xb, yb, masks, out=g)
                if not math.isfinite(loss):
                    raise RuntimeError(
                        f"training diverged: non-finite loss at update {step}")
                step += 1
                b1c = 1.0 - ADAM_B1 ** step
                b2c = 1.0 - ADAM_B2 ** step
                m *= ADAM_B1
                m += np.multiply(g, 1 - ADAM_B1, out=num, dtype=np.float64)
                v *= ADAM_B2
                np.square(g, out=num, dtype=np.float64)
                num *= 1 - ADAM_B2
                v += num
                np.divide(m, b1c, out=num)
                num *= ADAM_LR
                np.divide(v, b2c, out=den)
                np.sqrt(den, out=den)
                den += ADAM_EPS
                num /= den
                theta -= num
        self._scratch.clear()

    def _draw_masks(self, batch: int):
        """Inverted-dropout masks in TRAIN_DTYPE, one per layer below the
        top, each entry 0 or 1 / keep (1.25 at the default dropout, exact in
        float32)."""
        if self.dropout <= 0.0 or self.layers < 2:
            return None
        keep = 1.0 - self.dropout
        return [((self._rng.random((batch, self.hidden)) < keep) / keep).astype(TRAIN_DTYPE)
                for _ in range(self.layers - 1)]

    def _report(self, X, y, n_train: int, epochs: int) -> FitReport:
        # Scored in BATCH_SIZE-row slices, so working memory, one slice's
        # layer-shared slabs, is bounded by the batch, not the series.
        pred = np.concatenate([self._forward(X[lo:lo + BATCH_SIZE])[0]
                               for lo in range(0, len(X), BATCH_SIZE)])
        self._scratch.clear()
        pred_tr, pred_te = pred[:n_train], pred[n_train:]
        return FitReport(
            rmse_train=rmse(y[:n_train], pred_tr),
            rmse_test=rmse(y[n_train:], pred_te),
            mae_train=mae(y[:n_train], pred_tr),
            mae_test=mae(y[n_train:], pred_te),
            epochs=epochs,
            split=TRAIN_SPLIT,
            n_train_windows=n_train,
            n_test_windows=len(y) - n_train,
        )


# -- traces ---------------------------------------------------------------

# The longest trace `pretrain` draws or reads. The forecaster it trains is
# sized from the trace (`neurons_per_layer`), so the trace, the weights and
# Adam's state take about 125 B a sample before the first step: about 25 MB
# at this bound, the size the duration bound admits. The bound is on memory,
# not time: an epoch's time grows with length × width².
MAX_SYNTH_LENGTH = 200_000


def synth_trace(seed: int, length: int, p_on_enter: float = 0.05,
                p_on_stay: float = 0.90, lam: float = 20.0) -> EceSeries:
    """ON/OFF bursty counts: a two-state chain where the OFF state emits zero
    and the ON state emits Poisson(lam) counts per interval."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x545243]))
    counts = np.zeros(length, dtype=np.int64)
    on = False
    for k in range(length):
        if on:
            on = rng.random() < p_on_stay
        else:
            on = rng.random() < p_on_enter
        if on:
            counts[k] = rng.poisson(lam)
    return EceSeries(counts=counts)


def ingest_trace(path) -> EceSeries:
    """Read a two-column CSV: interval_index (0-based consecutive), ece_count.
    A row past MAX_SYNTH_LENGTH samples is refused as it is read."""
    counts = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            if len(counts) == MAX_SYNTH_LENGTH:
                raise ValueError(f"{path}:{ln + 1}: trace holds more than "
                                 f"{MAX_SYNTH_LENGTH} samples, the most a forecaster "
                                 f"is sized from")
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
            if cnt > np.iinfo(np.int64).max:
                raise ValueError(f"{path}:{ln + 1}: count out of range")
            counts.append(cnt)
    return EceSeries(counts=np.array(counts, dtype=np.int64))


# -- checkpoints ------------------------------------------------------------


def save_checkpoint(model: LstmForecaster, path) -> None:
    """Self-describing JSON container; floats round-trip exactly. Makes the
    file's directory."""
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
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(blob, fh)
        fh.write("\n")


# In the order their absence is reported.
_CHECKPOINT_FIELDS = ("steps", "layers", "hidden", "dropout", "seed", "norm_min",
                     "norm_max", "Wx", "Wh", "b", "w_out", "b_out")


def _number_field(path, blob: dict, key: str, integer: bool = False):
    value = blob[key]
    kinds = int if integer else (int, float)
    if not isinstance(value, kinds) or isinstance(value, bool):
        what = "an integer" if integer else "a number"
        raise ValueError(f"{path}: checkpoint field {key!r} must be {what}, got {value!r}")
    if integer:
        return value
    # json reads NaN and Infinity, and an integer too large for a float.
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{path}: checkpoint field {key!r} must be finite, got {value!r}")
    return number


# A weight training's copy could not hold would become inf there, and the run
# would stop at its retrain with "training diverged".
_TRAIN_MAX = float(np.finfo(TRAIN_DTYPE).max)


def _check_train_range(path, key: str, values) -> None:
    if (np.abs(values) > _TRAIN_MAX).any():
        raise ValueError(f"{path}: checkpoint field {key} holds a value beyond the "
                         f"{np.dtype(TRAIN_DTYPE).name} range training computes in "
                         f"(|value| > {_TRAIN_MAX:g})")


def _array_field(path, key: str, value, shape) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{path}: checkpoint field {key} is not a numeric array") from None
    if arr.shape != shape:
        raise ValueError(f"{path}: checkpoint field {key} has shape {arr.shape}, "
                         f"expected {shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: checkpoint field {key} holds a non-finite value")
    _check_train_range(path, key, arr)
    return arr


def load_checkpoint(path) -> LstmForecaster:
    """Read a checkpoint written by save_checkpoint. A missing, mistyped,
    non-finite or mis-shaped field, a weight or bias beyond TRAIN_DTYPE's
    range, or a step count other than STEPS, raises ValueError naming the
    path and the field."""
    with open(path, "r", encoding="utf-8") as fh:
        blob = json.load(fh)
    if not isinstance(blob, dict) or blob.get("kind") != "lstm-forecaster":
        raise ValueError(f"{path}: not a forecaster checkpoint")
    for key in _CHECKPOINT_FIELDS:
        if key not in blob:
            raise ValueError(f"{path}: checkpoint lacks the {key!r} field")
    steps, layers, hidden, seed = (_number_field(path, blob, key, integer=True)
                                   for key in ("steps", "layers", "hidden", "seed"))
    if steps != STEPS:
        raise ValueError(f"{path}: checkpoint field 'steps' is {steps}, but the "
                         f"forecaster takes {STEPS}-step windows")
    dropout, norm_min, norm_max, b_out = (
        _number_field(path, blob, key)
        for key in ("dropout", "norm_min", "norm_max", "b_out"))
    _check_train_range(path, "'b_out'", b_out)
    for key in ("Wx", "Wh", "b"):
        if not isinstance(blob[key], list) or len(blob[key]) != layers:
            raise ValueError(f"{path}: checkpoint field {key!r} must list {layers} "
                             f"arrays, one per layer")
    # Every array is checked against the declared sizes before the model
    # allocates its parameters, so that their size is bounded by the file's
    # own arrays.
    shapes = iter(_param_shapes(layers, hidden))
    arrays = [_array_field(path, f"{key!r} (layer {l})", blob[key][l], next(shapes))
              for l in range(layers) for key in ("Wx", "Wh", "b")]
    arrays.append(_array_field(path, "'w_out'", blob["w_out"], next(shapes)))
    try:
        model = LstmForecaster(steps=steps, layers=layers, hidden=hidden,
                               dropout=dropout, seed=seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    model.norm_min = norm_min
    model.norm_max = norm_max
    for view, arr in zip(model.param_list(), arrays):
        view[...] = arr
    model.b_out = b_out
    return model
