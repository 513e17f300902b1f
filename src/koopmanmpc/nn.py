"""Minimal neural-network stack: dense layers, a single-layer LSTM,
reverse-mode gradients, an ADAM optimizer, and fit metrics.

Everything is float64 numpy.  Layers follow a forward-with-cache /
backward-from-cache protocol: ``forward`` returns the output plus an
opaque cache, ``backward`` consumes the cache and the output gradient,
accumulates parameter gradients on the layer, and returns the input
gradient.  Gradients accumulate until ``zero_grads`` is called, so a
layer used twice in one graph just runs ``backward`` once per cache.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


class TrainingError(RuntimeError):
    """Optimization failure (non-finite gradients or loss)."""


class MetricError(ValueError):
    """Metric undefined for the given targets."""


def _sigmoid(x):
    # exp(-|x|) never overflows; each branch is the logistic function on its
    # own sign, so both are evaluated and the right one kept
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def init_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """uniform(-s, s) with s = 1/sqrt(fan_in)."""
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


class FcLayer:
    """Affine map plus activation: y = act(x @ W.T + b).

    ``activation`` is 'tanh' or 'identity'; bias is optional so the layer
    can serve as a pure linear (Koopman) map.
    """

    def __init__(self, n_in, n_out, activation="identity", bias=True, rng=None):
        if activation not in ("tanh", "identity"):
            raise ValueError(f"unsupported activation {activation!r}")
        self.n_in, self.n_out = n_in, n_out
        self.activation = activation
        if rng is None:
            self.weight = np.zeros((n_out, n_in))
        else:
            self.weight = init_uniform(rng, (n_out, n_in), n_in)
        self.bias = np.zeros(n_out) if bias else None
        self.zero_grads()

    def zero_grads(self):
        self.g_weight = np.zeros_like(self.weight)
        self.g_bias = np.zeros_like(self.bias) if self.bias is not None else None

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != self.n_in:
            raise ValueError(f"expected input (batch, {self.n_in}), got {x.shape}")
        y = x @ self.weight.T
        if self.bias is not None:
            y = y + self.bias
        if self.activation == "tanh":
            y = np.tanh(y)
        return y, (x, y)

    def backward(self, cache, d_out):
        x, y = cache
        if self.activation == "tanh":
            d_pre = d_out * (1.0 - y * y)
        else:
            d_pre = d_out
        self.g_weight += d_pre.T @ x
        if self.bias is not None:
            self.g_bias += d_pre.sum(axis=0)
        return d_pre @ self.weight

    def params(self, prefix):
        out = {f"{prefix}/weight": self.weight}
        if self.bias is not None:
            out[f"{prefix}/bias"] = self.bias
        return out

    def grads(self, prefix):
        out = {f"{prefix}/weight": self.g_weight}
        if self.bias is not None:
            out[f"{prefix}/bias"] = self.g_bias
        return out


class LstmLayer:
    """Single-layer LSTM over a (batch, steps, features) sequence.

    Gate preactivations are stacked in the order
    [input, forget, candidate, output] along the first weight axis:
    sigmoid gates, tanh candidate, tanh cell squashing on the output.
    """

    def __init__(self, n_in, n_hidden, rng=None):
        self.n_in, self.n_hidden = n_in, n_hidden
        fan_in = n_in + n_hidden
        if rng is None:
            self.w_x = np.zeros((4 * n_hidden, n_in))
            self.w_h = np.zeros((4 * n_hidden, n_hidden))
        else:
            self.w_x = init_uniform(rng, (4 * n_hidden, n_in), fan_in)
            self.w_h = init_uniform(rng, (4 * n_hidden, n_hidden), fan_in)
        self.bias = np.zeros(4 * n_hidden)
        self.zero_grads()

    def zero_grads(self):
        self.g_w_x = np.zeros_like(self.w_x)
        self.g_w_h = np.zeros_like(self.w_h)
        self.g_bias = np.zeros_like(self.bias)

    def forward(self, seq):
        """Returns the hidden-state sequence (batch, steps, hidden); the
        final hidden state is ``hs[:, -1]``."""
        if seq.ndim != 3 or seq.shape[2] != self.n_in:
            raise ValueError(f"expected input (batch, steps, {self.n_in}), got {seq.shape}")
        batch, steps, _ = seq.shape
        if steps < 1:
            raise ValueError("sequence must contain at least one step")
        nh = self.n_hidden
        # input projections of every step, hoisted out of the recurrence; the
        # stacked matmul runs one (batch, n_in) product per step, so each
        # step's bits equal those of the per-step product
        xw = seq.transpose(1, 0, 2) @ self.w_x.T
        h = np.zeros((batch, nh))
        c = np.zeros((batch, nh))
        hs = np.empty((batch, steps, nh))
        records = []
        for t in range(steps):
            pre = xw[t] + h @ self.w_h.T + self.bias
            gates = _sigmoid(pre)  # the candidate slot is unused
            i, f, o = gates[:, :nh], gates[:, nh : 2 * nh], gates[:, 3 * nh :]
            g = np.tanh(pre[:, 2 * nh : 3 * nh])
            c_new = f * c + i * g
            tc = np.tanh(c_new)
            h_new = o * tc
            records.append((h, c, i, f, g, o, tc))
            h, c = h_new, c_new
            hs[:, t, :] = h
        return hs, (seq, records)

    def backward(self, cache, d_hs=None, d_h_last=None, input_grad=True):
        """Backpropagate through time.

        ``d_hs`` is the gradient w.r.t. the full hidden sequence (may be
        None), ``d_h_last`` an extra gradient on the final hidden state.
        Returns the gradient w.r.t. the input sequence, or None with
        ``input_grad=False`` for a first layer, whose input has no
        parameters upstream; the parameter gradients are the same either way.
        """
        seq, records = cache
        batch, steps, _ = seq.shape
        nh = self.n_hidden
        d_pres = np.empty((steps, batch, 4 * nh))
        dh = np.zeros((batch, nh))
        dc = np.zeros((batch, nh))
        if d_h_last is not None:
            dh = dh + d_h_last
        for t in reversed(range(steps)):
            h_prev, c_prev, i, f, g, o, tc = records[t]
            if d_hs is not None:
                dh = dh + d_hs[:, t, :]
            do = dh * tc
            dc = dc + dh * o * (1.0 - tc * tc)
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc = dc * f
            d_pre = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g * g),
                    do * o * (1.0 - o),
                ],
                axis=1,
                out=d_pres[t],
            )
            self.g_w_x += d_pre.T @ seq[:, t, :]
            self.g_w_h += d_pre.T @ h_prev
            self.g_bias += d_pre.sum(axis=0)
            dh = d_pre @ self.w_h
        if not input_grad:
            return None
        # one (batch, 4 nh) product per step, as in the forward projection
        return (d_pres @ self.w_x).transpose(1, 0, 2)

    def params(self, prefix):
        return {
            f"{prefix}/w_x": self.w_x,
            f"{prefix}/w_h": self.w_h,
            f"{prefix}/bias": self.bias,
        }

    def grads(self, prefix):
        return {
            f"{prefix}/w_x": self.g_w_x,
            f"{prefix}/w_h": self.g_w_h,
            f"{prefix}/bias": self.g_bias,
        }


class Adam:
    """Bias-corrected ADAM over a named parameter dict (updates in place)."""

    def __init__(self, params: dict, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise TrainingError(f"non-finite gradient in {name!r}")
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / b1c
            v_hat = self.v[name] / b2c
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# Metrics


def mse(y, y_hat) -> float:
    y, y_hat = np.asarray(y), np.asarray(y_hat)
    if y.shape != y_hat.shape:
        raise ValueError("mse requires equal shapes")
    return float(np.mean((y - y_hat) ** 2))


def mae(y, y_hat) -> float:
    y, y_hat = np.asarray(y), np.asarray(y_hat)
    if y.shape != y_hat.shape:
        raise ValueError("mae requires equal shapes")
    return float(np.mean(np.abs(y - y_hat)))


def r2(y, y_hat) -> float:
    """Coefficient of determination 1 - SS_res/SS_tot, unclamped (may be
    negative for fits worse than the mean predictor)."""
    y, y_hat = np.asarray(y, dtype=float), np.asarray(y_hat, dtype=float)
    if y.shape != y_hat.shape:
        raise ValueError("r2 requires equal shapes")
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise MetricError("r2 undefined: targets have zero variance")
    ss_res = float(np.sum((y - y_hat) ** 2))
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# Checkpoints


def save_checkpoint(params: dict, path, extra: dict | None = None) -> None:
    """JSON checkpoint of named tensors, lossless for float64 and sorted
    by tensor name for reproducible bytes."""
    doc = {
        "tensors": [
            {"name": k, "shape": list(params[k].shape), "data": params[k].ravel().tolist()}
            for k in sorted(params)
        ],
        "extra": extra or {},
    }
    # json.dumps runs the C encoder; json.dump always runs the Python one
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")


def load_checkpoint(path) -> tuple[dict, dict]:
    with open(Path(path)) as f:
        doc = json.load(f)
    params = {}
    for rec in doc["tensors"]:
        arr = np.array(rec["data"], dtype=float).reshape(rec["shape"])
        params[rec["name"]] = arr
    return params, doc.get("extra", {})
