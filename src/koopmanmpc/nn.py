"""Minimal neural-network stack: dense layers, a single-layer LSTM,
reverse-mode gradients, an ADAM optimizer, and fit metrics.

Everything is float64 numpy.  Layers follow a forward-with-cache /
backward-from-cache protocol: ``forward`` returns the output plus an
opaque cache, ``backward`` consumes the cache and the output gradient,
accumulates parameter gradients on the layer, and returns the input
gradient.  Gradients accumulate until ``zero_grads`` is called, so a
layer used twice in one graph just runs ``backward`` once per cache.

Numerics only, on numpy alone: the network's checkpoint file belongs to
``deep_koopman`` (``save_net`` / ``load_net``).
"""

from __future__ import annotations

import numpy as np


class TrainingError(RuntimeError):
    """Optimization failure (non-finite gradients or loss)."""


class MetricError(ValueError):
    """Metric undefined for the given targets."""


def _sigmoid(x, out=None):
    # e = exp(-|x|) never overflows and lies in [0, 1]; the logistic function
    # is 1/(1+e) for x >= 0 and e/(1+e) below, so the numerator is
    # max(e, x >= 0): the same bits as np.where(x >= 0, 1.0, e), without the
    # branch per element that makes np.where slow on mixed signs
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num = np.maximum(e, x >= 0, out=out)
    np.add(e, 1.0, out=e)
    return np.divide(num, e, out=num)


def init_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """uniform(-s, s) with s = 1/sqrt(fan_in)."""
    s = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-s, s, size=shape)


class _Layer:
    """Named tensors ``tensors`` with a gradient ``g_<name>`` of each.

    Gradients are zeroed in place and accumulated with ``+=``, never
    rebound, so a layer whose tensors are views of a shared buffer (see
    ``flatten_layers``) keeps writing into that buffer.
    """

    tensors: tuple[str, ...]

    def _init_grads(self):
        for name in self.tensors:
            setattr(self, f"g_{name}", np.zeros_like(getattr(self, name)))

    def zero_grads(self):
        for name in self.tensors:
            getattr(self, f"g_{name}").fill(0.0)

    def params(self, prefix):
        return {f"{prefix}/{name}": getattr(self, name) for name in self.tensors}

    def grads(self, prefix):
        return {f"{prefix}/{name}": getattr(self, f"g_{name}") for name in self.tensors}


class FcLayer(_Layer):
    """Affine map plus activation: y = act(x @ W.T + b), over any leading
    dimensions of x in ``forward``; ``backward`` takes training's 2-D
    layout and raises ``ValueError`` for any other.

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
        self.tensors = ("weight", "bias") if bias else ("weight",)
        self._init_grads()

    def forward(self, x):
        if x.ndim < 2 or x.shape[-1] != self.n_in:
            raise ValueError(f"expected input (..., batch, {self.n_in}), got {x.shape}")
        y = x @ self.weight.T
        if self.bias is not None:
            y = y + self.bias
        if self.activation == "tanh":
            y = np.tanh(y)
        return y, (x, y)

    def backward(self, cache, d_out):
        x, y = cache
        if x.ndim != 2:
            raise ValueError(f"backward takes a (batch, n_in) input, got {x.shape}")
        if self.activation == "tanh":
            d_pre = d_out * (1.0 - y * y)
        else:
            d_pre = d_out
        self.g_weight += d_pre.T @ x
        if self.bias is not None:
            self.g_bias += d_pre.sum(axis=0)
        return d_pre @ self.weight


class LstmLayer(_Layer):
    """Single-layer LSTM over a (batch, steps, features) sequence.
    ``forward`` also takes leading dimensions before ``batch``; ``backward``
    takes training's 3-D layout and raises ``ValueError`` for any other.

    Gate preactivations are stacked in the order
    [input, forget, candidate, output] along the first weight axis:
    sigmoid gates, tanh candidate, tanh cell squashing on the output.

    The recurrence writes into arrays stacked over time: the gates
    (steps, batch, 4 hidden), and the cell and hidden states
    (steps + 1, batch, hidden) with the zero initial state in row 0.  The
    backward pass keeps only the recurrence in its time loop; the weight
    gradients are stacked products over every step, summed into ``g_*``
    in the loop's order, so each matmul has the operands and the bits of
    the per-step one.
    """

    tensors = ("w_x", "w_h", "bias")

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
        self._init_grads()

    def forward(self, seq):
        """Returns the hidden-state sequence (..., batch, steps, hidden);
        the final hidden state is ``hs[..., -1, :]``."""
        if seq.ndim < 3 or seq.shape[-1] != self.n_in:
            raise ValueError(f"expected input (..., batch, steps, {self.n_in}), got {seq.shape}")
        *lead, steps, _ = seq.shape
        if steps < 1:
            raise ValueError("sequence must contain at least one step")
        nh = self.n_hidden
        # input projections of every step, hoisted out of the recurrence; the
        # stacked matmul runs one (batch, n_in) product per step, so each
        # step's bits equal those of the per-step product.  Each step's
        # preactivation is built in place in its slice.
        pres = np.moveaxis(seq, -2, 0) @ self.w_x.T
        gates = np.empty((steps, *lead, 4 * nh))
        cells = np.zeros((steps + 1, *lead, nh))
        hiddens = np.zeros((steps + 1, *lead, nh))
        tanh_cells = np.empty((steps, *lead, nh))
        for t in range(steps):
            pre, gate = pres[t], gates[t]
            if t:  # h_0 = 0
                pre += hiddens[t] @ self.w_h.T
            pre += self.bias
            _sigmoid(pre, out=gate)  # the candidate slot is overwritten next
            g = np.tanh(pre[..., 2 * nh : 3 * nh], out=gate[..., 2 * nh : 3 * nh])
            c = np.multiply(gate[..., nh : 2 * nh], cells[t], out=cells[t + 1])
            c += gate[..., :nh] * g
            np.tanh(c, out=tanh_cells[t])
            np.multiply(gate[..., 3 * nh :], tanh_cells[t], out=hiddens[t + 1])
        return np.moveaxis(hiddens[1:], 0, -2), (seq, gates, cells, tanh_cells, hiddens)

    def backward(self, cache, d_hs=None, d_h_last=None, input_grad=True):
        """Backpropagate through time.

        ``d_hs`` is the gradient w.r.t. the full hidden sequence (may be
        None), ``d_h_last`` an extra gradient on the final hidden state.
        Returns the gradient w.r.t. the input sequence, or None with
        ``input_grad=False`` for a first layer, whose input has no
        parameters upstream; the parameter gradients are the same either way.
        """
        seq, gates, cells, tanh_cells, hiddens = cache
        if seq.ndim != 3:
            raise ValueError(f"backward takes a (batch, steps, n_in) input, got {seq.shape}")
        batch, steps, _ = seq.shape
        nh = self.n_hidden
        # zeroed: the candidate slot goes through the sigmoid derivative
        # before its tanh derivative overwrites it
        d_pres = np.zeros((steps, batch, 4 * nh))
        dh = np.zeros((batch, nh))
        dc = np.zeros((batch, nh))
        if d_h_last is not None:
            dh = dh + d_h_last
        for t in reversed(range(steps)):
            gate, tc, d_pre = gates[t], tanh_cells[t], d_pres[t]
            i, f, g, o = (gate[:, k * nh : (k + 1) * nh] for k in range(4))
            if d_hs is not None:
                dh = dh + d_hs[:, t, :]
            np.multiply(dh, tc, out=d_pre[:, 3 * nh :])
            dc = dc + dh * o * (1.0 - tc * tc)
            np.multiply(dc, g, out=d_pre[:, :nh])
            np.multiply(dc, cells[t], out=d_pre[:, nh : 2 * nh])
            dg = dc * i
            # (d s)(1 - s) over every slot, then the candidate's tanh term
            d_pre *= gate
            d_pre *= 1.0 - gate
            np.multiply(dg, 1.0 - g * g, out=d_pre[:, 2 * nh : 3 * nh])
            if t:
                dc = dc * f
                dh = d_pre @ self.w_h
        # one (4 nh, batch) product per step; h_0 = 0 adds no w_h term
        d_pres_t = d_pres.transpose(0, 2, 1)
        g_w_x = d_pres_t @ seq.transpose(1, 0, 2)
        g_w_h = d_pres_t[1:] @ hiddens[1:steps]
        g_bias = d_pres.sum(axis=1)
        for t in reversed(range(steps)):
            self.g_w_x += g_w_x[t]
            if t:
                self.g_w_h += g_w_h[t - 1]
            self.g_bias += g_bias[t]
        if not input_grad:
            return None
        # one (batch, 4 nh) product per step, as in the forward projection
        return (d_pres @ self.w_x).transpose(1, 0, 2)


def flatten_layers(layers: dict) -> tuple[np.ndarray, np.ndarray]:
    """Move the tensors of ``layers`` (prefix -> layer) into one contiguous
    float64 parameter vector and their gradients into one gradient vector
    of the same layout, in layer and tensor order.  Each layer keeps
    reshaped views of its slices under the same names, with the same
    values; returns the two vectors."""
    tensors = [(layer, name) for layer in layers.values() for name in layer.tensors]
    size = sum(getattr(layer, name).size for layer, name in tensors)
    flat, grad = np.empty(size), np.zeros(size)
    lo = 0
    for layer, name in tensors:
        arr = getattr(layer, name)
        hi = lo + arr.size
        view = flat[lo:hi].reshape(arr.shape)
        view[...] = arr
        setattr(layer, name, view)
        setattr(layer, f"g_{name}", grad[lo:hi].reshape(arr.shape))
        lo = hi
    return flat, grad


class Adam:
    """Bias-corrected ADAM on one flat float64 parameter vector, updated in
    place.  The moments ``m``, ``v`` and the scratch vectors are allocated
    once; a step is one finiteness check and a fixed sequence of
    whole-vector ufuncs writing into them."""

    def __init__(self, param: np.ndarray, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if param.ndim != 1 or param.dtype != np.float64:
            raise ValueError(f"expected a flat float64 vector, got {param.dtype} {param.shape}")
        self.param = param
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(param)
        self.v = np.zeros_like(param)
        self._num = np.empty_like(param)
        self._den = np.empty_like(param)
        self._finite = np.empty(param.shape, dtype=bool)

    def step(self, grad: np.ndarray, named: dict | None = None):
        """One update from the flat gradient ``grad``.  A non-finite entry
        raises ``TrainingError`` before any state changes; it names the
        first tensor of ``named`` (name -> view of ``grad``) that holds
        one."""
        if not np.isfinite(grad, out=self._finite).all():
            bad = next((k for k, g in (named or {}).items() if not np.isfinite(g).all()), None)
            raise TrainingError(f"non-finite gradient in {bad!r}" if bad else "non-finite gradient")
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        m, v, num, den = self.m, self.v, self._num, self._den
        # m = b1 m + (1 - b1) g
        np.multiply(m, self.beta1, out=m)
        np.multiply(grad, 1.0 - self.beta1, out=num)
        np.add(m, num, out=m)
        # v = b2 v + ((1 - b2) g) g
        np.multiply(v, self.beta2, out=v)
        np.multiply(grad, 1.0 - self.beta2, out=num)
        np.multiply(num, grad, out=num)
        np.add(v, num, out=v)
        # p -= (lr (m / b1c)) / (sqrt(v / b2c) + eps)
        np.divide(m, b1c, out=num)
        np.multiply(num, self.lr, out=num)
        np.divide(v, b2c, out=den)
        np.sqrt(den, out=den)
        np.add(den, self.eps, out=den)
        np.divide(num, den, out=num)
        np.subtract(self.param, num, out=self.param)


# ---------------------------------------------------------------------------
# Metrics


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
