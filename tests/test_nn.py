import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from koopmanmpc import nn
from koopmanmpc.nn import (
    Adam,
    FcLayer,
    LstmLayer,
    MetricError,
    TrainingError,
    r2,
)


def finite_diff(loss_fn, arr, eps=1e-5):
    g = np.zeros_like(arr)
    flat, gflat = arr.ravel(), g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        lp = loss_fn()
        flat[i] = orig - eps
        lm = loss_fn()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2 * eps)
    return g


def reference_sigmoid(x):
    """The masked piecewise sigmoid the layer used before its rewrite."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_lstm_forward(layer, seq):
    """Per-step LSTM forward: input projection inside the recurrence and
    one masked sigmoid per gate.  Reference for ``LstmLayer.forward``."""
    batch, steps, _ = seq.shape
    nh = layer.n_hidden
    h = np.zeros((batch, nh))
    c = np.zeros((batch, nh))
    hs = np.zeros((batch, steps, nh))
    records = []
    for t in range(steps):
        x_t = seq[:, t, :]
        pre = x_t @ layer.w_x.T + h @ layer.w_h.T + layer.bias
        i = reference_sigmoid(pre[:, :nh])
        f = reference_sigmoid(pre[:, nh : 2 * nh])
        g = np.tanh(pre[:, 2 * nh : 3 * nh])
        o = reference_sigmoid(pre[:, 3 * nh :])
        c_new = f * c + i * g
        tc = np.tanh(c_new)
        h_new = o * tc
        records.append((x_t, h, c, i, f, g, o, tc))
        h, c = h_new, c_new
        hs[:, t, :] = h
    return hs, (seq.shape, records)


def reference_lstm_backward(layer, cache, d_hs=None, d_h_last=None):
    """Per-step BPTT with the input gradient formed inside the loop.
    Reference for ``LstmLayer.backward``; accumulates into the layer."""
    shape, records = cache
    batch, steps, _ = shape
    nh = layer.n_hidden
    d_seq = np.zeros(shape)
    dh = np.zeros((batch, nh))
    dc = np.zeros((batch, nh))
    if d_h_last is not None:
        dh = dh + d_h_last
    for t in reversed(range(steps)):
        x_t, h_prev, c_prev, i, f, g, o, tc = records[t]
        if d_hs is not None:
            dh = dh + d_hs[:, t, :]
        do = dh * tc
        dc = dc + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc = dc * f
        d_pre = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)],
            axis=1,
        )
        layer.g_w_x += d_pre.T @ x_t
        layer.g_w_h += d_pre.T @ h_prev
        layer.g_bias += d_pre.sum(axis=0)
        d_seq[:, t, :] = d_pre @ layer.w_x
        dh = d_pre @ layer.w_h
    return d_seq


def assert_grads_close(analytic, numeric, tol=1e-4):
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    assert rel.max() < tol, f"gradient mismatch, worst rel err {rel.max():.2e}"


class TestFcLayer:
    def test_identity_weights_pass_through(self):
        layer = FcLayer(3, 3, activation="identity")
        layer.weight = np.eye(3)
        x = np.array([[1.0, -2.0, 0.5]])
        y, _ = layer.forward(x)
        assert np.array_equal(y, x)

    def test_bias_only_tanh(self):
        layer = FcLayer(2, 2, activation="tanh")
        layer.bias = np.array([0.3, -0.7])
        y, _ = layer.forward(np.zeros((1, 2)))
        assert np.allclose(y, np.tanh([0.3, -0.7]))

    def test_matches_direct_matrix_arithmetic(self):
        rng = np.random.default_rng(3)
        layer = FcLayer(3, 2, activation="identity", rng=rng)
        x = rng.normal(size=(5, 3))
        y, _ = layer.forward(x)
        assert np.allclose(y, x @ layer.weight.T + layer.bias)

    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    def test_gradients_match_finite_differences(self, activation):
        rng = np.random.default_rng(11)
        layer = FcLayer(4, 3, activation=activation, rng=rng)
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 3))

        def loss():
            y, _ = layer.forward(x)
            return 0.5 * float(np.sum((y - target) ** 2))

        y, cache = layer.forward(x)
        layer.zero_grads()
        dx = layer.backward(cache, y - target)
        assert_grads_close(layer.g_weight, finite_diff(loss, layer.weight))
        assert_grads_close(layer.g_bias, finite_diff(loss, layer.bias))
        assert_grads_close(dx, finite_diff(loss, x))

    def test_shape_mismatch_rejected(self):
        layer = FcLayer(3, 2)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((4, 5)))

    @pytest.mark.parametrize("shape", [(3, 3, 3), (4, 1, 5, 2)])
    def test_backward_names_its_layout(self, shape):
        # forward takes leading dimensions, backward only training's 2-D cache
        layer = FcLayer(shape[-1], 3, activation="tanh", rng=np.random.default_rng(0))
        y, cache = layer.forward(np.ones(shape))
        with pytest.raises(ValueError, match=re.escape(f"(batch, n_in) input, got {shape}")):
            layer.backward(cache, y)


class TestLstmLayer:
    def test_zero_weights_give_zero_hidden_state(self):
        # sigma(0) = 0.5, tanh(0) = 0: the cell stays 0 and h = 0.5 * tanh(0)
        layer = LstmLayer(2, 3)
        hs, _ = layer.forward(np.ones((2, 4, 2)))
        assert np.array_equal(hs, np.zeros((2, 4, 3)))

    def test_hand_computed_single_cell(self):
        # 1x1 cell, every weight 0.5, input 1.0, zero initial state:
        # all gate preactivations are 0.5*1 + 0.5*0 + 0.5 = 1.0
        layer = LstmLayer(1, 1)
        layer.w_x = np.full((4, 1), 0.5)
        layer.w_h = np.full((4, 1), 0.5)
        layer.bias = np.full(4, 0.5)
        hs, _ = layer.forward(np.ones((1, 1, 1)))
        sig = lambda z: 1.0 / (1.0 + math.exp(-z))
        c = sig(1.0) * math.tanh(1.0)
        expect = sig(1.0) * math.tanh(c)
        assert hs[0, 0, 0] == pytest.approx(expect, abs=1e-12)

    def test_constant_input_approaches_fixed_point(self):
        rng = np.random.default_rng(5)
        layer = LstmLayer(2, 4, rng=rng)
        # contractive draw: shrink the recurrent weights
        layer.w_h = 0.2 * layer.w_h
        seq = np.tile(np.array([0.3, -0.5]), (1, 12, 1))
        hs, _ = layer.forward(seq)
        diffs = [np.linalg.norm(hs[0, t + 1] - hs[0, t]) for t in range(11)]
        assert all(d2 < d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(17)
        layer = LstmLayer(3, 4, rng=rng)
        seq = rng.normal(size=(2, 5, 3))
        t_hs = rng.normal(size=(2, 5, 4))
        t_last = rng.normal(size=(2, 4))

        def loss():
            hs, _ = layer.forward(seq)
            return 0.5 * float(np.sum((hs - t_hs) ** 2)) + 0.5 * float(
                np.sum((hs[:, -1] - t_last) ** 2)
            )

        hs, cache = layer.forward(seq)
        layer.zero_grads()
        d_seq = layer.backward(cache, d_hs=hs - t_hs, d_h_last=hs[:, -1] - t_last)
        assert_grads_close(layer.g_w_x, finite_diff(loss, layer.w_x))
        assert_grads_close(layer.g_w_h, finite_diff(loss, layer.w_h))
        assert_grads_close(layer.g_bias, finite_diff(loss, layer.bias))
        assert_grads_close(d_seq, finite_diff(loss, seq))

    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 6),
        steps=st.integers(1, 5),
        n_in=st.integers(1, 5),
        n_hidden=st.integers(1, 6),
        scale=st.floats(0.01, 50.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_step_reference_bit_for_bit(self, seed, batch, steps, n_in, n_hidden, scale):
        # inputs up to +-50 saturate the gates, so both sigmoid branches run
        rng = np.random.default_rng(seed)
        layer = LstmLayer(n_in, n_hidden, rng=rng)
        layer.bias = rng.normal(size=4 * n_hidden)
        seq = scale * rng.uniform(-1.0, 1.0, size=(batch, steps, n_in))
        d_hs = rng.normal(size=(batch, steps, n_hidden))
        d_h_last = rng.normal(size=(batch, n_hidden))

        hs, cache = layer.forward(seq)
        layer.zero_grads()
        d_seq = layer.backward(cache, d_hs=d_hs, d_h_last=d_h_last)
        got = (layer.g_w_x.copy(), layer.g_w_h.copy(), layer.g_bias.copy())

        ref_hs, ref_cache = reference_lstm_forward(layer, seq)
        layer.zero_grads()
        ref_d_seq = reference_lstm_backward(layer, ref_cache, d_hs=d_hs, d_h_last=d_h_last)
        ref = (layer.g_w_x, layer.g_w_h, layer.g_bias)

        assert np.array_equal(hs, ref_hs)
        assert np.array_equal(d_seq, ref_d_seq)
        for g, r in zip(got, ref):
            assert np.array_equal(g, r)

    @pytest.mark.parametrize("lead", [(1,), (7, 1), (3, 2, 1)], ids=["3d", "4d", "5d"])
    def test_leading_dimensions_are_a_stack_of_3d_passes(self, lead):
        # each (1, steps, n_in) history keeps the bits of its own 3-D pass,
        # and so does the dense layer on its last hidden state
        rng = np.random.default_rng(4)
        lstm, fc = LstmLayer(6, 32, rng=rng), FcLayer(32, 64, activation="tanh", rng=rng)
        seq = rng.uniform(-1.0, 1.0, size=lead + (4, 6))
        hs, _ = lstm.forward(seq)
        z, _ = fc.forward(hs[..., -1, :])
        assert hs.shape == lead + (4, 32) and z.shape == lead[:-1] + (1, 64)
        for idx in np.ndindex(lead[:-1]):
            one, _ = lstm.forward(seq[idx])
            assert np.array_equal(hs[idx], one)
            assert np.array_equal(z[idx], fc.forward(one[:, -1, :])[0])

    @pytest.mark.parametrize("shape", [(3, 3, 3), (4, 1, 5, 2)])
    def test_backward_names_its_layout(self, shape):
        # (3, 3, 3) is training's (batch, steps, n_in); a leading dimension is refused
        layer = LstmLayer(shape[-1], 4, rng=np.random.default_rng(0))
        hs, cache = layer.forward(np.ones(shape))
        if len(shape) == 3:
            assert layer.backward(cache, d_hs=hs).shape == shape
        else:
            with pytest.raises(ValueError,
                               match=re.escape(f"(batch, steps, n_in) input, got {shape}")):
                layer.backward(cache, d_hs=hs)

    def test_empty_sequence_rejected(self):
        layer = LstmLayer(2, 2)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 0, 2)))


class TestAdam:
    def test_zero_gradient_no_change(self):
        p = np.array([1.0, -2.0])
        opt = Adam(p)
        opt.step(np.zeros(2))
        assert np.array_equal(p, [1.0, -2.0])

    def test_first_step_hand_computed(self):
        # scalar g=1: m_hat = 1, v_hat = 1 -> delta = -lr / (1 + eps)
        p = np.array([0.0])
        opt = Adam(p, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8)
        opt.step(np.array([1.0]))
        assert p[0] == pytest.approx(-1e-3 / (1.0 + 1e-8), rel=1e-12)

    def test_antisymmetric_gradients_move_symmetrically(self):
        p = np.zeros(2)
        opt = Adam(p)
        opt.step(np.array([1.0, -1.0]))
        assert p[0] == pytest.approx(-p[1])

    def test_step_size_bounded(self):
        # provable per-coordinate bound: lr * max(1, (1-b1)/sqrt(1-b2))
        rng = np.random.default_rng(23)
        p = np.zeros(4)
        lr, b1, b2 = 1e-2, 0.9, 0.999
        bound = lr * max(1.0, (1 - b1) / np.sqrt(1 - b2)) * (1 + 1e-12)
        opt = Adam(p, lr=lr, beta1=b1, beta2=b2)
        prev = p.copy()
        for _ in range(200):
            opt.step(rng.normal(size=4) * 10 ** rng.uniform(-3, 3))
            assert np.all(np.abs(p - prev) <= bound)
            prev = p.copy()

    def test_non_finite_gradient_raises(self):
        opt = Adam(np.zeros(2))
        with pytest.raises(TrainingError):
            opt.step(np.array([1.0, np.nan]))

    def test_alternate_momentum_pair_accepted(self):
        opt = Adam(np.zeros(1), beta1=0.95, beta2=0.95)
        opt.step(np.ones(1))
        assert np.isfinite(opt.param).all()

    def test_non_flat_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam(np.zeros((2, 2)))

    @pytest.mark.parametrize("beta1, beta2", [(0.9, 0.999), (0.95, 0.95)])
    def test_matches_per_tensor_reference_bit_for_bit(self, beta1, beta2):
        from sequential_reference import PerTensorAdam

        rng = np.random.default_rng(31)
        layers = {"lstm": LstmLayer(3, 4, rng=rng), "fc": FcLayer(4, 2, rng=rng),
                  "lin": FcLayer(2, 2, bias=False, rng=rng)}
        flat, flat_grad = nn.flatten_layers(layers)
        named = {k: v for prefix, layer in layers.items() for k, v in layer.grads(prefix).items()}
        ref_params = {k: v.copy() for prefix, layer in layers.items()
                      for k, v in layer.params(prefix).items()}
        opt = Adam(flat, lr=1e-2, beta1=beta1, beta2=beta2)
        ref = PerTensorAdam(ref_params, lr=1e-2, beta1=beta1, beta2=beta2)

        def concat(d):
            return np.concatenate([d[k].ravel() for k in named])

        for _ in range(25):
            # magnitudes spread over 1e-12 .. 1e6, both signs
            flat_grad[:] = rng.choice([-1.0, 1.0], size=flat.size) * 10 ** rng.uniform(
                -12, 6, size=flat.size)
            opt.step(flat_grad, named)
            ref.step({k: g.copy() for k, g in named.items()})
            assert np.array_equal(flat, concat(ref.params))
            assert np.array_equal(opt.m, concat(ref.m))
            assert np.array_equal(opt.v, concat(ref.v))
        assert opt.t == ref.t == 25


def two_branch_sigmoid(x):
    """The logistic function with both branches evaluated and one kept per
    element: the form ``_sigmoid`` replaced."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class TestSigmoid:
    def test_edge_values_bit_for_bit(self):
        x = np.array([0.0, -0.0, 1e-310, -1e-310, 36.0, -36.0, 709.0, -709.0, 745.0, -745.0,
                      1e308, -1e308, np.nan, -np.nan, np.inf, -np.inf])
        assert np.array_equal(nn._sigmoid(x).view(np.int64), two_branch_sigmoid(x).view(np.int64))

    @given(x=arrays(np.float64, array_shapes(max_dims=2, max_side=40),
                    elements=st.floats(allow_nan=True, allow_infinity=True, width=64)))
    @settings(max_examples=200, deadline=None)
    def test_matches_two_branch_form_bit_for_bit(self, x):
        with np.errstate(all="ignore"):
            got, want = nn._sigmoid(x), two_branch_sigmoid(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestMetrics:
    def test_perfect_fit(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, y) == 1.0

    def test_mean_predictor_r2_zero(self):
        y = np.array([0.0, 1.0, 2.0])
        assert r2(y, np.full(3, y.mean())) == pytest.approx(0.0)

    def test_hand_values(self):
        # SS_tot = 8 and SS_res = 1
        y = np.array([0.0, 2.0, 4.0])
        y_hat = np.array([0.0, 2.0, 3.0])
        assert r2(y, y_hat) == pytest.approx(0.875)

    def test_r2_unclamped_below_zero(self):
        y = np.array([0.0, 1.0])
        assert r2(y, np.array([5.0, -5.0])) < 0.0

    def test_zero_variance_rejected(self):
        with pytest.raises(MetricError):
            r2(np.ones(4), np.zeros(4))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            r2(np.zeros(3), np.zeros(4))


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


class TestLstmMatchesPerStepRecords:
    """``LstmLayer`` against its form with per-step records and weight
    products inside the time loop (``sequential_reference``), bit for bit
    and sign of zero included, at the shapes training and the MPC lift use."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.one_of(st.just(1), st.integers(1, 300)),
        steps=st.integers(1, 6),
        n_in=st.sampled_from([3, 6, 12, 32]),
        n_hidden=st.sampled_from([4, 16, 32]),
        case=st.sampled_from(["d_hs", "d_h_last", "both", "no_input_grad"]),
    )
    @settings(max_examples=150, deadline=None)
    @example(seed=0, batch=1, steps=4, n_in=6, n_hidden=32, case="d_h_last")  # the MPC lift's shape
    def test_bit_for_bit(self, seed, batch, steps, n_in, n_hidden, case):
        from sequential_reference import lstm_backward, lstm_forward

        rng = np.random.default_rng(seed)
        layer = LstmLayer(n_in, n_hidden, rng=rng)
        layer.bias = rng.normal(size=4 * n_hidden)
        seq = rng.uniform(-3.0, 3.0, size=(batch, steps, n_in))
        d_hs = rng.normal(size=(batch, steps, n_hidden)) if case != "d_h_last" else None
        d_h_last = rng.normal(size=(batch, n_hidden)) if case != "d_hs" else None
        input_grad = case != "no_input_grad"
        runs = []
        for forward, backward in ((LstmLayer.forward, LstmLayer.backward), (lstm_forward, lstm_backward)):
            hs, cache = forward(layer, seq)
            layer.zero_grads()
            d_seq = backward(layer, cache, d_hs=d_hs, d_h_last=d_h_last, input_grad=input_grad)
            runs.append((hs, d_seq, layer.g_w_x.copy(), layer.g_w_h.copy(), layer.g_bias.copy()))
        (hs, d_seq, *grads), (ref_hs, ref_d_seq, *ref_grads) = runs
        assert np.array_equal(bits(hs), bits(ref_hs))
        assert (d_seq is None) == (ref_d_seq is None) == (not input_grad)
        if input_grad:
            assert np.array_equal(bits(d_seq), bits(ref_d_seq))
        for got, want in zip(grads, ref_grads):
            assert np.array_equal(bits(got), bits(want))


class TestLstmInputGradSkip:
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 6),
        steps=st.integers(1, 5),
        n_in=st.integers(1, 5),
        n_hidden=st.integers(1, 6),
    )
    @settings(max_examples=50, deadline=None)
    def test_parameter_gradients_equal_with_and_without(self, seed, batch, steps, n_in, n_hidden):
        rng = np.random.default_rng(seed)
        layer = LstmLayer(n_in, n_hidden, rng=rng)
        seq = rng.uniform(-2.0, 2.0, size=(batch, steps, n_in))
        d_hs = rng.normal(size=(batch, steps, n_hidden))
        d_h_last = rng.normal(size=(batch, n_hidden))
        _, cache = layer.forward(seq)
        grads = []
        for input_grad in (True, False):
            layer.zero_grads()
            d_seq = layer.backward(cache, d_hs=d_hs, d_h_last=d_h_last, input_grad=input_grad)
            assert (d_seq is None) == (not input_grad)
            grads.append((layer.g_w_x.copy(), layer.g_w_h.copy(), layer.g_bias.copy()))
        for with_skip, without in zip(grads[1], grads[0]):
            assert np.array_equal(with_skip, without)
