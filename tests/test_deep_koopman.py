import hashlib
import json
import multiprocessing
import os
import signal
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from koopmanmpc import dataset as dataset_mod
from koopmanmpc import deep_koopman, edmd, nn
from koopmanmpc.dataset import Dataset, Scaler
from koopmanmpc.deep_koopman import (
    ForwardPass,
    KoopmanNet,
    KoopmanNetConfig,
    TrainHyper,
    extract,
    load_net,
    save_net,
    train,
)
from koopmanmpc.lifted import (decode_array, encode_array, load_lifted_model, read_payload,
                               save_lifted_model)
from koopmanmpc.plant import default_config


MINI = KoopmanNetConfig(n=2, h=2, m=1, lifted_dim=6, lstm_hidden=3, seed=42)


def mini_batch(rng, batch=4, cfg=MINI):
    v_k = rng.uniform(0.0, 1.0, size=(batch, cfg.n, cfg.h))
    u = rng.uniform(-1.0, 1.0, size=(batch, cfg.m))
    v_next = rng.uniform(0.0, 1.0, size=(batch, cfg.n, cfg.h))
    return v_k, u, v_next


def tiny_dataset(rng, n_samples=10, cfg=MINI):
    draws = [
        (
            rng.uniform(0.9, 1.1, size=(cfg.n, cfg.h)),
            rng.uniform(0.0, 0.25, size=cfg.m),
            rng.uniform(0.9, 1.1, size=(cfg.n, cfg.h)),
        )
        for _ in range(n_samples)
    ]
    v_k, u_k, v_next = (np.stack(arrays) for arrays in zip(*draws))
    return Dataset(v_k=v_k, u_k=u_k, v_next=v_next, scaler=dataset_mod.fit_scaler(v_k, v_next))


class TestConfig:
    def test_lifting_must_raise_dimension(self):
        with pytest.raises(ValueError):
            KoopmanNetConfig(n=8, h=4, m=3, lifted_dim=8)

    def test_round_trip(self):
        doc = asdict(MINI)
        assert KoopmanNetConfig.from_dict(doc) == MINI


class TestForward:
    def test_output_shapes_mirror_dimensions(self):
        cfg = KoopmanNetConfig(n=12, h=4, m=5, lifted_dim=64, lstm_hidden=8, seed=1)
        net = KoopmanNet(cfg)
        rng = np.random.default_rng(0)
        fp = net.forward(rng.uniform(size=(3, 12, 4)), rng.uniform(size=(3, 5)))
        assert fp.v_next_hat.shape == (3, 12, 4)
        assert fp.v_k_hat.shape == (3, 12, 4)
        assert fp.z.shape == (3, 64)
        assert fp.z_next.shape == (3, 64)

    def test_lifted_step_is_exactly_a_z_plus_b_u(self):
        net = KoopmanNet(MINI)
        rng = np.random.default_rng(1)
        v_k, u, _ = mini_batch(rng)
        fp = net.forward(v_k, u)
        manual = fp.z @ net.lin_state.weight.T + u @ net.lin_control.weight.T
        assert np.array_equal(fp.z_next, manual)

    def test_zero_control_contributes_nothing(self):
        net = KoopmanNet(MINI)
        rng = np.random.default_rng(2)
        v_k, _, _ = mini_batch(rng)
        fp = net.forward(v_k, np.zeros((4, 1)))
        assert np.array_equal(fp.z_next, fp.z @ net.lin_state.weight.T)

    def test_control_enters_linearly(self):
        net = KoopmanNet(MINI)
        rng = np.random.default_rng(3)
        v_k, _, _ = mini_batch(rng, batch=2)
        u1 = rng.uniform(-1, 1, size=(2, 1))
        u2 = rng.uniform(-1, 1, size=(2, 1))
        alpha = 0.3
        z_mix = net.forward(v_k, alpha * u1 + (1 - alpha) * u2).z_next
        z_sep = alpha * net.forward(v_k, u1).z_next + (1 - alpha) * net.forward(v_k, u2).z_next
        assert np.allclose(z_mix, z_sep, atol=1e-12)

    def test_forward_deterministic(self):
        net = KoopmanNet(MINI)
        rng = np.random.default_rng(4)
        v_k, u, _ = mini_batch(rng)
        a = net.forward(v_k, u)
        b = net.forward(v_k, u)
        assert np.array_equal(a.v_next_hat, b.v_next_hat)
        assert np.array_equal(a.z, b.z)

    def test_shape_mismatch_rejected(self):
        net = KoopmanNet(MINI)
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 3, 2)), np.zeros((2, 1)))
        with pytest.raises(ValueError):
            net.forward(np.zeros((2, 2, 2)), np.zeros((3, 1)))

    def test_backward_requires_forward(self):
        net = KoopmanNet(MINI)
        empty = ForwardPass(v_next_hat=np.zeros((1, 2, 2)), v_k_hat=np.zeros((1, 2, 2)),
                            z=np.zeros((1, 6)), z_next=np.zeros((1, 6)))
        with pytest.raises(RuntimeError):
            net.backward(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), empty)


class TestGradients:
    def test_end_to_end_gradient_check(self):
        rng = np.random.default_rng(7)
        net = KoopmanNet(MINI)
        v_k, u, v_next = mini_batch(rng, batch=3)

        def loss():
            fp = net.forward(v_k, u)
            return float(
                np.mean((fp.v_next_hat - v_next) ** 2) + np.mean((fp.v_k_hat - v_k) ** 2)
            )

        fp = net.forward(v_k, u)
        err_n = fp.v_next_hat - v_next
        err_k = fp.v_k_hat - v_k
        net.zero_grads()
        net.backward(2 * err_n / err_n.size, 2 * err_k / err_k.size, fp)
        grads = net.grads()

        eps = 1e-5
        for name, p in net.params().items():
            flat, gflat = p.ravel(), grads[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss()
                flat[i] = orig - eps
                lm = loss()
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                denom = max(abs(fd) + abs(gflat[i]), 1e-6)
                assert abs(fd - gflat[i]) / denom < 1e-4, f"{name}[{i}]"


def two_pass_reference(net, v_k, u, d_v_next, d_v_k):
    """Forward and backward with one decoder pass for z_next and a second
    for z, each with its own backward.  Reference for the stacked decode of
    ``KoopmanNet``; returns the two outputs and the parameter gradients."""
    z, (c_lstm, c_fc) = net.encode(v_k)
    az, c_a = net.lin_state.forward(z)
    bu, c_b = net.lin_control.forward(u)
    z_next = az + bu
    v_next_hat, dec_next = net._decode(z_next)
    v_k_hat, dec_k = net._decode(z)
    net.zero_grads()
    d_z_next = net._decode_backward(dec_next, d_v_next)
    d_z = net._decode_backward(dec_k, d_v_k)
    d_z = d_z + net.lin_state.backward(c_a, d_z_next)
    net.lin_control.backward(c_b, d_z_next)
    net.enc_lstm.backward(c_lstm, d_hs=None, d_h_last=net.enc_fc.backward(c_fc, d_z))
    return v_next_hat, v_k_hat, {k: g.copy() for k, g in net.grads().items()}


class TestStackedDecode:
    @pytest.mark.parametrize("batch", [1, 5, 32])
    def test_matches_two_pass_reference(self, batch):
        cfg = KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16, lstm_hidden=8, seed=9)
        net = KoopmanNet(cfg)
        rng = np.random.default_rng(batch)
        v_k = rng.normal(size=(batch, 6, 4))
        u = rng.normal(size=(batch, 3))
        d_v_next = rng.normal(size=(batch, 6, 4))
        d_v_k = rng.normal(size=(batch, 6, 4))

        ref_next, ref_k, ref_grads = two_pass_reference(net, v_k, u, d_v_next, d_v_k)
        fp = net.forward(v_k, u)
        net.zero_grads()
        net.backward(d_v_next, d_v_k, fp)

        def rel_err(a, b):
            return np.max(np.abs(a - b)) / np.max(np.abs(b))

        assert rel_err(fp.v_next_hat, ref_next) <= 1e-12
        assert rel_err(fp.v_k_hat, ref_k) <= 1e-12
        grads = net.grads()
        assert set(grads) == set(ref_grads)
        for name, ref in ref_grads.items():
            assert rel_err(grads[name], ref) <= 1e-12, name


def flat_layout(named, buf):
    """The (start, stop, name) spans of the named arrays in ``buf``; each
    must be a C-contiguous view of it, and together they must tile it with
    no gap and no overlap."""
    spans = []
    for name, arr in named.items():
        assert np.shares_memory(arr, buf) and arr.base is buf and arr.flags.c_contiguous, name
        lo = (arr.__array_interface__["data"][0] - buf.__array_interface__["data"][0]) // 8
        spans.append((lo, lo + arr.size, name))
    spans.sort()
    assert spans[0][0] == 0 and spans[-1][1] == buf.size
    assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
    return spans


def assert_flat_views(net):
    """Every layer tensor and gradient is the array ``params()`` and
    ``grads()`` name, and both buffers have the same layout."""
    for prefix, layer in net._layers.items():
        for tensor in layer.tensors:
            assert getattr(layer, tensor) is net.params()[f"{prefix}/{tensor}"]
            assert getattr(layer, f"g_{tensor}") is net.grads()[f"{prefix}/{tensor}"]
    assert flat_layout(net.params(), net.flat) == flat_layout(net.grads(), net.flat_grad)


class TestFlatState:
    def test_views_after_construction_zeroing_and_a_step(self):
        net = KoopmanNet(MINI)
        assert_flat_views(net)
        assert net.flat.dtype == np.float64 and net.flat.shape == net.flat_grad.shape
        net.flat_grad[:] = 1.0
        net.zero_grads()
        assert_flat_views(net)
        assert not net.flat_grad.any()
        net.flat_grad[:] = 1.0
        for layer in net._layers.values():
            layer.zero_grads()
        assert_flat_views(net)
        assert not net.flat_grad.any()
        v_k, u, v_next = mini_batch(np.random.default_rng(21))
        fp = net.forward(v_k, u)
        net.backward(fp.v_next_hat - v_next, fp.v_k_hat - v_k, fp)
        assert net.flat_grad.any()
        before = net.flat.copy()
        nn.Adam(net.flat).step(net.flat_grad, net.grads())
        assert_flat_views(net)
        assert not np.array_equal(net.flat, before)

    def test_views_after_loading(self, tmp_path):
        net = KoopmanNet(MINI)
        other = KoopmanNet(KoopmanNetConfig(**{**asdict(MINI), "seed": 43}))
        net.load_params(other.params())
        assert_flat_views(net)
        assert np.array_equal(net.flat, other.flat)
        save_net(other, tmp_path / "ck.json", Scaler.identity())
        back, _ = load_net(tmp_path / "ck.json")
        assert_flat_views(back)
        assert np.array_equal(back.flat, other.flat)

    def test_views_after_training_restores_its_best_epoch(self):
        rng = np.random.default_rng(22)
        ds = tiny_dataset(rng, n_samples=12)
        net, hist = train(MINI, ds, ds, TrainHyper(batch_size=4, max_epochs=6, patience=6,
                                                   learning_rate=0.05))
        assert_flat_views(net)
        # the restored parameters are the best epoch's, an earlier one than
        # the last: evaluating them again gives that epoch's MAE
        best = min(hist, key=lambda st: st.val_mae)
        assert best.epoch < hist[-1].epoch
        again = deep_koopman._eval_metrics(net, *ds.normalized())
        assert again[2] + again[3] == best.val_mae

    def test_non_finite_gradient_names_its_tensor_and_changes_nothing(self):
        net = KoopmanNet(MINI)
        opt = nn.Adam(net.flat, beta1=0.95, beta2=0.95)
        v_k, u, v_next = mini_batch(np.random.default_rng(23))
        fp = net.forward(v_k, u)
        net.backward(fp.v_next_hat - v_next, fp.v_k_hat - v_k, fp)
        opt.step(net.flat_grad, net.grads())
        state = (net.flat.copy(), opt.m.copy(), opt.v.copy(), opt.t)
        net.grads()["decoder_lstm/w_h"][1, 2] = np.nan
        with pytest.raises(nn.TrainingError, match="'decoder_lstm/w_h'"):
            opt.step(net.flat_grad, net.grads())
        for kept, now in zip(state, (net.flat, opt.m, opt.v, opt.t)):
            assert np.array_equal(kept, now)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_loss_raises(self, bad):
        ds = tiny_dataset(np.random.default_rng(24))
        ds.v_next[0, 0, 0] = bad
        with pytest.raises(nn.TrainingError, match="loss diverged at epoch 0"):
            train(MINI, ds, ds, TrainHyper(batch_size=4, max_epochs=2))


class TestTrain:
    def test_memorizes_tiny_dataset(self):
        # overfit sanity run on 10 real samples, full-batch
        cfg = default_config()
        full = dataset_mod.generate(cfg, dataset_mod.DatasetConfig(n_loads=1), seed=3)
        ds = Dataset(v_k=full.v_k[:10], u_k=full.u_k[:10], v_next=full.v_next[:10],
                     scaler=full.scaler)
        net_cfg = KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16, lstm_hidden=8, seed=42)
        hyper = TrainHyper(batch_size=10, max_epochs=2000, patience=2000)
        net, hist = train(net_cfg, ds, ds, hyper)
        assert hist[-1].train_mse_next + hist[-1].train_mse_recon < 1e-3

    def test_full_batch_is_one_step_per_epoch(self):
        rng = np.random.default_rng(12)
        ds = tiny_dataset(rng, n_samples=8)
        hyper = TrainHyper(batch_size=8, max_epochs=3, patience=3)
        net, hist = train(MINI, ds, ds, hyper)
        assert len(hist) == 3

    def test_training_deterministic(self):
        rng = np.random.default_rng(13)
        ds = tiny_dataset(rng, n_samples=12)
        hyper = TrainHyper(batch_size=4, max_epochs=5, patience=5)
        _, h1 = train(MINI, ds, ds, hyper)
        _, h2 = train(MINI, ds, ds, hyper)
        assert h1 == h2

    def test_missing_scaler_rejected(self):
        # no dataset reaches training without the scaler it normalizes with
        ds = tiny_dataset(np.random.default_rng(14))
        with pytest.raises(TypeError, match="scaler"):
            Dataset(v_k=ds.v_k, u_k=ds.u_k, v_next=ds.v_next)

    def test_validation_set_with_another_scaler_rejected(self):
        rng = np.random.default_rng(14)
        tr, va = tiny_dataset(rng), tiny_dataset(rng)
        assert va.scaler != tr.scaler
        with pytest.raises(ValueError, match="share one scaler"):
            train(MINI, tr, va, TrainHyper(max_epochs=1))
        assert multiprocessing.active_children() == []

    def test_hyper_names_every_field_out_of_range(self):
        with pytest.raises(ValueError) as err:
            TrainHyper(batch_size=0, learning_rate=-1.0, beta1=1.5, beta2=float("nan"),
                       max_epochs=0, patience=-3)
        for name in ("batch_size", "learning_rate", "beta1", "beta2", "max_epochs", "patience"):
            assert name in str(err.value)

    def test_history_csv(self, tmp_path):
        rng = np.random.default_rng(15)
        ds = tiny_dataset(rng)
        _, hist = train(MINI, ds, ds, TrainHyper(batch_size=4, max_epochs=2, patience=2))
        deep_koopman.history_to_csv(hist, tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[0].startswith("epoch,")


def split_tiny(seed):
    """12 training and 6 validation samples on which training at a high
    learning rate stops early: at epoch 4 with patience 0 or 1, at epoch 5
    with patience 2."""
    rng = np.random.default_rng(seed)
    tr = tiny_dataset(rng, n_samples=12)
    return tr, replace(tiny_dataset(rng, n_samples=6), scaler=tr.scaler)


def fast_hyper(**kw):
    return TrainHyper(batch_size=4, learning_rate=0.05, **kw)


STEPS_PER_EPOCH = 3  # 12 training samples in batches of 4
ADAM_STEP = nn.Adam.step


def failing_step_at(call):
    """An ``Adam.step`` that raises ``TrainingError`` at its ``call``-th
    call (0-based) and updates as usual otherwise."""
    real, calls = ADAM_STEP, []

    def step(self, grad, named=None):
        calls.append(None)
        if len(calls) == call + 1:
            raise nn.TrainingError("non-finite gradient in 'injected'")
        return real(self, grad, named)

    return step


def assert_same_run(got, want):
    (net, hist), (ref_net, ref_hist) = got, want
    assert hist == ref_hist
    assert np.array_equal(net.flat.view(np.uint64), ref_net.flat.view(np.uint64))


class TestTrainMatchesInLoopValidation:
    """``train`` validates each epoch one epoch behind in a worker process;
    ``sequential_reference.train`` validates it in the epoch loop.  The
    parameters, the history and the epoch count must be the same bits."""

    @pytest.mark.parametrize("hyper, epochs", [
        (fast_hyper(max_epochs=30, patience=0), 5),
        (fast_hyper(max_epochs=30, patience=1), 5),
        (fast_hyper(max_epochs=30, patience=2), 6),
        (fast_hyper(max_epochs=6, patience=2), 6),  # stops at its last epoch
        (fast_hyper(max_epochs=8, patience=8), 8),  # runs to max_epochs
        (fast_hyper(max_epochs=1, patience=0), 1),
    ])
    def test_same_run(self, hyper, epochs):
        from sequential_reference import train as reference

        tr, va = split_tiny(33)
        want = reference(MINI, tr, va, hyper)
        assert len(want[1]) == epochs
        assert_same_run(train(MINI, tr, va, hyper), want)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("patience, stop_epoch", [(1, 4), (2, 5)])
    @pytest.mark.parametrize("step_in_epoch", [0, STEPS_PER_EPOCH - 1])
    def test_failing_look_ahead_epoch_is_discarded(self, monkeypatch, patience, stop_epoch,
                                                   step_in_epoch):
        from sequential_reference import train as reference

        tr, va = split_tiny(33)
        hyper = fast_hyper(max_epochs=30, patience=patience)
        # the epoch after the one that stops the run fails; the reference never trains it
        call = (stop_epoch + 1) * STEPS_PER_EPOCH + step_in_epoch
        monkeypatch.setattr(nn.Adam, "step", failing_step_at(call))
        want = reference(MINI, tr, va, hyper)
        assert len(want[1]) == stop_epoch + 1
        monkeypatch.setattr(nn.Adam, "step", failing_step_at(call))
        assert_same_run(train(MINI, tr, va, hyper), want)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("epoch", [1, 2, 4])
    def test_failing_epoch_after_one_that_goes_on_raises(self, monkeypatch, epoch):
        from sequential_reference import train as reference

        tr, va = split_tiny(33)
        hyper = fast_hyper(max_epochs=30, patience=1)
        monkeypatch.setattr(nn.Adam, "step", failing_step_at(epoch * STEPS_PER_EPOCH))
        with pytest.raises(nn.TrainingError) as want:
            reference(MINI, tr, va, hyper)
        monkeypatch.setattr(nn.Adam, "step", failing_step_at(epoch * STEPS_PER_EPOCH))
        with pytest.raises(nn.TrainingError) as got:
            train(MINI, tr, va, hyper)
        assert str(got.value) == str(want.value)
        assert multiprocessing.active_children() == []

    def test_in_process_validation_without_fork(self, monkeypatch):
        from sequential_reference import train as reference

        tr, va = split_tiny(33)
        hyper = fast_hyper(max_epochs=30, patience=2)
        want = reference(MINI, tr, va, hyper)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", None)  # must not be reached
        assert_same_run(train(MINI, tr, va, hyper), want)


def train_tiny(hyper):
    net, hist = train(MINI, *split_tiny(33), hyper)
    return net.flat, hist


class TestValidationWorker:
    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs a forked pool")
    def test_in_process_in_a_daemonic_pool_worker(self):
        # a pool's worker may not start a process, so it validates in-process
        from sequential_reference import train as reference

        hyper = fast_hyper(max_epochs=30, patience=2)
        ref_net, ref_hist = reference(MINI, *split_tiny(33), hyper)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            flat, hist = pool.apply_async(train_tiny, (hyper,)).get(timeout=60)
        assert hist == ref_hist
        assert np.array_equal(flat.view(np.uint64), ref_net.flat.view(np.uint64))

    def test_reaped_after_a_dataset_is_rejected(self):
        ds = tiny_dataset(np.random.default_rng(31))
        empty = Dataset(v_k=ds.v_k[:0], u_k=ds.u_k[:0], v_next=ds.v_next[:0], scaler=ds.scaler)
        with pytest.raises(ValueError, match="nonempty"):
            train(MINI, ds, empty, TrainHyper(max_epochs=1))
        assert multiprocessing.active_children() == []

    def test_reaped_after_a_diverged_loss(self):
        ds = tiny_dataset(np.random.default_rng(24))
        ds.v_next[0, 0, 0] = np.nan
        with pytest.raises(nn.TrainingError, match="loss diverged at epoch 0"):
            train(MINI, ds, ds, TrainHyper(batch_size=4, max_epochs=2))
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="validation runs in-process without fork")
    def test_a_dead_worker_raises_and_does_not_hang(self, monkeypatch):
        def timed_out(signum, frame):
            raise TimeoutError("train hung after its validation worker died")

        def die(*args, **kwargs):
            os._exit(1)

        # the worker is forked after the patch, so it evaluates with ``die``
        monkeypatch.setattr(deep_koopman, "_eval_metrics", die)
        tr, va = split_tiny(33)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match="validation worker exited with code 1"):
                train(MINI, tr, va, fast_hyper(max_epochs=30, patience=2))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []


class TestExtractAndLift:
    def test_lift_dimension(self):
        cfg = KoopmanNetConfig(n=12, h=4, m=5, lifted_dim=64, lstm_hidden=8, seed=5)
        net = KoopmanNet(cfg)
        model = extract(net, Scaler(v_ref=1.0, v_lo=-0.2, v_hi=0.1))
        z = model.lift(np.full((12, 4), 0.95))
        assert z.shape == (64,)
        assert model.A.shape == (64, 64) and model.B.shape == (64, 5)

    def test_matrices_read_verbatim(self):
        net = KoopmanNet(MINI)
        model = extract(net, Scaler.identity())
        assert np.array_equal(model.A, net.lin_state.weight)
        assert np.array_equal(model.B, net.lin_control.weight)

    def test_lift_deterministic_and_matches_encoder(self):
        net = KoopmanNet(MINI)
        sc = Scaler(v_ref=1.0, v_lo=-0.2, v_hi=0.1)
        model = extract(net, sc)
        rng = np.random.default_rng(6)
        hist = rng.uniform(0.9, 1.1, size=(2, 2))
        z1 = model.lift(hist)
        z2 = model.lift(hist)
        assert np.array_equal(z1, z2)
        z_net, _ = net.encode(sc.normalize_v(hist)[None])
        assert np.allclose(z1, z_net[0])

    def test_reference_lift_uses_constant_history(self):
        net = KoopmanNet(MINI)
        sc = Scaler(v_ref=1.0, v_lo=-0.2, v_hi=0.1)
        model = extract(net, sc)
        z_ref = model.lift_reference(1.0)
        assert np.allclose(z_ref, model.lift(np.ones((2, 2))))


class TestSerialization:
    def test_lifted_model_round_trip(self, tmp_path):
        net = KoopmanNet(MINI)
        sc = Scaler(v_ref=1.0, v_lo=-0.2, v_hi=0.1)
        model = extract(net, sc)
        save_lifted_model(model, tmp_path / "m.json")
        back = load_lifted_model(tmp_path / "m.json")
        assert np.array_equal(back.A, model.A)
        assert np.array_equal(back.B, model.B)
        hist = np.random.default_rng(8).uniform(0.9, 1.1, size=(2, 2))
        assert np.array_equal(back.lift(hist), model.lift(hist))

    def test_checkpoint_round_trip(self, tmp_path):
        net = KoopmanNet(MINI)
        sc = Scaler.identity()
        save_net(net, tmp_path / "ck.json", scaler=sc)
        back, back_sc = load_net(tmp_path / "ck.json")
        for k, v in net.params().items():
            assert np.array_equal(back.params()[k], v)
        assert back_sc == sc

    def test_lossless_round_trip(self, tmp_path):
        # every named tensor, the config and the scaler come back bit for
        # bit, signed zeros, subnormals and the extreme magnitudes included
        net = KoopmanNet(MINI)
        net.flat[...] = np.random.default_rng(2).normal(size=net.flat.shape)
        net.flat[:6] = [-0.0, 5e-324, -2.5e-310, np.finfo(float).max, -np.finfo(float).max, 0.1]
        sc = Scaler(v_ref=1.0 + 2**-52, v_lo=-0.2, v_hi=0.1, u_lo=-0.0, u_hi=1 / 3)
        save_net(net, tmp_path / "ck.json", sc)
        back, back_sc = load_net(tmp_path / "ck.json")
        assert back.config == net.config
        assert [x.hex() for x in astuple(back_sc)] == [x.hex() for x in astuple(sc)]
        assert back.params().keys() == net.params().keys()
        for name, arr in net.params().items():
            assert back.params()[name].tobytes() == arr.tobytes(), name

    # sha256 of these JSON documents, every tensor a payload record in the
    # .bin sidecar whose sha256 the document holds
    GOLDEN = {
        "checkpoint": "d4bdd3160cdd2578a2465e35358daa257db17bd6bdd1494bccf0147065278c21",
        "net_model": "8c1b29703385bb1e367089ee462ce9ca9dc4a27adb9fb991942229316f6dd3d9",
        "edmd_model": "fe66a30f8749b32c5ff6918a42cd9e85c18ccccabed0619658d92ae99336a7f5",
    }

    @staticmethod
    def write_golden_artifacts(path):
        """Write the three golden artifacts under ``path``; return the
        in-memory tensors of each, keyed as ``file_tensors`` keys them."""
        net = KoopmanNet(KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16, lstm_hidden=8, seed=2022))
        sc = Scaler(v_ref=1.0, v_lo=-0.2, v_hi=0.1)
        rng = np.random.default_rng(2022)
        # drawn in this order: the pinned digests depend on it
        v_k = rng.uniform(0.9, 1.1, size=(20, 2, 2))
        u_k = rng.uniform(0.0, 0.25, size=(20, 1))
        v_next = rng.uniform(0.9, 1.1, size=(20, 2, 2))
        ds = Dataset(v_k=v_k, u_k=u_k, v_next=v_next, scaler=dataset_mod.fit_scaler(v_k, v_next))
        net_model = extract(net, sc)
        edmd_model = edmd.fit(ds, edmd.polynomial_dictionary(4, 2), ridge=1e-6)
        save_net(net, path / "checkpoint", scaler=sc)
        save_lifted_model(net_model, path / "net_model")
        save_lifted_model(edmd_model, path / "edmd_model")
        encoder = {k: v for k, v in net.params().items() if k.startswith("encoder_")}
        return {
            "checkpoint": net.params(),
            "net_model": {"A": net_model.A, "B": net_model.B, **encoder},
            "edmd_model": {"A": edmd_model.A, "B": edmd_model.B, "C": edmd_model.C},
        }

    @staticmethod
    def file_tensors(path) -> dict:
        """Every payload record of a checkpoint or a lifted model, decoded."""
        doc = json.loads(path.read_text())
        payload = read_payload(path, doc)
        records = doc["tensors"] if "tensors" in doc else {
            **{k: doc[k] for k in ("A", "B", "C") if k in doc}, **doc.get("encoder", {})}
        return {name: decode_array(name, rec, payload) for name, rec in records.items()}

    def test_golden_artifact_bytes(self, tmp_path):
        self.write_golden_artifacts(tmp_path)
        for name, digest in self.GOLDEN.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
            recorded = json.loads((tmp_path / name).read_text())["payload"]["sha256"]
            sidecar = (tmp_path / name).with_suffix(".bin")
            assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == recorded, name

    def test_golden_tensors_match_the_nested_list_parse(self, tmp_path):
        # the payloads hold the bits the nested-list form read back
        for name, tensors in self.write_golden_artifacts(tmp_path).items():
            decoded = self.file_tensors(tmp_path / name)
            assert decoded.keys() == tensors.keys(), name
            for key, arr in tensors.items():
                listed = np.array(json.loads(json.dumps(arr.tolist())))
                assert decoded[key].shape == listed.shape, (name, key)
                assert decoded[key].tobytes() == listed.tobytes(), (name, key)

    @pytest.mark.parametrize(
        "tensor, edit",
        [
            ("encoder_lstm/w_h", lambda doc, pay: doc["encoder"].pop("encoder_lstm/w_h")),
            ("encoder_fc/bias", lambda doc, pay: doc["encoder"].update(
                {"encoder_fc/bias": encode_array(np.array([0.5]), pay)})),
            (r"\bA\b", lambda doc, pay: doc.update(A=encode_array(np.zeros((10, 6)), pay))),
        ],
        ids=["missing_encoder_tensor", "broadcast_bias", "ten_row_A"],
    )
    def test_malformed_lifted_model_rejected(self, tensor, edit):
        payload = bytearray()
        doc = extract(KoopmanNet(MINI), Scaler.identity()).to_dict(payload)
        edit(doc, payload)
        with pytest.raises(ValueError, match=tensor):
            deep_koopman.LiftedLinearModel.from_dict(doc, payload)

    def test_unknown_kind_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"kind": "mystery"}')
        with pytest.raises(ValueError):
            load_lifted_model(tmp_path / "bad.json")


FMAX = float(np.finfo(float).max)
# every finite float64, drawing often the values a lossy encoding loses
# first: signed zeros, subnormals and the largest magnitudes
finite = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, -1e-308, FMAX, -FMAX]),
                   st.floats(allow_nan=False, allow_infinity=False, width=64))


def assert_bits_equal(got, want, what):
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), what


def draw_scaler(data):
    v_lo = data.draw(st.floats(-1.0, 0.5))
    u_lo = data.draw(st.floats(-1.0, 0.5))
    return Scaler(v_ref=data.draw(st.floats(0.5, 1.5)), v_lo=v_lo,
                  v_hi=v_lo + data.draw(st.floats(1e-3, 2.0)),
                  u_lo=u_lo, u_hi=u_lo + data.draw(st.floats(1e-3, 2.0)))


def assert_lifts_equal(a, b, n, h, data):
    hist = data.draw(arrays(float, (3, n, h), elements=st.floats(0.0, 1.2)))
    with np.errstate(all="ignore"):  # extreme weights may overflow, identically in both
        assert np.array_equal(a.lift(hist), b.lift(hist), equal_nan=True)
        assert np.array_equal(a.lift(hist[0]), b.lift(hist[0]), equal_nan=True)


class TestLiftedModelRoundTrip:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_network_model(self, tmp_path_factory, data):
        # the checkpoint of a network with drawn tensors, and its lifted model
        n, h, m = (data.draw(st.integers(1, 4)) for _ in range(3))
        cfg = KoopmanNetConfig(n=n, h=h, m=m, lifted_dim=n + data.draw(st.integers(1, 5)),
                               lstm_hidden=data.draw(st.integers(1, 4)), seed=0)
        net, scaler = KoopmanNet(cfg), draw_scaler(data)
        net.load_params({name: data.draw(arrays(float, arr.shape, elements=finite))
                         for name, arr in net.params().items()})
        folder = tmp_path_factory.mktemp("net")
        save_net(net, folder / "checkpoint.json", scaler=scaler)
        back_net, back_scaler = load_net(folder / "checkpoint.json")
        assert back_net.config == cfg and back_scaler == scaler
        assert back_net.params().keys() == net.params().keys()
        for name, arr in net.params().items():
            assert_bits_equal(back_net.params()[name], arr, name)
        model = extract(net, scaler)
        save_lifted_model(model, folder / "lifted_model.json")
        back = load_lifted_model(folder / "lifted_model.json")
        assert_bits_equal(back.A, model.A, "A")
        assert_bits_equal(back.B, model.B, "B")
        assert back.scaler == model.scaler and back.config == model.config
        enc = deep_koopman._encoder_params(model.enc_lstm, model.enc_fc)
        back_enc = deep_koopman._encoder_params(back.enc_lstm, back.enc_fc)
        for name, arr in enc.items():
            assert_bits_equal(back_enc[name], arr, name)
        assert_lifts_equal(back, model, n, h, data)

    @given(data=st.data(), kind=st.sampled_from(["identity", "polynomial", "rbf"]))
    @settings(max_examples=30, deadline=None)
    def test_edmd_model(self, tmp_path_factory, data, kind):
        n, h, m = (data.draw(st.integers(1, 3)) for _ in range(3))
        d = n * h
        if kind == "identity":
            dictionary = edmd.identity_dictionary(d)
        elif kind == "polynomial":
            dictionary = edmd.polynomial_dictionary(d, data.draw(st.integers(1, 3)))
        else:
            centers = data.draw(arrays(float, (data.draw(st.integers(1, 4)), d),
                                       elements=finite))
            dictionary = edmd.rbf_dictionary(d, centers, data.draw(st.floats(1e-3, 10.0)))
        nl = dictionary.n_features
        model = edmd.EdmdModel(
            dictionary,
            A=data.draw(arrays(float, (nl, nl), elements=finite)),
            B=data.draw(arrays(float, (nl, m), elements=finite)),
            C=data.draw(arrays(float, (d, nl), elements=finite)),
            scaler=draw_scaler(data), n=n, h=h,
        )
        path = tmp_path_factory.mktemp("edmd") / "lifted_model.json"
        save_lifted_model(model, path)
        back = load_lifted_model(path)
        for name in ("A", "B", "C"):
            assert_bits_equal(getattr(back, name), getattr(model, name), name)
        assert back.scaler == model.scaler and (back.n, back.h) == (n, h)
        if kind == "rbf":
            assert_bits_equal(back.dictionary.centers, model.dictionary.centers, "centers")
        assert_lifts_equal(back, model, n, h, data)
