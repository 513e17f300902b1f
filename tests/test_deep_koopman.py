import hashlib

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
    load_lifted_model,
    load_net,
    save_lifted_model,
    save_net,
    train,
)
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
    ds = Dataset(v_k=v_k, u_k=u_k, v_next=v_next)
    ds.scaler = dataset_mod.fit_scaler(ds)
    return ds


class TestConfig:
    def test_lifting_must_raise_dimension(self):
        with pytest.raises(ValueError):
            KoopmanNetConfig(n=8, h=4, m=3, lifted_dim=8)

    def test_round_trip(self):
        doc = MINI.to_dict()
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


class TestTrain:
    def test_memorizes_tiny_dataset(self):
        # overfit sanity run on 10 real samples, full-batch
        cfg = default_config()
        full = dataset_mod.generate(cfg.model, cfg.schedule, n_loads=1, seed=3,
                                    fault=cfg.fault)
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
        rng = np.random.default_rng(14)
        ds = tiny_dataset(rng)
        ds.scaler = None
        with pytest.raises(ValueError):
            train(MINI, ds, ds, TrainHyper(max_epochs=1))

    def test_history_csv(self, tmp_path):
        rng = np.random.default_rng(15)
        ds = tiny_dataset(rng)
        _, hist = train(MINI, ds, ds, TrainHyper(batch_size=4, max_epochs=2, patience=2))
        deep_koopman.history_to_csv(hist, tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert len(lines) == 3 and lines[0].startswith("epoch,")


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

    def test_extract_requires_scaler(self):
        net = KoopmanNet(MINI)
        with pytest.raises(ValueError):
            extract(net, None)


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
        assert back_sc.to_dict() == sc.to_dict()

    # sha256 of these artifacts as the pure-Python JSON encoder wrote them
    GOLDEN = {
        "checkpoint": "4beb93b10b2d392c24e7222c002f36197e595d1ac098fa9aa31c6a2b5c20121a",
        "net_model": "9e11ff4e63e89f28389534ebe1fb49dc8bd41ffe0fd36f495b5da0ffcd43c6f5",
        "edmd_model": "60ef2e99596f130e67416efa7bd9220d76725d5beec246f84e0f1cee14138578",
    }

    def test_golden_artifact_bytes(self, tmp_path):
        net = KoopmanNet(KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16, lstm_hidden=8, seed=2022))
        sc = Scaler(v_ref=1.0, v_lo=-0.2, v_hi=0.1)
        rng = np.random.default_rng(2022)
        ds = Dataset(v_k=rng.uniform(0.9, 1.1, size=(20, 2, 2)),
                     u_k=rng.uniform(0.0, 0.25, size=(20, 1)),
                     v_next=rng.uniform(0.9, 1.1, size=(20, 2, 2)))
        ds.scaler = dataset_mod.fit_scaler(ds)
        save_net(net, tmp_path / "checkpoint", scaler=sc)
        save_lifted_model(extract(net, sc), tmp_path / "net_model")
        save_lifted_model(edmd.fit(ds, edmd.polynomial_dictionary(4, 2), ridge=1e-6),
                          tmp_path / "edmd_model")
        for name, digest in self.GOLDEN.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize(
        "tensor, edit",
        [
            ("encoder_lstm/w_h", lambda doc: doc["encoder"].pop("encoder_lstm/w_h")),
            ("encoder_fc/bias",
             lambda doc: doc["encoder"].update({"encoder_fc/bias": {"shape": [1], "data": [0.5]}})),
            (r"\bA\b", lambda doc: doc.update(A=np.zeros((10, 6)).tolist())),
        ],
        ids=["missing_encoder_tensor", "broadcast_bias", "ten_row_A"],
    )
    def test_malformed_lifted_model_rejected(self, tensor, edit):
        doc = extract(KoopmanNet(MINI), Scaler.identity()).to_dict()
        edit(doc)
        with pytest.raises(ValueError, match=tensor):
            deep_koopman.LiftedLinearModel.from_dict(doc)

    def test_unknown_kind_rejected(self, tmp_path):
        (tmp_path / "bad.json").write_text('{"kind": "mystery"}')
        with pytest.raises(ValueError):
            load_lifted_model(tmp_path / "bad.json")


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


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
        n, h, m = (data.draw(st.integers(1, 4)) for _ in range(3))
        cfg = KoopmanNetConfig(n=n, h=h, m=m, lifted_dim=n + data.draw(st.integers(1, 5)),
                               lstm_hidden=data.draw(st.integers(1, 4)), seed=0)
        model = extract(KoopmanNet(cfg), draw_scaler(data))
        shapes = {name: tuple(rec["shape"]) for name, rec in model.to_dict()["encoder"].items()}
        tensors = {name: data.draw(arrays(float, shape, elements=finite))
                   for name, shape in shapes.items()}
        model = deep_koopman.LiftedLinearModel(
            cfg, tensors, A=data.draw(arrays(float, model.A.shape, elements=finite)),
            B=data.draw(arrays(float, model.B.shape, elements=finite)), scaler=model.scaler)
        path = tmp_path_factory.mktemp("net") / "lifted_model.json"
        save_lifted_model(model, path)
        back = load_lifted_model(path)
        assert np.array_equal(back.A, model.A) and np.array_equal(back.B, model.B)
        assert back.scaler == model.scaler and back.config == model.config
        back_enc, enc = back.to_dict()["encoder"], model.to_dict()["encoder"]
        assert back_enc.keys() == enc.keys()
        for name in enc:
            assert np.array_equal(back_enc[name]["data"], enc[name]["data"])
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
                                       elements=st.floats(-1e3, 1e3)))
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
            assert np.array_equal(getattr(back, name), getattr(model, name)), name
        assert back.scaler == model.scaler and (back.n, back.h) == (n, h)
        if kind == "rbf":
            assert np.array_equal(back.dictionary.centers, model.dictionary.centers)
        assert_lifts_equal(back, model, n, h, data)
