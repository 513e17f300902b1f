"""End-to-end encoder / linear-dynamics / decoder network.

The encoder runs an LSTM across the voltage history (one step per sample
column) and lifts the final hidden state through a tanh dense layer into
an N-dimensional space.  Two bias-free linear layers play the role of the
lifted state-transition and control-injection matrices, so one control
interval in the lifted space is exactly ``z_next = A z + B u``.  The
decoder mirrors the encoder in reverse: a tanh dense layer fans the
lifted vector out to one hidden seed per history column, an LSTM runs
across those, and a shared per-step readout produces the voltage matrix.

Training minimizes the mean squared reconstruction error of both the
successor history (through A, B) and the input history itself (straight
through encoder and decoder), with equal weights.
"""

from __future__ import annotations

import copy
import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from koopmanmpc import nn
from koopmanmpc.dataset import Dataset, Scaler


@dataclass(frozen=True)
class KoopmanNetConfig:
    n: int
    h: int
    m: int
    lifted_dim: int = 64
    lstm_hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.lifted_dim <= self.n:
            raise ValueError("lifted dimension must exceed the state dimension")
        if min(self.n, self.h, self.m, self.lstm_hidden) < 1:
            raise ValueError("all dimensions must be positive")

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "h": self.h,
            "m": self.m,
            "lifted_dim": self.lifted_dim,
            "lstm_hidden": self.lstm_hidden,
            "seed": self.seed,
        }

    @staticmethod
    def from_dict(doc: dict) -> "KoopmanNetConfig":
        return KoopmanNetConfig(**{k: int(doc[k]) for k in ("n", "h", "m", "lifted_dim", "lstm_hidden", "seed")})


@dataclass
class ForwardPass:
    """Outputs of one forward evaluation, lifted intermediates included."""

    v_next_hat: np.ndarray  # (batch, n, h)
    v_k_hat: np.ndarray  # (batch, n, h)
    z: np.ndarray  # (batch, N)
    z_next: np.ndarray  # (batch, N)
    _caches: tuple = field(repr=False, default=())


class KoopmanNet:
    """All trainable pieces of the architecture, float64 throughout."""

    def __init__(self, config: KoopmanNetConfig):
        self.config = config
        rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(1)[0])
        n, h, m = config.n, config.h, config.m
        nl, nh = config.lifted_dim, config.lstm_hidden
        self.enc_lstm = nn.LstmLayer(n, nh, rng=rng)
        self.enc_fc = nn.FcLayer(nh, nl, activation="tanh", rng=rng)
        # pure linear maps: no bias, no activation
        self.lin_state = nn.FcLayer(nl, nl, activation="identity", bias=False, rng=rng)
        self.lin_control = nn.FcLayer(m, nl, activation="identity", bias=False, rng=rng)
        self.dec_fc = nn.FcLayer(nl, nh * h, activation="tanh", rng=rng)
        self.dec_lstm = nn.LstmLayer(nh, nh, rng=rng)
        self.readout = nn.FcLayer(nh, n, activation="identity", rng=rng)
        self._layers = {
            "encoder_lstm": self.enc_lstm,
            "encoder_fc": self.enc_fc,
            "state_matrix": self.lin_state,
            "control_matrix": self.lin_control,
            "decoder_fc": self.dec_fc,
            "decoder_lstm": self.dec_lstm,
            "readout": self.readout,
        }

    # -- parameter plumbing

    def params(self) -> dict:
        out = {}
        for name, layer in self._layers.items():
            out.update(layer.params(name))
        return out

    def grads(self) -> dict:
        out = {}
        for name, layer in self._layers.items():
            out.update(layer.grads(name))
        return out

    def zero_grads(self):
        for layer in self._layers.values():
            layer.zero_grads()

    def load_params(self, params: dict):
        _copy_tensors(self.params(), params)

    # -- forward / backward

    def encode(self, v_k: np.ndarray):
        """Lift a batch of normalized histories (batch, n, h) to (batch, N)."""
        return _encode(self.enc_lstm, self.enc_fc, v_k)

    def _decode(self, z: np.ndarray):
        batch = z.shape[0]
        h, nh, n = self.config.h, self.config.lstm_hidden, self.config.n
        y, c_fc = self.dec_fc.forward(z)
        seq = y.reshape(batch, h, nh)
        hs, c_lstm = self.dec_lstm.forward(seq)
        flat, c_ro = self.readout.forward(hs.reshape(batch * h, nh))
        v = flat.reshape(batch, h, n).transpose(0, 2, 1)
        return v, (c_fc, c_lstm, c_ro, batch)

    def _decode_backward(self, cache, d_v):
        c_fc, c_lstm, c_ro, batch = cache
        h, nh = self.config.h, self.config.lstm_hidden
        d_flat = np.ascontiguousarray(d_v.transpose(0, 2, 1)).reshape(batch * h, -1)
        d_hs = self.readout.backward(c_ro, d_flat).reshape(batch, h, nh)
        d_seq = self.dec_lstm.backward(c_lstm, d_hs=d_hs)
        return self.dec_fc.backward(c_fc, d_seq.reshape(batch, h * nh))

    def forward(self, v_k: np.ndarray, u_k: np.ndarray) -> ForwardPass:
        """v_k: (batch, n, h) normalized histories; u_k: (batch, m)
        normalized controls.  Returns predictions for the successor
        history and the reconstruction of v_k itself."""
        if v_k.ndim != 3 or v_k.shape[1:] != (self.config.n, self.config.h):
            raise ValueError(
                f"expected histories (batch, {self.config.n}, {self.config.h}), got {v_k.shape}"
            )
        if u_k.ndim != 2 or u_k.shape != (v_k.shape[0], self.config.m):
            raise ValueError(f"expected controls ({v_k.shape[0]}, {self.config.m}), got {u_k.shape}")
        z, enc_cache = self.encode(v_k)
        az, c_a = self.lin_state.forward(z)
        bu, c_b = self.lin_control.forward(u_k)
        z_next = az + bu
        # one decoder pass over both lifted batches: rows [:batch] are z_next
        batch = z.shape[0]
        v_hat, dec_cache = self._decode(np.concatenate([z_next, z]))
        return ForwardPass(
            v_next_hat=v_hat[:batch],
            v_k_hat=v_hat[batch:],
            z=z,
            z_next=z_next,
            _caches=(enc_cache, c_a, c_b, dec_cache),
        )

    def backward(self, d_v_next: np.ndarray, d_v_k: np.ndarray, fp: ForwardPass):
        """Accumulate parameter gradients for output gradients of the
        forward pass ``fp``."""
        if not fp._caches:
            raise RuntimeError("backward requires a recorded forward pass")
        enc_cache, c_a, c_b, dec_cache = fp._caches
        d_z_both = self._decode_backward(dec_cache, np.concatenate([d_v_next, d_v_k]))
        batch = d_v_next.shape[0]
        d_z_next, d_z = d_z_both[:batch], d_z_both[batch:]
        d_z = d_z + self.lin_state.backward(c_a, d_z_next)
        self.lin_control.backward(c_b, d_z_next)
        c_lstm, c_fc = enc_cache
        d_h_last = self.enc_fc.backward(c_fc, d_z)
        self.enc_lstm.backward(c_lstm, d_hs=None, d_h_last=d_h_last, input_grad=False)


def _encode(lstm: nn.LstmLayer, fc: nn.FcLayer, v_k: np.ndarray):
    """The encoder shared by the network and the extracted model: the LSTM
    runs over the history columns, its last hidden state goes through the
    tanh layer."""
    seq = np.ascontiguousarray(v_k.transpose(0, 2, 1))
    hs, c_lstm = lstm.forward(seq)
    z, c_fc = fc.forward(hs[:, -1, :])
    return z, (c_lstm, c_fc)


def _encoder_params(lstm: nn.LstmLayer, fc: nn.FcLayer) -> dict:
    return {**lstm.params("encoder_lstm"), **fc.params("encoder_fc")}


def _copy_tensors(own: dict, params: dict) -> None:
    """Copy ``params`` into the named arrays ``own`` in place; every name of
    ``own`` must be present with its shape."""
    missing = set(own) - set(params)
    if missing:
        raise ValueError(f"missing tensors: {sorted(missing)}")
    for name, arr in own.items():
        src = np.asarray(params[name], dtype=float)
        if src.shape != arr.shape:
            raise ValueError(f"tensor {name!r} has shape {src.shape}, expected {arr.shape}")
        arr[...] = src


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainHyper:
    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 500
    patience: int = 20

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_mse_next: float
    train_mse_recon: float
    train_mae_next: float
    train_mae_recon: float
    val_mse_next: float
    val_mse_recon: float
    val_mae_next: float
    val_mae_recon: float

    @property
    def val_mae(self) -> float:
        return self.val_mae_next + self.val_mae_recon


def _normalized_arrays(ds: Dataset, scaler: Scaler):
    return scaler.normalize_v(ds.v_k), scaler.normalize_u(ds.u_k), scaler.normalize_v(ds.v_next)


def _eval_metrics(net: KoopmanNet, v_k, u_k, v_next, chunk=2048):
    sq_n = sq_k = ab_n = ab_k = 0.0
    count = 0
    for lo in range(0, v_k.shape[0], chunk):
        sl = slice(lo, lo + chunk)
        fp = net.forward(v_k[sl], u_k[sl])
        err_n = fp.v_next_hat - v_next[sl]
        err_k = fp.v_k_hat - v_k[sl]
        sq_n += float(np.sum(err_n**2))
        sq_k += float(np.sum(err_k**2))
        ab_n += float(np.sum(np.abs(err_n)))
        ab_k += float(np.sum(np.abs(err_k)))
        count += err_n.size
    return sq_n / count, sq_k / count, ab_n / count, ab_k / count


def train(
    config: KoopmanNetConfig,
    train_ds: Dataset,
    val_ds: Dataset,
    hyper: TrainHyper = TrainHyper(),
    scaler: Scaler | None = None,
) -> tuple[KoopmanNet, list[EpochStats]]:
    """Mini-batch ADAM training with early stopping on validation MAE.

    Normalization uses the datasets' fitted scaler.  Fully deterministic
    for a fixed ``config.seed``: weight init and the per-epoch batch
    shuffle both derive from it.  The returned network carries the
    parameters of the best validation epoch.
    """
    scaler = scaler or train_ds.scaler
    if scaler is None:
        raise ValueError("training requires a fitted scaler on the dataset")
    tv_k, tu_k, tv_next = _normalized_arrays(train_ds, scaler)
    vv_k, vu_k, vv_next = _normalized_arrays(val_ds, scaler)

    net = KoopmanNet(config)
    opt = nn.Adam(
        net.params(),
        lr=hyper.learning_rate,
        beta1=hyper.beta1,
        beta2=hyper.beta2,
        eps=hyper.eps,
    )
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])

    n_train = tv_k.shape[0]
    history: list[EpochStats] = []
    best_val = np.inf
    best_params = None
    best_epoch = -1

    for epoch in range(hyper.max_epochs):
        perm = shuffle_rng.permutation(n_train)
        sq_n = sq_k = ab_n = ab_k = 0.0
        seen = 0
        for lo in range(0, n_train, hyper.batch_size):
            idx = perm[lo : lo + hyper.batch_size]
            bv_k, bu_k, bv_next = tv_k[idx], tu_k[idx], tv_next[idx]
            fp = net.forward(bv_k, bu_k)
            err_n = fp.v_next_hat - bv_next
            err_k = fp.v_k_hat - bv_k
            loss = float(np.mean(err_n**2) + np.mean(err_k**2))
            if not np.isfinite(loss):
                raise nn.TrainingError(f"loss diverged at epoch {epoch}")
            net.zero_grads()
            net.backward(2.0 * err_n / err_n.size, 2.0 * err_k / err_k.size, fp)
            opt.step(net.grads())
            sq_n += float(np.sum(err_n**2))
            sq_k += float(np.sum(err_k**2))
            ab_n += float(np.sum(np.abs(err_n)))
            ab_k += float(np.sum(np.abs(err_k)))
            seen += err_n.size
        val = _eval_metrics(net, vv_k, vu_k, vv_next)
        stats = EpochStats(
            epoch=epoch,
            train_mse_next=sq_n / seen,
            train_mse_recon=sq_k / seen,
            train_mae_next=ab_n / seen,
            train_mae_recon=ab_k / seen,
            val_mse_next=val[0],
            val_mse_recon=val[1],
            val_mae_next=val[2],
            val_mae_recon=val[3],
        )
        history.append(stats)
        if stats.val_mae < best_val:
            best_val = stats.val_mae
            best_params = {k: v.copy() for k, v in net.params().items()}
            best_epoch = epoch
        elif epoch - best_epoch >= hyper.patience:
            break

    if best_params is not None:
        net.load_params(best_params)
    return net, history


def history_to_csv(history: list[EpochStats], path) -> None:
    cols = [
        "epoch",
        "train_mse_next",
        "train_mse_recon",
        "train_mae_next",
        "train_mae_recon",
        "val_mse_next",
        "val_mse_recon",
        "val_mae_next",
        "val_mae_recon",
    ]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(cols)
        for st in history:
            writer.writerow([st.epoch] + [repr(float(getattr(st, c))) for c in cols[1:]])


# ---------------------------------------------------------------------------
# Extraction: the frozen lifting map and linear matrices used by MPC


class LiftedLinearModel:
    """Frozen encoder plus the linear interval dynamics ``z+ = A z + B u``
    (normalized units) and the scaler that defines those units.

    Holds the encoder layers only, no decoder.  Every encoder tensor and
    both matrices must have the shapes ``config`` implies, else
    ``ValueError`` names the offending one.  Immutable once built; safe to
    share across concurrent MPC solves.
    """

    kind = "koopman_net"

    def __init__(self, config: KoopmanNetConfig, encoder_params: dict, A: np.ndarray,
                 B: np.ndarray, scaler: Scaler):
        self.config = config
        self.scaler = scaler
        nl, nh = config.lifted_dim, config.lstm_hidden
        self.A = np.array(A, dtype=float)
        self.B = np.array(B, dtype=float)
        for name, arr, shape in (("A", self.A, (nl, nl)), ("B", self.B, (nl, config.m))):
            if arr.shape != shape:
                raise ValueError(f"matrix {name} has shape {arr.shape}, expected {shape}")
        self.enc_lstm = nn.LstmLayer(config.n, nh)
        self.enc_fc = nn.FcLayer(nh, nl, activation="tanh")
        _copy_tensors(_encoder_params(self.enc_lstm, self.enc_fc), encoder_params)

    @property
    def lifted_dim(self) -> int:
        return self.config.lifted_dim

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def h(self) -> int:
        return self.config.h

    def lift(self, v_hist: np.ndarray) -> np.ndarray:
        """Normalize and encode a raw p.u. history (n, h) -> (N,), or a
        batch (batch, n, h) -> (batch, N).

        A batch is encoded one history at a time, so each row has the bits
        of its own single lift whatever else shares the batch; a batched
        LSTM pass sums in an order that depends on the batch size.
        """
        v_hist = np.asarray(v_hist, dtype=float)
        if v_hist.ndim == 3:
            return np.stack([self.lift(v) for v in v_hist])
        z, _ = _encode(self.enc_lstm, self.enc_fc, self.scaler.normalize_v(v_hist)[None])
        return z[0]

    def lift_reference(self, v_ref: float = 1.0) -> np.ndarray:
        """Lifted image of a constant v_ref history."""
        const = np.full((self.config.n, self.config.h), v_ref)
        return self.lift(const)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config.to_dict(),
            "scaler": self.scaler.to_dict(),
            "A": self.A.tolist(),
            "B": self.B.tolist(),
            "encoder": {
                name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                for name, arr in sorted(_encoder_params(self.enc_lstm, self.enc_fc).items())
            },
        }

    @staticmethod
    def from_dict(doc: dict) -> "LiftedLinearModel":
        enc = {
            name: np.array(rec["data"], dtype=float).reshape(rec["shape"])
            for name, rec in doc["encoder"].items()
        }
        return LiftedLinearModel(
            config=KoopmanNetConfig.from_dict(doc["config"]),
            encoder_params=enc,
            A=np.array(doc["A"], dtype=float),
            B=np.array(doc["B"], dtype=float),
            scaler=Scaler.from_dict(doc["scaler"]),
        )


def extract(net: KoopmanNet, scaler: Scaler) -> LiftedLinearModel:
    """Freeze the trained encoder and read A, B verbatim from the linear
    layers' weights."""
    if scaler is None:
        raise ValueError("extraction requires the scaler used in training")
    # the model copies every array it is given
    return LiftedLinearModel(
        config=net.config,
        encoder_params=_encoder_params(net.enc_lstm, net.enc_fc),
        A=net.lin_state.weight,
        B=net.lin_control.weight,
        scaler=scaler,
    )


def save_lifted_model(model, path) -> None:
    """Serialize any lifted model (deep network or dictionary based) to
    the shared JSON schema with dense row-major A and B."""
    # json.dumps runs the C encoder; json.dump always runs the Python one
    Path(path).write_text(json.dumps(model.to_dict(), sort_keys=True) + "\n")


def load_lifted_model(path):
    with open(Path(path)) as f:
        doc = json.load(f)
    kind = doc.get("kind")
    if kind == LiftedLinearModel.kind:
        return LiftedLinearModel.from_dict(doc)
    if kind == "edmd":
        from koopmanmpc.edmd import EdmdModel

        return EdmdModel.from_dict(doc)
    raise ValueError(f"unknown lifted-model kind {kind!r}")


# -- network checkpointing


def save_net(net: KoopmanNet, path, scaler: Scaler | None = None) -> None:
    extra = {"config": net.config.to_dict()}
    if scaler is not None:
        extra["scaler"] = scaler.to_dict()
    nn.save_checkpoint(net.params(), path, extra=extra)


def load_net(path) -> tuple[KoopmanNet, Scaler | None]:
    params, extra = nn.load_checkpoint(path)
    net = KoopmanNet(KoopmanNetConfig.from_dict(extra["config"]))
    net.load_params(params)
    scaler = Scaler.from_dict(extra["scaler"]) if "scaler" in extra else None
    return net, scaler
