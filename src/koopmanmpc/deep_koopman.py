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

``save_net`` and ``load_net`` are the one writer and reader of the
network's checkpoint, ``checkpoint.json`` and its sidecar: every tensor by
name as a payload record, and under ``extra`` the config and the scaler,
which every checkpoint carries.  ``extract`` freezes the encoder and the
linear maps into the ``LiftedLinearModel`` that MPC uses.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, astuple, dataclass, field, fields

import numpy as np

from koopmanmpc import nn
from koopmanmpc.dataset import Dataset, Scaler
from koopmanmpc.lifted import LiftedModel, decode_array, encode_array, read_payload, write_document
# re-exported: perfbench/workloads.py loads models as deep_koopman.load_lifted_model
from koopmanmpc.lifted import load_lifted_model  # noqa: F401
from koopmanmpc.plant import _is_finite, _is_number, _object


@dataclass(frozen=True)
class KoopmanNetConfig:
    """Network sizes and the seed (>= 0) of its initial weights and batch
    shuffle, all integers.  ``ValueError`` names every field that is not
    an integer, else every field out of range."""

    n: int
    h: int
    m: int
    lifted_dim: int = 64
    lstm_hidden: int = 32
    seed: int = 0

    def __post_init__(self):
        bad = [f"{f.name} must be an integer (got {getattr(self, f.name)!r})"
               for f in fields(self) if not _is_number(getattr(self, f.name), integer=True)]
        if bad:
            raise ValueError("; ".join(bad))
        bad = [f"{name} must be >= 1 (got {getattr(self, name)!r})"
               for name in ("n", "h", "m", "lstm_hidden") if not getattr(self, name) >= 1]
        if not self.lifted_dim > self.n:
            bad.append(f"lifted_dim must exceed n = {self.n} (got {self.lifted_dim!r})")
        if not self.seed >= 0:
            bad.append(f"seed must be >= 0 (got {self.seed!r})")
        if bad:
            raise ValueError("; ".join(bad))

    @staticmethod
    def from_dict(doc: dict) -> "KoopmanNetConfig":
        """The config ``asdict`` wrote, every field of it required; the
        constructor rejects a value that is not an integer."""
        _object("network config", doc)
        return KoopmanNetConfig(**{f.name: doc[f.name] for f in fields(KoopmanNetConfig)})


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
        # every layer tensor and gradient is a view of these two vectors
        self.flat, self.flat_grad = nn.flatten_layers(self._layers)
        self._params, self._grads = {}, {}
        for name, layer in self._layers.items():
            self._params.update(layer.params(name))
            self._grads.update(layer.grads(name))

    # -- parameter plumbing

    def params(self) -> dict:
        """Named views of ``flat``; the dict is shared, not a copy."""
        return self._params

    def grads(self) -> dict:
        """Named views of ``flat_grad``; the dict is shared, not a copy."""
        return self._grads

    def zero_grads(self):
        self.flat_grad.fill(0.0)

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
    """Copy ``params`` into the named arrays ``own`` in place, the one copy
    a loaded tensor gets; every name of ``own`` must be present with its
    shape and finite entries."""
    missing = set(own) - set(params)
    if missing:
        raise ValueError(f"missing tensors: {sorted(missing)}")
    for name, arr in own.items():
        src = np.asarray(params[name], dtype=float)
        if src.shape != arr.shape:
            raise ValueError(f"tensor {name!r} has shape {src.shape}, expected {arr.shape}")
        if not np.isfinite(src).all():
            raise ValueError(f"tensor {name!r} has non-finite entries")
        arr[...] = src


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainHyper:
    """ADAM and early-stopping settings.  ``ValueError`` names every field
    out of range."""

    batch_size: int = 32
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    max_epochs: int = 500
    patience: int = 20

    def __post_init__(self):
        bad = [f"{name} must be {rule} (got {getattr(self, name)!r})" for name, ok, rule in (
            ("batch_size", _is_number(self.batch_size, integer=True) and self.batch_size >= 1,
             "an integer >= 1"),
            ("learning_rate", _is_finite(self.learning_rate) and self.learning_rate > 0,
             "a finite number > 0"),
            ("beta1", _is_number(self.beta1, integer=False) and 0 <= self.beta1 < 1,
             "a number in [0, 1)"),
            ("beta2", _is_number(self.beta2, integer=False) and 0 <= self.beta2 < 1,
             "a number in [0, 1)"),
            ("eps", _is_finite(self.eps) and self.eps > 0, "a finite number > 0"),
            ("max_epochs", _is_number(self.max_epochs, integer=True) and self.max_epochs >= 1,
             "an integer >= 1"),
            ("patience", _is_number(self.patience, integer=True) and self.patience >= 0,
             "an integer >= 0"),
        ) if not ok]
        if bad:
            raise ValueError("; ".join(bad))


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


def _error_sums(err_n: np.ndarray, err_k: np.ndarray) -> np.ndarray:
    """The squared and absolute error sums of the successor and of the
    reconstruction, in ``EpochStats``' order."""
    return np.array([np.sum(err_n**2), np.sum(err_k**2), np.sum(np.abs(err_n)),
                     np.sum(np.abs(err_k))])


_EVAL_CHUNK = 2048  # samples per validation forward, bounding its memory


def _eval_metrics(net: KoopmanNet, v_k, u_k, v_next) -> list[float]:
    sums = np.zeros(4)
    for lo in range(0, v_k.shape[0], _EVAL_CHUNK):
        sl = slice(lo, lo + _EVAL_CHUNK)
        fp = net.forward(v_k[sl], u_k[sl])
        sums += _error_sums(fp.v_next_hat - v_next[sl], fp.v_k_hat - v_k[sl])
    return (sums / v_next.size).tolist()


def _validation_worker(conn, parent_end, config: KoopmanNetConfig, v_k, u_k, v_next):
    """Answer each parameter vector received on ``conn`` with its
    ``_eval_metrics`` until the parent closes the pipe."""
    import signal

    parent_end.close()  # else this process holds the pipe open itself
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles Ctrl-C and closes the pipe
    net = KoopmanNet(config)
    try:
        while True:
            net.flat[...] = np.frombuffer(conn.recv_bytes())
            conn.send(_eval_metrics(net, v_k, u_k, v_next))
    except (EOFError, OSError):  # the parent closed its end
        pass


class _Validation:
    """Validation metrics of parameter vectors, read one submission behind.

    ``submit(flat)`` hands over a vector; ``result()`` returns the
    ``_eval_metrics`` of the oldest one not yet read.  Where the ``fork``
    start method exists, a forked worker that inherits the validation
    arrays computes them, so validating one epoch overlaps training the
    next; elsewhere, and in a daemonic process, ``submit`` computes them in
    this process.  Either way the metrics are the same floats.  Leaving the
    ``with`` block closes the pipe and joins the worker, whatever ended the
    block.
    """

    def __init__(self, config: KoopmanNetConfig, v_k, u_k, v_next):
        self._args = (config, v_k, u_k, v_next)
        self._proc = None
        self._done = []

    def __enter__(self):
        # imported here: only training forks, and the stages that never train
        # should not pay for the import
        import multiprocessing

        # a daemonic process (a multiprocessing pool's worker) may not start one
        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon):
            self._net = KoopmanNet(self._args[0])
            return self
        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(target=_validation_worker, args=(child_end, self._conn, *self._args),
                                 name="koopmanmpc-validation", daemon=True)
        try:
            self._proc.start()
        finally:
            child_end.close()
        return self

    def __exit__(self, *exc_info):
        if self._proc is not None:
            self._conn.close()
            self._proc.join()

    def _worker_died(self) -> RuntimeError:
        self._proc.join()
        return RuntimeError(f"validation worker exited with code {self._proc.exitcode}")

    def submit(self, flat: np.ndarray) -> None:
        if self._proc is None:
            self._net.flat[...] = flat
            self._done.append(_eval_metrics(self._net, *self._args[1:]))
            return
        try:
            self._conn.send_bytes(flat)
        except OSError:
            raise self._worker_died() from None

    def result(self) -> list[float]:
        if self._proc is None:
            return self._done.pop(0)
        try:
            return self._conn.recv()
        except EOFError:
            raise self._worker_died() from None


def _train_epoch(net: KoopmanNet, opt: nn.Adam, order: np.ndarray, arrays, batch_size: int,
                 epoch: int) -> list[float]:
    """One pass of mini-batch ADAM steps over ``arrays`` in ``order``;
    returns the epoch's training metrics in ``EpochStats``' order."""
    v_k, u_k, v_next = arrays
    sums = np.zeros(4)
    for lo in range(0, len(order), batch_size):
        idx = order[lo : lo + batch_size]
        bv_k, bu_k, bv_next = v_k[idx], u_k[idx], v_next[idx]
        fp = net.forward(bv_k, bu_k)
        err_n = fp.v_next_hat - bv_next
        err_k = fp.v_k_hat - bv_k
        batch_sums = _error_sums(err_n, err_k)
        # np.mean is the sum over the size: the same float as the mean
        loss = float(batch_sums[0] / err_n.size + batch_sums[1] / err_k.size)
        if not np.isfinite(loss):
            raise nn.TrainingError(f"loss diverged at epoch {epoch}")
        net.zero_grads()
        net.backward(2.0 * err_n / err_n.size, 2.0 * err_k / err_k.size, fp)
        opt.step(net.flat_grad, net.grads())
        sums += batch_sums
    return (sums / v_next.size).tolist()


def train(
    config: KoopmanNetConfig,
    train_ds: Dataset,
    val_ds: Dataset,
    hyper: TrainHyper = TrainHyper(),
) -> tuple[KoopmanNet, list[EpochStats]]:
    """Mini-batch ADAM training with early stopping on validation MAE.

    Each set's ``normalized()`` arrays are trained or validated on; the
    two sets must carry the same scaler, else ``ValueError``.  Fully
    deterministic for a fixed ``config.seed``: weight init and the
    per-epoch batch shuffle both derive from it.  The returned network carries the
    parameters of the best validation epoch (``kept_epoch(history)``).

    Validation runs one epoch behind, in one forked worker process
    (``_Validation``): epoch e's parameters are validated while epoch
    e + 1 trains, and the early-stopping rule reads epoch e's metrics once
    e + 1 has trained.  When epoch e stops the run, the look-ahead epoch is
    discarded, together with a ``TrainingError`` it raised; otherwise that
    error is raised.  The parameters, the history and the epoch count are
    those of validating each epoch before training the next, whatever the
    worker's timing.
    """
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ValueError("training requires nonempty training and validation sets")
    if val_ds.scaler != train_ds.scaler:
        raise ValueError("training and validation sets must share one scaler")
    train_arrays = train_ds.normalized()

    net = KoopmanNet(config)
    opt = nn.Adam(
        net.flat,
        lr=hyper.learning_rate,
        beta1=hyper.beta1,
        beta2=hyper.beta2,
        eps=hyper.eps,
    )
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[1])

    n_train = len(train_ds)
    history: list[EpochStats] = []
    best_val = np.inf
    best_flat = None
    best_epoch = -1

    def stops(pending) -> bool:
        """Record the validated epoch ``pending``; True if it ends the run."""
        nonlocal best_val, best_flat, best_epoch
        epoch, train_metrics, flat = pending
        stats = EpochStats(epoch, *train_metrics, *validation.result())
        history.append(stats)
        if stats.val_mae < best_val:
            best_val, best_flat, best_epoch = stats.val_mae, flat, epoch
            return False
        return epoch - best_epoch >= hyper.patience

    pending = None  # (epoch, training metrics, parameters) submitted for validation
    with _Validation(config, *val_ds.normalized()) as validation:
        for epoch in range(hyper.max_epochs):
            try:
                train_metrics = _train_epoch(net, opt, shuffle_rng.permutation(n_train),
                                             train_arrays, hyper.batch_size, epoch)
            except nn.TrainingError:
                if pending is not None and stops(pending):
                    break  # the failed epoch is one the run never reaches
                raise
            if pending is not None and stops(pending):
                break
            pending = (epoch, train_metrics, net.flat.copy())
            validation.submit(pending[2])
        else:
            stops(pending)

    # the best epoch's parameters, or the last validated epoch's if none improved
    net.flat[...] = best_flat if best_flat is not None else pending[2]
    return net, history


def kept_epoch(history: list[EpochStats]) -> EpochStats:
    """The epoch whose parameters ``train`` returns: the first with the
    lowest validation MAE, or the last if no MAE is below infinity."""
    ranked = [st for st in history if st.val_mae < np.inf]
    return min(ranked, key=lambda st: st.val_mae) if ranked else history[-1]


def history_to_csv(history: list[EpochStats], path) -> None:
    """One row per epoch, one column per ``EpochStats`` field."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([f.name for f in fields(EpochStats)])
        for st in history:
            epoch, *errors = astuple(st)
            writer.writerow([epoch] + [repr(float(x)) for x in errors])


# ---------------------------------------------------------------------------
# Extraction: the frozen lifting map and linear matrices used by MPC


class LiftedLinearModel(LiftedModel):
    """Frozen encoder plus the linear interval dynamics ``z+ = A z + B u``
    (normalized units) and the scaler that defines those units.

    Holds the encoder layers only, no decoder.  Every encoder tensor and
    both matrices must be finite and have the shapes ``config`` implies,
    else ``ValueError`` names the offending one.  Immutable once built;
    safe to share across concurrent MPC solves.
    """

    kind = "koopman_net"

    def __init__(self, config: KoopmanNetConfig, encoder_params: dict, A: np.ndarray,
                 B: np.ndarray, scaler: Scaler):
        super().__init__(A, B, scaler, config.n, config.h)
        self.config = config
        nl, nh = config.lifted_dim, config.lstm_hidden
        if (self.lifted_dim, self.m) != (nl, config.m):
            raise ValueError(f"matrices A, B have (N, m) = {(self.lifted_dim, self.m)}, "
                             f"the config {(nl, config.m)}")
        self.enc_lstm = nn.LstmLayer(config.n, nh)
        self.enc_fc = nn.FcLayer(nh, nl, activation="tanh")
        _copy_tensors(_encoder_params(self.enc_lstm, self.enc_fc), encoder_params)

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

    def to_dict(self, payload: bytearray) -> dict:
        return {
            **super().to_dict(payload),
            "config": asdict(self.config),
            "encoder": {
                name: encode_array(arr, payload)
                for name, arr in sorted(_encoder_params(self.enc_lstm, self.enc_fc).items())
            },
        }

    @staticmethod
    def from_dict(doc: dict, payload) -> "LiftedLinearModel":
        enc = {name: decode_array(f"tensor {name!r}", rec, payload)
               for name, rec in _object("encoder", doc["encoder"]).items()}
        return LiftedLinearModel(
            config=KoopmanNetConfig.from_dict(doc["config"]),
            encoder_params=enc,
            A=decode_array("matrix A", doc["A"], payload),
            B=decode_array("matrix B", doc["B"], payload),
            scaler=Scaler.from_dict(doc["scaler"]),
        )


def extract(net: KoopmanNet, scaler: Scaler) -> LiftedLinearModel:
    """Freeze the trained encoder and read A, B verbatim from the linear
    layers' weights."""
    # the model copies every array it is given
    return LiftedLinearModel(
        config=net.config,
        encoder_params=_encoder_params(net.enc_lstm, net.enc_fc),
        A=net.lin_state.weight,
        B=net.lin_control.weight,
        scaler=scaler,
    )


# -- network checkpointing


def save_net(net: KoopmanNet, path, scaler: Scaler) -> None:
    """Write ``net``'s checkpoint: every tensor by name as a payload record
    (``encode_array``) under ``tensors``, and the config and ``scaler``
    under ``extra`` (``write_document``)."""
    payload = bytearray()
    doc = {"tensors": {name: encode_array(arr, payload) for name, arr in net.params().items()},
           "extra": {"config": asdict(net.config), "scaler": asdict(scaler)}}
    write_document(path, doc, payload)


def load_net(path) -> tuple[KoopmanNet, Scaler]:
    """The network and scaler of a checkpoint written by ``save_net``;
    ``ValueError`` names a missing key, a tensor that is not a payload
    record, misshapen or not finite, or a sidecar that does not match."""
    with open(path) as f:
        doc = json.load(f)
    payload = read_payload(path, doc)
    try:
        tensors, extra = _object("tensors", doc["tensors"]), _object("extra", doc["extra"])
        net = KoopmanNet(KoopmanNetConfig.from_dict(extra["config"]))
        net.load_params({name: decode_array(f"tensor {name!r}", rec, payload)
                         for name, rec in tensors.items()})
        return net, Scaler.from_dict(extra["scaler"])
    except KeyError as exc:
        raise ValueError(f"checkpoint missing key {exc}") from exc
