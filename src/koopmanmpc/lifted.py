"""The lifted linear predictor ``z+ = A z + B u`` both model kinds share
(Korda & Mezić, Automatica 93, 2018), and its file ``lifted_model.json``:
the shared keys ``kind``, ``A``, ``B`` and ``scaler`` plus those of the
kind.  The kinds differ only in the lift: the network's frozen encoder
(``deep_koopman``) or a feature dictionary (``edmd``).

Every float array of a model file or a network checkpoint lives in the
document's sidecar ``<stem>.bin`` beside it, as C-order little-endian
float64 bytes back to back.  The JSON holds one payload record
``{"shape", "dtype": "<f8", "offset"}`` per array, written by
``encode_array`` and read by ``decode_array``, and a top-level
``"payload": {"bytes", "sha256"}`` that binds the sidecar to it, so the
JSON's own bytes pin every bit of the arrays.  ``write_document`` and
``read_payload`` own the sidecar; the network checkpoint's own layout is
``deep_koopman.save_net``'s and ``load_net``'s.  ``decode_array`` returns
read-only views of the sidecar bytes, and the model or network that keeps
an array checks and copies it once.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from koopmanmpc.checks import NON_NEGATIVE_INT
from koopmanmpc.dataset import Scaler

_REGENERATE = "must be regenerated with train or fit-edmd"


def finite_array(what: str, value) -> np.ndarray:
    """``value`` copied to a float array; ``ValueError`` naming ``what`` if
    any entry is NaN or infinite."""
    arr = np.array(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    return arr


def encode_array(arr, payload: bytearray) -> dict:
    """Append ``arr``'s float64 entries in C order as little-endian bytes
    to ``payload``, the document's sidecar bytes; return the record
    ``{"shape", "dtype": "<f8", "offset"}`` that finds them there.  The
    bytes hold every bit, ``-0.0`` and NaN payloads included."""
    arr = np.asarray(arr, dtype="<f8", order="C")
    rec = {"shape": list(arr.shape), "dtype": "<f8", "offset": len(payload)}
    payload += memoryview(arr)
    return rec


def decode_array(what: str, rec, payload) -> np.ndarray:
    """A view of the float array a record from ``encode_array`` points to
    in ``payload``, which each consumer copies; ``ValueError`` naming ``what``
    if ``rec`` is not such a record, its ``dtype`` is not ``"<f8"``, its
    offset is not an integer >= 0, or its bytes run past the end of it."""
    if not (isinstance(rec, dict) and rec.keys() == {"shape", "dtype", "offset"}):
        raise ValueError(f"{what} is not a {{shape, dtype, offset}} payload record "
                         f"(a file in the nested-list or base64 form {_REGENERATE})")
    shape, offset = rec["shape"], rec["offset"]
    if not (isinstance(shape, list) and all(NON_NEGATIVE_INT.test(d) for d in shape)):
        raise ValueError(f"{what} has shape {shape!r}, expected a list of sizes")
    if rec["dtype"] != "<f8":
        raise ValueError(f"{what} has dtype {rec['dtype']!r}, expected '<f8'")
    if not NON_NEGATIVE_INT.test(offset):
        raise ValueError(f"{what} has offset {offset!r}, expected an integer >= 0")
    count = math.prod(shape)
    if offset + 8 * count > len(payload):
        raise ValueError(f"{what} needs payload bytes [{offset}, {offset + 8 * count}), "
                         f"the sidecar has {len(payload)}")
    return np.frombuffer(payload, dtype="<f8", count=count, offset=offset).reshape(shape)


def _sidecar(path: Path) -> Path:
    if path.suffix == ".bin":
        raise ValueError(f"document path {path} ends in .bin, the suffix of its sidecar")
    return path.with_suffix(".bin")


def write_document(path, doc: dict, payload: bytearray) -> None:
    """Write ``payload`` as the sidecar ``<stem>.bin``, then ``doc`` as one
    JSON document with sorted keys and the sidecar's size and sha256 as its
    ``"payload"``; ``ValueError`` if ``path`` ends in ``.bin``."""
    path = Path(path)
    _sidecar(path).write_bytes(payload)
    doc = {**doc, "payload": {"bytes": len(payload),
                              "sha256": hashlib.sha256(payload).hexdigest()}}
    # json.dumps runs the C encoder; json.dump always runs the Python one
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")


def read_payload(path, doc) -> bytes:
    """The sidecar bytes of the document ``doc`` read from ``path``, read
    once; ``ValueError`` naming the sidecar if ``doc`` has no ``"payload"``
    record, the sidecar is missing, or its size or sha256 differ from the
    record's."""
    path = Path(path)
    side = _sidecar(path)
    meta = doc.get("payload") if isinstance(doc, dict) else None
    if not (isinstance(meta, dict) and meta.keys() == {"bytes", "sha256"}):
        raise ValueError(f"{path.name} has no {{bytes, sha256}} payload record "
                         f"(a file in the nested-list or base64 form {_REGENERATE})")
    try:
        raw = side.read_bytes()
    except FileNotFoundError:
        raise ValueError(f"sidecar {side.name} of {path.name} is missing "
                         f"(the pair {_REGENERATE})") from None
    if len(raw) != meta["bytes"]:
        raise ValueError(f"sidecar {side.name} has {len(raw)} bytes, "
                         f"{path.name} records {meta['bytes']!r}")
    if hashlib.sha256(raw).hexdigest() != meta["sha256"]:
        raise ValueError(f"sidecar {side.name} does not match the sha256 {path.name} records")
    return raw


class LiftedModel:
    """``A`` (N, N), ``B`` (N, m), the scaler defining the normalized units
    and the history shape ``(n, h)``; ``A`` and ``B`` are copied, and
    either one misshapen or not finite raises ``ValueError`` naming it.

    ``lift`` owns the one shape contract of both kinds: a raw p.u. history
    (n, h) -> (N,), or a batch (C, n, h) -> (C, N) whose every row has the
    bits of its single lift.  A subclass sets ``kind`` and defines
    ``_lift_batch``, the lift of normalized histories (C, n, h) -> (C, N),
    ``from_dict(doc, payload)`` and its own ``to_dict`` keys; both pass the
    document's sidecar bytes along to ``encode_array`` and ``decode_array``.
    """

    kind: str

    def __init__(self, A, B, scaler: Scaler, n: int, h: int):
        self.A = finite_array("matrix A", A)
        self.B = finite_array("matrix B", B)
        if self.A.ndim != 2 or self.A.shape[0] != self.A.shape[1]:
            raise ValueError(f"matrix A has shape {self.A.shape}, expected (N, N)")
        if self.B.ndim != 2 or self.B.shape[0] != self.A.shape[0]:
            raise ValueError(f"matrix B has shape {self.B.shape}, expected ({self.A.shape[0]}, m)")
        self.scaler = scaler
        self.n, self.h = n, h

    @property
    def lifted_dim(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    def lift(self, v_hist) -> np.ndarray:
        """Normalize and lift a history (n, h), or a batch (C, n, h)."""
        v = np.asarray(v_hist, dtype=float)
        if v.ndim not in (2, 3) or v.shape[-2:] != (self.n, self.h):
            raise ValueError(f"expected a history (n, h) = {(self.n, self.h)} or a batch "
                             f"(C, {self.n}, {self.h}) of them, got shape {v.shape}")
        z = self._lift_batch(self.scaler.normalize_v(v).reshape(-1, self.n, self.h))
        return z.reshape(v.shape[:-2] + (self.lifted_dim,))

    def lift_reference(self, v: float) -> np.ndarray:
        """Lifted image of the history that holds every bus at ``v`` p.u."""
        return self.lift(np.full((self.n, self.h), v))

    def to_dict(self, payload: bytearray) -> dict:
        return {"kind": self.kind, "A": encode_array(self.A, payload),
                "B": encode_array(self.B, payload), "scaler": asdict(self.scaler)}


def save_lifted_model(model: LiftedModel, path) -> None:
    """Write ``model`` as its JSON document and sidecar (``write_document``)."""
    payload = bytearray()
    write_document(path, model.to_dict(payload), payload)


def load_lifted_model(path) -> LiftedModel:
    """Read a model written by ``save_lifted_model``; its ``kind`` picks
    the class among the subclasses of ``LiftedModel``.  Every key the
    kind's ``to_dict`` writes is required: ``ValueError`` names a missing
    one."""
    with open(Path(path)) as f:
        doc = json.load(f)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    for cls in LiftedModel.__subclasses__():
        if cls.kind == kind:
            try:
                return cls.from_dict(doc, read_payload(path, doc))
            except KeyError as exc:
                raise ValueError(f"{kind} model missing key {exc}") from exc
    raise ValueError(f"unknown lifted-model kind {kind!r}")
