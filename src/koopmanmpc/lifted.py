"""The lifted linear predictor ``z+ = A z + B u`` both model kinds share
(Korda & Mezić, Automatica 93, 2018), and its file ``lifted_model.json``:
the shared keys ``kind``, ``A``, ``B`` and ``scaler`` plus those of the
kind.  The kinds differ only in the lift: the network's frozen encoder
(``deep_koopman``) or a feature dictionary (``edmd``).

Every float array in a model file or a network checkpoint is one payload
record, written by ``encode_array`` and read by ``decode_array``.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from koopmanmpc.dataset import Scaler


def finite_array(what: str, value) -> np.ndarray:
    """``value`` copied to a float array; ``ValueError`` naming ``what`` if
    any entry is NaN or infinite."""
    arr = np.array(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{what} has non-finite entries")
    return arr


def encode_array(arr) -> dict:
    """``arr`` as the payload record ``{"shape", "dtype": "<f8", "b64"}``:
    its float64 entries in C order as little-endian bytes, base64-encoded,
    so the record holds every bit, ``-0.0`` and NaN payloads included."""
    arr = np.asarray(arr, dtype="<f8")
    return {"shape": list(arr.shape), "dtype": "<f8",
            "b64": base64.b64encode(arr.tobytes()).decode("ascii")}


def decode_array(what: str, rec) -> np.ndarray:
    """The float array a record from ``encode_array`` holds; ``ValueError``
    naming ``what`` if ``rec`` is not such a record, its ``dtype`` is not
    ``"<f8"``, its base64 does not decode, or its byte count is not
    ``8·prod(shape)``."""
    if not (isinstance(rec, dict) and rec.keys() == {"shape", "dtype", "b64"}):
        raise ValueError(f"{what} is not a {{shape, dtype, b64}} payload record "
                         "(a file written in the nested-list form must be regenerated)")
    shape = rec["shape"]
    if not (isinstance(shape, list)
            and all(type(d) is int and d >= 0 for d in shape)):
        raise ValueError(f"{what} has shape {shape!r}, expected a list of sizes")
    if rec["dtype"] != "<f8":
        raise ValueError(f"{what} has dtype {rec['dtype']!r}, expected '<f8'")
    try:
        raw = base64.b64decode(rec["b64"], validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ValueError(f"{what} has a payload that is not valid base64") from None
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{what} has {len(raw)} payload bytes, shape {tuple(shape)} "
                         f"needs {8 * math.prod(shape)}")
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


class LiftedModel:
    """``A`` (N, N), ``B`` (N, m), the scaler defining the normalized units
    and the history shape ``(n, h)``; ``A`` and ``B`` are copied, and
    either one misshapen or not finite raises ``ValueError`` naming it.  A
    subclass sets ``kind`` and defines ``lift`` ((n, h) -> (N,), a batch
    (C, n, h) -> (C, N)), ``from_dict`` and its own ``to_dict`` keys.
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

    def lift_reference(self, v: float) -> np.ndarray:
        """Lifted image of the history that holds every bus at ``v`` p.u."""
        return self.lift(np.full((self.n, self.h), v))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "A": encode_array(self.A), "B": encode_array(self.B),
                "scaler": asdict(self.scaler)}


def save_lifted_model(model: LiftedModel, path) -> None:
    """Write ``model`` as one JSON document with sorted keys."""
    # json.dumps runs the C encoder; json.dump always runs the Python one
    Path(path).write_text(json.dumps(model.to_dict(), sort_keys=True) + "\n")


def load_lifted_model(path) -> LiftedModel:
    """Read a model written by ``save_lifted_model``; its ``kind`` picks
    the class among the subclasses of ``LiftedModel``."""
    with open(Path(path)) as f:
        doc = json.load(f)
    kind = doc.get("kind") if isinstance(doc, dict) else None
    for cls in LiftedModel.__subclasses__():
        if cls.kind == kind:
            return cls.from_dict(doc)
    raise ValueError(f"unknown lifted-model kind {kind!r}")
