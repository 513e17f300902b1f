"""Dictionary-based lifting with least-squares system identification.

The classical baseline for the learned encoder: histories are flattened,
pushed through a fixed feature dictionary, and the lifted one-interval
dynamics ``z+ = A z + B u`` plus a linear projection ``C`` back to the
flattened history are fit by (optionally ridge-regularized) least squares
on the same normalized samples the network trains on.

Every dictionary starts with the constant feature and the raw
coordinates, so any linear (or affine, via the constant) system is inside
the span and is recovered exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from koopmanmpc.checks import (COUNT, NON_NEGATIVE, POSITIVE, checked, field_errors, number,
                               object_, raise_if)
from koopmanmpc.dataset import Dataset, Scaler
from koopmanmpc.lifted import LiftedModel, decode_array, encode_array, finite_array


class SingularityError(np.linalg.LinAlgError):
    """Normal equations are rank deficient; a positive ridge is needed."""


@dataclass(frozen=True)
class Dictionary:
    """Feature map on flattened histories of dimension ``input_dim``.

    kinds: 'identity' (constant + coordinates), 'polynomial' (adds all
    monomials of total degree 2..degree), 'rbf' (adds Gaussian bumps
    exp(-|x - c|^2 / width^2) around the given centers).  The monomials
    are enumerated once: one (count, degree) index array per degree.
    """

    kind: str
    input_dim: int
    degree: int = 1
    centers: np.ndarray | None = None
    width: float = 1.0
    _monomials: tuple = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        if self.kind not in ("identity", "polynomial", "rbf"):
            raise ValueError(f"unknown dictionary kind {self.kind!r}")
        bad = field_errors(self, {"input_dim": COUNT}, prefix="dictionary ")
        if self.kind == "polynomial":
            bad += field_errors(self, {"degree": COUNT}, prefix="polynomial ")
        if self.kind == "rbf":
            bad += field_errors(self, {"width": POSITIVE}, prefix="rbf ")
            if self.centers is None:
                bad.append("rbf dictionary needs centers")
        raise_if(bad)
        if self.kind == "polynomial":
            object.__setattr__(self, "_monomials", tuple(
                np.array(list(itertools.combinations_with_replacement(range(self.input_dim), d)))
                for d in range(2, self.degree + 1)
            ))
        if self.kind == "rbf":
            centers = np.atleast_2d(finite_array("rbf centers", self.centers))
            if centers.shape[1] != self.input_dim:
                raise ValueError("rbf centers must match the input dimension")
            object.__setattr__(self, "centers", centers)

    @property
    def n_features(self) -> int:
        base = 1 + self.input_dim
        if self.kind == "polynomial":
            return base + sum(len(idx) for idx in self._monomials)
        if self.kind == "rbf":
            return base + self.centers.shape[0]
        return base

    def lift(self, x: np.ndarray) -> np.ndarray:
        """(d,) -> (n_features,) or batched (S, d) -> (S, n_features).
        Features start with 1 followed by the raw coordinates."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        x2 = x[None] if single else x
        if x2.shape[1] != self.input_dim:
            raise ValueError(f"expected inputs of dimension {self.input_dim}, got {x2.shape[1]}")
        cols = [np.ones((x2.shape[0], 1)), x2]
        if self.kind == "polynomial":
            # per degree, every monomial at once: a product of gathered
            # coordinates, multiplied left to right as np.prod would; the
            # gather runs on rows of the transpose, which is contiguous
            xt = np.ascontiguousarray(x2.T)
            for idx in self._monomials:
                feat = xt[idx[:, 0]]
                for k in range(1, idx.shape[1]):
                    feat = feat * xt[idx[:, k]]
                cols.append(feat.T)
        elif self.kind == "rbf":
            d2 = ((x2[:, None, :] - self.centers[None, :, :]) ** 2).sum(axis=2)
            cols.append(np.exp(-d2 / self.width**2))
        out = np.hstack(cols)
        return out[0] if single else out

    def to_dict(self, payload: bytearray) -> dict:
        doc = {"kind": self.kind, "input_dim": self.input_dim}
        if self.kind == "polynomial":
            doc["degree"] = self.degree
        if self.kind == "rbf":
            doc["width"] = self.width
            doc["centers"] = encode_array(self.centers, payload)
        return doc

    @staticmethod
    def from_dict(doc: dict, payload) -> "Dictionary":
        """The dictionary ``to_dict`` wrote: each key it writes for the kind
        is required, and the constructor checks every value."""
        kind = object_("dictionary", doc)["kind"]
        return Dictionary(
            kind=kind,
            input_dim=doc["input_dim"],
            degree=doc["degree"] if kind == "polynomial" else 1,
            centers=decode_array("rbf centers", doc["centers"], payload) if kind == "rbf" else None,
            width=doc["width"] if kind == "rbf" else 1.0,
        )


def identity_dictionary(input_dim: int) -> Dictionary:
    return Dictionary(kind="identity", input_dim=input_dim)


def polynomial_dictionary(input_dim: int, degree: int) -> Dictionary:
    return Dictionary(kind="polynomial", input_dim=input_dim, degree=degree)


def rbf_dictionary(input_dim: int, centers: np.ndarray, width: float) -> Dictionary:
    return Dictionary(kind="rbf", input_dim=input_dim, centers=centers, width=width)


def rbf_centers_from_data(x: np.ndarray, k: int, seed: int) -> np.ndarray:
    """A seeded random subset of the rows of x, for use as rbf centers."""
    checked("rbf center count", k, COUNT)
    rng = np.random.default_rng(seed)
    idx = rng.choice(x.shape[0], size=min(k, x.shape[0]), replace=False)
    return np.array(x[np.sort(idx)])


def _solve_normal(gram: np.ndarray, rhs: np.ndarray, context: str) -> np.ndarray:
    """Solve gram @ theta = rhs for an SPD-up-to-rounding gram matrix.

    Cholesky is the positive-definiteness gate; if it fails, fall back to
    pivoted elimination unless the system is genuinely (numerically)
    singular, in which case raise with a hint to add ridge.
    """
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > 1e12:
            raise SingularityError(
                f"{context}: normal equations are rank deficient; "
                "use a positive ridge parameter"
            ) from None
    return np.linalg.solve(gram, rhs)


class EdmdModel(LiftedModel):
    """Fitted lifted-linear model: dictionary, matrices A, B, projection C
    and the scaler defining the normalized units.  Immutable after fit.
    ``ValueError`` names the mismatch if the dictionary does not map
    flattened ``(n, h)`` histories to N features, or C is not ``(n·h, N)``
    or not finite."""

    kind = "edmd"

    def __init__(self, dictionary: Dictionary, A, B, C, scaler: Scaler, n: int, h: int,
                 residuals: dict | None = None):
        super().__init__(A, B, scaler, n, h)
        self.dictionary = dictionary
        self.C = finite_array("matrix C", C)
        self.residuals = dict(residuals or {})
        d, nl = n * h, self.lifted_dim
        if dictionary.input_dim != d:
            raise ValueError(f"dictionary input dimension {dictionary.input_dim} != n*h = {d}")
        if dictionary.n_features != nl:
            raise ValueError(f"dictionary has {dictionary.n_features} features, A has {nl}")
        if self.C.shape != (d, nl):
            raise ValueError(f"matrix C has shape {self.C.shape}, expected {(d, nl)}")

    lift = LiftedModel.lift  # in this class too: perfbench traces the methods a class defines

    def _lift_batch(self, v: np.ndarray) -> np.ndarray:
        """Flatten each history row-major and apply the dictionary."""
        return self.dictionary.lift(v.reshape(len(v), self.n * self.h))

    def to_dict(self, payload: bytearray) -> dict:
        return {
            **super().to_dict(payload),
            "dictionary": self.dictionary.to_dict(payload),
            "C": encode_array(self.C, payload),
            "n": self.n,
            "h": self.h,
            "residuals": self.residuals,
        }

    @staticmethod
    def from_dict(doc: dict, payload) -> "EdmdModel":
        residuals = object_("residuals", doc["residuals"])
        for name, value in residuals.items():  # names to numbers, kept as written
            number(f"residuals {name}", value)
        return EdmdModel(
            dictionary=Dictionary.from_dict(doc["dictionary"], payload),
            A=decode_array("matrix A", doc["A"], payload),
            B=decode_array("matrix B", doc["B"], payload),
            C=decode_array("matrix C", doc["C"], payload),
            scaler=Scaler.from_dict(doc["scaler"]),
            n=number("n", doc["n"], integer=True),
            h=number("h", doc["h"], integer=True),
            residuals=residuals,
        )


def check_ridge(ridge: float) -> float:
    """``ridge`` itself if it is a finite number >= 0; else ``ValueError``."""
    return checked("ridge", ridge, NON_NEGATIVE)


def fit(ds: Dataset, dictionary: Dictionary, ridge: float = 0.0) -> EdmdModel:
    """Least-squares fit of [A B] and of the projection C, in the units of
    ``ds.scaler``, which the model keeps.

    Stacks lifted predecessors against lifted successors and solves the
    ridge-regularized normal equations; a second least squares fits C so
    that C @ lift(x) reproduces the flattened history.  The constant and
    coordinate features make exact recovery possible whenever the true
    dynamics are linear in the dictionary span.  With m = 0 the control
    block is empty and only A (and C) are fit.
    """
    check_ridge(ridge)
    if len(ds) == 0:
        raise ValueError("cannot fit on an empty dataset")
    n, h, m = ds.dims
    x, u_norm, y = ds.normalized()
    x_flat, y_flat = x.reshape(len(ds), -1), y.reshape(len(ds), -1)

    nd = dictionary.n_features
    g = np.hstack([dictionary.lift(x_flat), u_norm])
    zx = g[:, :nd]  # a view: the lifted predecessors are held once
    zy = dictionary.lift(y_flat)

    gram = g.T @ g + ridge * np.eye(nd + m)
    theta = _solve_normal(gram, g.T @ zy, "dynamics fit")
    A = theta[:nd].T
    B = theta[nd:].T

    gram_c = zx.T @ zx + ridge * np.eye(nd)
    c_t = _solve_normal(gram_c, zx.T @ x_flat, "projection fit")
    C = c_t.T

    dyn_err = g @ theta
    dyn_err -= zy
    dyn_res = float(np.sqrt(np.mean(np.square(dyn_err, out=dyn_err))))
    proj_res = float(np.sqrt(np.mean((zx @ c_t - x_flat) ** 2)))
    return EdmdModel(
        dictionary=dictionary,
        A=A,
        B=B,
        C=C,
        scaler=ds.scaler,
        n=n,
        h=h,
        residuals={"dynamics_rms": dyn_res, "projection_rms": proj_res, "ridge": ridge},
    )
