"""Training-data generation, windowing, normalization, splitting and storage.

A sample is the triple (voltage history before a control instant, control
applied at that instant, voltage history after it).  Histories are n x h
matrices of voltages sampled on the ``ts`` grid; the control is held for
one full control interval.  A :class:`Dataset` of S samples holds them as
three arrays: pre-histories ``v_k`` (S, n, h), controls ``u_k`` (S, m) and
post-histories ``v_next`` (S, n, h); row i of each is sample i.

On disk a dataset is a ``dataset.json`` manifest plus a ``samples.csv``
table whose column order is normative: flattened pre-history row-major
(n*h values), control vector (m values), flattened post-history row-major
(n*h values).
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from koopmanmpc import plant as plant_mod
from koopmanmpc.plant import (
    FaultSpec,
    PlantModel,
    Schedule,
    Trajectory,
    U_MAX,
    run_episode,
)

LOAD_RANGE = (0.9, 1.1)

POLICIES = ("zero", "full", "random")


class DatasetFormatError(ValueError):
    """Malformed dataset files or manifest/data inconsistency."""


class ScalerError(ValueError):
    """Degenerate normalization range."""


def window_history(traj: Trajectory, k: int) -> np.ndarray:
    """The n x h voltage history between control instants k-1 and k.

    Column j is the sample (j+1) * ts after instant k-1; the last column
    is the sample at instant k itself.  Valid for 1 <= k <= n_intervals.
    A batched trajectory gives one history per episode, ``(E, n, h)``.
    """
    h = traj.schedule.h
    if not 1 <= k <= traj.n_intervals:
        raise IndexError(f"window index {k} outside 1..{traj.n_intervals}")
    block = traj.voltages[..., (k - 1) * h + 1 : k * h + 1, :]
    return block.swapaxes(-1, -2).copy()


@dataclass(frozen=True)
class Scaler:
    """Affine maps used for network inputs and outputs.

    Voltages: subtract ``v_ref``, then min-max map onto [0, 1] using the
    shifted-voltage range of the fitting data.  Controls: affine map of
    [u_lo, u_hi] onto [-1, 1].
    """

    v_ref: float
    v_lo: float
    v_hi: float
    u_lo: float = 0.0
    u_hi: float = U_MAX

    def __post_init__(self):
        if not self.v_hi > self.v_lo:
            raise ScalerError("voltage range is degenerate (v_hi <= v_lo)")
        if not self.u_hi > self.u_lo:
            raise ScalerError("control range is degenerate (u_hi <= u_lo)")

    def normalize_v(self, x):
        return ((np.asarray(x, dtype=float) - self.v_ref) - self.v_lo) / (self.v_hi - self.v_lo)

    def denormalize_v(self, x):
        return np.asarray(x, dtype=float) * (self.v_hi - self.v_lo) + self.v_lo + self.v_ref

    def normalize_u(self, u):
        return 2.0 * (np.asarray(u, dtype=float) - self.u_lo) / (self.u_hi - self.u_lo) - 1.0

    def denormalize_u(self, u):
        return (np.asarray(u, dtype=float) + 1.0) * 0.5 * (self.u_hi - self.u_lo) + self.u_lo

    def to_dict(self) -> dict:
        return {
            "v_ref": self.v_ref,
            "v_lo": self.v_lo,
            "v_hi": self.v_hi,
            "u_lo": self.u_lo,
            "u_hi": self.u_hi,
        }

    @staticmethod
    def from_dict(doc: dict) -> "Scaler":
        return Scaler(
            v_ref=float(doc["v_ref"]),
            v_lo=float(doc["v_lo"]),
            v_hi=float(doc["v_hi"]),
            u_lo=float(doc["u_lo"]),
            u_hi=float(doc["u_hi"]),
        )

    @staticmethod
    def identity() -> "Scaler":
        """No-op transform, handy for synthetic-system tests."""
        return Scaler(v_ref=0.0, v_lo=0.0, v_hi=1.0, u_lo=-1.0, u_hi=1.0)


@dataclass
class Dataset:
    """S training triples: histories ``v_k`` and ``v_next`` (S, n, h) and
    controls ``u_k`` (S, m).  An empty set is S = 0."""

    v_k: np.ndarray
    u_k: np.ndarray
    v_next: np.ndarray
    scaler: Scaler | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.v_k.ndim != 3 or self.u_k.ndim != 2:
            raise ValueError("histories must be (S, n, h) arrays and controls (S, m)")
        if self.v_k.shape != self.v_next.shape:
            raise ValueError("both histories must share S, n and h")
        if self.u_k.shape[0] != self.v_k.shape[0]:
            raise ValueError("histories and controls must hold the same number of samples")

    def __len__(self) -> int:
        return self.v_k.shape[0]

    @property
    def dims(self) -> tuple[int, int, int]:
        """(n, h, m) of the samples."""
        _, n, h = self.v_k.shape
        return n, h, self.u_k.shape[1]

    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Arrays (S, n, h), (S, m), (S, n, h) over all samples."""
        return self.v_k, self.u_k, self.v_next


# ---------------------------------------------------------------------------
# Deterministic per-rollout seeding


_MASK = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def rollout_seed(master_seed: int, load_index: int, policy_index: int) -> int:
    """64-bit mix of (master seed, load index, policy index).

    Chained splitmix64 rounds, so generation order never matters: each
    rollout owns an independent stream derived only from its indices.
    """
    s = _splitmix64(master_seed & _MASK)
    s = _splitmix64(s ^ (load_index & _MASK))
    s = _splitmix64(s ^ (policy_index & _MASK))
    return s


_LOAD_CHANNEL = 0xFF  # pseudo policy index reserved for the load-factor draw


def _case_load_factor(master_seed: int, load_index: int) -> float:
    rng = np.random.default_rng(rollout_seed(master_seed, load_index, _LOAD_CHANNEL))
    return float(rng.uniform(*LOAD_RANGE))


def plant_digest(cfg: plant_mod.PlantConfig) -> str:
    doc = json.dumps(plant_mod.config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def generate(
    plant: PlantModel,
    sched: Schedule,
    n_loads: int,
    seed: int,
    fault: FaultSpec | None = None,
    policies: tuple[str, ...] = POLICIES,
) -> Dataset:
    """Simulate ``n_loads`` random load cases under each control policy
    and window the episodes into training triples.

    Per case the load factor is drawn uniformly from [0.9, 1.1]; the
    fault defaults to sagging buses 1..3 by 0.25 p.u.  Each (case,
    policy) rollout draws its random controls from its own stream, seeded
    via :func:`rollout_seed`, so the samples do not depend on how the
    rollouts are run.  Every policy is open loop, so all control
    sequences are built first and the episodes run as one batch.  Yields
    exactly ``n_loads * len(policies) * n_instants`` samples in (load,
    policy, instant) order, plus a scaler fitted on the full set.
    """
    if n_loads < 1:
        raise ValueError("n_loads must be >= 1")
    unknown = set(policies) - set(POLICIES)
    if unknown:
        raise ValueError(f"unknown policies: {sorted(unknown)}")
    if fault is None:
        fault = FaultSpec(affected=(1, 2, 3), depth=0.25)

    n, m, h, n_inst = plant.n, plant.m, sched.h, sched.n_instants
    controls = np.zeros((n_loads, len(policies), n_inst, m))
    for load_idx in range(n_loads):
        for pol_idx, pol_name in enumerate(policies):
            if pol_name == "full":
                controls[load_idx, pol_idx] = U_MAX
            elif pol_name == "random":
                rng = np.random.default_rng(rollout_seed(seed, load_idx, pol_idx))
                controls[load_idx, pol_idx] = rng.uniform(0.0, U_MAX, size=(n_inst, m))
    n_episodes = n_loads * len(policies)
    controls = controls.reshape(n_episodes, n_inst, m)
    lams = [_case_load_factor(seed, load_idx) for load_idx in range(n_loads)]
    batch = plant.with_load(np.repeat(lams, len(policies)))
    traj = run_episode(batch, sched, fault, lambda k, window: controls[:, k]).check_finite()

    # (E, n_inst + 1, n, h); window j ends at instant j + 1
    windows = np.stack([window_history(traj, k) for k in range(1, n_inst + 2)], axis=1)
    ds = Dataset(
        v_k=windows[:, :-1].reshape(-1, n, h),
        u_k=traj.controls[:, 1:].reshape(-1, m),
        v_next=windows[:, 1:].reshape(-1, n, h),
        meta={
            "master_seed": int(seed),
            "n_loads": int(n_loads),
            "policies": list(policies),
            "load_range": list(LOAD_RANGE),
            "fault": {"affected": list(fault.affected), "depth": fault.depth},
            "plant_digest": plant_digest(
                plant_mod.PlantConfig(model=plant, schedule=sched, fault=fault)
            ),
        },
    )
    ds.scaler = fit_scaler(ds)
    return ds


def fit_scaler(ds: Dataset, v_ref: float = 1.0) -> Scaler:
    """Min-max scaler over all shifted voltages in the dataset; control
    bounds are fixed at [0, U_MAX] rather than fitted."""
    if len(ds) == 0:
        raise ValueError("cannot fit a scaler on an empty dataset")
    shifted = np.concatenate([ds.v_k.ravel(), ds.v_next.ravel()]) - v_ref
    lo, hi = float(shifted.min()), float(shifted.max())
    if hi <= lo:
        raise ScalerError("all voltages identical; normalization range degenerate")
    return Scaler(v_ref=v_ref, v_lo=lo, v_hi=hi)


def split(ds: Dataset, ratio: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint shuffled partition: first ``floor(ratio * N)`` samples into
    the training set.  Both halves keep the parent's scaler and meta and
    must be nonempty."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("split ratio must lie in (0, 1)")
    n_train = int(len(ds) * ratio)
    if not 0 < n_train < len(ds):
        raise ValueError(
            f"split ratio {ratio} of {len(ds)} samples leaves {n_train} training and "
            f"{len(ds) - n_train} held-out samples; both halves must be nonempty"
        )
    perm = np.random.default_rng(seed).permutation(len(ds))
    pick = lambda idx: Dataset(
        v_k=ds.v_k[idx],
        u_k=ds.u_k[idx],
        v_next=ds.v_next[idx],
        scaler=ds.scaler,
        meta=dict(ds.meta),
    )
    return pick(perm[:n_train]), pick(perm[n_train:])


# ---------------------------------------------------------------------------
# Persistence

MANIFEST_NAME = "dataset.json"
SAMPLES_NAME = "samples.csv"


def _csv_header(n: int, h: int, m: int) -> list[str]:
    cols = [f"vk_{i}_{j}" for i in range(n) for j in range(h)]
    cols += [f"u_{l}" for l in range(m)]
    cols += [f"vnext_{i}_{j}" for i in range(n) for j in range(h)]
    return cols


def save(ds: Dataset, out_dir) -> None:
    """Write ``dataset.json`` + ``samples.csv`` under ``out_dir``.

    Floats are written with shortest round-trip repr, so regeneration
    with the same seed reproduces the files byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n, h, m = ds.dims
    manifest = {
        "n": n,
        "h": h,
        "m": m,
        "n_samples": len(ds),
        "scaler": ds.scaler.to_dict() if ds.scaler else None,
        "meta": ds.meta,
    }
    with open(out / MANIFEST_NAME, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    flat = [ds.v_k.reshape(len(ds), n * h), ds.u_k, ds.v_next.reshape(len(ds), n * h)]
    with open(out / SAMPLES_NAME, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_csv_header(n, h, m))
        for row in np.hstack(flat):
            writer.writerow(map(repr, row.tolist()))


def load(in_dir) -> Dataset:
    """Inverse of :func:`save`; validates dimensions against the manifest."""
    src = Path(in_dir)
    try:
        with open(src / MANIFEST_NAME) as f:
            manifest = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise DatasetFormatError(f"cannot read manifest: {exc}") from exc
    try:
        n, h, m = int(manifest["n"]), int(manifest["h"]), int(manifest["m"])
        n_samples = int(manifest["n_samples"])
        scaler_doc = manifest["scaler"]
        table = np.empty((n_samples, 2 * n * h + m))
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"manifest missing or malformed field: {exc}") from exc

    width = table.shape[1]
    n_rows = 0
    with open(src / SAMPLES_NAME, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or (n_samples > 0 and len(header) != width):
            raise DatasetFormatError(
                f"samples.csv has {0 if header is None else len(header)} columns, "
                f"manifest implies {width}"
            )
        for row in reader:
            if n_rows == n_samples:
                raise DatasetFormatError(f"manifest promises {n_samples} samples, file has more")
            if len(row) != width:
                raise DatasetFormatError(f"row {n_rows} has {len(row)} columns, expected {width}")
            try:
                table[n_rows] = row
            except ValueError as exc:
                raise DatasetFormatError(f"row {n_rows} has a non-numeric cell: {exc}") from exc
            n_rows += 1
    if n_rows != n_samples:
        raise DatasetFormatError(f"manifest promises {n_samples} samples, file has {n_rows}")
    non_finite = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if non_finite.size:
        raise DatasetFormatError(f"row {non_finite[0]} contains non-finite values")
    nh = n * h
    return Dataset(
        v_k=table[:, :nh].reshape(n_samples, n, h),
        u_k=table[:, nh : nh + m],
        v_next=table[:, nh + m :].reshape(n_samples, n, h),
        scaler=Scaler.from_dict(scaler_doc) if scaler_doc else None,
        meta=manifest.get("meta", {}),
    )


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    if (a.scaler is None) != (b.scaler is None):
        return False
    if a.scaler and a.scaler.to_dict() != b.scaler.to_dict():
        return False
    return (
        np.array_equal(a.v_k, b.v_k)
        and np.array_equal(a.u_k, b.u_k)
        and np.array_equal(a.v_next, b.v_next)
        and a.meta == b.meta
    )
