"""Closed-loop evaluation: rule-based volt-var baseline, the absolute
voltage-deviation performance index, and the multi-case comparison
harness (no-control vs VVC vs lifted-space MPC).

``compare`` takes the validated config objects the run config is built
into (``PlantConfig``, ``EvalConfig``, ``VvcParams``, ``MpcConfig``) and
checks nothing they already checked; only the monitored buses are
checked here, against the plant, before any rollout.  Every voltage is
measured against ``plant.V_REF``."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from koopmanmpc import mpc as mpc_mod
from koopmanmpc.checks import COUNT, FINITE, NON_NEGATIVE, field_errors, is_number, raise_if
from koopmanmpc.dataset import load_factor
from koopmanmpc.plant import (
    NON_FINITE,
    IntegrationError,
    PlantConfig,
    Trajectory,
    U_MAX,
    V_REF,
    clip,
    run_episode,
)

_CASE_CHANNEL = 0xC0  # pseudo policy index for per-case load draws


@dataclass(frozen=True)
class VvcParams:
    """Decentralized deadband rule: each control bus injects
    gain * (deadband - local voltage), clamped to [0, U_MAX], whenever its
    own voltage sits below the deadband.  ``ValueError`` names every field
    out of range."""

    deadband: float = 0.95
    gain: float = 2.5

    def __post_init__(self):
        raise_if(field_errors(self, {"deadband": FINITE, "gain": NON_NEGATIVE}))


@dataclass(frozen=True)
class EvalConfig:
    """The comparison's size and scope: ``n_cases`` random load cases, and
    the ``monitored`` buses its performance index sums over (every bus for
    None; :func:`monitored_buses` checks them against the plant).
    ``ValueError`` names a bad ``n_cases``."""

    n_cases: int = 100
    monitored: list[int] | None = None

    def __post_init__(self):
        raise_if(field_errors(self, {"n_cases": COUNT}))


def vvc_policy(v_local, params: VvcParams):
    """Control from local voltage only, elementwise over ``v_local``."""
    return clip(params.gain * np.maximum(0.0, params.deadband - v_local), 0.0, U_MAX)


def vvc_episode_policy(control_buses: tuple[int, ...], params: VvcParams):
    """Per-instant controls: channel l reads the latest voltage of its own
    bus, ``W[..., bus, -1]``, in every episode of a batch."""
    buses = list(control_buses)
    return lambda k, window: vvc_policy(window[..., buses, -1], params)


def monitored_buses(n: int, monitored=None) -> tuple[int, ...]:
    """The monitored bus indices (every bus for None), distinct and checked
    against n."""
    if monitored is not None and not (isinstance(monitored, (list, tuple)) and all(
            is_number(i, integer=True) for i in monitored)):
        raise ValueError(f"monitored must be null or a list of bus indices (got {monitored!r})")
    monitored = tuple(range(n)) if monitored is None else tuple(int(i) for i in monitored)
    if len(monitored) == 0:
        raise ValueError("monitored bus set must be nonempty")
    if any(i < 0 or i >= n for i in monitored):
        raise ValueError("monitored bus index out of range")
    if len(set(monitored)) != len(monitored):
        raise ValueError(f"monitored buses must be distinct (got {list(monitored)!r})")
    return monitored


def performance_index(traj: Trajectory, monitored=None):
    """Sum over every sample and every monitored bus of |v - V_REF|: a
    float for one episode, ``(E,)`` for a batch of E, each row the bits of
    its episode alone.

    Zero exactly when the monitored voltages track the reference at every
    sample; additive over trajectories that share no sample.
    """
    monitored = monitored_buses(traj.voltages.shape[-1], monitored)
    dev = np.abs(traj.voltages[..., monitored] - V_REF)
    if dev.ndim == 2:
        return float(dev.sum())
    # row by row: one sum over axes (1, 2) adds in another order
    return np.array([row.sum() for row in dev])


@dataclass(frozen=True)
class CaseRecord:
    index: int
    load_factor: float
    ok: bool
    j_no_control: float
    j_vvc: float
    j_mpc: float
    error: str = ""


@dataclass
class ComparisonReport:
    records: list[CaseRecord]
    win_fraction: float
    seed: int
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["case", "load_factor", "ok", "j_no_control", "j_vvc", "j_mpc", "error"])
            for r in self.records:
                writer.writerow(
                    [r.index, repr(float(r.load_factor)), int(r.ok), repr(float(r.j_no_control)),
                     repr(float(r.j_vvc)), repr(float(r.j_mpc)), r.error]
                )

    def summary(self) -> dict:
        ok = [r for r in self.records if r.ok]
        mean = lambda xs: float(np.mean(xs)) if xs else float("nan")
        return {
            "n_cases": len(self.records),
            "n_ok": len(ok),
            "win_fraction": self.win_fraction,
            "mean_j_no_control": mean([r.j_no_control for r in ok]),
            "mean_j_vvc": mean([r.j_vvc for r in ok]),
            "mean_j_mpc": mean([r.j_mpc for r in ok]),
            "seed": self.seed,
            "meta": self.meta,
        }

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.summary(), f, indent=2, sort_keys=True)
            f.write("\n")


def compare(
    model,
    plant_config: PlantConfig,
    eval_config: EvalConfig,
    seed: int,
    vvc: VvcParams = VvcParams(),
    mpc: mpc_mod.MpcConfig = mpc_mod.MpcConfig(),
) -> ComparisonReport:
    """Run the three controllers on ``eval_config.n_cases`` random load
    factors drawn uniformly from ``dataset.LOAD_RANGE`` (fixed fault from
    the plant config) and report the fraction of cases where the lifted-space MPC
    beats VVC.

    Every case and every controller runs in one plant rollout of
    ``3 * n_cases`` episodes: the no-control rows, then the VVC rows, then
    the MPC rows, one of each per case.  Cases are seeded independently
    and every row's arithmetic is its own, so a case's record does not
    depend on which other cases run with it.  A case whose QP solve does
    not converge or whose integration fails is recorded with its error
    and the rest keep running; any other error propagates, before the
    rollout when it comes from the arguments: ``eval_config.monitored``
    buses the plant lacks (:func:`monitored_buses`) or a model the plant
    does not fit (:class:`~koopmanmpc.mpc.MpcPolicy`).
    """
    n_cases = eval_config.n_cases
    base = plant_config.model
    sched = plant_config.schedule
    monitored = monitored_buses(base.n, eval_config.monitored)
    vvc_law = vvc_episode_policy(base.control_buses(), vvc)
    mpc_law = mpc_mod.MpcPolicy(model, plant_config, mpc)

    lams = np.array([load_factor(seed, idx, _CASE_CHANNEL) for idx in range(n_cases)])
    vvc_rows, mpc_rows = slice(n_cases, 2 * n_cases), slice(2 * n_cases, None)

    def policy(k: int, window: np.ndarray) -> np.ndarray:
        u = np.zeros(window.shape[:-2] + (base.m,))  # no-control rows stay at zero
        u[vvc_rows] = vvc_law(k, window[vvc_rows])
        u[mpc_rows] = mpc_law(k, window[mpc_rows])
        return u

    traj = run_episode(base.with_load(np.tile(lams, 3)), sched, plant_config.fault, policy)
    # rows: no control, VVC, MPC; columns: cases
    failed = traj.failed().reshape(3, n_cases)
    j = performance_index(traj, monitored).reshape(3, n_cases)

    records = []
    for idx, lam in enumerate(lams):
        # a baseline failure first, then the MPC's: the order they happen in
        if failed[0, idx] or failed[1, idx]:
            error = IntegrationError(NON_FINITE)
        else:
            error = mpc_law.failure(idx)
            if error is None and failed[2, idx]:
                error = IntegrationError(NON_FINITE)
        # a failed case is flagged, with no scores, and the rest keep going
        j_no, j_vvc, j_mpc = j[:, idx].tolist() if error is None else [float("nan")] * 3
        records.append(CaseRecord(
            index=idx, load_factor=float(lam), ok=error is None,
            j_no_control=j_no, j_vvc=j_vvc, j_mpc=j_mpc,
            error="" if error is None else f"{type(error).__name__}: {error}"))
    ok = [r for r in records if r.ok]
    win_fraction = sum(r.j_mpc < r.j_vvc for r in ok) / len(ok) if ok else 0.0
    return ComparisonReport(records=records, win_fraction=win_fraction, seed=seed,
                            meta={"n_cases": n_cases, "vvc": asdict(vvc), "v_ref": V_REF})
