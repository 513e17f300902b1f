"""Closed-loop evaluation: rule-based volt-var baseline, the absolute
voltage-deviation performance index, and the multi-case comparison
harness (no-control vs VVC vs lifted-space MPC)."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from koopmanmpc import mpc as mpc_mod
from koopmanmpc.dataset import rollout_seed
from koopmanmpc.plant import (
    NON_FINITE,
    IntegrationError,
    PlantConfig,
    Trajectory,
    U_MAX,
    run_episode,
)

_CASE_CHANNEL = 0xC0  # pseudo policy index for per-case load draws


@dataclass(frozen=True)
class VvcParams:
    """Decentralized deadband rule: each control bus injects
    gain * (deadband - local voltage), clamped to [0, u_max], whenever its
    own voltage sits below the deadband."""

    deadband: float = 0.95
    gain: float = 2.5
    u_max: float = U_MAX

    def __post_init__(self):
        if self.gain < 0:
            raise ValueError("vvc gain must be nonnegative")
        if self.u_max < 0:
            raise ValueError("vvc u_max must be nonnegative")


def vvc_policy(v_local, params: VvcParams):
    """Control from local voltage only, elementwise over ``v_local``."""
    return np.clip(params.gain * np.maximum(0.0, params.deadband - v_local), 0.0, params.u_max)


def vvc_episode_policy(control_buses: tuple[int, ...], params: VvcParams):
    """Per-instant controls: channel l reads the latest voltage of its own
    bus, ``W[..., bus, -1]``, in every episode of a batch."""
    buses = list(control_buses)
    return lambda k, window: vvc_policy(window[..., buses, -1], params)


def _monitored_buses(n: int, monitored=None) -> tuple[int, ...]:
    """The monitored bus indices (every bus for None), checked against n."""
    monitored = tuple(range(n)) if monitored is None else tuple(int(i) for i in monitored)
    if len(monitored) == 0:
        raise ValueError("monitored bus set must be nonempty")
    if any(i < 0 or i >= n for i in monitored):
        raise ValueError("monitored bus index out of range")
    return monitored


def performance_index(traj: Trajectory, v_ref: float = 1.0, monitored=None) -> float:
    """Sum over every sample and every monitored bus of |v - v_ref|.

    Zero exactly when the monitored voltages track the reference at every
    sample; additive over trajectories that share no sample.
    """
    monitored = _monitored_buses(traj.voltages.shape[1], monitored)
    dev = np.abs(traj.voltages[:, monitored] - v_ref)
    return float(dev.sum())


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
    n_cases: int,
    seed: int,
    v_ref: float = 1.0,
    monitored=None,
    vvc_params: VvcParams = VvcParams(),
    mpc_kwargs: dict | None = None,
) -> ComparisonReport:
    """Run the three controllers on ``n_cases`` random load factors drawn
    uniformly from [0.9, 1.1] (fixed fault from the plant config) and
    report the fraction of cases where the lifted-space MPC beats VVC.

    Every case and every controller runs in one plant rollout of
    ``3 * n_cases`` episodes: the no-control rows, then the VVC rows, then
    the MPC rows, one of each per case.  Cases are seeded independently
    and every row's arithmetic is its own, so a case's record does not
    depend on which other cases run with it.  A case whose QP solve does
    not converge or whose integration fails is recorded with its error
    and the rest keep running; any other error propagates, before the
    rollout when it comes from the arguments.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be >= 1")
    base = plant_config.model
    sched = plant_config.schedule
    monitored = _monitored_buses(base.n, monitored)
    vvc = vvc_episode_policy(base.control_buses(), vvc_params)
    mpc = mpc_mod.MpcPolicy(model, base, sched, v_ref=v_ref, **(mpc_kwargs or {}))

    lams = np.array([
        np.random.default_rng(rollout_seed(seed, idx, _CASE_CHANNEL)).uniform(0.9, 1.1)
        for idx in range(n_cases)
    ])
    vvc_rows, mpc_rows = slice(n_cases, 2 * n_cases), slice(2 * n_cases, None)

    def policy(k: int, window: np.ndarray) -> np.ndarray:
        u = np.zeros(window.shape[:-2] + (base.m,))  # no-control rows stay at zero
        u[vvc_rows] = vvc(k, window[vvc_rows])
        u[mpc_rows] = mpc(k, window[mpc_rows])
        return u

    traj = run_episode(base.with_load(np.tile(lams, 3)), sched, plant_config.fault, policy)
    failed = traj.failed()

    records = []
    wins = 0
    for idx, lam in enumerate(lams):
        rows = (idx, n_cases + idx, 2 * n_cases + idx)  # no control, VVC, MPC
        # a baseline failure first, then the MPC's: the order they happen in
        if failed[rows[0]] or failed[rows[1]]:
            error = IntegrationError(NON_FINITE)
        else:
            error = mpc.failure(idx)
            if error is None and failed[rows[2]]:
                error = IntegrationError(NON_FINITE)
        if error is not None:  # flag the case, keep going
            records.append(
                CaseRecord(
                    index=idx, load_factor=float(lam), ok=False,
                    j_no_control=float("nan"), j_vvc=float("nan"), j_mpc=float("nan"),
                    error=f"{type(error).__name__}: {error}",
                )
            )
            continue
        j_no, j_vvc, j_mpc = (performance_index(traj.episode(e), v_ref, monitored) for e in rows)
        wins += int(j_mpc < j_vvc)
        records.append(
            CaseRecord(
                index=idx, load_factor=float(lam), ok=True,
                j_no_control=j_no, j_vvc=j_vvc, j_mpc=j_mpc,
            )
        )
    n_ok = sum(r.ok for r in records)
    win_fraction = wins / n_ok if n_ok else 0.0
    return ComparisonReport(
        records=records,
        win_fraction=win_fraction,
        seed=seed,
        meta={
            "n_cases": n_cases,
            "vvc": {"deadband": vvc_params.deadband, "gain": vvc_params.gain,
                    "u_max": vvc_params.u_max},
            "v_ref": v_ref,
        },
    )
