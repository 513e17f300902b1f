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
    """Per-instant controls: channel l reads the voltage of its own bus,
    in every episode of a batch."""
    buses = list(control_buses)
    return lambda k, v: vvc_policy(v[..., buses], params)


def performance_index(traj: Trajectory, v_ref: float = 1.0, monitored=None) -> float:
    """Sum over every sample and every monitored bus of |v - v_ref|.

    Zero exactly when the monitored voltages track the reference at every
    sample; additive over trajectories that share no sample.
    """
    n = traj.voltages.shape[1]
    monitored = tuple(range(n)) if monitored is None else tuple(int(i) for i in monitored)
    if len(monitored) == 0:
        raise ValueError("monitored bus set must be nonempty")
    if any(i < 0 or i >= n for i in monitored):
        raise ValueError("monitored bus index out of range")
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

    Cases are seeded independently, so results do not depend on execution
    order.  Each case runs its no-control and VVC episodes as one batch of
    two.  A case whose QP solve does not converge or whose integration
    fails is recorded with its error and the rest keep running; any other
    error propagates.
    """
    if n_cases < 1:
        raise ValueError("n_cases must be >= 1")
    base = plant_config.model
    sched = plant_config.schedule
    fault = plant_config.fault
    vvc = vvc_episode_policy(base.control_buses(), vvc_params)
    mpc_kwargs = dict(mpc_kwargs or {})

    def baselines(k: int, v: np.ndarray) -> np.ndarray:
        u = vvc(k, v)
        u[0] = 0.0  # episode 0 runs without control, episode 1 under VVC
        return u

    records = []
    wins = 0
    n_ok = 0
    for idx in range(n_cases):
        rng = np.random.default_rng(rollout_seed(seed, idx, _CASE_CHANNEL))
        lam = float(rng.uniform(0.9, 1.1))
        plant = base.with_load(lam)
        try:
            both = run_episode(base.with_load([lam, lam]), sched, fault, baselines)
            loop = mpc_mod.receding_horizon(
                model, plant, sched, v_ref=v_ref, fault=fault, **mpc_kwargs
            )
            if loop.aborted:
                last = loop.diagnostics[-1]
                raise mpc_mod.QpNonConvergence(
                    f"closed loop aborted at instant {last['instant']}: {last['error']}",
                    residual=last["pg_norm"],
                )
            j_no, j_vvc = (performance_index(both.episode(e), v_ref, monitored) for e in (0, 1))
            j_mpc = performance_index(loop.trajectory, v_ref, monitored)
        except (mpc_mod.QpNonConvergence, IntegrationError) as exc:  # flag the case, keep going
            records.append(
                CaseRecord(
                    index=idx, load_factor=lam, ok=False,
                    j_no_control=float("nan"), j_vvc=float("nan"), j_mpc=float("nan"),
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        n_ok += 1
        wins += int(j_mpc < j_vvc)
        records.append(
            CaseRecord(
                index=idx, load_factor=lam, ok=True,
                j_no_control=j_no, j_vvc=j_vvc, j_mpc=j_mpc,
            )
        )
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
