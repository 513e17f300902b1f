"""Surrogate nonlinear controlled voltage dynamics.

A desk-scale stand-in for a multi-bus power network: each bus voltage
recovers toward a load-dependent equilibrium through a linear plus cubic
restoring term, neighbouring buses exchange deviation through a
row-stochastic coupling graph, and reactive-support controls push voltages
toward a ceiling ``v_max`` with a saturating (multiplicative) gain.  The
vector field for bus ``i`` is::

    dv_i/dt = a_i (v*_i - v_i) + b_i (v*_i - v_i)^3
              + c * sum_j W_ij [(v_j - v*_j) - (v_i - v*_i)]
              + (sum_l gamma_il u_l) * (v_max - v_i)

with the equilibrium ``v*(lambda) = 1 - 0.3 * lambda * d``.  The coupling
acts on deviations from equilibrium so that ``v*`` is an exact fixed point
of the uncontrolled field for every load factor.

Shapes: every integrator function works on a batch of E episodes at once.
A state is ``(E, n)`` and a control ``(E, m)``; a plain ``(n,)`` state with
an ``(m,)`` control is the single-episode case and runs through the same
RK4 code.  A model whose load factor ``lam`` is a vector of E values stands
for E plants that differ only in load, so each episode has its own
equilibrium ``(E, n)``, computed once when the model is built.  A batched
``Trajectory`` holds voltages ``(E, T, n)`` and controls
``(E, n_intervals, m)``.

Policies are feedback laws on the measurement window: a policy maps
``(k, W)`` to one control row per episode, ``(E, m)``, where ``W`` is
``(E, n, h)`` and holds each episode's last ``h`` samples, oldest first
(``(n, h)`` -> ``(m,)`` for a single episode).  ``W[..., -1]`` is the
sample at the control instant itself; the open-loop and rule-based
policies read only that column, the lifted-space MPC lifts the whole
window.  ``rollout`` builds ``W`` from its sample list.

Failures are per episode.  An episode whose voltages (or control) turn
non-finite has failed: its state row becomes NaN and stays NaN, and the
other episodes of the batch integrate exactly as if it were not there.
``Trajectory.failed`` reports which episodes failed, and
``Trajectory.check_finite`` raises ``IntegrationError`` for a caller that
needs every episode.

All model objects are immutable after construction; ``step`` and
``rollout`` are pure functions of their inputs, so rollouts may safely run
concurrently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

# Per-step ceiling on every control channel, in p.u. of reactive support.
U_MAX = 0.25

# RK4 integration: internal substeps never longer than this, and never
# fewer than 4 per call.  Keeps the one-control-interval halving error
# around 1e-9 for the default parameters.
_SUBSTEP_CAP = 0.05
_SUBSTEP_MIN = 4

#: Floor voltage a fault can sag a bus to.
FAULT_FLOOR = 0.05


class IntegrationError(RuntimeError):
    """Non-finite state or parameters encountered while integrating."""


#: Error text of an episode whose integration produced non-finite voltages.
NON_FINITE = "integration produced non-finite voltages"


def _readonly(x, dtype=float) -> np.ndarray:
    arr = np.array(x, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Schedule:
    """Sampling grid: simulation period ``ts``, control period ``tc``
    (an exact integer multiple of ``ts``) and number of control instants."""

    ts: float
    tc: float
    n_instants: int

    def __post_init__(self):
        if self.ts <= 0 or self.tc <= 0:
            raise ValueError("ts and tc must be positive")
        h = self.tc / self.ts
        if abs(h - round(h)) > 1e-9 or round(h) < 1:
            raise ValueError(f"tc must be an integer multiple of ts, got tc/ts={h}")
        if self.n_instants < 1:
            raise ValueError("n_instants must be >= 1")

    @property
    def h(self) -> int:
        """Samples per control interval."""
        return int(round(self.tc / self.ts))


@dataclass(frozen=True)
class FaultSpec:
    """Instantaneous post-clearing voltage sag on a set of buses."""

    affected: tuple[int, ...]
    depth: float

    def __post_init__(self):
        if len(self.affected) == 0:
            raise ValueError("fault must affect at least one bus")
        if not 0.0 < self.depth < 1.0:
            raise ValueError("fault depth must lie in (0, 1)")
        object.__setattr__(self, "affected", tuple(int(i) for i in self.affected))


@dataclass(frozen=True)
class PlantModel:
    """Parameters of the surrogate network.

    ``w`` is row-stochastic with zero diagonal; ``gamma`` maps the m
    control channels to bus injections; ``d`` scales how strongly the
    load factor ``lam`` depresses each bus equilibrium.  ``lam`` is a
    scalar, or a vector of E per-episode load factors for a batch.
    """

    n: int
    m: int
    a: np.ndarray
    b: np.ndarray
    c: float
    w: np.ndarray
    gamma: np.ndarray
    v_max: float
    d: np.ndarray
    lam: float | np.ndarray = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", _readonly(self.a))
        object.__setattr__(self, "b", _readonly(self.b))
        object.__setattr__(self, "w", _readonly(self.w))
        object.__setattr__(self, "gamma", _readonly(self.gamma))
        object.__setattr__(self, "d", _readonly(self.d))
        lam = np.asarray(self.lam, dtype=float)
        if lam.ndim > 1:
            raise ValueError("lam must be a scalar or a vector of per-episode load factors")
        object.__setattr__(self, "lam", float(lam) if lam.ndim == 0 else _readonly(lam))
        n, m = self.n, self.m
        if self.a.shape != (n,) or self.b.shape != (n,) or self.d.shape != (n,):
            raise ValueError("a, b, d must be n-vectors")
        if self.w.shape != (n, n) or self.gamma.shape != (n, m):
            raise ValueError("w must be n x n and gamma n x m")
        if not np.all(np.isfinite(self.a)) or not np.all(self.a > 0):
            raise ValueError("recovery rates a must be positive")
        if np.any(self.b < 0) or self.c < 0 or np.any(self.gamma < 0):
            raise ValueError("b, c and gamma must be nonnegative")
        if self.v_max <= 1.0:
            raise ValueError("v_max must exceed 1.0")
        if np.any(self.d < 0) or np.any(self.d > 1):
            raise ValueError("load sensitivities d must lie in [0, 1]")
        # an all-zero w is tolerated when coupling is switched off (c = 0),
        # which is the only way a single-bus model can exist
        if np.any(np.abs(self.w.sum(axis=1) - 1.0) > 1e-12) and not (
            self.c == 0.0 and not np.any(self.w)
        ):
            raise ValueError("every row of w must sum to 1")
        if np.any(np.abs(np.diag(self.w)) > 0):
            raise ValueError("w must have zero diagonal")
        v_eq = self.equilibrium(self.lam)
        if np.any(v_eq <= 0) or np.any(v_eq > 1):
            raise ValueError("equilibrium voltages must lie in (0, 1]")
        # the integrator reads the equilibrium at every substep
        object.__setattr__(self, "_v_eq", _readonly(v_eq))

    def equilibrium(self, lam=None) -> np.ndarray:
        """Uncontrolled fixed point ``v* = 1 - 0.3 * lam * d``: ``(n,)`` for
        a scalar load factor, ``(E, n)`` for a vector of E."""
        if lam is None:
            return self._v_eq
        return 1.0 - 0.3 * np.asarray(lam, dtype=float)[..., None] * self.d

    def with_load(self, lam) -> "PlantModel":
        """The same network at load factor ``lam``, a scalar or a vector."""
        return replace(self, lam=lam)

    def control_buses(self) -> tuple[int, ...]:
        """Injection bus of each control channel (dominant gamma row)."""
        return tuple(int(np.argmax(self.gamma[:, l])) for l in range(self.m))


@dataclass(frozen=True)
class PlantState:
    """Voltages ``(n,)`` or ``(E, n)`` at time ``t``.  Every row is finite,
    or all NaN for an episode whose integration failed."""

    v: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "v", _readonly(self.v))
        if not np.all(np.isfinite(self.v)):
            rows_ok = np.all(np.isfinite(self.v), axis=-1) | np.all(np.isnan(self.v), axis=-1)
            if not np.all(rows_ok):
                raise IntegrationError("state voltages must be finite")


@dataclass(frozen=True)
class Trajectory:
    """Voltage samples on the ``ts`` grid plus the zero-order-held controls.

    ``voltages[k]`` is the sample at ``times[k]``; ``controls[j]`` was held
    over the j-th control interval.  A batch of E episodes leads both
    arrays with the episode axis: ``voltages[e, k]``, ``controls[e, j]``.
    """

    times: np.ndarray
    voltages: np.ndarray
    controls: np.ndarray
    schedule: Schedule

    def __post_init__(self):
        object.__setattr__(self, "times", _readonly(self.times))
        object.__setattr__(self, "voltages", _readonly(self.voltages))
        object.__setattr__(self, "controls", _readonly(self.controls))

    @property
    def n_intervals(self) -> int:
        return self.controls.shape[-2]

    def failed(self) -> np.ndarray:
        """Per episode, whether its integration produced non-finite
        voltages: ``(E,)`` for a batch, a 0-d array for one episode."""
        return ~np.all(np.isfinite(self.voltages), axis=(-2, -1))

    def check_finite(self) -> "Trajectory":
        """Raise ``IntegrationError`` if any episode failed; else return self."""
        if np.any(self.failed()):
            raise IntegrationError(NON_FINITE)
        return self

    def held_controls(self) -> np.ndarray:
        """Controls repeated onto the sample grid (first sample gets u_0)."""
        h = self.schedule.h
        held = np.repeat(self.controls, h, axis=-2)
        return np.concatenate([held, held[..., -1:, :]], axis=-2)

    def episode(self, e: int) -> "Trajectory":
        """Episode ``e`` of a batched trajectory, as a single-episode one."""
        return Trajectory(
            times=self.times,
            voltages=self.voltages[e],
            controls=self.controls[e],
            schedule=self.schedule,
        )


ControlPolicy = Callable[[int, np.ndarray], np.ndarray]
"""Maps (control-instant index, window ``W`` of shape ``(E, n, h)``) ->
controls ``(E, m)`` in [0, U_MAX]; ``(n, h)`` -> ``(m,)`` for a single
episode.  ``W[..., -1]`` is the sample at the control instant."""


def vector_field(plant: PlantModel, v: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Time derivative of the voltages at state ``v`` under control ``u``:
    ``(E, n)`` under ``(E, m)``, or ``(n,)`` under ``(m,)``."""
    e = v - plant.equilibrium()
    recover = plant.a * (-e) + plant.b * (-e) ** 3
    couple = plant.c * (e @ plant.w.T - e)
    inject = (u @ plant.gamma.T) * (plant.v_max - v)
    return recover + couple + inject


def n_substeps(dt: float) -> int:
    """Default internal substep count for one ``step`` call."""
    return max(_SUBSTEP_MIN, int(np.ceil(dt / _SUBSTEP_CAP)))


def step(
    plant: PlantModel,
    state: PlantState,
    u: np.ndarray,
    dt: float,
    substeps: int | None = None,
) -> PlantState:
    """Advance the state by ``dt`` under the constant control ``u``:
    ``(E, n)`` under ``(E, m)``, or ``(n,)`` under ``(m,)``.

    Classical RK4 with internal substeps capped at 50 ms (at least 4 per
    call; override with ``substeps`` for convergence studies); voltages
    are clamped to [0, v_max] after every substep so the saturating
    control term stays well posed.  An episode whose voltages or control
    are not finite comes out as a row of NaN; the other rows are
    unaffected.  Deterministic: identical inputs give bit-identical
    outputs.
    """
    u = np.array(u, dtype=float)
    v = state.v
    if dt <= 0:
        raise ValueError("dt must be positive")
    if plant.equilibrium().shape not in ((plant.n,), v.shape):
        raise ValueError(f"state of shape {v.shape} does not match the plant's load factors")
    if u.shape != v.shape[:-1] + (plant.m,):
        raise ValueError(f"control must have shape {v.shape[:-1] + (plant.m,)}")
    if np.any(u < -1e-9) or np.any(u > U_MAX + 1e-9):
        raise ValueError(f"control must lie in [0, {U_MAX}] componentwise")

    n_sub = n_substeps(dt) if substeps is None else int(substeps)
    h = dt / n_sub
    for _ in range(n_sub):
        k1 = vector_field(plant, v, u)
        k2 = vector_field(plant, v + 0.5 * h * k1, u)
        k3 = vector_field(plant, v + 0.5 * h * k2, u)
        k4 = vector_field(plant, v + h * k3, u)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(v)):
            # fail only the episodes that went non-finite, before the clamp
            # can turn an infinity into v_max; NaN rows stay NaN from here on
            v = np.where(np.all(np.isfinite(v), axis=-1, keepdims=True), v, np.nan)
        v = np.clip(v, 0.0, plant.v_max)
    return PlantState(v=v, t=state.t + dt)


def apply_fault(state: PlantState, affected: Sequence[int], depth: float) -> PlantState:
    """Sag the affected buses by ``depth`` p.u., floored at 0.05 p.u."""
    affected = tuple(int(i) for i in affected)
    if len(affected) == 0:
        raise ValueError("fault must affect at least one bus")
    if not 0.0 < depth < 1.0:
        raise ValueError("fault depth must lie in (0, 1)")
    v = np.array(state.v, dtype=float)
    for i in affected:
        v[..., i] = np.maximum(v[..., i] - depth, FAULT_FLOOR)
    return PlantState(v=v, t=state.t)


def faulted_initial_state(plant: PlantModel, fault: FaultSpec) -> PlantState:
    """Equilibrium state with the fault sag applied, at t = 0; one row per
    load factor when ``plant.lam`` is a vector."""
    eq = PlantState(v=plant.equilibrium(), t=0.0)
    return apply_fault(eq, fault.affected, fault.depth)


def rollout(
    plant: PlantModel,
    init: PlantState,
    policy: ControlPolicy,
    sched: Schedule,
) -> Trajectory:
    """Simulate ``n_instants`` control intervals with zero-order-held controls.

    The policy is queried once per control instant with the window ``W``
    of the last ``h`` samples, ``(E, n, h)`` (``(n, h)`` for one episode).
    At k = 0 only the initial sample exists, so ``W`` holds it ``h`` times
    over.  The returned trajectory holds ``n_instants * h + 1`` samples at
    spacing ``ts``.
    """
    state = init
    samples = [init.v]
    controls = []
    for k in range(sched.n_instants):
        window = np.stack(samples[-sched.h :] if k else [init.v] * sched.h, axis=-1)
        u = np.asarray(policy(k, window), dtype=float)
        controls.append(u)
        for _ in range(sched.h):
            state = step(plant, state, u, sched.ts)
            samples.append(state.v)
    times = init.t + sched.ts * np.arange(len(samples))
    return Trajectory(
        times=times,
        voltages=np.stack(samples, axis=-2),
        controls=np.stack(controls, axis=-2),
        schedule=sched,
    )


def run_episode(
    plant: PlantModel,
    sched: Schedule,
    fault: FaultSpec,
    policy: ControlPolicy,
) -> Trajectory:
    """One experiment episode: fault at t = 0, one uncontrolled interval
    while the first measurement window accumulates, then ``n_instants``
    policy-controlled intervals.  A vector ``plant.lam`` runs one episode
    per load factor, all in one batch.  The policy's instant 0 is the end
    of the uncontrolled interval, so its first window holds the h samples
    after the fault.

    The returned trajectory spans ``(n_instants + 1)`` intervals; its
    control array has a leading all-zero row for the uncontrolled one.
    """
    init = faulted_initial_state(plant, fault)
    ext = Schedule(ts=sched.ts, tc=sched.tc, n_instants=sched.n_instants + 1)

    def shifted(k: int, window: np.ndarray) -> np.ndarray:
        if k == 0:
            return np.zeros(window.shape[:-2] + (plant.m,))
        return policy(k - 1, window)

    return rollout(plant, init, shifted, ext)


def zero_policy(plant: PlantModel) -> ControlPolicy:
    return lambda k, window: np.zeros(window.shape[:-2] + (plant.m,))


def full_policy(plant: PlantModel) -> ControlPolicy:
    return lambda k, window: np.full(window.shape[:-2] + (plant.m,), U_MAX)


# ---------------------------------------------------------------------------
# Configuration


@dataclass(frozen=True)
class PlantConfig:
    """A plant together with its schedule and experiment fault."""

    model: PlantModel
    schedule: Schedule
    fault: FaultSpec


def ring_lattice(n: int) -> np.ndarray:
    """Row-stochastic ring: each bus coupled to its two neighbours at 0.5."""
    w = np.zeros((n, n))
    for i in range(n):
        w[i, (i - 1) % n] = 0.5
        w[i, (i + 1) % n] = 0.5
    return w


def default_config() -> PlantConfig:
    """Six-bus surrogate with three control channels on buses 0, 2, 4."""
    n, m = 6, 3
    gamma = np.zeros((n, m))
    for l, bus in enumerate((0, 2, 4)):
        gamma[bus, l] = 4.0
    model = PlantModel(
        n=n,
        m=m,
        a=np.full(n, 2.0),
        b=np.full(n, 5.0),
        c=1.0,
        w=ring_lattice(n),
        gamma=gamma,
        v_max=1.1,
        d=np.array([0.06, 0.08, 0.10, 0.10, 0.08, 0.06]),
        lam=1.0,
    )
    sched = Schedule(ts=0.75, tc=3.0, n_instants=5)
    fault = FaultSpec(affected=(1, 2, 3), depth=0.25)
    return PlantConfig(model=model, schedule=sched, fault=fault)


def mirror_config() -> PlantConfig:
    """Twelve-bus surrogate with five control channels, matching the
    monitored-region dimensions of the reference experiments."""
    n, m = 12, 5
    gamma = np.zeros((n, m))
    for l, bus in enumerate((0, 1, 3, 4, 11)):
        gamma[bus, l] = 4.0
    d = np.array([0.06, 0.07, 0.08, 0.09, 0.10, 0.11, 0.11, 0.10, 0.09, 0.08, 0.07, 0.06])
    model = PlantModel(
        n=n,
        m=m,
        a=np.full(n, 2.0),
        b=np.full(n, 5.0),
        c=1.0,
        w=ring_lattice(n),
        gamma=gamma,
        v_max=1.1,
        d=d,
        lam=1.0,
    )
    sched = Schedule(ts=0.75, tc=3.0, n_instants=5)
    fault = FaultSpec(affected=(9, 10, 11), depth=0.25)
    return PlantConfig(model=model, schedule=sched, fault=fault)


def config_to_dict(cfg: PlantConfig) -> dict:
    return {
        "n": cfg.model.n,
        "m": cfg.model.m,
        "a": cfg.model.a.tolist(),
        "b": cfg.model.b.tolist(),
        "c": cfg.model.c,
        "v_max": cfg.model.v_max,
        "W": cfg.model.w.tolist(),
        "gamma": cfg.model.gamma.tolist(),
        "d": cfg.model.d.tolist(),
        "lambda": cfg.model.lam,
        "schedule": {"Ts": cfg.schedule.ts, "Tc": cfg.schedule.tc, "n_instants": cfg.schedule.n_instants},
        "fault": {"affected": list(cfg.fault.affected), "depth": cfg.fault.depth},
    }


def config_from_dict(doc: dict) -> PlantConfig:
    try:
        model = PlantModel(
            n=int(doc["n"]),
            m=int(doc["m"]),
            a=doc["a"],
            b=doc["b"],
            c=float(doc["c"]),
            w=doc["W"],
            gamma=doc["gamma"],
            v_max=float(doc["v_max"]),
            d=doc["d"],
            lam=float(doc["lambda"]),
        )
        sched = Schedule(
            ts=float(doc["schedule"]["Ts"]),
            tc=float(doc["schedule"]["Tc"]),
            n_instants=int(doc["schedule"]["n_instants"]),
        )
        fault = FaultSpec(
            affected=tuple(doc["fault"]["affected"]),
            depth=float(doc["fault"]["depth"]),
        )
    except KeyError as exc:
        raise ValueError(f"plant config missing key {exc}") from exc
    return PlantConfig(model=model, schedule=sched, fault=fault)


def save_config(cfg: PlantConfig, path) -> None:
    with open(path, "w") as f:
        json.dump(config_to_dict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")


def load_config(path) -> PlantConfig:
    with open(path) as f:
        doc = json.load(f)
    return config_from_dict(doc)
