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
A state is the voltage array itself, ``(E, n)``, and a control ``(E, m)``;
an ``(n,)`` state with an ``(m,)`` control is the single-episode case and
runs through the same RK4 code.  A model whose load factor ``lam`` is a
vector of E values stands for E plants that differ only in load, so each
episode has its own equilibrium ``(E, n)``, computed once when the model
is built.  A batched ``Trajectory`` holds voltages ``(E, T, n)`` and
controls ``(E, n_intervals, m)``.

Policies are feedback laws on the measurement window: a policy maps
``(k, W)`` to one control row per episode, ``(E, m)``, where ``W`` is
``(E, n, h)`` and holds each episode's last ``h`` samples, oldest first
(``(n, h)`` -> ``(m,)`` for a single episode).  ``W[..., -1]`` is the
sample at the control instant itself; the open-loop and rule-based
policies read only that column, the lifted-space MPC lifts the whole
window.  ``rollout`` cuts ``W`` from its one voltage buffer with
``measurement_window``, as ``dataset`` cuts its training histories.

Failures are per episode.  An episode whose voltages (or control) turn
non-finite has failed: its state row becomes NaN and stays NaN, and the
other episodes of the batch integrate exactly as if it were not there.
``Trajectory.failed`` reports which episodes failed, and
``Trajectory.check_finite`` raises ``IntegrationError`` for a caller that
needs every episode.

All model objects are immutable after construction; ``step`` and
``rollout`` are pure functions of their inputs that return fresh arrays
and write into none of them, so rollouts may safely run concurrently.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

try:  # numpy's clip ufunc, without the Python wrappers of np.clip
    from numpy._core.umath import clip
except ImportError:  # numpy 1.x
    from numpy.core.umath import clip

# Per-step ceiling on every control channel, in p.u. of reactive support.
U_MAX = 0.25

# The voltage every bus is regulated to, in p.u.: the MPC's tracking
# target, the performance index's reference and the scaler's shift.
V_REF = 1.0

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
    arr = np.array(x, dtype=dtype, order="C")
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
        bad = [name for name, x in (("Ts", self.ts), ("Tc", self.tc)) if not np.isfinite(x)]
        if bad:
            raise ValueError(f"schedule parameters must be finite: {', '.join(bad)}")
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
    """Instantaneous post-clearing voltage sag on a set of distinct buses."""

    affected: tuple[int, ...]
    depth: float

    def __post_init__(self):
        affected = list(self.affected)
        if len(affected) == 0:
            raise ValueError("fault must affect at least one bus")
        if not all(_is_number(i, integer=True) and i >= 0 for i in affected):
            raise ValueError(f"fault buses must be non-negative integers (got {affected!r})")
        if len(set(affected)) != len(affected):
            raise ValueError(f"fault buses must be distinct (got {affected!r})")
        if not 0.0 < self.depth < 1.0:
            raise ValueError("fault depth must lie in (0, 1)")
        object.__setattr__(self, "affected", tuple(int(i) for i in affected))


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
        # NaN passes every comparison below; named as in the plant config.
        # A vector of per-episode load factors may hold a non-finite one:
        # that episode fails alone, as any episode whose voltages do
        params = {"a": self.a, "b": self.b, "c": self.c, "v_max": self.v_max, "d": self.d,
                  "W": self.w, "gamma": self.gamma}
        if lam.ndim == 0:
            params["lambda"] = self.lam
        bad = [name for name, x in params.items() if not np.all(np.isfinite(x))]
        if bad:
            raise ValueError(f"plant parameters must be finite: {', '.join(bad)}")
        if self.a.shape != (n,) or self.b.shape != (n,) or self.d.shape != (n,):
            raise ValueError("a, b, d must be n-vectors")
        if self.w.shape != (n, n) or self.gamma.shape != (n, m):
            raise ValueError("w must be n x n and gamma n x m")
        if not np.all(self.a > 0):
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
        # vector_field reads these at every stage: the equilibrium, and a + c,
        # b, c and v_max at its shape, so that on a state of that shape no op
        # broadcasts a vector or converts a Python float.  They must also be
        # C-ordered, as the state is: an operand whose strides differ from
        # the state's sends its op down numpy's slow strided loop, and a copy
        # of a vector broadcast to (E, n) in numpy's default order 'K' comes
        # out column-major, so _readonly copies in C order.  The coupling
        # product runs on W^T itself and c scales its result: for the ring
        # lattice every product is then exact, so a row's bits do not depend
        # on the BLAS summation order or on the batch it is stepped in
        object.__setattr__(self, "_v_eq", _readonly(v_eq))
        coefs = (self.a + self.c, self.b, self.c, self.v_max)
        coefs = tuple(_readonly(np.broadcast_to(x, v_eq.shape)) for x in coefs)
        object.__setattr__(self, "_field", (self._v_eq, *coefs, self.w.T))

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


def vector_field(plant: PlantModel, v: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Time derivative of the voltages at state ``v`` under the per-bus
    injection ``q = u @ plant.gamma.T`` of a control ``u``: ``(E, n)`` or
    ``(n,)``, the shape of ``v``.

    With ``x = v* - v`` it evaluates, in this order,
    ``x * ((a + c) + (b * x) * x) - c * (x @ W^T) + q * (v_max - v)``: the
    cube is a product of multiplications, so its bits are the same on
    every IEEE-754 host and the restoring term is exactly odd in ``x``.
    """
    v_eq, a_c, b, c, v_max, w_t = plant._field
    x = v_eq - v
    f = b * x
    f *= x
    f += a_c
    f *= x
    g = np.dot(x, w_t)
    g *= c
    f -= g
    np.subtract(v_max, v, out=g)
    g *= q
    f += g
    return f


def n_substeps(dt: float) -> int:
    """Default internal substep count for one ``step`` call."""
    return max(_SUBSTEP_MIN, int(np.ceil(dt / _SUBSTEP_CAP)))


def step(
    plant: PlantModel,
    v: np.ndarray,
    u: np.ndarray,
    dt: float,
    substeps: int | None = None,
) -> np.ndarray:
    """Advance the voltages ``v`` by ``dt`` under the constant control
    ``u``: ``(E, n)`` under ``(E, m)``, or ``(n,)`` under ``(m,)``.

    Classical RK4 with internal substeps capped at 50 ms (at least 4 per
    call; override with ``substeps`` for convergence studies); voltages
    are clamped to [0, v_max] after every substep so the saturating
    control term stays well posed.  An episode whose voltages or control
    are not finite comes out as a row of NaN; the other rows are
    unaffected.  Deterministic: identical inputs give bit-identical
    outputs, in a fresh array that leaves ``v`` as it was.  ``ValueError``
    for a ``substeps`` that is not an integer >= 1.
    """
    u = np.array(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if plant.equilibrium().shape not in ((plant.n,), v.shape):
        raise ValueError(f"state of shape {v.shape} does not match the plant's load factors")
    if u.shape != v.shape[:-1] + (plant.m,):
        raise ValueError(f"control must have shape {v.shape[:-1] + (plant.m,)}")
    if np.any(u < -1e-9) or np.any(u > U_MAX + 1e-9):
        raise ValueError(f"control must lie in [0, {U_MAX}] componentwise")

    if substeps is None:
        n_sub = n_substeps(dt)
    elif _is_number(substeps, integer=True) and substeps >= 1:
        n_sub = int(substeps)
    else:
        raise ValueError(f"substeps must be an integer >= 1 (got {substeps!r})")
    h = dt / n_sub
    # u is held over the call, so its injection is too; every constant of
    # the substep is built once, at the state's shape
    q = u @ plant.gamma.T
    half_h, full_h, sixth_h, v_min, v_max = (
        np.full(v.shape, x) for x in (0.5 * h, h, h / 6.0, 0.0, plant.v_max)
    )
    for _ in range(n_sub):
        k1 = vector_field(plant, v, q)
        k2 = vector_field(plant, v + half_h * k1, q)
        k3 = vector_field(plant, v + half_h * k2, q)
        k4 = vector_field(plant, v + full_h * k3, q)
        # v + (h/6) ((k1 + k4) + 2 (k2 + k3)), in the fresh arrays k1 and k2
        k2 += k3
        k2 += k2
        k1 += k4
        k1 += k2
        k1 *= sixth_h
        k1 += v
        v = k1
        # a finite sum means every entry is finite; an infinite one can
        # also be an overflow of finite entries, which the exact test sorts
        if not math.isfinite(np.add.reduce(v, axis=None)):
            # fail only the episodes that went non-finite, before the clamp
            # can turn an infinity into v_max; NaN rows stay NaN from here on
            v = np.where(np.all(np.isfinite(v), axis=-1, keepdims=True), v, np.nan)
        v = clip(v, v_min, v_max, out=v)
    return v


def faulted_initial_state(plant: PlantModel, fault: FaultSpec) -> np.ndarray:
    """Equilibrium voltages with the fault's buses sagged by its depth,
    floored at ``FAULT_FLOOR``: a fresh ``(n,)`` array, or ``(E, n)`` with
    one row per load factor when ``plant.lam`` is a vector."""
    v = plant.equilibrium().copy()
    v[..., fault.affected] = np.maximum(v[..., fault.affected] - fault.depth, FAULT_FLOOR)
    return v


def measurement_window(voltages: np.ndarray, k: int, h: int) -> np.ndarray:
    """Samples ``(k-1) h + 1 .. k h`` of the voltages ``(..., T, n)``, the
    ``h`` samples since control instant k - 1, as a fresh C-ordered
    ``(..., n, h)`` array: oldest first, the sample at instant k last."""
    return voltages[..., (k - 1) * h + 1 : k * h + 1, :].swapaxes(-1, -2).copy()


def rollout(
    plant: PlantModel,
    init: np.ndarray,
    policy: ControlPolicy,
    sched: Schedule,
) -> Trajectory:
    """Simulate ``n_instants`` control intervals with zero-order-held
    controls from the voltages ``init``, ``(n,)`` or ``(E, n)``, whose rows
    must each be finite or all NaN (``IntegrationError`` otherwise).

    The policy is queried once per control instant with the window ``W``
    of the last ``h`` samples, ``(E, n, h)`` (``(n, h)`` for one episode).
    At k = 0 only the initial sample exists, so ``W`` holds it ``h`` times
    over.  The returned trajectory holds ``n_instants * h + 1`` samples at
    spacing ``ts``, from t = 0.
    """
    v = np.array(init, dtype=float)
    if not np.all(np.isfinite(v).all(axis=-1) | np.isnan(v).all(axis=-1)):
        raise IntegrationError("state voltages must be finite")
    h, n_inst = sched.h, sched.n_instants
    voltages = np.empty(v.shape[:-1] + (n_inst * h + 1, v.shape[-1]))
    controls = np.empty(v.shape[:-1] + (n_inst, plant.m))
    voltages[..., 0, :] = v
    for k in range(n_inst):
        w = measurement_window(voltages, k, h) if k else np.repeat(v[..., None], h, axis=-1)
        u = np.asarray(policy(k, w), dtype=float)
        for j in range(k * h + 1, (k + 1) * h + 1):
            v = step(plant, v, u, sched.ts)
            voltages[..., j, :] = v
        controls[..., k, :] = u
    return Trajectory(
        times=sched.ts * np.arange(voltages.shape[-2]),
        voltages=voltages,
        controls=controls,
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
    """A plant together with its schedule and experiment fault on its buses."""

    model: PlantModel
    schedule: Schedule
    fault: FaultSpec

    def __post_init__(self):
        if max(self.fault.affected) >= self.model.n:
            raise ValueError(f"fault buses must be below n = {self.model.n} "
                             f"(got {list(self.fault.affected)!r})")


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


def _is_number(val, integer: bool) -> bool:
    """A real number, an integer where ``integer``, numpy scalars included;
    never a boolean.  Of the JSON values, the numbers and the integers."""
    kind = numbers.Integral if integer else numbers.Real
    return not isinstance(val, bool) and isinstance(val, kind)


def _is_finite(val) -> bool:
    """A real number, as ``_is_number``, that is neither infinite nor NaN."""
    return _is_number(val, integer=False) and (_is_number(val, integer=True)
                                                or math.isfinite(val))


def _number(key: str, val, integer: bool = False):
    """``val`` as a float, or as itself where ``integer``; ``ValueError``
    naming ``key`` unless it is a JSON number, an integer where ``integer``."""
    if not _is_number(val, integer):
        raise ValueError(f"{key} must be {'an integer' if integer else 'a number'} (got {val!r})")
    return val if integer else float(val)


def _object(key: str, val) -> dict:
    """``val`` itself; ``ValueError`` naming ``key`` unless it is a JSON object."""
    if not isinstance(val, dict):
        raise ValueError(f"{key} must be an object (got {val!r})")
    return val


def _numbers(key: str, val):
    """``val``, lists of JSON numbers nested to any depth, with each number
    as a float; ``ValueError`` naming ``key`` for an entry that is not one."""
    if isinstance(val, list):
        return [_numbers(key, x) for x in val]
    return _number(f"every entry of {key}", val)


def config_from_dict(doc: dict) -> PlantConfig:
    """The plant config a ``config_to_dict`` document describes;
    ``ValueError`` for a missing key or a value of the wrong type (``n``,
    ``m`` and ``n_instants`` are integers, every other entry a number)."""
    if not isinstance(doc, dict):
        raise ValueError(f"plant config must be a JSON object (got {type(doc).__name__})")
    try:
        sched, fault = doc["schedule"], doc["fault"]
        model = PlantModel(
            n=_number("n", doc["n"], integer=True), m=_number("m", doc["m"], integer=True),
            a=_numbers("a", doc["a"]), b=_numbers("b", doc["b"]), c=_number("c", doc["c"]),
            w=_numbers("W", doc["W"]), gamma=_numbers("gamma", doc["gamma"]),
            v_max=_number("v_max", doc["v_max"]), d=_numbers("d", doc["d"]),
            lam=_number("lambda", doc["lambda"]))
        schedule = Schedule(ts=_number("Ts", sched["Ts"]), tc=_number("Tc", sched["Tc"]),
                            n_instants=_number("n_instants", sched["n_instants"], integer=True))
        fault = FaultSpec(affected=tuple(fault["affected"]), depth=_number("depth", fault["depth"]))
    except KeyError as exc:
        raise ValueError(f"plant config missing key {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"plant config has a value of the wrong type: {exc}") from exc
    return PlantConfig(model=model, schedule=schedule, fault=fault)


def save_config(cfg: PlantConfig, path) -> None:
    with open(path, "w") as f:
        json.dump(config_to_dict(cfg), f, indent=2, sort_keys=True)
        f.write("\n")


def load_config(path) -> PlantConfig:
    with open(path) as f:
        doc = json.load(f)
    return config_from_dict(doc)
