"""Receding-horizon control in the lifted linear space.

At each control instant the finite-horizon tracking objective

    sum_{i=0}^{Nk-1} (z_{k+i+1} - z_ref)^T Q (z_{k+i+1} - z_ref)
                     + u_{k+i}^T R u_{k+i}

subject to z_{k+i+1} = A z_{k+i} + B u_{k+i} and box bounds on u is
condensed into a quadratic in the stacked control sequence by eliminating
the predicted states (prediction blocks A^i B by recursion, never a power
of A or a Kronecker product of Q: O(H N^2 m) per instant), solved with
fixed-step projected gradient descent sized by the exact largest
eigenvalue of the Hessian, and the first move is applied to the plant.
All solver arithmetic runs in normalized units; controls are denormalized
to p.u. before they touch the plant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from koopmanmpc.dataset import Scaler
from koopmanmpc.plant import (
    FaultSpec,
    PlantModel,
    PlantState,
    Schedule,
    Trajectory,
    U_MAX,
    faulted_initial_state,
    step,
)

#: Defaults for the projected-gradient solver.
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50_000

# Safety factor on the exact largest eigenvalue: keeps the fixed step
# strictly below 1/L, so rounding in lambda_max cannot push it past 1/L.
_STEP_SAFETY = 1.05


class QpNonConvergence(RuntimeError):
    """Projected gradient did not reach tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


def _check_weight(mat: np.ndarray, name: str, dim: int):
    if mat.shape != (dim, dim):
        raise ValueError(f"{name} must be {dim} x {dim}")
    if np.max(np.abs(mat - mat.T)) > 1e-10:
        raise ValueError(f"{name} must be symmetric")
    off_diag = mat - np.diag(np.diag(mat))
    if np.count_nonzero(off_diag) == 0:
        min_eig = float(np.min(np.diag(mat)))
    else:
        min_eig = float(np.min(np.linalg.eigvalsh(mat)))
    if min_eig < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite (min eig {min_eig:.2e})")


@dataclass(frozen=True)
class MpcProblem:
    """One instant's lifted tracking problem over the remaining horizon."""

    A: np.ndarray
    B: np.ndarray
    z0: np.ndarray
    z_ref: np.ndarray
    horizon: int
    Q: np.ndarray
    R: np.ndarray
    u_min: np.ndarray
    u_max: np.ndarray

    def __post_init__(self):
        n_lift = self.A.shape[0]
        m = self.B.shape[1]
        if self.A.shape != (n_lift, n_lift) or self.B.shape != (n_lift, m):
            raise ValueError("A must be square and B conformable")
        if self.z0.shape != (n_lift,) or self.z_ref.shape != (n_lift,):
            raise ValueError("z0 and z_ref must be lifted-dimension vectors")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.u_min.shape != (m,) or self.u_max.shape != (m,):
            raise ValueError("bounds must be m-vectors")
        if np.any(self.u_min > self.u_max):
            raise ValueError("u_min must not exceed u_max")
        _check_weight(self.Q, "Q", n_lift)
        _check_weight(self.R, "R", m)


@dataclass(frozen=True)
class CondensedQp:
    """f(U) = U^T hessian U + 2 linear^T U + const over a box, with U the
    row-major stacking of the horizon's control vectors."""

    hessian: np.ndarray
    linear: np.ndarray
    const: float
    lower: np.ndarray
    upper: np.ndarray
    horizon: int
    n_controls: int

    def objective(self, u_flat: np.ndarray) -> float:
        u_flat = np.asarray(u_flat, dtype=float)
        return float(u_flat @ self.hessian @ u_flat + 2.0 * self.linear @ u_flat + self.const)


def condense(problem: MpcProblem) -> CondensedQp:
    """Eliminate the predicted states.

    The i-th predicted state (0-based) is
    ``z_{i+1} = A^{i+1} z0 + sum_{j<=i} G_{i-j} u_j`` with the prediction
    blocks ``G_0 = B``, ``G_{k+1} = A G_k``.  The blocks and the free
    response ``A^{i+1} z0`` come from that recursion (matrix-times-block
    and matvec), so no power of A is ever formed; the block-diagonal state
    weight is applied one block row at a time, never as a Kronecker
    product.  The cost is O(H N^2 m) for the recursion and Q products
    plus O(H^3 N m^2) for the Hessian GEMM, and the quadratic's value
    equals the original objective for every feasible control sequence.
    """
    nk, n_lift, m = problem.horizon, problem.A.shape[0], problem.B.shape[1]
    blocks = [problem.B]
    free = [problem.A @ problem.z0]
    for _ in range(nk - 1):
        blocks.append(problem.A @ blocks[-1])
        free.append(problem.A @ free[-1])
    d_mat = np.array(free) - problem.z_ref  # (nk, N): free-response tracking error
    q_blocks = [problem.Q @ g for g in blocks]  # Q G_k, k = 0..nk-1

    # block row i of the prediction matrix is [G_i ... G_0 0 ... 0]
    s_big = np.zeros((nk, n_lift, nk, m))
    q_s = np.zeros((nk, n_lift, nk, m))
    for i in range(nk):
        for j in range(i + 1):
            s_big[i, :, j] = blocks[i - j]
            q_s[i, :, j] = q_blocks[i - j]
    s_big = s_big.reshape(nk * n_lift, nk * m)
    q_s = q_s.reshape(nk * n_lift, nk * m)

    hessian = s_big.T @ q_s
    for j in range(nk):
        hessian[j * m : (j + 1) * m, j * m : (j + 1) * m] += problem.R
    hessian = 0.5 * (hessian + hessian.T)
    linear = q_s.T @ d_mat.ravel()
    const = float(np.sum((d_mat @ problem.Q) * d_mat))
    return CondensedQp(
        hessian=hessian,
        linear=linear,
        const=const,
        lower=np.tile(problem.u_min, nk),
        upper=np.tile(problem.u_max, nk),
        horizon=nk,
        n_controls=m,
    )


@dataclass(frozen=True)
class SolveInfo:
    iterations: int
    converged: bool
    pg_norm: float
    objective: float
    step_bound: float
    objective_trace: tuple = ()


@dataclass(frozen=True)
class ControlSequence:
    """Stacked solution in normalized units plus its p.u. image."""

    u: np.ndarray  # (horizon, m), normalized
    u_pu: np.ndarray | None
    info: SolveInfo


def _estimate_curvature(hessian: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric PSD hessian, exactly (eigvalsh);
    0.0 for an empty one.  The hessian is only horizon * m wide."""
    return float(np.linalg.eigvalsh(hessian)[-1]) if hessian.size else 0.0


def solve_box_qp(
    qp: CondensedQp,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    scaler: Scaler | None = None,
    trace: bool = False,
) -> ControlSequence:
    """Fixed-step projected gradient descent from the (projected) origin.

    The step is 1 / (safety * 2 * lambda_max) with lambda_max the exact
    largest eigenvalue of the hessian, which guarantees monotone descent;
    convergence is declared when the step-one projected gradient has
    max-norm below ``tol`` (interior coordinates then satisfy
    |grad| < tol, bound coordinates have outward-pushing gradients).
    ``trace=True`` records the objective at every iterate.
    """
    lam = _estimate_curvature(qp.hessian)
    step_bound = _STEP_SAFETY * 2.0 * lam
    alpha = 1.0 / max(step_bound, 1e-300)

    u = np.clip(np.zeros_like(qp.linear), qp.lower, qp.upper)
    objectives = [qp.objective(u)] if trace else []
    iterations = 0
    for iterations in range(max_iter + 1):
        grad = 2.0 * (qp.hessian @ u + qp.linear)
        pg = u - np.clip(u - grad, qp.lower, qp.upper)
        pg_norm = float(np.max(np.abs(pg))) if pg.size else 0.0
        if pg_norm < tol:
            info = SolveInfo(
                iterations=iterations,
                converged=True,
                pg_norm=pg_norm,
                objective=qp.objective(u),
                step_bound=step_bound,
                objective_trace=tuple(objectives),
            )
            u_mat = u.reshape(qp.horizon, qp.n_controls)
            u_pu = scaler.denormalize_u(u_mat) if scaler is not None else None
            return ControlSequence(u=u_mat, u_pu=u_pu, info=info)
        u = np.clip(u - alpha * grad, qp.lower, qp.upper)
        if trace:
            objectives.append(qp.objective(u))
    raise QpNonConvergence(
        f"projected gradient residual {pg_norm:.3e} above tol {tol:.1e} "
        f"after {max_iter} iterations",
        residual=pg_norm,
    )


# ---------------------------------------------------------------------------
# Closed loop


@dataclass
class ClosedLoopResult:
    """Full-resolution closed-loop record: trajectory, applied controls in
    p.u. (one row per control instant; the leading uncontrolled interval
    is not included), per-instant solver diagnostics, and an ``aborted``
    flag set when a solve failed and the loop stopped early."""

    trajectory: Trajectory
    applied_controls: np.ndarray
    diagnostics: list = field(default_factory=list)
    aborted: bool = False

    def to_csv(self, path) -> None:
        import csv

        n = self.trajectory.voltages.shape[1]
        m = self.trajectory.controls.shape[1]
        held = self.trajectory.held_controls()
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["time"] + [f"v_{i}" for i in range(n)] + [f"u_{l}" for l in range(m)])
            for row_t, row_v, row_u in zip(self.trajectory.times, self.trajectory.voltages, held):
                writer.writerow(
                    [repr(float(row_t))]
                    + [repr(float(x)) for x in row_v]
                    + [repr(float(x)) for x in row_u]
                )

    def diagnostics_to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"aborted": self.aborted, "instants": self.diagnostics}, f, sort_keys=True)
            f.write("\n")


def receding_horizon(
    model,
    plant: PlantModel,
    sched: Schedule,
    v_ref: float = 1.0,
    fault: FaultSpec | None = None,
    Q: np.ndarray | None = None,
    R: np.ndarray | None = None,
    u_min_pu: float = 0.0,
    u_max_pu: float = U_MAX,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ClosedLoopResult:
    """Shrinking-horizon MPC against the plant.

    The fault hits at t = 0 and the first interval is uncontrolled while
    the first measurement window fills.  At the k-th instant (0-based) the
    window of the previous interval is lifted, the remaining budget
    ``n_instants - k`` is the horizon, and the first move of the solution
    is held for one control interval.  The lifted reference is fixed: the
    constant ``v_ref`` history, lifted once.  A model whose ``(n, h, m)``
    differs from the plant's ``(n, sched.h, m)`` is rejected up front with
    ``ValueError``.
    """
    if fault is None:
        raise ValueError("receding_horizon requires the experiment fault")
    n_lift, m = model.B.shape
    model_shape, plant_shape = (model.n, model.h, m), (plant.n, sched.h, plant.m)
    if model_shape != plant_shape:
        raise ValueError(
            f"model (n, h, m) = {model_shape} does not match plant (n, h, m) = {plant_shape}"
        )
    scaler: Scaler = model.scaler
    Q = np.eye(n_lift) if Q is None else np.asarray(Q, dtype=float)
    R = np.zeros((m, m)) if R is None else np.asarray(R, dtype=float)
    u_lo = np.full(m, float(scaler.normalize_u(u_min_pu)))
    u_hi = np.full(m, float(scaler.normalize_u(u_max_pu)))
    z_ref = model.lift_reference(v_ref)

    h = sched.h
    state = faulted_initial_state(plant, fault)
    samples = [np.array(state.v)]
    control_rows = [np.zeros(m)]
    applied = []
    diagnostics = []
    aborted = False

    # uncontrolled interval while the first window accumulates
    for _ in range(h):
        state = step(plant, state, np.zeros(m), sched.ts)
        samples.append(np.array(state.v))

    for k in range(sched.n_instants):
        window = np.vstack(samples[-h:]).T  # (n, h): last h samples
        problem = MpcProblem(
            A=model.A,
            B=model.B,
            z0=model.lift(window),
            z_ref=z_ref,
            horizon=sched.n_instants - k,
            Q=Q,
            R=R,
            u_min=u_lo,
            u_max=u_hi,
        )
        qp = condense(problem)
        try:
            seq = solve_box_qp(qp, tol=tol, max_iter=max_iter, scaler=scaler)
        except QpNonConvergence as exc:
            diagnostics.append(
                {"instant": k, "horizon": problem.horizon, "converged": False,
                 "error": str(exc), "pg_norm": exc.residual}
            )
            aborted = True
            break
        u_pu = np.clip(seq.u_pu[0], u_min_pu, u_max_pu)
        diagnostics.append(
            {
                "instant": k,
                "horizon": problem.horizon,
                "converged": True,
                "iterations": seq.info.iterations,
                "pg_norm": seq.info.pg_norm,
                "objective": seq.info.objective,
                "u_pu": u_pu.tolist(),
            }
        )
        applied.append(u_pu)
        control_rows.append(u_pu)
        for _ in range(h):
            state = step(plant, state, u_pu, sched.ts)
            samples.append(np.array(state.v))

    n_intervals = len(control_rows)
    traj = Trajectory(
        times=sched.ts * np.arange(len(samples)),
        voltages=np.vstack(samples),
        controls=np.vstack(control_rows),
        schedule=Schedule(ts=sched.ts, tc=sched.tc, n_instants=n_intervals),
    )
    return ClosedLoopResult(
        trajectory=traj,
        applied_controls=np.vstack(applied) if applied else np.zeros((0, m)),
        diagnostics=diagnostics,
        aborted=aborted,
    )
