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

Batches: a problem may carry C initial lifted states ``z0`` of shape
``(C, N)`` that share everything else.  The Hessian and its largest
eigenvalue are then built once for all C; the free responses, the linear
terms and the gradient steps are one stacked matrix-vector product per
row, which gives every row the bits of its own single-problem solve
whatever else shares the batch.  ``MpcPolicy`` runs the controller as a
feedback policy over a batch of episodes, so a whole comparison is one
plant rollout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from koopmanmpc.dataset import Scaler
from koopmanmpc.plant import FaultSpec, PlantModel, Schedule, Trajectory, U_MAX, run_episode
from koopmanmpc.plant import step  # noqa: F401  (the benchmark's tracer finds plant.step here)

#: Defaults for the projected-gradient solver.
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50_000

# Safety factor on the exact largest eigenvalue: keeps the fixed step
# strictly below 1/L, so rounding in lambda_max cannot push it past 1/L.
_STEP_SAFETY = 1.05


class QpNonConvergence(RuntimeError):
    """Projected gradient did not reach tolerance; carries the residual
    and, from ``solve_box_qp``, the solve's ``result``, whose converged
    rows are valid solutions."""

    def __init__(self, message: str, residual: float, result=None):
        super().__init__(message)
        self.residual = residual
        self.result = result


def _residual_message(pg_norm: float, tol: float, max_iter: int) -> str:
    return (f"projected gradient residual {pg_norm:.3e} above tol {tol:.1e} "
            f"after {max_iter} iterations")


def _matvec(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``mat @ x`` for a vector ``x`` or for each row of a batch ``x``.

    A stacked product runs one matrix-vector product per row, so each
    row's bits equal those of ``mat @ row``; a single matrix-matrix
    product would sum in an order that depends on the batch size.
    """
    return (mat @ x[..., None])[..., 0]


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
    """One instant's lifted tracking problem over the remaining horizon;
    ``z0`` is ``(N,)``, or ``(C, N)`` for C problems sharing the rest."""

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
        if self.z0.ndim not in (1, 2) or self.z0.shape[-1] != n_lift:
            raise ValueError("z0 must be a lifted-dimension vector or a batch of them")
        if self.z_ref.shape != (n_lift,):
            raise ValueError("z_ref must be a lifted-dimension vector")
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
    row-major stacking of the horizon's control vectors.  A batch of C
    problems has ``linear`` ``(C, horizon * m)`` and ``const`` ``(C,)``
    and shares the hessian and the box."""

    hessian: np.ndarray
    linear: np.ndarray
    const: float | np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    horizon: int
    n_controls: int

    def objective(self, u_flat: np.ndarray) -> float | np.ndarray:
        """f at ``u_flat``: a float for one problem, ``(C,)`` for a batch."""
        u = np.asarray(u_flat, dtype=float)
        row, col = u[..., None, :], u[..., None]
        # stacked vector products, so each row keeps the bits of its own
        quad = (row @ self.hessian @ col + 2.0 * (self.linear[..., None, :] @ col))[..., 0, 0]
        value = quad + self.const
        return float(value) if value.ndim == 0 else value


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
    A batch of z0 shares the blocks and the Hessian; only the free
    responses, ``linear`` and ``const`` are per row.
    """
    nk, n_lift, m = problem.horizon, problem.A.shape[0], problem.B.shape[1]
    blocks = [problem.B]
    free = [_matvec(problem.A, problem.z0)]
    for _ in range(nk - 1):
        blocks.append(problem.A @ blocks[-1])
        free.append(_matvec(problem.A, free[-1]))
    d_mat = np.stack(free, axis=-2) - problem.z_ref  # (..., nk, N): free-response tracking error
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
    linear = _matvec(q_s.T, d_mat.reshape(d_mat.shape[:-2] + (-1,)))
    const = np.sum((d_mat @ problem.Q) * d_mat, axis=(-2, -1))
    return CondensedQp(
        hessian=hessian,
        linear=linear,
        const=float(const) if const.ndim == 0 else const,
        lower=np.tile(problem.u_min, nk),
        upper=np.tile(problem.u_max, nk),
        horizon=nk,
        n_controls=m,
    )


@dataclass(frozen=True)
class SolveInfo:
    """Solver diagnostics.  The ``row_*`` arrays hold one entry per
    problem, in batch order (one entry for a single problem); the scalar
    fields sum them up: ``iterations`` is the total of the rows' own
    iteration counts, ``converged`` whether every row converged,
    ``pg_norm`` the largest final residual and ``objective`` the summed
    objective."""

    iterations: int
    converged: bool
    pg_norm: float
    objective: float
    step_bound: float
    row_iterations: np.ndarray
    row_converged: np.ndarray
    row_pg_norm: np.ndarray
    row_objective: np.ndarray
    objective_trace: tuple = ()


@dataclass(frozen=True)
class ControlSequence:
    """Stacked solution in normalized units plus its p.u. image."""

    u: np.ndarray  # (horizon, m), or (C, horizon, m) for a batch; normalized
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
    The rows of a batch share the step and iterate together, and each
    row freezes at its own convergence, so its iterate and iteration
    count are those of its own solve.  ``trace=True`` records the
    objective at every iterate.  Raises ``QpNonConvergence`` if any row
    is above ``tol`` after ``max_iter`` iterations; the exception's
    ``result`` still holds every row.
    """
    lam = _estimate_curvature(qp.hessian)
    step_bound = _STEP_SAFETY * 2.0 * lam
    alpha = 1.0 / max(step_bound, 1e-300)

    linear = qp.linear.reshape(-1, qp.linear.shape[-1])
    u = np.clip(np.zeros_like(linear), qp.lower, qp.upper)  # every row's final iterate
    iterations = np.full(len(u), max_iter)
    pg_norm = np.zeros(len(u))
    # the rows still iterating, compacted: their indices, iterates, linear terms
    active, u_act, lin_act = np.arange(len(u)), u.copy(), linear

    def current():
        full = u.copy()
        full[active] = u_act
        return qp.objective(full.reshape(qp.linear.shape))

    objectives = [current()] if trace else []
    for it in range(max_iter + 1):
        grad = 2.0 * (_matvec(qp.hessian, u_act) + lin_act)
        pg = u_act - np.clip(u_act - grad, qp.lower, qp.upper)
        norm = np.maximum.reduce(np.abs(pg), axis=-1, initial=0.0)
        done = norm < tol
        if it == max_iter or done.any():
            out = np.ones_like(done) if it == max_iter else done
            u[active[out]], pg_norm[active[out]] = u_act[out], norm[out]
            iterations[active[done]] = it
            if out.all():
                break
            active, u_act, lin_act, grad = active[~out], u_act[~out], lin_act[~out], grad[~out]
        u_act = np.clip(u_act - alpha * grad, qp.lower, qp.upper)
        if trace:
            objectives.append(current())
    converged = pg_norm < tol
    u_flat = u.reshape(qp.linear.shape)
    row_objective = np.atleast_1d(qp.objective(u_flat))
    info = SolveInfo(
        iterations=int(iterations.sum()),
        converged=bool(np.all(converged)),
        pg_norm=float(pg_norm.max()),
        objective=float(row_objective.sum()),
        step_bound=step_bound,
        row_iterations=iterations,
        row_converged=converged,
        row_pg_norm=pg_norm,
        row_objective=row_objective,
        objective_trace=tuple(objectives),
    )
    u_mat = u_flat.reshape(qp.linear.shape[:-1] + (qp.horizon, qp.n_controls))
    u_pu = scaler.denormalize_u(u_mat) if scaler is not None else None
    result = ControlSequence(u=u_mat, u_pu=u_pu, info=info)
    if not info.converged:
        raise QpNonConvergence(_residual_message(info.pg_norm, tol, max_iter),
                               residual=info.pg_norm, result=result)
    return result


# ---------------------------------------------------------------------------
# Closed loop


class MpcPolicy:
    """Shrinking-horizon MPC as a feedback policy on measurement windows.

    Called as ``policy(k, W)`` at the k-th control instant (0-based) with
    ``W`` the window of the previous interval, ``(C, n, h)`` for C
    episodes or ``(n, h)`` for one.  Every episode's window is lifted, the
    remaining budget ``n_instants - k`` is the horizon, one condensation
    and one projected-gradient solve serve all C episodes, and the first
    move of each solution, clipped to the p.u. bounds, is returned.  The
    lifted reference is fixed: the constant ``v_ref`` history, lifted
    once.  A model whose ``(n, h, m)`` differs from the plant's
    ``(n, sched.h, m)`` is rejected with ``ValueError``.

    Per episode the policy keeps ``diagnostics[e]``, one record per
    instant.  An episode whose solve does not converge is aborted: its
    last record carries the error and it gets zero control from then on.
    An episode whose window is not finite (its integration failed) is
    skipped and gets zero control.  A policy object serves one rollout:
    instant 0 resets it.
    """

    def __init__(
        self,
        model,
        plant: PlantModel,
        sched: Schedule,
        v_ref: float = 1.0,
        Q: np.ndarray | None = None,
        R: np.ndarray | None = None,
        u_min_pu: float = 0.0,
        u_max_pu: float = U_MAX,
        tol: float = DEFAULT_TOL,
        max_iter: int = DEFAULT_MAX_ITER,
    ):
        n_lift, m = model.B.shape
        model_shape, plant_shape = (model.n, model.h, m), (plant.n, sched.h, plant.m)
        if model_shape != plant_shape:
            raise ValueError(
                f"model (n, h, m) = {model_shape} does not match plant (n, h, m) = {plant_shape}"
            )
        self.model = model
        self.n_instants = sched.n_instants
        self.Q = np.eye(n_lift) if Q is None else np.asarray(Q, dtype=float)
        self.R = np.zeros((m, m)) if R is None else np.asarray(R, dtype=float)
        self.u_lo = np.full(m, float(model.scaler.normalize_u(u_min_pu)))
        self.u_hi = np.full(m, float(model.scaler.normalize_u(u_max_pu)))
        self.u_min_pu, self.u_max_pu = u_min_pu, u_max_pu
        self.tol, self.max_iter = tol, max_iter
        self.z_ref = model.lift_reference(v_ref)
        self.diagnostics: list[list[dict]] = []
        self.aborted = np.zeros(0, dtype=bool)

    def __call__(self, k: int, window: np.ndarray) -> np.ndarray:
        windows = window.reshape((-1,) + window.shape[-2:])
        if k == 0:
            self.diagnostics = [[] for _ in windows]
            self.aborted = np.zeros(len(windows), dtype=bool)
        u = np.zeros((len(windows), self.model.B.shape[1]))
        live = np.flatnonzero(~self.aborted & np.all(np.isfinite(windows), axis=(-2, -1)))
        if live.size:
            horizon = self.n_instants - k
            problem = MpcProblem(
                A=self.model.A,
                B=self.model.B,
                z0=self.model.lift(windows[live]),
                z_ref=self.z_ref,
                horizon=horizon,
                Q=self.Q,
                R=self.R,
                u_min=self.u_lo,
                u_max=self.u_hi,
            )
            try:
                seq = solve_box_qp(condense(problem), tol=self.tol, max_iter=self.max_iter,
                                   scaler=self.model.scaler)
            except QpNonConvergence as exc:
                seq = exc.result
            info = seq.info
            for j, e in enumerate(live):
                if not info.row_converged[j]:
                    pg_norm = float(info.row_pg_norm[j])
                    self.diagnostics[e].append(
                        {"instant": k, "horizon": horizon, "converged": False,
                         "error": _residual_message(pg_norm, self.tol, self.max_iter),
                         "pg_norm": pg_norm}
                    )
                    self.aborted[e] = True
                    continue
                u[e] = np.clip(seq.u_pu[j, 0], self.u_min_pu, self.u_max_pu)
                self.diagnostics[e].append(
                    {
                        "instant": k,
                        "horizon": horizon,
                        "converged": True,
                        "iterations": int(info.row_iterations[j]),
                        "pg_norm": float(info.row_pg_norm[j]),
                        "objective": float(info.row_objective[j]),
                        "u_pu": u[e].tolist(),
                    }
                )
        return u.reshape(window.shape[:-2] + u.shape[-1:])

    def failure(self, e: int = 0) -> QpNonConvergence | None:
        """The solver failure that aborted episode ``e``, or None."""
        if not self.aborted[e]:
            return None
        last = self.diagnostics[e][-1]
        return QpNonConvergence(
            f"closed loop aborted at instant {last['instant']}: {last['error']}",
            residual=last["pg_norm"],
        )


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
    **policy_kwargs,
) -> ClosedLoopResult:
    """Shrinking-horizon MPC against one plant episode.

    The fault hits at t = 0 and the first interval is uncontrolled while
    the first measurement window fills; then ``MpcPolicy`` (which takes
    ``policy_kwargs``: Q, R, the p.u. bounds, tol and max_iter) chooses
    each interval's control.  When a solve fails the loop stops there:
    the record ends at that instant and ``aborted`` is set.  Raises
    ``IntegrationError`` if the plant's voltages turn non-finite before.
    """
    if fault is None:
        raise ValueError("receding_horizon requires the experiment fault")
    policy = MpcPolicy(model, plant, sched, v_ref=v_ref, **policy_kwargs)
    traj = run_episode(plant, sched, fault, policy)
    diagnostics = policy.diagnostics[0]
    aborted = bool(policy.aborted[0])
    if aborted:  # keep the intervals before the failed solve
        n_intervals = len(diagnostics)
        traj = Trajectory(
            times=traj.times[: n_intervals * sched.h + 1],
            voltages=traj.voltages[: n_intervals * sched.h + 1],
            controls=traj.controls[:n_intervals],
            schedule=Schedule(ts=sched.ts, tc=sched.tc, n_instants=n_intervals),
        )
    traj.check_finite()
    return ClosedLoopResult(
        trajectory=traj,
        applied_controls=np.array(traj.controls[1:]),
        diagnostics=diagnostics,
        aborted=aborted,
    )
