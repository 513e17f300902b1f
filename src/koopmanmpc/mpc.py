"""Receding-horizon control in the lifted linear space.

At each control instant the finite-horizon tracking objective

    sum_{i=0}^{Nk-1} |z_{k+i+1} - z_ref|^2 + u_{k+i}^T R u_{k+i}

subject to z_{k+i+1} = A z_{k+i} + B u_{k+i} and box bounds on u is
condensed into a quadratic in the stacked control sequence by eliminating
the predicted states (prediction blocks A^i B by recursion, never a power
of A: O(H N^2 m) per instant; no N x N weight is formed), solved with
fixed-step projected gradient descent, Jacobi-scaled and sized by the
exact extreme eigenvalues of the scaled Hessian, and the first move is
applied to the plant.
All solver arithmetic runs in normalized units; ``MpcPolicy``
denormalizes the first move to p.u. before it touches the plant.

Batches: a problem may carry C initial lifted states ``z0`` of shape
``(C, N)`` that share everything else.  The Hessian and the step are
then built once for all C; the free responses, the linear
terms and the gradient steps are one stacked matrix-vector product per
row, which gives every row the bits of its own single-problem solve
whatever else shares the batch.  ``MpcPolicy`` runs the controller as a
feedback policy over a batch of episodes, so a whole comparison is one
plant rollout.

The controller is one fixed design: unit state weight, ``R = r_weight · I``,
controls bounded to ``[0, U_MAX]`` p.u. and the constant ``V_REF``
history as the lifted reference.  ``MpcPolicy`` and ``receding_horizon``
take the plant as a ``PlantConfig`` and the weight and stopping rule as
an ``MpcConfig``, whose constructor is their one range check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from koopmanmpc.plant import (PlantConfig, Schedule, Trajectory, U_MAX, V_REF, _is_finite,
                              _is_number, clip, run_episode)
from koopmanmpc.plant import step  # noqa: F401  (the benchmark's tracer finds plant.step here)

#: Defaults for the projected-gradient solver.
DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 50_000


@dataclass(frozen=True)
class MpcConfig:
    """The control weight and the solver's stopping rule: R =
    ``r_weight`` · I, and projected gradient stops once its residual is
    below ``tol`` or after ``max_iter`` iterations.  ``ValueError`` names
    every field out of range."""

    r_weight: float = 0.0
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        bad = [f"{name} must be {rule} (got {getattr(self, name)!r})" for name, ok, rule in (
            ("r_weight", _is_finite(self.r_weight) and self.r_weight >= 0, "a finite number >= 0"),
            ("tol", _is_finite(self.tol) and self.tol > 0, "a finite number > 0"),
            ("max_iter", _is_number(self.max_iter, integer=True) and self.max_iter >= 1,
             "an integer >= 1"),
        ) if not ok]
        if bad:
            raise ValueError("; ".join(bad))


# Safety factor on the step's curvature lambda_max + lambda_min of the
# scaled Hessian: keeps the step strictly below 2/(L + mu), and so below
# 2/L, so rounding in the eigenvalues cannot cost monotone descent.
_STEP_SAFETY = 1.05


class QpNonConvergence(RuntimeError):
    """Projected gradient did not reach tolerance; carries the residual
    and, from ``solve_box_qp``, the solve's ``result``, whose converged
    rows are valid solutions."""

    def __init__(self, message: str, residual: float, result=None):
        super().__init__(message)
        self.residual = residual
        self.result = result


def _residual_message(pg_norm: float, tol: float, iterations: int) -> str:
    return (f"projected gradient residual {pg_norm:.3e} above tol {tol:.1e} "
            f"after {iterations} iterations")


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
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} must be finite")
    if np.max(np.abs(mat - mat.T)) > 1e-10:
        raise ValueError(f"{name} must be symmetric")
    min_eig = float(np.min(np.linalg.eigvalsh(mat)))
    if min_eig < -1e-10:
        raise ValueError(f"{name} must be positive semidefinite (min eig {min_eig:.2e})")


@dataclass(frozen=True)
class MpcProblem:
    """One instant's lifted tracking problem (unit state weight) over the
    remaining horizon; ``z0`` is ``(N,)``, or ``(C, N)`` for C sharing the rest."""

    A: np.ndarray
    B: np.ndarray
    z0: np.ndarray
    z_ref: np.ndarray
    horizon: int
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
    and matvec), so no power of A is ever formed; the unit state weight
    needs no product, so with S the stacked blocks the Hessian is S^T S +
    blkdiag(R).  The cost is O(H N^2 m) for the recursion plus O(H^3 N m^2)
    for the Hessian GEMM, and the quadratic's value equals the original
    objective for every feasible control sequence.
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

    # block row i of the prediction matrix is [G_i ... G_0 0 ... 0]
    s_big = np.zeros((nk, n_lift, nk, m))
    for i in range(nk):
        for j in range(i + 1):
            s_big[i, :, j] = blocks[i - j]
    s_big = s_big.reshape(nk * n_lift, nk * m)

    # distinct operands keep this a GEMM; X.T @ X would go to SYRK, whose last bits differ
    hessian = s_big.T @ s_big.copy()
    for j in range(nk):
        hessian[j * m : (j + 1) * m, j * m : (j + 1) * m] += problem.R
    hessian = 0.5 * (hessian + hessian.T)
    linear = _matvec(s_big.T, d_mat.reshape(d_mat.shape[:-2] + (-1,)))
    const = np.sum(d_mat * d_mat, axis=(-2, -1))
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
    row_iterations: np.ndarray
    row_converged: np.ndarray
    row_pg_norm: np.ndarray
    row_objective: np.ndarray


@dataclass(frozen=True)
class ControlSequence:
    """Stacked solution in normalized units and its diagnostics."""

    u: np.ndarray  # (horizon, m), or (C, horizon, m) for a batch
    info: SolveInfo


def _estimate_curvature(hessian: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the symmetric PSD hessian, exactly,
    from one eigvalsh; (0.0, 0.0) for an empty one.  The hessian is only
    horizon * m wide."""
    if not hessian.size:
        return 0.0, 0.0
    spectrum = np.linalg.eigvalsh(hessian)
    return float(spectrum[0]), float(spectrum[-1])


def solve_box_qp(
    qp: CondensedQp,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> ControlSequence:
    """Fixed-step projected gradient descent from the (projected) origin.

    The step is Jacobi-scaled: with D = 1 / diag(H) (1 where a diagonal
    entry is not positive) and the exact extreme eigenvalues lambda_min,
    lambda_max of D^1/2 H D^1/2, coordinate i moves by D_i / (safety *
    (lambda_max + max(lambda_min, 0))) times its gradient, then is clipped
    to the box.  In the coordinates D^-1/2 U that is plain projected
    gradient over a box on the scaled Hessian, with the step 2/(L + mu)
    that is optimal for a fixed step (Nesterov 2004, 2.1.5) shortened by
    the safety factor.  It stays below 2/L, which guarantees monotone
    descent, and the error shrinks by about (kappa - 1)/(kappa + 1) per
    iteration, kappa the scaled Hessian's condition number.
    Convergence is declared when the step-one projected gradient has
    max-norm below ``tol`` (interior coordinates then satisfy
    |grad| < tol, bound coordinates have outward-pushing gradients).
    The rows of a batch share the step and iterate together, and each
    row freezes at its own convergence, so its iterate and iteration
    count are those of its own solve; a row whose residual is not finite
    stops there, unconverged.  Raises ``QpNonConvergence`` if any row is
    not below ``tol`` when it stops; the exception's ``result`` still holds
    every row.
    """
    diag = np.diagonal(qp.hessian)
    scale = 1.0 / np.where(diag > 0.0, diag, 1.0)  # Jacobi: D = 1 / diag(H)
    root = np.sqrt(scale)
    lam_min, lam_max = _estimate_curvature(root[:, None] * qp.hessian * root)
    step = scale / max(_STEP_SAFETY * (lam_max + max(lam_min, 0.0)), 1e-300)

    linear = qp.linear.reshape(-1, qp.linear.shape[-1])
    u = clip(np.zeros_like(linear), qp.lower, qp.upper)  # every row's final iterate
    iterations = np.full(len(u), max_iter)
    pg_norm = np.zeros(len(u))
    # the rows still iterating, compacted: their indices, iterates, linear terms
    active, u_act, lin_act = np.arange(len(u)), u.copy(), linear
    for it in range(max_iter + 1):
        grad = 2.0 * (_matvec(qp.hessian, u_act) + lin_act)
        pg = u_act - clip(u_act - grad, qp.lower, qp.upper)
        norm = np.maximum.reduce(np.abs(pg), axis=-1, initial=0.0)
        done = norm < tol
        stop = done | ~np.isfinite(norm)
        if it == max_iter or stop.any():
            out = np.ones_like(done) if it == max_iter else stop
            u[active[out]], pg_norm[active[out]] = u_act[out], norm[out]
            iterations[active[stop]] = it
            if out.all():
                break
            active, u_act, lin_act, grad = active[~out], u_act[~out], lin_act[~out], grad[~out]
        u_act = clip(u_act - step * grad, qp.lower, qp.upper)
    converged = pg_norm < tol
    u_flat = u.reshape(qp.linear.shape)
    row_objective = np.atleast_1d(qp.objective(u_flat))
    info = SolveInfo(
        iterations=int(iterations.sum()),
        converged=bool(np.all(converged)),
        pg_norm=float(pg_norm.max()),
        objective=float(row_objective.sum()),
        row_iterations=iterations,
        row_converged=converged,
        row_pg_norm=pg_norm,
        row_objective=row_objective,
    )
    u_mat = u_flat.reshape(qp.linear.shape[:-1] + (qp.horizon, qp.n_controls))
    result = ControlSequence(u=u_mat, info=info)
    if not info.converged:
        stopped = int(iterations[~converged].max())
        raise QpNonConvergence(_residual_message(info.pg_norm, tol, stopped),
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
    move of each solution, in p.u. clipped to ``[0, U_MAX]``, is returned.

    The problem is the controller's one design: unit state weight, the
    control weight ``R = config.r_weight * I``, the bounds
    are ``[0, U_MAX]`` p.u. (``U_MAX`` as it reads when the policy is
    built), and the lifted reference is the constant ``V_REF`` history,
    lifted once.  The solver stops at ``config.tol`` or after
    ``config.max_iter`` iterations.  A model whose ``(n, h, m)`` differs
    from the plant config's is rejected with ``ValueError``.

    Per episode the policy keeps ``diagnostics[e]``, one record per
    instant.  An episode whose solve does not converge is aborted: its
    last record carries the error and it gets zero control from then on.
    An episode whose window is not finite (its integration failed) is
    skipped and gets zero control.  A policy object serves one rollout:
    instant 0 resets it.
    """

    def __init__(self, model, plant_config: PlantConfig, config: MpcConfig = MpcConfig()):
        plant, sched = plant_config.model, plant_config.schedule
        m = model.m
        model_shape, plant_shape = (model.n, model.h, m), (plant.n, sched.h, plant.m)
        if model_shape != plant_shape:
            raise ValueError(
                f"model (n, h, m) = {model_shape} does not match plant (n, h, m) = {plant_shape}"
            )
        self.model = model
        self.config = config
        self.n_instants = sched.n_instants
        self.R = config.r_weight * np.eye(m)
        self.u_max = U_MAX
        self.u_lo = np.full(m, float(model.scaler.normalize_u(0.0)))
        self.u_hi = np.full(m, float(model.scaler.normalize_u(self.u_max)))
        self.z_ref = model.lift_reference(V_REF)
        self.diagnostics: list[list[dict]] = []
        self.aborted = np.zeros(0, dtype=bool)

    def __call__(self, k: int, window: np.ndarray) -> np.ndarray:
        windows = window.reshape((-1,) + window.shape[-2:])
        if k == 0:
            self.diagnostics = [[] for _ in windows]
            self.aborted = np.zeros(len(windows), dtype=bool)
        u = np.zeros((len(windows), self.model.m))
        live = np.flatnonzero(~self.aborted & np.all(np.isfinite(windows), axis=(-2, -1)))
        if live.size:
            horizon = self.n_instants - k
            problem = MpcProblem(
                A=self.model.A,
                B=self.model.B,
                z0=self.model.lift(windows[live]),
                z_ref=self.z_ref,
                horizon=horizon,
                R=self.R,
                u_min=self.u_lo,
                u_max=self.u_hi,
            )
            try:
                seq = solve_box_qp(condense(problem), tol=self.config.tol,
                                   max_iter=self.config.max_iter)
            except QpNonConvergence as exc:
                seq = exc.result
            info = seq.info
            for j, e in enumerate(live):
                if not info.row_converged[j]:
                    pg_norm = float(info.row_pg_norm[j])
                    self.diagnostics[e].append(
                        {"instant": k, "horizon": horizon, "converged": False,
                         "error": _residual_message(pg_norm, self.config.tol,
                                                    int(info.row_iterations[j])),
                         "pg_norm": pg_norm}
                    )
                    self.aborted[e] = True
                    continue
                u[e] = clip(self.model.scaler.denormalize_u(seq.u[j, 0]), 0.0, self.u_max)
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


def receding_horizon(model, plant_config: PlantConfig,
                     config: MpcConfig = MpcConfig()) -> ClosedLoopResult:
    """Shrinking-horizon MPC against one episode of the plant config.

    Its fault hits at t = 0 and the first interval is uncontrolled while
    the first measurement window fills; then ``MpcPolicy(model,
    plant_config, config)`` chooses each interval's control.  When a
    solve fails the loop stops there: the record ends at that instant and
    ``aborted`` is set.  Raises ``IntegrationError`` if the plant's
    voltages turn non-finite before.
    """
    sched = plant_config.schedule
    policy = MpcPolicy(model, plant_config, config)
    traj = run_episode(plant_config.model, sched, plant_config.fault, policy)
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
