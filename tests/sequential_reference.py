"""Paths as they ran before their batched or flat rewrites, kept as the
references those must reproduce bit for bit: the closed loop with MPC
stepping one episode through its own loop, ``compare`` running one case
after another, ADAM updating one tensor after another, the condensation
with a general state weight ``Q``.  The plant's RK4 step is kept as
it ran before its cube became a product (``** 3``, broadcasts, ``np.clip``
and one control matmul per stage); ``step`` must match it within 2 ulp,
not bit for bit, since the arithmetic itself changed."""

import numpy as np

from koopmanmpc import evaluation, mpc, nn
from koopmanmpc.dataset import rollout_seed
from koopmanmpc.plant import (
    IntegrationError,
    PlantState,
    Schedule,
    Trajectory,
    U_MAX,
    faulted_initial_state,
    n_substeps,
    run_episode,
    step,
)


def condense(problem, Q):
    """``mpc.condense`` with the state weight ``Q`` applied one block row
    at a time, as it ran before the weight became the identity."""
    nk, n_lift, m = problem.horizon, problem.A.shape[0], problem.B.shape[1]
    blocks = [problem.B]
    free = [mpc._matvec(problem.A, problem.z0)]
    for _ in range(nk - 1):
        blocks.append(problem.A @ blocks[-1])
        free.append(mpc._matvec(problem.A, free[-1]))
    d_mat = np.stack(free, axis=-2) - problem.z_ref  # (..., nk, N): free-response tracking error
    q_blocks = [Q @ g for g in blocks]  # Q G_k, k = 0..nk-1

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
    linear = mpc._matvec(q_s.T, d_mat.reshape(d_mat.shape[:-2] + (-1,)))
    const = np.sum((d_mat @ Q) * d_mat, axis=(-2, -1))
    return mpc.CondensedQp(
        hessian=hessian,
        linear=linear,
        const=float(const) if const.ndim == 0 else const,
        lower=np.tile(problem.u_min, nk),
        upper=np.tile(problem.u_max, nk),
        horizon=nk,
        n_controls=m,
    )


def receding_horizon(model, plant, sched, v_ref=1.0, fault=None, Q=None, R=None,
                     u_min_pu=0.0, u_max_pu=U_MAX, tol=mpc.DEFAULT_TOL,
                     max_iter=mpc.DEFAULT_MAX_ITER):
    """One episode, one single-problem solve per instant, its own steps."""
    n_lift, m = model.B.shape
    scaler = model.scaler
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

    def advance(state, u):
        for _ in range(h):
            state = step(plant, state, u, sched.ts)
            if not np.all(np.isfinite(state.v)):
                raise IntegrationError("integration produced non-finite voltages")
            samples.append(np.array(state.v))
        return state

    state = advance(state, np.zeros(m))  # uncontrolled while the first window fills

    for k in range(sched.n_instants):
        window = np.vstack(samples[-h:]).T
        problem = mpc.MpcProblem(A=model.A, B=model.B, z0=model.lift(window), z_ref=z_ref,
                                 horizon=sched.n_instants - k, R=R, u_min=u_lo, u_max=u_hi)
        qp = condense(problem, Q)
        try:
            seq = mpc.solve_box_qp(qp, tol=tol, max_iter=max_iter)
        except mpc.QpNonConvergence as exc:
            diagnostics.append({"instant": k, "horizon": problem.horizon, "converged": False,
                                "error": str(exc), "pg_norm": exc.residual})
            aborted = True
            break
        u_pu = np.clip(scaler.denormalize_u(seq.u[0]), u_min_pu, u_max_pu)
        diagnostics.append({"instant": k, "horizon": problem.horizon, "converged": True,
                            "iterations": seq.info.iterations, "pg_norm": seq.info.pg_norm,
                            "objective": seq.info.objective, "u_pu": u_pu.tolist()})
        applied.append(u_pu)
        control_rows.append(u_pu)
        state = advance(state, u_pu)

    traj = Trajectory(
        times=sched.ts * np.arange(len(samples)),
        voltages=np.vstack(samples),
        controls=np.vstack(control_rows),
        schedule=Schedule(ts=sched.ts, tc=sched.tc, n_instants=len(control_rows)),
    )
    return mpc.ClosedLoopResult(
        trajectory=traj,
        applied_controls=np.vstack(applied) if applied else np.zeros((0, m)),
        diagnostics=diagnostics,
        aborted=aborted,
    )


def performance_index(traj, v_ref, monitored):
    """``evaluation.performance_index`` against a reference voltage of
    the caller's."""
    monitored = evaluation.monitored_buses(traj.voltages.shape[1], monitored)
    return float(np.abs(traj.voltages[:, monitored] - v_ref).sum())


def case_load(seed, idx):
    """The load factor ``compare`` draws for case ``idx``."""
    rng = np.random.default_rng(rollout_seed(seed, idx, evaluation._CASE_CHANNEL))
    return float(rng.uniform(0.9, 1.1))


def compare(model, plant_config, n_cases, seed, v_ref=1.0, monitored=None,
            vvc_params=evaluation.VvcParams(), mpc_kwargs=None):
    """One case after another: a batch of two baseline episodes, then the
    reference closed loop."""
    base, sched, fault = plant_config.model, plant_config.schedule, plant_config.fault
    vvc = evaluation.vvc_episode_policy(base.control_buses(), vvc_params)

    def baselines(k, window):
        u = vvc(k, window)
        u[0] = 0.0
        return u

    records, wins = [], 0
    for idx in range(n_cases):
        lam = case_load(seed, idx)
        try:
            both = run_episode(base.with_load([lam, lam]), sched, fault, baselines).check_finite()
            loop = receding_horizon(model, base.with_load(lam), sched, v_ref=v_ref, fault=fault,
                                    **(mpc_kwargs or {}))
            if loop.aborted:
                last = loop.diagnostics[-1]
                raise mpc.QpNonConvergence(
                    f"closed loop aborted at instant {last['instant']}: {last['error']}",
                    residual=last["pg_norm"])
            j_no, j_vvc = (performance_index(both.episode(e), v_ref, monitored) for e in (0, 1))
            j_mpc = performance_index(loop.trajectory, v_ref, monitored)
        except (mpc.QpNonConvergence, IntegrationError) as exc:
            records.append(evaluation.CaseRecord(
                index=idx, load_factor=lam, ok=False, j_no_control=float("nan"),
                j_vvc=float("nan"), j_mpc=float("nan"), error=f"{type(exc).__name__}: {exc}"))
            continue
        wins += int(j_mpc < j_vvc)
        records.append(evaluation.CaseRecord(index=idx, load_factor=lam, ok=True,
                                             j_no_control=j_no, j_vvc=j_vvc, j_mpc=j_mpc))
    n_ok = sum(r.ok for r in records)
    return records, (wins / n_ok if n_ok else 0.0)


class PerTensorAdam:
    """Bias-corrected ADAM over a named parameter dict, one tensor at a
    time (updates in place)."""

    def __init__(self, params: dict, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise nn.TrainingError(f"non-finite gradient in {name!r}")
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            m_hat = self.m[name] / b1c
            v_hat = self.v[name] / b2c
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def plant_vector_field(plant, v, u):
    """The plant's vector field under the control ``u`` itself, with its
    cube as numpy's ``** 3``."""
    e = v - plant.equilibrium()
    recover = plant.a * (-e) + plant.b * (-e) ** 3
    couple = plant.c * (e @ plant.w.T - e)
    inject = (u @ plant.gamma.T) * (plant.v_max - v)
    return recover + couple + inject


def plant_step(plant, state, u, dt, substeps=None):
    """RK4 with Python-float coefficients, the control matmul in every
    stage, a full finiteness test and ``np.clip`` at every substep (the
    argument checks, which ``step`` keeps as they were, are left out)."""
    u = np.array(u, dtype=float)
    v = state.v
    n_sub = n_substeps(dt) if substeps is None else int(substeps)
    h = dt / n_sub
    for _ in range(n_sub):
        k1 = plant_vector_field(plant, v, u)
        k2 = plant_vector_field(plant, v + 0.5 * h * k1, u)
        k3 = plant_vector_field(plant, v + 0.5 * h * k2, u)
        k4 = plant_vector_field(plant, v + h * k3, u)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(v)):
            v = np.where(np.all(np.isfinite(v), axis=-1, keepdims=True), v, np.nan)
        v = np.clip(v, 0.0, plant.v_max)
    return PlantState(v=v, t=state.t + dt)
