"""The closed loop as it ran before it became a batched feedback policy:
MPC stepping one episode through its own loop, and ``compare`` running
one case after another.  Kept as the reference the batched path must
reproduce bit for bit."""

import numpy as np

from koopmanmpc import evaluation, mpc
from koopmanmpc.dataset import rollout_seed
from koopmanmpc.plant import (
    IntegrationError,
    Schedule,
    Trajectory,
    U_MAX,
    faulted_initial_state,
    run_episode,
    step,
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
                                 horizon=sched.n_instants - k, Q=Q, R=R, u_min=u_lo, u_max=u_hi)
        qp = mpc.condense(problem)
        try:
            seq = mpc.solve_box_qp(qp, tol=tol, max_iter=max_iter, scaler=scaler)
        except mpc.QpNonConvergence as exc:
            diagnostics.append({"instant": k, "horizon": problem.horizon, "converged": False,
                                "error": str(exc), "pg_norm": exc.residual})
            aborted = True
            break
        u_pu = np.clip(seq.u_pu[0], u_min_pu, u_max_pu)
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
            j_no, j_vvc = (evaluation.performance_index(both.episode(e), v_ref, monitored)
                           for e in (0, 1))
            j_mpc = evaluation.performance_index(loop.trajectory, v_ref, monitored)
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
