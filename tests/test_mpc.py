import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmanmpc import mpc
from koopmanmpc.dataset import Scaler
from koopmanmpc.deep_koopman import KoopmanNet, KoopmanNetConfig, extract
from koopmanmpc.mpc import (
    CondensedQp,
    MpcProblem,
    QpNonConvergence,
    _estimate_curvature,
    condense,
    receding_horizon,
    solve_box_qp,
)
from koopmanmpc.plant import U_MAX, default_config, load_config, run_episode, zero_policy


def direct_objective(problem: MpcProblem, u_seq: np.ndarray) -> float:
    """Literal evaluation of the tracking objective along the predicted
    lifted trajectory (the oracle for condensation)."""
    z = problem.z0
    total = 0.0
    for i in range(problem.horizon):
        z = problem.A @ z + problem.B @ u_seq[i]
        dz = z - problem.z_ref
        total += float(dz @ problem.Q @ dz + u_seq[i] @ problem.R @ u_seq[i])
    return total


def reference_condense(problem: MpcProblem) -> CondensedQp:
    """The A-power / Kronecker-product condensation that ``condense``
    replaced: forms A^1..A^H and multiplies by kron(I, Q)."""
    nk, n_lift, m = problem.horizon, problem.A.shape[0], problem.B.shape[1]
    powers = [np.eye(n_lift)]
    for _ in range(nk):
        powers.append(problem.A @ powers[-1])

    s_big = np.zeros((nk * n_lift, nk * m))
    d_vec = np.zeros(nk * n_lift)
    for i in range(nk):
        d_vec[i * n_lift : (i + 1) * n_lift] = powers[i + 1] @ problem.z0 - problem.z_ref
        for j in range(i + 1):
            s_big[i * n_lift : (i + 1) * n_lift, j * m : (j + 1) * m] = powers[i - j] @ problem.B

    q_s = np.kron(np.eye(nk), problem.Q) @ s_big
    hessian = s_big.T @ q_s + np.kron(np.eye(nk), problem.R)
    hessian = 0.5 * (hessian + hessian.T)
    linear = q_s.T @ d_vec
    const = float(d_vec @ np.kron(np.eye(nk), problem.Q) @ d_vec)
    return CondensedQp(
        hessian=hessian, linear=linear, const=const,
        lower=np.tile(problem.u_min, nk), upper=np.tile(problem.u_max, nk),
        horizon=nk, n_controls=m,
    )


def reference_power_curvature(hessian: np.ndarray, steps: int = 100) -> float:
    """The 100-step power iteration that ``_estimate_curvature`` replaced."""
    dim = hessian.shape[0]
    v = np.ones(dim) / np.sqrt(dim)
    lam = 0.0
    for _ in range(steps):
        w = hessian @ v
        norm = float(np.linalg.norm(w))
        if norm < 1e-300:
            return 0.0
        v = w / norm
        lam = float(v @ hessian @ v)
    return lam


def max_rel_err(got, ref) -> float:
    """Max-norm error relative to the reference's max norm (0 when both are 0)."""
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0
    err = float(np.max(np.abs(got - ref))) if ref.size else 0.0
    return err / scale if scale > 0 else err


def random_psd(rng, dim):
    """Symmetric PSD of random rank 0..dim (rank-deficient ones included)."""
    root = rng.normal(size=(dim, int(rng.integers(0, dim + 1))))
    return root @ root.T


def random_problem(rng, n_lift=None, m=None, horizon=None, stable=True):
    n_lift = n_lift or int(rng.integers(2, 9))
    m = m or int(rng.integers(1, 4))
    horizon = horizon or int(rng.integers(1, 5))
    a = rng.normal(size=(n_lift, n_lift))
    if stable:
        a = 0.9 * a / max(np.abs(np.linalg.eigvals(a)).max(), 1e-9)
    q_root = rng.normal(size=(n_lift, n_lift))
    r_root = rng.normal(size=(m, m))
    return MpcProblem(
        A=a,
        B=rng.normal(size=(n_lift, m)),
        z0=rng.normal(size=n_lift),
        z_ref=rng.normal(size=n_lift),
        horizon=horizon,
        Q=q_root @ q_root.T + 0.1 * np.eye(n_lift),
        R=r_root @ r_root.T + 0.01 * np.eye(m),
        u_min=np.full(m, -1.0),
        u_max=np.full(m, 1.0),
    )


def spd_qp(rng, dim, eig_lo=0.5, eig_hi=2.0, lower=-1.0, upper=1.0):
    """Well-conditioned dense PSD quadratic over a box."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    hess = q @ np.diag(rng.uniform(eig_lo, eig_hi, size=dim)) @ q.T
    hess = 0.5 * (hess + hess.T)
    return CondensedQp(
        hessian=hess,
        linear=rng.normal(size=dim),
        const=0.0,
        lower=np.full(dim, lower),
        upper=np.full(dim, upper),
        horizon=dim,
        n_controls=1,
    )


class TestProblemValidation:
    def test_asymmetric_weight_rejected(self):
        rng = np.random.default_rng(0)
        p = random_problem(rng)
        bad_q = p.Q.copy()
        bad_q[0, 1] += 1e-6
        with pytest.raises(ValueError):
            MpcProblem(A=p.A, B=p.B, z0=p.z0, z_ref=p.z_ref, horizon=p.horizon,
                       Q=bad_q, R=p.R, u_min=p.u_min, u_max=p.u_max)

    def test_indefinite_weight_rejected(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, n_lift=3, m=1)
        with pytest.raises(ValueError):
            MpcProblem(A=p.A, B=p.B, z0=p.z0, z_ref=p.z_ref, horizon=p.horizon,
                       Q=np.diag([1.0, -0.5, 1.0]), R=p.R, u_min=p.u_min, u_max=p.u_max)

    def test_crossed_bounds_rejected(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, m=2)
        with pytest.raises(ValueError):
            MpcProblem(A=p.A, B=p.B, z0=p.z0, z_ref=p.z_ref, horizon=p.horizon,
                       Q=p.Q, R=p.R, u_min=np.array([0.5, 0.0]), u_max=np.array([0.0, 1.0]))


class TestCondense:
    def test_single_step_formulas(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, horizon=1)
        qp = condense(p)
        expect_h = p.B.T @ p.Q @ p.B + p.R
        expect_g = p.B.T @ p.Q @ (p.A @ p.z0 - p.z_ref)
        assert np.allclose(qp.hessian, expect_h, atol=1e-12)
        assert np.allclose(qp.linear, expect_g, atol=1e-12)

    def test_zero_a_gives_block_diagonal(self):
        rng = np.random.default_rng(4)
        n_lift, m, nk = 4, 2, 3
        p = MpcProblem(
            A=np.zeros((n_lift, n_lift)),
            B=rng.normal(size=(n_lift, m)),
            z0=rng.normal(size=n_lift),
            z_ref=rng.normal(size=n_lift),
            horizon=nk,
            Q=np.eye(n_lift),
            R=np.zeros((m, m)),
            u_min=np.full(m, -1.0),
            u_max=np.full(m, 1.0),
        )
        qp = condense(p)
        block = p.B.T @ p.B
        for i in range(nk):
            for j in range(nk):
                sub = qp.hessian[i * m : (i + 1) * m, j * m : (j + 1) * m]
                if i == j:
                    assert np.allclose(sub, block, atol=1e-12)
                else:
                    assert np.allclose(sub, 0.0, atol=1e-12)

    def test_condensed_equals_direct_on_random_draws(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = random_problem(rng)
            qp = condense(p)
            for _ in range(5):
                u = rng.uniform(-1, 1, size=(p.horizon, p.B.shape[1]))
                assert abs(qp.objective(u.ravel()) - direct_objective(p, u)) < 1e-10


class TestSolveBoxQp:
    def test_one_dimensional_analytic(self):
        # minimize (u - 2)^2 over [0, 1] -> u = 1
        qp = CondensedQp(hessian=np.array([[1.0]]), linear=np.array([-2.0]), const=4.0,
                         lower=np.array([0.0]), upper=np.array([1.0]),
                         horizon=1, n_controls=1)
        seq = solve_box_qp(qp)
        assert seq.u[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_interior_optimum_matches_linear_solve(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            dim = int(rng.integers(1, 8))
            qp = spd_qp(rng, dim)
            u_star = np.linalg.solve(qp.hessian, -qp.linear)
            if np.any(np.abs(u_star) > 0.95):
                continue
            seq = solve_box_qp(qp, tol=1e-10)
            assert np.max(np.abs(seq.u.ravel() - u_star)) < 1e-6

    def test_beats_brute_force_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            dim = int(rng.integers(1, 4))  # m * horizon <= 3
            qp = spd_qp(rng, dim)
            seq = solve_box_qp(qp, tol=1e-10)
            axes = [np.linspace(-1.0, 1.0, 51)] * dim
            best = min(qp.objective(np.array(pt)) for pt in itertools.product(*axes))
            assert qp.objective(seq.u.ravel()) <= best + 1e-6

    def test_monotone_descent(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            qp = spd_qp(rng, 6, eig_lo=0.05, eig_hi=5.0)
            seq = solve_box_qp(qp, trace=True)
            trace = np.array(seq.info.objective_trace)
            assert np.all(np.diff(trace) <= 1e-12)

    def test_feasibility_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            qp = spd_qp(rng, int(rng.integers(1, 10)))
            seq = solve_box_qp(qp)
            u = seq.u.ravel()
            assert np.all(u >= qp.lower - 1e-12) and np.all(u <= qp.upper + 1e-12)

    def test_constant_objective_returns_projected_origin(self):
        qp = CondensedQp(hessian=np.zeros((2, 2)), linear=np.zeros(2), const=1.0,
                         lower=np.array([0.2, -1.0]), upper=np.array([1.0, -0.3]),
                         horizon=1, n_controls=2)
        seq = solve_box_qp(qp)
        assert np.array_equal(seq.u.ravel(), np.array([0.2, -0.3]))
        assert seq.info.iterations == 0

    def test_kkt_conditions_at_solution(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            qp = spd_qp(rng, 5)
            tol = 1e-9
            seq = solve_box_qp(qp, tol=tol)
            u = seq.u.ravel()
            grad = 2.0 * (qp.hessian @ u + qp.linear)
            for i in range(5):
                if u[i] <= qp.lower[i] + 1e-12:
                    assert grad[i] > -tol
                elif u[i] >= qp.upper[i] - 1e-12:
                    assert grad[i] < tol
                else:
                    assert abs(grad[i]) < tol

    def test_non_convergence_carries_residual(self):
        rng = np.random.default_rng(11)
        qp = spd_qp(rng, 4)
        with pytest.raises(QpNonConvergence) as err:
            solve_box_qp(qp, tol=1e-14, max_iter=1)
        assert np.isfinite(err.value.residual) and err.value.residual > 0

    def test_scaler_produces_pu_image(self):
        qp = CondensedQp(hessian=np.eye(2), linear=np.zeros(2), const=0.0,
                         lower=np.full(2, -1.0), upper=np.full(2, 1.0),
                         horizon=1, n_controls=2)
        sc = Scaler(v_ref=1.0, v_lo=-0.1, v_hi=0.1)
        seq = solve_box_qp(qp, scaler=sc)
        assert np.allclose(seq.u_pu, sc.denormalize_u(seq.u))


class TestCondenseMatchesReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_lift=st.integers(1, 12),
        m=st.integers(1, 4),
        horizon=st.integers(1, 6),
        rho=st.floats(0.0, 0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_qp_and_controls_match(self, seed, n_lift, m, horizon, rho):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n_lift, n_lift))
        a = rho * a / max(np.abs(np.linalg.eigvals(a)).max(), 1e-9)
        p = MpcProblem(
            A=a,
            B=rng.normal(size=(n_lift, m)),
            z0=rng.normal(size=n_lift),
            z_ref=rng.normal(size=n_lift),
            horizon=horizon,
            Q=random_psd(rng, n_lift),
            R=random_psd(rng, m),
            u_min=np.full(m, -1.0),
            u_max=np.full(m, 1.0),
        )
        got, ref = condense(p), reference_condense(p)
        assert max_rel_err(got.hessian, ref.hessian) <= 1e-12
        assert max_rel_err(got.linear, ref.linear) <= 1e-12
        assert max_rel_err(got.const, ref.const) <= 1e-12
        assert np.array_equal(got.lower, ref.lower) and np.array_equal(got.upper, ref.upper)

        solved = []
        for qp in (got, ref):
            try:
                solved.append(solve_box_qp(qp, tol=1e-10, max_iter=20_000).u)
            except QpNonConvergence:
                solved.append(None)
        if solved[1] is None:
            assert solved[0] is None
        else:
            assert np.max(np.abs(solved[0] - solved[1])) <= 1e-9


class TestCurvature:
    def test_exact_largest_eigenvalue(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = random_problem(rng, horizon=int(rng.integers(1, 7)))
            hess = condense(p).hessian
            exact = float(np.linalg.eigvalsh(hess)[-1])
            lam = _estimate_curvature(hess)
            assert abs(lam - exact) <= 1e-12 * exact
            # power iteration's Rayleigh quotient approaches it from below
            assert reference_power_curvature(hess) <= lam * (1 + 1e-12)

    def test_zero_hessian(self):
        assert _estimate_curvature(np.zeros((3, 3))) == 0.0
        assert reference_power_curvature(np.zeros((3, 3))) == 0.0


class TestRecedingHorizon:
    def test_perfect_model_matches_open_loop_plan(self):
        # when the controlled system IS the lifted model, the shrinking
        # horizon replans reproduce the instant-0 plan (Bellman principle)
        rng = np.random.default_rng(12)
        n_lift, m, nk = 6, 2, 5
        a = rng.normal(size=(n_lift, n_lift))
        a = 0.85 * a / np.abs(np.linalg.eigvals(a)).max()
        b = rng.normal(size=(n_lift, m))
        z0 = rng.normal(size=n_lift)
        z_ref = rng.normal(size=n_lift)
        q = np.eye(n_lift)
        r = 1e-4 * np.eye(m)  # strict convexity: the optimum is unique
        bounds = dict(u_min=np.full(m, -1.0), u_max=np.full(m, 1.0))

        plan = solve_box_qp(
            condense(MpcProblem(A=a, B=b, z0=z0, z_ref=z_ref, horizon=nk, Q=q, R=r, **bounds)),
            tol=1e-12,
        ).u

        z = z0
        applied = []
        for k in range(nk):
            seq = solve_box_qp(
                condense(MpcProblem(A=a, B=b, z0=z, z_ref=z_ref, horizon=nk - k,
                                    Q=q, R=r, **bounds)),
                tol=1e-12,
            )
            u = seq.u[0]
            applied.append(u)
            z = a @ z + b @ u
        assert np.max(np.abs(np.vstack(applied) - plan)) < 1e-5

    def test_zero_control_budget_equals_no_control_rollout(self):
        cfg = default_config()
        net = KoopmanNet(KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16,
                                          lstm_hidden=4, seed=0))
        model = extract(net, Scaler(v_ref=1.0, v_lo=-0.3, v_hi=0.1))
        loop = receding_horizon(model, cfg.model, cfg.schedule, v_ref=1.0,
                                fault=cfg.fault, u_max_pu=0.0)
        baseline = run_episode(cfg.model, cfg.schedule, cfg.fault,
                               zero_policy(cfg.model))
        assert np.array_equal(loop.trajectory.voltages, baseline.voltages)
        assert np.all(loop.applied_controls == 0.0)

    def test_schedule_shape_and_diagnostics(self):
        cfg = default_config()
        net = KoopmanNet(KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16,
                                          lstm_hidden=4, seed=1))
        model = extract(net, Scaler(v_ref=1.0, v_lo=-0.3, v_hi=0.1))
        loop = receding_horizon(model, cfg.model, cfg.schedule, fault=cfg.fault)
        assert cfg.schedule.tc == 3.0 and cfg.schedule.n_instants == 5
        # one uncontrolled interval plus five controlled ones
        assert loop.trajectory.voltages.shape == ((5 + 1) * 4 + 1, 6)
        assert loop.applied_controls.shape == (5, 3)
        horizons = [d["horizon"] for d in loop.diagnostics]
        assert horizons == [5, 4, 3, 2, 1]
        assert not loop.aborted
        assert np.all(loop.applied_controls >= 0.0)
        assert np.all(loop.applied_controls <= U_MAX + 1e-12)

    def test_solver_failure_flags_abort(self):
        cfg = default_config()
        net = KoopmanNet(KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16,
                                          lstm_hidden=4, seed=2))
        model = extract(net, Scaler(v_ref=1.0, v_lo=-0.3, v_hi=0.1))
        loop = receding_horizon(model, cfg.model, cfg.schedule, fault=cfg.fault,
                                tol=1e-14, max_iter=1)
        assert loop.aborted
        assert loop.diagnostics and loop.diagnostics[-1]["converged"] is False

    def test_csv_and_diagnostics_outputs(self, tmp_path):
        cfg = default_config()
        net = KoopmanNet(KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16,
                                          lstm_hidden=4, seed=3))
        model = extract(net, Scaler(v_ref=1.0, v_lo=-0.3, v_hi=0.1))
        loop = receding_horizon(model, cfg.model, cfg.schedule, fault=cfg.fault)
        loop.to_csv(tmp_path / "cl.csv")
        loop.diagnostics_to_json(tmp_path / "qp.json")
        lines = (tmp_path / "cl.csv").read_text().splitlines()
        assert lines[0] == "time," + ",".join(f"v_{i}" for i in range(6)) + "," + ",".join(
            f"u_{l}" for l in range(3)
        )
        assert len(lines) == 1 + 25
        import json

        doc = json.loads((tmp_path / "qp.json").read_text())
        assert doc["aborted"] is False and len(doc["instants"]) == 5

    def test_model_plant_mismatch_rejected(self):
        mirror = load_config(Path(__file__).resolve().parents[1] / "configs" / "mirror_plant.json")
        net = KoopmanNet(KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16,
                                          lstm_hidden=4, seed=4))
        model = extract(net, Scaler(v_ref=1.0, v_lo=-0.3, v_hi=0.1))
        with pytest.raises(ValueError, match=r"\(6, 4, 3\).*\(12, 4, 5\)"):
            receding_horizon(model, mirror.model, mirror.schedule, fault=mirror.fault)


def problem_batch(rng, n_rows, **kwargs):
    """One random problem and ``n_rows`` initial states for it."""
    p = random_problem(rng, **kwargs)
    z0 = rng.normal(size=(n_rows, p.A.shape[0]))
    return p, MpcProblem(A=p.A, B=p.B, z0=z0, z_ref=p.z_ref, horizon=p.horizon,
                         Q=p.Q, R=p.R, u_min=p.u_min, u_max=p.u_max)


def row_problem(batch: MpcProblem, i: int) -> MpcProblem:
    return MpcProblem(A=batch.A, B=batch.B, z0=batch.z0[i], z_ref=batch.z_ref,
                      horizon=batch.horizon, Q=batch.Q, R=batch.R,
                      u_min=batch.u_min, u_max=batch.u_max)


class TestBatchedProblems:
    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_each_row_is_its_own_problem_bit_for_bit(self, seed, n_rows):
        rng = np.random.default_rng(seed)
        _, batch = problem_batch(rng, n_rows, n_lift=int(rng.integers(2, 40)))
        qp = condense(batch)
        seq = solve_box_qp(qp, tol=1e-10, max_iter=20_000)
        assert seq.u.shape == (n_rows, batch.horizon, batch.B.shape[1])
        for i in range(n_rows):
            single_qp = condense(row_problem(batch, i))
            assert np.array_equal(qp.hessian, single_qp.hessian)
            assert np.array_equal(qp.linear[i], single_qp.linear)
            assert qp.const[i] == single_qp.const
            single = solve_box_qp(single_qp, tol=1e-10, max_iter=20_000)
            assert np.array_equal(seq.u[i], single.u)
            assert seq.info.row_iterations[i] == single.info.iterations
            assert seq.info.row_pg_norm[i] == single.info.pg_norm
            assert seq.info.row_objective[i] == single.info.objective
            assert qp.objective(seq.u.reshape(n_rows, -1))[i] == single_qp.objective(single.u.ravel())
        assert seq.info.iterations == int(seq.info.row_iterations.sum())
        assert seq.info.converged and seq.info.row_converged.all()

    def test_rows_freeze_at_their_own_convergence(self):
        rng = np.random.default_rng(21)
        _, batch = problem_batch(rng, 8, n_lift=10, m=2, horizon=4)
        seq = solve_box_qp(condense(batch), tol=1e-10)
        assert len(set(seq.info.row_iterations.tolist())) > 1

    def test_a_failing_row_leaves_the_others_solved(self):
        rng = np.random.default_rng(22)
        _, batch = problem_batch(rng, 6, n_lift=8, m=2, horizon=3)
        full = solve_box_qp(condense(batch), tol=1e-10)
        counts = full.info.row_iterations
        max_iter = int(np.median(counts))
        assert counts.min() <= max_iter < counts.max()
        with pytest.raises(QpNonConvergence) as err:
            solve_box_qp(condense(batch), tol=1e-10, max_iter=max_iter)
        got = err.value.result
        assert got.info.row_converged.tolist() == (counts <= max_iter).tolist()
        assert err.value.residual == got.info.row_pg_norm.max() > 1e-10
        for i in np.flatnonzero(got.info.row_converged):
            assert np.array_equal(got.u[i], full.u[i])


class TestPolicyMatchesSequentialLoop:
    @pytest.mark.parametrize("kind", ["net", "edmd"])
    @pytest.mark.parametrize("lam", [0.9, 1.0, 1.1])
    def test_receding_horizon_is_the_old_loop(self, small_models, kind, lam):
        from sequential_reference import receding_horizon as reference

        cfg = default_config()
        plant = cfg.model.with_load(lam)
        kwargs = dict(v_ref=1.0, fault=cfg.fault, R=1e-3 * np.eye(3))
        got = receding_horizon(small_models[kind], plant, cfg.schedule, **kwargs)
        ref = reference(small_models[kind], plant, cfg.schedule, **kwargs)
        assert np.array_equal(got.trajectory.times, ref.trajectory.times)
        assert np.array_equal(got.trajectory.voltages, ref.trajectory.voltages)
        assert np.array_equal(got.trajectory.controls, ref.trajectory.controls)
        assert np.array_equal(got.applied_controls, ref.applied_controls)
        assert got.diagnostics == ref.diagnostics
        assert not got.aborted and not ref.aborted

    @pytest.mark.parametrize("kind", ["net", "edmd"])
    def test_abort_is_the_old_loop(self, small_models, kind):
        from sequential_reference import receding_horizon as reference

        cfg = default_config()
        kwargs = dict(fault=cfg.fault, tol=1e-14, max_iter=3)
        got = receding_horizon(small_models[kind], cfg.model, cfg.schedule, **kwargs)
        ref = reference(small_models[kind], cfg.model, cfg.schedule, **kwargs)
        assert got.aborted and ref.aborted
        assert got.diagnostics == ref.diagnostics
        assert np.array_equal(got.trajectory.voltages, ref.trajectory.voltages)
        assert np.array_equal(got.trajectory.controls, ref.trajectory.controls)
        assert got.trajectory.schedule == ref.trajectory.schedule

    @pytest.mark.parametrize("kind", ["net", "edmd"])
    def test_batch_of_episodes_equals_one_episode_each(self, small_models, kind):
        cfg = default_config()
        lams = np.array([0.92, 1.08, 1.0, 0.97])
        policy = mpc.MpcPolicy(small_models[kind], cfg.model, cfg.schedule)
        batch = run_episode(cfg.model.with_load(lams), cfg.schedule, cfg.fault, policy)
        for e, lam in enumerate(lams):
            single = receding_horizon(small_models[kind], cfg.model.with_load(lam), cfg.schedule,
                                      fault=cfg.fault)
            assert np.array_equal(batch.voltages[e], single.trajectory.voltages)
            assert policy.diagnostics[e] == single.diagnostics

    def test_lifted_batch_rows_equal_single_lifts(self, small_models):
        windows = np.random.default_rng(6).uniform(0.7, 1.05, size=(9, 6, 4))
        for model in small_models.values():
            batch = model.lift(windows)
            assert batch.shape == (9, model.lifted_dim)
            for i, w in enumerate(windows):
                assert np.array_equal(batch[i], model.lift(w))
