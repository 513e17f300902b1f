import itertools
from dataclasses import replace
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
    MpcConfig,
    MpcProblem,
    QpNonConvergence,
    _estimate_curvature,
    condense,
    receding_horizon,
    solve_box_qp,
)
from koopmanmpc.plant import (
    U_MAX,
    default_config,
    load_config,
    mirror_config,
    run_episode,
    zero_policy,
)


def direct_objective(problem: MpcProblem, u_seq: np.ndarray) -> float:
    """Literal evaluation of the tracking objective along the predicted
    lifted trajectory (the oracle for condensation)."""
    z = problem.z0
    total = 0.0
    for i in range(problem.horizon):
        z = problem.A @ z + problem.B @ u_seq[i]
        dz = z - problem.z_ref
        total += float(dz @ dz + u_seq[i] @ problem.R @ u_seq[i])
    return total


def reference_condense(problem: MpcProblem) -> CondensedQp:
    """The A-power / Kronecker-product condensation that ``condense``
    replaced: forms A^1..A^H and adds kron(I, R)."""
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

    hessian = s_big.T @ s_big + np.kron(np.eye(nk), problem.R)
    hessian = 0.5 * (hessian + hessian.T)
    linear = s_big.T @ d_vec
    const = float(d_vec @ d_vec)
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
    r_root = rng.normal(size=(m, m))
    return MpcProblem(
        A=a,
        B=rng.normal(size=(n_lift, m)),
        z0=rng.normal(size=n_lift),
        z_ref=rng.normal(size=n_lift),
        horizon=horizon,
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
        p = random_problem(rng, m=2)
        bad_r = p.R.copy()
        bad_r[0, 1] += 1e-6
        with pytest.raises(ValueError):
            MpcProblem(A=p.A, B=p.B, z0=p.z0, z_ref=p.z_ref, horizon=p.horizon,
                       R=bad_r, u_min=p.u_min, u_max=p.u_max)

    def test_indefinite_weight_rejected(self):
        rng = np.random.default_rng(1)
        p = random_problem(rng, n_lift=3, m=3)
        with pytest.raises(ValueError):
            MpcProblem(A=p.A, B=p.B, z0=p.z0, z_ref=p.z_ref, horizon=p.horizon,
                       R=np.diag([1.0, -0.5, 1.0]), u_min=p.u_min, u_max=p.u_max)

    @pytest.mark.parametrize("weight", ["R"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weight_rejected(self, weight, value):
        p = random_problem(np.random.default_rng(3), n_lift=4, m=2)
        bad = np.eye(2)
        bad[1, 1] = value
        with pytest.raises(ValueError, match=f"{weight} must be finite"):
            MpcProblem(A=p.A, B=p.B, z0=p.z0, z_ref=p.z_ref, horizon=p.horizon,
                       R=bad, u_min=p.u_min, u_max=p.u_max)

    @pytest.mark.parametrize("weight, expected", [
        (np.eye(5), None),
        (np.diag([0.0, 2.0, 0.5, 1e-12, 3.0]), None),
        (np.diag([1.0, -0.5, 1.0, 1.0, 1.0]), "R must be positive semidefinite (min eig -5.00e-01)"),
        (np.diag([1.0, -1e-11, 1.0, 1.0, 1.0]), None),
        (np.eye(5) + np.full((5, 5), 0.25), None),
        (np.eye(5) + 2.0 * (np.eye(5, k=1) + np.eye(5, k=-1)),
         "R must be positive semidefinite (min eig -2.46e+00)"),
        (np.eye(5) + np.triu(np.full((5, 5), 1e-6), 1), "R must be symmetric"),
        (np.eye(5) + np.triu(np.full((5, 5), 1e-11), 1), None),
        (np.where(np.eye(5, dtype=bool), np.nan, 0.0), "R must be finite"),
        (np.where(np.eye(5, k=1, dtype=bool), -np.inf, np.eye(5)), "R must be finite"),
        (np.ones((5, 4)), "R must be 5 x 5"),
        (np.zeros((0, 0)), "zero-size array to reduction operation maximum which has no identity"),
    ], ids=["identity", "non_negative_diagonal", "negative_diagonal", "tiny_negative_diagonal",
            "psd_off_diagonal", "indefinite", "asymmetric", "asymmetric_within_tolerance",
            "nan", "infinite_off_diagonal", "misshapen", "empty"])
    def test_weight_check_decides_as_before(self, weight, expected):
        try:
            mpc._check_weight(weight, "R", len(weight))
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_crossed_bounds_rejected(self):
        rng = np.random.default_rng(2)
        p = random_problem(rng, m=2)
        with pytest.raises(ValueError):
            MpcProblem(A=p.A, B=p.B, z0=p.z0, z_ref=p.z_ref, horizon=p.horizon,
                       R=p.R, u_min=np.array([0.5, 0.0]), u_max=np.array([0.0, 1.0]))


class TestCondense:
    def test_single_step_formulas(self):
        rng = np.random.default_rng(3)
        p = random_problem(rng, horizon=1)
        qp = condense(p)
        expect_h = p.B.T @ p.B + p.R
        expect_g = p.B.T @ (p.A @ p.z0 - p.z_ref)
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
            objectives = []
            for max_iter in range(solve_box_qp(qp).info.iterations + 1):
                try:  # the iterate after max_iter steps
                    seq = solve_box_qp(qp, max_iter=max_iter)
                except QpNonConvergence as exc:
                    seq = exc.result
                objectives.append(qp.objective(seq.u.ravel()))
            assert np.all(np.diff(objectives) <= 1e-12)

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


def badly_scaled_qp(rng, dim):
    """A dense PSD quadratic of modest conditioning scaled symmetrically so
    that its diagonal spreads over 1e-3 to 1e3."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    root = np.sqrt(np.logspace(-3, 3, dim))
    hess = root[:, None] * (q @ np.diag(rng.uniform(0.5, 2.0, size=dim)) @ q.T) * root
    hess = 0.5 * (hess + hess.T)
    return CondensedQp(hessian=hess, linear=root * rng.normal(size=dim), const=0.0,
                       lower=np.full(dim, -1.0), upper=np.full(dim, 1.0),
                       horizon=dim, n_controls=1)


def assert_kkt(qp, u, tol):
    """Interior coordinates have |grad| < tol, bound ones an outward gradient."""
    grad = 2.0 * (qp.hessian @ u + qp.linear)
    at_lower, at_upper = u <= qp.lower, u >= qp.upper
    assert np.all(grad[at_lower] > -tol) and np.all(grad[at_upper] < tol)
    assert np.all(np.abs(grad[~at_lower & ~at_upper]) < tol)


def scaled_spectrum(hessian):
    """The extreme eigenvalues of D^1/2 H D^1/2, D = 1 / diag(H) (1 where the
    diagonal is not positive): the spectrum the solver sizes its step by."""
    diag = np.diagonal(hessian)
    root = np.sqrt(1.0 / np.where(diag > 0.0, diag, 1.0))
    return _estimate_curvature(root[:, None] * hessian * root)


class TestJacobiStep:
    def test_zero_row_and_column_take_a_unit_scale(self):
        from sequential_reference import solve_box_qp as reference

        # PSD, with coordinate 1 absent from the quadratic: its gradient is
        # the constant 2 * 0.5 > 0, so it goes to its lower bound
        hess = np.array([[2.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
        qp = CondensedQp(hessian=hess, linear=np.array([-1.0, 0.5, 0.2]), const=0.0,
                         lower=np.full(3, -1.0), upper=np.full(3, 1.0),
                         horizon=3, n_controls=1)
        assert scaled_spectrum(hess)[0] == pytest.approx(0.0, abs=1e-15)
        seq = solve_box_qp(qp, tol=1e-10)
        u = seq.u.ravel()
        assert u[1] == -1.0
        assert_kkt(qp, u, 1e-10)
        assert np.max(np.abs(u - reference(qp, tol=1e-10).u.ravel())) <= 1e-9

    def test_singular_hessian(self):
        from sequential_reference import solve_box_qp as reference

        rng = np.random.default_rng(31)
        for _ in range(10):
            dim = int(rng.integers(2, 9))
            root = rng.normal(size=(dim, int(rng.integers(1, dim))))  # rank < dim
            hess = root @ root.T
            qp = CondensedQp(hessian=hess, linear=rng.normal(size=dim), const=0.0,
                             lower=np.full(dim, -1.0), upper=np.full(dim, 1.0),
                             horizon=dim, n_controls=1)
            assert scaled_spectrum(hess)[0] <= 1e-12  # lambda_min is 0 up to rounding
            seq = solve_box_qp(qp, tol=1e-10)
            assert_kkt(qp, seq.u.ravel(), 1e-10)
            # the minimizer need not be unique; the minimum is
            ref = reference(qp, tol=1e-10, max_iter=200_000)
            assert seq.info.objective == pytest.approx(ref.info.objective, rel=1e-9, abs=1e-9)

    def test_diagonal_spread_over_six_decades(self):
        from sequential_reference import solve_box_qp as reference

        rng = np.random.default_rng(32)
        for _ in range(5):
            qp = badly_scaled_qp(rng, 6)
            diag = np.diagonal(qp.hessian)
            assert diag.max() / diag.min() > 1e5
            seq = solve_box_qp(qp, tol=1e-9)
            assert_kkt(qp, seq.u.ravel(), 1e-9)
            # the old scalar step needs of the order of kappa(H) iterations
            with pytest.raises(QpNonConvergence):
                reference(qp, tol=1e-9, max_iter=100 * seq.info.iterations)

    def test_monotone_descent_on_a_badly_scaled_hessian(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            qp = badly_scaled_qp(rng, 6)
            objectives = []
            for max_iter in range(solve_box_qp(qp).info.iterations + 1):
                try:  # the iterate after max_iter steps
                    seq = solve_box_qp(qp, max_iter=max_iter)
                except QpNonConvergence as exc:
                    seq = exc.result
                objectives.append(qp.objective(seq.u.ravel()))
            assert np.all(np.diff(objectives) <= 1e-12 * max(1.0, abs(objectives[0])))

    def test_fewer_iterations_than_the_scalar_step(self):
        # the guard on the step rule: over a fixed set of condensed random
        # problems the Jacobi-scaled step 1 / (lambda_max + lambda_min) of D H
        # takes at most 0.7 of the iterations of 1 / (2 lambda_max) of H
        # (0.36 when it was introduced)
        from sequential_reference import solve_box_qp as reference

        rng = np.random.default_rng(2020)
        totals = np.zeros(2, dtype=int)
        for _ in range(60):
            qp = condense(random_problem(rng, horizon=int(rng.integers(1, 6))))
            totals += [solve_box_qp(qp, tol=1e-10).info.iterations,
                       reference(qp, tol=1e-10).info.iterations]
        assert totals[0] <= 0.7 * totals[1]


class TestSolverMatchesScalarStepReference:
    """The stated tolerance against the scalar-step solver it replaced:
    every row converges wherever the reference converged, and the controls
    agree within 1e-7."""

    @given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 6),
           horizon=st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_random_problems(self, seed, n_rows, horizon):
        from sequential_reference import solve_box_qp as reference

        rng = np.random.default_rng(seed)
        _, batch = problem_batch(rng, n_rows, n_lift=int(rng.integers(2, 30)), horizon=horizon)
        qp = condense(batch)
        results = []
        for solve in (solve_box_qp, reference):
            try:
                results.append(solve(qp, tol=1e-10))
            except QpNonConvergence as exc:
                results.append(exc.result)
        got, ref = results
        assert np.all(got.info.row_converged[ref.info.row_converged])
        both = got.info.row_converged & ref.info.row_converged
        assert np.max(np.abs(got.u[both] - ref.u[both]), initial=0.0) <= 1e-7

    @pytest.mark.parametrize("plant", ["default", "mirror"])
    @pytest.mark.parametrize("kind", ["net", "edmd"])
    def test_closed_loop_on_both_plants(self, bench_models, mirror_models, monkeypatch,
                                        plant, kind):
        from sequential_reference import solve_box_qp as reference

        cfg = default_config() if plant == "default" else mirror_config()
        model = (bench_models if plant == "default" else mirror_models)[kind]
        lams = np.array([0.9, 0.97, 1.0, 1.04, 1.1])
        runs = []
        for solve in (solve_box_qp, reference):
            monkeypatch.setattr(mpc, "solve_box_qp", solve)
            policy = mpc.MpcPolicy(model, cfg)
            traj = run_episode(cfg.model.with_load(lams), cfg.schedule, cfg.fault, policy)
            runs.append((traj, policy))
        (got, got_policy), (ref, ref_policy) = runs
        assert not ref_policy.aborted.any() and not got_policy.aborted.any()
        assert np.max(np.abs(got.controls - ref.controls)) <= 1e-7
        assert np.max(np.abs(got.voltages - ref.voltages)) <= 1e-7
        got_iters, ref_iters = ([d["iterations"] for e in p.diagnostics for d in e]
                                for p in (got_policy, ref_policy))
        assert sum(got_iters) < sum(ref_iters)


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


class TestCondenseIsTheWeightedOneAtIdentity:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_lift=st.integers(1, 40),
        m=st.integers(1, 5),
        horizon=st.integers(1, 6),
        n_rows=st.integers(0, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_for_bit(self, seed, n_lift, m, horizon, n_rows):
        from sequential_reference import condense as weighted

        rng = np.random.default_rng(seed)
        r_root = rng.normal(size=(m, m))
        p = MpcProblem(
            A=rng.normal(size=(n_lift, n_lift)),
            B=rng.normal(size=(n_lift, m)),
            z0=rng.normal(size=(n_rows, n_lift) if n_rows else n_lift),  # 0: one problem
            z_ref=rng.normal(size=n_lift),
            horizon=horizon,
            R=r_root @ r_root.T,
            u_min=np.full(m, -1.0),
            u_max=np.full(m, 1.0),
        )
        got, ref = condense(p), weighted(p, np.eye(n_lift))
        assert np.array_equal(got.hessian, ref.hessian)
        assert np.array_equal(got.linear, ref.linear)
        assert np.array_equal(got.const, ref.const) and type(got.const) is type(ref.const)


class TestCurvature:
    def test_exact_largest_eigenvalue(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = random_problem(rng, horizon=int(rng.integers(1, 7)))
            hess = condense(p).hessian
            spectrum = np.linalg.eigvalsh(hess)
            exact = float(spectrum[-1])
            lam_min, lam = _estimate_curvature(hess)
            assert abs(lam - exact) <= 1e-12 * exact
            assert abs(lam_min - float(spectrum[0])) <= 1e-12 * exact
            # power iteration's Rayleigh quotient approaches it from below
            assert reference_power_curvature(hess) <= lam * (1 + 1e-12)

    def test_zero_hessian(self):
        assert _estimate_curvature(np.zeros((3, 3))) == (0.0, 0.0)
        assert _estimate_curvature(np.zeros((0, 0))) == (0.0, 0.0)
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
        r = 1e-4 * np.eye(m)  # strict convexity: the optimum is unique
        bounds = dict(u_min=np.full(m, -1.0), u_max=np.full(m, 1.0))

        plan = solve_box_qp(
            condense(MpcProblem(A=a, B=b, z0=z0, z_ref=z_ref, horizon=nk, R=r, **bounds)),
            tol=1e-12,
        ).u

        z = z0
        applied = []
        for k in range(nk):
            seq = solve_box_qp(
                condense(MpcProblem(A=a, B=b, z0=z, z_ref=z_ref, horizon=nk - k, R=r, **bounds)),
                tol=1e-12,
            )
            u = seq.u[0]
            applied.append(u)
            z = a @ z + b @ u
        assert np.max(np.abs(np.vstack(applied) - plan)) < 1e-5

    def test_zero_control_budget_equals_no_control_rollout(self, monkeypatch):
        cfg = default_config()
        net = KoopmanNet(KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16,
                                          lstm_hidden=4, seed=0))
        model = extract(net, Scaler(v_ref=1.0, v_lo=-0.3, v_hi=0.1))
        monkeypatch.setattr(mpc, "U_MAX", 0.0)  # the policy's bound, read when it is built
        loop = receding_horizon(model, cfg)
        baseline = run_episode(cfg.model, cfg.schedule, cfg.fault,
                               zero_policy(cfg.model))
        assert np.array_equal(loop.trajectory.voltages, baseline.voltages)
        assert np.all(loop.applied_controls == 0.0)

    def test_schedule_shape_and_diagnostics(self):
        cfg = default_config()
        net = KoopmanNet(KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16,
                                          lstm_hidden=4, seed=1))
        model = extract(net, Scaler(v_ref=1.0, v_lo=-0.3, v_hi=0.1))
        loop = receding_horizon(model, cfg)
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
        loop = receding_horizon(model, cfg, MpcConfig(tol=1e-14, max_iter=1))
        assert loop.aborted
        assert loop.diagnostics and loop.diagnostics[-1]["converged"] is False

    def test_csv_and_diagnostics_outputs(self, tmp_path):
        cfg = default_config()
        net = KoopmanNet(KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16,
                                          lstm_hidden=4, seed=3))
        model = extract(net, Scaler(v_ref=1.0, v_lo=-0.3, v_hi=0.1))
        loop = receding_horizon(model, cfg)
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
            receding_horizon(model, mirror)

    @pytest.mark.parametrize("field, kwargs", [
        ("tol", dict(tol=float("inf"))),
        ("tol", dict(tol=0.0)),
        ("tol", dict(tol=float("nan"))),
        ("max_iter", dict(max_iter=0)),
        ("max_iter", dict(max_iter=2.5)),
    ])
    def test_bad_solver_settings_rejected_at_the_call(self, field, kwargs):
        # the policy takes its solver settings as an MpcConfig, whose
        # constructor is their one check
        with pytest.raises(ValueError, match=field):
            MpcConfig(**kwargs)


def problem_batch(rng, n_rows, **kwargs):
    """One random problem and ``n_rows`` initial states for it."""
    p = random_problem(rng, **kwargs)
    z0 = rng.normal(size=(n_rows, p.A.shape[0]))
    return p, MpcProblem(A=p.A, B=p.B, z0=z0, z_ref=p.z_ref, horizon=p.horizon,
                         R=p.R, u_min=p.u_min, u_max=p.u_max)


def row_problem(batch: MpcProblem, i: int) -> MpcProblem:
    return MpcProblem(A=batch.A, B=batch.B, z0=batch.z0[i], z_ref=batch.z_ref,
                      horizon=batch.horizon, R=batch.R,
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

    def test_a_nan_row_stops_at_once_and_leaves_the_others_solved(self):
        rng = np.random.default_rng(23)
        _, batch = problem_batch(rng, 4, n_lift=8, m=2, horizon=3)
        batch.z0[2, 5] = np.nan
        with pytest.raises(QpNonConvergence, match="residual nan") as err:
            solve_box_qp(condense(batch), tol=1e-10, max_iter=20_000)
        info = err.value.result.info
        assert np.isnan(err.value.residual)
        assert info.row_converged.tolist() == [True, True, False, True]
        assert info.row_iterations[2] == 0 and np.isnan(info.row_pg_norm[2])
        for i in (0, 1, 3):
            single = solve_box_qp(condense(row_problem(batch, i)), tol=1e-10, max_iter=20_000)
            assert np.array_equal(err.value.result.u[i], single.u)
            assert info.row_iterations[i] == single.info.iterations


class TestPolicyMatchesSequentialLoop:
    @pytest.mark.parametrize("kind", ["net", "edmd"])
    @pytest.mark.parametrize("lam", [0.9, 1.0, 1.1])
    def test_receding_horizon_is_the_old_loop(self, small_models, kind, lam):
        from sequential_reference import receding_horizon as reference

        cfg = default_config()
        plant = cfg.model.with_load(lam)
        got = receding_horizon(small_models[kind], replace(cfg, model=plant),
                               MpcConfig(r_weight=1e-3))
        ref = reference(small_models[kind], plant, cfg.schedule, v_ref=1.0, fault=cfg.fault,
                        R=1e-3 * np.eye(3))
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
        got = receding_horizon(small_models[kind], cfg, MpcConfig(tol=1e-14, max_iter=3))
        ref = reference(small_models[kind], cfg.model, cfg.schedule, fault=cfg.fault,
                        tol=1e-14, max_iter=3)
        assert got.aborted and ref.aborted
        assert got.diagnostics == ref.diagnostics
        assert np.array_equal(got.trajectory.voltages, ref.trajectory.voltages)
        assert np.array_equal(got.trajectory.controls, ref.trajectory.controls)
        assert got.trajectory.schedule == ref.trajectory.schedule

    @pytest.mark.parametrize("kind", ["net", "edmd"])
    def test_batch_of_episodes_equals_one_episode_each(self, small_models, kind):
        cfg = default_config()
        lams = np.array([0.92, 1.08, 1.0, 0.97])
        policy = mpc.MpcPolicy(small_models[kind], cfg)
        batch = run_episode(cfg.model.with_load(lams), cfg.schedule, cfg.fault, policy)
        for e, lam in enumerate(lams):
            single = receding_horizon(small_models[kind],
                                      replace(cfg, model=cfg.model.with_load(lam)))
            assert np.array_equal(batch.voltages[e], single.trajectory.voltages)
            assert policy.diagnostics[e] == single.diagnostics

    def test_lifted_batch_rows_equal_single_lifts(self, small_models):
        windows = np.random.default_rng(6).uniform(0.7, 1.05, size=(9, 6, 4))
        for model in small_models.values():
            batch = model.lift(windows)
            assert batch.shape == (9, model.lifted_dim)
            for i, w in enumerate(windows):
                assert np.array_equal(batch[i], model.lift(w))
