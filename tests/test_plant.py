import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from koopmanmpc import plant
from koopmanmpc.dataset import window_history
from koopmanmpc.plant import (
    FaultSpec,
    PlantModel,
    Schedule,
    U_MAX,
    default_config,
    faulted_initial_state,
    full_policy,
    load_config,
    mirror_config,
    n_substeps,
    rollout,
    run_episode,
    save_config,
    step,
    vector_field,
    zero_policy,
)


def scalar_plant(a=2.0, b=0.0, gamma=0.0):
    """Single decoupled bus with v* = 1 (d = 0)."""
    return PlantModel(
        n=1, m=1,
        a=np.array([a]), b=np.array([b]), c=0.0,
        w=np.zeros((1, 1)), gamma=np.array([[gamma]]),
        v_max=1.1, d=np.array([0.0]), lam=1.0,
    )


class TestPlantModel:
    def test_default_config_valid(self):
        cfg = default_config()
        assert cfg.model.n == 6 and cfg.model.m == 3
        assert np.allclose(cfg.model.w.sum(axis=1), 1.0)
        assert np.all(np.diag(cfg.model.w) == 0)
        assert cfg.schedule.h == 4

    def test_mirror_config_dimensions(self):
        cfg = mirror_config()
        assert cfg.model.n == 12 and cfg.model.m == 5
        assert cfg.schedule.h == 4 and cfg.schedule.n_instants == 5

    def test_equilibrium_formula(self):
        model = default_config().model
        for lam in (0.9, 1.0, 1.1):
            expect = 1.0 - 0.3 * lam * model.d
            assert np.allclose(model.equilibrium(lam), expect)
            assert np.all(expect > 0) and np.all(expect <= 1)

    def test_invalid_parameters_rejected(self):
        good = default_config().model
        with pytest.raises(ValueError):
            PlantModel(n=6, m=3, a=np.zeros(6), b=good.b, c=good.c, w=good.w,
                       gamma=good.gamma, v_max=good.v_max, d=good.d)
        with pytest.raises(ValueError):
            PlantModel(n=6, m=3, a=good.a, b=good.b, c=good.c, w=np.eye(6),
                       gamma=good.gamma, v_max=good.v_max, d=good.d)
        with pytest.raises(ValueError):
            PlantModel(n=6, m=3, a=good.a, b=good.b, c=good.c, w=good.w,
                       gamma=good.gamma, v_max=0.99, d=good.d)

    def test_schedule_requires_integer_ratio(self):
        with pytest.raises(ValueError):
            Schedule(ts=0.7, tc=3.0, n_instants=5)
        assert Schedule(ts=0.75, tc=3.0, n_instants=5).h == 4


class TestStep:
    def test_equilibrium_is_fixed_point_for_all_loads(self):
        model = default_config().model
        for lam in np.linspace(0.9, 1.1, 9):
            m = model.with_load(lam)
            state = m.equilibrium()
            out = step(m, state, np.zeros(3), dt=0.75)
            assert np.max(np.abs(out - m.equilibrium())) < 1e-10

    def test_ceiling_saturation_kills_control_term(self):
        model = default_config().model
        v = np.full(6, model.v_max)
        f_zero = vector_field(model, v, np.zeros(3) @ model.gamma.T)
        f_full = vector_field(model, v, np.full(3, U_MAX) @ model.gamma.T)
        assert np.array_equal(f_zero, f_full)

    def test_linear_ode_matches_closed_form(self):
        # dv/dt = 2 (1 - v), v(0) = 0.9 -> v(t) = 1 - 0.1 exp(-2 t)
        model = scalar_plant(a=2.0)
        out = step(model, np.array([0.9]), np.zeros(1), dt=0.1)
        expect = 1.0 - 0.1 * np.exp(-0.2)
        assert abs(out[0] - expect) < 1e-8

    def test_monotone_control_response(self):
        model = default_config().model
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.uniform(0.5, model.v_max - 1e-6, size=6)
            u1 = rng.uniform(0, U_MAX, size=3)
            bump = rng.uniform(0, U_MAX - u1.max(), size=1)
            u2 = np.minimum(u1 + bump, U_MAX)
            q1, q2 = u1 @ model.gamma.T, u2 @ model.gamma.T
            assert np.all(vector_field(model, v, q2) >= vector_field(model, v, q1))

    def test_rk4_convergence_halving(self):
        cfg = default_config()
        state = faulted_initial_state(cfg.model.with_load(1.1), cfg.fault)

        def advance(substep_scale):
            s = state
            for _ in range(cfg.schedule.h):
                s = step(cfg.model, s, np.full(3, U_MAX), cfg.schedule.ts,
                         substeps=substep_scale * n_substeps(cfg.schedule.ts))
            return s

        diff = np.max(np.abs(advance(1) - advance(2)))
        assert diff < 1e-6

    def test_rejects_out_of_range_controls(self):
        model = default_config().model
        state = model.equilibrium()
        with pytest.raises(ValueError):
            step(model, state, np.full(3, U_MAX + 0.01), dt=0.75)
        with pytest.raises(ValueError):
            step(model, state, np.zeros(3), dt=-1.0)

    @pytest.mark.parametrize("substeps", [-1, 0, 2.5, True])
    def test_substeps_must_be_an_integer_of_at_least_one(self, substeps):
        model = default_config().model
        message = f"substeps must be an integer >= 1 \\(got {substeps!r}\\)"
        with pytest.raises(ValueError, match=message):
            step(model, model.equilibrium(), np.zeros(3), dt=0.75, substeps=substeps)

    def test_numpy_integer_substeps_run_as_the_int(self):
        model = default_config().model
        v = faulted_initial_state(model, default_config().fault)
        assert same_bits(step(model, v, np.full(3, U_MAX), 0.75, substeps=np.int64(7)),
                         step(model, v, np.full(3, U_MAX), 0.75, substeps=7))

    def test_state_clamped_to_physical_range(self):
        model = default_config().model
        out = step(model, np.full(6, 0.05), np.full(3, U_MAX), dt=5.0)
        assert np.all(out >= 0.0) and np.all(out <= model.v_max)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


#: Largest difference of ``step`` from the pre-change step, in ulp of the
#: reference value, where the arithmetic changed (the cube became a product).
STEP_ULPS = 2


def within_ulps(new, ref, atol=0.0) -> bool:
    """Same shape and exactly the same NaN entries, and every other entry
    within ``STEP_ULPS`` ulp of ``ref`` (or within ``atol``)."""
    nan = np.isnan(ref)
    if new.shape != ref.shape or not np.array_equal(nan, np.isnan(new)):
        return False
    tol = np.maximum(STEP_ULPS * np.spacing(np.abs(ref[~nan])), atol)
    return bool(np.all(np.abs(new[~nan] - ref[~nan]) <= tol))


def assert_step_matches_reference(model, v, u, dt=0.75, substeps=None, n_steps=4, atol=0.0):
    """``step`` against the frozen pre-change one over a few chained calls,
    each pair from the same state: the same rows fail and every other entry
    is within ``STEP_ULPS`` ulp (or ``atol``); returns the last state."""
    from sequential_reference import plant_step

    state = v
    for _ in range(n_steps):
        new = step(model, state, u, dt, substeps=substeps)
        ref = plant_step(model, state, u, dt, substeps=substeps)
        assert within_ulps(new, ref, atol)
        state = new
    return state


def field_oracle(model, lam, v, q):
    """``vector_field`` of one episode at load factor ``lam`` in Python
    floats, operation for operation in the module's order: a reference
    whose bits are the same on every IEEE-754 host.  The coupling sum is
    ``math.fsum``; with the ring lattice's exact products and two non-zero
    terms per row, every summation order rounds to it."""
    a, b, d = model.a.tolist(), model.b.tolist(), model.d.tolist()
    c, v_max = model.c, model.v_max
    x = [(1.0 - 0.3 * lam * d[i]) - v[i] for i in range(model.n)]
    out = []
    for i, w_row in enumerate(model.w.tolist()):
        coupling = math.fsum(x_j * w_ij for x_j, w_ij in zip(x, w_row))
        out.append(x[i] * ((a[i] + c) + b[i] * x[i] * x[i]) - c * coupling
                   + q[i] * (v_max - v[i]))
    return out


def step_oracle(model, lam, v, u, dt, substeps=None):
    """``step`` of one finite episode in Python floats, in its order:
    stages ``v + (h / 2) k``, then ``v + (h / 6) ((k1 + k4) + 2 (k2 + k3))``
    clamped to ``[0, v_max]``."""
    q = [math.fsum(u_l * g_l for u_l, g_l in zip(u, row)) for row in model.gamma.tolist()]
    n_sub = n_substeps(dt) if substeps is None else substeps
    h = dt / n_sub
    for _ in range(n_sub):
        k1 = field_oracle(model, lam, v, q)
        k2 = field_oracle(model, lam, [v_i + 0.5 * h * k_i for v_i, k_i in zip(v, k1)], q)
        k3 = field_oracle(model, lam, [v_i + 0.5 * h * k_i for v_i, k_i in zip(v, k2)], q)
        k4 = field_oracle(model, lam, [v_i + h * k_i for v_i, k_i in zip(v, k3)], q)
        v = [min(max(v_i + h / 6.0 * ((a + d) + 2.0 * (b + c)), 0.0), model.v_max)
             for v_i, a, b, c, d in zip(v, k1, k2, k3, k4)]
    return v


@pytest.mark.parametrize("builder", [default_config, mirror_config])
class TestStepMatchesReference:
    def draw(self, model, rng, episodes):
        """Random voltages in [0, v_max] and controls in [0, U_MAX]."""
        v = rng.uniform(0.0, model.v_max, size=episodes + (model.n,))
        u = rng.uniform(0.0, U_MAX, size=episodes + (model.m,))
        return v, u

    def test_single_episode(self, builder):
        model = builder().model
        rng = np.random.default_rng(1)
        for lam in (0.9, 1.0, 1.1):
            for _ in range(5):
                assert_step_matches_reference(model.with_load(lam), *self.draw(model, rng, ()))

    @pytest.mark.parametrize("episodes", [3, 12, 300])
    def test_batch_with_per_episode_loads(self, builder, episodes):
        rng = np.random.default_rng(episodes)
        model = builder().model.with_load(rng.uniform(0.9, 1.1, size=episodes))
        assert_step_matches_reference(model, *self.draw(model, rng, (episodes,)))

    def test_scalar_load_stepping_a_batch(self, builder):
        model = builder().model.with_load(1.05)
        assert_step_matches_reference(model, *self.draw(model, np.random.default_rng(2), (12,)))

    def test_rows_at_equilibrium_ceiling_and_zero(self, builder):
        lams = np.array([0.95, 1.0, 1.05, 1.1])
        model = builder().model.with_load(lams)
        v = np.stack([model.equilibrium()[0], np.full(model.n, model.v_max),
                      np.zeros(model.n), model.equilibrium()[3]])
        u = np.array([np.zeros(model.m), np.full(model.m, U_MAX),
                      np.full(model.m, U_MAX), np.zeros(model.m)])
        out = assert_step_matches_reference(model, v, u, n_steps=1)
        # x = v* - v is exactly +0.0 there, so every stage is exactly zero
        # and the equilibrium stays put
        for e in (0, 3):
            assert same_bits(out[e], model.equilibrium()[e])
        # the rows that start at v_max and at 0 hold the exact arithmetic
        for e in (1, 2):
            expect = step_oracle(model, lams[e], v[e].tolist(), u[e].tolist(), 0.75)
            assert same_bits(out[e], np.array(expect))

    def test_substeps_override(self, builder):
        model = builder().model
        v, u = self.draw(model, np.random.default_rng(3), (3,))
        for substeps in (7, 31):
            assert_step_matches_reference(model, v, u, substeps=substeps, n_steps=2)
        # one or two substeps per 0.75 s are 7.5-15x the 50 ms cap: the
        # stages amplify the cube's last-bit change (up to 7.8e-13 on random
        # batches), so these steps are held to an absolute tolerance here
        # and to the exact oracle in TestExactOracle
        for substeps in (1, 2):
            assert_step_matches_reference(model, v, u, substeps=substeps, n_steps=2, atol=1e-12)

    def test_only_the_non_finite_rows_fail(self, builder):
        # row 1 has failed before (a NaN state) and row 2 gets a NaN control;
        # row 3 is finite but so far off that its cube overflows and the
        # row turns NaN within its first substep
        model = builder().model.with_load(np.linspace(0.9, 1.1, 5))
        v, u = self.draw(model, np.random.default_rng(4), (5,))
        v[1] = np.nan
        u[2, 0] = np.nan
        v[3] = 1e200
        with np.errstate(all="ignore"):
            out = assert_step_matches_reference(model, v, u, n_steps=1)
        assert np.isnan(out).all(axis=1).tolist() == [False, True, True, True, False]
        assert np.isfinite(out[[0, 4]]).all()

    def test_a_row_that_overflows_to_inf_fails(self, builder):
        # a row far below equilibrium: its first substep ends at -inf without
        # a NaN, so only the finiteness guard keeps the clamp from turning it
        # into zeros that the later substeps would carry on from
        model = builder().model.with_load(np.array([0.95, 1.0, 1.05]))
        v, u = self.draw(model, np.random.default_rng(5), (3,))
        v[1] = -2e4
        with np.errstate(all="ignore"):
            out = assert_step_matches_reference(model, v, u, n_steps=1)
        assert np.isnan(out).all(axis=1).tolist() == [False, True, False]


@pytest.mark.parametrize("builder", [default_config, mirror_config])
class TestExactOracle:
    """``vector_field`` and ``step`` bit for bit against the pure-Python
    evaluation of the same formula, on random states: no reference bits
    from numpy's own kernels, so the check holds on any IEEE-754 host."""

    def test_batch_with_per_episode_loads(self, builder):
        rng = np.random.default_rng(7)
        lams = rng.uniform(0.9, 1.1, size=5)
        model = builder().model.with_load(lams)
        v = rng.uniform(0.0, model.v_max, size=(5, model.n))
        u = rng.uniform(0.0, U_MAX, size=(5, model.m))
        q = u @ model.gamma.T
        field = vector_field(model, v, q)
        for e, lam in enumerate(lams.tolist()):
            expect = field_oracle(model, lam, v[e].tolist(), q[e].tolist())
            assert same_bits(field[e], np.array(expect))
        for substeps in (None, 1, 2):
            out = step(model, v, u, dt=0.75, substeps=substeps)
            for e, lam in enumerate(lams.tolist()):
                expect = step_oracle(model, lam, v[e].tolist(), u[e].tolist(), 0.75, substeps)
                assert same_bits(out[e], np.array(expect))

    def test_single_episode(self, builder):
        model = builder().model
        rng = np.random.default_rng(8)
        for _ in range(5):
            v = rng.uniform(0.0, model.v_max, size=model.n)
            u = rng.uniform(0.0, U_MAX, size=model.m)
            q = u @ model.gamma.T
            expect = field_oracle(model, model.lam, v.tolist(), q.tolist())
            assert same_bits(vector_field(model, v, q), np.array(expect))
            expect = step_oracle(model, model.lam, v.tolist(), u.tolist(), 0.75)
            assert same_bits(step(model, v, u, dt=0.75), np.array(expect))


def test_restoring_term_is_exactly_odd():
    """The cube is a product of multiplications, so the restoring term at
    ``-x`` is exactly minus the one at ``x`` (numpy's ``** 3`` broke this in
    5 331 of 10^5 samples).  On a 2^-52 grid, ``x = v* - v`` is exact for
    ``v = 1 -+ s``; uncoupled and uncontrolled, the field is that term."""
    model = scalar_plant(a=2.0, b=5.0)
    s = np.round(np.random.default_rng(11).uniform(-0.5, 0.5, 100_000) * 2.0**52) / 2.0**52
    s = s[s != 0.0][:, None]
    q = np.zeros(s.shape)
    at_x = vector_field(model, 1.0 - s, q)
    at_minus_x = vector_field(model, 1.0 + s, q)
    assert np.all(at_x != 0.0) and np.array_equal(at_minus_x, -at_x)


def test_finite_rows_whose_sum_overflows_are_kept():
    """Eight uncoupled buses far below equilibrium: one explicit substep,
    in ``step``'s order, takes every voltage to about -2.26e307, finite,
    but their sum overflows.  The rows are finite, so they are clamped,
    not failed."""
    n = 8
    model = PlantModel(n=n, m=1, a=np.ones(n), b=np.ones(n), c=0.0, w=np.zeros((n, n)),
                       gamma=np.zeros((n, 1)), v_max=1.1, d=np.zeros(n), lam=1.0)
    v, q = np.full(n, -8666.6), np.zeros(n)
    with np.errstate(over="ignore"):
        k1 = vector_field(model, v, q)
        k2 = vector_field(model, v + 0.5 * k1, q)
        k3 = vector_field(model, v + 0.5 * k2, q)
        k4 = vector_field(model, v + k3, q)
        v_next = v + (1.0 / 6.0) * ((k1 + k4) + 2.0 * (k2 + k3))
        assert np.isfinite(v_next).all() and np.isinf(v_next.sum())
        out = assert_step_matches_reference(model, v, np.zeros(1), dt=1.0, substeps=1,
                                            n_steps=1)
    assert same_bits(out, np.zeros(n))


def test_clip_ufunc_is_np_clip_bit_for_bit():
    x = np.array([-0.0, 0.0, -1.0, 0.5, 1.1, 2.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324])
    for lo, hi in ((0.0, 1.1), (np.zeros(x.shape), np.full(x.shape, 1.1)), (-0.0, 0.0)):
        assert same_bits(plant.clip(x, lo, hi), np.clip(x, lo, hi))
    # -0.0 is inside [0, 1] and comes back as it went in
    assert same_bits(plant.clip(np.array([-0.0]), 0.0, 1.0), np.array([-0.0]))


@pytest.mark.parametrize("lam", [1.0, np.linspace(0.9, 1.1, 12)], ids=["scalar", "vector_12"])
def test_field_operands_are_c_contiguous(lam):
    """Every array ``vector_field`` reads but ``W^T`` is C-ordered like the
    state, so no operation of a substep takes numpy's strided loop; layout
    shows in no value, only in time.  ``W^T`` is the transposed view of the
    C-ordered ``w``, which BLAS reads without a copy."""
    model = default_config().model.with_load(lam)
    *arrays_read, w_t = model._field
    for x in arrays_read:
        assert x.shape == model.equilibrium().shape and x.flags.c_contiguous
    assert w_t.base is model.w and model.w.flags.c_contiguous
    v = model.equilibrium() - 0.1
    out = step(model, v, np.full(v.shape[:-1] + (model.m,), 0.1), dt=0.75)
    assert out.flags.c_contiguous


class TestFault:
    def test_simple_sag(self):
        # no load sensitivity: every bus rests at 1.0 p.u.
        model = replace(default_config().model, d=np.zeros(6))
        out = faulted_initial_state(model, FaultSpec(affected=(0,), depth=0.3))
        assert out[0] == pytest.approx(0.7)
        assert np.all(out[1:] == 1.0)

    def test_floor_at_005(self):
        model = default_config().model
        out = faulted_initial_state(model, FaultSpec(affected=(0, 3), depth=0.99))
        assert out[0] == out[3] == plant.FAULT_FLOOR

    def test_empty_affected_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(affected=(), depth=0.2)
        # not a sequence: named, where list() raised a bare TypeError
        for affected in (5, None):
            with pytest.raises(ValueError, match=rf"fault buses .* \(got {affected}\)"):
                FaultSpec(affected=affected, depth=0.25)

    @pytest.mark.parametrize("lam", [1.0, np.array([0.9, 1.0, 1.1])], ids=["scalar", "vector_3"])
    def test_fresh_array_sagged_bus_by_bus(self, lam):
        cfg = default_config()
        model = cfg.model.with_load(lam)
        out = faulted_initial_state(model, cfg.fault)
        assert out.flags.writeable and out.flags.c_contiguous
        assert not np.shares_memory(out, model.equilibrium())
        expect = np.array(model.equilibrium())
        for i in cfg.fault.affected:
            expect[..., i] = np.maximum(expect[..., i] - cfg.fault.depth, plant.FAULT_FLOOR)
        assert same_bits(out, expect)

    def test_monotone_recovery_uncoupled(self):
        # all buses sagged, no coupling, no control: recovery toward v*
        base = default_config().model
        model = PlantModel(n=6, m=3, a=base.a, b=base.b, c=0.0, w=np.zeros((6, 6)),
                           gamma=base.gamma, v_max=base.v_max, d=base.d)
        state = faulted_initial_state(model, FaultSpec(affected=tuple(range(6)), depth=0.2))
        assert np.allclose(state, model.equilibrium() - 0.2)
        prev = state
        for _ in range(30):
            state = step(model, state, np.zeros(3), dt=0.25)
            assert np.all(state >= prev - 1e-12)
            prev = state
        assert np.max(np.abs(prev - model.equilibrium())) < 1e-5


@pytest.mark.parametrize("lam", [1.0, np.array([0.9, 1.0, 1.1])], ids=["scalar", "vector_3"])
def test_step_writes_into_no_input(lam):
    model = default_config().model.with_load(lam)
    v = model.equilibrium() - 0.1
    u = np.full(v.shape[:-1] + (model.m,), 0.1)
    v_in, u_in = v.copy(), u.copy()
    out = step(model, v, u, dt=0.75)
    assert same_bits(v, v_in) and same_bits(u, u_in)
    assert out is not v and not np.shares_memory(out, v)
    assert not same_bits(out, v)


class TestRollout:
    def test_zero_policy_from_equilibrium_constant(self):
        cfg = default_config()
        init = cfg.model.equilibrium()
        traj = rollout(cfg.model, init, zero_policy(cfg.model), cfg.schedule)
        assert np.max(np.abs(traj.voltages - cfg.model.equilibrium())) < 1e-9

    def test_sample_and_control_counts(self):
        cfg = default_config()
        init = cfg.model.equilibrium()
        traj = rollout(cfg.model, init, zero_policy(cfg.model), cfg.schedule)
        assert traj.voltages.shape == (5 * 4 + 1, 6)
        assert traj.controls.shape == (5, 3)
        assert np.allclose(np.diff(traj.times), cfg.schedule.ts)

    def test_full_control_raises_terminal_mean(self):
        cfg = default_config()
        init = faulted_initial_state(cfg.model, cfg.fault)
        t_zero = rollout(cfg.model, init, zero_policy(cfg.model), cfg.schedule)
        t_full = rollout(cfg.model, init, full_policy(cfg.model), cfg.schedule)
        assert t_full.voltages[-1].mean() > t_zero.voltages[-1].mean()

    def test_rollout_deterministic(self):
        cfg = default_config()
        init = faulted_initial_state(cfg.model, cfg.fault)
        a = rollout(cfg.model, init, full_policy(cfg.model), cfg.schedule)
        b = rollout(cfg.model, init, full_policy(cfg.model), cfg.schedule)
        assert np.array_equal(a.voltages, b.voltages)
        assert np.array_equal(a.controls, b.controls)

    def test_episode_has_leading_uncontrolled_interval(self):
        cfg = default_config()
        traj = run_episode(cfg.model, cfg.schedule, cfg.fault, full_policy(cfg.model))
        assert traj.controls.shape == (6, 3)
        assert np.all(traj.controls[0] == 0.0)
        assert np.all(traj.controls[1:] == U_MAX)
        assert traj.voltages.shape == (6 * 4 + 1, 6)


def random_coupling_config(seed: int):
    """The default plant with a dense random row-stochastic coupling."""
    cfg = default_config()
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, size=(6, 6))
    np.fill_diagonal(w, 0.0)
    w /= w.sum(axis=1, keepdims=True)
    model = PlantModel(n=6, m=3, a=cfg.model.a, b=cfg.model.b, c=cfg.model.c, w=w,
                       gamma=cfg.model.gamma, v_max=cfg.model.v_max, d=cfg.model.d)
    return plant.PlantConfig(model=model, schedule=cfg.schedule, fault=cfg.fault)


def batch_and_singles(data, cfg):
    """Up to four episodes with load factors in [0.9, 1.1], open-loop
    controls in [0, U_MAX] and one fault depth in (0, 1): one batched run
    and one run per episode."""
    n_episodes = data.draw(st.integers(1, 4))
    lams = data.draw(arrays(float, n_episodes, elements=st.floats(0.9, 1.1)))
    shape = (n_episodes, cfg.schedule.n_instants, cfg.model.m)
    controls = data.draw(arrays(float, shape, elements=st.floats(0.0, U_MAX)))
    depth = data.draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    fault = FaultSpec(affected=cfg.fault.affected, depth=depth)
    batch = run_episode(cfg.model.with_load(lams), cfg.schedule, fault,
                        lambda k, v: controls[:, k])
    singles = [
        run_episode(cfg.model.with_load(lam), cfg.schedule, fault,
                    lambda k, v, e=e: controls[e, k])
        for e, lam in enumerate(lams)
    ]
    return batch, singles


class TestBatch:
    @pytest.mark.parametrize("builder", [default_config, mirror_config])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_batch_matches_single_episodes_bitwise(self, builder, data):
        batch, singles = batch_and_singles(data, builder())
        assert batch.voltages.shape == (len(singles),) + singles[0].voltages.shape
        for e, single in enumerate(singles):
            assert np.array_equal(batch.voltages[e], single.voltages)
            assert np.array_equal(batch.controls[e], single.controls)

    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_batch_matches_single_episodes_random_coupling(self, data, seed):
        # BLAS may sum a dense coupling row in another order for a matrix
        batch, singles = batch_and_singles(data, random_coupling_config(seed))
        for e, single in enumerate(singles):
            assert np.max(np.abs(batch.voltages[e] - single.voltages)) <= 1e-12

    def test_state_must_match_load_factors(self):
        model = default_config().model.with_load([0.95, 1.05])
        with pytest.raises(ValueError):
            step(model, np.ones(6), np.zeros(3), dt=0.75)
        with pytest.raises(ValueError):
            step(model, np.ones((2, 6)), np.zeros(3), dt=0.75)
        out = step(model, model.equilibrium(), np.zeros((2, 3)), dt=0.75)
        assert np.max(np.abs(out - model.equilibrium())) < 1e-10


class TestConfigIO:
    def test_round_trip(self, tmp_path):
        cfg = default_config()
        save_config(cfg, tmp_path / "p.json")
        back = load_config(tmp_path / "p.json")
        assert np.array_equal(back.model.w, cfg.model.w)
        assert np.array_equal(back.model.gamma, cfg.model.gamma)
        assert back.schedule == cfg.schedule
        assert back.fault == cfg.fault

    def test_checked_in_configs_match_builders(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        for name, builder in (("default_plant.json", default_config),
                              ("mirror_plant.json", mirror_config)):
            on_disk = load_config(root / name)
            built = builder()
            assert plant.config_to_dict(on_disk) == plant.config_to_dict(built)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["a", "b", "c", "v_max", "d", "W", "gamma", "lambda",
                                       "Ts", "Tc"])
    def test_non_finite_parameter_rejected_by_name(self, field, value):
        # NaN passes every range check, so each field is checked for it first
        doc = plant.config_to_dict(default_config())
        if field in ("Ts", "Tc"):
            doc["schedule"][field] = value
        elif field in ("W", "gamma"):
            doc[field][1][0] = value
        elif field in ("a", "b", "d"):
            doc[field][2] = value
        else:
            doc[field] = value
        with pytest.raises(ValueError, match=rf"must be finite: {field}$"):
            plant.config_from_dict(doc)

    @pytest.mark.parametrize("affected, message", [
        ([-1], "non-negative integers"),
        ([1.5], "non-negative integers"),
        ([True], "non-negative integers"),
        ([2, 2], "distinct"),
        ([6], "below n = 6"),
        ([99], "below n = 6"),
    ], ids=["negative", "fractional", "boolean", "duplicate", "first_missing_bus", "far_out"])
    def test_bad_fault_bus_rejected(self, affected, message):
        doc = plant.config_to_dict(default_config())
        doc["fault"]["affected"] = affected
        with pytest.raises(ValueError, match=f"fault buses must be {message}"):
            plant.config_from_dict(doc)

    def test_missing_key_rejected(self, tmp_path):
        import json

        doc = plant.config_to_dict(default_config())
        del doc["gamma"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_config(path)


class TestWindowPolicy:
    def test_window_holds_the_last_h_samples(self):
        cfg = default_config()
        h = cfg.schedule.h
        lams = np.array([0.9, 1.0, 1.1])
        seen = {}

        def policy(k, window):
            seen[k] = window.copy()
            return np.full((len(lams), cfg.model.m), 0.1)

        init = faulted_initial_state(cfg.model.with_load(lams), cfg.fault)
        traj = rollout(cfg.model.with_load(lams), init, policy, cfg.schedule)
        assert seen[0].shape == (len(lams), cfg.model.n, h)
        # k = 0: only the initial sample exists, held h times over
        assert np.array_equal(seen[0], np.repeat(init[..., None], h, axis=-1))
        for k in range(1, cfg.schedule.n_instants):
            block = traj.voltages[:, (k - 1) * h + 1 : k * h + 1]
            assert np.array_equal(seen[k], block.swapaxes(-1, -2))
            assert np.array_equal(seen[k][..., -1], traj.voltages[:, k * h])

    @pytest.mark.parametrize("builder", [default_config, mirror_config])
    def test_windows_are_window_history(self, builder):
        # rollout and the dataset cut their windows with the same function
        cfg = builder()
        model = cfg.model.with_load(np.array([0.9, 1.0, 1.1]))
        seen = {}

        def policy(k, window):
            seen[k] = window
            return np.full((3, model.m), 0.05 * (k % 4))

        traj = rollout(model, faulted_initial_state(model, cfg.fault), policy, cfg.schedule)
        for k in range(1, cfg.schedule.n_instants):
            assert seen[k].flags.c_contiguous
            assert same_bits(seen[k], window_history(traj, k))

    def test_single_episode_window_is_n_by_h(self):
        cfg = default_config()
        shapes = []

        def policy(k, window):
            shapes.append(window.shape)
            return np.zeros(cfg.model.m)

        run_episode(cfg.model, cfg.schedule, cfg.fault, policy)
        assert shapes == [(cfg.model.n, cfg.schedule.h)] * cfg.schedule.n_instants


def nan_row_policy(row, m, n_episodes):
    """Zero control, except a NaN control row for episode ``row``."""
    def policy(k, window):
        u = np.zeros((n_episodes, m))
        u[row] = np.nan
        return u

    return policy


class TestEpisodeFailure:
    def test_failure_stays_in_its_episode(self):
        cfg = default_config()
        lams = np.array([0.95, 1.0, 1.05])
        batch = run_episode(cfg.model.with_load(lams), cfg.schedule, cfg.fault,
                            nan_row_policy(1, cfg.model.m, 3))
        assert batch.failed().tolist() == [False, True, False]
        # the failed episode is NaN from its first controlled step on
        first = cfg.schedule.h + 1
        assert np.all(np.isnan(batch.voltages[1, first:]))
        assert np.all(np.isfinite(batch.voltages[1, :first]))
        for e in (0, 2):
            single = run_episode(cfg.model.with_load(lams[e]), cfg.schedule, cfg.fault,
                                 zero_policy(cfg.model))
            assert np.array_equal(batch.voltages[e], single.voltages)
        assert not batch.episode(0).failed()
        batch.episode(0).check_finite()
        with pytest.raises(plant.IntegrationError, match=plant.NON_FINITE):
            batch.check_finite()

    def test_non_finite_dynamics_fail_the_episode(self):
        # a NaN load factor gives a NaN equilibrium: that episode fails from t = 0
        cfg = default_config()
        lams = np.array([1.0, np.nan])
        traj = run_episode(cfg.model.with_load(lams), cfg.schedule, cfg.fault,
                           zero_policy(cfg.model))
        assert traj.failed().tolist() == [False, True]
        single = run_episode(cfg.model, cfg.schedule, cfg.fault, zero_policy(cfg.model))
        assert np.array_equal(traj.voltages[0], single.voltages)

    def test_state_rows_are_finite_or_all_nan(self):
        # rollout's init is where a caller's state enters the integrator
        cfg = default_config()
        model = cfg.model.with_load(np.array([0.95, 1.05]))
        policy = zero_policy(model)
        init = np.array(model.equilibrium())
        init[1] = np.nan
        traj = rollout(model, init, policy, cfg.schedule)
        assert traj.failed().tolist() == [False, True]
        single = rollout(cfg.model.with_load(0.95), init[0], policy, cfg.schedule)
        assert np.array_equal(traj.voltages[0], single.voltages)
        init[1] = model.equilibrium()[1]
        init[1, 2] = np.nan
        with pytest.raises(plant.IntegrationError, match="state voltages must be finite"):
            rollout(model, init, policy, cfg.schedule)
        with pytest.raises(plant.IntegrationError, match="state voltages must be finite"):
            rollout(cfg.model, np.array([1.0, np.inf, 1.0, 1.0, 1.0, 1.0]), policy, cfg.schedule)
