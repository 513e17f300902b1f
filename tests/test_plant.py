import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from koopmanmpc import plant
from koopmanmpc.plant import (
    FaultSpec,
    PlantModel,
    PlantState,
    Schedule,
    U_MAX,
    apply_fault,
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
            state = PlantState(v=m.equilibrium())
            out = step(m, state, np.zeros(3), dt=0.75)
            assert np.max(np.abs(out.v - m.equilibrium())) < 1e-10

    def test_ceiling_saturation_kills_control_term(self):
        model = default_config().model
        v = np.full(6, model.v_max)
        f_zero = vector_field(model, v, np.zeros(3))
        f_full = vector_field(model, v, np.full(3, U_MAX))
        assert np.array_equal(f_zero, f_full)

    def test_linear_ode_matches_closed_form(self):
        # dv/dt = 2 (1 - v), v(0) = 0.9 -> v(t) = 1 - 0.1 exp(-2 t)
        model = scalar_plant(a=2.0)
        out = step(model, PlantState(v=np.array([0.9])), np.zeros(1), dt=0.1)
        expect = 1.0 - 0.1 * np.exp(-0.2)
        assert abs(out.v[0] - expect) < 1e-8

    def test_monotone_control_response(self):
        model = default_config().model
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.uniform(0.5, model.v_max - 1e-6, size=6)
            u1 = rng.uniform(0, U_MAX, size=3)
            bump = rng.uniform(0, U_MAX - u1.max(), size=1)
            u2 = np.minimum(u1 + bump, U_MAX)
            assert np.all(vector_field(model, v, u2) >= vector_field(model, v, u1))

    def test_rk4_convergence_halving(self):
        cfg = default_config()
        state = faulted_initial_state(cfg.model.with_load(1.1), cfg.fault)

        def advance(substep_scale):
            s = state
            for _ in range(cfg.schedule.h):
                s = step(cfg.model, s, np.full(3, U_MAX), cfg.schedule.ts,
                         substeps=substep_scale * n_substeps(cfg.schedule.ts))
            return s.v

        diff = np.max(np.abs(advance(1) - advance(2)))
        assert diff < 1e-6

    def test_rejects_out_of_range_controls(self):
        model = default_config().model
        state = PlantState(v=model.equilibrium())
        with pytest.raises(ValueError):
            step(model, state, np.full(3, U_MAX + 0.01), dt=0.75)
        with pytest.raises(ValueError):
            step(model, state, np.zeros(3), dt=-1.0)

    def test_state_clamped_to_physical_range(self):
        model = default_config().model
        out = step(model, PlantState(v=np.full(6, 0.05)), np.full(3, U_MAX), dt=5.0)
        assert np.all(out.v >= 0.0) and np.all(out.v <= model.v_max)


class TestFault:
    def test_simple_sag(self):
        state = PlantState(v=np.ones(6))
        out = apply_fault(state, affected=(0,), depth=0.3)
        assert out.v[0] == pytest.approx(0.7)
        assert np.all(out.v[1:] == 1.0)

    def test_floor_at_005(self):
        state = PlantState(v=np.array([0.2, 1.0]))
        out = apply_fault(state, affected=(0,), depth=0.5)
        assert out.v[0] == pytest.approx(0.05)

    def test_empty_affected_rejected(self):
        with pytest.raises(ValueError):
            apply_fault(PlantState(v=np.ones(3)), affected=(), depth=0.2)

    def test_monotone_recovery_uncoupled(self):
        # all buses sagged, no coupling, no control: recovery toward v*
        base = default_config().model
        model = PlantModel(n=6, m=3, a=base.a, b=base.b, c=0.0, w=np.zeros((6, 6)),
                           gamma=base.gamma, v_max=base.v_max, d=base.d)
        state = apply_fault(PlantState(v=model.equilibrium()), range(6), 0.2)
        assert np.allclose(state.v, model.equilibrium() - 0.2)
        prev = state.v
        for _ in range(30):
            state = step(model, state, np.zeros(3), dt=0.25)
            assert np.all(state.v >= prev - 1e-12)
            prev = state.v
        assert np.max(np.abs(prev - model.equilibrium())) < 1e-5


class TestRollout:
    def test_zero_policy_from_equilibrium_constant(self):
        cfg = default_config()
        init = PlantState(v=cfg.model.equilibrium())
        traj = rollout(cfg.model, init, zero_policy(cfg.model), cfg.schedule)
        assert np.max(np.abs(traj.voltages - cfg.model.equilibrium())) < 1e-9

    def test_sample_and_control_counts(self):
        cfg = default_config()
        init = PlantState(v=cfg.model.equilibrium())
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
            step(model, PlantState(v=np.ones(6)), np.zeros(3), dt=0.75)
        with pytest.raises(ValueError):
            step(model, PlantState(v=np.ones((2, 6))), np.zeros(3), dt=0.75)
        out = step(model, PlantState(v=model.equilibrium()), np.zeros((2, 3)), dt=0.75)
        assert np.max(np.abs(out.v - model.equilibrium())) < 1e-10


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
        assert np.array_equal(seen[0], np.repeat(init.v[..., None], h, axis=-1))
        for k in range(1, cfg.schedule.n_instants):
            block = traj.voltages[:, (k - 1) * h + 1 : k * h + 1]
            assert np.array_equal(seen[k], block.swapaxes(-1, -2))
            assert np.array_equal(seen[k][..., -1], traj.voltages[:, k * h])

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
        PlantState(v=np.array([[1.0, 1.0], [np.nan, np.nan]]))
        with pytest.raises(plant.IntegrationError):
            PlantState(v=np.array([[1.0, 1.0], [np.nan, 1.0]]))
        with pytest.raises(plant.IntegrationError):
            PlantState(v=np.array([1.0, np.inf]))
