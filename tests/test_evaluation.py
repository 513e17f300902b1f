import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmanmpc import evaluation
from koopmanmpc.dataset import Scaler
from koopmanmpc.deep_koopman import KoopmanNet, KoopmanNetConfig, extract
from koopmanmpc.evaluation import (
    ComparisonReport,
    VvcParams,
    compare,
    performance_index,
    vvc_policy,
)
from koopmanmpc.mpc import MpcPolicy
from koopmanmpc.plant import (
    PlantModel,
    Schedule,
    Trajectory,
    U_MAX,
    default_config,
    run_episode,
    zero_policy,
)


def make_traj(voltages, ts=0.75):
    voltages = np.asarray(voltages, dtype=float)
    n_samples = voltages.shape[0]
    h = n_samples - 1 if n_samples > 1 else 1
    sched = Schedule(ts=ts, tc=ts * h, n_instants=1)
    return Trajectory(
        times=ts * np.arange(n_samples),
        voltages=voltages,
        controls=np.zeros((1, 1)),
        schedule=sched,
    )


class TestVvcPolicy:
    def test_deadband_above_threshold(self):
        params = VvcParams(deadband=0.95, gain=2.5)
        assert vvc_policy(0.95, params) == 0.0
        assert vvc_policy(1.02, params) == 0.0

    def test_saturation_boundary(self):
        params = VvcParams(deadband=0.95, gain=2.5, u_max=0.25)
        v = 0.95 - 0.25 / 2.5
        assert vvc_policy(v, params) == pytest.approx(0.25)

    def test_deep_sag_clamps(self):
        params = VvcParams(deadband=0.95, gain=2.5, u_max=0.25)
        # raw response 2.5 * 0.10 = 0.25 at v = 0.85; anything deeper clamps
        assert vvc_policy(0.85, params) == pytest.approx(0.25)
        assert vvc_policy(0.5, params) == pytest.approx(0.25)

    @given(v=st.floats(min_value=0.0, max_value=1.2))
    @settings(max_examples=200, deadline=None)
    def test_always_feasible(self, v):
        params = VvcParams()
        u = vvc_policy(v, params)
        assert 0.0 <= u <= U_MAX


class TestPerformanceIndex:
    def test_zero_at_reference(self):
        traj = make_traj(np.ones((10, 3)))
        assert performance_index(traj, v_ref=1.0) == 0.0

    def test_hand_computed_sum(self):
        # one bus, ten samples, constant deviation 0.1 -> J = 1.0
        traj = make_traj(np.full((10, 1), 0.9))
        assert performance_index(traj, v_ref=1.0) == pytest.approx(1.0)

    def test_unmonitored_bus_ignored(self):
        v = np.ones((10, 2))
        v[:, 1] = 0.5
        traj = make_traj(v)
        assert performance_index(traj, v_ref=1.0, monitored=(0,)) == 0.0

    def test_empty_monitored_rejected(self):
        traj = make_traj(np.ones((4, 2)))
        with pytest.raises(ValueError):
            performance_index(traj, monitored=())

    def test_additive_over_disjoint_parts(self):
        rng = np.random.default_rng(0)
        v = rng.uniform(0.9, 1.1, size=(12, 3))
        whole = performance_index(make_traj(v))
        parts = performance_index(make_traj(v[:5])) + performance_index(make_traj(v[5:]))
        assert whole == pytest.approx(parts, rel=1e-12)


def untrained_model(seed=0):
    net = KoopmanNet(KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=16, lstm_hidden=4,
                                      seed=seed))
    return extract(net, Scaler(v_ref=1.0, v_lo=-0.3, v_hi=0.1))


class TestCompare:
    def test_zero_budget_makes_all_controllers_equal(self):
        cfg = default_config()
        report = compare(
            untrained_model(),
            cfg,
            n_cases=3,
            seed=5,
            vvc_params=VvcParams(gain=0.0, u_max=0.0),
            mpc_kwargs={"u_max_pu": 0.0},
        )
        for rec in report.records:
            assert rec.ok
            assert rec.j_no_control == pytest.approx(rec.j_vvc, rel=1e-12)
            assert rec.j_no_control == pytest.approx(rec.j_mpc, rel=1e-12)

    def test_same_seed_identical_report(self):
        cfg = default_config()
        kwargs = dict(n_cases=2, seed=9)
        a = compare(untrained_model(), cfg, **kwargs)
        b = compare(untrained_model(), cfg, **kwargs)
        assert a.records == b.records
        assert a.win_fraction == b.win_fraction

    def test_failing_case_is_flagged_not_fatal(self):
        cfg = default_config()
        report = compare(
            untrained_model(),
            cfg,
            n_cases=2,
            seed=1,
            mpc_kwargs={"tol": 1e-14, "max_iter": 1},  # force solver failure
        )
        assert all(not r.ok for r in report.records)
        assert all(r.error for r in report.records)
        assert report.win_fraction == 0.0
        for r in report.records:
            residual = re.search(r"residual (\S+)", r.error)
            assert residual and np.isfinite(float(residual.group(1)))

    def test_programming_error_is_not_a_failed_case(self):
        with pytest.raises(ValueError):
            compare(untrained_model(), default_config(), n_cases=1, seed=1, monitored=(99,))

    def test_batched_baselines_match_single_episodes(self):
        cfg = default_config()
        params = VvcParams(deadband=0.99)
        report = compare(untrained_model(), cfg, n_cases=2, seed=4, vvc_params=params)
        vvc = evaluation.vvc_episode_policy(cfg.model.control_buses(), params)
        for r in report.records:
            plant = cfg.model.with_load(r.load_factor)
            j_no = performance_index(
                run_episode(plant, cfg.schedule, cfg.fault, zero_policy(plant)))
            j_vvc = performance_index(run_episode(plant, cfg.schedule, cfg.fault, vvc))
            assert (r.j_no_control, r.j_vvc) == (j_no, j_vvc)
            assert j_vvc < j_no

    def test_report_files(self, tmp_path):
        cfg = default_config()
        report = compare(untrained_model(), cfg, n_cases=2, seed=3)
        report.to_csv(tmp_path / "cmp.csv")
        report.to_json(tmp_path / "sum.json")
        lines = (tmp_path / "cmp.csv").read_text().splitlines()
        assert len(lines) == 3
        import json

        doc = json.loads((tmp_path / "sum.json").read_text())
        assert doc["n_cases"] == 2 and "win_fraction" in doc

    def test_load_factors_span_range(self):
        cfg = default_config()
        report = compare(untrained_model(), cfg, n_cases=40, seed=2,
                         mpc_kwargs={"u_max_pu": 0.0})
        lams = np.array([r.load_factor for r in report.records])
        assert lams.min() >= 0.9 and lams.max() <= 1.1
        assert lams.std() > 0.02


class TestVvcClosesLoop:
    def test_default_deadband_stays_quiet_after_fast_recovery(self):
        # voltages recover above the 0.95 deadband within the first interval,
        # so the default rule never engages and matches the no-control run
        cfg = default_config()
        policy = evaluation.vvc_episode_policy(cfg.model.control_buses(), VvcParams())
        traj = run_episode(cfg.model, cfg.schedule, cfg.fault, policy)
        assert np.all(traj.controls == 0.0)

    def test_tight_deadband_engages_and_improves_j(self):
        cfg = default_config()
        params = VvcParams(deadband=0.98, gain=2.5)
        policy = evaluation.vvc_episode_policy(cfg.model.control_buses(), params)
        traj = run_episode(cfg.model, cfg.schedule, cfg.fault, policy)
        # bus 2 is faulted and owns a control channel
        assert traj.controls[1, 1] > 0.0
        assert traj.controls[-1, 1] < traj.controls[1, 1]  # backs off as v recovers
        j_vvc = performance_index(traj)
        j_no = performance_index(
            run_episode(cfg.model, cfg.schedule, cfg.fault, zero_policy(cfg.model))
        )
        assert j_vvc < j_no


def case_iterations(model, cfg, n_cases, seed, **mpc_kwargs):
    """Per case, the per-instant PGD iteration counts of the sequential loop."""
    from sequential_reference import case_load, receding_horizon as reference

    counts = []
    for idx in range(n_cases):
        loop = reference(model, cfg.model.with_load(case_load(seed, idx)), cfg.schedule,
                         fault=cfg.fault, **mpc_kwargs)
        counts.append([d["iterations"] for d in loop.diagnostics])
    return counts


class TestOneRollout:
    @pytest.mark.parametrize("kind", ["net", "edmd"])
    def test_matches_the_sequential_reference(self, bench_models, kind):
        from sequential_reference import compare as reference

        cfg = default_config()
        report = compare(bench_models[kind], cfg, n_cases=8, seed=20240)
        records, win_fraction = reference(bench_models[kind], cfg, n_cases=8, seed=20240)
        assert report.records == records
        assert report.win_fraction == win_fraction
        assert all(r.ok for r in records)

    @pytest.mark.parametrize("kind", ["net", "edmd"])
    def test_per_instant_iterations_match_the_sequential_loop(self, bench_models, kind):
        from sequential_reference import case_load

        cfg = default_config()
        lams = np.array([case_load(7, idx) for idx in range(4)])
        policy = MpcPolicy(bench_models[kind], cfg.model, cfg.schedule)
        run_episode(cfg.model.with_load(lams), cfg.schedule, cfg.fault, policy)
        got = [[d["iterations"] for d in rows] for rows in policy.diagnostics]
        assert got == case_iterations(bench_models[kind], cfg, n_cases=4, seed=7)

    @pytest.mark.parametrize("kind", ["net", "edmd"])
    def test_record_does_not_depend_on_the_batch(self, small_models, kind):
        cfg = default_config()
        three = compare(small_models[kind], cfg, n_cases=3, seed=11)
        ten = compare(small_models[kind], cfg, n_cases=10, seed=11)
        assert three.records == ten.records[:3]

    def test_one_non_converging_case_leaves_the_others(self, small_models):
        # iteration counts differ by case for this model: a budget that the
        # cheapest cases meet fails the others at their first instant over it
        from sequential_reference import compare as reference

        cfg = default_config()
        model = small_models["edmd"]
        worst = [max(c) for c in case_iterations(model, cfg, n_cases=6, seed=3)]
        max_iter = min(worst)
        assert max_iter < max(worst)
        kwargs = dict(n_cases=6, seed=3, mpc_kwargs={"max_iter": max_iter})
        report = compare(model, cfg, **kwargs)
        records, win_fraction = reference(model, cfg, **kwargs)
        assert list(map(repr, report.records)) == list(map(repr, records))  # nan J on failures
        assert report.win_fraction == win_fraction
        assert [r.ok for r in records] == [w <= max_iter for w in worst]
        assert all("QpNonConvergence: closed loop aborted at instant" in r.error
                   for r in records if not r.ok)

    def test_one_non_finite_case_leaves_the_others(self, bench_models):
        # the second case's MPC episode gets a NaN load factor: its plant
        # integrates to NaN from the fault on
        from dataclasses import replace

        from sequential_reference import compare as reference

        class NanLoad(PlantModel):
            def with_load(self, lam):
                lam = np.array(lam, dtype=float)
                lam[2 * 4 + 1] = np.nan
                return replace(self, lam=lam)

        cfg = default_config()
        model = bench_models["edmd"]
        sick = replace(cfg, model=NanLoad(**{f: getattr(cfg.model, f) for f in (
            "n", "m", "a", "b", "c", "w", "gamma", "v_max", "d", "lam")}))
        report = compare(model, sick, n_cases=4, seed=5)
        records, _ = reference(model, cfg, n_cases=4, seed=5)
        assert [r.ok for r in report.records] == [True, False, True, True]
        assert report.records[1].error == "IntegrationError: integration produced non-finite voltages"
        for got, ref in zip(report.records, records):
            if got.ok:
                assert got == ref

    def test_monitored_buses_checked_before_any_rollout(self, monkeypatch):
        calls = []
        monkeypatch.setattr(evaluation, "run_episode", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="monitored"):
            compare(untrained_model(), default_config(), n_cases=2, seed=1, monitored=(99,))
        assert calls == []
