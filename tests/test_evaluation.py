import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopmanmpc import evaluation, mpc
from koopmanmpc.dataset import DatasetConfig, Scaler, generate
from koopmanmpc.deep_koopman import KoopmanNet, KoopmanNetConfig, extract
from koopmanmpc.edmd import fit, identity_dictionary
from koopmanmpc.evaluation import (
    EvalConfig,
    VvcParams,
    compare,
    performance_index,
    vvc_policy,
)
from koopmanmpc.mpc import MpcConfig, MpcPolicy, receding_horizon
from koopmanmpc.plant import (
    PlantModel,
    Schedule,
    Trajectory,
    U_MAX,
    default_config,
    mirror_config,
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
        params = VvcParams(deadband=0.95, gain=2.5)
        v = 0.95 - 0.25 / 2.5
        assert vvc_policy(v, params) == pytest.approx(0.25)

    def test_deep_sag_clamps(self):
        params = VvcParams(deadband=0.95, gain=2.5)
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
        assert performance_index(traj) == 0.0

    def test_hand_computed_sum(self):
        # one bus, ten samples, constant deviation 0.1 -> J = 1.0
        traj = make_traj(np.full((10, 1), 0.9))
        assert performance_index(traj) == pytest.approx(1.0)

    def test_unmonitored_bus_ignored(self):
        v = np.ones((10, 2))
        v[:, 1] = 0.5
        traj = make_traj(v)
        assert performance_index(traj, monitored=(0,)) == 0.0

    def test_empty_monitored_rejected(self):
        traj = make_traj(np.ones((4, 2)))
        with pytest.raises(ValueError):
            performance_index(traj, monitored=())

    def test_repeated_monitored_rejected(self):
        # a repeated bus would count twice in J
        traj = make_traj(np.ones((4, 2)))
        with pytest.raises(ValueError, match="distinct"):
            performance_index(traj, monitored=(1, 1))

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
    def test_zero_budget_makes_all_controllers_equal(self, monkeypatch):
        cfg = default_config()
        monkeypatch.setattr(mpc, "U_MAX", 0.0)  # the MPC's bound, read when its policy is built
        report = compare(
            untrained_model(),
            cfg,
            EvalConfig(n_cases=3),
            seed=5,
            vvc=VvcParams(gain=0.0),
        )
        for rec in report.records:
            assert rec.ok
            assert rec.j_no_control == pytest.approx(rec.j_vvc, rel=1e-12)
            assert rec.j_no_control == pytest.approx(rec.j_mpc, rel=1e-12)

    def test_same_seed_identical_report(self):
        cfg = default_config()
        a = compare(untrained_model(), cfg, EvalConfig(n_cases=2), seed=9)
        b = compare(untrained_model(), cfg, EvalConfig(n_cases=2), seed=9)
        assert a.records == b.records
        assert a.win_fraction == b.win_fraction

    def test_failing_case_is_flagged_not_fatal(self):
        cfg = default_config()
        report = compare(
            untrained_model(),
            cfg,
            EvalConfig(n_cases=2),
            seed=1,
            mpc=MpcConfig(tol=1e-14, max_iter=1),  # force solver failure
        )
        assert all(not r.ok for r in report.records)
        assert all(r.error for r in report.records)
        assert report.win_fraction == 0.0
        for r in report.records:
            residual = re.search(r"residual (\S+)", r.error)
            assert residual and np.isfinite(float(residual.group(1)))

    def test_programming_error_is_not_a_failed_case(self):
        with pytest.raises(ValueError):
            compare(untrained_model(), default_config(), EvalConfig(n_cases=1, monitored=[99]),
                    seed=1)

    def test_batched_baselines_match_single_episodes(self):
        cfg = default_config()
        params = VvcParams(deadband=0.99)
        report = compare(untrained_model(), cfg, EvalConfig(n_cases=2), seed=4, vvc=params)
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
        report = compare(untrained_model(), cfg, EvalConfig(n_cases=2), seed=3)
        report.to_csv(tmp_path / "cmp.csv")
        report.to_json(tmp_path / "sum.json")
        lines = (tmp_path / "cmp.csv").read_text().splitlines()
        assert len(lines) == 3
        import json

        doc = json.loads((tmp_path / "sum.json").read_text())
        assert doc["n_cases"] == 2 and "win_fraction" in doc

    def test_load_factors_span_range(self, monkeypatch):
        cfg = default_config()
        monkeypatch.setattr(mpc, "U_MAX", 0.0)  # the MPC's bound, read when its policy is built
        report = compare(untrained_model(), cfg, EvalConfig(n_cases=40), seed=2)
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
        report = compare(bench_models[kind], cfg, EvalConfig(n_cases=8), seed=20240)
        records, win_fraction = reference(bench_models[kind], cfg, n_cases=8, seed=20240)
        assert report.records == records
        assert report.win_fraction == win_fraction
        assert all(r.ok for r in records)

    @pytest.mark.parametrize("kind", ["net", "edmd"])
    def test_per_instant_iterations_match_the_sequential_loop(self, bench_models, kind):
        from sequential_reference import case_load

        cfg = default_config()
        lams = np.array([case_load(7, idx) for idx in range(4)])
        policy = MpcPolicy(bench_models[kind], cfg)
        run_episode(cfg.model.with_load(lams), cfg.schedule, cfg.fault, policy)
        got = [[d["iterations"] for d in rows] for rows in policy.diagnostics]
        assert got == case_iterations(bench_models[kind], cfg, n_cases=4, seed=7)

    @pytest.mark.parametrize("kind", ["net", "edmd"])
    def test_record_does_not_depend_on_the_batch(self, small_models, kind):
        cfg = default_config()
        three = compare(small_models[kind], cfg, EvalConfig(n_cases=3), seed=11)
        ten = compare(small_models[kind], cfg, EvalConfig(n_cases=10), seed=11)
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
        report = compare(model, cfg, EvalConfig(n_cases=6), seed=3, mpc=MpcConfig(max_iter=max_iter))
        records, win_fraction = reference(model, cfg, n_cases=6, seed=3,
                                          mpc_kwargs={"max_iter": max_iter})
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
        report = compare(model, sick, EvalConfig(n_cases=4), seed=5)
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
            compare(untrained_model(), default_config(), EvalConfig(n_cases=2, monitored=[99]),
                    seed=1)
        assert calls == []


class TestMirrorPlant:
    """The closed loop on the twelve-bus plant, whose five controls sit on
    buses 0, 1, 3, 4, 11 and whose fault is on buses 9-11."""

    def test_closed_loop_and_compare(self, monkeypatch):
        cfg = mirror_config()
        ds = generate(cfg, DatasetConfig(n_loads=4), seed=8)
        model = fit(ds, identity_dictionary(cfg.model.n * cfg.schedule.h), ridge=1e-6)

        loop = receding_horizon(model, cfg)
        assert not loop.aborted
        assert loop.applied_controls.shape == (cfg.schedule.n_instants, 5)
        assert np.all((loop.applied_controls >= 0.0) & (loop.applied_controls <= U_MAX))

        rollouts = []

        def recorded(*args):
            rollouts.append(run_episode(*args))
            return rollouts[-1]

        monkeypatch.setattr(evaluation, "run_episode", recorded)
        report = compare(model, cfg, EvalConfig(n_cases=3), seed=13)
        assert [r.ok for r in report.records] == [True, True, True]
        (batch,) = rollouts
        assert np.all((batch.controls >= 0.0) & (batch.controls <= U_MAX))

        # the MPC row of case 1 (rows: 3 no-control, 3 VVC, 3 MPC) is the
        # single-episode closed loop at that case's load, bit for bit
        case = report.records[1]
        single = receding_horizon(model, replace(cfg, model=cfg.model.with_load(case.load_factor)))
        row = batch.episode(2 * 3 + 1)
        assert np.array_equal(row.voltages, single.trajectory.voltages)
        assert np.array_equal(row.controls, single.trajectory.controls)
        assert case.j_mpc == performance_index(single.trajectory)


class TestGoldenClosedLoop:
    """sha256 of the closed-loop artifacts on each shipped plant: an
    identity-dictionary EDMD model (ridge 1e-8) fit on four seeded load
    cases, its 3-case ``compare`` at seed 5 and its ``receding_horizon``
    run.  Criterion 9 compares reruns with each other; these pin the
    bits themselves.  Four load cases, not three: on the mirror plant three
    give 45 samples for 48 features, and every QP of that model stops at
    its iteration cap, so the files would pin only the failure."""

    @pytest.mark.parametrize("builder, cmp_digest, loop_digest", [
        (default_config,
         "e0267c11a01080d59b0b6969a49bc4cd4d5fc6ebf0ab01cbe6fbcff651b64b3d",
         "27eaa456fe3bb6b19b7931cead2182b3b86ea0cb44a2477885216bc4a3aede57"),
        (mirror_config,
         "30dd7c4a0a76741de92b018d3ca0397c93ecd748923b8fe53608680f71a1f621",
         "822edaf936931dfd3810c06b58ee6283556a4aa5ce6ee114c37a6ccf30790de1"),
    ], ids=["default_config", "mirror_config"])
    def test_golden_closed_loop_bytes(self, builder, cmp_digest, loop_digest, tmp_path):
        cfg = builder()
        ds = generate(cfg, DatasetConfig(n_loads=4), seed=2022)
        model = fit(ds, identity_dictionary(cfg.model.n * cfg.schedule.h), ridge=1e-8)
        report = compare(model, cfg, EvalConfig(n_cases=3), seed=5)
        loop = receding_horizon(model, cfg)
        assert all(r.ok for r in report.records) and not loop.aborted
        report.to_csv(tmp_path / "comparison.csv")
        loop.to_csv(tmp_path / "closed_loop.csv")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("comparison.csv", "closed_loop.csv")}
        assert digests == {"comparison.csv": cmp_digest, "closed_loop.csv": loop_digest}
