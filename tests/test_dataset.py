import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from koopmanmpc import dataset
from koopmanmpc.dataset import (
    Dataset,
    DatasetFormatError,
    Scaler,
    ScalerError,
    fit_scaler,
    generate,
    load,
    rollout_seed,
    save,
    split,
    window_history,
)
from koopmanmpc.plant import (
    PlantState,
    U_MAX,
    default_config,
    full_policy,
    mirror_config,
    rollout,
    run_episode,
    zero_policy,
)


def small_dataset(n_loads=2, seed=7):
    cfg = default_config()
    return generate(cfg.model, cfg.schedule, n_loads=n_loads, seed=seed, fault=cfg.fault)


def empty_dataset(n, h, m, **kwargs):
    return Dataset(v_k=np.zeros((0, n, h)), u_k=np.zeros((0, m)), v_next=np.zeros((0, n, h)),
                   **kwargs)


class TestWindowing:
    def test_mirror_window_shape(self):
        cfg = mirror_config()
        traj = run_episode(cfg.model, cfg.schedule, cfg.fault, zero_policy(cfg.model))
        win = window_history(traj, 1)
        assert win.shape == (12, 4)

    def test_single_column_when_h_is_one(self):
        from koopmanmpc.plant import Schedule

        cfg = default_config()
        sched = Schedule(ts=3.0, tc=3.0, n_instants=3)
        init = PlantState(v=cfg.model.equilibrium())
        traj = rollout(cfg.model, init, zero_policy(cfg.model), sched)
        win = window_history(traj, 2)
        assert win.shape == (6, 1)
        assert np.array_equal(win[:, 0], traj.voltages[2])

    def test_constant_trajectory_windows_equal_equilibrium(self):
        cfg = default_config()
        init = PlantState(v=cfg.model.equilibrium())
        traj = rollout(cfg.model, init, zero_policy(cfg.model), cfg.schedule)
        win = window_history(traj, 3)
        assert np.max(np.abs(win - cfg.model.equilibrium()[:, None])) < 1e-9

    def test_last_column_is_sample_at_instant(self):
        cfg = default_config()
        traj = run_episode(cfg.model, cfg.schedule, cfg.fault, full_policy(cfg.model))
        h = cfg.schedule.h
        for k in (1, 3, 6):
            win = window_history(traj, k)
            assert np.array_equal(win[:, -1], traj.voltages[k * h])

    def test_adjacent_windows_share_no_columns(self):
        # successor window starts exactly one ts after the last column
        cfg = default_config()
        traj = run_episode(cfg.model, cfg.schedule, cfg.fault, full_policy(cfg.model))
        h = cfg.schedule.h
        w1 = window_history(traj, 1)
        w2 = window_history(traj, 2)
        assert np.array_equal(w2[:, 0], traj.voltages[h + 1])
        joined = np.hstack([w1, w2])
        assert np.array_equal(joined, traj.voltages[1 : 2 * h + 1].T)

    def test_batched_windows_are_per_episode_windows(self):
        cfg = default_config()
        batch = cfg.model.with_load(np.array([0.9, 1.0, 1.1]))
        traj = run_episode(batch, cfg.schedule, cfg.fault, full_policy(batch))
        for k in (1, 4, 6):
            win = window_history(traj, k)
            assert win.shape == (3, 6, cfg.schedule.h)
            for e in range(3):
                assert np.array_equal(win[e], window_history(traj.episode(e), k))

    def test_out_of_range_index(self):
        cfg = default_config()
        init = PlantState(v=cfg.model.equilibrium())
        traj = rollout(cfg.model, init, zero_policy(cfg.model), cfg.schedule)
        with pytest.raises(IndexError):
            window_history(traj, 0)
        with pytest.raises(IndexError):
            window_history(traj, 6)


class TestGenerate:
    def test_sample_count(self):
        ds = small_dataset(n_loads=2)
        assert len(ds) == 2 * 3 * 5

    def test_debug_zero_policy_only(self):
        cfg = default_config()
        ds = generate(cfg.model, cfg.schedule, n_loads=1, seed=0, fault=cfg.fault,
                      policies=("zero",))
        assert len(ds) == 5
        assert np.all(ds.u_k == 0.0)

    def test_same_seed_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            save(small_dataset(n_loads=2, seed=99), tmp_path / sub)
        for name in (dataset.MANIFEST_NAME, dataset.SAMPLES_NAME):
            da = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
            db = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
            assert da == db

    def test_different_seeds_differ(self):
        a = small_dataset(n_loads=1, seed=1)
        b = small_dataset(n_loads=1, seed=2)
        assert not dataset.datasets_equal(a, b)

    def test_controls_within_bounds(self):
        ds = small_dataset(n_loads=3)
        _, u, _ = ds.stacked()
        assert np.all(u >= 0.0) and np.all(u <= U_MAX)

    @pytest.mark.parametrize("builder, digest", [
        (default_config, "b972983aad90f9730fbd0199ca610184aca62d0ebaa3b209eaae36755def08bd"),
        (mirror_config, "d7347ea21a963019a873fd8580571bfb6011accb2b311811f28839c7790650be"),
    ])
    def test_golden_samples_bytes(self, builder, digest, tmp_path):
        # sha256 of samples.csv as written by the one-episode-at-a-time generator
        cfg = builder()
        save(generate(cfg.model, cfg.schedule, n_loads=3, seed=2022, fault=cfg.fault), tmp_path)
        assert hashlib.sha256((tmp_path / dataset.SAMPLES_NAME).read_bytes()).hexdigest() == digest

    def test_rollout_seed_mix_is_stable(self):
        # frozen values: the mix is a documented file-format-level contract
        assert rollout_seed(0, 0, 0) == rollout_seed(0, 0, 0)
        assert rollout_seed(1, 2, 3) != rollout_seed(1, 3, 2)
        assert rollout_seed(1, 2, 3) != rollout_seed(3, 2, 1)


class TestScaler:
    def test_voltage_endpoints(self):
        sc = Scaler(v_ref=1.0, v_lo=-0.1, v_hi=0.1)
        assert sc.normalize_v(0.9) == pytest.approx(0.0)
        assert sc.normalize_v(1.1) == pytest.approx(1.0)

    def test_control_endpoints(self):
        sc = Scaler(v_ref=1.0, v_lo=-0.1, v_hi=0.1)
        assert sc.normalize_u(0.0) == pytest.approx(-1.0)
        assert sc.normalize_u(0.25) == pytest.approx(1.0)

    @given(
        x=st.floats(min_value=0.5, max_value=1.2),
        lo=st.floats(min_value=-0.5, max_value=-0.01),
        hi=st.floats(min_value=0.01, max_value=0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_identity(self, x, lo, hi):
        sc = Scaler(v_ref=1.0, v_lo=lo, v_hi=hi)
        assert abs(sc.denormalize_v(sc.normalize_v(x)) - x) < 1e-12
        u = (x - 0.5) / 0.7 * 0.25
        assert abs(sc.denormalize_u(sc.normalize_u(u)) - u) < 1e-12

    def test_fitted_scaler_bounds_data(self):
        ds = small_dataset(n_loads=3)
        v_k, u, v_next = ds.stacked()
        nv = np.concatenate([ds.scaler.normalize_v(v_k).ravel(),
                             ds.scaler.normalize_v(v_next).ravel()])
        nu = ds.scaler.normalize_u(u)
        assert nv.min() >= -1e-12 and nv.max() <= 1.0 + 1e-12
        assert nu.min() >= -1.0 - 1e-12 and nu.max() <= 1.0 + 1e-12

    def test_degenerate_range_rejected(self):
        with pytest.raises(ScalerError):
            Scaler(v_ref=1.0, v_lo=0.0, v_hi=0.0)
        const = Dataset(v_k=np.ones((1, 2, 2)), u_k=np.zeros((1, 1)), v_next=np.ones((1, 2, 2)))
        with pytest.raises(ScalerError):
            fit_scaler(const)


class TestSplit:
    def test_ratio_70_30(self):
        ds = small_dataset(n_loads=10)  # 150 samples
        train, test = split(ds, 0.7, seed=4)
        assert len(train) == 105 and len(test) == 45

    def test_two_samples_half(self):
        ds = small_dataset(n_loads=1)
        ds2 = Dataset(v_k=ds.v_k[:2], u_k=ds.u_k[:2], v_next=ds.v_next[:2], scaler=ds.scaler)
        a, b = split(ds2, 0.5, seed=0)
        assert len(a) == 1 and len(b) == 1

    def test_deterministic_partition(self):
        ds = small_dataset(n_loads=4)
        a1, b1 = split(ds, 0.7, seed=11)
        a2, b2 = split(ds, 0.7, seed=11)
        assert dataset.datasets_equal(a1, a2) and dataset.datasets_equal(b1, b2)

    def test_partition_is_disjoint_cover(self):
        ds = small_dataset(n_loads=2)
        train, test = split(ds, 0.6, seed=3)
        assert len(train) + len(test) == len(ds)
        keys = lambda d: [d.v_k[i].tobytes() + d.u_k[i].tobytes() + d.v_next[i].tobytes()
                          for i in range(len(d))]
        assert sorted(keys(train) + keys(test)) == sorted(keys(ds))

    def test_empty_and_bad_ratio(self):
        ds = small_dataset(n_loads=1)
        with pytest.raises(ValueError):
            split(empty_dataset(6, 4, 3), 0.5, seed=0)
        with pytest.raises(ValueError):
            split(ds, 1.0, seed=0)
        with pytest.raises(ValueError, match="0 training and 15 held-out"):
            split(ds, 0.05, seed=0)  # 0.05 of 15 samples rounds down to none


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = small_dataset(n_loads=2)
        save(ds, tmp_path)
        back = load(tmp_path)
        assert dataset.datasets_equal(ds, back)

    def test_manifest_dimension_mismatch(self, tmp_path):
        ds = small_dataset(n_loads=1)
        save(ds, tmp_path)
        manifest = (tmp_path / dataset.MANIFEST_NAME).read_text()
        (tmp_path / dataset.MANIFEST_NAME).write_text(manifest.replace('"n": 6', '"n": 12'))
        with pytest.raises(DatasetFormatError):
            load(tmp_path)

    def test_empty_dataset_round_trip(self, tmp_path):
        ds = empty_dataset(0, 0, 0, meta={"note": "empty"})
        save(ds, tmp_path)
        back = load(tmp_path)
        assert len(back) == 0 and back.meta == {"note": "empty"}

    def test_non_finite_rejected(self, tmp_path):
        ds = small_dataset(n_loads=1)
        save(ds, tmp_path)
        lines = (tmp_path / dataset.SAMPLES_NAME).read_text().splitlines()
        cells = lines[1].split(",")
        cells[0] = "nan"
        lines[1] = ",".join(cells)
        (tmp_path / dataset.SAMPLES_NAME).write_text("\r\n".join(lines) + "\r\n")
        with pytest.raises(DatasetFormatError):
            load(tmp_path)

    @pytest.mark.parametrize("edit", ["drop", "repeat"])
    def test_row_count_must_match_manifest(self, tmp_path, edit):
        save(small_dataset(n_loads=1), tmp_path)
        lines = (tmp_path / dataset.SAMPLES_NAME).read_text().splitlines()
        lines = lines[:-1] if edit == "drop" else lines + lines[-1:]
        (tmp_path / dataset.SAMPLES_NAME).write_text("\r\n".join(lines) + "\r\n")
        with pytest.raises(DatasetFormatError, match="manifest promises 15 samples"):
            load(tmp_path)

    def test_non_numeric_rejected(self, tmp_path):
        ds = small_dataset(n_loads=1)
        save(ds, tmp_path)
        lines = (tmp_path / dataset.SAMPLES_NAME).read_text().splitlines()
        cells = lines[3].split(",")
        cells[5] = "1.0x"
        lines[3] = ",".join(cells)
        (tmp_path / dataset.SAMPLES_NAME).write_text("\r\n".join(lines) + "\r\n")
        with pytest.raises(DatasetFormatError, match="row 2 "):
            load(tmp_path)

    @given(data=st.data(), s=st.integers(0, 6), n=st.integers(1, 3), h=st.integers(1, 3),
           m=st.integers(0, 2))
    @settings(max_examples=50, deadline=None)
    def test_save_load_round_trip_is_bit_exact(self, tmp_path_factory, data, s, n, h, m):
        cell = st.floats(allow_nan=False, allow_infinity=False)
        arrays = [data.draw(hnp.arrays(float, shape, elements=cell))
                  for shape in ((s, n, h), (s, m), (s, n, h))]
        ds = Dataset(*arrays, scaler=Scaler.identity(), meta={"s": s})
        out = tmp_path_factory.mktemp("ds")
        save(ds, out)
        back = load(out)
        assert back.dims == (n, h, m) and back.meta == {"s": s}
        for got, want in zip(back.stacked(), arrays):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestDatasetShapes:
    @pytest.mark.parametrize("v_k, u_k, v_next", [
        ((3, 2, 4), (3, 1), (3, 2, 5)),  # histories differ in h
        ((3, 2, 4), (3, 1), (2, 2, 4)),  # histories differ in S
        ((3, 2, 4), (2, 1), (3, 2, 4)),  # controls for a different S
        ((3, 8), (3, 1), (3, 8)),  # flattened histories
        ((3, 2, 4), (3,), (3, 2, 4)),  # controls not a matrix
    ])
    def test_mismatched_shapes_rejected(self, v_k, u_k, v_next):
        with pytest.raises(ValueError):
            Dataset(v_k=np.zeros(v_k), u_k=np.zeros(u_k), v_next=np.zeros(v_next))


class TestScalerRoundTrip:
    @given(
        v_ref=st.floats(0.5, 1.5),
        v_lo=st.floats(-1.0, 0.5),
        v_width=st.floats(1e-3, 2.0),
        u_lo=st.floats(-1.0, 0.5),
        u_width=st.floats(1e-3, 2.0),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_normalize_then_denormalize_is_identity(self, v_ref, v_lo, v_width, u_lo,
                                                    u_width, data):
        sc = Scaler(v_ref=v_ref, v_lo=v_lo, v_hi=v_lo + v_width, u_lo=u_lo, u_hi=u_lo + u_width)
        v = data.draw(hnp.arrays(float, (3, 4), elements=st.floats(0.0, 2.0)))
        u = data.draw(hnp.arrays(float, 5, elements=st.floats(u_lo - 1.0, u_lo + u_width + 1.0)))
        assert np.max(np.abs(sc.denormalize_v(sc.normalize_v(v)) - v)) <= 1e-12
        assert np.max(np.abs(sc.denormalize_u(sc.normalize_u(u)) - u)) <= 1e-12
