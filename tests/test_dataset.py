import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from koopmanmpc import dataset
from koopmanmpc.dataset import (
    Dataset,
    DatasetConfig,
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
    return generate(cfg, DatasetConfig(n_loads=n_loads), seed=seed)


def empty_dataset(n, h, m, **kwargs):
    return Dataset(v_k=np.zeros((0, n, h)), u_k=np.zeros((0, m)), v_next=np.zeros((0, n, h)),
                   scaler=Scaler.identity(), **kwargs)


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
        init = cfg.model.equilibrium()
        traj = rollout(cfg.model, init, zero_policy(cfg.model), sched)
        win = window_history(traj, 2)
        assert win.shape == (6, 1)
        assert np.array_equal(win[:, 0], traj.voltages[2])

    def test_constant_trajectory_windows_equal_equilibrium(self):
        cfg = default_config()
        init = cfg.model.equilibrium()
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
        init = cfg.model.equilibrium()
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
        ds = generate(cfg, DatasetConfig(n_loads=1, policies=("zero",)), seed=0)
        assert len(ds) == 5
        assert np.all(ds.u_k == 0.0)

    @pytest.mark.parametrize("field, kwargs", [
        ("n_loads", dict(n_loads=0)),
        ("policies", dict(policies=())),
        ("policies", dict(policies=("zero", "bogus"))),
        ("policies", dict(policies=("zero", "zero"))),
    ])
    def test_bad_arguments_rejected_at_the_call(self, field, kwargs):
        # generate takes its sizes as a DatasetConfig, whose constructor
        # is their one check
        with pytest.raises(ValueError, match=field):
            DatasetConfig(**{"n_loads": 1, **kwargs})

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
        (default_config, "5e28e1ebc004e564b19f822747889328f8b7ac33d21c4146e5377a6802ab6825"),
        (mirror_config, "ca0b291c75eddda95f0fb361ecc2a8a4e2abc61f1e5e728f6c6d9d74fcedd864"),
    ], ids=["default_config", "mirror_config"])
    def test_golden_samples_bytes(self, builder, digest, tmp_path):
        # sha256 of samples.csv from the batched generator, whose plant
        # evaluates the cube as a product (the same bits on any IEEE-754 host)
        cfg = builder()
        save(generate(cfg, DatasetConfig(n_loads=3), seed=2022), tmp_path)
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
        with pytest.raises(ScalerError):
            fit_scaler(np.ones((1, 2, 2)), np.ones((1, 2, 2)))

    def test_generate_fits_its_scaler_on_its_histories(self):
        ds = small_dataset(n_loads=2)
        assert ds.scaler == fit_scaler(ds.v_k, ds.v_next)

    def test_empty_histories_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            fit_scaler(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))


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

    @pytest.mark.parametrize("message, edit", [
        ("scaler v_lo must be a number (got None)", lambda doc: doc["scaler"].pop("v_lo")),
        ("scaler must be an object (got [1, 2])", lambda doc: doc.update(scaler=[1, 2])),
        ("scaler must be an object (got None)", lambda doc: doc.update(scaler=None)),
        ("scaler v_lo must be a number (got 'x')", lambda doc: doc["scaler"].update(v_lo="x")),
        ("scaler u_hi must be a number (got True)", lambda doc: doc["scaler"].update(u_hi=True)),
        ("meta must be an object (got [1])", lambda doc: doc.update(meta=[1])),
        ("n_samples must be an integer (got 15.7)", lambda doc: doc.update(n_samples=15.7)),
        ("h must be an integer (got True)", lambda doc: doc.update(h=True)),
    ], ids=["scaler_without_v_lo", "scaler_not_an_object", "scaler_null", "v_lo_a_string",
            "u_hi_a_boolean", "meta_not_an_object", "fractional_n_samples", "boolean_h"])
    def test_malformed_manifest_field_rejected(self, tmp_path, message, edit):
        save(small_dataset(n_loads=1), tmp_path)
        path = tmp_path / dataset.MANIFEST_NAME
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match=re.escape(message)):
            load(tmp_path)

    @pytest.mark.parametrize("seed", [20240.7, -3, "abc", True])
    def test_master_seed_must_be_an_integer_of_at_least_zero(self, tmp_path, seed):
        # fit-edmd seeds its rbf centers with it, so it is read as written
        save(small_dataset(n_loads=1), tmp_path)
        path = tmp_path / dataset.MANIFEST_NAME
        doc = json.loads(path.read_text())
        doc["meta"]["master_seed"] = seed
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetFormatError, match=re.escape(
                f"meta master_seed must be an integer >= 0 (got {seed!r})")):
            load(tmp_path)

    def test_absent_master_seed_loads(self, tmp_path):
        save(small_dataset(n_loads=1), tmp_path)
        path = tmp_path / dataset.MANIFEST_NAME
        doc = json.loads(path.read_text())
        del doc["meta"]["master_seed"]
        path.write_text(json.dumps(doc))
        assert "master_seed" not in load(tmp_path).meta

    def test_degenerate_scaler_stays_a_scaler_error(self, tmp_path):
        save(small_dataset(n_loads=1), tmp_path)
        path = tmp_path / dataset.MANIFEST_NAME
        doc = json.loads(path.read_text())
        doc["scaler"]["v_hi"] = doc["scaler"]["v_lo"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ScalerError):
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
            Dataset(v_k=np.zeros(v_k), u_k=np.zeros(u_k), v_next=np.zeros(v_next),
                    scaler=Scaler.identity())

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Dataset)])
    def test_fields_cannot_be_reassigned(self, name):
        ds = small_dataset(n_loads=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ds, name, getattr(ds, name))

    def test_normalized_is_the_scalers_maps_bit_for_bit(self):
        ds = small_dataset(n_loads=2)
        sc = ds.scaler
        want = (sc.normalize_v(ds.v_k), sc.normalize_u(ds.u_k), sc.normalize_v(ds.v_next))
        for got, ref in zip(ds.normalized(), want):
            assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


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
        u = data.draw(hnp.arrays(float, 5, elements=st.floats(u_lo - 1.0, u_lo + u_width + 1.0)))
        assert np.max(np.abs(sc.denormalize_u(sc.normalize_u(u)) - u)) <= 1e-12
