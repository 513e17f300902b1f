"""Lifted models shared by the closed-loop tests, built once per session."""

import pytest

from koopmanmpc import dataset, deep_koopman, edmd
from koopmanmpc.plant import default_config, mirror_config


@pytest.fixture(scope="session")
def small_models():
    """An untrained network model and an identity-dictionary EDMD model for
    the default plant, with a scaler that spans the faulted voltages."""
    cfg = default_config()
    ds = dataset.generate(cfg, dataset.DatasetConfig(n_loads=6), seed=3)
    net = deep_koopman.KoopmanNet(deep_koopman.KoopmanNetConfig(
        n=6, h=4, m=3, lifted_dim=16, lstm_hidden=4, seed=5))
    return {
        "net": deep_koopman.extract(net, ds.scaler),
        "edmd": edmd.fit(ds, edmd.identity_dictionary(24), ridge=1e-6),
    }


@pytest.fixture(scope="session")
def bench_models():
    """The closed-loop benchmark's two models: a network trained for 10
    epochs on 30 load cases (seed 20240, default architecture) and an
    EDMD ``poly:2`` fit on the same data."""
    cfg = default_config()
    ds = dataset.generate(cfg, dataset.DatasetConfig(n_loads=30), seed=20240)
    train_ds, val_ds = dataset.split(ds, 0.7, seed=20240)
    net_cfg = deep_koopman.KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=64, lstm_hidden=32,
                                            seed=20240)
    net, _ = deep_koopman.train(net_cfg, train_ds, val_ds,
                                deep_koopman.TrainHyper(max_epochs=10, patience=10))
    return {
        "net": deep_koopman.extract(net, ds.scaler),
        "edmd": edmd.fit(ds, edmd.polynomial_dictionary(24, 2), ridge=1e-8),
    }


@pytest.fixture(scope="session")
def mirror_models():
    """The same two model kinds for the twelve-bus, five-control mirror
    plant: an untrained network and an identity-dictionary EDMD fit on
    four load cases."""
    cfg = mirror_config()
    ds = dataset.generate(cfg, dataset.DatasetConfig(n_loads=4), seed=2022)
    net = deep_koopman.KoopmanNet(deep_koopman.KoopmanNetConfig(
        n=12, h=4, m=5, lifted_dim=16, lstm_hidden=4, seed=5))
    return {
        "net": deep_koopman.extract(net, ds.scaler),
        "edmd": edmd.fit(ds, edmd.identity_dictionary(48), ridge=1e-8),
    }
