"""Lifted models shared by the closed-loop tests, built once per session."""

import pytest

from koopmanmpc import dataset, deep_koopman, edmd
from koopmanmpc.plant import default_config


@pytest.fixture(scope="session")
def small_models():
    """An untrained network model and an identity-dictionary EDMD model for
    the default plant, with a scaler that spans the faulted voltages."""
    cfg = default_config()
    ds = dataset.generate(cfg.model, cfg.schedule, n_loads=6, seed=3, fault=cfg.fault)
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
    ds = dataset.generate(cfg.model, cfg.schedule, n_loads=30, seed=20240, fault=cfg.fault)
    train_ds, val_ds = dataset.split(ds, 0.7, seed=20240)
    net_cfg = deep_koopman.KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=64, lstm_hidden=32,
                                            seed=20240)
    net, _ = deep_koopman.train(net_cfg, train_ds, val_ds,
                                deep_koopman.TrainHyper(max_epochs=10, patience=10))
    return {
        "net": deep_koopman.extract(net, ds.scaler),
        "edmd": edmd.fit(ds, edmd.polynomial_dictionary(24, 2), ridge=1e-8),
    }
