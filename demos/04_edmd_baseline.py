"""Dictionary-based lifting as the classical baseline.

First shows exact recovery of a synthetic linear system (the sanity oracle
for the least-squares fit), then fits polynomial features on plant data
and reports one-step quality next to the learned network.
Run:  python demos/04_edmd_baseline.py
"""

import numpy as np

from koopmanmpc import dataset, deep_koopman, edmd, nn
from koopmanmpc.dataset import Dataset, Scaler
from koopmanmpc.plant import default_config

print("== exact recovery of a known linear system ==")
rng = np.random.default_rng(0)
u = rng.uniform(-1, 1, size=60)
x = np.empty(61)
x[0] = 0.2
for k in range(60):
    x[k + 1] = 0.5 * x[k] + 1.0 * u[k]
ds_lin = Dataset(v_k=x[:-1].reshape(-1, 1, 1), u_k=u.reshape(-1, 1),
                 v_next=x[1:].reshape(-1, 1, 1), scaler=Scaler.identity())
lin = edmd.fit(ds_lin, edmd.identity_dictionary(1), ridge=0.0)
print(f"  true x+ = 0.5 x + 1.0 u; fitted A_xx = {lin.A[1, 1]:.12f}, "
      f"B_x = {lin.B[1, 0]:.12f}")
print(f"  dynamics residual rms = {lin.residuals['dynamics_rms']:.2e}")

print("\n== polynomial dictionary on plant data vs the learned network ==")
cfg = default_config()
ds = dataset.generate(cfg, dataset.DatasetConfig(n_loads=100), seed=11)
train_ds, test_ds = dataset.split(ds, 0.7, seed=11)
sc = ds.scaler

dict2 = edmd.polynomial_dictionary(cfg.model.n * cfg.schedule.h, 2)
baseline = edmd.fit(train_ds, dict2, ridge=1e-8)
print(f"  dictionary features: {baseline.lifted_dim} "
      f"(constant + coordinates + degree-2 monomials)")

v_k, u_k, v_next = test_ds.stacked()
zx = baseline.dictionary.lift(sc.normalize_v(v_k).reshape(len(test_ds), -1))
x_hat = (zx @ baseline.A.T + sc.normalize_u(u_k) @ baseline.B.T) @ baseline.C.T
r2_edmd = nn.r2(sc.normalize_v(v_next).reshape(len(test_ds), -1), x_hat)

net_cfg = deep_koopman.KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=64,
                                        lstm_hidden=32, seed=11)
net, _ = deep_koopman.train(net_cfg, train_ds, test_ds,
                            deep_koopman.TrainHyper(max_epochs=120, patience=20))
fp = net.forward(sc.normalize_v(v_k), sc.normalize_u(u_k))
r2_net = nn.r2(sc.normalize_v(v_next), fp.v_next_hat)

print(f"  one-step r2 on the shared test split: dictionary {r2_edmd:.4f}, "
      f"network {r2_net:.4f}")
print("  (both lift the same flattened histories, so the comparison is direct)")
