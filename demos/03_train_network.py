"""Train the encoder / linear-dynamics / decoder network on a small pool
and check the held-out one-step prediction quality.

About 15 s of CPU.  Run:  python demos/03_train_network.py
"""

import numpy as np

from koopmanmpc import dataset, deep_koopman, nn
from koopmanmpc.plant import default_config

cfg = default_config()
ds = dataset.generate(cfg, dataset.DatasetConfig(n_loads=100), seed=11)
train_ds, test_ds = dataset.split(ds, 0.7, seed=11)
print(f"{len(train_ds)} training / {len(test_ds)} held-out samples")

net_cfg = deep_koopman.KoopmanNetConfig(
    n=cfg.model.n, h=cfg.schedule.h, m=cfg.model.m,
    lifted_dim=64, lstm_hidden=32, seed=11,
)
hyper = deep_koopman.TrainHyper(max_epochs=120, patience=20)
net, history = deep_koopman.train(net_cfg, train_ds, test_ds, hyper)

print(f"\ntrained {len(history)} epochs (early stopping on validation MAE)")
for st in history[:: max(1, len(history) // 6)]:
    print(f"  epoch {st.epoch:3d}  val MAE successor {st.val_mae_next:.5f}  "
          f"reconstruction {st.val_mae_recon:.5f}")

sc = ds.scaler
v_k, u_k, v_next = test_ds.stacked()
fp = net.forward(sc.normalize_v(v_k), sc.normalize_u(u_k))
print(f"\nheld-out r2: successor {nn.r2(sc.normalize_v(v_next), fp.v_next_hat):.4f}, "
      f"reconstruction {nn.r2(sc.normalize_v(v_k), fp.v_k_hat):.4f}")

model = deep_koopman.extract(net, sc)
z = model.lift(v_k[0])
print(f"\nextracted lifted model: A {model.A.shape}, B {model.B.shape}, "
      f"lift output dimension {z.shape[0]}")
print("one lifted control step is exactly  z+ = A z + B u  (no activation)")
