"""Build a training dataset and inspect its normalization.

Every load case is simulated under three control policies (all-zero,
all-max, uniform random), each episode contributes one sample per control
instant, and a min-max scaler is fitted over the whole pool.
Run from the repository root:  python demos/02_dataset_generation.py
"""

import tempfile
from pathlib import Path

import numpy as np

from koopmanmpc import dataset
from koopmanmpc.plant import default_config

cfg = default_config()
N_LOADS = 40

ds = dataset.generate(cfg, dataset.DatasetConfig(n_loads=N_LOADS), seed=7)
n, h, m = ds.dims
print(f"{N_LOADS} load cases x 3 policies x {cfg.schedule.n_instants} instants "
      f"= {len(ds)} samples of shape ({n} x {h}, {m})")

v_k, u_k, v_next = ds.stacked()
print(f"raw voltages span    [{v_k.min():.4f}, {v_k.max():.4f}] p.u.")
print(f"raw controls span    [{u_k.min():.4f}, {u_k.max():.4f}] p.u.")

sc = ds.scaler
print(f"\nscaler: v_ref={sc.v_ref}, shifted range [{sc.v_lo:.4f}, {sc.v_hi:.4f}]")
nv = sc.normalize_v(np.concatenate([v_k.ravel(), v_next.ravel()]))
nu = sc.normalize_u(u_k)
print(f"normalized voltages span [{nv.min():.3f}, {nv.max():.3f}]  (target [0, 1])")
print(f"normalized controls span [{nu.min():.3f}, {nu.max():.3f}]  (target [-1, 1])")

with tempfile.TemporaryDirectory() as tmp:
    dataset.save(ds, tmp)
    back = dataset.load(tmp)
    files = sorted(p.name for p in Path(tmp).iterdir())
    print(f"\nround trip through {files}: equal = {dataset.datasets_equal(ds, back)}")

train, test = dataset.split(ds, 0.7, seed=7)
print(f"70:30 split -> {len(train)} train / {len(test)} test")
