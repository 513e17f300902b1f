"""Receding-horizon control in the lifted space, closed against the plant.

Trains a quick model, then runs the shrinking-horizon loop after the
default fault and prints the voltage trace next to the uncontrolled run.
About 20 s of CPU, most of it training.  Run:  python demos/05_closed_loop_mpc.py
"""

import numpy as np

from koopmanmpc import dataset, deep_koopman, evaluation, mpc
from koopmanmpc.plant import default_config, run_episode, zero_policy

cfg = default_config()
ds = dataset.generate(cfg.model, cfg.schedule, n_loads=100, seed=11, fault=cfg.fault)
train_ds, test_ds = dataset.split(ds, 0.7, seed=11)
net_cfg = deep_koopman.KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=64,
                                        lstm_hidden=32, seed=11)
net, _ = deep_koopman.train(net_cfg, train_ds, test_ds,
                            deep_koopman.TrainHyper(max_epochs=120, patience=20))
model = deep_koopman.extract(net, ds.scaler)

loop = mpc.receding_horizon(model, cfg.model, cfg.schedule, v_ref=1.0, fault=cfg.fault)
baseline = run_episode(cfg.model, cfg.schedule, cfg.fault, zero_policy(cfg.model))

print("per-instant solves (horizon shrinks as the budget is spent):")
for d in loop.diagnostics:
    print(f"  instant {d['instant']}  horizon {d['horizon']}  "
          f"{d['iterations']:3d} iterations  u = {np.round(d['u_pu'], 3)}")

print("\nmean voltage trace (p.u.):")
print("   t      no-control   mpc")
held = loop.trajectory
for idx in range(0, len(held.times), 4):
    print(f"  {held.times[idx]:5.2f}   {baseline.voltages[idx].mean():8.4f}   "
          f"{held.voltages[idx].mean():8.4f}")

j_mpc = evaluation.performance_index(loop.trajectory)
j_no = evaluation.performance_index(baseline)
print(f"\ndeviation index J: mpc {j_mpc:.2f} vs no-control {j_no:.2f} "
      f"({100 * (1 - j_mpc / j_no):.0f}% lower)")
print(f"terminal mean voltage {held.voltages[-1].mean():.4f} p.u.")
