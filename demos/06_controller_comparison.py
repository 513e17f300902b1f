"""Multi-case benchmark: lifted-space MPC against the rule-based volt-var
baseline and the uncontrolled system across random load levels.

About 15 s of CPU, most of it training.  Run:  python demos/06_controller_comparison.py
"""

from koopmanmpc import dataset, deep_koopman, evaluation
from koopmanmpc.plant import default_config

cfg = default_config()
ds = dataset.generate(cfg.model, cfg.schedule, n_loads=100, seed=11, fault=cfg.fault)
train_ds, test_ds = dataset.split(ds, 0.7, seed=11)
net_cfg = deep_koopman.KoopmanNetConfig(n=6, h=4, m=3, lifted_dim=64,
                                        lstm_hidden=32, seed=11)
net, _ = deep_koopman.train(net_cfg, train_ds, test_ds,
                            deep_koopman.TrainHyper(max_epochs=120, patience=20))
model = deep_koopman.extract(net, ds.scaler)

N_CASES = 30
report = evaluation.compare(model, cfg, n_cases=N_CASES, seed=11)

print(f"{N_CASES} random load cases in [0.9, 1.1], fixed fault {cfg.fault.affected}:")
print("  case   load    J_no-ctrl   J_vvc    J_mpc")
for r in report.records[:10]:
    print(f"  {r.index:4d}  {r.load_factor:.3f}   {r.j_no_control:8.3f} "
          f"{r.j_vvc:8.3f} {r.j_mpc:8.3f}")
print("  ...")

s = report.summary()
print(f"\nmeans: no-control {s['mean_j_no_control']:.2f}, "
      f"vvc {s['mean_j_vvc']:.2f}, mpc {s['mean_j_mpc']:.2f}")
print(f"mpc beats vvc in {100 * report.win_fraction:.0f}% of cases")
print("(with the default 0.95 deadband the volt-var rule rarely engages on "
      "this plant, so its index matches the uncontrolled run)")

print("\ntotal applied mpc control at three load levels:")
# the load->control trend sharpens with training budget; the full-size
# acceptance pipeline resolves it cleanly
from koopmanmpc import mpc as mpc_mod

for lam in (0.9, 1.0, 1.1):
    loop = mpc_mod.receding_horizon(model, cfg.model.with_load(lam), cfg.schedule,
                                    v_ref=1.0, fault=cfg.fault)
    print(f"  lam={lam:.2f}: total applied control {loop.applied_controls.sum():.3f} p.u.")
