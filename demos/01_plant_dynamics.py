"""Walk through the surrogate voltage dynamics.

Shows the load-dependent equilibrium, a fault sag and its recovery, the
effect of reactive support, and the integrator's convergence order.
Run from the repository root:  python demos/01_plant_dynamics.py
"""

import numpy as np

from koopmanmpc.plant import (
    U_MAX,
    default_config,
    faulted_initial_state,
    full_policy,
    n_substeps,
    rollout,
    step,
    zero_policy,
)

cfg = default_config()
model, sched, fault = cfg.model, cfg.schedule, cfg.fault

print("== equilibria shift with the load factor ==")
for lam in (0.9, 1.0, 1.1):
    print(f"  lam={lam:4.2f}  v* = {np.round(model.with_load(lam).equilibrium(), 4)}")

print("\n== fault sag and free recovery ==")
init = faulted_initial_state(model, fault)
print(f"  fault on buses {fault.affected} (depth {fault.depth} p.u.)")
print(f"  post-fault v = {np.round(init, 3)}")
traj = rollout(model, init, zero_policy(model), sched)
for idx in (0, 1, 2, 4, 8, 20):
    print(f"  t={traj.times[idx]:5.2f}s  mean v = {traj.voltages[idx].mean():.4f}")

print("\n== reactive support raises the settled level ==")
t_full = rollout(model, init, full_policy(model), sched)
print(f"  no control : terminal mean {traj.voltages[-1].mean():.4f} p.u.")
print(f"  full budget: terminal mean {t_full.voltages[-1].mean():.4f} p.u.")

print("\n== integrator self-convergence (one control interval) ==")
state = faulted_initial_state(model.with_load(1.1), fault)
for scale in (1, 2, 4):
    s = state
    for _ in range(sched.h):
        s = step(model, s, np.full(model.m, U_MAX), sched.ts,
                 substeps=scale * n_substeps(sched.ts))
    print(f"  substeps x{scale}: v[0] = {s[0]:.12f}")
print("  (digits agree: the default substep length is already converged)")
