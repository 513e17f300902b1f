"""Acceptance gate.

Each criterion prints one PASS/FAIL line (run with ``pytest -v -s`` to see
them).  Criteria 5-8 share one full-size pipeline: the shipped default
surrogate, 2500 simulated load cases, a 70:30 split, and the default
training recipe; on this hardware that fixture builds in roughly ten
minutes, well inside the thirty-minute budget.
"""

import hashlib
import itertools
import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from koopmanmpc import cli, dataset, deep_koopman, edmd, evaluation, mpc, nn, plant

MASTER_SEED = 20240


def report(num: int, name: str, ok: bool, detail: str = ""):
    print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  {detail}")


# ---------------------------------------------------------------------------
# shared full-size pipeline (criteria 5-8)


@pytest.fixture(scope="module")
def pipeline():
    cfg = plant.default_config()
    t0 = time.monotonic()
    ds = dataset.generate(cfg, dataset.DatasetConfig(n_loads=2500), seed=MASTER_SEED)
    gen_s = time.monotonic() - t0
    train_ds, test_ds = dataset.split(ds, 0.7, seed=MASTER_SEED)
    net_cfg = deep_koopman.KoopmanNetConfig(
        n=cfg.model.n, h=cfg.schedule.h, m=cfg.model.m,
        lifted_dim=64, lstm_hidden=32, seed=MASTER_SEED,
    )
    t0 = time.monotonic()
    net, history = deep_koopman.train(net_cfg, train_ds, test_ds,
                                      deep_koopman.TrainHyper())
    train_s = time.monotonic() - t0
    model = deep_koopman.extract(net, ds.scaler)
    print(
        f"\n[pipeline] {len(ds)} samples generated in {gen_s:.0f}s, "
        f"trained {len(history)} epochs in {train_s:.0f}s"
    )
    return {
        "config": cfg,
        "dataset": ds,
        "train": train_ds,
        "test": test_ds,
        "net": net,
        "model": model,
        "history": history,
    }


@pytest.fixture(scope="module")
def closed_loops(pipeline):
    """Receding-horizon runs at the five robustness load levels."""
    cfg = pipeline["config"]
    out = {}
    for lam in (0.90, 0.95, 1.00, 1.05, 1.10):
        p = cfg.model.with_load(lam)
        loop = mpc.receding_horizon(pipeline["model"], replace(cfg, model=p))
        baseline = plant.run_episode(p, cfg.schedule, cfg.fault, plant.zero_policy(p))
        out[lam] = (loop, baseline)
    return out


# ---------------------------------------------------------------------------
# criterion 1: gradient correctness


def test_criterion_1_gradient_correctness():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 4))
        h = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        cfg = deep_koopman.KoopmanNetConfig(
            n=n, h=h, m=m,
            lifted_dim=int(rng.integers(n + 1, n + 6)),
            lstm_hidden=int(rng.integers(2, 5)),
            seed=int(rng.integers(0, 10_000)),
        )
        net = deep_koopman.KoopmanNet(cfg)
        batch = int(rng.integers(1, 4))
        v_k = rng.uniform(0, 1, size=(batch, n, h))
        u = rng.uniform(-1, 1, size=(batch, m))
        v_next = rng.uniform(0, 1, size=(batch, n, h))

        def loss():
            fp = net.forward(v_k, u)
            return float(np.mean((fp.v_next_hat - v_next) ** 2)
                         + np.mean((fp.v_k_hat - v_k) ** 2))

        fp = net.forward(v_k, u)
        err_n = fp.v_next_hat - v_next
        err_k = fp.v_k_hat - v_k
        net.zero_grads()
        net.backward(2 * err_n / err_n.size, 2 * err_k / err_k.size, fp)
        grads = net.grads()
        eps = 1e-5
        for name, p in net.params().items():
            flat, gflat = p.ravel(), grads[name].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                lp = loss()
                flat[i] = orig - eps
                lm = loss()
                flat[i] = orig
                fd = (lp - lm) / (2 * eps)
                rel = abs(fd - gflat[i]) / max(abs(fd) + abs(gflat[i]), 1e-6)
                worst = max(worst, rel)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    report(1, "gradient correctness", ok,
           f"worst rel err {worst:.2e} over 20 configs in {elapsed:.1f}s")
    assert worst < 1e-4
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 2: EDMD exact recovery


def test_criterion_2_edmd_exact_recovery():
    t0 = time.monotonic()
    rng = np.random.default_rng(2)
    u = rng.uniform(-1, 1, size=80)
    x = np.empty(81)
    x[0] = 0.2
    for k in range(80):
        x[k + 1] = 0.5 * x[k] + 1.0 * u[k]
    ds = dataset.Dataset(v_k=x[:-1].reshape(-1, 1, 1), u_k=u.reshape(-1, 1),
                         v_next=x[1:].reshape(-1, 1, 1), scaler=dataset.Scaler.identity())
    model = edmd.fit(ds, edmd.identity_dictionary(1), ridge=0.0)
    err_a = abs(model.A[1, 1] - 0.5)
    err_b = abs(model.B[1, 0] - 1.0)
    residual = model.residuals["dynamics_rms"]
    elapsed = time.monotonic() - t0
    ok = max(err_a, err_b, residual) < 1e-8 and elapsed < 1.0
    report(2, "EDMD exact recovery", ok,
           f"|dA|={err_a:.1e} |dB|={err_b:.1e} residual={residual:.1e} in {elapsed:.2f}s")
    assert err_a < 1e-8 and err_b < 1e-8 and residual < 1e-8
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 3: QP optimality


def _random_mpc_problem(rng, n_lift, m, horizon):
    a = rng.normal(size=(n_lift, n_lift))
    a = 0.9 * a / max(np.abs(np.linalg.eigvals(a)).max(), 1e-9)
    r_root = rng.normal(size=(m, m))
    return mpc.MpcProblem(
        A=a, B=rng.normal(size=(n_lift, m)),
        z0=rng.normal(size=n_lift), z_ref=rng.normal(size=n_lift),
        horizon=horizon,
        R=r_root @ r_root.T + 0.05 * np.eye(m),
        u_min=np.full(m, -1.0), u_max=np.full(m, 1.0),
    )


def test_criterion_3_qp_optimality():
    rng = np.random.default_rng(3)
    t0 = time.monotonic()
    interior_err = 0.0
    interior_checked = 0
    while interior_checked < 20:
        qp = mpc.condense(_random_mpc_problem(rng, int(rng.integers(2, 7)),
                                              int(rng.integers(1, 4)),
                                              int(rng.integers(1, 5))))
        u_star = np.linalg.solve(qp.hessian + 1e-12 * np.eye(qp.hessian.shape[0]),
                                 -qp.linear)
        if np.any(np.abs(u_star) > 0.9):
            continue
        seq = mpc.solve_box_qp(qp, tol=1e-10)
        interior_err = max(interior_err, float(np.max(np.abs(seq.u.ravel() - u_star))))
        interior_checked += 1

    grid_gap = 0.0
    for _ in range(20):
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 4))
        if m * horizon > 3:
            continue
        qp = mpc.condense(_random_mpc_problem(rng, int(rng.integers(2, 7)), m, horizon))
        seq = mpc.solve_box_qp(qp, tol=1e-10)
        axes = [np.linspace(-1.0, 1.0, 51)] * (m * horizon)
        best = min(qp.objective(np.array(pt)) for pt in itertools.product(*axes))
        grid_gap = max(grid_gap, qp.objective(seq.u.ravel()) - best)
    elapsed = time.monotonic() - t0
    ok = interior_err < 1e-6 and grid_gap < 1e-6 and elapsed < 60.0
    report(3, "QP optimality", ok,
           f"interior err {interior_err:.1e}, grid gap {grid_gap:.1e} in {elapsed:.1f}s")
    assert interior_err < 1e-6
    assert grid_gap < 1e-6
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 4: condensation equivalence


def test_criterion_4_condensation_equivalence():
    rng = np.random.default_rng(4)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n_lift = int(rng.integers(2, 9))
        m = int(rng.integers(1, 4))
        horizon = int(rng.integers(1, 5))
        problem = _random_mpc_problem(rng, n_lift, m, horizon)
        qp = mpc.condense(problem)
        for _ in range(3):
            u = rng.uniform(-1, 1, size=(horizon, m))
            z = problem.z0
            direct = 0.0
            for i in range(horizon):
                z = problem.A @ z + problem.B @ u[i]
                dz = z - problem.z_ref
                direct += float(dz @ dz + u[i] @ problem.R @ u[i])
            worst = max(worst, abs(qp.objective(u.ravel()) - direct))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-10 and elapsed < 10.0
    report(4, "condensation equivalence", ok,
           f"worst |gap| {worst:.1e} over 100 instances in {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# criterion 5: held-out fit quality


def test_criterion_5_fit_quality(pipeline):
    ds = pipeline["dataset"]
    test_ds = pipeline["test"]
    net = pipeline["net"]
    sc = ds.scaler
    v_k, u_k, v_next = test_ds.stacked()
    preds_n, preds_k = [], []
    for lo in range(0, len(test_ds), 2048):
        fp = net.forward(sc.normalize_v(v_k[lo : lo + 2048]),
                         sc.normalize_u(u_k[lo : lo + 2048]))
        preds_n.append(fp.v_next_hat)
        preds_k.append(fp.v_k_hat)
    r2_next = nn.r2(sc.normalize_v(v_next), np.concatenate(preds_n))
    r2_recon = nn.r2(sc.normalize_v(v_k), np.concatenate(preds_k))
    ok = r2_next >= 0.95 and r2_recon >= 0.95
    report(5, "held-out fit quality", ok,
           f"r2 successor {r2_next:.4f}, r2 reconstruction {r2_recon:.4f} "
           f"on {len(test_ds)} held-out samples")
    assert r2_next >= 0.95
    assert r2_recon >= 0.95


def test_info_edmd_vs_network_one_step(pipeline):
    # informational, not a pass/fail criterion: dictionary baseline vs the
    # learned encoder on the same held-out split
    ds = pipeline["dataset"]
    test_ds = pipeline["test"]
    sc = ds.scaler
    model = edmd.fit(pipeline["train"], edmd.polynomial_dictionary(24, 2), ridge=1e-8)
    v_k, u_k, v_next = test_ds.stacked()
    zx = model.dictionary.lift(sc.normalize_v(v_k).reshape(len(test_ds), -1))
    z_next = zx @ model.A.T + sc.normalize_u(u_k) @ model.B.T
    x_hat = z_next @ model.C.T
    r2_edmd = nn.r2(sc.normalize_v(v_next).reshape(len(test_ds), -1), x_hat)

    fp_chunks = []
    for lo in range(0, len(test_ds), 2048):
        fp = net_forward = pipeline["net"].forward(
            sc.normalize_v(v_k[lo : lo + 2048]), sc.normalize_u(u_k[lo : lo + 2048])
        )
        fp_chunks.append(fp.v_next_hat)
    r2_net = nn.r2(sc.normalize_v(v_next), np.concatenate(fp_chunks))
    print(f"\n[info] one-step r2 on shared test split: "
          f"dictionary {r2_edmd:.4f} vs network {r2_net:.4f}")


# ---------------------------------------------------------------------------
# criterion 6: closed-loop efficacy at the five load levels


def test_criterion_6_closed_loop_efficacy(closed_loops):
    details = []
    ok = True
    for lam, (loop, baseline) in sorted(closed_loops.items()):
        j_mpc = evaluation.performance_index(loop.trajectory)
        j_no = evaluation.performance_index(baseline)
        term_dev = abs(float(loop.trajectory.voltages[-1].mean()) - 1.0)
        good = (not loop.aborted) and j_mpc < j_no and term_dev < 0.05
        ok = ok and good
        details.append(f"lam={lam:.2f}: J {j_mpc:.2f}<{j_no:.2f}, |dV(T)|={term_dev:.3f}")
    report(6, "closed-loop efficacy", ok, "; ".join(details))
    for lam, (loop, baseline) in closed_loops.items():
        assert not loop.aborted
        assert evaluation.performance_index(loop.trajectory) < evaluation.performance_index(baseline)
        assert abs(float(loop.trajectory.voltages[-1].mean()) - 1.0) < 0.05


# ---------------------------------------------------------------------------
# criterion 7: comparison harness win fraction


def test_criterion_7_win_fraction(pipeline):
    reportdoc = evaluation.compare(pipeline["model"], pipeline["config"],
                                   evaluation.EvalConfig(n_cases=100), seed=MASTER_SEED)
    n_ok = sum(r.ok for r in reportdoc.records)
    ok = reportdoc.win_fraction >= 0.7 and n_ok == 100
    report(7, "comparison win fraction", ok,
           f"mpc beats vvc in {reportdoc.win_fraction:.2f} of {n_ok} cases")
    assert n_ok == 100
    assert reportdoc.win_fraction >= 0.7


# ---------------------------------------------------------------------------
# criterion 8: monotone control trend across load


def test_criterion_8_monotone_control_trend(closed_loops):
    lams = sorted(closed_loops)
    totals = [float(closed_loops[lam][0].applied_controls.sum()) for lam in lams]
    inversions = []
    for a, b in zip(totals, totals[1:]):
        if b < a:
            inversions.append((a - b) / max(a, 1e-12))
    ok = len(inversions) <= 1 and all(rel <= 0.05 for rel in inversions)
    report(8, "monotone control trend", ok,
           "cumulative control " + " -> ".join(f"{t:.3f}" for t in totals))
    assert len(inversions) <= 1
    assert all(rel <= 0.05 for rel in inversions)


# ---------------------------------------------------------------------------
# criterion 9: byte-identical pipeline stages


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_9_determinism(tmp_path):
    plant.save_config(plant.default_config(), tmp_path / "plant.json")
    run = {
        "plant": "plant.json",
        "seed": 99,
        "dataset": {"n_loads": 8, "train_ratio": 0.7},
        "koopman_net": {"lifted_dim": 12, "lstm_hidden": 4, "batch_size": 8,
                        "max_epochs": 3, "patience": 3},
        "mpc": {"tol": 1e-8, "max_iter": 50000},
    }
    with open(tmp_path / "run.json", "w") as f:
        json.dump(run, f)
    conf = str(tmp_path / "run.json")

    stage_files = {
        "gen-data": ["dataset.json", "samples.csv"],
        "train": ["checkpoint.json", "checkpoint.bin", "lifted_model.json", "lifted_model.bin",
                  "training_history.csv"],
        "fit-edmd": ["lifted_model.json", "lifted_model.bin"],
        "run-mpc": ["closed_loop.csv", "qp_diagnostics.json"],
        "compare": ["comparison.csv", "summary.json"],
    }
    digests = {1: {}, 2: {}}
    for rep in (1, 2):
        base = tmp_path / f"rep{rep}"
        assert cli.main(["gen-data", "--config", conf, "--out", str(base / "data")]) == 0
        assert cli.main(["train", "--data", str(base / "data"), "--config", conf,
                         "--out", str(base / "net")]) == 0
        assert cli.main(["fit-edmd", "--data", str(base / "data"), "--dict", "identity",
                         "--ridge", "1e-8", "--out", str(base / "edmd")]) == 0
        assert cli.main(["run-mpc", "--model", str(base / "net" / "lifted_model.json"),
                         "--config", conf, "--out", str(base / "loop")]) == 0
        assert cli.main(["compare", "--model", str(base / "net" / "lifted_model.json"),
                         "--config", conf, "--cases", "3", "--seed", "5",
                         "--out", str(base / "cmp")]) == 0
        for stage, names in stage_files.items():
            sub = {"gen-data": "data", "train": "net", "fit-edmd": "edmd",
                   "run-mpc": "loop", "compare": "cmp"}[stage]
            for name in names:
                digests[rep][f"{stage}/{name}"] = _digest(base / sub / name)

    mismatched = [k for k in digests[1] if digests[1][k] != digests[2][k]]
    ok = not mismatched
    report(9, "pipeline determinism", ok,
           f"{len(digests[1])} artifacts byte-identical across reruns"
           + (f"; MISMATCH {mismatched}" if mismatched else ""))
    assert not mismatched
