"""The benchmark's three workloads, driven in-process through
``koopmanmpc.cli.main`` from run configs written from the workload seed.

Each workload has a ``setup`` that builds its inputs in a directory, a
timed ``run`` of one operation, and an untimed ``check`` of that
operation's outputs.  An operation runs two stages one after the other
(a closed loop: each starts when the previous one ends); ``Op.stage_s``
and ``Op.items`` hold each stage's wall time and the work it did, so the
benchmark can report both stages' throughput.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from koopmanmpc import cli, dataset, deep_koopman, nn, plant


@dataclass
class Op:
    """One operation: its stages' wall times and work, its failures, and
    what its outputs look like."""

    key: str = ""  # identifies the operation's inputs
    stage_s: list = field(default_factory=list)
    items: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)  # in-memory results the check reads

    def stage(self, argv: list[str]) -> float:
        """Run one CLI stage with its output captured; return its wall time."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
        return elapsed


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def sub_seed(seed: int, purpose: str) -> int:
    """A config seed derived from the workload seed, one per purpose."""
    return random.Random(f"{seed}:{purpose}").randrange(1, 2**31)


def write_run_config(d: Path, seed: int, n_loads: int, epochs: int) -> Path:
    """The six-bus default plant and a run config around it.  Patience
    equals the epoch budget, so early stopping never shortens training."""
    d.mkdir(parents=True, exist_ok=True)
    plant.save_config(plant.default_config(), d / "plant.json")
    doc = {
        "plant": "plant.json",
        "seed": seed,
        "dataset": {"n_loads": n_loads, "policies": list(dataset.POLICIES), "train_ratio": 0.7},
        "koopman_net": {"max_epochs": epochs, "patience": epochs},
    }
    path = d / "run.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


@contextlib.contextmanager
def recording(owner, attr: str, results: list):
    """Append every return value of ``owner.attr`` to ``results`` while
    the context is open, then restore the binding."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Datagen:
    """``gen-data`` on the default plant with all three policies, then
    ``dataset.load`` of what it wrote.  Operations alternate between two
    dataset seeds: each seed must give the same bytes every time, and the
    two seeds different ``samples.csv`` bytes."""

    name = "datagen"
    n_loads = 4
    min_traced_ops = 3

    def __init__(self, seed: int):
        self.seeds = (sub_seed(seed, "data-a"), sub_seed(seed, "data-b"))

    def setup(self, d: Path) -> dict:
        self.config = write_run_config(d, self.seeds[0], self.n_loads, epochs=1)
        return {}

    def run(self, d: Path, index: int, tracer=None) -> Op:
        seed = self.seeds[index % 2]
        op = Op(key=f"seed-{seed}")
        generated = []
        with recording(dataset, "generate", generated):
            gen_s = op.stage(["gen-data", "--config", str(self.config), "--out", str(d),
                              "--seed", str(seed)])
        if op.failed:
            return op
        start = time.perf_counter()
        loaded = dataset.load(d)
        load_s = time.perf_counter() - start
        op.stage_s, op.items = [gen_s, load_s], [len(loaded), len(loaded)]
        op.outputs = {"loaded": loaded, "generated": generated[0]}
        return op

    def check(self, d: Path, op: Op) -> None:
        if op.failed:
            return
        loaded = op.outputs.pop("loaded")
        expected = self.n_loads * len(dataset.POLICIES) * plant.default_config().schedule.n_instants
        if len(loaded) != expected:
            op.problems.append(f"{len(loaded)} samples, expected {expected}")
        if not dataset.datasets_equal(loaded, op.outputs.pop("generated")):
            op.problems.append("loaded dataset differs from the generated one")
        v_k, _, v_next = loaded.stacked()
        v_max = plant.default_config().model.v_max
        v = np.concatenate([v_k.ravel(), v_next.ravel()])
        if not (np.all(np.isfinite(v)) and v.min() >= 0.0 and v.max() <= v_max):
            op.problems.append(f"voltages outside [0, {v_max}] or not finite")
        op.digests = {"samples.csv": sha256(d / "samples.csv")}


class Train:
    """``train`` for a fixed number of epochs on a dataset made in set-up,
    then ``fit-edmd poly:2`` on the same dataset."""

    name = "train"
    n_loads = 30
    epochs = 15
    min_traced_ops = 3

    def __init__(self, seed: int):
        self.seed = sub_seed(seed, "train")

    def setup(self, d: Path) -> dict:
        self.config = write_run_config(d, self.seed, self.n_loads, self.epochs)
        self.data = d / "data"
        op = Op()
        op.stage(["gen-data", "--config", str(self.config), "--out", str(self.data)])
        if op.failed:
            raise RuntimeError(op.problems[0])
        self.n_samples = self.n_loads * len(dataset.POLICIES) * plant.default_config().schedule.n_instants
        self.n_train = int(self.n_samples * 0.7)
        return {"samples.csv": sha256(self.data / "samples.csv")}

    def run(self, d: Path, index: int, tracer=None) -> Op:
        op = Op(key="train")
        train_s = op.stage(["train", "--data", str(self.data), "--config", str(self.config),
                            "--out", str(d / "net")])
        fit_s = op.stage(["fit-edmd", "--data", str(self.data), "--dict", "poly:2",
                          "--out", str(d / "edmd")])
        op.stage_s = [train_s, fit_s]
        op.items = [self.n_train * self.epochs, self.n_samples]
        return op

    def check(self, d: Path, op: Op) -> None:
        if op.failed:
            return
        with open(d / "net" / "training_history.csv") as f:
            epochs = sum(1 for _ in f) - 1
        if epochs != self.epochs:
            op.problems.append(f"trained {epochs} epochs, configured {self.epochs}")
        ds = dataset.load(self.data)
        probe = ds.stacked()[0][:4]
        for kind in ("net", "edmd"):
            model = deep_koopman.load_lifted_model(d / kind / "lifted_model.json")
            if not np.all(np.isfinite(model.lift(probe))):
                op.problems.append(f"{kind} model lifts to non-finite vectors")
        op.quality = held_out_r2(d / "net" / "checkpoint.json", ds, self.seed)
        op.digests = {
            "checkpoint.json": sha256(d / "net" / "checkpoint.json"),
            "net/lifted_model.json": sha256(d / "net" / "lifted_model.json"),
            "edmd/lifted_model.json": sha256(d / "edmd" / "lifted_model.json"),
        }


def held_out_r2(checkpoint: Path, ds, seed: int) -> dict:
    """R² of the successor and the reconstruction on the split that
    training held out, in normalized units."""
    net, scaler = deep_koopman.load_net(checkpoint)
    _, val = dataset.split(ds, 0.7, seed=seed)
    v_k, u_k, v_next = val.stacked()
    fp = net.forward(scaler.normalize_v(v_k), scaler.normalize_u(u_k))
    return {
        "r2_next": nn.r2(scaler.normalize_v(v_next), fp.v_next_hat),
        "r2_recon": nn.r2(scaler.normalize_v(v_k), fp.v_k_hat),
    }


class ClosedLoop:
    """``compare`` over the same seeded cases twice: with a network model
    (N = 64) and with the EDMD ``poly:2`` model (N = 325), both built in
    set-up.

    An operation compares one case with each model; operations cycle
    through ``n_seeds`` case seeds, so every case recurs and must give the
    same bytes each time.  The models come from a fixed seed and the
    workload seed draws the case seeds.  The projected-gradient iteration
    count depends on the model (it varied by 45% between models trained on
    different seeds) and hardly on the case, so fixed models keep the work
    per case the same from run to run.
    """

    name = "closed_loop"
    model_seed = 20240
    n_loads = 30
    epochs = 10
    n_cases = 1
    n_seeds = 5
    # 100 cases per model kind, so the solve-time p98 has ten solves above it
    min_traced_ops = 100 // n_cases
    kinds = ("net", "edmd")

    def __init__(self, seed: int):
        self.case_seeds = [sub_seed(seed, f"cases-{i}") for i in range(self.n_seeds)]

    def setup(self, d: Path) -> dict:
        self.config = write_run_config(d, self.model_seed, self.n_loads, self.epochs)
        data = d / "data"
        op = Op()
        op.stage(["gen-data", "--config", str(self.config), "--out", str(data)])
        op.stage(["train", "--data", str(data), "--config", str(self.config), "--out", str(d / "net")])
        op.stage(["fit-edmd", "--data", str(data), "--dict", "poly:2", "--out", str(d / "edmd")])
        if op.failed:
            raise RuntimeError("; ".join(op.problems))
        self.models = {kind: d / kind / "lifted_model.json" for kind in self.kinds}
        return {
            "samples.csv": sha256(data / "samples.csv"),
            "checkpoint.json": sha256(d / "net" / "checkpoint.json"),
            **{f"{kind}/lifted_model.json": sha256(path) for kind, path in self.models.items()},
        }

    def run(self, d: Path, index: int, tracer=None) -> Op:
        case_seed = self.case_seeds[index % self.n_seeds]
        op = Op(key=f"cases-{case_seed}")
        for kind in self.kinds:
            if tracer is not None:
                tracer.scope = kind
            op.stage_s.append(op.stage([
                "compare", "--model", str(self.models[kind]), "--config", str(self.config),
                "--cases", str(self.n_cases), "--seed", str(case_seed), "--out", str(d / kind),
            ]))
            op.items.append(self.n_cases)
        return op

    def check(self, d: Path, op: Op) -> None:
        if op.failed:
            return
        for kind in self.kinds:
            summary = json.loads((d / kind / "summary.json").read_text())
            with open(d / kind / "comparison.csv", newline="") as f:
                rows = list(csv.DictReader(f))
            op.attempted += len(rows)
            n_failed = sum(1 for r in rows if r["ok"] != "1")
            op.failed += n_failed
            if summary["n_ok"] != summary["n_cases"] or n_failed:
                op.problems.append(f"{kind}: {summary['n_cases'] - summary['n_ok']} cases failed")
                continue
            j = np.array([[float(r[c]) for c in ("j_no_control", "j_vvc", "j_mpc")] for r in rows])
            if not np.all(np.isfinite(j)):
                op.problems.append(f"{kind}: non-finite J values")
                continue
            agrees = (
                summary["n_cases"] == len(rows) == self.n_cases
                and summary["win_fraction"] == float(np.mean(j[:, 2] < j[:, 1]))
                and all(math.isclose(summary[key], float(np.mean(j[:, col])), rel_tol=1e-12)
                        for col, key in enumerate(("mean_j_no_control", "mean_j_vvc", "mean_j_mpc")))
            )
            if not agrees:
                op.problems.append(f"{kind}: summary.json disagrees with comparison.csv")
            op.quality[f"{kind}_win_fraction"] = summary["win_fraction"]
            op.digests[f"{kind}/comparison.csv"] = sha256(d / kind / "comparison.csv")


WORKLOADS = {w.name: w for w in (Datagen, Train, ClosedLoop)}
