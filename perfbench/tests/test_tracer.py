"""Self-test of the benchmark's tracer and workloads, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

import inspect
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import tracer as tracer_mod
import workloads
from tracer import Tracer


def bindings():
    """Every attribute of every package namespace and of every class the
    layer modules define, by identity."""
    out = {}
    for mod in tracer_mod.package_namespaces():
        for attr, value in vars(mod).items():
            out[(mod.__name__, attr)] = value
            if inspect.isclass(value) and value.__module__.startswith(tracer_mod.PACKAGE):
                for name, raw in vars(value).items():
                    out[(value.__module__, value.__qualname__, name)] = raw
    return out


def tiny(workload_cls, seed, **sizes):
    workload = workload_cls(seed)
    for name, value in sizes.items():
        setattr(workload, name, value)
    return workload


def run_op(workload, d, index=0, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        op = workload.run(d, index, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload.check(d, op)
    assert op.problems == []
    return op


def test_uninstall_restores_every_binding():
    from koopmanmpc import dataset, evaluation, mpc, nn, plant

    before = bindings()
    tracer = Tracer(hooks=layers.HOOKS)
    tracer.install()
    try:
        # a function imported into another module is the same wrapper there
        assert mpc.step is plant.step is not before[("koopmanmpc.plant", "step")]
        assert evaluation.run_episode is dataset.run_episode is plant.run_episode
        assert mpc._estimate_curvature is not before[("koopmanmpc.mpc", "_estimate_curvature")]
        assert nn.LstmLayer.forward is not before[("koopmanmpc.nn", "LstmLayer", "forward")]
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_every_metric_names_a_traced_callable():
    traced = {name for name, *_ in tracer_mod.traced_callables()}
    spans = {span for span, _ in layers.SPAN_METRICS.values()}
    spans |= {span for span, _ in layers.MPC_SPAN_METRICS.values()}
    missing = (spans | set(layers.HOOKS) | set(tracer_mod.COUNT_ONLY)) - traced
    assert missing == set()


def test_spans_nest_and_self_time_excludes_children():
    from koopmanmpc import plant

    cfg = plant.default_config()
    tracer = Tracer()
    tracer.install()
    try:
        plant.run_episode(cfg.model, cfg.schedule, cfg.fault, plant.zero_policy(cfg.model))
    finally:
        tracer.uninstall()
    rows = tracer.span_rows()
    names = [r[0] for r in rows]
    assert names.count("plant.step") == (cfg.schedule.n_instants + 1) * cfg.schedule.h
    assert "plant.vector_field" not in names
    steps = cfg.schedule.h * (cfg.schedule.n_instants + 1) * plant.n_substeps(cfg.schedule.ts)
    assert tracer.counters[("", "plant.vector_field.calls")] == 4 * steps
    for name, start, end, parent, _, _ in rows:
        if parent >= 0:
            assert rows[parent][1] <= start <= end <= rows[parent][2]
    summary = tracer.summary()
    calls, total, self_s = summary[("", "plant.rollout")]
    assert calls == 1 and 0 <= self_s < total


@pytest.mark.parametrize(
    "workload_cls, sizes",
    [
        (workloads.Datagen, {"n_loads": 2}),
        (workloads.Train, {"n_loads": 25, "epochs": 2}),
        (workloads.ClosedLoop, {"n_loads": 25, "epochs": 2, "n_cases": 2}),
    ],
)
def test_traced_and_untraced_operations_write_identical_bytes(tmp_path, workload_cls, sizes):
    workload = tiny(workload_cls, 7, **sizes)
    workload.setup(tmp_path / "setup")
    plain = run_op(workload, tmp_path / "plain")
    traced = [run_op(workload, tmp_path / f"traced-{i}", tracer=Tracer(hooks=layers.HOOKS))
              for i in range(2)]
    assert plain.digests and traced[0].digests == plain.digests == traced[1].digests


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    counts = []
    for i in range(2):
        workload = tiny(workloads.ClosedLoop, 7, n_loads=25, epochs=2, n_cases=2)
        workload.setup(tmp_path / f"setup-{i}")
        tracer = Tracer(hooks=layers.HOOKS)
        run_op(workload, tmp_path / f"op-{i}", tracer=tracer)
        values = layers.per_layer_metrics(tracer, [1.0], [1.0], [1.0])
        counts.append({k: values[k] for k in ("plant.vector_field.calls", "mpc.pgd_iterations.net",
                                               "mpc.pgd_iterations.edmd")})
    assert counts[0] == counts[1]
    assert all(v > 0 for v in counts[0].values())


def test_seed_reaches_the_inputs(tmp_path):
    digests = {}
    for seed in (7, 7, 8):
        workload = tiny(workloads.Datagen, seed, n_loads=2)
        workload.setup(tmp_path / f"setup-{seed}")
        op = run_op(workload, tmp_path / f"op-{seed}-{len(digests)}")
        digests.setdefault(seed, []).append(op.digests["samples.csv"])
    assert digests[7][0] == digests[7][1] != digests[8][0]


def test_refuses_to_run_without_the_package(tmp_path):
    # a checkout holding only the benchmark's own files
    shutil.copytree(Path(tracer_mod.__file__).parent, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "datagen", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
