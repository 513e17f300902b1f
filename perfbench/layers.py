"""Per-layer metrics of a traced run, derived from the tracer's spans and
counters.

Times (unit ``s/op``) and counts (``count/op``, ``B/op``) are per traced
operation: the sum over the traced operations divided by their number.
Runs that fit a different number of operations into their time stay
comparable that way, and a count stays exact when every operation does the
same work.  Fractions, solve-time percentiles and ``edmd.features`` are
not per operation.  The ``mpc`` metrics are reported per model kind, with
a ``.net`` or ``.edmd`` suffix.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from tracer import LAYERS

MPC_KINDS = ("net", "edmd")

# metric -> (span name, field), field in {"calls", "s", "self_s"}
SPAN_METRICS = {
    "plant.step.calls": ("plant.step", "calls"),
    "plant.step.self_s": ("plant.step", "self_s"),
    "plant.run_episode.calls": ("plant.run_episode", "calls"),
    "plant.run_episode.s": ("plant.run_episode", "s"),
    "dataset.generate.self_s": ("dataset.generate", "self_s"),
    "dataset.save.s": ("dataset.save", "s"),
    "dataset.load.s": ("dataset.load", "s"),
    "dataset.stacked.calls": ("dataset.Dataset.stacked", "calls"),
    "dataset.stacked.s": ("dataset.Dataset.stacked", "s"),
    "dataset.split.s": ("dataset.split", "s"),
    "nn.lstm_forward.calls": ("nn.LstmLayer.forward", "calls"),
    "nn.lstm_forward.self_s": ("nn.LstmLayer.forward", "self_s"),
    "nn.lstm_backward.calls": ("nn.LstmLayer.backward", "calls"),
    "nn.lstm_backward.self_s": ("nn.LstmLayer.backward", "self_s"),
    "nn.fc_forward.calls": ("nn.FcLayer.forward", "calls"),
    "nn.fc_forward.self_s": ("nn.FcLayer.forward", "self_s"),
    "nn.fc_backward.calls": ("nn.FcLayer.backward", "calls"),
    "nn.fc_backward.self_s": ("nn.FcLayer.backward", "self_s"),
    "nn.adam_step.calls": ("nn.Adam.step", "calls"),
    "nn.adam_step.self_s": ("nn.Adam.step", "self_s"),
    "deep_koopman.forward.calls": ("deep_koopman.KoopmanNet.forward", "calls"),
    "deep_koopman.forward.self_s": ("deep_koopman.KoopmanNet.forward", "self_s"),
    "deep_koopman.backward.self_s": ("deep_koopman.KoopmanNet.backward", "self_s"),
    "deep_koopman.checkpoint_write.s": ("deep_koopman.save_net", "s"),
    "deep_koopman.lift.calls": ("deep_koopman.LiftedLinearModel.lift", "calls"),
    "deep_koopman.lift.s": ("deep_koopman.LiftedLinearModel.lift", "s"),
    "edmd.fit.s": ("edmd.fit", "s"),
    "edmd.dictionary_lift.calls": ("edmd.Dictionary.lift", "calls"),
    "edmd.dictionary_lift.s": ("edmd.Dictionary.lift", "s"),
    "edmd.lift.calls": ("edmd.EdmdModel.lift", "calls"),
    "evaluation.compare.s": ("evaluation.compare", "s"),
    "cli.gen-data.s": ("cli.cmd_gen_data", "s"),
    "cli.train.s": ("cli.cmd_train", "s"),
    "cli.fit-edmd.s": ("cli.cmd_fit_edmd", "s"),
    "cli.compare.s": ("cli.cmd_compare", "s"),
}

# per model kind: metric -> (span name, field)
MPC_SPAN_METRICS = {
    "mpc.receding_horizon.s": ("mpc.receding_horizon", "s"),
    "mpc.condense.calls": ("mpc.condense", "calls"),
    "mpc.condense.self_s": ("mpc.condense", "self_s"),
    "mpc.solve.self_s": ("mpc.solve_box_qp", "self_s"),
    "mpc.curvature.s": ("mpc._estimate_curvature", "s"),
}

COUNTER_METRICS = (
    "plant.vector_field.calls",
    "dataset.save.bytes",
    "deep_koopman.epochs",
    "evaluation.cases_ok",
    "evaluation.cases_failed",
)
MPC_COUNTER_METRICS = ("mpc.condense.flops", "mpc.pgd_iterations")


def per_layer_names() -> list[str]:
    """Every per-layer metric name, in report order."""
    names = list(SPAN_METRICS) + list(COUNTER_METRICS)
    names += ["edmd.features", "evaluation.baseline_rollouts.s"]
    names += [f"{layer}.busy_frac" for layer in LAYERS]
    for kind in MPC_KINDS:
        names += [f"{m}.{kind}" for m in MPC_SPAN_METRICS]
        names += [f"{m}.{kind}" for m in MPC_COUNTER_METRICS]
        names += [f"mpc.{m}.{kind}" for m in ("solve_ms_p50", "solve_ms_p98", "solves_converged_frac")]
    names.append("trace.overhead_frac")
    return names


def unit(name: str) -> str:
    name = name.removesuffix(".net").removesuffix(".edmd")
    if name == "edmd.features":
        return "count"
    if name.endswith("_frac"):
        return "frac"
    if "_ms_" in name:
        return "ms"
    if name.endswith(".bytes"):
        return "B/op"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s/op"
    return "count/op"


def condense_flops(problem) -> int:
    """Floating-point operations of ``mpc.condense`` as written, from the
    lifted dimension N, the control count m and the horizon: the A powers,
    the prediction blocks, the kron-weighted products and the linear and
    constant terms, two operations per multiply-add."""
    n_lift, m, nk = problem.A.shape[0], problem.B.shape[1], problem.horizon
    big_n, big_m = nk * n_lift, nk * m
    return (
        nk * 2 * n_lift**3  # A powers
        + nk * 2 * n_lift**2  # powers @ z0
        + nk * (nk + 1) // 2 * 2 * n_lift**2 * m  # blocks powers @ B
        + 2 * big_n * big_n * big_m  # kron(I, Q) @ S
        + 2 * big_m * big_m * big_n  # S^T (Q S)
        + 2 * big_m * big_n  # (Q S)^T d
        + 2 * big_n * big_n + 2 * big_n  # d^T kron(I, Q) d
    )


def _count(key, amount):
    def hook(tracer, args, kwargs, result):
        tracer.counters[(tracer.scope, key)] += amount(args, result)

    return hook


def _save_bytes(args, result):
    out = Path(args[1])
    return sum(os.path.getsize(out / f) for f in ("dataset.json", "samples.csv"))


def _edmd_features(model):
    # a model property, not a per-operation count: kept, not summed
    def hook(tracer, args, kwargs, result):
        tracer.counters[(tracer.scope, "edmd.features")] = model(args, result).lifted_dim

    return hook


def _compare(tracer, args, kwargs, result):
    ok = sum(1 for r in result.records if r.ok)
    tracer.counters[(tracer.scope, "evaluation.cases_ok")] += ok
    tracer.counters[(tracer.scope, "evaluation.cases_failed")] += len(result.records) - ok


def _solve(tracer, args, kwargs, result):
    tracer.counters[(tracer.scope, "mpc.pgd_iterations")] += result.info.iterations
    tracer.counters[(tracer.scope, "mpc.solves_converged")] += int(result.info.converged)


HOOKS = {
    "dataset.save": _count("dataset.save.bytes", _save_bytes),
    "deep_koopman.train": _count("deep_koopman.epochs", lambda args, result: len(result[1])),
    "edmd.fit": _edmd_features(lambda args, result: result),
    "edmd.EdmdModel.lift": _edmd_features(lambda args, result: args[0]),
    "evaluation.compare": _compare,
    "mpc.condense": _count("mpc.condense.flops", lambda args, result: condense_flops(args[0])),
    "mpc.solve_box_qp": _solve,
}


def per_layer_metrics(tracer, op_walls: list[float], traced_costs: list[float],
                      untraced_costs: list[float]) -> dict:
    """Every per-layer metric of the traced operations.

    ``op_walls`` are the traced operations' wall times.  ``traced_costs``
    and ``untraced_costs`` are the wall times, over the reference
    computation's, of the traced operations and of the same operations run
    untraced in the same process; their medians give
    ``trace.overhead_frac``.
    """
    n_ops = len(op_walls)
    summary = tracer.summary()
    field_index = {"calls": 0, "s": 1, "self_s": 2}

    def span_total(span, field, only_scope=None):
        idx = field_index[field]
        return sum(v[idx] for (scope, name), v in summary.items()
                   if name == span and only_scope in (None, scope))

    def counter_total(key, only_scope=None):
        return sum(v for (scope, name), v in tracer.counters.items()
                   if name == key and only_scope in (None, scope))

    out = {}
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = span_total(span, field) / n_ops
    for key in COUNTER_METRICS:
        out[key] = counter_total(key) / n_ops
    out["edmd.features"] = max(
        (v for (_, name), v in tracer.counters.items() if name == "edmd.features"), default=0
    )

    # the no-control and VVC episodes are the only episodes compare runs
    rows = tracer.span_rows()
    out["evaluation.baseline_rollouts.s"] = sum(
        end - start for name, start, end, parent, _, _ in rows
        if name == "plant.run_episode" and parent >= 0 and rows[parent][0] == "evaluation.compare"
    ) / n_ops

    busy = sum(op_walls)
    for layer in LAYERS:
        self_s = sum(v[2] for (_, name), v in summary.items() if name.startswith(layer + "."))
        out[f"{layer}.busy_frac"] = self_s / busy

    for kind in MPC_KINDS:
        for metric, (span, field) in MPC_SPAN_METRICS.items():
            out[f"{metric}.{kind}"] = span_total(span, field, kind) / n_ops
        for key in MPC_COUNTER_METRICS:
            out[f"{key}.{kind}"] = counter_total(key, kind) / n_ops
        solve_ms = [1e3 * (end - start) for name, start, end, _, _, scope in rows
                    if name == "mpc.solve_box_qp" and scope == kind]
        solves = span_total("mpc.solve_box_qp", "calls", kind)
        out[f"mpc.solve_ms_p50.{kind}"] = float(np.percentile(solve_ms, 50)) if solve_ms else 0.0
        out[f"mpc.solve_ms_p98.{kind}"] = float(np.percentile(solve_ms, 98)) if solve_ms else 0.0
        out[f"mpc.solves_converged_frac.{kind}"] = (
            counter_total("mpc.solves_converged", kind) / solves if solves else 0.0
        )

    out["trace.overhead_frac"] = float(np.median(traced_costs) / np.median(untraced_costs) - 1.0)
    return {name: out[name] for name in per_layer_names()}
