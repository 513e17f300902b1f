"""Benchmark of the koopmanmpc pipeline: data generation, training and the
closed-loop comparison, end to end and, with tracing on, layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {datagen,train,closed_loop} \\
        --seed N --seconds S --trace {0,1}

The workload's inputs are made from ``--seed``.  Set-up runs three times
and its median counts; then operations run one after another for
``--seconds``, each checked for correct output once its timing is taken.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics ``setup_s``, ``peak_rss_mb`` and ``op_cost_ref``; with
``--trace 1`` it holds every per-layer metric of ``layers.py``, and every
third operation runs untraced as the reference for the tracer's overhead.
The line before it is a report with the workload's own metric names, the
sha256 of every artifact, and the machine facts.  A failed check sets
``correct`` to false, prints no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 3
MIN_OPS = 3
# With tracing on, every third operation runs untraced.  The host's speed
# drifts over seconds, so only untraced operations interleaved with the
# traced ones over the whole run give a fair reference for the tracer's
# overhead.
UNTRACED_EVERY = 3

# Per workload: the names of its two stages' throughputs in the report.
REPORT_NAMES = {
    "datagen": ("gen_samples_per_s", "load_samples_per_s"),
    "train": ("train_samples_per_s", "edmd_fit_samples_per_s"),
    "closed_loop": ("net_cases_per_s", "edmd_cases_per_s"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(REPORT_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads() -> None:
    """One BLAS thread.  The workloads' matrices are small: on a two-core
    machine a second BLAS thread spins at full load without making any
    stage faster (CPU time doubles, wall time stays) and competes with the
    interpreter's thread.  Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def warm_up() -> None:
    """First BLAS and LAPACK calls load and initialise the library; the
    first ``edmd.fit`` pays for that unless it happens here."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((64, 64))
    gram = a @ a.T + 64.0 * np.eye(64)
    np.linalg.cholesky(gram)
    np.linalg.solve(gram, a)
    np.linalg.cond(gram)
    np.linalg.eigvalsh(gram)


def reference_s() -> float:
    """Wall time of a fixed reference computation shaped like the package's
    hot paths: a loop of small numpy operations, as in the plant's RK4
    substeps, and a loop of plain Python arithmetic.  The benchmark owns
    this code, so no change to the package moves it; only the host's speed
    does."""
    import numpy as np

    start = time.perf_counter()
    a = np.full((6, 6), 0.05)
    x = np.ones(6)
    for _ in range(3000):
        x = x + 0.01 * np.tanh(a @ x)
    total = 0.0
    for i in range(200_000):
        total += (i % 7) * 0.5
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, work: Path, started: float) -> tuple[dict, list[str]]:
    """Set up, measure and check one workload; return the result line and
    the problems its checks found."""
    import numpy as np

    import layers
    import workloads
    from tracer import Tracer

    warm_up()
    warm_s = time.perf_counter() - started

    workload = workloads.WORKLOADS[args.workload](args.seed)
    attempted = failed = 0
    problems: list[str] = []
    setup_times, setup_digests = [], []
    for r in range(SETUP_REPEATS):
        start = time.perf_counter()
        try:
            setup_digests.append(workload.setup(work / f"setup-{r}"))
        except RuntimeError as exc:
            return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, [
                f"set-up failed: {exc}"
            ]
        setup_times.append(time.perf_counter() - start)
    if any(d != setup_digests[0] for d in setup_digests):
        problems.append("set-up artifacts differ between identical set-ups")

    tracer = Tracer(hooks=layers.HOOKS) if args.trace else None
    ops, traced_walls, untraced_walls, reference = [], [], [], []
    costs = {False: [], True: []}  # wall time over the reference's, untraced and traced
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        traced = tracer is not None and index % UNTRACED_EVERY != 0
        if time.perf_counter() >= deadline and (
            len(traced_walls) >= workload.min_traced_ops if tracer is not None else len(ops) >= MIN_OPS
        ):
            break
        op_dir = work / f"op-{index}"
        reference.append(reference_s())
        if traced:
            tracer.op = index
            tracer.install()
        start = time.perf_counter()
        try:
            op = workload.run(op_dir, index, tracer if traced else None)
        finally:
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        (traced_walls if traced else untraced_walls).append(wall)
        costs[traced].append(wall / reference[-1])
        workload.check(op_dir, op)
        shutil.rmtree(op_dir, ignore_errors=True)
        ops.append(op)
        index += 1

    for op in ops:
        attempted += op.attempted
        failed += op.failed
        problems += op.problems
    digests = {}
    for op in ops:
        if digests.setdefault(op.key, op.digests) != op.digests:
            problems.append(f"operations with the same inputs ({op.key}) wrote different bytes")
    if args.workload == "datagen":
        csv_digests = {d["samples.csv"] for d in digests.values()}
        if len(csv_digests) != len(digests):
            problems.append("a different seed left samples.csv unchanged")

    # The host's speed drifts by tens of percent over seconds to minutes,
    # so a wall time alone varies that much from run to run.  Each
    # operation's wall time over that of the reference computation run
    # just before it cancels the drift: the end-to-end metric is the
    # median of that ratio.  The wall-clock throughputs are reported too.
    done = [op for op in ops if len(op.stage_s) == 2]
    rates = [statistics.median(op.items[s] / op.stage_s[s] for op in done) if done
             else float("nan") for s in (0, 1)]
    op_cost_ref = statistics.median(costs[False])
    ops_per_s = 1.0 / statistics.median(untraced_walls)
    setup_s = warm_s + statistics.median(setup_times)
    rss = peak_rss_mb()
    report = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "failed_ops_frac": failed / max(attempted, 1),
        "ops_attempted": attempted,
    }
    report.update(zip(REPORT_NAMES[args.workload], rates))
    report["ops_per_s"] = ops_per_s
    report["reference_s"] = statistics.median(reference)
    report["op_cost_ref"] = op_cost_ref
    for key in sorted({k for op in ops for k in op.quality}):
        report[key] = statistics.median(op.quality[key] for op in ops if key in op.quality)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "operations": len(ops),
        "op_stage_s": [[round(t, 6) for t in op.stage_s] for op in ops],
        "report": report,
        "problems": problems,
        "digests": {"setup": setup_digests[0], "operations": digests},
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
    }
    print(json.dumps(record, sort_keys=True))

    correct = not problems
    if not correct:
        metrics = {}
    elif tracer is None:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "op_cost_ref": {"value": op_cost_ref, "unit": "ref"},
        }
    else:
        values = layers.per_layer_metrics(tracer, traced_walls, costs[True], costs[False])
        metrics = {k: {"value": v, "unit": layers.unit(k)} for k, v in values.items()}
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                    extra={"record": record, "metrics": values})
    if not all(np.isfinite(m["value"]) for m in metrics.values()):
        problems.append("a metric is not finite")
        correct, metrics = False, {}
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
              "metrics": metrics}
    return result, problems


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "koopmanmpc" / "__init__.py").is_file():
        print(f"perfbench: no koopmanmpc package under {src}", file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(src))
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, problems = run(args, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
