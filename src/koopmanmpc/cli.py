"""Command-line pipeline driver.

Subcommands wire config files to the library stages and write fixed-name
artifacts under ``--out``:

    gen-data  --config RUN.json --out DIR [--seed N]   dataset.json, samples.csv
    train     --data DIR --config RUN.json --out DIR   checkpoint.json/.bin, lifted_model.json/.bin,
                                                       training_history.csv
    fit-edmd  --data DIR --dict SPEC --ridge X --out DIR    lifted_model.json/.bin
    run-mpc   --model FILE --config RUN.json --out DIR      closed_loop.csv, qp_diagnostics.json
    compare   --model FILE --config RUN.json --cases N --seed N --out DIR  comparison.csv, summary.json

A model file or checkpoint ``X.json`` keeps its float arrays in the sidecar
``X.bin`` beside it (``lifted``); ``--model`` names the JSON, and the
sidecar must sit next to it.

Every run is deterministic given its config and flags; all randomness
flows from explicit seeds.  Failures print one machine-readable JSON line
to stderr and exit nonzero (2 for config validation, a flag value
included, 1 otherwise).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from koopmanmpc import dataset as dataset_mod
from koopmanmpc import deep_koopman, edmd, evaluation, lifted
from koopmanmpc import mpc as mpc_mod
from koopmanmpc import plant as plant_mod
from koopmanmpc.plant import _is_number


class ConfigError(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass
class RunConfig:
    plant: plant_mod.PlantConfig
    seed: int
    dataset: dataset_mod.DatasetConfig
    net: deep_koopman.KoopmanNetConfig  # sized for the plant; train swaps in the data's (n, h, m)
    train: deep_koopman.TrainHyper
    mpc: mpc_mod.MpcConfig
    vvc: evaluation.VvcParams
    eval: evaluation.EvalConfig


# Each section of a run config and the library dataclasses that own its
# keys: a key is ``prefix + field``, its default is the field's default and
# the dataclass's constructor is its range check.
_SCHEMA = {
    "dataset": [(dataset_mod.DatasetConfig, "", ("n_loads", "policies", "train_ratio"))],
    "koopman_net": [
        (deep_koopman.KoopmanNetConfig, "", ("lifted_dim", "lstm_hidden")),
        (deep_koopman.TrainHyper, "",
         ("batch_size", "learning_rate", "beta1", "beta2", "max_epochs", "patience")),
    ],
    "mpc": [(mpc_mod.MpcConfig, "", ("r_weight", "tol", "max_iter"))],
    "eval": [(evaluation.VvcParams, "vvc_", ("deadband", "gain")),
             (evaluation.EvalConfig, "", ("n_cases", "monitored"))],
}


def _is_seed(val) -> bool:
    """An integer >= 0, the seeds numpy's generators accept."""
    return _is_number(val, integer=True) and val >= 0


def _section(doc: dict, name: str, violations: list[str], extra: dict) -> dict:
    """Section ``name`` of ``doc`` built into each of its dataclasses, keyed
    by class; None where the constructor rejects its fields, with the
    ``ValueError`` reported under ``name``.  ``extra`` maps a class to the
    fields it takes from outside the section, or to None to leave it unbuilt.

    A field whose default is a number must hold a number too, an integer
    where the default is one; a field that does not is reported and read
    as its default, so the constructors see only numbers.  A key that no
    field matches is reported as unknown."""
    given = doc.get(name, {})
    if not isinstance(given, dict):
        violations.append(f"{name}: must be an object")
        given = {}
    built, known = {}, set()
    for cls, prefix, keys in _SCHEMA[name]:
        known.update(prefix + key for key in keys)
        kwargs = {}
        for f in fields(cls):
            if f.name not in keys:
                continue
            value = given.get(prefix + f.name, f.default)
            integer = isinstance(f.default, int)
            if _is_number(f.default, integer=False) and not _is_number(value, integer):
                violations.append(f"{name}.{prefix}{f.name}: must be "
                                  f"{'an integer' if integer else 'a number'}")
                value = f.default
            kwargs[f.name] = value
        outside = extra.get(cls, {})
        if outside is None:
            continue
        try:
            built[cls] = cls(**kwargs, **outside)
        except ValueError as exc:
            violations.append(f"{name}: {exc}")
            built[cls] = None
    violations += [f"{name}.{key}: unknown key" for key in sorted(given.keys() - known)]
    return built


def load_run_config(path) -> RunConfig:
    """Parse and validate a run config, collecting every violation."""
    path = Path(path)
    violations: list[str] = []
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError([f"config unreadable: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError([f"config: must be a JSON object (got {type(doc).__name__})"])

    plant_cfg = None
    plant_path = doc.get("plant")
    if not isinstance(plant_path, str):
        violations.append("plant: must be a path string")
    else:
        resolved = (path.parent / plant_path).resolve()
        if not resolved.exists():
            violations.append(f"plant: file {resolved} does not exist")
        else:
            try:
                plant_cfg = plant_mod.load_config(resolved)
            except (ValueError, json.JSONDecodeError) as exc:
                violations.append(f"plant: invalid plant config ({exc})")

    seed = doc.get("seed")
    if not _is_seed(seed):
        violations.append(f"seed: required integer >= 0, no implicit entropy (got {seed!r})")
    known = {"plant", "seed", *_SCHEMA}
    violations += [f"{key}: unknown key" for key in sorted(doc.keys() - known)]

    net_size = None  # the network is sized for the plant, so it needs one
    if plant_cfg is not None and _is_seed(seed):
        net_size = dict(n=plant_cfg.model.n, h=plant_cfg.schedule.h, m=plant_cfg.model.m, seed=seed)
    built = {}
    for name in _SCHEMA:
        built.update(_section(doc, name, violations, {deep_koopman.KoopmanNetConfig: net_size}))
    eval_cfg = built[evaluation.EvalConfig]
    if eval_cfg is not None and plant_cfg is not None:
        try:
            evaluation.monitored_buses(plant_cfg.model.n, eval_cfg.monitored)
        except ValueError as exc:
            violations.append(f"eval.monitored: {exc}")

    if violations:
        raise ConfigError(violations)
    return RunConfig(
        plant=plant_cfg,
        seed=seed,
        dataset=built[dataset_mod.DatasetConfig],
        net=built[deep_koopman.KoopmanNetConfig],
        train=built[deep_koopman.TrainHyper],
        mpc=built[mpc_mod.MpcConfig],
        vvc=built[evaluation.VvcParams],
        eval=eval_cfg,
    )


def parse_dictionary_spec(spec: str, input_dim: int, data: np.ndarray | None, seed: int):
    """'identity' | 'poly:DEGREE' | 'rbf:K:WIDTH' -> Dictionary.  A spec
    that does not parse, or whose values are out of range, is a
    ``ConfigError`` naming ``dict``."""
    parts = spec.split(":")
    if parts[0] == "identity" and len(parts) == 1:
        return edmd.identity_dictionary(input_dim)
    if parts[0] == "rbf" and len(parts) == 3 and data is None:
        raise ConfigError(["dict: rbf centers require sample data"])
    try:
        if parts[0] == "poly" and len(parts) == 2:
            return edmd.polynomial_dictionary(input_dim, int(parts[1]))
        if parts[0] == "rbf" and len(parts) == 3:
            centers = edmd.rbf_centers_from_data(data, int(parts[1]), seed)
            return edmd.rbf_dictionary(input_dim, centers, float(parts[2]))
    except ValueError as exc:
        raise ConfigError([f"dict: invalid dictionary spec {spec!r} ({exc})"]) from exc
    raise ConfigError([f"dict: cannot parse dictionary spec {spec!r}"])


def _flag(name: str, build, text):
    """``build(text)`` on the text of flag ``--name``, which converts it
    and runs the library check that owns it: a ``ValueError`` of either is
    a ``ConfigError`` naming ``name``."""
    try:
        return build(text)
    except ValueError as exc:
        raise ConfigError([f"{name}: {exc}"]) from exc


def _seed(cfg: RunConfig, flag) -> int:
    """The ``--seed`` flag's value, checked as the run config's is, or
    the run config's seed when the flag is absent."""
    if flag is None:
        return cfg.seed
    seed = _flag("seed", int, flag)
    if not _is_seed(seed):
        raise ConfigError([f"seed: must be an integer >= 0 (got {seed!r})"])
    return seed


def _out_dir(arg) -> Path:
    out = Path(arg)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen_data(args) -> int:
    cfg = load_run_config(args.config)
    seed = _seed(cfg, args.seed)
    ds = dataset_mod.generate(cfg.plant, cfg.dataset, seed)
    out = _out_dir(args.out)
    dataset_mod.save(ds, out)
    print(f"wrote {len(ds)} samples to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    ds = dataset_mod.load(args.data)
    n, h, m = ds.dims
    try:  # the run config's sizes checked against the data's (n, h, m)
        net_cfg = replace(cfg.net, n=n, h=h, m=m)
    except ValueError as exc:
        raise ConfigError([f"koopman_net: {exc}"]) from exc
    train_ds, val_ds = dataset_mod.split(ds, cfg.dataset.train_ratio, seed=cfg.seed)
    net, history = deep_koopman.train(net_cfg, train_ds, val_ds, cfg.train)
    out = _out_dir(args.out)
    deep_koopman.save_net(net, out / "checkpoint.json", scaler=ds.scaler)
    model = deep_koopman.extract(net, ds.scaler)
    lifted.save_lifted_model(model, out / "lifted_model.json")
    deep_koopman.history_to_csv(history, out / "training_history.csv")
    kept = deep_koopman.kept_epoch(history)  # the epoch whose parameters were saved
    print(
        f"trained {len(history)} epochs; kept epoch {kept.epoch}: "
        f"val MAE next={kept.val_mae_next:.5f} recon={kept.val_mae_recon:.5f}"
    )
    return 0


def cmd_fit_edmd(args) -> int:
    ridge = _flag("ridge", lambda text: edmd.check_ridge(float(text)), args.ridge)
    ds = dataset_mod.load(args.data)
    n, h, m = ds.dims
    seed = int(ds.meta.get("master_seed", 0))
    flat = None
    if args.dict.startswith("rbf"):
        flat = ds.scaler.normalize_v(ds.v_k).reshape(len(ds), -1)
    dictionary = parse_dictionary_spec(args.dict, n * h, flat, seed)
    model = edmd.fit(ds, dictionary, ridge=ridge)
    out = _out_dir(args.out)
    lifted.save_lifted_model(model, out / "lifted_model.json")
    print(
        f"fit {dictionary.kind} dictionary ({model.lifted_dim} features); "
        f"dynamics rms {model.residuals['dynamics_rms']:.3e}"
    )
    return 0


def cmd_run_mpc(args) -> int:
    cfg = load_run_config(args.config)
    model = lifted.load_lifted_model(args.model)
    loop = mpc_mod.receding_horizon(model, cfg.plant, cfg.mpc)
    out = _out_dir(args.out)
    loop.to_csv(out / "closed_loop.csv")
    loop.diagnostics_to_json(out / "qp_diagnostics.json")
    if loop.aborted:
        last = loop.diagnostics[-1]
        print(json.dumps({"error": "closed loop aborted on solver non-convergence",
                          "instant": last["instant"], "pg_norm": last["pg_norm"]}),
              file=sys.stderr)
        return 1
    term = loop.trajectory.voltages[-1].mean()
    print(f"closed loop done; terminal mean voltage {term:.4f} p.u.")
    return 0


def cmd_compare(args) -> int:
    cfg = load_run_config(args.config)
    eval_cfg = cfg.eval
    if args.cases is not None:
        eval_cfg = _flag("cases", lambda text: replace(eval_cfg, n_cases=int(text)), args.cases)
    seed = _seed(cfg, args.seed)
    model = lifted.load_lifted_model(args.model)
    n_cases = eval_cfg.n_cases
    report = evaluation.compare(model, cfg.plant, eval_cfg, seed, vvc=cfg.vvc, mpc=cfg.mpc)
    out = _out_dir(args.out)
    report.to_csv(out / "comparison.csv")
    report.to_json(out / "summary.json")
    if not any(r.ok for r in report.records):
        print(json.dumps({"error": f"all {n_cases} comparison cases failed",
                          "first": report.records[0].error}), file=sys.stderr)
        return 1
    print(f"win fraction (mpc beats vvc): {report.win_fraction:.3f} over {n_cases} cases")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="koopmanmpc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="simulate load cases and write the dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", default=None)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train the deep lifting network")
    p.add_argument("--data", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fit-edmd", help="fit the dictionary baseline")
    p.add_argument("--data", required=True)
    p.add_argument("--dict", default="poly:2")
    p.add_argument("--ridge", default="1e-8")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_edmd)

    p = sub.add_parser("run-mpc", help="run the receding-horizon closed loop")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run_mpc)

    p = sub.add_parser("compare", help="closed-loop comparison against baselines")
    p.add_argument("--model", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--cases", default=None)
    p.add_argument("--seed", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": "config validation failed", "fields": exc.violations}),
              file=sys.stderr)
        return 2
    except Exception as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
