import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from koopmanmpc import cli
from koopmanmpc.dataset import DatasetConfig
from koopmanmpc.deep_koopman import KoopmanNetConfig, TrainHyper
from koopmanmpc.evaluation import EvalConfig, VvcParams
from koopmanmpc.lifted import decode_array, encode_array, read_payload, write_document
from koopmanmpc.mpc import MpcConfig
from koopmanmpc.plant import config_to_dict, default_config, load_config, save_config


@pytest.fixture()
def workspace(tmp_path):
    """A tiny but complete run config pointing at the default plant."""
    save_config(default_config(), tmp_path / "plant.json")
    run = {
        "plant": "plant.json",
        "seed": 77,
        "dataset": {"n_loads": 8, "train_ratio": 0.7},
        "koopman_net": {"lifted_dim": 12, "lstm_hidden": 4, "batch_size": 8,
                        "max_epochs": 3, "patience": 3},
        "mpc": {"r_weight": 0.0, "tol": 1e-6, "max_iter": 20000},
        "eval": {"n_cases": 2},
    }
    with open(tmp_path / "run.json", "w") as f:
        json.dump(run, f)
    return tmp_path


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


class TestConfigValidation:
    def test_all_violations_enumerated(self, tmp_path, capsys):
        with open(tmp_path / "bad.json", "w") as f:
            json.dump({"plant": "missing.json", "dataset": {"n_loads": 0}}, f)
        code = run_cli("gen-data", "--config", tmp_path / "bad.json", "--out", tmp_path / "o")
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config validation failed"
        joined = " ".join(err["fields"])
        assert "plant" in joined and "n_loads" in joined and "seed" in joined

    def test_wrongly_typed_numbers_enumerated(self, workspace, capsys):
        run = json.loads((workspace / "run.json").read_text())
        run["koopman_net"]["batch_size"] = "32"
        run["mpc"]["tol"] = None
        run["eval"]["n_cases"] = 2.5
        run["dataset"]["n_loads"] = True
        (workspace / "run.json").write_text(json.dumps(run))
        code = run_cli("gen-data", "--config", workspace / "run.json", "--out", workspace / "o")
        assert code == 2
        fields = json.loads(capsys.readouterr().err.strip())["fields"]
        for name in ("koopman_net.batch_size", "mpc.tol", "eval.n_cases", "dataset.n_loads"):
            assert any(f.startswith(name + ":") for f in fields), fields

    @pytest.mark.parametrize("monitored", [[99], [-1], [], [0, "1"], 3, [1, 1]])
    def test_monitored_buses_checked_at_load(self, workspace, capsys, monitored):
        run = json.loads((workspace / "run.json").read_text())
        run["eval"]["monitored"] = monitored
        (workspace / "run.json").write_text(json.dumps(run))
        code = run_cli("gen-data", "--config", workspace / "run.json", "--out", workspace / "o")
        assert code == 2
        fields = json.loads(capsys.readouterr().err.strip())["fields"]
        assert any(f.startswith("eval.monitored:") for f in fields)

    @pytest.mark.parametrize("section, key, value", [
        ("koopman_net", "learning_rate", -1),
        ("koopman_net", "learning_rate", 0),
        ("koopman_net", "learning_rate", float("inf")),  # diverged in training when let through
        ("koopman_net", "beta1", 1.5),
        ("koopman_net", "lstm_hidden", 0),
        ("koopman_net", "patience", -3),
        ("eval", "vvc_gain", -1),
        ("eval", "vvc_gain", float("inf")),  # written as Infinity, which json reads
        ("eval", "vvc_deadband", float("nan")),
        ("dataset", "policies", 5),
        ("mpc", "tol", float("inf")),
        ("mpc", "tol", 0),
        ("mpc", "tol", float("nan")),
        ("mpc", "r_weight", float("inf")),
        ("mpc", "r_weight", -1),
        ("mpc", "max_iter", 0),
        pytest.param("mpc", "tolerance", 1e-3, id="unknown_key"),
        pytest.param("dataset", None, [1], id="section_not_an_object"),
        *(pytest.param("seed", None, seed, id=f"seed_{name}") for name, seed in (
            ("negative", -1), ("fraction", 1.5), ("string", "7"), ("boolean", True),
            ("null", None))),
        pytest.param(None, None, [1], id="config_not_an_object"),
    ])
    def test_library_range_checks_exit_2(self, workspace, capsys, section, key, value):
        # key None replaces the whole section (or the top-level seed),
        # section None the whole config
        run = json.loads((workspace / "run.json").read_text())
        if section is None:
            run = value
        elif key is None:
            run[section] = value
        else:
            run[section][key] = value
        (workspace / "run.json").write_text(json.dumps(run))
        code = run_cli("gen-data", "--config", workspace / "run.json", "--out", workspace / "o")
        assert code == 2
        fields = json.loads(capsys.readouterr().err.strip())["fields"]
        assert len(fields) == 1, fields
        field = key.removeprefix("vvc_") if key else section or "config"
        assert fields[0].startswith((f"{section or 'config'}:", f"{section}.{key}:")), fields
        assert field in fields[0], fields
        assert not (workspace / "o").exists()

    def test_every_violated_field_of_a_section_listed(self, workspace, capsys):
        run = json.loads((workspace / "run.json").read_text())
        run["koopman_net"].update(batch_size=0, learning_rate=-1)
        (workspace / "run.json").write_text(json.dumps(run))
        assert run_cli("gen-data", "--config", workspace / "run.json",
                       "--out", workspace / "o") == 2
        joined = " ".join(json.loads(capsys.readouterr().err.strip())["fields"])
        assert "batch_size" in joined and "learning_rate" in joined

    def test_defaults_are_the_library_dataclasses(self, workspace):
        (workspace / "min.json").write_text(json.dumps({"plant": "plant.json", "seed": 3}))
        cfg = cli.load_run_config(workspace / "min.json")
        assert cfg.dataset == DatasetConfig()
        assert cfg.train == TrainHyper()
        assert cfg.mpc == MpcConfig()
        assert cfg.vvc == VvcParams()
        assert cfg.eval == EvalConfig()
        assert cfg.net == KoopmanNetConfig(n=6, h=4, m=3, seed=3)

    def test_non_finite_plant_parameter_exits_2(self, workspace, capsys):
        # json writes NaN and reads it back; the plant must still reject it
        doc = config_to_dict(default_config())
        doc["lambda"] = float("nan")
        (workspace / "plant.json").write_text(json.dumps(doc))
        code = run_cli("gen-data", "--config", workspace / "run.json", "--out", workspace / "o")
        assert code == 2
        fields = json.loads(capsys.readouterr().err.strip())["fields"]
        assert fields == ["plant: invalid plant config (plant parameters must be finite: lambda)"]
        assert not (workspace / "o").exists()

    def test_fault_bus_beyond_the_plant_exits_2(self, workspace, capsys):
        doc = config_to_dict(default_config())
        doc["fault"]["affected"] = [99]
        (workspace / "plant.json").write_text(json.dumps(doc))
        code = run_cli("gen-data", "--config", workspace / "run.json", "--out", workspace / "o")
        assert code == 2
        fields = json.loads(capsys.readouterr().err.strip())["fields"]
        assert fields == ["plant: invalid plant config (fault buses must be below n = 6 (got [99]))"]
        assert not (workspace / "o").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(n=None), "n must be an integer (got None)"),
        (lambda doc: doc.update({"lambda": [1, 2]}), "lambda must be a number (got [1, 2])"),
        (lambda doc: doc.update(fault={"affected": 5, "depth": 0.25}), "'int' object is not iterable"),
        (lambda doc: doc.update(fault=[1]), "list indices must be integers"),
        (lambda doc: [doc], "plant config must be a JSON object (got list)"),
        # each of these used to be coerced by int() or float() and run
        (lambda doc: doc["schedule"].update(n_instants=5.5), "n_instants must be an integer (got 5.5)"),
        (lambda doc: doc["schedule"].update(n_instants=True),
         "n_instants must be an integer (got True)"),
        (lambda doc: doc.update(n=6.5), "n must be an integer (got 6.5)"),
        (lambda doc: doc.update(c=True), "c must be a number (got True)"),
        (lambda doc: doc.update({"lambda": "1.0"}), "lambda must be a number (got '1.0')"),
        (lambda doc: doc["schedule"].update(Ts="0.75"), "Ts must be a number (got '0.75')"),
        (lambda doc: doc.update(v_max="1.1"), "v_max must be a number (got '1.1')"),
        (lambda doc: doc["fault"].update(depth="0.25"), "depth must be a number (got '0.25')"),
        (lambda doc: doc.update(a=[str(x) for x in doc["a"]]), "every entry of a must be a number (got '2.0')"),
        (lambda doc: doc.update(d=[True] * 6), "every entry of d must be a number (got True)"),
        (lambda doc: doc["W"][1].__setitem__(0, "0.5"), "every entry of W must be a number (got '0.5')"),
        (lambda doc: doc["gamma"][0].__setitem__(0, False), "every entry of gamma must be a number (got False)"),
    ], ids=["null_n", "list_lambda", "int_fault_buses", "list_fault", "list_document",
            "fractional_n_instants", "boolean_n_instants", "fractional_n", "boolean_c",
            "string_lambda", "string_Ts", "string_v_max", "string_depth", "string_a",
            "boolean_d", "string_W_entry", "boolean_gamma_entry"])
    def test_wrongly_typed_plant_config_exits_2(self, workspace, capsys, edit, message):
        doc = config_to_dict(default_config())
        doc = edit(doc) or doc
        (workspace / "plant.json").write_text(json.dumps(doc))
        code = run_cli("gen-data", "--config", workspace / "run.json", "--out", workspace / "o")
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config validation failed"
        assert len(err["fields"]) == 1
        assert err["fields"][0].startswith("plant: invalid plant config (")
        assert message in err["fields"][0]
        assert not (workspace / "o").exists()

    def test_unreadable_config(self, tmp_path, capsys):
        (tmp_path / "broken.json").write_text("{not json")
        code = run_cli("gen-data", "--config", tmp_path / "broken.json", "--out", tmp_path / "o")
        assert code == 2


NET_SIZE = {"n": 6, "h": 4, "m": 3}

COUNTS = [
    pytest.param(lambda x: EvalConfig(n_cases=x), "n_cases", id="n_cases"),
    pytest.param(lambda x: DatasetConfig(n_loads=x), "n_loads", id="n_loads"),
    pytest.param(lambda x: MpcConfig(max_iter=x), "max_iter", id="max_iter"),
    pytest.param(lambda x: TrainHyper(batch_size=x), "batch_size", id="batch_size"),
    pytest.param(lambda x: TrainHyper(max_epochs=x), "max_epochs", id="max_epochs"),
    pytest.param(lambda x: TrainHyper(patience=x), "patience", id="patience"),
    pytest.param(lambda x: KoopmanNetConfig(**{**NET_SIZE, "n": x}), "n", id="n"),
    pytest.param(lambda x: KoopmanNetConfig(**NET_SIZE, lstm_hidden=x), "lstm_hidden",
                 id="lstm_hidden"),
    pytest.param(lambda x: KoopmanNetConfig(**NET_SIZE, seed=x), "seed", id="seed"),
]


@pytest.mark.parametrize("value", [True, 2.5, 3.0, "3", None])
@pytest.mark.parametrize("build, name", COUNTS)
def test_library_counts_reject_what_is_not_an_integer(build, name, value):
    # the rule the run config's keys follow, for a config built in code
    with pytest.raises(ValueError, match=rf"\b{name} must be an integer"):
        build(value)


@pytest.mark.parametrize("value", [3, np.int64(3)])
@pytest.mark.parametrize("build, name", COUNTS)
def test_library_counts_take_python_and_numpy_integers(build, name, value):
    assert getattr(build(value), name) == 3


FLOATS = [
    pytest.param(lambda x: DatasetConfig(train_ratio=x), "train_ratio", id="train_ratio"),
    pytest.param(lambda x: MpcConfig(r_weight=x), "r_weight", id="r_weight"),
    pytest.param(lambda x: MpcConfig(tol=x), "tol", id="tol"),
    pytest.param(lambda x: TrainHyper(learning_rate=x), "learning_rate", id="learning_rate"),
    pytest.param(lambda x: TrainHyper(beta1=x), "beta1", id="beta1"),
    pytest.param(lambda x: TrainHyper(beta2=x), "beta2", id="beta2"),
    pytest.param(lambda x: TrainHyper(eps=x), "eps", id="eps"),
    pytest.param(lambda x: VvcParams(deadband=x), "deadband", id="deadband"),
    pytest.param(lambda x: VvcParams(gain=x), "gain", id="gain"),
]


@pytest.mark.parametrize("value", ["x", "0.5", None, True, [0.5]])
@pytest.mark.parametrize("build, name", FLOATS)
def test_library_floats_reject_what_is_not_a_number(build, name, value):
    # named as a ValueError, where the comparison raised a bare TypeError
    with pytest.raises(ValueError, match=rf"\b{name} must be a (finite )?number"):
        build(value)


@pytest.mark.parametrize("value", [0.5, np.float32(0.5)])
@pytest.mark.parametrize("build, name", FLOATS)
def test_library_floats_take_python_and_numpy_numbers(build, name, value):
    assert getattr(build(value), name) == value


@pytest.mark.parametrize("build, name, value", [
    pytest.param(lambda x: TrainHyper(learning_rate=x), "learning_rate", float("inf"),
                 id="learning_rate_inf"),
    pytest.param(lambda x: TrainHyper(learning_rate=x), "learning_rate", float("nan"),
                 id="learning_rate_nan"),
    pytest.param(lambda x: TrainHyper(eps=x), "eps", float("inf"), id="eps_inf"),
    pytest.param(lambda x: TrainHyper(eps=x), "eps", float("nan"), id="eps_nan"),
    pytest.param(lambda x: TrainHyper(eps=x), "eps", 0.0, id="eps_zero"),
    pytest.param(lambda x: TrainHyper(eps=x), "eps", -1e-8, id="eps_negative"),
    pytest.param(lambda x: KoopmanNetConfig(**NET_SIZE, seed=x), "seed", -1, id="seed_negative"),
])
def test_library_configs_reject_out_of_range_values(build, name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be "):
        build(value)


class TestGenData:
    def test_sample_count_and_determinism(self, workspace):
        for sub in ("a", "b"):
            assert run_cli("gen-data", "--config", workspace / "run.json",
                           "--out", workspace / sub) == 0
        manifest = json.loads((workspace / "a" / "dataset.json").read_text())
        assert manifest["n_samples"] == 8 * 3 * 5
        for name in ("dataset.json", "samples.csv"):
            assert digest(workspace / "a" / name) == digest(workspace / "b" / name)

    def test_seed_flag_overrides(self, workspace):
        assert run_cli("gen-data", "--config", workspace / "run.json",
                       "--out", workspace / "a") == 0
        assert run_cli("gen-data", "--config", workspace / "run.json", "--seed", 123,
                       "--out", workspace / "c") == 0
        assert digest(workspace / "a" / "samples.csv") != digest(workspace / "c" / "samples.csv")


class TestPipeline:
    def test_full_pipeline_and_idempotence(self, workspace):
        ws = workspace
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0

        for sub in ("m1", "m2"):
            assert run_cli("train", "--data", ws / "data", "--config", ws / "run.json",
                           "--out", ws / sub) == 0
        for name in ("checkpoint.json", "lifted_model.json", "training_history.csv"):
            assert (ws / "m1" / name).exists()
            assert digest(ws / "m1" / name) == digest(ws / "m2" / name)

        for sub in ("e1", "e2"):
            assert run_cli("fit-edmd", "--data", ws / "data", "--dict", "identity",
                           "--ridge", "1e-8", "--out", ws / sub) == 0
        assert digest(ws / "e1" / "lifted_model.json") == digest(ws / "e2" / "lifted_model.json")

        for sub in ("r1", "r2"):
            assert run_cli("run-mpc", "--model", ws / "m1" / "lifted_model.json",
                           "--config", ws / "run.json", "--out", ws / sub) == 0
        for name in ("closed_loop.csv", "qp_diagnostics.json"):
            assert digest(ws / "r1" / name) == digest(ws / "r2" / name)

        for sub in ("c1", "c2"):
            assert run_cli("compare", "--model", ws / "m1" / "lifted_model.json",
                           "--config", ws / "run.json", "--cases", 2, "--seed", 5,
                           "--out", ws / sub) == 0
        for name in ("comparison.csv", "summary.json"):
            assert digest(ws / "c1" / name) == digest(ws / "c2" / name)

    def test_run_mpc_with_edmd_model(self, workspace):
        ws = workspace
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0
        assert run_cli("fit-edmd", "--data", ws / "data", "--dict", "identity",
                       "--ridge", "1e-6", "--out", ws / "edmd") == 0
        assert run_cli("run-mpc", "--model", ws / "edmd" / "lifted_model.json",
                       "--config", ws / "run.json", "--out", ws / "mpc_edmd") == 0
        assert (ws / "mpc_edmd" / "closed_loop.csv").exists()

    def test_closed_loop_csv_schema(self, workspace):
        ws = workspace
        run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data")
        run_cli("fit-edmd", "--data", ws / "data", "--out", ws / "edmd",
                "--dict", "identity", "--ridge", "1e-6")
        run_cli("run-mpc", "--model", ws / "edmd" / "lifted_model.json",
                "--config", ws / "run.json", "--out", ws / "loop")
        lines = (ws / "loop" / "closed_loop.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "time" and header[1] == "v_0" and header[-1] == "u_2"
        assert len(lines) == 1 + 25  # (5+1) intervals * 4 samples + initial

    def test_compare_fails_when_no_case_succeeds(self, workspace, capsys):
        ws = workspace
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0
        assert run_cli("fit-edmd", "--data", ws / "data", "--dict", "identity",
                       "--out", ws / "edmd") == 0
        run = json.loads((ws / "run.json").read_text())
        run["mpc"] = {"tol": 1e-14, "max_iter": 1}  # no solve can converge
        (ws / "run.json").write_text(json.dumps(run))
        capsys.readouterr()
        code = run_cli("compare", "--model", ws / "edmd" / "lifted_model.json",
                       "--config", ws / "run.json", "--cases", 2, "--out", ws / "cmp")
        assert code == 1
        assert "error" in json.loads(capsys.readouterr().err.strip())
        assert json.loads((ws / "cmp" / "summary.json").read_text())["n_ok"] == 0

    def test_run_mpc_abort_is_a_json_error(self, workspace, capsys):
        ws = workspace
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0
        assert run_cli("fit-edmd", "--data", ws / "data", "--dict", "identity",
                       "--out", ws / "edmd") == 0
        run = json.loads((ws / "run.json").read_text())
        run["mpc"] = {"tol": 1e-14, "max_iter": 1}  # no solve can converge
        (ws / "run.json").write_text(json.dumps(run))
        capsys.readouterr()
        code = run_cli("run-mpc", "--model", ws / "edmd" / "lifted_model.json",
                       "--config", ws / "run.json", "--out", ws / "loop")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        last = json.loads((ws / "loop" / "qp_diagnostics.json").read_text())["instants"][-1]
        assert "error" in err
        assert err["instant"] == last["instant"] and err["pg_norm"] == last["pg_norm"] > 1e-14

    @pytest.mark.parametrize("kind", ["koopman_net", "edmd"])
    def test_model_plant_mismatch_is_a_json_error(self, workspace, capsys, kind):
        # a model fit on the default 6-bus plant, run against the 12-bus mirror plant
        ws = workspace
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0
        if kind == "edmd":
            assert run_cli("fit-edmd", "--data", ws / "data", "--dict", "identity",
                           "--out", ws / "model") == 0
        else:
            assert run_cli("train", "--data", ws / "data", "--config", ws / "run.json",
                           "--out", ws / "model") == 0
        root = Path(__file__).resolve().parents[1] / "configs"
        save_config(load_config(root / "mirror_plant.json"), ws / "mirror.json")
        run = json.loads((ws / "run.json").read_text())
        run["plant"] = "mirror.json"
        run["koopman_net"]["lifted_dim"] = 16  # must exceed the mirror's 12 buses
        (ws / "run_mirror.json").write_text(json.dumps(run))
        for command, extra in (("run-mpc", ()), ("compare", ("--cases", 1))):
            capsys.readouterr()
            code = run_cli(command, "--model", ws / "model" / "lifted_model.json",
                           "--config", ws / "run_mirror.json", *extra, "--out", ws / command)
            assert code == 1
            lines = capsys.readouterr().err.strip().splitlines()
            assert len(lines) == 1
            err = json.loads(lines[0])
            assert err["type"] == "ValueError"
            assert "(6, 4, 3)" in err["error"] and "(12, 4, 5)" in err["error"]

    def test_train_reports_the_kept_epoch(self, workspace, capsys):
        # an early stop keeps the parameters of `patience` epochs before the last
        ws = workspace
        run = json.loads((ws / "run.json").read_text())
        run["koopman_net"].update(max_epochs=60, patience=2, learning_rate=0.01)
        (ws / "run.json").write_text(json.dumps(run))
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0
        capsys.readouterr()
        assert run_cli("train", "--data", ws / "data", "--config", ws / "run.json",
                       "--out", ws / "m") == 0
        with open(ws / "m" / "training_history.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) < 60
        kept = rows[-3]
        assert min(float(r["val_mae_next"]) + float(r["val_mae_recon"]) for r in rows) == \
            float(kept["val_mae_next"]) + float(kept["val_mae_recon"])
        assert capsys.readouterr().out == (
            f"trained {len(rows)} epochs; kept epoch {kept['epoch']}: "
            f"val MAE next={float(kept['val_mae_next']):.5f} "
            f"recon={float(kept['val_mae_recon']):.5f}\n"
        )

    def test_train_checks_lifted_dim_against_the_data(self, workspace, capsys):
        # run.json's lifted_dim of 12 fits its six-bus plant, not data of the 12-bus mirror
        ws = workspace
        root = Path(__file__).resolve().parents[1] / "configs"
        save_config(load_config(root / "mirror_plant.json"), ws / "mirror.json")
        run = json.loads((ws / "run.json").read_text())
        run.update(plant="mirror.json", dataset={"n_loads": 2, "train_ratio": 0.7})
        run["koopman_net"]["lifted_dim"] = 16
        (ws / "run_mirror.json").write_text(json.dumps(run))
        assert run_cli("gen-data", "--config", ws / "run_mirror.json", "--out", ws / "data") == 0
        capsys.readouterr()
        code = run_cli("train", "--data", ws / "data", "--config", ws / "run.json",
                       "--out", ws / "m")
        assert code == 2
        assert json.loads(capsys.readouterr().err.strip()) == {
            "error": "config validation failed",
            "fields": ["koopman_net: lifted_dim must exceed n = 12 (got 12)"]}
        assert not (ws / "m").exists()

    def test_train_rejects_an_empty_split_half(self, workspace, capsys):
        ws = workspace
        run = json.loads((ws / "run.json").read_text())
        run["dataset"] = {"n_loads": 1, "train_ratio": 0.05}  # 15 samples, none to train on
        (ws / "run.json").write_text(json.dumps(run))
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0
        capsys.readouterr()
        code = run_cli("train", "--data", ws / "data", "--config", ws / "run.json",
                       "--out", ws / "m")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "0 training and 15 held-out" in err["error"]

    @pytest.mark.parametrize("spec", ["poly:x", "poly:0", "rbf:x:1", "rbf:0:1", "rbf:4:0",
                                      "rbf:4:nan"])
    def test_bad_dict_values_exit_2(self, workspace, capsys, spec):
        ws = workspace
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0
        capsys.readouterr()
        code = run_cli("fit-edmd", "--data", ws / "data", "--dict", spec, "--out", ws / "e")
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config validation failed"
        assert err["fields"][0].startswith("dict:") and spec in err["fields"][0]

    @pytest.mark.parametrize("command, flag, value", [
        ("compare", "--cases", 0), ("compare", "--cases", -2),
        ("fit-edmd", "--ridge", -1), ("fit-edmd", "--ridge", "nan"), ("fit-edmd", "--ridge", "inf"),
        ("compare", "--seed", -1), ("gen-data", "--seed", -1),
        # text that is not a number of the flag's kind fails the same check
        ("gen-data", "--seed", "abc"), ("gen-data", "--seed", "1.5"), ("compare", "--seed", "x"),
        ("compare", "--cases", "abc"), ("compare", "--cases", "2.0"), ("fit-edmd", "--ridge", "x"),
    ])
    def test_bad_flag_values_exit_2(self, workspace, capsys, command, flag, value):
        ws = workspace
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0
        assert run_cli("fit-edmd", "--data", ws / "data", "--dict", "identity",
                       "--out", ws / "edmd") == 0
        capsys.readouterr()
        if command == "compare":
            argv = ("--model", ws / "edmd" / "lifted_model.json", "--config", ws / "run.json")
        elif command == "gen-data":
            argv = ("--config", ws / "run.json")
        else:
            argv = ("--data", ws / "data")
        code = run_cli(command, *argv, flag, value, "--out", ws / "bad")
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "config validation failed"
        name = flag.lstrip("-")
        assert len(err["fields"]) == 1 and err["fields"][0].startswith(f"{name}:")
        assert not (ws / "bad").exists()

    def test_missing_data_dir_fails_cleanly(self, workspace, capsys):
        code = run_cli("train", "--data", workspace / "nope", "--config",
                       workspace / "run.json", "--out", workspace / "m")
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert "error" in err

    def test_compare_rejects_a_model_with_a_nan_matrix(self, workspace, capsys):
        ws = workspace
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0
        assert run_cli("fit-edmd", "--data", ws / "data", "--dict", "identity",
                       "--out", ws / "edmd") == 0
        path = ws / "edmd" / "lifted_model.json"
        doc = json.loads(path.read_text())
        payload = bytearray(read_payload(path, doc))
        a = decode_array("A", doc["A"], payload).copy()
        a[3][5] = float("nan")
        doc["A"] = encode_array(a, payload)
        write_document(path, doc, payload)
        capsys.readouterr()
        code = run_cli("compare", "--model", path, "--config", ws / "run.json",
                       "--cases", 2, "--out", ws / "cmp")
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "ValueError"
        assert re.search(r"\bA\b", err["error"]), err
        assert not (ws / "cmp").exists()

    def test_compare_rejects_a_flipped_sidecar_byte(self, workspace, capsys):
        ws = workspace
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0
        assert run_cli("fit-edmd", "--data", ws / "data", "--dict", "identity",
                       "--out", ws / "edmd") == 0
        sidecar = ws / "edmd" / "lifted_model.bin"
        raw = bytearray(sidecar.read_bytes())
        raw[len(raw) // 2] ^= 0x10
        sidecar.write_bytes(raw)
        capsys.readouterr()
        code = run_cli("compare", "--model", ws / "edmd" / "lifted_model.json",
                       "--config", ws / "run.json", "--cases", 2, "--out", ws / "cmp")
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err == {"error": "sidecar lifted_model.bin does not match the sha256 "
                                "lifted_model.json records", "type": "ValueError"}
        assert not (ws / "cmp").exists()

    @staticmethod
    def refuses_a_null_scaler(ws, capsys, *stage):
        """``stage`` on a dataset whose manifest has ``"scaler": null``
        exits 1 with ``load``'s one error line and writes nothing."""
        assert run_cli("gen-data", "--config", ws / "run.json", "--out", ws / "data") == 0
        manifest = json.loads((ws / "data" / "dataset.json").read_text())
        manifest["scaler"] = None
        (ws / "data" / "dataset.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli(*stage, "--data", ws / "data", "--out", ws / "e") == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": "manifest missing or malformed field: scaler must be an object (got None)",
            "type": "DatasetFormatError"}
        assert not (ws / "e").exists()

    @pytest.mark.parametrize("spec", ["identity", "poly:2", "rbf:4:0.5"])
    def test_fit_edmd_without_a_scaler_is_a_value_error(self, workspace, capsys, spec):
        # DatasetFormatError is a ValueError
        self.refuses_a_null_scaler(workspace, capsys, "fit-edmd", "--dict", spec)

    def test_train_without_a_scaler_is_a_value_error(self, workspace, capsys):
        self.refuses_a_null_scaler(workspace, capsys, "train", "--config", workspace / "run.json")


class TestShippedConfigs:
    def test_default_run_config_loads(self):
        root = Path(__file__).resolve().parents[1] / "configs"
        cfg = cli.load_run_config(root / "run_default.json")
        assert cfg.dataset.n_loads == 2500
        assert config_to_dict(cfg.plant) == config_to_dict(default_config())

    def test_mirror_run_config_loads(self):
        root = Path(__file__).resolve().parents[1] / "configs"
        cfg = cli.load_run_config(root / "run_mirror.json")
        assert cfg.plant.model.n == 12 and cfg.plant.model.m == 5


class TestImport:
    def test_cli_does_not_import_multiprocessing(self):
        # training imports it where its validation worker starts: at module
        # level it would enlarge every stage, gen-data included
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, koopmanmpc.cli; print('multiprocessing' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"
