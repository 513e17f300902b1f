"""The lifted-model interface both model kinds share, and its file."""

import json

import numpy as np
import pytest

from koopmanmpc import deep_koopman
from koopmanmpc.lifted import LiftedModel, load_lifted_model, save_lifted_model


@pytest.mark.parametrize("kind", ["net", "edmd"])
def test_both_kinds_share_the_interface(small_models, tmp_path, kind):
    model = small_models[kind]
    assert isinstance(model, LiftedModel)
    assert (model.lifted_dim, model.m) == model.B.shape
    v = 0.97
    assert np.array_equal(model.lift_reference(v), model.lift(np.full((model.n, model.h), v)))
    save_lifted_model(model, tmp_path / "lifted_model.json")
    assert type(load_lifted_model(tmp_path / "lifted_model.json")) is type(model)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind, matrix", [("net", "A"), ("net", "B"), ("edmd", "A"),
                                          ("edmd", "B"), ("edmd", "C")])
def test_non_finite_matrix_rejected(small_models, tmp_path, kind, matrix, value):
    doc = small_models[kind].to_dict()
    doc[matrix][-1][0] = value
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"matrix {matrix} has non-finite entries"):
        load_lifted_model(tmp_path / "bad.json")


@pytest.mark.parametrize("tensor", ["encoder_fc/weight", "encoder_lstm/w_h"])
def test_non_finite_encoder_tensor_rejected(small_models, tmp_path, tensor):
    doc = small_models["net"].to_dict()
    doc["encoder"][tensor]["data"][-1] = np.nan
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"tensor '{tensor}' has non-finite entries"):
        load_lifted_model(tmp_path / "bad.json")

@pytest.mark.parametrize("matrix, shape", [("A", (16, 15)), ("A", (16,)), ("B", (15, 3))])
def test_misshapen_matrix_rejected(small_models, matrix, shape):
    model = small_models["net"]
    args = {"A": model.A, "B": model.B, matrix: np.zeros(shape)}
    with pytest.raises(ValueError, match=rf"matrix {matrix} has shape"):
        LiftedModel(args["A"], args["B"], model.scaler, model.n, model.h)



def test_network_matrices_must_fit_its_config(small_models):
    doc = small_models["net"].to_dict()
    doc.update(A=np.eye(17).tolist(), B=np.zeros((17, 3)).tolist())  # the config has N = 16
    with pytest.raises(ValueError, match=r"matrices A, B have \(N, m\) = \(17, 3\)"):
        deep_koopman.LiftedLinearModel.from_dict(doc)

@pytest.mark.parametrize("text", ["[1, 2]", "3.5"])
def test_non_object_document_rejected(tmp_path, text):
    (tmp_path / "bad.json").write_text(text)
    with pytest.raises(ValueError, match="unknown lifted-model kind"):
        load_lifted_model(tmp_path / "bad.json")
