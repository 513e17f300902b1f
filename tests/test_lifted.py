"""The lifted-model interface both model kinds share, its file, and the
tensor payload records of model files and network checkpoints."""

import json
import re

import numpy as np
import pytest

from koopmanmpc import deep_koopman
from koopmanmpc.edmd import Dictionary
from koopmanmpc.lifted import (LiftedModel, decode_array, encode_array, load_lifted_model,
                               save_lifted_model)


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
    arr = decode_array(matrix, doc[matrix])
    arr[-1][0] = value
    doc[matrix] = encode_array(arr)
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"matrix {matrix} has non-finite entries"):
        load_lifted_model(tmp_path / "bad.json")


@pytest.mark.parametrize("tensor", ["encoder_fc/weight", "encoder_lstm/w_h"])
def test_non_finite_encoder_tensor_rejected(small_models, tmp_path, tensor):
    doc = small_models["net"].to_dict()
    arr = decode_array(tensor, doc["encoder"][tensor])
    arr.ravel()[-1] = np.nan
    doc["encoder"][tensor] = encode_array(arr)
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
    # the config has N = 16
    doc.update(A=encode_array(np.eye(17)), B=encode_array(np.zeros((17, 3))))
    with pytest.raises(ValueError, match=r"matrices A, B have \(N, m\) = \(17, 3\)"):
        deep_koopman.LiftedLinearModel.from_dict(doc)

@pytest.mark.parametrize("text", ["[1, 2]", "3.5"])
def test_non_object_document_rejected(tmp_path, text):
    (tmp_path / "bad.json").write_text(text)
    with pytest.raises(ValueError, match="unknown lifted-model kind"):
        load_lifted_model(tmp_path / "bad.json")


_GOOD = encode_array(np.eye(2))
# malformed payload records, each with what the decoder says of it
BAD_RECORDS = {
    "nested_list": ([[1.0, 0.0], [0.0, 1.0]], "is not a {shape, dtype, b64} payload record"),
    "shape_and_data": ({"shape": [2, 2], "data": [1.0, 0.0, 0.0, 1.0]},
                       "is not a {shape, dtype, b64} payload record"),
    "extra_key": ({**_GOOD, "name": "A"}, "is not a {shape, dtype, b64} payload record"),
    "negative_size": ({**_GOOD, "shape": [-2, -2]}, "has shape [-2, -2]"),
    "float32": ({**_GOOD, "dtype": "<f4"}, "has dtype '<f4', expected '<f8'"),
    "big_endian": ({**_GOOD, "dtype": ">f8"}, "has dtype '>f8', expected '<f8'"),
    "bad_base64": ({**_GOOD, "b64": _GOOD["b64"][:-4] + "####"},
                   "has a payload that is not valid base64"),
    "short_payload": ({**_GOOD, "shape": [2, 3]}, "has 32 payload bytes, shape (2, 3) needs 48"),
}


@pytest.mark.parametrize("case", BAD_RECORDS)
def test_decoder_rejects_malformed_payload(case):
    rec, message = BAD_RECORDS[case]
    with pytest.raises(ValueError, match=re.escape(f"tensor 'x' {message}")):
        decode_array("tensor 'x'", rec)


@pytest.mark.parametrize("case", ["nested_list", "float32", "bad_base64", "short_payload"])
@pytest.mark.parametrize("kind, key", [("net", "A"), ("net", "encoder_fc/weight"),
                                       ("edmd", "B"), ("edmd", "C")])
def test_model_file_names_its_malformed_tensor(small_models, tmp_path, kind, key, case):
    doc = small_models[kind].to_dict()
    holder, what = (doc["encoder"], f"tensor '{key}'") if "/" in key else (doc, f"matrix {key}")
    holder[key] = BAD_RECORDS[case][0]
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{what} {BAD_RECORDS[case][1]}")):
        load_lifted_model(tmp_path / "bad.json")


def test_rbf_centers_are_a_payload():
    dictionary = Dictionary(kind="rbf", input_dim=2, centers=np.array([[0.0, -0.0]]), width=0.5)
    doc = dictionary.to_dict()
    assert Dictionary.from_dict(doc).centers.tobytes() == dictionary.centers.tobytes()
    doc["centers"] = [[0.0, 0.0]]
    with pytest.raises(ValueError, match="rbf centers is not a"):
        Dictionary.from_dict(doc)


@pytest.fixture
def checkpoint(tmp_path):
    net = deep_koopman.KoopmanNet(deep_koopman.KoopmanNetConfig(
        n=2, h=2, m=1, lifted_dim=4, lstm_hidden=3, seed=1))
    deep_koopman.save_net(net, tmp_path / "checkpoint.json")
    return tmp_path / "checkpoint.json"


@pytest.mark.parametrize("case", ["nested_list", "shape_and_data", "float32", "short_payload"])
def test_checkpoint_names_its_malformed_tensor(checkpoint, case):
    doc = json.loads(checkpoint.read_text())
    doc["tensors"]["decoder_lstm/w_h"] = BAD_RECORDS[case][0]
    checkpoint.write_text(json.dumps(doc))
    with pytest.raises(ValueError,
                       match=re.escape(f"tensor 'decoder_lstm/w_h' {BAD_RECORDS[case][1]}")):
        deep_koopman.load_net(checkpoint)


def test_checkpoint_rejects_a_non_finite_tensor(checkpoint):
    doc = json.loads(checkpoint.read_text())
    arr = decode_array("w_h", doc["tensors"]["decoder_lstm/w_h"])
    arr[1, 2] = np.nan
    doc["tensors"]["decoder_lstm/w_h"] = encode_array(arr)
    checkpoint.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="tensor 'decoder_lstm/w_h' has non-finite entries"):
        deep_koopman.load_net(checkpoint)


def test_checkpoint_in_the_nested_list_form_rejected(checkpoint):
    doc = json.loads(checkpoint.read_text())
    doc["tensors"] = [{"name": name, "shape": rec["shape"],
                       "data": decode_array(name, rec).ravel().tolist()}
                      for name, rec in sorted(doc["tensors"].items())]
    checkpoint.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="must be regenerated"):
        deep_koopman.load_net(checkpoint)
