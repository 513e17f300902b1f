"""The lifted-model interface both model kinds share, its file, and the
tensor payload records of model files and network checkpoints, whose
bytes live in the document's ``.bin`` sidecar."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from koopmanmpc import deep_koopman, edmd
from koopmanmpc.dataset import Dataset, Scaler
from koopmanmpc.edmd import Dictionary
from koopmanmpc.lifted import (LiftedModel, decode_array, encode_array, load_lifted_model,
                               read_payload, save_lifted_model, write_document)


def read_document(path):
    """The JSON document at ``path`` and its sidecar bytes, which a test may
    append to."""
    doc = json.loads(path.read_text())
    return doc, bytearray(read_payload(path, doc))


@pytest.mark.parametrize("kind", ["net", "edmd"])
def test_both_kinds_share_the_interface(small_models, tmp_path, kind):
    model = small_models[kind]
    assert isinstance(model, LiftedModel)
    assert (model.lifted_dim, model.m) == model.B.shape
    v = 0.97
    assert np.array_equal(model.lift_reference(v), model.lift(np.full((model.n, model.h), v)))
    save_lifted_model(model, tmp_path / "lifted_model.json")
    assert type(load_lifted_model(tmp_path / "lifted_model.json")) is type(model)


@pytest.mark.parametrize("shape", [(4, 6), (24,), (3, 4, 6), (2, 3, 6, 4)],
                         ids=["transposed", "flat", "transposed_batch", "four_d"])
@pytest.mark.parametrize("kind", ["net", "edmd"])
def test_lift_names_the_history_shape_for_any_other(small_models, kind, shape):
    # (h, n) used to lift silently to the EDMD features, and each kind
    # failed on the others with a message about its own internals
    with pytest.raises(ValueError, match=re.escape(
            f"expected a history (n, h) = (6, 4) or a batch (C, 6, 4) of them, got shape {shape}")):
        small_models[kind].lift(np.full(shape, 0.97))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind, matrix", [("net", "A"), ("net", "B"), ("edmd", "A"),
                                          ("edmd", "B"), ("edmd", "C")])
def test_non_finite_matrix_rejected(small_models, tmp_path, kind, matrix, value):
    payload = bytearray()
    doc = small_models[kind].to_dict(payload)
    arr = decode_array(matrix, doc[matrix], payload).copy()
    arr[-1][0] = value
    doc[matrix] = encode_array(arr, payload)
    write_document(tmp_path / "bad.json", doc, payload)
    with pytest.raises(ValueError, match=rf"matrix {matrix} has non-finite entries"):
        load_lifted_model(tmp_path / "bad.json")


@pytest.mark.parametrize("tensor", ["encoder_fc/weight", "encoder_lstm/w_h"])
def test_non_finite_encoder_tensor_rejected(small_models, tmp_path, tensor):
    payload = bytearray()
    doc = small_models["net"].to_dict(payload)
    arr = decode_array(tensor, doc["encoder"][tensor], payload).copy()
    arr.ravel()[-1] = np.nan
    doc["encoder"][tensor] = encode_array(arr, payload)
    write_document(tmp_path / "bad.json", doc, payload)
    with pytest.raises(ValueError, match=f"tensor '{tensor}' has non-finite entries"):
        load_lifted_model(tmp_path / "bad.json")

@pytest.mark.parametrize("matrix, shape", [("A", (16, 15)), ("A", (16,)), ("B", (15, 3))])
def test_misshapen_matrix_rejected(small_models, matrix, shape):
    model = small_models["net"]
    args = {"A": model.A, "B": model.B, matrix: np.zeros(shape)}
    with pytest.raises(ValueError, match=rf"matrix {matrix} has shape"):
        LiftedModel(args["A"], args["B"], model.scaler, model.n, model.h)



def test_network_matrices_must_fit_its_config(small_models):
    payload = bytearray()
    doc = small_models["net"].to_dict(payload)
    # the config has N = 16
    doc.update(A=encode_array(np.eye(17), payload), B=encode_array(np.zeros((17, 3)), payload))
    with pytest.raises(ValueError, match=r"matrices A, B have \(N, m\) = \(17, 3\)"):
        deep_koopman.LiftedLinearModel.from_dict(doc, payload)

@pytest.mark.parametrize("text", ["[1, 2]", "3.5"])
def test_non_object_document_rejected(tmp_path, text):
    (tmp_path / "bad.json").write_text(text)
    with pytest.raises(ValueError, match="unknown lifted-model kind"):
        load_lifted_model(tmp_path / "bad.json")


NOT_A_RECORD = "is not a {shape, dtype, offset} payload record"


def bad_record(case: str, payload) -> tuple:
    """Malformed payload record ``case``, and what the decoder says of it.
    Each varies the good record of the last 32 bytes of ``payload``, a
    2 x 2 matrix."""
    end = len(payload)
    good = {"shape": [2, 2], "dtype": "<f8", "offset": end - 32}
    return {
        "nested_list": ([[1.0, 0.0], [0.0, 1.0]], NOT_A_RECORD),
        "shape_and_data": ({"shape": [2, 2], "data": [1.0, 0.0, 0.0, 1.0]}, NOT_A_RECORD),
        "extra_key": ({**good, "name": "A"}, NOT_A_RECORD),
        # the record of the base64 form, which kept the bytes in the JSON
        "bad_base64": ({"shape": [2, 2], "dtype": "<f8", "b64": "AAAAAAAA8D8="}, NOT_A_RECORD),
        "negative_size": ({**good, "shape": [-2, -2]}, "has shape [-2, -2]"),
        "float32": ({**good, "dtype": "<f4"}, "has dtype '<f4', expected '<f8'"),
        "big_endian": ({**good, "dtype": ">f8"}, "has dtype '>f8', expected '<f8'"),
        "negative_offset": ({**good, "offset": -8}, "has offset -8, expected an integer >= 0"),
        "float_offset": ({**good, "offset": float(end - 32)},
                         f"has offset {float(end - 32)!r}, expected an integer >= 0"),
        "bool_offset": ({**good, "offset": True}, "has offset True, expected an integer >= 0"),
        "short_payload": ({**good, "shape": [2, 3]},
                          f"needs payload bytes [{end - 32}, {end + 16}), the sidecar has {end}"),
        "past_end": ({**good, "offset": end - 24},
                     f"needs payload bytes [{end - 24}, {end + 8}), the sidecar has {end}"),
    }[case]


BAD_RECORDS = ["nested_list", "shape_and_data", "extra_key", "bad_base64", "negative_size",
               "float32", "big_endian", "negative_offset", "float_offset", "bool_offset",
               "short_payload", "past_end"]


@pytest.mark.parametrize("case", BAD_RECORDS)
def test_decoder_rejects_malformed_payload(case):
    payload = bytearray()
    assert decode_array("x", encode_array(np.eye(2), payload), payload).tobytes() == \
        np.eye(2).tobytes()
    rec, message = bad_record(case, payload)
    with pytest.raises(ValueError, match=re.escape(f"tensor 'x' {message}")):
        decode_array("tensor 'x'", rec, payload)


@pytest.mark.parametrize("case", ["nested_list", "float32", "bad_base64", "short_payload"])
@pytest.mark.parametrize("kind, key", [("net", "A"), ("net", "encoder_fc/weight"),
                                       ("edmd", "B"), ("edmd", "C")])
def test_model_file_names_its_malformed_tensor(small_models, tmp_path, kind, key, case):
    payload = bytearray()
    doc = small_models[kind].to_dict(payload)
    holder, what = (doc["encoder"], f"tensor '{key}'") if "/" in key else (doc, f"matrix {key}")
    holder[key], message = bad_record(case, payload)
    write_document(tmp_path / "bad.json", doc, payload)
    with pytest.raises(ValueError, match=re.escape(f"{what} {message}")):
        load_lifted_model(tmp_path / "bad.json")


def test_rbf_centers_are_a_payload():
    dictionary = Dictionary(kind="rbf", input_dim=2, centers=np.array([[0.0, -0.0]]), width=0.5)
    payload = bytearray()
    doc = dictionary.to_dict(payload)
    assert len(payload) == 16
    assert Dictionary.from_dict(doc, payload).centers.tobytes() == dictionary.centers.tobytes()
    doc["centers"] = [[0.0, 0.0]]
    with pytest.raises(ValueError, match="rbf centers is not a"):
        Dictionary.from_dict(doc, payload)


@pytest.fixture
def checkpoint(tmp_path):
    net = deep_koopman.KoopmanNet(deep_koopman.KoopmanNetConfig(
        n=2, h=2, m=1, lifted_dim=4, lstm_hidden=3, seed=1))
    deep_koopman.save_net(net, tmp_path / "checkpoint.json", Scaler.identity())
    return tmp_path / "checkpoint.json"


@pytest.mark.parametrize("case", ["nested_list", "shape_and_data", "float32", "short_payload"])
def test_checkpoint_names_its_malformed_tensor(checkpoint, case):
    doc, payload = read_document(checkpoint)
    doc["tensors"]["decoder_lstm/w_h"], message = bad_record(case, payload)
    write_document(checkpoint, doc, payload)
    with pytest.raises(ValueError, match=re.escape(f"tensor 'decoder_lstm/w_h' {message}")):
        deep_koopman.load_net(checkpoint)


def test_checkpoint_rejects_a_non_finite_tensor(checkpoint):
    doc, payload = read_document(checkpoint)
    arr = decode_array("w_h", doc["tensors"]["decoder_lstm/w_h"], payload).copy()
    arr[1, 2] = np.nan
    doc["tensors"]["decoder_lstm/w_h"] = encode_array(arr, payload)
    write_document(checkpoint, doc, payload)
    with pytest.raises(ValueError, match="tensor 'decoder_lstm/w_h' has non-finite entries"):
        deep_koopman.load_net(checkpoint)


def test_checkpoint_in_the_nested_list_form_rejected(checkpoint):
    # the form kept every tensor in the JSON, with no sidecar
    doc, payload = read_document(checkpoint)
    doc["tensors"] = [{"name": name, "shape": rec["shape"],
                       "data": decode_array(name, rec, payload).ravel().tolist()}
                      for name, rec in sorted(doc["tensors"].items())]
    del doc["payload"]
    checkpoint.write_text(json.dumps(doc))
    checkpoint.with_suffix(".bin").unlink()
    with pytest.raises(ValueError, match="must be regenerated with train or fit-edmd"):
        deep_koopman.load_net(checkpoint)


# -- the sidecar


def save(small_models, kind, path):
    """Save model ``kind``, or for ``"checkpoint"`` a network checkpoint, to
    ``path``; return the loader of that file."""
    if kind == "checkpoint":
        deep_koopman.save_net(deep_koopman.KoopmanNet(deep_koopman.KoopmanNetConfig(
            n=2, h=2, m=1, lifted_dim=4, lstm_hidden=3, seed=1)), path, Scaler.identity())
        return deep_koopman.load_net
    save_lifted_model(small_models[kind], path)
    return load_lifted_model


KINDS = ["net", "edmd", "checkpoint"]

SPECIAL_BITS = [
    0x8000000000000000,  # -0.0
    0x0000000000000001, 0x800FFFFFFFFFFFFF,  # subnormals
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,  # +-finfo.max
    0x7FF8000000000000, 0x7FF0000000000001, 0xFFF8DEADBEEF0123, 0x7FFFFFFFFFFFFFFF,  # NaNs
    0x7FF0000000000000, 0xFFF0000000000000,  # +-inf
]
float_bits = st.one_of(st.sampled_from(SPECIAL_BITS), st.integers(0, 2**64 - 1))


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_arrays_round_trip_bit_for_bit(tmp_path_factory, data):
    shapes = data.draw(st.lists(array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                                min_size=1, max_size=5))
    arrays_in = [data.draw(arrays(np.uint64, shape, elements=float_bits)).view(np.float64)
                 for shape in shapes]
    payload = bytearray()
    doc = {"arrays": [encode_array(arr, payload) for arr in arrays_in]}
    path = tmp_path_factory.mktemp("doc") / "doc.json"
    write_document(path, doc, payload)
    back_doc = json.loads(path.read_text())
    raw = read_payload(path, back_doc)
    assert len(raw) == 8 * sum(arr.size for arr in arrays_in)
    for rec, arr in zip(back_doc["arrays"], arrays_in):
        back = decode_array("x", rec, raw)
        assert back.dtype == np.float64 and back.flags.c_contiguous
        assert back.shape == arr.shape and back.tobytes() == arr.tobytes()


def assert_fresh_copy(got, want):
    assert got.flags.writeable and not np.shares_memory(got, want)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_loaded_arrays_are_fresh_writable_copies(small_models, tmp_path):
    # decode_array hands out read-only views of the sidecar bytes; a loaded
    # model or checkpoint keeps arrays of its own
    for kind in ("net", "edmd"):
        model = small_models[kind]
        save_lifted_model(model, tmp_path / f"{kind}.json")
        back = load_lifted_model(tmp_path / f"{kind}.json")
        for name in ("A", "B") + (("C",) if kind == "edmd" else ()):
            assert_fresh_copy(getattr(back, name), getattr(model, name))
    model, back = small_models["net"], load_lifted_model(tmp_path / "net.json")
    encoder = deep_koopman._encoder_params(model.enc_lstm, model.enc_fc)
    for name, arr in deep_koopman._encoder_params(back.enc_lstm, back.enc_fc).items():
        assert_fresh_copy(arr, encoder[name])
    net = deep_koopman.KoopmanNet(deep_koopman.KoopmanNetConfig(
        n=2, h=2, m=1, lifted_dim=4, lstm_hidden=3, seed=1))
    deep_koopman.save_net(net, tmp_path / "checkpoint.json", Scaler.identity())
    back_net, _ = deep_koopman.load_net(tmp_path / "checkpoint.json")
    for name, arr in net.params().items():
        assert_fresh_copy(back_net.params()[name], arr)


def test_network_model_copies_read_only_views_once(small_models):
    # from_dict hands the model read-only views of the sidecar bytes
    model = small_models["net"]
    payload = bytearray()
    doc = model.to_dict(payload)
    raw = bytes(payload)
    views = {name: decode_array(name, rec, raw) for name, rec in doc["encoder"].items()}
    assert not any(view.flags.writeable for view in views.values())
    back = deep_koopman.LiftedLinearModel.from_dict(doc, raw)
    encoder = deep_koopman._encoder_params(model.enc_lstm, model.enc_fc)
    for name, arr in deep_koopman._encoder_params(back.enc_lstm, back.enc_fc).items():
        assert_fresh_copy(arr, encoder[name])
        assert not np.shares_memory(arr, views[name])
    bad = views["encoder_lstm/bias"].copy()
    bad[0] = np.inf
    bad.setflags(write=False)
    with pytest.raises(ValueError, match="tensor 'encoder_lstm/bias' has non-finite entries"):
        deep_koopman.LiftedLinearModel(model.config, {**views, "encoder_lstm/bias": bad},
                                       model.A, model.B, model.scaler)


def poly_model():
    """A ``poly:2`` EDMD model of a one-bus, two-sample history."""
    rng = np.random.default_rng(4)
    ds = Dataset(v_k=rng.uniform(size=(12, 1, 2)), u_k=rng.uniform(size=(12, 1)),
                 v_next=rng.uniform(size=(12, 1, 2)), scaler=Scaler.identity())
    return edmd.fit(ds, edmd.polynomial_dictionary(2, 2), ridge=1e-6)


def case(case_id, kind, edit, message):
    return pytest.param(kind, edit, message, id=case_id)


@pytest.mark.parametrize("kind, edit, message", [
    case("net_fractional_lstm_hidden", "net", lambda doc: doc["config"].update(lstm_hidden=3.7),
         "lstm_hidden must be an integer (got 3.7)"),
    case("net_boolean_seed", "net", lambda doc: doc["config"].update(seed=True),
         "seed must be an integer (got True)"),
    case("net_no_encoder", "net", lambda doc: doc.pop("encoder"),
         "koopman_net model missing key 'encoder'"),
    case("net_no_h", "net", lambda doc: doc["config"].pop("h"),
         "koopman_net model missing key 'h'"),
    case("edmd_fractional_n", "edmd", lambda doc: doc.update(n=6.9),
         "n must be an integer (got 6.9)"),
    case("edmd_string_h", "edmd", lambda doc: doc.update(h="4"),
         "h must be an integer (got '4')"),
    case("edmd_float_input_dim", "edmd", lambda doc: doc["dictionary"].update(input_dim=24.0),
         "dictionary input_dim must be an integer >= 1 (got 24.0)"),
    case("edmd_no_dictionary", "edmd", lambda doc: doc.pop("dictionary"),
         "edmd model missing key 'dictionary'"),
    case("edmd_no_residuals", "edmd", lambda doc: doc.pop("residuals"),
         "edmd model missing key 'residuals'"),
    case("poly_fractional_degree", "poly", lambda doc: doc["dictionary"].update(degree=2.7),
         "polynomial degree must be an integer >= 1 (got 2.7)"),
    case("poly_no_degree", "poly", lambda doc: doc["dictionary"].pop("degree"),
         "edmd model missing key 'degree'"),
    case("checkpoint_string_lifted_dim", "checkpoint",
         lambda doc: doc["extra"]["config"].update(lifted_dim="4"),
         "lifted_dim must be an integer (got '4')"),
    case("checkpoint_no_tensors", "checkpoint", lambda doc: doc.pop("tensors"),
         "checkpoint missing key 'tensors'"),
    case("checkpoint_no_config", "checkpoint", lambda doc: doc["extra"].pop("config"),
         "checkpoint missing key 'config'"),
    case("checkpoint_no_scaler", "checkpoint", lambda doc: doc["extra"].pop("scaler"),
         "checkpoint missing key 'scaler'"),
    # a key written as an object must be one, and residuals map names to numbers
    case("edmd_dictionary_a_list", "edmd", lambda doc: doc.update(dictionary=[1]),
         "dictionary must be an object (got [1])"),
    case("edmd_residuals_a_list", "edmd", lambda doc: doc.update(residuals=[1]),
         "residuals must be an object (got [1])"),
    case("edmd_residuals_as_pairs", "edmd", lambda doc: doc.update(residuals=[["a", 1]]),
         "residuals must be an object (got [['a', 1]])"),
    case("edmd_residual_a_string", "edmd", lambda doc: doc["residuals"].update(ridge="0"),
         "residuals ridge must be a number (got '0')"),
    case("net_encoder_a_list", "net", lambda doc: doc.update(encoder=[1]),
         "encoder must be an object (got [1])"),
    case("checkpoint_extra_a_list", "checkpoint", lambda doc: doc.update(extra=[1]),
         "extra must be an object (got [1])"),
])
def test_model_files_take_their_numbers_as_written(small_models, checkpoint, kind, edit,
                                                   message):
    # a value is neither truncated nor parsed into an integer, and a key
    # the writer always writes is required
    if kind == "checkpoint":
        doc, payload = read_document(checkpoint)
        path, load = checkpoint, deep_koopman.load_net
    else:
        payload = bytearray()
        doc = (poly_model() if kind == "poly" else small_models[kind]).to_dict(payload)
        path, load = checkpoint.with_name("model.json"), load_lifted_model
    edit(doc)
    write_document(path, doc, payload)
    with pytest.raises(ValueError, match=re.escape(message)):
        load(path)


@pytest.mark.parametrize("kind", KINDS)
def test_two_saves_write_the_same_bytes(small_models, tmp_path, kind):
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        save(small_models, kind, tmp_path / sub / "model.json")
    for name in ("model.json", "model.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    doc = json.loads((tmp_path / "a" / "model.json").read_text())
    assert doc["payload"]["bytes"] == (tmp_path / "a" / "model.bin").stat().st_size > 0


@pytest.mark.parametrize("kind", KINDS)
def test_missing_sidecar_rejected(small_models, tmp_path, kind):
    load = save(small_models, kind, tmp_path / "model.json")
    (tmp_path / "model.bin").unlink()
    with pytest.raises(ValueError, match=r"sidecar model\.bin of model\.json is missing "
                                         r"\(the pair must be regenerated"):
        load(tmp_path / "model.json")


@pytest.mark.parametrize("kind", KINDS)
def test_truncated_sidecar_rejected(small_models, tmp_path, kind):
    load = save(small_models, kind, tmp_path / "model.json")
    raw = (tmp_path / "model.bin").read_bytes()
    (tmp_path / "model.bin").write_bytes(raw[:-8])
    with pytest.raises(ValueError, match=rf"sidecar model\.bin has {len(raw) - 8} bytes, "
                                         rf"model\.json records {len(raw)}"):
        load(tmp_path / "model.json")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("where", [0, -1])
def test_flipped_sidecar_byte_rejected(small_models, tmp_path, kind, where):
    load = save(small_models, kind, tmp_path / "model.json")
    raw = bytearray((tmp_path / "model.bin").read_bytes())
    raw[where] ^= 0x01
    (tmp_path / "model.bin").write_bytes(raw)
    with pytest.raises(ValueError, match=r"sidecar model\.bin does not match the sha256 "
                                         r"model\.json records"):
        load(tmp_path / "model.json")


@pytest.mark.parametrize("kind", ["net", "edmd"])
def test_base64_form_document_rejected(small_models, tmp_path, kind):
    # the form before the sidecar: each payload record held its bytes as base64
    payload = bytearray()
    doc = small_models[kind].to_dict(payload)
    doc["A"] = {"shape": doc["A"]["shape"], "dtype": "<f8", "b64": "AAAAAAAA8D8="}
    (tmp_path / "old.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"old\.json has no \{bytes, sha256\} payload record "
                                         r"\(a file in the nested-list or base64 form must be "
                                         r"regenerated with train or fit-edmd\)"):
        load_lifted_model(tmp_path / "old.json")


@pytest.mark.parametrize("kind", KINDS)
def test_saving_to_a_bin_path_rejected(small_models, tmp_path, kind):
    with pytest.raises(ValueError, match=r"ends in \.bin, the suffix of its sidecar"):
        save(small_models, kind, tmp_path / "model.bin")
    assert not any(tmp_path.iterdir())
