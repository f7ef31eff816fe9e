"""Classifiers: spec validation, exact gradients, training, persistence, ensembles."""

import base64
import dataclasses
import json
import math
import re
import tracemalloc
from typing import Callable, NamedTuple

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from advm import models
from advm.data import LabeledDataset, generate_synthetic
from advm.errors import (
    CorruptFile,
    EmptyDataset,
    LabelOutOfRange,
    ShapeMismatch,
    VersionMismatch,
)
from advm.models import (
    EnsembleOracle,
    Model,
    ModelSpec,
    load_model,
    save_model,
    train_sgd,
)
from advm.sampling import derive_rng

from conftest import (
    MODEL_DAMAGES,
    SinusoidOracle,
    central_diff,
    decode_model,
    encode_model,
    legacy_model,
    param_order,
    rand_pixel_image,
)


def _logits(oracle, x):
    return oracle.forward_with_cache(x)[0]


def _accuracy(model, dataset):
    correct = sum(model.predict(img) == y for img, y in zip(dataset.images, dataset.labels))
    return correct / len(dataset)


# -- spec validation ------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("resnet", (4, 4, 1), 2)
    with pytest.raises(ValueError):
        ModelSpec("logistic", (4, 4), 2)
    with pytest.raises(ValueError):
        ModelSpec("logistic", (4, 0, 1), 2)
    with pytest.raises(ValueError):
        ModelSpec("logistic", (4, 4, 1), 1)
    with pytest.raises(ValueError):
        ModelSpec("mlp", (4, 4, 1), 2)                     # needs hidden widths
    with pytest.raises(ValueError):
        ModelSpec("smallcnn", (4, 4, 1), 2, conv_kernel=4)  # even kernel
    with pytest.raises(ValueError):
        ModelSpec("smallcnn", (5, 4, 1), 2)                 # odd side, 2x2 pool
    for hidden, text in (((0,), "hidden[0] must be an integer >= 1, got 0"),
                         ((64, -3), "hidden[1] must be an integer >= 1, got -3")):
        with pytest.raises(ValueError, match=re.escape(text)):
            ModelSpec("mlp", (4, 4, 1), 2, hidden=hidden)
    for field, bad in (("conv_channels", 0), ("conv_channels", -1), ("conv_kernel", 0),
                       ("conv_kernel", -1)):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1, got {bad}"):
            ModelSpec("smallcnn", (4, 4, 1), 2, **{field: bad})
    for arch in ("logistic", "smallcnn"):   # the one dense layer has no hidden widths
        with pytest.raises(ValueError, match="has no hidden layers"):
            ModelSpec(arch, (4, 4, 1), 2, hidden=(5,))
    for bad, text in (({"input_shape": (4.0, 4, 1)},
                       "input_shape[0] must be an integer >= 1, got 4.0"),
                      ({"num_classes": 2.0}, "num_classes must be an integer >= 2, got 2.0"),
                      ({"conv_channels": 2.5}, "conv_channels must be an integer >= 1, got 2.5"),
                      ({"seed": 1.0}, "seed must be an integer >= 0, got 1.0")):
        kw = {"input_shape": (4, 4, 1), "num_classes": 2, **bad}
        with pytest.raises(ValueError, match=re.escape(text)):
            ModelSpec("smallcnn", **kw)


@pytest.mark.parametrize("bad, text", [
    pytest.param({"input_shape": (np.int64(4), 4, 1)},
                 f"input_shape[0] must be an integer >= 1, got {np.int64(4)!r}", id="bad0"),
    pytest.param({"num_classes": np.int32(3)},
                 f"num_classes must be an integer >= 2, got {np.int32(3)!r}", id="bad1"),
    pytest.param({"input_shape": (4, 4, True)},
                 "input_shape[2] must be an integer >= 1, got True", id="bad2"),
    pytest.param({"hidden": (np.int64(5),)},
                 f"hidden[0] must be an integer >= 1, got {np.int64(5)!r}", id="bad3"),
    pytest.param({"seed": np.uint8(1)}, f"seed must be an integer >= 0, got {np.uint8(1)!r}",
                 id="bad4"),
    pytest.param({"conv_kernel": np.int64(3)},
                 f"conv_kernel must be an integer >= 1, got {np.int64(3)!r}", id="bad5"),
])
def test_spec_refuses_numpy_integer_and_bool_sizes(bad, text):
    # np.int64(4) used to pass, then save_model raised a bare TypeError from json
    kw = {"arch": "mlp", "input_shape": (4, 4, 1), "num_classes": 3, "hidden": (5,), **bad}
    with pytest.raises(ValueError, match=re.escape(text)):
        ModelSpec(**kw)


def test_init_params_shapes_and_glorot_bounds():
    spec = ModelSpec("smallcnn", (6, 6, 2), 3, conv_channels=4, conv_kernel=3, seed=1)
    p = Model.initialize(spec).params
    assert p["conv.W"].shape == (3, 3, 2, 4)
    assert p["conv.b"].shape == (4,)
    assert p["fc.W"].shape == (3, 3 * 3 * 4)
    assert np.array_equal(p["conv.b"], np.zeros(4))
    bound = math.sqrt(6.0 / (3 * 3 * 2 + 3 * 3 * 4))
    assert np.max(np.abs(p["conv.W"])) <= bound

    mspec = ModelSpec("mlp", (2, 2, 1), 2, hidden=(5, 3))
    mp = Model.initialize(mspec).params
    assert mp["fc0.W"].shape == (5, 4)
    assert mp["fc1.W"].shape == (3, 5)
    assert mp["fc2.W"].shape == (2, 3)

    lspec = ModelSpec("logistic", (2, 2, 1), 3)
    lp = Model.initialize(lspec).params
    assert lp["fc.W"].shape == (3, 4)
    assert np.array_equal(lp["fc.b"], np.zeros(3))


def test_init_params_deterministic_in_spec_seed():
    a = Model.initialize(ModelSpec("logistic", (3, 3, 1), 2, seed=5)).params
    b = Model.initialize(ModelSpec("logistic", (3, 3, 1), 2, seed=5)).params
    c = Model.initialize(ModelSpec("logistic", (3, 3, 1), 2, seed=6)).params
    assert np.array_equal(a["fc.W"], b["fc.W"])
    assert not np.array_equal(a["fc.W"], c["fc.W"])


# -- per-example parameter gradients as a dict -----------------------------------


def _param_grad_dict(model, x, y):
    """(loss, {parameter name: d loss / d it}) for one example, built from
    loss_and_param_grads' factors: each dense layer's outer product and bias
    from its (d_out, input) pair, and the stem's (d W, d b) as they come."""
    loss, (dense, stem) = model.loss_and_param_grads(x, y)
    g = {}
    if stem is not None:
        g["conv.W"], g["conv.b"] = stem
    for (wname, bname), (d, a) in zip(model._dense, dense):
        g[wname] = d[:, None] * a[None, :]   # np.outer's own product
        g[bname] = d.copy()
    return loss, g


# -- hand-derived logistic oracle -------------------------------------------------


def _hand_logistic():
    spec = ModelSpec("logistic", (1, 2, 1), 2)
    params = {
        "fc.W": np.array([[1.0, -1.0], [0.5, 0.25]]),
        "fc.b": np.array([0.1, -0.2]),
    }
    return Model(spec, params, name="hand")


def test_logistic_loss_and_grad_hand_case():
    # z = W @ [0.3, 0.7] + b = [-0.3, 0.125] worked by hand;
    # p = softmax(z); loss = -log p[0]; dJ/dx = W^T (p - onehot(0))
    model = _hand_logistic()
    x = np.array([0.3, 0.7]).reshape(1, 2, 1)
    z0 = 1.0 * 0.3 + (-1.0) * 0.7 + 0.1
    z1 = 0.5 * 0.3 + 0.25 * 0.7 + (-0.2)
    e0, e1 = math.exp(z0), math.exp(z1)
    p0, p1 = e0 / (e0 + e1), e1 / (e0 + e1)
    want_loss = -math.log(p0)
    want_grad = np.array([(p0 - 1.0) * 1.0 + p1 * 0.5, (p0 - 1.0) * (-1.0) + p1 * 0.25])

    loss, grad = model.loss_and_grad(x, 0)
    assert abs(loss - want_loss) < 1e-12
    assert abs(loss - 0.9280574001728005) < 1e-12       # frozen value of the arithmetic
    assert np.max(np.abs(grad.reshape(-1) - want_grad)) < 1e-12
    assert abs(grad.reshape(-1)[0] - -0.30233954235700466) < 1e-12
    assert abs(grad.reshape(-1)[1] - 0.7558488558925116) < 1e-12

    assert np.allclose(_logits(model, x), np.array([z0, z1]), atol=1e-15)
    assert model.predict(x) == 1


def test_logistic_param_grads_hand_case():
    # dJ/dW = (p - onehot) outer x_flat; dJ/db = p - onehot
    model = _hand_logistic()
    x = np.array([0.3, 0.7]).reshape(1, 2, 1)
    z0, z1 = -0.29999999999999993, 0.12499999999999994
    e0, e1 = math.exp(z0), math.exp(z1)
    p = np.array([e0, e1]) / (e0 + e1)
    d = p - np.array([1.0, 0.0])

    _, grads = _param_grad_dict(model, x, 0)
    assert np.max(np.abs(grads["fc.b"] - d)) < 1e-12
    assert np.max(np.abs(grads["fc.W"] - np.outer(d, [0.3, 0.7]))) < 1e-12


# -- finite-difference verification ------------------------------------------------


def _models_for_fd():
    return [
        Model.initialize(ModelSpec("logistic", (4, 4, 1), 3, seed=1)),
        Model.initialize(ModelSpec("mlp", (4, 4, 1), 3, hidden=(6,), seed=2)),
        Model.initialize(ModelSpec("smallcnn", (6, 6, 1), 3, conv_channels=3, seed=3)),
        Model.initialize(ModelSpec("mlp", (4, 4, 1), 3, hidden=(6, 5))),
    ]


@pytest.mark.parametrize("idx", [0, 1, 2, 3])
def test_input_grad_matches_central_difference(idx):
    model = _models_for_fd()[idx]
    x = rand_pixel_image(model.input_shape, seed=40 + idx)
    y = 1
    _, grad = model.loss_and_grad(x, y)
    fd = central_diff(lambda t: model.loss_and_grad(t, y)[0], x, h=1e-5)
    scale = max(1.0, np.max(np.abs(grad)))
    assert np.max(np.abs(fd - grad)) / scale < 1e-6


@pytest.mark.parametrize("idx", [0, 1, 2, 3])
def test_param_grads_match_central_difference(idx):
    model = _models_for_fd()[idx]
    x = rand_pixel_image(model.input_shape, seed=50 + idx)
    y = 0
    _, grads = _param_grad_dict(model, x, y)
    assert set(grads) == set(model.params)
    h = 1e-5
    for key, g in grads.items():
        flat = model.params[key].reshape(-1)
        probe = np.random.default_rng(60 + idx).choice(flat.size, size=min(6, flat.size), replace=False)
        for i in probe:
            orig = flat[i]
            flat[i] = orig + h
            up = model.loss_and_grad(x, y)[0]
            flat[i] = orig - h
            down = model.loss_and_grad(x, y)[0]
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            assert abs(fd - g.reshape(-1)[i]) < 1e-6 * max(1.0, abs(g.reshape(-1)[i]))


def test_central_difference_truncation_order():
    # on a smooth analytic objective the central-difference error shrinks
    # like h^2, which validates the probe itself before it judges models
    oracle = SinusoidOracle((2, 2, 1), seed=13)
    x = rand_pixel_image((2, 2, 1), seed=14)
    _, exact = oracle.loss_and_grad(x, 1)
    errs = []
    for h in (1e-2, 1e-3):
        fd = central_diff(lambda t: oracle.loss_and_grad(t, 1)[0], x, h=h)
        errs.append(np.max(np.abs(fd - exact)))
    ratio = errs[0] / errs[1]
    assert 30.0 < ratio < 300.0


def grad_check(oracle, x, y, h: float = 1e-5, coords: int = 64, seed: int = 0) -> float:
    """Central-difference check of d loss / d x on a sampled coordinate set.

    Returns max_i |fd_i - g_i| / max(scale, 1e-12) where scale is the largest
    gradient magnitude seen on the sampled coordinates. Smaller h (down to
    ~1e-6) must not make a correct gradient look worse.
    """
    _, g = oracle.loss_and_grad(x, y)
    flat_g = g.reshape(-1)
    size = x.size
    n = size if size <= coords else max(coords, 64)
    if n < size:
        rng = derive_rng(seed, 0)
        picks = rng.choice(size, size=n, replace=False)
    else:
        picks = np.arange(size)
    worst = 0.0
    scale = 1e-12
    base = x.reshape(-1)
    for i in picks:
        bumped = base.copy()
        bumped[i] = base[i] + h
        lo_plus, _ = oracle.loss_and_grad(bumped.reshape(x.shape), y)
        bumped[i] = base[i] - h
        lo_minus, _ = oracle.loss_and_grad(bumped.reshape(x.shape), y)
        fd = (lo_plus - lo_minus) / (2.0 * h)
        worst = max(worst, abs(fd - flat_g[i]))
        scale = max(scale, abs(flat_g[i]), abs(fd))
    return worst / scale


def test_grad_check_utility_flags_wrong_gradients():
    model = Model.initialize(ModelSpec("logistic", (3, 3, 1), 2, seed=4))
    x = rand_pixel_image((3, 3, 1), seed=15)
    assert grad_check(model, x, 0) < 1e-7

    class Skewed:
        def loss_and_grad(self, x, y):
            loss, g = model.loss_and_grad(x, y)
            return loss, 1.01 * g

    assert grad_check(Skewed(), x, 0) > 1e-3


# -- prediction and errors ---------------------------------------------------------


def test_predict_tie_breaks_to_lowest_index():
    spec = ModelSpec("logistic", (1, 1, 1), 3)
    model = Model(spec, {"fc.W": np.zeros((3, 1)), "fc.b": np.array([2.0, 2.0, 1.0])})
    assert model.predict(np.full((1, 1, 1), 0.5)) == 0


def _planted(monkeypatch, model, logits):
    """Make model.forward_with_cache return logits, with the cache of the real pass."""
    real = model.forward_with_cache
    monkeypatch.setattr(model, "forward_with_cache", lambda x: (logits.copy(), real(x)[1]))


_PLANTED_LOGITS = [   # (logits, the class np.argmax picks)
    ([1.0, 3.0, 3.0, 2.0], 1),
    ([2.5, 2.5, 2.5, 2.5], 0),
    ([0.5, 2.0, np.nan, 2.0], 2),
    ([np.inf, np.nan, 1.0, np.nan], 1),
    ([-np.inf, -np.inf, -np.inf, -np.inf], 0),
]


@pytest.mark.parametrize("logits,want", _PLANTED_LOGITS)
@pytest.mark.parametrize("kind", ["smallcnn", "ensemble"])
def test_predict_is_np_argmax_of_the_logits(monkeypatch, kind, logits, want):
    # ties go to the lowest index and a NaN logit wins, as in np.argmax; an
    # ensemble's fused logits keep a tie of equal members and their NaN
    shape = (6, 10, 1)
    z = np.array(logits)
    if kind == "smallcnn":
        oracle = _smallcnn(shape, 3, 3, seed=9)
        _planted(monkeypatch, oracle, z)
    else:
        oracle = EnsembleOracle([_smallcnn(shape, 3, 3, seed=9), _smallcnn(shape, 2, 5, seed=10)])
        for member in oracle.models:
            _planted(monkeypatch, member, z)
    x = rand_pixel_image(shape, seed=31)
    got = oracle.predict(x)
    assert type(got) is int
    assert got == int(np.argmax(oracle.forward_with_cache(x)[0])) == want


def test_forward_shape_mismatch():
    model = Model.initialize(ModelSpec("logistic", (2, 2, 1), 2))
    with pytest.raises(ShapeMismatch):
        _logits(model, np.zeros((3, 2, 1)))


def test_label_out_of_range():
    model = Model.initialize(ModelSpec("logistic", (2, 2, 1), 2))
    with pytest.raises(LabelOutOfRange):
        model.loss_and_grad(np.zeros((2, 2, 1)), 2)
    with pytest.raises(LabelOutOfRange):
        model.loss_and_param_grads(np.zeros((2, 2, 1)), -1)


def test_default_model_name():
    model = Model.initialize(ModelSpec("mlp", (2, 2, 1), 2, hidden=(3,), seed=9))
    assert model.name == "mlp-s9"


# -- persistence -------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    model = Model.initialize(ModelSpec("smallcnn", (4, 4, 1), 2, conv_channels=2), name="cnn")
    path = str(tmp_path / "m.json")
    save_model(model, path)
    back = load_model(path)
    assert back.name == "cnn"
    assert back.spec == model.spec
    for k in model.params:
        assert np.array_equal(back.params[k], model.params[k])


def test_save_load_save_byte_identical(tmp_path):
    model = Model.initialize(ModelSpec("mlp", (3, 3, 1), 3, hidden=(4,), seed=7))
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_model(model, p1)
    save_model(load_model(p1), p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_load_model_rejects_non_finite_parameters(tmp_path, bad):
    model = Model.initialize(ModelSpec("logistic", (2, 2, 1), 2))
    path = tmp_path / "m.json"
    save_model(model, str(path))
    header, params = decode_model(path.read_bytes())
    params["fc.W"].reshape(-1)[1] = bad
    path.write_bytes(encode_model(header, params))
    with pytest.raises(CorruptFile, match=re.escape(f"{path}: fc.W holds a non-finite value")):
        load_model(str(path))


def test_load_model_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json {")
    with pytest.raises(CorruptFile):
        load_model(str(p))

    p.write_text(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(CorruptFile):
        load_model(str(p))

    model = Model.initialize(ModelSpec("logistic", (2, 2, 1), 2))
    good = tmp_path / "good.json"
    save_model(model, str(good))
    doc, params = decode_model(good.read_bytes())

    doc_v = dict(doc)
    doc_v["version"] = 99
    p.write_bytes(encode_model(doc_v, params))
    with pytest.raises(VersionMismatch):
        load_model(str(p))

    doc_missing = json.loads(json.dumps(doc))
    del doc_missing["params"]["fc.b"]
    p.write_bytes(encode_model(doc_missing, params))
    with pytest.raises(CorruptFile):
        load_model(str(p))

    doc_shape = json.loads(json.dumps(doc))
    doc_shape["params"]["fc.b"]["shape"] = [3]
    p.write_bytes(encode_model(doc_shape, dict(params, **{"fc.b": np.zeros(3)})))
    with pytest.raises(CorruptFile):
        load_model(str(p))


def test_save_load_is_bitwise_for_signed_zero_subnormals_and_extremes(tmp_path):
    model = Model.initialize(ModelSpec("logistic", (2, 2, 1), 2))
    special = [-0.0, 5e-324, 1.7976931348623157e308, -1.0]
    model.params["fc.W"][0] = special
    p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_model(model, p1)
    with open(p1, "rb") as fh:
        _, stored = decode_model(fh.read())
    assert stored["fc.W"][0].tobytes() == np.array(special, "<f8").tobytes()
    back = load_model(p1)
    for k in model.params:
        assert back.params[k].dtype == np.float64 and back.params[k].flags.writeable
        assert back.params[k].tobytes() == model.params[k].tobytes()
    assert np.signbit(back.params["fc.W"][0, 0])
    save_model(back, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


@pytest.mark.parametrize("spec, order", [
    (ModelSpec("mlp", (3, 3, 1), 3, hidden=(4, 2), seed=7),
     ["fc0.W", "fc0.b", "fc1.W", "fc1.b", "fc2.W", "fc2.b"]),
    (ModelSpec("smallcnn", (4, 4, 2), 3, conv_channels=2, seed=5),
     ["conv.W", "conv.b", "fc.W", "fc.b"]),
], ids=["mlp", "smallcnn"])
def test_saved_parameters_are_little_endian_float64_after_a_json_header(tmp_path, spec, order):
    model = Model.initialize(spec, name="net")
    save_model(model, str(tmp_path / "m.json"))
    data = (tmp_path / "m.json").read_bytes()
    header = {"format": "advm-model", "version": 3, "name": "net",
              "spec": json.loads(json.dumps(dataclasses.asdict(spec))),
              "params": {k: {"shape": list(v.shape)} for k, v in model.params.items()}}
    assert param_order(model.params) == order == list(models._param_shapes(spec))
    assert data == encode_model(header, model.params)
    assert data.index(b"\n") == len(json.dumps(header, sort_keys=True))
    assert len(data) == data.index(b"\n") + 1 + 8 * sum(v.size for v in model.params.values())
    decoded_header, stored = decode_model(data)
    assert decoded_header == header
    for k, v in model.params.items():
        assert stored[k].tobytes() == v.astype("<f8").tobytes()


def test_save_model_refuses_a_non_finite_parameter(tmp_path):
    model = Model.initialize(ModelSpec("logistic", (2, 2, 1), 2))
    model.params["fc.b"][1] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        save_model(model, str(tmp_path / "m.json"))
    assert not (tmp_path / "m.json").exists()


def _saved_doc(tmp_path):
    """The header of a fresh logistic model saved as m.json."""
    model = Model.initialize(ModelSpec("logistic", (2, 2, 1), 2))
    save_model(model, str(tmp_path / "m.json"))
    return decode_model((tmp_path / "m.json").read_bytes())[0]


def _saved_payload(tmp_path) -> bytes:
    return (tmp_path / "m.json").read_bytes().partition(b"\n")[2]


def _load_doc(tmp_path, doc, payload=None):
    """load_model of m.json with its header replaced by doc and, if given, its
    payload bytes by payload."""
    path = tmp_path / "edited.json"
    payload = _saved_payload(tmp_path) if payload is None else payload
    path.write_bytes(json.dumps(doc, sort_keys=True).encode() + b"\n" + payload)
    return load_model(str(path))


class _Payload(NamedTuple):
    """A row that rewrites the saved payload's bytes, not the fc.W header entry."""

    edit: Callable


_LOGISTIC_SIZES = "not 8 per value of fc.W (2, 4), fc.b (2,)"


# Format 2 kept each parameter's values as base64 text under "f8"; its rows
# keep their ids and damage format 3's payload bytes, or the fc.W entry, instead.
@pytest.mark.parametrize("edit, text", [
    pytest.param(_Payload(lambda b: b[:-1]), f"payload is 79 bytes, {_LOGISTIC_SIZES}",
                 id="<lambda>-base64_0"),
    pytest.param(_Payload(lambda b: b + b"\0"), f"payload is 81 bytes, {_LOGISTIC_SIZES}",
                 id="<lambda>-ASCII"),
    pytest.param(_Payload(lambda b: b + b"\n"), f"payload is 81 bytes, {_LOGISTIC_SIZES}",
                 id="<lambda>-base64_1"),
    pytest.param(_Payload(lambda b: b[:-3]), f"payload is 77 bytes, {_LOGISTIC_SIZES}",
                 id="<lambda>-base64_2"),                 # cut inside the last value
    pytest.param(_Payload(lambda b: b[:9]), "payload is 9 bytes",
                 id="<lambda>-fc.W payload is 9 bytes"),
    pytest.param(_Payload(lambda b: b[:-8]), "payload is 72 bytes",
                 id="<lambda>-fc.W payload is 56 bytes"),
    pytest.param(_Payload(lambda b: b + bytes(8)), "payload is 88 bytes",
                 id="<lambda>-fc.W payload is 72 bytes"),
    pytest.param(lambda p: p.__setitem__("shape", 3), "fc.W has shape 3, want (2, 4)",
                 id="<lambda>-not 'int'"),
    pytest.param(lambda p: p.__setitem__("shape", [0.0] * 8), "fc.W has shape [0.0, 0.0,",
                 id="<lambda>-not 'list'"),
    pytest.param(lambda p: p.__setitem__("shape", None), "fc.W has shape None",
                 id="<lambda>-not 'NoneType'"),
    pytest.param(_Payload(lambda b: b""), f"payload is 0 bytes, {_LOGISTIC_SIZES}",
                 id="<lambda>-'f8'"),
    (lambda p: p.__setitem__("shape", [2.0, 4]), "fc.W has shape [2.0, 4]"),
    (lambda p: p.__setitem__("shape", [True, 4]), "fc.W has shape [True, 4]"),
    (lambda p: p.__setitem__("shape", [2, "4"]), "fc.W has shape"),
    (lambda p: p.__setitem__("shape", "24"), "fc.W has shape"),
    pytest.param(lambda p: p.__setitem__("shape", 8), "fc.W has shape 8",
                 id="<lambda>-not iterable"),
    # the format-2 payload as text where the raw bytes belong
    pytest.param(_Payload(base64.b64encode), f"payload is 108 bytes, {_LOGISTIC_SIZES}",
                 id="<lambda>-fc.W: argument should be a bytes-like object or ASCII string, "
                    "not 'int'"),
    pytest.param(lambda p: p.__setitem__("shape", 8), "fc.W has shape 8, want (2, 4)",
                 id="<lambda>-fc.W: 'int' object is not iterable"),
    pytest.param(lambda p: p.pop("shape"), "lacks params.fc.W.shape", id="<lambda>-fc.W: 'shape'"),
    ([0.0] * 8, "fc.W is a list, not an object"),
    ("AAAA", "fc.W is a str, not an object"),
    (None, "fc.W is a NoneType, not an object"),
])
def test_load_model_refuses_a_bad_payload_or_shape(tmp_path, edit, text):
    doc, payload = _saved_doc(tmp_path), None
    if isinstance(edit, _Payload):
        payload = edit.edit(_saved_payload(tmp_path))
    elif callable(edit):   # edits the entry in place; any other value replaces it
        edit(doc["params"]["fc.W"])
    else:
        doc["params"]["fc.W"] = edit
    with pytest.raises(CorruptFile, match=re.escape(str(tmp_path / "edited.json"))) as info:
        _load_doc(tmp_path, doc, payload)
    assert text in str(info.value)


def test_load_model_refuses_a_boolean_dimension_even_where_it_equals_one(tmp_path):
    model = Model.initialize(ModelSpec("mlp", (2, 2, 1), 2, hidden=(1,)))
    save_model(model, str(tmp_path / "m.json"))
    doc = decode_model((tmp_path / "m.json").read_bytes())[0]
    assert doc["params"]["fc0.b"]["shape"] == [1]
    doc["params"]["fc0.b"]["shape"] = [True]
    with pytest.raises(CorruptFile, match=re.escape("fc0.b has shape [True]")):
        _load_doc(tmp_path, doc)


def test_load_model_checks_every_shape_before_decoding_a_payload(tmp_path):
    doc = _saved_doc(tmp_path)
    doc["params"]["fc.b"]["shape"] = [3]
    with pytest.raises(CorruptFile, match="fc.b has shape"):
        _load_doc(tmp_path, doc, _saved_payload(tmp_path)[:-3])


def test_load_model_refuses_a_version_1_manifest(tmp_path):
    doc = _saved_doc(tmp_path)
    _, params = decode_model((tmp_path / "m.json").read_bytes())
    (tmp_path / "v1.json").write_bytes(legacy_model(doc, params, 1))
    assert json.loads((tmp_path / "v1.json").read_text())["params"]["fc.b"]["data"] == [0.0, 0.0]
    with pytest.raises(VersionMismatch, match="retrain the model with `advm train`"):
        load_model(str(tmp_path / "v1.json"))


@pytest.mark.parametrize("kind", list(MODEL_DAMAGES))
def test_a_damaged_model_file_is_refused_with_its_path(tmp_path, kind):
    damage, error, text = MODEL_DAMAGES[kind]
    path = tmp_path / "m.json"
    save_model(Model.initialize(ModelSpec("smallcnn", (4, 4, 1), 2, conv_channels=2)), str(path))
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises((CorruptFile, VersionMismatch)) as info:
        load_model(str(path))
    assert type(info.value).__name__ == error
    assert str(path) in str(info.value) and text in str(info.value)


@pytest.mark.parametrize("name", [1, "", None, ["a"], True])
def test_load_model_refuses_a_name_that_is_not_a_non_empty_string(tmp_path, name):
    doc = _saved_doc(tmp_path)
    doc["name"] = name
    with pytest.raises(CorruptFile, match="is not a non-empty string"):
        _load_doc(tmp_path, doc)


def test_load_model_names_params_that_are_a_list(tmp_path):
    doc = _saved_doc(tmp_path)
    doc["params"] = [doc["params"]["fc.W"]]
    with pytest.raises(CorruptFile, match="params is a list, not an object"):
        _load_doc(tmp_path, doc)


def test_load_model_names_a_spec_that_is_a_list(tmp_path):
    doc = _saved_doc(tmp_path)
    doc["spec"] = [1]
    with pytest.raises(CorruptFile, match="spec is a list, not an object"):
        _load_doc(tmp_path, doc)


def test_load_model_names_a_missing_spec_key(tmp_path):
    doc = _saved_doc(tmp_path)
    del doc["spec"]["arch"]
    with pytest.raises(CorruptFile, match="lacks spec.arch"):
        _load_doc(tmp_path, doc)


@pytest.mark.parametrize("key, value, text", [
    ("num_classes", True, "spec.num_classes must be an integer, got bool"),
    ("seed", 1.0, "spec.seed must be an integer, got float"),
    ("input_shape", "221", "spec.input_shape must be a list, got str"),
    ("arch", None, "spec.arch must be a string, got NoneType"),
])
def test_load_model_names_a_spec_value_of_the_wrong_json_type(tmp_path, key, value, text):
    doc = _saved_doc(tmp_path)
    doc["spec"][key] = value
    with pytest.raises(CorruptFile, match=re.escape(text)):
        _load_doc(tmp_path, doc)


@pytest.mark.parametrize("key, sizes", [("input_shape", [2, 2, True]), ("hidden", [True])])
def test_load_model_refuses_a_boolean_spec_size_equal_to_one(tmp_path, key, sizes):
    # true == 1 matched every declared shape, then numpy refused it as a dimension
    save_model(Model.initialize(ModelSpec("mlp", (2, 2, 1), 2, hidden=(1,))),
               str(tmp_path / "m.json"))
    doc = decode_model((tmp_path / "m.json").read_bytes())[0]
    doc["spec"][key] = sizes
    text = f"spec: {key}[{len(sizes) - 1}] must be an integer >= 1, got True"
    with pytest.raises(CorruptFile, match=re.escape(text)):
        _load_doc(tmp_path, doc)


def test_model_spec_refuses_boolean_sizes():
    for bad, text in (({"input_shape": (2, 2, True)},
                       "input_shape[2] must be an integer >= 1, got True"),
                      ({"num_classes": True}, "num_classes must be an integer >= 2, got True"),
                      ({"seed": False}, "seed must be an integer >= 0, got False"),
                      ({"arch": "mlp", "hidden": (True,)},
                       "hidden[0] must be an integer >= 1, got True")):
        kwargs = {"arch": "logistic", "input_shape": (2, 2, 1), "num_classes": 2, **bad}
        with pytest.raises(ValueError, match=re.escape(text)):
            ModelSpec(**kwargs)


@pytest.mark.parametrize("arch, extra", [("logistic", {}), ("mlp", {"hidden": (3,)}),
                                         ("smallcnn", {"conv_channels": 2})])
def test_load_model_checks_a_huge_declared_shape_without_allocating(tmp_path, arch, extra):
    # a 10^5 x 10^5 input would need a 10^10-wide first layer: the shape
    # check must come from the spec alone, not from drawing fresh weights
    save_model(Model.initialize(ModelSpec(arch, (4, 4, 1), 2, **extra)), str(tmp_path / "m.json"))
    doc = decode_model((tmp_path / "m.json").read_bytes())[0]
    doc["spec"]["input_shape"] = [100000, 100000, 1]
    tracemalloc.start()
    try:
        with pytest.raises(CorruptFile, match="has shape"):
            _load_doc(tmp_path, doc)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


def test_load_model_refuses_a_huge_model_whose_header_agrees_by_its_payload(tmp_path):
    # the spec and every shape agree on a 10^10-wide layer: the payload's
    # length is checked against them before any parameter is built
    doc = _saved_doc(tmp_path)
    doc["spec"]["input_shape"] = [100000, 100000, 1]
    doc["params"]["fc.W"]["shape"] = [2, 10**10]
    tracemalloc.start()
    try:
        with pytest.raises(CorruptFile, match=re.escape("payload is 80 bytes, not 8 per value "
                                                        "of fc.W (2, 10000000000), fc.b (2,)")):
            _load_doc(tmp_path, doc)
        assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()


# -- training ----------------------------------------------------------------------


def _toy_dataset(seed=0):
    return generate_synthetic(2, 12, height=4, width=4, noise_sigma=0.05,
                              seed=seed, contrast=1.0)


def test_train_sgd_zero_epochs_returns_fresh_init():
    ds = _toy_dataset()
    spec = ModelSpec("logistic", (4, 4, 1), 2, seed=3)
    model, _ = train_sgd(spec, ds, epochs=0, seed=1)
    fresh = Model.initialize(spec).params
    for k in fresh:
        assert np.array_equal(model.params[k], fresh[k])


def test_train_sgd_deterministic():
    ds = _toy_dataset()
    spec = ModelSpec("logistic", (4, 4, 1), 2, seed=3)
    m1, a1 = train_sgd(spec, ds, epochs=2, lr=0.5, seed=5)
    m2, a2 = train_sgd(spec, ds, epochs=2, lr=0.5, seed=5)
    assert a1 == a2
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])
    m3, _ = train_sgd(spec, ds, epochs=2, lr=0.5, seed=6)
    assert not all(np.array_equal(m1.params[k], m3.params[k]) for k in m1.params)


def test_train_sgd_learns_separable_toy():
    ds = _toy_dataset()
    spec = ModelSpec("logistic", (4, 4, 1), 2, seed=3)
    model, acc = train_sgd(spec, ds, epochs=6, lr=0.5, seed=5)
    assert acc >= 0.9
    assert _accuracy(model, ds) == acc


@pytest.mark.parametrize("kwargs, text", [
    ({"lr": float("nan")}, "learning rate"),
    ({"lr": float("inf")}, "learning rate"),
    ({"lr": 0.0}, "learning rate"),
    ({"lr": -0.5}, "learning rate"),
    ({"batch": 0}, "batch size"),
    ({"batch": -4}, "batch size"),
    ({"batch": 2.5}, "batch size must be an integer >= 1, got 2.5"),
    ({"batch": True}, "batch size must be an integer >= 1, got True"),
    ({"batch": np.int64(4)}, "batch size must be an integer"),
    ({"epochs": -2}, "epochs must be an integer >= 0, got -2"),
    ({"epochs": 1.5}, "epochs must be an integer >= 0, got 1.5"),
    ({"epochs": True}, "epochs must be an integer >= 0, got True"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ({"seed": False}, "seed must be an integer >= 0, got False"),
])
def test_train_sgd_rejects_bad_hyperparameters(kwargs, text):
    spec = ModelSpec("logistic", (4, 4, 1), 2, seed=3)
    with pytest.raises(ValueError, match=re.escape(text)):
        train_sgd(spec, _toy_dataset(), **{"epochs": 1, **kwargs})


def test_train_sgd_empty_dataset():
    with pytest.raises(EmptyDataset):
        train_sgd(ModelSpec("logistic", (2, 2, 1), 2), LabeledDataset((), (), 2))


def test_train_sgd_does_not_mutate_init_reference():
    # training must update a private copy, not the shared glorot arrays
    spec = ModelSpec("logistic", (4, 4, 1), 2, seed=3)
    before = Model.initialize(spec).params
    train_sgd(spec, _toy_dataset(), epochs=1, lr=1.0, seed=0)
    after = Model.initialize(spec).params
    for k in before:
        assert np.array_equal(before[k], after[k])


def _reference_train_sgd(spec, dataset, epochs, lr, batch, seed):
    """The per-example trainer that train_sgd replaced, kept as its reference:
    each example's gradient dict (_param_grad_dict), added in place into the
    first example's, then one update per minibatch."""
    model = Model.initialize(spec)
    rng = models.derive_rng(seed, 1)
    n = len(dataset)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            grads = None
            for i in idx:
                _, g = _param_grad_dict(model, dataset.images[i], dataset.labels[i])
                if grads is None:
                    grads = g
                else:
                    for k in grads:
                        grads[k] += g[k]
            scale = lr / len(idx)
            for k in model.params:
                model.params[k] -= scale * grads[k]
    return model, _accuracy(model, dataset)


_TRAINED_SPECS = [
    pytest.param("logistic", {}, id="logistic"),
    pytest.param("mlp", {"hidden": (7, 1, 4)}, id="mlp-7-1-4"),
    *(pytest.param("smallcnn", {"conv_channels": c, "conv_kernel": k}, id=f"smallcnn-c{c}-k{k}")
      for c in (1, 2) for k in (1, 3, 5)),
]


@pytest.mark.parametrize("batch", [1, 7, 32, 50])
@pytest.mark.parametrize("arch, sizes", _TRAINED_SPECS)
def test_train_sgd_bytes_match_the_per_example_reference(arch, sizes, batch):
    # 3 classes x 13 = 39 examples: batches of 7 and 32 end ragged, and 50 is one batch
    ds = generate_synthetic(3, 13, height=6, width=6, noise_sigma=0.2, seed=4, contrast=0.5)
    spec = ModelSpec(arch, (6, 6, 1), 3, seed=9, **sizes)
    got, got_acc = train_sgd(spec, ds, epochs=2, lr=0.3, batch=batch, seed=3)
    want, want_acc = _reference_train_sgd(spec, ds, epochs=2, lr=0.3, batch=batch, seed=3)
    assert got_acc == want_acc
    assert list(got.params) == list(want.params)
    for k in want.params:
        assert got.params[k].tobytes() == want.params[k].tobytes(), k
    fresh = Model.initialize(spec).params
    assert not all(np.array_equal(got.params[k], v) for k, v in fresh.items())
    # the premise that lets train_sgd sum onto +0.0: no parameter is ever -0.0
    assert not any(np.signbit(v[v == 0.0]).any() for v in got.params.values())


@pytest.mark.parametrize("arch, sizes", [("logistic", {}), ("mlp", {"hidden": (5, 4)}),
                                         ("smallcnn", {"conv_channels": 2})])
def test_train_sgd_takes_each_example_through_loss_and_param_grads(monkeypatch, arch, sizes):
    # perfbench's tracer wraps Model's class attributes, so its parameter-gradient
    # spans see training only if train_sgd calls this one, once per example per epoch
    ds = generate_synthetic(3, 5, height=6, width=6, noise_sigma=0.2, seed=4, contrast=0.5)
    seen = []
    original = Model.loss_and_param_grads

    def counted(self, x, y):
        seen.append(id(x))
        return original(self, x, y)

    monkeypatch.setattr(Model, "loss_and_param_grads", counted)
    train_sgd(ModelSpec(arch, (6, 6, 1), 3, seed=9, **sizes), ds, epochs=3, lr=0.3, batch=4,
              seed=3)
    n = len(ds)
    assert len(seen) == 3 * n
    for epoch in range(3):
        assert sorted(seen[epoch * n:(epoch + 1) * n]) == sorted(map(id, ds.images))


_EINSUM_ORDER = (f"np.einsum no longer adds in example order onto +0.0 (numpy {np.__version__}): "
                 "train_sgd's trained bytes would drift from the per-example sums")


def _spread(rng, shape):
    """Values over six decades with signed zeros, so any reordered sum rounds differently."""
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    return _with_signed_zeros(a, int(rng.integers(1 << 30)))


@pytest.mark.parametrize("fan_out, fan_in", [(1, 1), (1, 5), (4, 1), (3, 7), (10, 49)])
@pytest.mark.parametrize("rows", [1, 2, 7, 32, 5])          # 5: a ragged last batch, 37 % 32
def test_dense_grad_sums_add_in_example_order(fan_out, fan_in, rows):
    rng = np.random.default_rng(1000 * fan_out + 10 * fan_in + rows)
    deltas, acts = _spread(rng, (rows, fan_out)), _spread(rng, (rows, fan_in))
    deltas[:, 1:2] = -0.0                  # a column of -0.0 terms sums to +0.0
    gw, gb = models._dense_grad_sums(deltas, np.hstack([acts, np.ones((rows, 1))]))
    want_w, want_b = deltas[0][:, None] * acts[0][None, :], deltas[0].copy()
    for d, a in zip(deltas[1:], acts[1:]):
        want_w += d[:, None] * a[None, :]
        want_b += d
    assert gw.shape == want_w.shape and gb.shape == want_b.shape
    assert gw.tobytes() == (want_w + 0.0).tobytes(), _EINSUM_ORDER
    assert np.ascontiguousarray(gb).tobytes() == (want_b + 0.0).tobytes(), _EINSUM_ORDER


@pytest.mark.parametrize("channels", [1, 2, 3, 8, 12])
def test_stem_bias_grad_sums_pixels_in_row_order(channels):
    # more than one channel: each column onto +0.0 in row order, as the reduce
    # adds; one channel: the reduce's own (pairwise) order
    rng = np.random.default_rng(60 + channels)
    wt, cols = rng.normal(size=(3, 3, 1, channels)), rng.normal(size=(784, 9))
    for _ in range(5):
        pre, dpooled = _spread(rng, (4, 196, channels)), _spread(rng, (196, channels))
        pre[:, :, 1:2] = -1.0              # channel 1 is dead, and its column
        dpooled[:, 1:2] = -1.0             # of d pre all -0.0
        dpooled = dpooled.reshape(-1)
        dpre = _row_major(models._stem_dpre(dpooled, pre), 28, 28).reshape(784, channels)
        _, got = models._stem_param_grads(dpooled, pre, cols, wt, (28, 28, 1))
        want = dpre.sum(axis=0)
        if channels > 1:
            want = np.zeros(channels)
            for row in dpre:
                want += row
        assert got.tobytes() == want.tobytes(), _EINSUM_ORDER.replace("example", "pixel")


# -- ensembles ----------------------------------------------------------------------


def _pair_of_models():
    a = Model.initialize(ModelSpec("logistic", (3, 3, 1), 2, seed=1), name="a")
    b = Model.initialize(ModelSpec("mlp", (3, 3, 1), 2, hidden=(4,), seed=2), name="b")
    return a, b


def test_ensemble_of_one_is_bitwise_the_model():
    a, _ = _pair_of_models()
    ens = EnsembleOracle([a])
    x = rand_pixel_image((3, 3, 1), seed=70)
    assert np.array_equal(_logits(ens, x), _logits(a, x))
    la, ga = a.loss_and_grad(x, 1)
    le, ge = ens.loss_and_grad(x, 1)
    assert la == le
    assert np.array_equal(ga, ge)
    assert ens.predict(x) == a.predict(x)
    assert ens.name == "a"


def test_ensemble_of_identical_halves_matches_single():
    a, _ = _pair_of_models()
    ens = EnsembleOracle([a, a])
    x = rand_pixel_image((3, 3, 1), seed=71)
    assert np.max(np.abs(_logits(ens, x) - _logits(a, x))) < 1e-15


def test_ensemble_fused_logits_hand_weights():
    a, b = _pair_of_models()
    ens = EnsembleOracle([a, b])
    x = rand_pixel_image((3, 3, 1), seed=72)
    want = 0.5 * _logits(a, x) + 0.5 * _logits(b, x)
    assert np.max(np.abs(_logits(ens, x) - want)) < 1e-15
    assert ens.name == "a+b"


def test_ensemble_gradient_matches_central_difference():
    a, b = _pair_of_models()
    ens = EnsembleOracle([a, b])
    x = rand_pixel_image((3, 3, 1), seed=73)
    _, grad = ens.loss_and_grad(x, 0)
    fd = central_diff(lambda t: ens.loss_and_grad(t, 0)[0], x, h=1e-5)
    assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) < 1e-6


@pytest.mark.parametrize("k", [2, 3])
def test_ensemble_primitives_are_the_fusion_of_its_members(k):
    shape = (4, 4, 1)
    members = [Model.initialize(ModelSpec("logistic", shape, 3, seed=1), name="a"),
               Model.initialize(ModelSpec("mlp", shape, 3, hidden=(5,), seed=2), name="b"),
               Model.initialize(ModelSpec("smallcnn", shape, 3, conv_channels=2, seed=3),
                                name="c")][:k]
    ens = EnsembleOracle(members)
    x = rand_pixel_image(shape, seed=74 + k)
    z, caches = ens.forward_with_cache(x)
    want = None
    for m in members:
        zk = (1.0 / k) * _logits(m, x)
        want = zk if want is None else want + zk
    assert z.tobytes() == want.tobytes()
    d = np.random.default_rng(k).normal(size=3)
    want = None
    for m, cache in zip(members, caches):
        gk = m.input_grad_from_dlogits(cache, (1.0 / k) * d)
        want = gk if want is None else want + gk
    assert ens.input_grad_from_dlogits(caches, d).tobytes() == want.tobytes()


def test_ensemble_validation():
    a, b = _pair_of_models()
    with pytest.raises(EmptyDataset):
        EnsembleOracle([])
    with pytest.raises(ShapeMismatch):
        EnsembleOracle([a, Model.initialize(ModelSpec("logistic", (4, 4, 1), 2))])
    with pytest.raises(ShapeMismatch):
        EnsembleOracle([a, Model.initialize(ModelSpec("logistic", (3, 3, 1), 3))])
    with pytest.raises(LabelOutOfRange):
        EnsembleOracle([a, b]).loss_and_grad(np.zeros((3, 3, 1)), 5)


def test_ensemble_members_with_different_class_counts_are_a_shape_mismatch():
    a, _ = _pair_of_models()
    with pytest.raises(ShapeMismatch, match=re.escape("3 classes vs 2")):
        EnsembleOracle([a, Model.initialize(ModelSpec("logistic", (3, 3, 1), 3))])


# -- smallcnn kernels against the seed implementation -------------------------------
#
# The helpers below are the original smallcnn kernels, kept verbatim as the
# reference. The optimized kernels in advm.models must return the same bytes:
# same summation order, same signed zeros.


def _seed_conv_same_forward(x, w, b):
    k = w.shape[0]
    pad = (k - 1) // 2
    h, ww_, cin = x.shape
    cout = w.shape[3]
    xp = np.pad(x, ((pad, pad), (pad, pad), (0, 0)))
    win = sliding_window_view(xp, (k, k), axis=(0, 1))      # (h, w, cin, k, k)
    cols = win.transpose(0, 1, 3, 4, 2).reshape(h * ww_, k * k * cin)
    out = cols @ w.reshape(k * k * cin, cout) + b
    return out.reshape(h, ww_, cout), cols


def _seed_conv_same_input_grad(dout, w, in_shape):
    k = w.shape[0]
    pad = (k - 1) // 2
    h, ww_, cin = in_shape
    cout = w.shape[3]
    dcols = dout.reshape(h * ww_, cout) @ w.reshape(k * k * cin, cout).T
    dwin = dcols.reshape(h, ww_, k, k, cin)
    dxp = np.zeros((h + 2 * pad, ww_ + 2 * pad, cin))
    for di in range(k):
        for dj in range(k):
            dxp[di:di + h, dj:dj + ww_, :] += dwin[:, :, di, dj, :]
    return dxp[pad:pad + h, pad:pad + ww_, :]


def _seed_avgpool2(x):
    h, w, c = x.shape
    return x.reshape(h // 2, 2, w // 2, 2, c).mean(axis=(1, 3))


def _seed_avgpool2_relu_backward(dflat, pre):
    h, w, c = pre.shape
    dpooled = dflat.reshape(h // 2, w // 2, c)
    dact = np.repeat(np.repeat(dpooled, 2, axis=0), 2, axis=1) / 4.0
    return dact * (pre > 0.0)


def _with_signed_zeros(a, seed):
    """a with about a quarter of its entries set to +0.0 and a quarter to -0.0."""
    pick = np.random.default_rng(seed).integers(0, 4, size=a.shape)
    a = a.copy()
    a[pick == 0] = 0.0
    a[pick == 1] = -0.0
    return a


# The seed model composed its stem from the kernels above; the swapped-in
# stem of the seed_kernels fixture is this composition.


def _seed_stem_forward(x, w, b):
    pre, cols = _seed_conv_same_forward(x, w, b)
    return _seed_avgpool2(np.maximum(pre, 0.0)).reshape(-1), pre, cols


def _seed_stem_input_grad(dpooled, pre, w, in_shape):
    return _seed_conv_same_input_grad(_seed_avgpool2_relu_backward(dpooled, pre), w, in_shape)


def _seed_stem_param_grads(dpooled, pre, cols, w, in_shape):
    h, ww_, cc = pre.shape
    dpre = _seed_avgpool2_relu_backward(dpooled, pre)
    return (cols.T @ dpre.reshape(h * ww_, cc)).reshape(w.shape), dpre.sum(axis=(0, 1))


# The stem keeps its rows tap-major. These map between the two row orders
# by gathers only, so no arithmetic can hide a byte difference.


def _row_major(a, h, w):
    """Tap-major stem rows (leading axes of a) back in row-major pixel order."""
    rows = a.reshape(h * w, -1).take(models._tap_rows(h, w), axis=0)
    return rows.reshape(h, w, -1)


def _tap_major(a, h, w):
    """A row-major (h, w, c) array as the stem's (4, h/2*w/2, c) tap planes."""
    order = np.argsort(models._tap_rows(h, w))
    return a.reshape(h * w, -1).take(order, axis=0).reshape(4, (h // 2) * (w // 2), -1)


_KERNEL_CASES = [
    (h, w, k, cin)
    for (h, w) in ((6, 10), (4, 2), (8, 6))
    for k in (1, 3, 5)
    for cin in (1, 3)
]


def _check_forward(x, wt, b):
    h, w, _ = x.shape
    pooled, pre, cols = models._stem_forward(x, wt, b)
    want_out, want_cols = _seed_conv_same_forward(x, wt, b)
    assert pre.shape == (4, (h // 2) * (w // 2), wt.shape[3])
    got_cols = _row_major(cols, h, w).reshape(want_cols.shape)
    assert cols.shape == want_cols.shape and got_cols.tobytes() == want_cols.tobytes()
    assert _row_major(pre, h, w).tobytes() == want_out.tobytes()
    want_pooled = _seed_avgpool2(np.maximum(want_out, 0.0)).reshape(-1)
    assert pooled.shape == want_pooled.shape and pooled.tobytes() == want_pooled.tobytes()
    return pre, cols, want_out, want_cols


@pytest.mark.parametrize("h, w, k, cin", _KERNEL_CASES)
def test_conv_forward_bytes_match_seed(h, w, k, cin):
    rng = np.random.default_rng(100 + k * 10 + cin)
    x = _with_signed_zeros(rng.normal(size=(h, w, cin)), 1)
    wt = rng.normal(size=(k, k, cin, 4))
    b = rng.normal(size=4)
    _check_forward(x, wt, b)


@pytest.mark.parametrize("h, w, k, cin", _KERNEL_CASES)
def test_conv_input_grad_bytes_match_seed(h, w, k, cin):
    rng = np.random.default_rng(200 + k * 10 + cin)
    dpooled = _with_signed_zeros(rng.normal(size=(h // 2) * (w // 2) * 4), 2)
    wt = _with_signed_zeros(rng.normal(size=(k, k, cin, 4)), 3)
    pre = _with_signed_zeros(rng.normal(size=(h, w, 4)), 4)
    got = models._stem_input_grad(dpooled, _tap_major(pre, h, w), wt, (h, w, cin))
    want = _seed_stem_input_grad(dpooled, pre, wt, (h, w, cin))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("h, w, k, cin", _KERNEL_CASES)
def test_stem_param_grads_bytes_match_seed(h, w, k, cin):
    rng = np.random.default_rng(500 + k * 10 + cin)
    x = _with_signed_zeros(rng.normal(size=(h, w, cin)), 11)
    wt = rng.normal(size=(k, k, cin, 4))
    _, pre, cols = models._stem_forward(x, wt, rng.normal(size=4))
    dpooled = _with_signed_zeros(rng.normal(size=(h // 2) * (w // 2) * 4), 12)
    got_w, got_b = models._stem_param_grads(dpooled, pre, cols, wt, (h, w, cin))
    want_w, want_b = _seed_stem_param_grads(
        dpooled, _row_major(pre, h, w), _row_major(cols, h, w).reshape(h * w, -1), wt,
        (h, w, cin))
    assert got_w.shape == want_w.shape and got_w.tobytes() == want_w.tobytes()
    assert got_b.shape == want_b.shape and got_b.tobytes() == want_b.tobytes()


def test_conv_input_grad_of_negative_zeros_is_positive_zero():
    # -0.0 upstream gradients come out as +0.0, as the zero-canvas scatter gave
    dpooled = np.full(2 * 3 * 2, -0.0)
    pre = np.ones((4, 6, 2))
    wt = np.random.default_rng(4).normal(size=(3, 3, 1, 2))
    got = models._stem_input_grad(dpooled, _tap_major(pre, 4, 6), wt, (4, 6, 1))
    assert got.tobytes() == np.zeros((4, 6, 1)).tobytes()
    assert got.tobytes() == _seed_stem_input_grad(dpooled, pre, wt, (4, 6, 1)).tobytes()


@pytest.mark.parametrize("h, w", [(6, 10), (4, 2), (2, 2), (28, 28)])
def test_tap_rows_is_a_cached_read_only_permutation(h, w):
    rows = models._tap_rows(h, w)
    assert rows is models._tap_rows(h, w)
    assert not rows.flags.writeable
    assert np.array_equal(np.sort(rows), np.arange(h * w))
    n, half = (h // 2) * (w // 2), w // 2
    for i, j in ((0, 0), (h - 1, w - 1), (1, w - 2), (h - 2, 1)):
        assert rows[i * w + j] == (2 * (i % 2) + j % 2) * n + (i // 2) * half + j // 2


def test_col2im_index_is_cached_and_read_only():
    idx = models._col2im_index(6, 10, 3, 2)
    assert idx is models._col2im_index(6, 10, 3, 2)
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0, 0, 0] = 0


@pytest.mark.parametrize("h, w, k, cin", _KERNEL_CASES)
def test_col2im_index_keeps_the_sentinel_on_padding_taps(h, w, k, cin):
    # each dcols entry is gathered at most once; padding taps read the sentinel
    # one past the end, and each pixel's own centre tap is never padding
    idx = models._col2im_index(h, w, k, cin)
    sentinel = h * w * k * k * cin
    pad = (k - 1) // 2
    i = np.arange(h).reshape(1, h, 1, 1, 1) + pad - np.arange(k).reshape(k, 1, 1, 1, 1)
    j = np.arange(w).reshape(1, 1, w, 1, 1) + pad - np.arange(k).reshape(1, 1, 1, k, 1)
    padding = ~((i >= 0) & (i < h) & (j >= 0) & (j < w))
    padding = np.broadcast_to(padding.transpose(0, 3, 1, 2, 4), (k, k, h, w, cin))
    assert np.array_equal(idx == sentinel, padding.reshape(idx.shape))
    real = idx[idx != sentinel]
    assert real.max() < sentinel and len(np.unique(real)) == real.size
    assert not (idx[(k * k) // 2] == sentinel).any()


def test_im2col_index_is_cached_and_read_only():
    idx = models._im2col_index(6, 10, 3, 2)
    assert idx is models._im2col_index(6, 10, 3, 2)
    assert idx.shape == (6 * 10, 3 * 3 * 2)
    assert not idx.flags.writeable
    with pytest.raises(ValueError):
        idx[0, 0] = 0


def test_conv_forward_returns_fresh_arrays():
    # no buffer is shared between calls: callers keep results across calls
    rng = np.random.default_rng(11)
    x, wt, b = rng.normal(size=(6, 10, 2)), rng.normal(size=(3, 3, 2, 4)), rng.normal(size=4)
    pooled_a, pre_a, cols_a = models._stem_forward(x, wt, b)
    pooled_b, pre_b, cols_b = models._stem_forward(x, wt, b)
    for a, b_ in ((pooled_a, pooled_b), (pre_a, pre_b), (cols_a, cols_b)):
        assert not np.shares_memory(a, b_) and a.flags.writeable


# (kernel, channels) of the four 28x28x1 smallcnns in experiment._ZOO
_ZOO_SHAPES = [(3, 8), (5, 6), (3, 10), (5, 12)]


@pytest.mark.parametrize("k, cout", _ZOO_SHAPES)
def test_conv_bytes_match_seed_on_zoo_shapes(k, cout):
    rng = np.random.default_rng(400 + k * 10 + cout)
    x = _with_signed_zeros(rng.random((28, 28, 1)), 8)
    wt = _with_signed_zeros(rng.normal(size=(k, k, 1, cout)), 9)
    b = rng.normal(size=cout)
    pre, cols, want_pre, want_cols = _check_forward(x, wt, b)
    dpooled = _with_signed_zeros(rng.normal(size=14 * 14 * cout), 10)
    got = models._stem_input_grad(dpooled, pre, wt, (28, 28, 1))
    want = _seed_stem_input_grad(dpooled, want_pre, wt, (28, 28, 1))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    got_w, got_b = models._stem_param_grads(dpooled, pre, cols, wt, (28, 28, 1))
    want_w, want_b = _seed_stem_param_grads(dpooled, want_pre, want_cols, wt, (28, 28, 1))
    assert got_w.tobytes() == want_w.tobytes() and got_b.tobytes() == want_b.tobytes()


@pytest.mark.parametrize("h, w, c", [
    (6, 10, 1), (4, 2, 1), (2, 2, 1), (4, 2, 3), (8, 6, 5), (2, 4, 2),
])
def test_avgpool_and_backward_bytes_match_seed(h, w, c):
    rng = np.random.default_rng(300 + h + c)
    pre = _with_signed_zeros(rng.normal(size=(h, w, c)), 5)
    pre[:2, :2] = -0.0                           # one window of four -0.0 taps
    act = np.maximum(pre, 0.0)
    got = models._avgpool2_taps(_tap_major(act, h, w), w).reshape(h // 2, w // 2, c)
    assert got.tobytes() == _seed_avgpool2(act).tobytes()
    assert got[0, 0].tobytes() == np.zeros(c).tobytes()      # +0.0, as mean gives
    signed = _with_signed_zeros(rng.normal(size=(h, w, c)), 6)
    got = models._avgpool2_taps(_tap_major(signed, h, w), w).reshape(h // 2, w // 2, c)
    assert got.tobytes() == _seed_avgpool2(signed).tobytes()

    dflat = _with_signed_zeros(rng.normal(size=(h // 2) * (w // 2) * c), 7)
    got = _row_major(models._stem_dpre(dflat, _tap_major(pre, h, w)), h, w)
    want = _seed_avgpool2_relu_backward(dflat, pre)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_dense_weight_grads_are_the_outer_product_bytes():
    model = Model.initialize(ModelSpec("mlp", (4, 4, 1), 3, hidden=(6, 5), seed=4))
    x = rand_pixel_image((4, 4, 1), seed=40)
    z, (acts, _, _) = model.forward_with_cache(x)
    _, dlogits = models._xent(z, 1)
    _, grads = _param_grad_dict(model, x, 1)
    assert grads["fc2.W"].tobytes() == np.outer(dlogits, acts[2]).tobytes()


_SEED_STEM = {
    "_stem_forward": _seed_stem_forward,
    "_stem_input_grad": _seed_stem_input_grad,
    "_stem_param_grads": _seed_stem_param_grads,
}


@pytest.fixture
def seed_kernels(monkeypatch):
    """Run a call with the seed-composed stem swapped into advm.models.

    run.calls counts the calls each swapped-in function received, so a test
    can tell that the reference really ran.
    """
    calls = dict.fromkeys(_SEED_STEM, 0)

    def counted(name, fn):
        def inner(*args):
            calls[name] += 1
            return fn(*args)
        return inner

    def run(fn):
        with monkeypatch.context() as m:
            for name, fn_ in _SEED_STEM.items():
                m.setattr(models, name, counted(name, fn_))
            return fn()
    run.calls = calls
    return run


def _smallcnn(shape, channels, kernel, seed):
    model = Model.initialize(ModelSpec("smallcnn", shape, 4, conv_channels=channels,
                                       conv_kernel=kernel, seed=seed))
    # negative biases on half the channels leave many pre-activations <= 0
    model.params["conv.b"] = np.where(np.arange(channels) % 2 == 0, -0.2, 0.05)
    return model


def _probe_images(shape, seed):
    images = [rand_pixel_image(shape, seed=seed + i) for i in range(4)]
    images[1][: shape[0] // 2] = 0.0             # exact zero pre-activations
    return images


def test_seed_kernels_fixture_runs_the_seed_stem(seed_kernels):
    # a fixture whose swap misses the model would compare the stem with itself
    model = _smallcnn((6, 10, 1), 3, 3, seed=8)
    x = _probe_images((6, 10, 1), seed=80)[0]
    _, (_, pre, cols) = seed_kernels(lambda: model.forward_with_cache(x))
    assert pre.shape == (6, 10, 3) and cols.shape == (60, 9)     # the seed's layout
    seed_kernels(lambda: model.loss_and_grad(x, 0))
    seed_kernels(lambda: _param_grad_dict(model, x, 0))
    assert seed_kernels.calls == {
        "_stem_forward": 3, "_stem_input_grad": 1, "_stem_param_grads": 1}
    model.loss_and_grad(x, 0)                    # outside the fixture: the stem's own
    assert seed_kernels.calls["_stem_forward"] == 3


@pytest.mark.parametrize("shape, channels, kernel", [
    ((6, 10, 1), 3, 3), ((8, 6, 3), 4, 5), ((4, 4, 2), 2, 1), ((6, 10, 1), 1, 3),
])
def test_smallcnn_outputs_bytes_match_seed_kernels(seed_kernels, shape, channels, kernel):
    model = _smallcnn(shape, channels, kernel, seed=8)
    for y, x in enumerate(_probe_images(shape, seed=80)):
        got_z = _logits(model, x)
        got_loss, got_g = model.loss_and_grad(x, y)
        got_ploss, got_p = _param_grad_dict(model, x, y)
        want_z = seed_kernels(lambda: _logits(model, x))
        want_loss, want_g = seed_kernels(lambda: model.loss_and_grad(x, y))
        want_ploss, want_p = seed_kernels(lambda: _param_grad_dict(model, x, y))
        assert got_z.tobytes() == want_z.tobytes()
        assert got_loss == want_loss and got_g.tobytes() == want_g.tobytes()
        assert got_ploss == want_ploss and sorted(got_p) == sorted(want_p)
        for key in want_p:
            assert got_p[key].tobytes() == want_p[key].tobytes(), key
    assert seed_kernels.calls["_stem_param_grads"] == 4


@pytest.mark.parametrize("k, cout", _ZOO_SHAPES)
def test_zoo_smallcnn_outputs_bytes_match_seed_kernels(seed_kernels, k, cout):
    shape = (28, 28, 1)
    model = _smallcnn(shape, cout, k, seed=12)
    for y, x in enumerate(_probe_images(shape, seed=120)[:2]):
        got_loss, got_g = model.loss_and_grad(x, y)
        got_ploss, got_p = _param_grad_dict(model, x, y)
        want_loss, want_g = seed_kernels(lambda: model.loss_and_grad(x, y))
        want_ploss, want_p = seed_kernels(lambda: _param_grad_dict(model, x, y))
        assert got_loss == want_loss and got_g.tobytes() == want_g.tobytes()
        assert got_ploss == want_ploss
        for key in want_p:
            assert got_p[key].tobytes() == want_p[key].tobytes(), key
    assert seed_kernels.calls["_stem_input_grad"] == 2


def test_ensemble_outputs_bytes_match_seed_kernels(seed_kernels):
    shape = (6, 10, 1)
    ens = EnsembleOracle([_smallcnn(shape, 3, 3, seed=9), _smallcnn(shape, 2, 5, seed=10)])
    for y, x in enumerate(_probe_images(shape, seed=90)):
        got_z = _logits(ens, x)
        got_loss, got_g = ens.loss_and_grad(x, y)
        want_z = seed_kernels(lambda: _logits(ens, x))
        want_loss, want_g = seed_kernels(lambda: ens.loss_and_grad(x, y))
        assert got_z.tobytes() == want_z.tobytes()
        assert got_loss == want_loss and got_g.tobytes() == want_g.tobytes()
    assert seed_kernels.calls["_stem_input_grad"] == 8


# -- the cached bias plane -----------------------------------------------------


def _copied(model):
    """A fresh Model on copies of model's parameters."""
    return Model(model.spec, {k: v.copy() for k, v in model.params.items()}, model.name)


def _leaf_bytes(cache):
    """The bytes of every array in a (nested) forward cache, in order."""
    if isinstance(cache, np.ndarray):
        return [cache.tobytes()]
    return [b for part in cache for b in _leaf_bytes(part)]


def _assert_same_outputs(oracle, want, x, y):
    z, cache = oracle.forward_with_cache(x)
    want_z, want_cache = want.forward_with_cache(x)
    assert z.tobytes() == want_z.tobytes()
    assert _leaf_bytes(cache) == _leaf_bytes(want_cache)
    loss, g = oracle.loss_and_grad(x, y)
    want_loss, want_g = want.loss_and_grad(x, y)
    assert loss == want_loss and g.tobytes() == want_g.tobytes()
    assert oracle.predict(x) == want.predict(x)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stem_sees_an_in_place_bias_update(seed_kernels, dtype):
    # train_sgd updates conv.b in place every minibatch: a plane cached by the
    # array, not by its value, would go on adding the old bias
    shape = (6, 10, 1)
    model = _smallcnn(shape, 3, 3, seed=14)
    model.params["conv.b"] = model.params["conv.b"].astype(dtype)
    images = _probe_images(shape, seed=140)
    before = _logits(model, images[0])
    model.params["conv.b"] -= np.array([0.5, -0.75, 1.5], dtype=dtype)
    assert _logits(model, images[0]).tobytes() != before.tobytes()
    for y, x in enumerate(images):
        _assert_same_outputs(model, _copied(model), x, y)
        want_z = seed_kernels(lambda: _logits(model, x))   # the seed's `+ b`
        assert _logits(model, x).tobytes() == want_z.tobytes()
    assert seed_kernels.calls["_stem_forward"] == len(images)


def test_ensemble_members_with_distinct_biases_keep_their_own_planes(seed_kernels):
    shape = (6, 10, 1)
    members = [_smallcnn(shape, 3, 3, seed=15 + i) for i in range(4)]
    for i, m in enumerate(members):
        m.params["conv.b"] = m.params["conv.b"] + 0.125 * i
    members[3].params["conv.b"] = members[3].params["conv.b"].astype(np.float32)
    ens = EnsembleOracle(members)
    want = EnsembleOracle([_copied(m) for m in members])
    for y, x in enumerate(_probe_images(shape, seed=150)):
        z, caches = ens.forward_with_cache(x)
        fused = None
        for m, (_, pre, _) in zip(members, caches):
            zk, (_, pre_k, _) = m.forward_with_cache(x)
            assert pre.tobytes() == pre_k.tobytes()
            fused = ens.weight * zk if fused is None else fused + ens.weight * zk
        assert z.tobytes() == fused.tobytes()
        assert z.tobytes() == seed_kernels(lambda: _logits(ens, x)).tobytes()
        _assert_same_outputs(ens, want, x, y)
    # warm, the four planes all stay cached: one ensemble query builds none
    misses = models._bias_plane.cache_info().misses
    ens.loss_and_grad(x, 0)
    assert models._bias_plane.cache_info().misses == misses


def test_bias_plane_is_cached_read_only_and_bounded():
    b = np.array([0.5, -0.25, 2.0], dtype=np.float32)
    plane = models._bias_plane(b.tobytes(), b.dtype, 4)
    assert plane is models._bias_plane(b.tobytes(), b.dtype, 4)
    assert plane.dtype == b.dtype and plane.tobytes() == np.tile(b, 4).tobytes()
    assert not plane.flags.writeable
    with pytest.raises(ValueError):
        plane[0] = 0.0
    maxsize = models._bias_plane.cache_info().maxsize
    assert maxsize is not None and maxsize <= 16
