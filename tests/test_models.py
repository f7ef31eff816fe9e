"""Classifiers: spec validation, exact gradients, training, persistence, ensembles."""

import json
import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from advm import models
from advm.data import LabeledDataset, generate_synthetic
from advm.errors import (
    ClassCountMismatch,
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
    accuracy,
    grad_check,
    init_params,
    load_model,
    save_model,
    train_sgd,
)

from conftest import SinusoidOracle, central_diff, rand_pixel_image


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
    for bad in ({"hidden": (0,)}, {"hidden": (64, -3)}):
        with pytest.raises(ValueError, match="hidden widths must be >= 1"):
            ModelSpec("mlp", (4, 4, 1), 2, **bad)
    for bad in ({"conv_channels": 0}, {"conv_channels": -1}, {"conv_kernel": 0},
                {"conv_kernel": -1}):
        with pytest.raises(ValueError, match="must be >= 1"):
            ModelSpec("smallcnn", (4, 4, 1), 2, **bad)
    for arch in ("logistic", "smallcnn"):   # the one dense layer has no hidden widths
        with pytest.raises(ValueError, match="has no hidden layers"):
            ModelSpec(arch, (4, 4, 1), 2, hidden=(5,))
    for bad in ({"input_shape": (4.0, 4, 1)}, {"num_classes": 2.0}, {"conv_channels": 2.5},
                {"seed": 1.0}):
        kw = {"input_shape": (4, 4, 1), "num_classes": 2, **bad}
        with pytest.raises(ValueError, match="must be integers"):
            ModelSpec("smallcnn", **kw)


def test_init_params_shapes_and_glorot_bounds():
    spec = ModelSpec("smallcnn", (6, 6, 2), 3, conv_channels=4, conv_kernel=3, seed=1)
    p = init_params(spec)
    assert p["conv.W"].shape == (3, 3, 2, 4)
    assert p["conv.b"].shape == (4,)
    assert p["fc.W"].shape == (3, 3 * 3 * 4)
    assert np.array_equal(p["conv.b"], np.zeros(4))
    bound = math.sqrt(6.0 / (3 * 3 * 2 + 3 * 3 * 4))
    assert np.max(np.abs(p["conv.W"])) <= bound

    mspec = ModelSpec("mlp", (2, 2, 1), 2, hidden=(5, 3))
    mp = init_params(mspec)
    assert mp["fc0.W"].shape == (5, 4)
    assert mp["fc1.W"].shape == (3, 5)
    assert mp["fc2.W"].shape == (2, 3)

    lspec = ModelSpec("logistic", (2, 2, 1), 3)
    lp = init_params(lspec)
    assert lp["fc.W"].shape == (3, 4)
    assert np.array_equal(lp["fc.b"], np.zeros(3))


def test_init_params_deterministic_in_spec_seed():
    a = init_params(ModelSpec("logistic", (3, 3, 1), 2, seed=5))
    b = init_params(ModelSpec("logistic", (3, 3, 1), 2, seed=5))
    c = init_params(ModelSpec("logistic", (3, 3, 1), 2, seed=6))
    assert np.array_equal(a["fc.W"], b["fc.W"])
    assert not np.array_equal(a["fc.W"], c["fc.W"])


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

    assert np.allclose(model.logits(x), np.array([z0, z1]), atol=1e-15)
    assert model.predict(x) == 1


def test_logistic_param_grads_hand_case():
    # dJ/dW = (p - onehot) outer x_flat; dJ/db = p - onehot
    model = _hand_logistic()
    x = np.array([0.3, 0.7]).reshape(1, 2, 1)
    z0, z1 = -0.29999999999999993, 0.12499999999999994
    e0, e1 = math.exp(z0), math.exp(z1)
    p = np.array([e0, e1]) / (e0 + e1)
    d = p - np.array([1.0, 0.0])

    _, grads = model.loss_and_param_grads(x, 0)
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
    _, grads = model.loss_and_param_grads(x, y)
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


def test_forward_shape_mismatch():
    model = Model.initialize(ModelSpec("logistic", (2, 2, 1), 2))
    with pytest.raises(ShapeMismatch):
        model.logits(np.zeros((3, 2, 1)))


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
    doc = json.loads(path.read_text())
    doc["params"]["fc.W"]["data"][1] = bad
    path.write_text(json.dumps(doc))              # writes NaN / Infinity literals
    with pytest.raises(CorruptFile, match="fc.W holds a non-finite value"):
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
    good = str(tmp_path / "good.json")
    save_model(model, good)
    with open(good) as fh:
        doc = json.load(fh)

    doc_v = dict(doc)
    doc_v["version"] = 99
    p.write_text(json.dumps(doc_v))
    with pytest.raises(VersionMismatch):
        load_model(str(p))

    doc_missing = json.loads(json.dumps(doc))
    del doc_missing["params"]["fc.b"]
    p.write_text(json.dumps(doc_missing))
    with pytest.raises(CorruptFile):
        load_model(str(p))

    doc_shape = json.loads(json.dumps(doc))
    doc_shape["params"]["fc.b"]["shape"] = [3]
    doc_shape["params"]["fc.b"]["data"] = [0.0, 0.0, 0.0]
    p.write_text(json.dumps(doc_shape))
    with pytest.raises(CorruptFile):
        load_model(str(p))


@pytest.mark.parametrize("arch, extra", [("logistic", {}), ("mlp", {"hidden": (3,)}),
                                         ("smallcnn", {"conv_channels": 2})])
def test_load_model_checks_a_huge_declared_shape_without_allocating(tmp_path, arch, extra):
    # a 10^5 x 10^5 input would need a 10^10-wide first layer: the shape
    # check must come from the spec alone, not from drawing fresh weights
    save_model(Model.initialize(ModelSpec(arch, (4, 4, 1), 2, **extra)), str(tmp_path / "m.json"))
    doc = json.loads((tmp_path / "m.json").read_text())
    doc["spec"]["input_shape"] = [100000, 100000, 1]
    (tmp_path / "m.json").write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match="has shape"):
        load_model(str(tmp_path / "m.json"))


# -- training ----------------------------------------------------------------------


def _toy_dataset(seed=0):
    return generate_synthetic(2, 12, height=4, width=4, noise_sigma=0.05,
                              seed=seed, contrast=1.0)


def test_train_sgd_zero_epochs_returns_fresh_init():
    ds = _toy_dataset()
    spec = ModelSpec("logistic", (4, 4, 1), 2, seed=3)
    model, _ = train_sgd(spec, ds, epochs=0, seed=1)
    fresh = init_params(spec)
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
    assert accuracy(model, ds) == acc


@pytest.mark.parametrize("kwargs, text", [
    ({"lr": float("nan")}, "learning rate"),
    ({"lr": float("inf")}, "learning rate"),
    ({"lr": 0.0}, "learning rate"),
    ({"lr": -0.5}, "learning rate"),
    ({"batch": 0}, "batch size"),
    ({"batch": -4}, "batch size"),
])
def test_train_sgd_rejects_bad_hyperparameters(kwargs, text):
    spec = ModelSpec("logistic", (4, 4, 1), 2, seed=3)
    with pytest.raises(ValueError, match=text):
        train_sgd(spec, _toy_dataset(), epochs=1, **kwargs)


def test_train_sgd_empty_dataset():
    with pytest.raises(EmptyDataset):
        train_sgd(ModelSpec("logistic", (2, 2, 1), 2), LabeledDataset((), (), 2))


def test_accuracy_empty():
    model = Model.initialize(ModelSpec("logistic", (2, 2, 1), 2))
    with pytest.raises(EmptyDataset):
        accuracy(model, LabeledDataset((), (), 2))


def test_train_sgd_does_not_mutate_init_reference():
    # training must update a private copy, not the shared glorot arrays
    spec = ModelSpec("logistic", (4, 4, 1), 2, seed=3)
    before = init_params(spec)
    train_sgd(spec, _toy_dataset(), epochs=1, lr=1.0, seed=0)
    after = init_params(spec)
    for k in before:
        assert np.array_equal(before[k], after[k])


# -- ensembles ----------------------------------------------------------------------


def _pair_of_models():
    a = Model.initialize(ModelSpec("logistic", (3, 3, 1), 2, seed=1), name="a")
    b = Model.initialize(ModelSpec("mlp", (3, 3, 1), 2, hidden=(4,), seed=2), name="b")
    return a, b


def test_ensemble_of_one_is_bitwise_the_model():
    a, _ = _pair_of_models()
    ens = EnsembleOracle([a])
    x = rand_pixel_image((3, 3, 1), seed=70)
    assert np.array_equal(ens.logits(x), a.logits(x))
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
    assert np.max(np.abs(ens.logits(x) - a.logits(x))) < 1e-15


def test_ensemble_fused_logits_hand_weights():
    a, b = _pair_of_models()
    ens = EnsembleOracle([a, b], weights=(0.25, 0.75))
    x = rand_pixel_image((3, 3, 1), seed=72)
    want = 0.25 * a.logits(x) + 0.75 * b.logits(x)
    assert np.max(np.abs(ens.logits(x) - want)) < 1e-15
    assert ens.name == "a+b"


def test_ensemble_gradient_matches_central_difference():
    a, b = _pair_of_models()
    ens = EnsembleOracle([a, b])
    x = rand_pixel_image((3, 3, 1), seed=73)
    _, grad = ens.loss_and_grad(x, 0)
    fd = central_diff(lambda t: ens.loss_and_grad(t, 0)[0], x, h=1e-5)
    assert np.max(np.abs(fd - grad)) / max(1.0, np.max(np.abs(grad))) < 1e-6


def test_ensemble_validation():
    a, b = _pair_of_models()
    with pytest.raises(EmptyDataset):
        EnsembleOracle([])
    with pytest.raises(ShapeMismatch):
        EnsembleOracle([a, Model.initialize(ModelSpec("logistic", (4, 4, 1), 2))])
    with pytest.raises(ClassCountMismatch):
        EnsembleOracle([a, Model.initialize(ModelSpec("logistic", (3, 3, 1), 3))])
    with pytest.raises(ShapeMismatch):
        EnsembleOracle([a, b], weights=(1.0,))
    with pytest.raises(ValueError):
        EnsembleOracle([a, b], weights=(0.6, 0.6))
    for weights in ((float("nan"), float("nan")), (2.0, -1.0), (float("inf"), -float("inf"))):
        with pytest.raises(ValueError, match="finite and >= 0"):
            EnsembleOracle([a, b], weights=weights)
    with pytest.raises(LabelOutOfRange):
        EnsembleOracle([a, b]).loss_and_grad(np.zeros((3, 3, 1)), 5)


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
    _, grads = model.loss_and_param_grads(x, 1)
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
    seed_kernels(lambda: model.loss_and_param_grads(x, 0))
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
        got_z = model.logits(x)
        got_loss, got_g = model.loss_and_grad(x, y)
        got_ploss, got_p = model.loss_and_param_grads(x, y)
        want_z = seed_kernels(lambda: model.logits(x))
        want_loss, want_g = seed_kernels(lambda: model.loss_and_grad(x, y))
        want_ploss, want_p = seed_kernels(lambda: model.loss_and_param_grads(x, y))
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
        got_ploss, got_p = model.loss_and_param_grads(x, y)
        want_loss, want_g = seed_kernels(lambda: model.loss_and_grad(x, y))
        want_ploss, want_p = seed_kernels(lambda: model.loss_and_param_grads(x, y))
        assert got_loss == want_loss and got_g.tobytes() == want_g.tobytes()
        assert got_ploss == want_ploss
        for key in want_p:
            assert got_p[key].tobytes() == want_p[key].tobytes(), key
    assert seed_kernels.calls["_stem_input_grad"] == 2


def test_ensemble_outputs_bytes_match_seed_kernels(seed_kernels):
    shape = (6, 10, 1)
    ens = EnsembleOracle([_smallcnn(shape, 3, 3, seed=9), _smallcnn(shape, 2, 5, seed=10)],
                         weights=(0.25, 0.75))
    for y, x in enumerate(_probe_images(shape, seed=90)):
        got_z = ens.logits(x)
        got_loss, got_g = ens.loss_and_grad(x, y)
        want_z = seed_kernels(lambda: ens.logits(x))
        want_loss, want_g = seed_kernels(lambda: ens.loss_and_grad(x, y))
        assert got_z.tobytes() == want_z.tobytes()
        assert got_loss == want_loss and got_g.tobytes() == want_g.tobytes()
    assert seed_kernels.calls["_stem_input_grad"] == 8
