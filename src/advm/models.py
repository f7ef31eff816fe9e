"""Differentiable classifiers with exact hand-derived gradients.

Every model is one path in numpy: an optional conv stem (same-padded
conv -> ReLU -> 2x2 average pool) followed by one dense chain
`Dense (ReLU Dense)*`. logistic is the chain `fc` alone, mlp is
`fc0 ... fcK` with ReLUs between, and smallcnn is the stem in front of
`fc`; _layout is the only code that reads the architecture. The forward
pass keeps the intermediates needed for backprop, and two backward paths
share them: gradients w.r.t. the input (what the attacks consume) and
gradients w.r.t. the parameters (what the trainer consumes). There is no
tape; every backward rule is written out.

Ensembles fuse logits linearly, take the cross-entropy of the fused
logits, and push the fused softmax error back through each member scaled
by its weight.

The stem kernels (_conv_same_forward, _conv_same_input_grad,
_avgpool2, _avgpool2_relu_backward) are written for speed but keep the
floating-point summation order of the straightforward numpy versions
they replaced (np.pad + strided im2col, mean(axis=(1, 3)), np.repeat,
a tap-by-tap scatter into a zero canvas), signed zeros included, so
every loss, gradient and logit is bit-identical to theirs. The im2col
and col2im steps are pure gathers through cached read-only indices
(_im2col_index, _col2im_index), which copy values without arithmetic,
and both GEMMs see the operand layouts the old versions gave them. The
tests in tests/test_models.py keep those versions as the reference and
compare bytes.
"""

import json
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .data import LabeledDataset
from .errors import (
    ClassCountMismatch,
    CorruptFile,
    EmptyDataset,
    LabelOutOfRange,
    ShapeMismatch,
    VersionMismatch,
)
from .fileio import atomic_write_text
from .sampling import derive_rng, make_rng

ARCHITECTURES = ("logistic", "mlp", "smallcnn")

_MODEL_FORMAT = "advm-model"
_MODEL_VERSION = 1


@dataclass(frozen=True)
class ModelSpec:
    arch: str
    input_shape: tuple
    num_classes: int
    hidden: tuple = ()          # mlp only: widths of the hidden layers
    conv_channels: int = 8      # smallcnn only
    conv_kernel: int = 3        # smallcnn only, odd
    seed: int = 0

    def __post_init__(self):
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        sizes = (*self.input_shape, self.num_classes, *self.hidden, self.conv_channels,
                 self.conv_kernel, self.seed)
        if not all(isinstance(v, numbers.Integral) for v in sizes):
            raise ValueError(f"sizes and seed must be integers, got {sizes}")
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ValueError(f"bad input shape {self.input_shape}")
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        if self.arch == "mlp" and not self.hidden:
            raise ValueError("mlp needs at least one hidden width")
        if self.arch != "mlp" and self.hidden:
            raise ValueError(f"{self.arch} has no hidden layers, got {tuple(self.hidden)}")
        if any(w < 1 for w in self.hidden):
            raise ValueError(f"hidden widths must be >= 1, got {tuple(self.hidden)}")
        if self.conv_channels < 1 or self.conv_kernel < 1:
            raise ValueError("conv channels and kernel side must be >= 1")
        if self.arch == "smallcnn":
            if self.conv_kernel % 2 == 0:
                raise ValueError("conv kernel side must be odd")
            h, w, _ = self.input_shape
            if h % 2 or w % 2:
                raise ValueError("smallcnn pools 2x2, so input sides must be even")
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "hidden", tuple(self.hidden))

    @property
    def input_size(self) -> int:
        h, w, c = self.input_shape
        return h * w * c


def _glorot(rng, shape, fan_in, fan_out):
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=shape)


def _layout(spec: ModelSpec):
    """(conv stem?, hidden widths, the dense chain's (W, b) names from the input side)."""
    if spec.arch == "mlp":
        names = tuple((f"fc{i}.W", f"fc{i}.b") for i in range(len(spec.hidden) + 1))
        return False, spec.hidden, names
    return spec.arch == "smallcnn", (), (("fc.W", "fc.b"),)


def _param_shapes(spec: ModelSpec) -> dict:
    """Parameter name -> (shape, Glorot (fan_in, fan_out) or None for a zero
    bias), in draw order: the stem, then the dense layers from the input side.
    Draws and allocates nothing."""
    stem, hidden, names = _layout(spec)
    shapes = {}
    width = spec.input_size
    if stem:
        h, w, cin = spec.input_shape
        k, cc = spec.conv_kernel, spec.conv_channels
        shapes["conv.W"] = ((k, k, cin, cc), (k * k * cin, k * k * cc))
        shapes["conv.b"] = ((cc,), None)
        width = (h // 2) * (w // 2) * cc
    widths = (width,) + hidden + (spec.num_classes,)
    for (wname, bname), fan_in, fan_out in zip(names, widths, widths[1:]):
        shapes[wname] = ((fan_out, fan_in), (fan_in, fan_out))
        shapes[bname] = ((fan_out,), None)
    return shapes


def init_params(spec: ModelSpec) -> dict:
    """Glorot-uniform weights, zero biases; deterministic in spec.seed."""
    rng = make_rng(spec.seed)
    return {name: _glorot(rng, shape, *fans) if fans else np.zeros(shape)
            for name, (shape, fans) in _param_shapes(spec).items()}


def _zero_appended(a):
    """a.ravel() followed by one +0.0, the sentinel the gather indices use."""
    out = np.empty(a.size + 1)
    out[:-1] = a.reshape(-1)
    out[-1] = 0.0
    return out


def _conv_same_forward(x, w, b):
    """Multi-channel same-padded correlation via an im2col matmul.

    cols[i*w + j, (di*k + dj)*cin + c] = xpad[i + di, j + dj, c], gathered
    in one take through _im2col_index from x.ravel() + [0.0]; the bias is
    then added in place.
    """
    k = w.shape[0]
    h, ww_, cin = x.shape
    cout = w.shape[3]
    cols = _zero_appended(x).take(_im2col_index(h, ww_, k, cin))
    out = cols @ w.reshape(k * k * cin, cout)
    out += b
    return out.reshape(h, ww_, cout), cols


@lru_cache(maxsize=64)
def _im2col_index(h: int, w: int, k: int, cin: int) -> np.ndarray:
    """(h*w, k*k*cin) read-only gather index into x.ravel() + [0.0].

    Entry [i*w + j, (di*k + dj)*cin + c] points at pixel (i + di - pad,
    j + dj - pad, c), or at the zero sentinel one past the end when that
    pixel falls on the padding.
    """
    pad = (k - 1) // 2
    i = np.arange(h).reshape(h, 1, 1, 1, 1) + np.arange(k).reshape(1, 1, k, 1, 1) - pad
    j = np.arange(w).reshape(1, w, 1, 1, 1) + np.arange(k).reshape(1, 1, 1, k, 1) - pad
    c = np.arange(cin).reshape(1, 1, 1, 1, cin)
    inside = (i >= 0) & (i < h) & (j >= 0) & (j < w)
    idx = np.where(inside, (i * w + j) * cin + c, h * w * cin)
    idx = idx.reshape(h * w, k * k * cin).astype(np.intp)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=64)
def _col2im_index(h: int, w: int, k: int, cin: int) -> np.ndarray:
    """(k*k, h, w, cin) read-only gather index into dcols.ravel() + [0.0].

    Row t = di*k + dj holds, for each input pixel, the dcols entry that tap
    (di, dj) of the forward im2col took from it; a tap that fell on the zero
    padding points at the sentinel one past the end.
    """
    pad = (k - 1) // 2
    kkc = k * k * cin
    sentinel = h * w * kkc
    i = np.arange(h).reshape(h, 1, 1)
    j = np.arange(w).reshape(1, w, 1)
    c = np.arange(cin).reshape(1, 1, cin)
    idx = np.empty((k * k, h, w, cin), dtype=np.intp)
    for di in range(k):
        for dj in range(k):
            r, s = i + pad - di, j + pad - dj
            inside = (r >= 0) & (r < h) & (s >= 0) & (s < w)
            src = (r * w + s) * kkc + (di * k + dj) * cin + c
            idx[di * k + dj] = np.where(inside, src, sentinel)
    idx.setflags(write=False)
    return idx


def _conv_same_input_grad(dout, w, in_shape):
    """Adjoint of _conv_same_forward in x: the dcols GEMM, then col2im.

    col2im sums each pixel's taps onto +0.0 in row-major (di, dj) order,
    the order of a tap-by-tap scatter into a zero canvas.
    """
    k = w.shape[0]
    h, ww_, cin = in_shape
    cout = w.shape[3]
    dcols = dout.reshape(h * ww_, cout) @ w.reshape(k * k * cin, cout).T
    taps = _zero_appended(dcols)[_col2im_index(h, ww_, k, cin)]
    return np.add.reduce(taps, axis=0, initial=0.0)


def _avgpool2(x):
    """2x2 mean pool, summed in the order that mean(axis=(1, 3)) uses.

    numpy adds the four taps onto +0.0 in row-major order; only with one
    channel and more than one pooled column are the two taps of a row
    contiguous, and then it sums each row first and adds the two row sums.
    Adding +0.0 at the end stands in for the +0.0 start (the two differ
    only when all four taps are -0.0).
    """
    h, w, c = x.shape
    # taps[di, dj] is the contiguous (h/2, w/2, c) plane of window tap (di, dj)
    taps = np.ascontiguousarray(x.reshape(h // 2, 2, w // 2, 2, c).transpose(1, 3, 0, 2, 4))
    s = taps[0, 0] + taps[0, 1]
    if c == 1 and w > 2:
        s += taps[1, 0] + taps[1, 1]
    else:
        s += taps[1, 0]
        s += taps[1, 1]
    s += 0.0
    s /= 4.0
    return s


def _avgpool2_relu_backward(dpooled, pre):
    """d loss / d pre of avgpool2(relu(pre)) from d loss / d pooled: each
    pooled gradient / 4 copied to its 2x2 window, times the 0/1 ReLU mask
    (a product, so -0.0 stays -0.0). Repeating columns, then whole rows, is
    faster than a broadcast multiply over the c-wide inner axis."""
    h, w, c = pre.shape
    d = (dpooled / 4.0).reshape(h // 2, w // 2, c)
    dpre = np.repeat(np.repeat(d, 2, axis=1), 2, axis=0)
    dpre *= pre > 0.0
    return dpre


class Model:
    """A classifier: spec + parameters + the exact forward/backward rules."""

    def __init__(self, spec: ModelSpec, params: dict, name: str | None = None):
        self.spec = spec
        self.params = params
        self.name = name if name is not None else f"{spec.arch}-s{spec.seed}"
        self._stem, _, self._dense = _layout(spec)

    @classmethod
    def initialize(cls, spec: ModelSpec, name: str | None = None) -> "Model":
        return cls(spec, init_params(spec), name)

    @property
    def input_shape(self):
        return self.spec.input_shape

    @property
    def num_classes(self) -> int:
        return self.spec.num_classes

    # -- forward ---------------------------------------------------------

    def forward_with_cache(self, x: np.ndarray):
        """Logits, and the cache both backward paths read: (chain inputs, stem pre, cols)."""
        if x.shape != self.spec.input_shape:
            raise ShapeMismatch(f"{x.shape} vs model input {self.spec.input_shape}")
        p = self.params
        pre = cols = None
        if self._stem:   # conv -> relu -> avgpool 2x2
            pre, cols = _conv_same_forward(x, p["conv.W"], p["conv.b"])
            a = _avgpool2(np.maximum(pre, 0.0)).reshape(-1)
        else:
            a = x.reshape(-1)
        acts = [a]
        for wname, bname in self._dense[:-1]:
            a = np.maximum(p[wname] @ a + p[bname], 0.0)
            acts.append(a)
        wname, bname = self._dense[-1]
        return p[wname] @ a + p[bname], (acts, pre, cols)

    def logits(self, x: np.ndarray) -> np.ndarray:
        z, _ = self.forward_with_cache(x)
        return z

    def predict(self, x: np.ndarray) -> int:
        # ties resolve to the lowest class index (argmax semantics)
        return int(np.argmax(self.logits(x)))

    # -- backward (a ReLU mask is output > 0, which is exactly input > 0) --

    def input_grad_from_dlogits(self, x, cache, dlogits) -> np.ndarray:
        p = self.params
        acts, pre, _cols = cache
        d = dlogits
        for i in range(len(self._dense) - 1, 0, -1):
            d = (p[self._dense[i][0]].T @ d) * (acts[i] > 0.0)
        d = p[self._dense[0][0]].T @ d
        if self._stem:
            dpre = _avgpool2_relu_backward(d, pre)
            return _conv_same_input_grad(dpre, p["conv.W"], self.spec.input_shape)
        return d.reshape(self.spec.input_shape)

    def param_grads_from_dlogits(self, x, cache, dlogits) -> dict:
        p = self.params
        acts, pre, cols = cache
        g = {}
        d = dlogits
        for i in range(len(self._dense) - 1, -1, -1):
            wname, bname = self._dense[i]
            g[wname] = np.outer(d, acts[i])
            g[bname] = d.copy()
            if i:
                d = (p[wname].T @ d) * (acts[i] > 0.0)
        if self._stem:
            dpre = _avgpool2_relu_backward(p[self._dense[0][0]].T @ d, pre)
            cw = p["conv.W"]
            g["conv.W"] = (cols.T @ dpre.reshape(-1, cw.shape[3])).reshape(cw.shape)
            g["conv.b"] = dpre.sum(axis=(0, 1))
        return g

    # -- loss ------------------------------------------------------------

    def loss_and_grad(self, x: np.ndarray, y: int):
        """Cross-entropy of softmax(logits) at label y, and d loss / d x."""
        dlogits, loss, cache = self._dlogits(x, y)
        return loss, self.input_grad_from_dlogits(x, cache, dlogits)

    def loss_and_param_grads(self, x: np.ndarray, y: int):
        dlogits, loss, cache = self._dlogits(x, y)
        return loss, self.param_grads_from_dlogits(x, cache, dlogits)

    def _dlogits(self, x, y):
        if not 0 <= y < self.spec.num_classes:
            raise LabelOutOfRange(f"label {y} outside [0, {self.spec.num_classes})")
        z, cache = self.forward_with_cache(x)
        loss, dlogits = _xent(z, y)
        return dlogits, loss, cache


def _xent(z: np.ndarray, y: int):
    """Softmax cross-entropy of logits z at label y, and d loss / d z."""
    zmax = z.max()
    lse = zmax + math.log(np.exp(z - zmax).sum())
    dlogits = np.exp(z - lse)   # softmax probabilities
    dlogits[y] -= 1.0
    return float(lse - z[y]), dlogits


class EnsembleOracle:
    """Linear logit fusion over same-shaped models; behaves like one Model."""

    def __init__(self, models, weights=None):
        if not models:
            raise EmptyDataset("ensemble needs at least one member")
        shape = models[0].input_shape
        classes = models[0].num_classes
        for m in models[1:]:
            if m.input_shape != shape:
                raise ShapeMismatch(f"{m.input_shape} vs {shape}")
            if m.num_classes != classes:
                raise ClassCountMismatch(f"{m.num_classes} vs {classes}")
        if weights is None:
            weights = np.full(len(models), 1.0 / len(models))
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (len(models),):
                raise ShapeMismatch("one weight per member required")
            if not (np.isfinite(weights).all() and (weights >= 0.0).all()):
                raise ValueError(f"ensemble weights must be finite and >= 0, got {weights}")
            if abs(float(weights.sum()) - 1.0) > 1e-12:
                raise ValueError("ensemble weights must sum to 1")
        self.models = list(models)
        self.weights = weights
        self.name = "+".join(m.name for m in models)

    @property
    def input_shape(self):
        return self.models[0].input_shape

    @property
    def num_classes(self) -> int:
        return self.models[0].num_classes

    def logits(self, x: np.ndarray) -> np.ndarray:
        fused = self.weights[0] * self.models[0].logits(x)
        for wk, m in zip(self.weights[1:], self.models[1:]):
            fused = fused + wk * m.logits(x)
        return fused

    def predict(self, x: np.ndarray) -> int:
        return int(np.argmax(self.logits(x)))

    def loss_and_grad(self, x: np.ndarray, y: int):
        if not 0 <= y < self.num_classes:
            raise LabelOutOfRange(f"label {y} outside [0, {self.num_classes})")
        caches = []
        fused = None
        for wk, m in zip(self.weights, self.models):
            z, cache = m.forward_with_cache(x)
            caches.append(cache)
            fused = wk * z if fused is None else fused + wk * z
        loss, dlogits = _xent(fused, y)
        grad = None
        for wk, m, cache in zip(self.weights, self.models, caches):
            gk = m.input_grad_from_dlogits(x, cache, wk * dlogits)
            grad = gk if grad is None else grad + gk
        return loss, grad


# -- training --------------------------------------------------------------


def train_sgd(
    spec: ModelSpec,
    dataset: LabeledDataset,
    epochs: int = 8,
    lr: float = 0.5,
    batch: int = 32,
    seed: int = 0,
    name: str | None = None,
):
    """Minibatch SGD on mean cross-entropy. Returns (model, train_accuracy).

    Initialization comes from spec.seed; the shuffle order comes from the
    seed argument, so the same (spec, dataset, seed) is bit-reproducible.
    epochs=0 returns the freshly initialized model untouched.
    """
    if len(dataset) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if not (lr > 0.0 and math.isfinite(lr)):
        raise ValueError(f"learning rate must be finite and > 0, got {lr}")
    if batch < 1:
        raise ValueError(f"batch size must be >= 1, got {batch}")
    model = Model.initialize(spec, name)
    params = {k: v.copy() for k, v in model.params.items()}
    model.params = params
    rng = derive_rng(seed, 1)
    n = len(dataset)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            grads = None
            for i in idx:
                _, g = model.loss_and_param_grads(dataset.images[i], dataset.labels[i])
                if grads is None:
                    grads = g
                else:
                    for k in grads:
                        grads[k] += g[k]
            scale = lr / len(idx)
            for k in params:
                params[k] -= scale * grads[k]
    return model, accuracy(model, dataset)


def accuracy(oracle, dataset: LabeledDataset) -> float:
    if len(dataset) == 0:
        raise EmptyDataset("cannot score an empty dataset")
    correct = sum(
        oracle.predict(img) == y for img, y in zip(dataset.images, dataset.labels)
    )
    return correct / len(dataset)


# -- gradient verification ---------------------------------------------------


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
        rng = make_rng(seed)
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


# -- persistence -------------------------------------------------------------


def save_model(model: Model, path: str) -> None:
    """Single-file JSON manifest. save -> load -> save is byte-identical."""
    doc = {
        "format": _MODEL_FORMAT,
        "version": _MODEL_VERSION,
        "name": model.name,
        "spec": {
            "arch": model.spec.arch,
            "input_shape": list(model.spec.input_shape),
            "num_classes": model.spec.num_classes,
            "hidden": list(model.spec.hidden),
            "conv_channels": model.spec.conv_channels,
            "conv_kernel": model.spec.conv_kernel,
            "seed": model.spec.seed,
        },
        "params": {
            k: {"shape": list(v.shape), "data": v.reshape(-1).tolist()}
            for k, v in model.params.items()
        },
    }
    atomic_write_text(path, json.dumps(doc, sort_keys=True, allow_nan=False))


def load_model(path: str) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _MODEL_FORMAT:
        raise CorruptFile(f"{path} is not a model manifest")
    if doc.get("version") != _MODEL_VERSION:
        raise VersionMismatch(f"model format version {doc.get('version')!r}")
    try:
        s = doc["spec"]
        spec = ModelSpec(
            arch=s["arch"],
            input_shape=tuple(s["input_shape"]),
            num_classes=s["num_classes"],
            hidden=tuple(s["hidden"]),
            conv_channels=s["conv_channels"],
            conv_kernel=s["conv_kernel"],
            seed=s["seed"],
        )
        params = {
            k: np.asarray(v["data"], dtype=np.float64).reshape(v["shape"])
            for k, v in doc["params"].items()
        }
        name = doc["name"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    expected = _param_shapes(spec)
    if set(params) != set(expected):
        raise CorruptFile(f"{path}: parameter names {sorted(params)} do not match arch")
    for k, (shape, _) in expected.items():
        if params[k].shape != shape:
            raise CorruptFile(f"{path}: {k} has shape {params[k].shape}, want {shape}")
        if not np.isfinite(params[k]).all():
            raise CorruptFile(f"{path}: {k} holds a non-finite value")
    return Model(spec, params, name)
