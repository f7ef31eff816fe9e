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

The stem (_stem_forward, _stem_input_grad, _stem_param_grads) keeps its
conv rows tap-major (_tap_rows), so the four taps of each 2x2 pool window
come out of the conv GEMM as four contiguous planes. It keeps the
summation orders of the seed's plain numpy stem, signed zeros included:
the pool adds the planes as mean(axis=(1, 3)) did, col2im adds taps onto
+0.0 as a tap-by-tap scatter into a zero canvas did, and the parameter
gradients sum pixels in row-major order. So every loss, gradient and
logit is bit-identical to the seed's. im2col and col2im are gathers
through cached read-only indices (_im2col_index, _col2im_index);
tests/test_models.py keeps the seed kernels and compares bytes.
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


_SENTINEL = np.zeros(1)   # the +0.0 appended behind each gather source


@lru_cache(maxsize=64)
def _tap_rows(h: int, w: int) -> np.ndarray:
    """(h*w,) read-only: the stem row of each pixel, in row-major pixel order.

    Pixel (2*pi + di, 2*pj + dj) is stem row (2*di + dj)*(h/2*w/2) +
    pi*(w/2) + pj; take(rows, axis=0) restores row-major order.
    """
    i, j = np.divmod(np.arange(h * w), w)
    rows = (2 * (i % 2) + j % 2) * (h // 2 * (w // 2)) + i // 2 * (w // 2) + j // 2
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=64)
def _im2col_index(h: int, w: int, k: int, cin: int) -> np.ndarray:
    """(h*w, k*k*cin) read-only gather index into x.ravel() + [0.0].

    Entry [_tap_rows(h, w)[i*w + j], (di*k + dj)*cin + c] points at pixel
    (i + di - pad, j + dj - pad, c), or at the zero sentinel one past the end
    when that pixel falls on the padding.
    """
    pad = (k - 1) // 2
    i = np.arange(h).reshape(h, 1, 1, 1, 1) + np.arange(k).reshape(1, 1, k, 1, 1) - pad
    j = np.arange(w).reshape(1, w, 1, 1, 1) + np.arange(k).reshape(1, 1, 1, k, 1) - pad
    c = np.arange(cin).reshape(1, 1, 1, 1, cin)
    inside = (i >= 0) & (i < h) & (j >= 0) & (j < w)
    idx = np.empty((h * w, k * k * cin), dtype=np.intp)
    idx[_tap_rows(h, w)] = np.where(inside, (i * w + j) * cin + c, h * w * cin).reshape(h * w, -1)
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=64)
def _col2im_index(h: int, w: int, k: int, cin: int) -> np.ndarray:
    """(k*k, h, w, cin) read-only gather index into dcols.ravel() + [0.0].

    _im2col_index inverted per tap: row t = di*k + dj holds, for each input
    pixel, the dcols entry that tap (di, dj) took from it, or the sentinel
    one past the end where that tap fell on the zero padding.
    """
    fwd = _im2col_index(h, w, k, cin).reshape(h * w, k * k, cin)
    idx = np.full((k * k, h * w * cin + 1), fwd.size, dtype=np.intp)
    taps = np.broadcast_to(np.arange(k * k).reshape(1, -1, 1), fwd.shape)
    idx[taps, fwd] = np.arange(fwd.size).reshape(fwd.shape)   # padding lands in the last column
    idx = np.ascontiguousarray(idx[:, :-1]).reshape(k * k, h, w, cin)
    idx.setflags(write=False)
    return idx


def _avgpool2_taps(taps, w):
    """2x2 mean pool of the (4, n, c) tap planes of a w-wide image, summed as
    mean(axis=(1, 3)) sums the (h/2, 2, w/2, 2, c) view: onto +0.0 in tap
    order, except that with one channel and more than one pooled column it
    sums each row's two taps first. The +0.0 added last stands in for the
    +0.0 start (they differ only when all four taps are -0.0).
    """
    s = taps[0] + taps[1]
    if taps.shape[2] == 1 and w > 2:
        s += taps[2] + taps[3]
    else:
        s += taps[2]
        s += taps[3]
    s += 0.0
    s /= 4.0
    return s


def _stem_forward(x, w, b):
    """conv -> ReLU -> 2x2 average pool of one (h, w, cin) image.

    Returns the pooled activations, flat in (h/2, w/2, cout) order, and the
    (pre, cols) that both backward paths read: cols is the tap-major im2col
    matrix, gathered in one take, and pre the conv output, whose
    (h*w, cout) GEMM result reshapes for free to (4, h/2*w/2, cout) tap
    planes.
    """
    k, _, cin, cout = w.shape
    h, ww_, _ = x.shape
    cols = np.concatenate((x.reshape(-1), _SENTINEL)).take(_im2col_index(h, ww_, k, cin))
    pre = cols @ w.reshape(k * k * cin, cout)
    pre += b
    pre = pre.reshape(4, -1, cout)
    return _avgpool2_taps(np.maximum(pre, 0.0), ww_).reshape(-1), pre, cols


def _stem_dpre(dpooled, pre):
    """d loss / d pre from d loss / d pooled: each pooled gradient / 4 on its
    four taps, times the 0/1 ReLU mask (a product, so -0.0 stays -0.0)."""
    return (dpooled / 4.0).reshape(1, -1, pre.shape[2]) * (pre > 0.0)


def _stem_input_grad(dpooled, pre, w, in_shape):
    """d loss / d x: the pool/ReLU backward, the dcols GEMM, then col2im.

    col2im sums each pixel's taps onto +0.0 in row-major (di, dj) order,
    the order of a tap-by-tap scatter into a zero canvas.
    """
    k, _, cin, cout = w.shape
    h, ww_, _ = in_shape
    dcols = _stem_dpre(dpooled, pre).reshape(-1, cout) @ w.reshape(k * k * cin, cout).T
    taps = np.concatenate((dcols.reshape(-1), _SENTINEL)).take(_col2im_index(h, ww_, k, cin))
    return np.add.reduce(taps, axis=0, initial=0.0)


def _stem_param_grads(dpooled, pre, cols, w, in_shape):
    """(d loss / d W, d loss / d b). Both sum over pixels, so cols and d pre
    go back to row-major rows first: that row order is the summation order."""
    rows = _tap_rows(*in_shape[:2])
    dpre = _stem_dpre(dpooled, pre).reshape(-1, w.shape[3]).take(rows, axis=0)
    return (cols.take(rows, axis=0).T @ dpre).reshape(w.shape), dpre.sum(axis=0)


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
            a, pre, cols = _stem_forward(x, p["conv.W"], p["conv.b"])
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
            return _stem_input_grad(d, pre, p["conv.W"], self.spec.input_shape)
        return d.reshape(self.spec.input_shape)

    def param_grads_from_dlogits(self, x, cache, dlogits) -> dict:
        p = self.params
        acts, pre, cols = cache
        g = {}
        d = dlogits
        for i in range(len(self._dense) - 1, -1, -1):
            wname, bname = self._dense[i]
            g[wname] = d[:, None] * acts[i][None, :]   # np.outer's own product
            g[bname] = d.copy()
            if i:
                d = (p[wname].T @ d) * (acts[i] > 0.0)
        if self._stem:
            g["conv.W"], g["conv.b"] = _stem_param_grads(
                p[self._dense[0][0]].T @ d, pre, cols, p["conv.W"], self.spec.input_shape)
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
