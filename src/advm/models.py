"""Differentiable classifiers with exact hand-derived gradients.

Every model is one path in numpy: an optional conv stem (same-padded
conv -> ReLU -> 2x2 average pool) followed by one dense chain
`Dense (ReLU Dense)*`. logistic is the chain `fc` alone, mlp is
`fc0 ... fcK` with ReLUs between, and smallcnn is the stem in front of
`fc`; _layout is the only code that reads the architecture. The forward
pass keeps the intermediates needed for backprop, and one walk down the
dense chain (_deltas) serves both backward paths. The input gradient (what
the attacks consume) goes on through the stem; the parameter gradient
stops at factors, each dense layer's (d_out, input) pair and the stem's
(d W, d b), and train_sgd sums the dense outer products once per minibatch
(_dense_grad_sums). There is no tape; every backward rule is written out.

EnsembleOracle fuses K members, weight 1/K each (the paper's ensemble
setting), through a Model's two primitives: forward_with_cache averages the
members' logits and keeps their caches, and input_grad_from_dlogits sums
their input gradients of the 1/K-scaled softmax error in member order. Its
predict and loss_and_grad are Model's own functions: one path.

The stem (_stem_forward, _stem_input_grad, _stem_param_grads) keeps its
conv rows tap-major (_tap_rows), so the four taps of each 2x2 pool window
come out of the conv GEMM as four contiguous planes. It keeps the
summation orders of the seed's plain numpy stem, signed zeros included:
the pool adds the planes as mean(axis=(1, 3)) did, col2im adds taps onto
+0.0 as a tap-by-tap scatter into a zero canvas did, and the parameter
gradients sum pixels in row-major order. So every loss, gradient and
logit is bit-identical to the seed's. im2col and col2im are gathers
through cached read-only indices (_im2col_index, _col2im_index), and the
conv bias is added as a flat plane cached by its value (_bias_plane);
tests/test_models.py keeps the seed kernels and compares bytes.
"""

import json
import math
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .data import LabeledDataset, check_label
from .errors import CorruptFile, EmptyDataset, ShapeMismatch, VersionMismatch
from .fileio import atomic_write_bytes, parse_manifest
from .sampling import _require_floats, _require_ints, _require_sizes, derive_rng

ARCHITECTURES = ("logistic", "mlp", "smallcnn")

_MODEL_FORMAT = "advm-model"
_MODEL_VERSION = 3
# The JSON type of each model header field load_model reads; "spec" holds
# ModelSpec's fields. The name and each declared shape take any value here:
# load_model checks them itself.
_MODEL_FIELDS = {
    "name": object,
    "spec": {"arch": str, "input_shape": list, "num_classes": int, "hidden": list,
             "conv_channels": int, "conv_kernel": int, "seed": int},
    "params": {"*": {"shape": object}},
}


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
        if len(self.input_shape) != 3:
            raise ValueError(f"bad input shape {self.input_shape}")
        if self.arch == "mlp" and not self.hidden:
            raise ValueError("mlp needs at least one hidden width")
        if self.arch != "mlp" and self.hidden:
            raise ValueError(f"{self.arch} has no hidden layers, got {tuple(self.hidden)}")
        _require_sizes(1, self, "conv_channels", "conv_kernel",
                       **{f"input_shape[{i}]": d for i, d in enumerate(self.input_shape)},
                       **{f"hidden[{i}]": w for i, w in enumerate(self.hidden)})
        _require_sizes(2, self, "num_classes")
        _require_ints(0, self, "seed")
        if self.arch == "smallcnn":
            if self.conv_kernel % 2 == 0:
                raise ValueError("conv kernel side must be odd")
            h, w, _ = self.input_shape
            if h % 2 or w % 2:
                raise ValueError("smallcnn pools 2x2, so input sides must be even")
        object.__setattr__(self, "input_shape", tuple(self.input_shape))
        object.__setattr__(self, "hidden", tuple(self.hidden))


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
    width = math.prod(spec.input_shape)
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


@lru_cache(maxsize=8)
def _bias_plane(raw: bytes, dtype: np.dtype, pixels: int) -> np.ndarray:
    """(pixels*c,) read-only: the c-wide bias whose bytes are raw, once per
    conv row, so the stem adds it contiguously (a broadcast add of a narrow
    bias is several times slower). Keyed by value, never by the array, so an
    in-place bias update reaches the next forward."""
    plane = np.tile(np.frombuffer(raw, dtype), pixels)
    plane.setflags(write=False)
    return plane


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
    pre = (cols @ w.reshape(k * k * cin, cout)).reshape(-1)
    pre += _bias_plane(b.tobytes(), b.dtype, h * ww_)
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
    go back to row-major rows first: that row order is the summation order.
    The bias sums each channel's column onto +0.0 in row order, as the
    reduce does, but einsum does it about 3x faster; with one channel the
    reduce is pairwise, and einsum is not, so the reduce stays there."""
    rows = _tap_rows(*in_shape[:2])
    dpre = _stem_dpre(dpooled, pre).reshape(-1, w.shape[3]).take(rows, axis=0)
    db = dpre.sum(axis=0) if dpre.shape[1] == 1 else np.einsum("ij->j", dpre)
    return (cols.take(rows, axis=0).T @ dpre).reshape(w.shape), db


class Model:
    """A classifier: spec + parameters + the exact forward/backward rules."""

    def __init__(self, spec: ModelSpec, params: dict, name: str | None = None):
        self.spec = spec
        self.params = params
        self.name = name if name is not None else f"{spec.arch}-s{spec.seed}"
        self._stem, _, self._dense = _layout(spec)

    @classmethod
    def initialize(cls, spec: ModelSpec, name: str | None = None) -> "Model":
        """Glorot-uniform weights and zero biases, drawn from derive_rng(spec.seed, 0)."""
        rng = derive_rng(spec.seed, 0)
        return cls(spec, {k: _glorot(rng, shape, *fans) if fans else np.zeros(shape)
                          for k, (shape, fans) in _param_shapes(spec).items()}, name)

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

    def predict(self, x: np.ndarray) -> int:
        # ties resolve to the lowest class index, a NaN logit first (argmax semantics)
        return int(self.forward_with_cache(x)[0].argmax())

    # -- backward (a ReLU mask is output > 0, which is exactly input > 0) --

    def _deltas(self, acts, dlogits) -> list:
        """d loss / d each dense layer's output, in _dense order: the ReLU
        chain's (W.T @ d) * (acts > 0) recursion down from dlogits."""
        p = self.params
        deltas = [dlogits]
        for i in range(len(self._dense) - 1, 0, -1):
            deltas.append((p[self._dense[i][0]].T @ deltas[-1]) * (acts[i] > 0.0))
        deltas.reverse()
        return deltas

    def input_grad_from_dlogits(self, cache, dlogits) -> np.ndarray:
        acts, pre, _cols = cache
        d = self.params[self._dense[0][0]].T @ self._deltas(acts, dlogits)[0]
        if self._stem:
            return _stem_input_grad(d, pre, self.params["conv.W"], self.spec.input_shape)
        return d.reshape(self.spec.input_shape)

    def param_grads_from_dlogits(self, cache, dlogits):
        """(dense, stem). dense holds one (d_out, input) pair per dense layer,
        in _dense order: their outer product is the layer's weight gradient
        and d_out its bias gradient. stem is the stem's (d W, d b), or None
        without a stem."""
        acts, pre, cols = cache
        deltas = self._deltas(acts, dlogits)
        stem = None
        if self._stem:
            stem = _stem_param_grads(self.params[self._dense[0][0]].T @ deltas[0], pre, cols,
                                     self.params["conv.W"], self.spec.input_shape)
        return list(zip(deltas, acts)), stem

    # -- loss ------------------------------------------------------------

    def loss_and_grad(self, x: np.ndarray, y: int):
        """Cross-entropy of softmax(logits) at label y, and d loss / d x."""
        z, cache = self.forward_with_cache(x)
        loss, dlogits = _xent(z, y)
        return loss, self.input_grad_from_dlogits(cache, dlogits)

    def loss_and_param_grads(self, x: np.ndarray, y: int):
        """The same loss, and param_grads_from_dlogits' (dense, stem) factors."""
        z, cache = self.forward_with_cache(x)
        loss, dlogits = _xent(z, y)
        return loss, self.param_grads_from_dlogits(cache, dlogits)


def _xent(z: np.ndarray, y: int):
    """Softmax cross-entropy of logits z at label y, and d loss / d z."""
    check_label(y, z.size, "the model")
    zmax = z.max()
    lse = zmax + math.log(np.exp(z - zmax).sum())
    dlogits = np.exp(z - lse)   # softmax probabilities
    dlogits[y] -= 1.0
    return float(lse - z[y]), dlogits


class EnsembleOracle:
    """Equal-weight logit fusion over same-shaped models; behaves like one Model."""

    def __init__(self, models):
        if not models:
            raise EmptyDataset("ensemble needs at least one member")
        shape = models[0].input_shape
        classes = models[0].num_classes
        for m in models[1:]:
            if m.input_shape != shape:
                raise ShapeMismatch(f"{m.input_shape} vs {shape}")
            if m.num_classes != classes:
                raise ShapeMismatch(f"{m.num_classes} classes vs {classes}")
        self.models = list(models)
        self.input_shape, self.num_classes = shape, classes
        self.weight = 1.0 / len(models)
        self.name = "+".join(m.name for m in models)

    def forward_with_cache(self, x: np.ndarray):
        """The fused logits, and each member's cache."""
        fused, caches = None, []
        for m in self.models:
            z, cache = m.forward_with_cache(x)
            caches.append(cache)
            fused = self.weight * z if fused is None else fused + self.weight * z
        return fused, caches

    def input_grad_from_dlogits(self, caches, dlogits) -> np.ndarray:
        """The members' input gradients of weight * dlogits, summed in member order."""
        scaled, grad = self.weight * dlogits, None
        for m, cache in zip(self.models, caches):
            gk = m.input_grad_from_dlogits(cache, scaled)
            grad = gk if grad is None else grad + gk
        return grad

    # Model's own functions, run on the two primitives above
    predict, loss_and_grad = Model.predict, Model.loss_and_grad


# -- training --------------------------------------------------------------


def _dense_grad_sums(deltas, inputs):
    """One dense layer's (weight, bias) gradient sums over a minibatch: one
    einsum adds each entry's products in example order onto +0.0. inputs
    end in a column of ones, which sums the bias in the same pass ("bi->i"
    would reorder a 1-wide bias). optimize= would reorder every sum."""
    g = np.einsum("bi,bj->ij", deltas, inputs)
    return g[:, :-1], g[:, -1]


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

    Each example goes through loss_and_param_grads once; _dense_grad_sums
    adds the outer products of its dense factors per minibatch, in example
    order onto +0.0, not onto the first example's: that differs only where
    every term is -0.0, and p - s*(+0.0) equals p - s*(-0.0) unless p is
    -0.0, which no Glorot draw, zero bias or update of a p that is not -0.0
    yields. So the bytes are those of adding the products one by one.
    """
    _require_sizes(0, epochs=epochs)
    _require_sizes(1, **{"batch size": batch})
    _require_floats(0.0, strict=True, **{"learning rate": lr})
    rng = derive_rng(seed, 1)   # refuses a seed that is not an int >= 0, before any work
    if len(dataset) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    model = Model.initialize(spec, name)
    params = model.params   # Model.initialize's fresh arrays, updated in place
    n = len(dataset)
    rows = min(batch, n)   # each layer's minibatch buffers, ragged batches in their top rows
    shapes = [params[wname].shape for wname, _ in model._dense]
    deltas = [np.empty((rows, fan_out)) for fan_out, _ in shapes]
    inputs = [np.ones((rows, fan_in + 1)) for _, fan_in in shapes]
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            stem = None
            for row, i in enumerate(idx):
                _, (dense, g) = model.loss_and_param_grads(dataset.images[i], dataset.labels[i])
                for (d, a), dbuf, abuf in zip(dense, deltas, inputs):
                    dbuf[row] = d
                    abuf[row, :-1] = a
                if stem is None:
                    stem = g
                else:
                    for acc, gk in zip(stem, g):
                        acc += gk
            scale = lr / len(idx)
            for (wname, bname), d, a in zip(model._dense, deltas, inputs):
                gw, gb = _dense_grad_sums(d[:len(idx)], a[:len(idx)])
                params[wname] -= scale * gw
                params[bname] -= scale * gb
            if stem is not None:
                params["conv.W"] -= scale * stem[0]
                params["conv.b"] -= scale * stem[1]
    correct = sum(model.predict(img) == y for img, y in zip(dataset.images, dataset.labels))
    return model, correct / n


# -- persistence -------------------------------------------------------------


def save_model(model: Model, path: str) -> None:
    """One line of sorted-key JSON (format, version, name, spec and each parameter's
    shape), a newline, then each parameter's C-order '<f8' bytes in _param_shapes
    order, so it loads bit for bit and save -> load -> save is byte-identical."""
    if not all(np.isfinite(v).all() for v in model.params.values()):
        raise ValueError(f"model {model.name!r} holds a non-finite parameter")
    header = {"format": _MODEL_FORMAT, "version": _MODEL_VERSION, "name": model.name,
              "spec": asdict(model.spec),
              "params": {k: {"shape": list(v.shape)} for k, v in model.params.items()}}
    payload = b"".join(np.asarray(model.params[k], "<f8").tobytes()
                       for k in _param_shapes(model.spec))
    atomic_write_bytes(path, json.dumps(header, sort_keys=True).encode() + b"\n" + payload)


def load_model(path: str) -> Model:
    """Read a save_model file: the header and every shape are checked, then the
    payload's length, before any parameter is built. A failed check is a
    CorruptFile, or a VersionMismatch."""
    with open(path, "rb") as fh:
        head, _, payload = fh.read().partition(b"\n")
    try:
        doc = parse_manifest(head, path, _MODEL_FORMAT, _MODEL_VERSION, _MODEL_FIELDS)
    except VersionMismatch as exc:
        raise VersionMismatch(f"{exc}; retrain the model with `advm train`") from exc
    name, stored = doc["name"], doc["params"]
    try:
        spec = ModelSpec(**{k: doc["spec"][k] for k in _MODEL_FIELDS["spec"]})
    except ValueError as exc:
        raise CorruptFile(f"{path}: spec: {exc}") from exc
    if type(name) is not str or not name:
        raise CorruptFile(f"{path}: model name {name!r} is not a non-empty string")
    expected = _param_shapes(spec)
    if set(stored) != set(expected):
        raise CorruptFile(f"{path}: parameter names {sorted(stored)} do not match arch")
    for k, (shape, _) in expected.items():
        declared = stored[k]["shape"]
        if (type(declared) is not list or tuple(declared) != shape
                or any(type(d) is not int for d in declared)):
            raise CorruptFile(f"{path}: {k} has shape {declared!r}, want {shape}")
    sizes = [math.prod(shape) for shape, _ in expected.values()]
    if len(payload) != 8 * sum(sizes):
        raise CorruptFile(f"{path}: payload is {len(payload)} bytes, not 8 per value of "
                          + ", ".join(f"{k} {shape}" for k, (shape, _) in expected.items()))
    params, offset = {}, 0
    for (k, (shape, _)), size in zip(expected.items(), sizes):
        params[k] = np.frombuffer(payload, "<f8", size, offset).reshape(shape).astype(np.float64)
        if not np.isfinite(params[k]).all():
            raise CorruptFile(f"{path}: {k} holds a non-finite value")
        offset += 8 * size
    return Model(spec, params, name)
