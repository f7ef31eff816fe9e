"""Shared test fixtures: analytic oracles, a finite-difference probe, and a
recorder of the attack loop's per-iteration state.

Every oracle here computes its gradient from a closed-form expression
derived independently of the package, so tests can compare the engine
against a second route instead of against itself.
"""

import base64
import csv
import io
import json
import math
import os
import struct
from typing import NamedTuple

import numpy as np
import pytest

from advm.attacks import run_attack


class LinearOracle:
    """J(x, y) = sum(w * x) + b[y]; the gradient is the constant w."""

    def __init__(self, shape, num_classes=2, seed=3):
        rng = np.random.default_rng(seed)
        self.input_shape = tuple(shape)
        self.num_classes = num_classes
        self.w = rng.normal(0.0, 1.0, size=shape)
        self.b = rng.normal(0.0, 1.0, size=num_classes)
        self.name = "linear-oracle"

    def loss_and_grad(self, x, y):
        return float(np.sum(self.w * x) + self.b[y]), self.w.copy()

    def predict(self, x):
        return int(np.argmax([np.sum(self.w * x) + b for b in self.b]))


class QuadraticOracle:
    """J(x, y) = 0.5 * sum(a[y] * (x - c[y])^2); grad = a[y] * (x - c[y]).

    Raising the loss pushes x away from its class center, so maximizing
    J behaves like a real untargeted attack objective.
    """

    def __init__(self, shape, num_classes=3, seed=7):
        rng = np.random.default_rng(seed)
        self.input_shape = tuple(shape)
        self.num_classes = num_classes
        self.a = rng.uniform(0.5, 2.0, size=(num_classes,) + tuple(shape))
        self.c = rng.uniform(-0.5, 1.5, size=(num_classes,) + tuple(shape))
        self.name = "quadratic-oracle"

    def loss_and_grad(self, x, y):
        d = x - self.c[y]
        return float(0.5 * np.sum(self.a[y] * d * d)), self.a[y] * d

    def predict(self, x):
        return int(np.argmax([-np.sum((x - ck) ** 2) for ck in self.c]))


class DyingOracle(QuadraticOracle):
    """A QuadraticOracle whose every query ends any process but the one
    that built it, as a worker process killed mid-batch would."""

    def __init__(self, shape, num_classes=3, seed=7):
        super().__init__(shape, num_classes, seed)
        self.home_pid = os.getpid()

    def loss_and_grad(self, x, y):
        if os.getpid() != self.home_pid:
            os._exit(1)
        return super().loss_and_grad(x, y)


class SinusoidOracle:
    """J(x, y) = sum(amp * sin(freq * x + phase[y])).

    grad = amp * freq * cos(freq * x + phase[y]). Smooth but genuinely
    nonlinear, so momentum recursions see a gradient that changes from
    step to step.
    """

    def __init__(self, shape, num_classes=3, seed=11):
        rng = np.random.default_rng(seed)
        self.input_shape = tuple(shape)
        self.num_classes = num_classes
        self.freq = rng.uniform(0.5, 3.0, size=shape)
        self.amp = rng.uniform(0.5, 1.5, size=shape)
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=num_classes)
        self.name = "sinusoid-oracle"

    def loss_and_grad(self, x, y):
        arg = self.freq * x + self.phase[y]
        loss = float(np.sum(self.amp * np.sin(arg)))
        return loss, self.amp * self.freq * np.cos(arg)

    def predict(self, x):
        return int(np.argmax([np.sum(np.sin(self.freq * x + p)) for p in self.phase]))


class RecordingOracle:
    """Forwards to a base oracle while logging every query point."""

    def __init__(self, base):
        self.base = base
        self.queries = []

    @property
    def input_shape(self):
        return self.base.input_shape

    @property
    def num_classes(self):
        return self.base.num_classes

    @property
    def name(self):
        return self.base.name

    def predict(self, x):
        return self.base.predict(x)

    def loss_and_grad(self, x, y):
        self.queries.append(np.array(x, copy=True))
        return self.base.loss_and_grad(x, y)


class Step(NamedTuple):
    """One iteration as run_attack's observe callback reports it."""

    t: int
    loss: float
    x: np.ndarray                # the new iterate x_{t+1}
    g: np.ndarray | None         # momentum g_t; None for fgsm and ifgsm
    gbar: np.ndarray             # averaged gradient gbar_t
    points: int                  # points queried at this iteration


def step_recorder(t, loss, x, g, gbar, points):
    """An observe callback that returns a copy of the iteration's state."""
    return Step(t, loss, x.copy(), None if g is None else g.copy(), gbar.copy(), points)


def observed(oracle, x, y, cfg, rng=None):
    """run_attack with step_recorder: (result, steps), the steps being its trace."""
    res = run_attack(oracle, x, y, cfg, rng, observe=step_recorder)
    return res, list(res.trace)


def central_diff(loss_fn, x, h=1e-5):
    """Dense central-difference gradient of a scalar function of x."""
    flat = x.reshape(-1).copy()
    out = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = loss_fn(flat.reshape(x.shape))
        flat[i] = orig - h
        down = loss_fn(flat.reshape(x.shape))
        flat[i] = orig
        out[i] = (up - down) / (2.0 * h)
    return out.reshape(x.shape)


def central_diff_at(loss_fn, x, index, h=1e-5):
    """Central-difference estimate of one coordinate of the gradient."""
    flat = x.reshape(-1).copy()
    orig = flat[index]
    flat[index] = orig + h
    up = loss_fn(flat.reshape(x.shape))
    flat[index] = orig - h
    down = loss_fn(flat.reshape(x.shape))
    return (up - down) / (2.0 * h)


def rand_pixel_image(shape, seed, lo=0.05, hi=0.95):
    """A deterministic image with pixel values strictly inside [0, 1]."""
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=shape)


def bits(a) -> tuple:
    """An array's dtype, shape and C-order bytes: two arrays have equal bits exactly
    when they match value for value, -0.0 and NaN payloads included."""
    return a.dtype.str, a.shape, a.tobytes()


def encode_tensor(t) -> bytes:
    """An .emtn file: magic EMTN, version byte 1, the rank and then each dim as a
    little-endian u32, then t's C-order little-endian float64 values."""
    a = np.asarray(t, "<f8")
    return b"EMTN\x01" + struct.pack(f"<{a.ndim + 1}I", a.ndim, *a.shape) + a.tobytes()


def report_rows(text: str) -> list:
    """The lines of a CSV report as dicts keyed by its header, read by the csv
    module alone: every value is the text the report holds."""
    return list(csv.DictReader(io.StringIO(text)))


# -- model files, read and written without advm -------------------------------


def param_order(names) -> list:
    """Parameter names in the order a model file's payload holds them: the conv
    stem, then the dense layers from the input side, each W before its b."""
    def key(name):
        layer, kind = name.split(".")
        return layer != "conv", int(layer[2:]) if layer[2:].isdigit() else 0, kind != "W"
    return sorted(names, key=key)


def encode_model(header: dict, params: dict) -> bytes:
    """A format-3 model file: header as one line of sorted-key JSON, a newline,
    then each of params' values as C-order little-endian float64 bytes, in
    param_order of params' own names."""
    return (json.dumps(header, sort_keys=True).encode() + b"\n"
            + b"".join(np.asarray(params[k], "<f8").tobytes() for k in param_order(params)))


def decode_model(data: bytes) -> tuple:
    """(header, {name: float64 values in the header's shape}) of a format-3 file,
    both fresh and writable."""
    head, newline, payload = data.partition(b"\n")
    assert newline, "no newline ends the header"
    header = json.loads(head)
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    params, offset = {}, 0
    for name in param_order(header["params"]):
        shape = header["params"][name]["shape"]
        params[name] = flat[offset:offset + math.prod(shape)].reshape(shape)
        offset += math.prod(shape)
    assert offset == flat.size, "the payload holds more values than the header's shapes"
    return header, params


def legacy_model(header: dict, params: dict, version: int) -> bytes:
    """The same model as one JSON document of format version 1 (each parameter's
    values as a JSON list, "data") or version 2 (base64 of its '<f8' bytes, "f8")."""
    doc = dict(header, version=version, params={})
    for k, v in params.items():
        flat = np.asarray(v, "<f8").reshape(-1)
        doc["params"][k] = {"shape": list(v.shape), **(
            {"data": flat.tolist()} if version == 1
            else {"f8": base64.b64encode(flat.tobytes()).decode("ascii")})}
    return json.dumps(doc, sort_keys=True).encode()


def _edit_model(edit):
    """A damage of a model file's bytes made by edit(header, params) on the decoded
    file; edit returns the new file's bytes, or None to encode the edited pair."""
    def damage(data: bytes) -> bytes:
        header, params = decode_model(data)
        return edit(header, params) or encode_model(header, params)
    return damage


def _plant_nan(header, params):
    params[param_order(params)[-1]].reshape(-1)[-1] = np.nan


def _after_newline(data: bytes) -> bytes:
    return data[data.index(b"\n"):]


# Damages of a format-3 model file: id -> (bytes -> damaged bytes, the error
# class load_model raises, a text its message carries besides the path).
MODEL_DAMAGES = {
    "no newline": (lambda d: d.replace(b"\n", b"", 1), "CorruptFile", "unreadable manifest"),
    "header not JSON": (lambda d: b"not json {" + _after_newline(d), "CorruptFile",
                        "unreadable manifest"),
    "header not an object": (lambda d: b"[3]" + _after_newline(d), "CorruptFile",
                             "is not a JSON object"),
    "payload empty": (lambda d: d[:d.index(b"\n") + 1], "CorruptFile", "payload is 0 bytes"),
    "payload 1 byte short": (lambda d: d[:-1], "CorruptFile", "payload is"),
    "payload 1 byte long": (lambda d: d + b"\0", "CorruptFile", "payload is"),
    "nan in payload": (_edit_model(_plant_nan), "CorruptFile", "holds a non-finite value"),
    "shapes disagree with spec": (
        _edit_model(lambda h, p: h["spec"].update(num_classes=h["spec"]["num_classes"] + 1)),
        "CorruptFile", "has shape"),
    "version 1": (_edit_model(lambda h, p: legacy_model(h, p, 1)), "VersionMismatch",
                  "retrain the model with `advm train`"),
    "version 2": (_edit_model(lambda h, p: legacy_model(h, p, 2)), "VersionMismatch",
                  "retrain the model with `advm train`"),
    "huge input_shape": (
        _edit_model(lambda h, p: h["spec"].update(input_shape=[100000, 100000, 1])),
        "CorruptFile", "has shape"),
}


@pytest.fixture
def quad_oracle():
    return QuadraticOracle((4, 4, 1), num_classes=3, seed=7)


@pytest.fixture
def sin_oracle():
    return SinusoidOracle((3, 3, 1), num_classes=3, seed=11)


@pytest.fixture
def lin_oracle():
    return LinearOracle((5, 5, 1), num_classes=2, seed=3)
