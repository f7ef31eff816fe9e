"""Shared test fixtures: analytic oracles and a finite-difference probe.

Every oracle here computes its gradient from a closed-form expression
derived independently of the package, so tests can compare the engine
against a second route instead of against itself.
"""

import os

import numpy as np
import pytest


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

    def logits(self, x):
        return np.array([np.sum(self.w * x) + b for b in self.b])

    def predict(self, x):
        return int(np.argmax(self.logits(x)))


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

    def logits(self, x):
        return np.array([-np.sum((x - ck) ** 2) for ck in self.c])

    def predict(self, x):
        return int(np.argmax(self.logits(x)))


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

    def logits(self, x):
        return np.array([np.sum(np.sin(self.freq * x + p)) for p in self.phase])

    def predict(self, x):
        return int(np.argmax(self.logits(x)))


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

    def logits(self, x):
        return self.base.logits(x)

    def predict(self, x):
        return self.base.predict(x)

    def loss_and_grad(self, x, y):
        self.queries.append(np.array(x, copy=True))
        return self.base.loss_and_grad(x, y)


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


@pytest.fixture
def quad_oracle():
    return QuadraticOracle((4, 4, 1), num_classes=3, seed=7)


@pytest.fixture
def sin_oracle():
    return SinusoidOracle((3, 3, 1), num_classes=3, seed=11)


@pytest.fixture
def lin_oracle():
    return LinearOracle((5, 5, 1), num_classes=2, seed=3)
