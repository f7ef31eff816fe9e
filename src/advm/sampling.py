"""Deterministic randomness and the coefficient samplers.

All randomness flows through numpy's Philox streams, and derive_rng is the
one place that builds a stream. Philox is counter based: a generator
derived from (seed, index) produces one fixed sequence regardless of
platform or how many sibling streams exist, so per-example work can be
farmed out to any number of workers and still reproduce the serial run
bit for bit. A dataset, a subsample and a model's initial parameters draw
index 0 of their seed, train_sgd's shuffle index 1, and attack example k
index k.
"""

import math
from dataclasses import dataclass

import numpy as np

_METHODS = ("linear", "uniform", "gaussian")


def _shown(value) -> str:
    """repr(value), or the size of an int too long for Python to print."""
    try:
        return repr(value)
    except ValueError:   # more digits than sys.get_int_max_str_digits()
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


def _require_ints(least: int, obj=None, *names, **values) -> None:
    """Refuse each named field of obj, then each keyword value, unless it is a
    Python int >= least; a bool or numpy integer is refused too."""
    for name, value in [(n, getattr(obj, n)) for n in names] + list(values.items()):
        if type(value) is not int or value < least:
            raise ValueError(f"{name} must be an integer >= {least}, got {_shown(value)}")


SIZE_LIMIT = 2**31   # a count or side past it ends in a numpy error or a failed allocation


def _require_sizes(least: int, obj=None, *names, **values) -> None:
    """_require_ints, then refuse a value that is SIZE_LIMIT or more."""
    _require_ints(least, obj, *names, **values)
    for name, value in [(n, getattr(obj, n)) for n in names] + list(values.items()):
        if value >= SIZE_LIMIT:
            raise ValueError(
                f"{name} must be an integer >= {least} and < 2**31, got {_shown(value)}")


def _require_floats(least: float, obj=None, *names, strict: bool = False, **values) -> None:
    """Refuse each named field of obj, then each keyword value, unless it is an int or a
    float (not a bool), finite and >= least (> least if strict); store fields as floats,
    a -0.0 as 0.0, so configs that compare equal hash alike."""
    for name, value in [(n, getattr(obj, n)) for n in names] + list(values.items()):
        if type(value) is bool or not isinstance(value, (int, float)):
            raise ValueError(f"{name} must be an int or a float, got {value!r}")
        try:
            value = float(value)
        except OverflowError as exc:   # an int past the float range
            raise ValueError(f"{name} must be finite: {exc}") from exc
        if not (math.isfinite(value) and (value > least if strict else value >= least)):
            raise ValueError(
                f"{name} must be finite and {'>' if strict else '>='} {least:g}, got {value}")
    for name in names:
        object.__setattr__(obj, name, float(getattr(obj, name)) + 0.0)


@dataclass(frozen=True)
class SamplingSpec:
    """How to draw the lookahead coefficients: method, count N, radius eta."""

    method: str = "linear"
    count: int = 11
    eta: float = 7.0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown sampling method {self.method!r}")
        _require_sizes(1, self, "count")
        _require_floats(0.0, self, "eta")


def derive_rng(seed: int, index: int) -> np.random.Generator:
    """Stream #index under the given seed; independent of all other indices."""
    _require_ints(0, seed=seed, index=index)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))


def sample_coefficients(spec: SamplingSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw the N coefficients in [-eta, eta] for the sampled-gradient variants.

    linear   - deterministic symmetric grid including both endpoints; odd N
               contains an exact 0.0 (so N=1 gives [0.0]), built by mirroring
               a half-grid because a naive linspace(-eta, eta, N) puts ~1e-16
               instead of zero at the midpoint.
    uniform  - N iid draws from U(-eta, eta).
    gaussian - N iid draws from N(0, (eta/3)^2), redrawn until inside
               [-eta, eta].
    """
    n, eta = spec.count, spec.eta
    if spec.method == "linear":
        if n % 2 == 1:
            half = np.linspace(0.0, eta, (n + 1) // 2)
            return np.concatenate([-half[:0:-1], half])
        return np.linspace(-eta, eta, n)
    if spec.method == "uniform":
        return rng.uniform(-eta, eta, size=n)
    # gaussian, truncated by rejection
    sigma = eta / 3.0
    if sigma == 0.0:
        return np.zeros(n)
    out = np.empty(n)
    filled = 0
    while filled < n:
        draws = rng.normal(0.0, sigma, size=n - filled)
        keep = draws[np.abs(draws) <= eta]
        out[filled:filled + keep.size] = keep
        filled += keep.size
    return out


def sample_uniform_cube(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """One draw from U([-1, 1]^shape)."""
    return rng.uniform(-1.0, 1.0, size=shape)
