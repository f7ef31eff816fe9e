"""Deterministic randomness and the coefficient samplers.

All randomness flows through numpy's Philox streams. Philox is counter
based: a generator derived from (seed, index) produces one fixed sequence
regardless of platform or how many sibling streams exist, so per-example
work can be farmed out to any number of workers and still reproduce the
serial run bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

_METHODS = ("linear", "uniform", "gaussian")


@dataclass(frozen=True)
class SamplingSpec:
    """How to draw the lookahead coefficients: method, count N, radius eta."""

    method: str = "linear"
    count: int = 11
    eta: float = 7.0

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown sampling method {self.method!r}")
        if self.count < 1:
            raise ValueError(f"sample count must be >= 1, got {self.count}")
        if not (self.eta >= 0.0 and math.isfinite(self.eta)):
            raise ValueError(f"eta must be finite and >= 0, got {self.eta}")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def derive_rng(seed: int, index: int) -> np.random.Generator:
    """Stream #index under the given seed; independent of all other indices."""
    if index < 0:
        raise ValueError(f"stream index must be >= 0, got {index}")
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
        if n == 1:
            return np.zeros(1)
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
