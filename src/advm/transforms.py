"""Input-transform gradient estimators: diversity, smoothing, scaling.

One composed estimator, compose_dts, applies whichever of the three
transforms a TransformConfig enables:

- diversity ("dim"): with probability p, resize the input to a random
  side r, place it at a random offset on a zero canvas of side pad_to,
  and resize back. Per axis that chain is one cached matrix, and the
  gradient pulls back through the transposes.
- smoothing ("tim"): correlate the gradient with a fixed Gaussian kernel.
  The Gaussian is rank 1, so the correlation is one cached pair of banded
  matrices, taken from the kernel's leading SVD term.
- scaling ("sim"): average loss and gradient over the scale copies
  x / 2^i for i = 0..m-1; the chain rule contributes the 1 / 2^i factor
  to each copy's gradient.

The scale loop runs outermost with an independent diversity draw per
copy, and smoothing applies last, to the averaged gradient. A config with
one enabled transform gives that transform alone. run_attack calls
compose_dts once per query point, on the attack's own stream.

TransformConfig alone checks the settings; its dim_sides resolves the dim
sides of an image shape for check_shape and draw_dim_geometry alike, so a
bad geometry is refused one way on every path. The operator matrices are
built from what it checked: one per spatial axis, applied channelwise by
_separable_gemm, with the transposes as adjoint. No operator scans pixels
for NaN or infinity; run_attack checks those.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeMismatch
from .sampling import _require_floats, _require_sizes

TRANSFORM_NAMES = ("dim", "tim", "sim")

# pad_to defaults to ceil(PAD_RATIO * side): 28 -> 31, mirroring the usual
# 299 -> 330 resize headroom at desk scale.
PAD_RATIO = 1.104


@dataclass(frozen=True)
class TransformConfig:
    enabled: tuple = ()
    dim_prob: float = 0.5
    dim_resize_low: int | None = None   # None: the input side
    dim_pad_to: int | None = None       # None: ceil(PAD_RATIO * side)
    tim_kernel_size: int = 7
    tim_sigma: float = 3.0
    sim_copies: int = 5

    def __post_init__(self):
        names = tuple(sorted(set(self.enabled)))
        for n in names:
            if n not in TRANSFORM_NAMES:
                raise ValueError(f"unknown transform {n!r}")
        object.__setattr__(self, "enabled", names)
        _require_sizes(1, self, "tim_kernel_size", "sim_copies", *(
            n for n in ("dim_resize_low", "dim_pad_to") if getattr(self, n) is not None))
        _require_floats(0.0, self, "dim_prob", "tim_sigma")
        if self.dim_prob > 1.0:
            raise ValueError(f"dim_prob must be in [0, 1], got {self.dim_prob}")
        if self.tim_kernel_size % 2 == 0:
            raise ValueError(f"tim_kernel_size must be odd, got {self.tim_kernel_size}")
        sigma = self.tim_sigma   # from 1e-162 down, 2 sigma^2 underflows to 0 in _tim_kernel
        if not 2.0 * sigma * sigma > 0.0:
            raise ValueError(f"tim sigma must be finite and > 0, with 2 sigma^2 > 0, got {sigma}")
        low, pad = self.dim_resize_low, self.dim_pad_to
        if low is not None and pad is not None and low > pad:
            raise ValueError(f"dim resize_low {low} exceeds pad_to {pad}")

    def dim_sides(self, shape: tuple) -> tuple:
        """Concrete (resize_low, pad_to) for (h, w, c) images; ShapeMismatch
        unless they are square and resize_low fits under pad_to."""
        h, w = shape[0], shape[1]
        if h != w:
            raise ShapeMismatch(f"dim needs square images, got {h}x{w}")
        low = self.dim_resize_low if self.dim_resize_low is not None else h
        pad = self.dim_pad_to if self.dim_pad_to is not None else math.ceil(PAD_RATIO * h)
        if low > pad:
            raise ShapeMismatch(f"dim resize_low {low} exceeds pad_to {pad} for {h}-pixel images")
        return low, pad

    def check_shape(self, shape: tuple) -> None:
        """Raise ShapeMismatch unless (h, w, c) images can take the enabled
        transforms: a tim kernel no wider than any tap can reach, and the dim
        sides (dim_sides)."""
        h, w = shape[0], shape[1]
        if "tim" in self.enabled and self.tim_kernel_size > 2 * max(h, w) - 1:
            raise ShapeMismatch(f"{self.tim_kernel_size} exceeds 2 * {max(h, w)} - 1 "
                                f"for {h}x{w} images")
        if "dim" in self.enabled:
            self.dim_sides(shape)


def _band(taps: np.ndarray, n: int) -> np.ndarray:
    """Read-only (n, n) matrix with taps[d] on diagonal d - k // 2, clipped at the edges."""
    b = sum(t * np.eye(n, k=d - taps.size // 2) for d, t in enumerate(taps))
    b.setflags(write=False)
    return b


@lru_cache(maxsize=256)
def _bilinear_weights(new_n: int, old_n: int) -> np.ndarray:
    """Row-stochastic (new_n, old_n) interpolation matrix, half-pixel convention.

    When new_n == old_n this is exactly the identity matrix.
    """
    w = np.zeros((new_n, old_n))
    scale = old_n / new_n
    for i in range(new_n):
        src = (i + 0.5) * scale - 0.5
        src = min(max(src, 0.0), old_n - 1.0)
        i0 = int(np.floor(src))
        f = src - i0
        i1 = min(i0 + 1, old_n - 1)
        w[i, i0] += 1.0 - f
        w[i, i1] += f
    w.setflags(write=False)
    return w


def _separable_gemm(rows: np.ndarray, flat: np.ndarray, cols: np.ndarray, c: int) -> np.ndarray:
    """X -> rows @ X @ cols per channel, for rows (new_h, h), cols (w, new_w)
    and an image flattened to (h, w*c); the adjoint passes (rows.T, cols.T).

    These are the two np.dot calls that np.tensordot would make, on the same
    operand layouts, so the bytes are tensordot's without its overhead.
    """
    new_h, w = rows.shape[0], cols.shape[0]
    tmp = np.dot(rows, flat).reshape(new_h, w, c)
    out = np.dot(tmp.transpose(0, 2, 1).reshape(new_h * c, w), cols)
    return np.ascontiguousarray(out.reshape(new_h, c, -1).transpose(0, 2, 1))


def _tim_kernel(size: int, sigma: float) -> np.ndarray:
    """Gaussian weights exp(-(di^2+dj^2) / (2 sigma^2)) normalized to sum 1, for
    the odd size and the sigma with 2 sigma^2 > 0 that TransformConfig checked."""
    r = size // 2
    ax = np.arange(-r, r + 1, dtype=float)
    with np.errstate(over="ignore"):   # tiny sigma: off-centre exponents -inf, taps 0
        w = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * sigma * sigma))
    return w / w.sum()


@lru_cache(maxsize=64)
def _tim_matrices(size: int, sigma: float, h: int, w: int) -> tuple:
    """Correlation with _tim_kernel(size, sigma) on an (h, w) image as the pair
    (rows, cols) for _separable_gemm. The Gaussian is rank 1, so the leading
    SVD term s u v^T is the whole kernel; the bands are built from that term
    rather than from the 1-D Gaussian, whose floats differ in the last place."""
    u, s, vt = np.linalg.svd(_tim_kernel(size, sigma))
    return _band(s[0] * u[:, 0], h), _band(vt[0], w).T


def draw_dim_geometry(cfg: TransformConfig, shape: tuple, rng) -> tuple | None:
    """Sample (r, top, left, pad_to) with probability dim_prob, else None.

    The probability gate always consumes exactly one uniform draw, so a
    p=0 run replays the same stream as any other p (transform never
    taken, identical draw ledger). cfg.dim_sides(shape) refuses a bad
    geometry before that draw, so it is refused at every dim_prob.
    """
    low, pad = cfg.dim_sides(shape)
    u = rng.random()
    if not u < cfg.dim_prob:
        return None
    r = low if low == pad else int(rng.integers(low, pad))
    top = int(rng.integers(0, pad - r + 1))
    left = int(rng.integers(0, pad - r + 1))
    return r, top, left, pad


@lru_cache(maxsize=256)
def _dim_matrix(side: int, r: int, off: int, pad: int) -> np.ndarray:
    """The diversity chain along one axis as one read-only (side, side) matrix:
    resize side -> r, place at offset off on a zero canvas of pad, resize
    pad -> side. Its transpose is the chain's adjoint."""
    m = _bilinear_weights(side, pad)[:, off:off + r] @ _bilinear_weights(r, side)
    m.setflags(write=False)
    return m


def _diversified_loss_grad(oracle, x, y, geometry):
    """Loss/grad through the fused diversity matrices; the transposes pull back."""
    if geometry is None:
        return oracle.loss_and_grad(x, y)
    r, top, left, pad = geometry
    h, w, c = x.shape
    mh, mw = _dim_matrix(h, r, top, pad), _dim_matrix(w, r, left, pad)
    loss, gz = oracle.loss_and_grad(_separable_gemm(mh, x.reshape(h, w * c), mw.T, c), y)
    return loss, _separable_gemm(mh.T, gz.reshape(h, w * c), mw, c)


def compose_dts(oracle, x, y, cfg: TransformConfig, rng):
    """The composed estimator: scale loop outside, fresh diversity draw per
    copy, smoothing applied once to the averaged gradient."""
    copies = cfg.sim_copies if "sim" in cfg.enabled else 1
    use_dim = "dim" in cfg.enabled
    total_loss = 0.0
    total_grad = None
    for i in range(copies):
        s = 0.5**i
        xi = x * s
        geometry = draw_dim_geometry(cfg, x.shape, rng) if use_dim else None
        loss_i, g_i = _diversified_loss_grad(oracle, xi, y, geometry)
        total_loss += loss_i
        contrib = s * g_i
        total_grad = contrib if total_grad is None else total_grad + contrib
    loss = total_loss / copies
    grad = total_grad / copies
    if "tim" in cfg.enabled:
        h, w, c = grad.shape
        rows, cols = _tim_matrices(cfg.tim_kernel_size, cfg.tim_sigma, h, w)
        grad = _separable_gemm(rows, grad.reshape(h, w * c), cols, c)
    return loss, grad
