"""Image tensors and the linear operators used by the attack pipeline.

Images are float64 numpy arrays of shape (height, width, channels); pixel
data lives in [0, 1]. Everything here is a pure function of its inputs.
Every linear operator on images is a pair of small matrices, one per
spatial axis, applied channelwise by _separable_gemm; its adjoint is the
same call with the two transposes, so gradients pull back without an
autodiff framework. The matrices are built here: bilinear resizes for the
diversity transform and banded matrices for the smoothing transform's
separable Gaussian.

The operators do not scan pixels for NaN or infinity: an attack checks
the clean image once at its boundary (validate_image in run_attack), then
the averaged loss and gradient of every iteration, so a non-finite value
is reported there instead of being paid for in every operator call.

Tensors are serialized in a small binary format: magic "EMTN", a version
byte, a little-endian u32 rank, the dims as little-endian u32, then the
raw float64 payload in row-major order. Round trips are bit-exact.
"""

import struct
from functools import lru_cache

import numpy as np

from .errors import (
    BadMagic,
    CorruptFile,
    LengthMismatch,
    ShapeMismatch,
    VersionMismatch,
    ZeroGradient,
)
from .fileio import atomic_write_bytes

_MAGIC = b"EMTN"
_VERSION = 1

# L1 masses at or below this are treated as identically zero.
ZERO_L1_THRESHOLD = 1e-300


def validate_image(t: np.ndarray) -> None:
    """Raise ShapeMismatch / ValueError unless t is a rank-3 float64 image of
    finite pixels in [0, 1]."""
    if not isinstance(t, np.ndarray) or t.ndim != 3:
        raise ShapeMismatch(f"expected a rank-3 array, got {getattr(t, 'shape', t)!r}")
    if t.dtype != np.float64:
        raise ShapeMismatch(f"expected float64, got {t.dtype}")
    if not np.all(np.isfinite(t)):
        raise ValueError("image contains non-finite values")
    if t.min() < 0.0 or t.max() > 1.0:
        raise ValueError("pixel values outside [0, 1]")


def l1_normalize(t: np.ndarray) -> np.ndarray:
    """t / ||t||_1. Raises ZeroGradient when the L1 mass is ~0."""
    mass = float(np.abs(t).sum())
    if mass <= ZERO_L1_THRESHOLD:
        raise ZeroGradient(f"L1 mass {mass} too small to normalize")
    return t / mass


def project_linf(t: np.ndarray, origin: np.ndarray, eps: float) -> np.ndarray:
    """Project t onto the eps-ball around origin intersected with [0, 1]^d.

    Idempotent: applying it twice gives the same floats as applying it once.
    """
    if t.shape != origin.shape:
        raise ShapeMismatch(f"{t.shape} vs {origin.shape}")
    if eps < 0.0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    return np.clip(np.clip(t, origin - eps, origin + eps), 0.0, 1.0)


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
    if new_n < 1 or old_n < 1:
        raise ValueError("sizes must be >= 1")
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


def tensor_to_bytes(t: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(t, dtype="<f8")
    header = _MAGIC + bytes([_VERSION]) + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def tensor_from_bytes(data: bytes) -> np.ndarray:
    if len(data) < 9:
        raise CorruptFile("tensor blob shorter than its fixed header")
    if data[:4] != _MAGIC:
        raise BadMagic(f"expected {_MAGIC!r}, got {data[:4]!r}")
    if data[4] != _VERSION:
        raise VersionMismatch(f"unsupported tensor format version {data[4]}")
    (rank,) = struct.unpack_from("<I", data, 5)
    if rank > 32:
        raise CorruptFile(f"implausible tensor rank {rank}")
    offset = 9
    if len(data) < offset + 4 * rank:
        raise CorruptFile("tensor blob truncated inside the dims block")
    dims = struct.unpack_from(f"<{rank}I", data, offset)
    offset += 4 * rank
    count = 1
    for d in dims:
        count *= d
    payload = data[offset:]
    if len(payload) != 8 * count:
        raise LengthMismatch(
            f"dims {dims} need {8 * count} payload bytes, got {len(payload)}"
        )
    return np.frombuffer(payload, dtype="<f8").reshape(dims).copy()


def save_tensor(path: str, t: np.ndarray) -> None:
    atomic_write_bytes(path, tensor_to_bytes(t))


def load_tensor(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        return tensor_from_bytes(fh.read())
