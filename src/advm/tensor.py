"""Image checks, the L-infinity projection, and the .emtn tensor format.

Images are float64 numpy arrays of shape (height, width, channels); pixel
data lives in [0, 1]. validate_image is the one pixel scan, run at the
boundaries (run_attack on the clean image, advm eval on each stored
tensor), and project_linf clips to the eps-ball intersected with [0, 1].
The linear operators of the transforms, and their matrices, are built and
applied in transforms.

Tensors are serialized in a small binary format: magic "EMTN", a version
byte, a little-endian u32 rank, the dims as little-endian u32, then the
raw float64 payload in row-major order. Round trips are bit-exact.
"""

import struct

import numpy as np

from .errors import CorruptFile, ShapeMismatch, VersionMismatch
from .fileio import atomic_write_bytes

_MAGIC = b"EMTN"
_VERSION = 1


def validate_image(t: np.ndarray) -> None:
    """Raise ShapeMismatch / ValueError unless t is a non-empty rank-3 float64
    image of finite pixels in [0, 1]."""
    if not isinstance(t, np.ndarray) or t.ndim != 3:
        raise ShapeMismatch(f"expected a rank-3 array, got {getattr(t, 'shape', t)!r}")
    if t.dtype != np.float64:
        raise ShapeMismatch(f"expected float64, got {t.dtype}")
    if t.size == 0:
        raise ShapeMismatch(f"expected a non-empty image, got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise ValueError("image contains non-finite values")
    if t.min() < 0.0 or t.max() > 1.0:
        raise ValueError("pixel values outside [0, 1]")


def project_linf(t: np.ndarray, origin: np.ndarray, eps: float) -> np.ndarray:
    """Project t onto the eps-ball around origin intersected with [0, 1]^d.

    Idempotent: applying it twice gives the same floats as applying it once.
    """
    if t.shape != origin.shape:
        raise ShapeMismatch(f"{t.shape} vs {origin.shape}")
    if not eps >= 0.0:   # NaN fails this too; it would clip every pixel to NaN
        raise ValueError(f"eps must be >= 0, got {eps}")
    return np.clip(np.clip(t, origin - eps, origin + eps), 0.0, 1.0)


def tensor_to_bytes(t: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(t, dtype="<f8")
    header = _MAGIC + bytes([_VERSION]) + struct.pack("<I", arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()


def tensor_from_bytes(data: bytes) -> np.ndarray:
    if len(data) < 9:
        raise CorruptFile("tensor blob shorter than its fixed header")
    if data[:4] != _MAGIC:
        raise CorruptFile(f"expected {_MAGIC!r}, got {data[:4]!r}")
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
        raise CorruptFile(f"dims {dims} need {8 * count} payload bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype="<f8").reshape(dims).copy()


def save_tensor(path: str, t: np.ndarray) -> None:
    atomic_write_bytes(path, tensor_to_bytes(t))


def load_tensor(path: str) -> np.ndarray:
    """The tensor in the file at path; a refusal of its bytes names the path."""
    try:
        with open(path, "rb") as fh:
            return tensor_from_bytes(fh.read())
    except (CorruptFile, VersionMismatch) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
