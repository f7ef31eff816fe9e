"""Image checks and the L-infinity projection.

Images are float64 numpy arrays of shape (height, width, channels); pixel
data lives in [0, 1]. validate_image is the one pixel scan, run at the
boundaries (run_attack on the clean image, advm eval on each stored
tensor), and project_linf clips to the eps-ball intersected with [0, 1].
The linear operators of the transforms, and their matrices, are built and
applied in transforms; evaluate writes and reads the stored tensors.
"""

import numpy as np

from .errors import ShapeMismatch


def validate_image(t: np.ndarray) -> None:
    """Raise ShapeMismatch / ValueError unless t is a non-empty rank-3 float64
    image of finite pixels in [0, 1]."""
    if not isinstance(t, np.ndarray) or t.ndim != 3:
        raise ShapeMismatch(f"expected a rank-3 array, got {getattr(t, 'shape', t)!r}")
    if t.dtype != np.float64:
        raise ShapeMismatch(f"expected float64, got {t.dtype}")
    if t.size == 0:
        raise ShapeMismatch(f"expected a non-empty image, got shape {t.shape}")
    if not np.isfinite(t).all():
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
