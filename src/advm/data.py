"""Datasets: a synthetic desk-scale generator and an IDX loader.

The synthetic generator builds one smooth template per class (a few
Gaussian bumps at seeded positions) and emits noisy copies of it, which
gives a classification problem that small models can learn in seconds
while still leaving headroom between architectures.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadMagic, EmptyDataset, LabelOutOfRange, LengthMismatch, TooFew
from .sampling import make_rng


@dataclass(frozen=True)
class LabeledDataset:
    images: tuple
    labels: tuple
    class_count: int

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise LengthMismatch(
                f"{len(self.images)} images vs {len(self.labels)} labels"
            )
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")
        shapes = {img.shape for img in self.images}
        if len(shapes) > 1:
            raise ValueError(f"images disagree on shape: {sorted(shapes)}")
        for y in self.labels:
            if not 0 <= y < self.class_count:
                raise LabelOutOfRange(f"label {y} outside [0, {self.class_count})")

    def __len__(self) -> int:
        return len(self.images)

    def subset(self, idx) -> "LabeledDataset":
        """The examples at idx, in that order, with the same class count."""
        return LabeledDataset(
            tuple(self.images[i] for i in idx),
            tuple(self.labels[i] for i in idx),
            self.class_count,
        )

    @property
    def image_shape(self):
        if not self.images:
            raise EmptyDataset("dataset has no images")
        return self.images[0].shape


def generate_synthetic(
    classes: int,
    per_class: int,
    height: int = 28,
    width: int = 28,
    channels: int = 1,
    noise_sigma: float = 0.1,
    seed: int = 0,
    contrast: float = 1.0,
) -> LabeledDataset:
    """Noisy copies of per-class blob templates, pixels clamped to [0, 1].

    Deterministic in the seed; noise_sigma=0 makes every image of a class
    identical to its template. Images are grouped by class in order.
    contrast scales the bump and grating amplitudes: lower values move the
    classes closer together, which makes the problem harder.
    """
    if classes < 1 or per_class < 1:
        raise EmptyDataset("need at least one class and one example per class")
    if min(height, width, channels) < 1:
        raise ValueError(f"image shape must be >= 1 each, got {(height, width, channels)}")
    if not (noise_sigma >= 0.0 and math.isfinite(noise_sigma)):
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    if not (contrast > 0.0 and math.isfinite(contrast)):
        raise ValueError(f"contrast must be finite and > 0, got {contrast}")
    rng = make_rng(seed)
    templates = [_blob_template(rng, height, width, channels, contrast) for _ in range(classes)]
    images, labels = [], []
    for cls, tpl in enumerate(templates):
        for _ in range(per_class):
            noise = rng.normal(0.0, noise_sigma, size=tpl.shape) if noise_sigma > 0 else 0.0
            images.append(np.clip(tpl + noise, 0.0, 1.0))
            labels.append(cls)
    return LabeledDataset(tuple(images), tuple(labels), classes)


def _blob_template(rng, height, width, channels, contrast):
    """A class template: smooth Gaussian bumps plus oriented gratings.

    The bumps give every architecture something low-frequency to match;
    the localized gratings give convolutional filters high-frequency
    structure, so learned responses vary quickly under small pixel
    perturbations instead of behaving like one global linear map.
    """
    yy, xx = np.mgrid[0:height, 0:width].astype(float)
    base = np.full((height, width), 0.45)
    n_bumps = int(rng.integers(2, 4))
    for _ in range(n_bumps):
        cy = rng.uniform(0.15 * height, 0.85 * height)
        cx = rng.uniform(0.15 * width, 0.85 * width)
        spread = rng.uniform(0.10, 0.22) * min(height, width)
        amp = contrast * rng.uniform(0.35, 0.55) * (1.0 if rng.uniform() < 0.5 else -1.0)
        base = base + amp * np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * spread**2))
    n_waves = int(rng.integers(2, 4))
    for _ in range(n_waves):
        theta = rng.uniform(0.0, np.pi)
        wavelength = rng.uniform(2.5, 5.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        cy = rng.uniform(0.2 * height, 0.8 * height)
        cx = rng.uniform(0.2 * width, 0.8 * width)
        spread = rng.uniform(0.18, 0.35) * min(height, width)
        amp = contrast * rng.uniform(0.25, 0.45)
        carrier = np.sin(
            (2.0 * np.pi / wavelength) * (np.cos(theta) * xx + np.sin(theta) * yy) + phase
        )
        envelope = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * spread**2))
        base = base + amp * carrier * envelope
    base = np.clip(base, 0.08, 0.92)
    tpl = np.repeat(base[:, :, None], channels, axis=2)
    if channels > 1:
        # per-channel gains keep multi-channel classes from being grayscale copies
        gains = rng.uniform(0.7, 1.0, size=channels)
        tpl = np.clip(tpl * gains[None, None, :], 0.0, 1.0)
    return tpl


_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Load an IDX image/label file pair (big-endian), scaling pixels by 1/255."""
    with open(images_path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 16:
        raise LengthMismatch("image file shorter than its 16-byte header")
    magic, count, rows, cols = struct.unpack_from(">4I", raw, 0)
    if magic != _IDX_IMAGES_MAGIC:
        raise BadMagic(f"image file magic {magic:#010x}")
    if rows == 0 or cols == 0:
        raise LengthMismatch(f"{images_path}: header declares {rows}x{cols} images")
    if len(raw) != 16 + count * rows * cols:
        raise LengthMismatch(
            f"image payload {len(raw) - 16} bytes, header promises {count * rows * cols}"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16)
    images = pixels.reshape(count, rows, cols, 1).astype(np.float64) / 255.0

    with open(labels_path, "rb") as fh:
        raw_l = fh.read()
    if len(raw_l) < 8:
        raise LengthMismatch("label file shorter than its 8-byte header")
    magic_l, count_l = struct.unpack_from(">2I", raw_l, 0)
    if magic_l != _IDX_LABELS_MAGIC:
        raise BadMagic(f"label file magic {magic_l:#010x}")
    if len(raw_l) != 8 + count_l:
        raise LengthMismatch(
            f"label payload {len(raw_l) - 8} bytes, header promises {count_l}"
        )
    if count != count_l:
        raise LengthMismatch(f"{count} images vs {count_l} labels")
    labels = [int(b) for b in raw_l[8:]]
    class_count = max(labels) + 1 if labels else 1
    return LabeledDataset(
        tuple(images[i] for i in range(count)), tuple(labels), class_count
    )


def subsample(dataset: LabeledDataset, n: int, seed: int) -> LabeledDataset:
    """n examples drawn without replacement; n == len(dataset) is a permutation."""
    if n > len(dataset):
        raise TooFew(f"asked for {n} of {len(dataset)} examples")
    idx = make_rng(seed).choice(len(dataset), size=n, replace=False)
    return dataset.subset(idx)
