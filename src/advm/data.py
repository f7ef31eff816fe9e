"""Datasets: a synthetic desk-scale generator and an IDX loader.

The synthetic generator builds one smooth template per class (a few
Gaussian bumps at seeded positions) and emits noisy copies of it, which
gives a classification problem that small models can learn in seconds
while still leaving headroom between architectures.
"""

import math
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .errors import CorruptFile, EmptyDataset, LabelOutOfRange, ShapeMismatch, TooFew
from .sampling import _require_floats, _require_sizes, derive_rng


def check_label(y, classes: int, whose: str) -> None:
    """Raise LabelOutOfRange unless y is an integer in [0, classes); a numpy
    integer passes, a bool or a float does not. whose names the classes."""
    # type(y) is int first: isinstance against an ABC is ~10x slower
    if not ((type(y) is int or isinstance(y, numbers.Integral) and type(y) is not bool)
            and 0 <= y < classes):
        raise LabelOutOfRange(f"label {y!r} is not an integer in [0, {classes}), "
                              f"the classes of {whose}")


@dataclass(frozen=True)
class LabeledDataset:
    images: tuple
    labels: tuple
    class_count: int

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ShapeMismatch(f"{len(self.images)} images vs {len(self.labels)} labels")
        _require_sizes(1, self, "class_count")
        shapes = {img.shape for img in self.images}
        if len(shapes) > 1:
            raise ShapeMismatch(f"images disagree on shape: {sorted(shapes)}")
        for y in self.labels:
            check_label(y, self.class_count, "the dataset")

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


# Each class draws its template on its own, 0.1-0.2 ms apiece from 1x1 to
# 28x28 images, so 2**16 classes take seconds where 2**31 would take days.
_CLASS_LIMIT = 2**16


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
    _require_sizes(0, classes=classes, per_class=per_class)
    _require_sizes(1, height=height, width=width, channels=channels)
    _require_sizes(0, **{"classes*per_class*height*width*channels":
                         classes * per_class * height * width * channels})
    _require_floats(0.0, noise_sigma=noise_sigma)
    _require_floats(0.0, strict=True, contrast=contrast)
    rng = derive_rng(seed, 0)
    if classes == 0 or per_class == 0:
        raise EmptyDataset("need at least one class and one example per class")
    if classes >= _CLASS_LIMIT:
        raise ValueError(f"classes must be an integer >= 0 and < 2**16, got {classes}")
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


def _read_idx(path: str, magic: int, ndims: int) -> tuple:
    """The dims and payload of an IDX file with this magic and dim count."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head = 4 + 4 * ndims
    if len(raw) < head:
        raise CorruptFile(f"{path}: shorter than its {head}-byte IDX header")
    found, *dims = struct.unpack_from(f">{1 + ndims}I", raw, 0)
    if found != magic:
        raise CorruptFile(f"{path}: magic {found:#010x}, want {magic:#010x}")
    if 0 in dims[1:]:
        raise CorruptFile(f"{path}: header declares {'x'.join(map(str, dims[1:]))} images")
    if len(raw) != head + math.prod(dims):
        raise CorruptFile(
            f"{path}: payload {len(raw) - head} bytes, header promises {math.prod(dims)}")
    return dims, memoryview(raw)[head:]


def load_idx(images_path: str, labels_path: str) -> LabeledDataset:
    """Load an IDX image/label file pair (big-endian), scaling pixels by 1/255.
    Each refusal is a CorruptFile that names the file it is about."""
    (count, rows, cols), pixels = _read_idx(images_path, _IDX_IMAGES_MAGIC, 3)
    (count_l,), labels = _read_idx(labels_path, _IDX_LABELS_MAGIC, 1)
    if count != count_l:
        raise CorruptFile(f"{images_path} holds {count} images, {labels_path} {count_l} labels")
    images = np.frombuffer(pixels, dtype=np.uint8).reshape(count, rows, cols, 1)
    images = images.astype(np.float64) / 255.0
    labels = tuple(labels)
    return LabeledDataset(tuple(images), labels, max(labels) + 1 if labels else 1)


def subsample(dataset: LabeledDataset, n: int, seed: int) -> LabeledDataset:
    """n examples drawn without replacement; n == len(dataset) is a permutation."""
    _require_sizes(0, n=n)
    if n > len(dataset):
        raise TooFew(f"asked for {n} of {len(dataset)} examples")
    idx = derive_rng(seed, 0).choice(len(dataset), size=n, replace=False)
    return dataset.subset(idx)
