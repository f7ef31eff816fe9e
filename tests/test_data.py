"""Datasets: container validation, the synthetic generator, IDX loading, subsets."""

import math
import re
import struct

import numpy as np
import pytest

from advm.data import (
    LabeledDataset,
    generate_synthetic,
    load_idx,
    subsample,
)
from advm.errors import (
    CorruptFile,
    EmptyDataset,
    LabelOutOfRange,
    ShapeMismatch,
    TooFew,
)


def _tiny(n=4, val0=0.0):
    images = tuple(np.full((2, 2, 1), val0 + 0.1 * i) for i in range(n))
    labels = tuple(i % 2 for i in range(n))
    return LabeledDataset(images, labels, 2)


# -- container ----------------------------------------------------------------


def test_dataset_basics():
    ds = _tiny()
    assert len(ds) == 4
    assert ds.image_shape == (2, 2, 1)
    assert ds.class_count == 2


def test_dataset_length_mismatch():
    with pytest.raises(ShapeMismatch):
        LabeledDataset((np.zeros((2, 2, 1)),), (0, 1), 2)


def test_dataset_label_out_of_range():
    with pytest.raises(LabelOutOfRange):
        LabeledDataset((np.zeros((2, 2, 1)),), (2,), 2)
    with pytest.raises(LabelOutOfRange):
        LabeledDataset((np.zeros((2, 2, 1)),), (-1,), 2)


def test_dataset_refuses_a_label_that_is_not_an_integer():
    # 1.5 and True passed the old range check
    for bad in (1.5, True):
        with pytest.raises(LabelOutOfRange, match=re.escape(
                f"label {bad!r} is not an integer in [0, 2), the classes of the dataset")):
            LabeledDataset((np.zeros((2, 2, 1)),), (bad,), 2)
    assert LabeledDataset((np.zeros((2, 2, 1)),), (np.int64(1),), 2).labels == (1,)


def test_dataset_shape_disagreement():
    with pytest.raises(ShapeMismatch):
        LabeledDataset((np.zeros((2, 2, 1)), np.zeros((3, 2, 1))), (0, 0), 1)


def test_dataset_bad_class_count():
    with pytest.raises(ValueError):
        LabeledDataset((), (), 0)


def test_dataset_empty_shape_query():
    ds = LabeledDataset((), (), 1)
    with pytest.raises(EmptyDataset):
        _ = ds.image_shape


# -- synthetic generator --------------------------------------------------------


def test_generate_synthetic_shapes_and_grouping():
    ds = generate_synthetic(3, 5, height=8, width=8, channels=1, noise_sigma=0.1, seed=0)
    assert len(ds) == 15
    assert ds.class_count == 3
    assert ds.image_shape == (8, 8, 1)
    assert ds.labels == (0,) * 5 + (1,) * 5 + (2,) * 5


def test_generate_synthetic_pixel_domain():
    ds = generate_synthetic(2, 10, height=6, width=6, noise_sigma=0.5, seed=1)
    for img in ds.images:
        assert img.min() >= 0.0 and img.max() <= 1.0


def test_generate_synthetic_deterministic():
    a = generate_synthetic(2, 3, height=6, width=6, seed=9)
    b = generate_synthetic(2, 3, height=6, width=6, seed=9)
    for ia, ib in zip(a.images, b.images):
        assert np.array_equal(ia, ib)
    c = generate_synthetic(2, 3, height=6, width=6, seed=10)
    assert not np.array_equal(a.images[0], c.images[0])


def test_generate_synthetic_zero_noise_copies_template():
    ds = generate_synthetic(2, 4, height=6, width=6, noise_sigma=0.0, seed=2)
    for cls in range(2):
        block = ds.images[cls * 4:(cls + 1) * 4]
        for img in block[1:]:
            assert np.array_equal(img, block[0])
    # different classes use different templates
    assert not np.array_equal(ds.images[0], ds.images[4])


def test_generate_synthetic_multichannel():
    ds = generate_synthetic(2, 2, height=6, width=6, channels=3, seed=3)
    assert ds.image_shape == (6, 6, 3)


def test_generate_synthetic_errors():
    with pytest.raises(EmptyDataset):
        generate_synthetic(0, 5)
    with pytest.raises(EmptyDataset):
        generate_synthetic(2, 0)
    for contrast in (0.0, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="contrast must be finite and > 0"):
            generate_synthetic(2, 2, contrast=contrast)
    with pytest.raises(ValueError, match=re.escape("height must be an integer >= 1, got 0")):
        generate_synthetic(2, 2, height=0, width=0)
    for sigma in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="noise_sigma must be finite"):
            generate_synthetic(2, 2, noise_sigma=sigma)


@pytest.mark.parametrize("shape", [(2, 2**30, 1, 1, 1), (2_000_000_000, 1, 4, 4, 1),
                                   (1, 1, 2**16, 2**15, 1), (2, 1, 1, 1, 2**30)])
def test_generate_synthetic_refuses_an_image_tensor_of_2_31_values(shape):
    # each count passed on its own, so these drew templates or allocated without bound
    values = math.prod(shape)
    with pytest.raises(ValueError, match=re.escape(
            f"classes*per_class*height*width*channels must be an integer >= 0 and < 2**31, "
            f"got {values}")):
        generate_synthetic(*shape)


@pytest.mark.parametrize("classes", [2**16, 2_000_000_000])
def test_generate_synthetic_refuses_2_16_classes(classes):
    # under the 2**31 value bound, 2e9 classes drew templates for about 60 hours
    with pytest.raises(ValueError, match=re.escape(
            f"classes must be an integer >= 0 and < 2**16, got {classes}")):
        generate_synthetic(classes, 1, height=1, width=1)


# -- IDX loading -----------------------------------------------------------------


def _write_idx_pair(tmp_path, pixels, labels, rows=2, cols=3,
                    img_magic=0x00000803, lbl_magic=0x00000801,
                    img_count=None, lbl_count=None):
    img_count = len(pixels) // (rows * cols) if img_count is None else img_count
    lbl_count = len(labels) if lbl_count is None else lbl_count
    img_path = tmp_path / "imgs.idx"
    lbl_path = tmp_path / "lbls.idx"
    img_path.write_bytes(struct.pack(">4i", img_magic, img_count, rows, cols) + bytes(pixels))
    lbl_path.write_bytes(struct.pack(">2i", lbl_magic, lbl_count) + bytes(labels))
    return str(img_path), str(lbl_path)


def test_load_idx_hand_built(tmp_path):
    pixels = [0, 51, 102, 153, 204, 255] * 2   # two 2x3 images
    ip, lp = _write_idx_pair(tmp_path, pixels, [1, 0])
    ds = load_idx(ip, lp)
    assert len(ds) == 2
    assert ds.image_shape == (2, 3, 1)
    assert ds.labels == (1, 0)
    assert ds.class_count == 2
    # uint8 pixels scale by 1/255
    assert ds.images[0][0, 0, 0] == 0.0
    assert ds.images[0][0, 1, 0] == pytest.approx(51 / 255)
    assert ds.images[0][1, 2, 0] == 1.0


def test_load_idx_bad_image_magic(tmp_path):
    ip, lp = _write_idx_pair(tmp_path, [0] * 6, [0], img_magic=0x00000804)
    with pytest.raises(CorruptFile, match=re.escape(ip)):
        load_idx(ip, lp)


def test_load_idx_bad_label_magic(tmp_path):
    ip, lp = _write_idx_pair(tmp_path, [0] * 6, [0], lbl_magic=0x00000800)
    with pytest.raises(CorruptFile, match=re.escape(lp)):
        load_idx(ip, lp)


def test_load_idx_truncated_header(tmp_path):
    p = tmp_path / "short.idx"
    p.write_bytes(b"\x00\x00")
    with pytest.raises(CorruptFile, match=re.escape(str(p))):
        load_idx(str(p), str(p))


def test_load_idx_payload_mismatch(tmp_path):
    ip, lp = _write_idx_pair(tmp_path, [0] * 6, [0], img_count=2)
    with pytest.raises(CorruptFile, match=re.escape(ip)):
        load_idx(ip, lp)


def test_load_idx_label_payload_mismatch(tmp_path):
    ip, lp = _write_idx_pair(tmp_path, [0] * 6, [0], lbl_count=2)
    with pytest.raises(CorruptFile, match=re.escape(lp)):
        load_idx(ip, lp)


def test_load_idx_header_dims_are_unsigned(tmp_path):
    # (-1, -1) read signed would make a 4-byte payload look like 4 * 1 * 1
    ip, lp = _write_idx_pair(tmp_path, [0] * 4, [0] * 4, rows=-1, cols=-1, img_count=4)
    with pytest.raises(CorruptFile, match=re.escape(ip) + ".*header promises"):
        load_idx(ip, lp)
    ip, lp = _write_idx_pair(tmp_path, [0] * 6, [], lbl_count=-1)
    with pytest.raises(CorruptFile, match=re.escape(lp) + ".*header promises 4294967295"):
        load_idx(ip, lp)


@pytest.mark.parametrize("rows, cols", [(0, 28), (28, 0), (0, 0)])
def test_load_idx_refuses_a_zero_side(tmp_path, rows, cols):
    # a zero side made three empty images, which crashed validate_image later
    ip, lp = _write_idx_pair(tmp_path, [], [0, 0, 0], rows=rows, cols=cols, img_count=3)
    with pytest.raises(CorruptFile, match=re.escape(f"{ip}: header declares {rows}x{cols}")):
        load_idx(ip, lp)


def test_load_idx_count_disagreement(tmp_path):
    ip, lp = _write_idx_pair(tmp_path, [0] * 12, [0])
    with pytest.raises(CorruptFile, match=re.escape(ip)):
        load_idx(ip, lp)


# -- subset and subsample --------------------------------------------------------


def test_subset_keeps_index_order_and_class_count():
    ds = _tiny(5)
    sub = ds.subset([3, 0, 3])
    assert sub.labels == (1, 0, 1)
    assert [img[0, 0, 0] for img in sub.images] == [ds.images[i][0, 0, 0] for i in (3, 0, 3)]
    assert sub.class_count == 2
    assert len(ds.subset([])) == 0 and ds.subset([]).class_count == 2


def test_subsample_deterministic_without_replacement():
    # unique constant value per image makes duplicates detectable
    images = tuple(np.full((2, 2, 1), i / 10.0) for i in range(8))
    ds = LabeledDataset(images, tuple(i % 2 for i in range(8)), 2)
    sub = subsample(ds, 5, seed=3)
    assert len(sub) == 5
    vals = [img[0, 0, 0] for img in sub.images]
    assert len(set(vals)) == 5
    again = subsample(ds, 5, seed=3)
    for a, b in zip(sub.images, again.images):
        assert np.array_equal(a, b)
    assert sub.class_count == 2


def test_subsample_full_size_is_permutation():
    images = tuple(np.full((1, 1, 1), i / 10.0) for i in range(6))
    ds = LabeledDataset(images, tuple(i % 3 for i in range(6)), 3)
    sub = subsample(ds, 6, seed=0)
    assert sorted(img[0, 0, 0] for img in sub.images) == [i / 10.0 for i in range(6)]
    assert sorted(sub.labels) == sorted(ds.labels)


def test_subsample_too_few():
    with pytest.raises(TooFew):
        subsample(_tiny(4), 5, seed=0)
