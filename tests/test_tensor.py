"""Tensor ops: validation, projection, the transforms' separable matrix kernel, and
the .emtn codec that evaluate holds for attack sets."""

import math
import re
import struct
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from advm.errors import (
    AdvmError,
    CorruptFile,
    ShapeMismatch,
    VersionMismatch,
)
from advm.attacks import AttackConfig
from advm.evaluate import _decode_tensor, _encode_tensor, load_attack_set, save_attack_set
from advm.tensor import project_linf, validate_image
from advm.transforms import _bilinear_weights, _separable_gemm

from conftest import rand_pixel_image
from reference_transforms import (
    conv2d_same,
    correlate_nested_loops,
    pad_zero,
    pad_zero_adjoint,
    resize_bilinear,
    resize_bilinear_adjoint,
)


# -- validation ---------------------------------------------------------------


def test_validate_image_accepts_well_formed():
    validate_image(np.zeros((4, 5, 2)))
    validate_image(np.full((2, 2, 1), 0.5))
    validate_image(np.ones((3, 1, 1)))


def test_validate_image_rank_and_dtype():
    with pytest.raises(ShapeMismatch):
        validate_image(np.zeros((4, 5)))
    with pytest.raises(ShapeMismatch):
        validate_image(np.zeros((4, 5, 2, 1)))
    with pytest.raises(ShapeMismatch):
        validate_image(np.zeros((4, 5, 2), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        validate_image([[0.0]])


def test_validate_image_rejects_nonfinite_and_out_of_domain():
    bad = np.zeros((2, 2, 1))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValueError):
        validate_image(bad)
    with pytest.raises(ValueError):
        validate_image(np.full((2, 2, 1), 1.5))
    with pytest.raises(ValueError):
        validate_image(np.full((2, 2, 1), -0.1))


@pytest.mark.parametrize("shape", [(0, 6, 1), (4, 0, 1), (2, 2, 0)])
def test_validate_image_refuses_a_zero_size_image_by_its_shape(shape):
    with pytest.raises(ShapeMismatch) as err:
        validate_image(np.zeros(shape))
    assert str(err.value) == f"expected a non-empty image, got shape {shape}"


# -- projection ---------------------------------------------------------------


def test_project_linf_hand_case():
    origin = np.full((1, 1, 1), 0.5)
    assert project_linf(np.full((1, 1, 1), 0.75), origin, 0.1)[0, 0, 0] == pytest.approx(0.6)
    assert project_linf(np.full((1, 1, 1), 0.2), origin, 0.1)[0, 0, 0] == pytest.approx(0.4)
    # the [0, 1] box binds before the ball does near the boundary
    near_edge = np.full((1, 1, 1), 0.05)
    assert project_linf(np.full((1, 1, 1), -0.2), near_edge, 0.1)[0, 0, 0] == 0.0


def test_project_linf_idempotent():
    rng = np.random.default_rng(0)
    origin = rng.uniform(0.0, 1.0, size=(6, 6, 2))
    t = origin + rng.uniform(-0.5, 0.5, size=origin.shape)
    once = project_linf(t, origin, 0.12)
    twice = project_linf(once, origin, 0.12)
    assert np.array_equal(once, twice)


def test_project_linf_feasible_point_unchanged():
    origin = np.full((2, 2, 1), 0.5)
    t = origin + 0.05
    assert np.array_equal(project_linf(t, origin, 0.1), t)


def test_project_linf_errors():
    origin = np.full((2, 2, 1), 0.5)
    with pytest.raises(ShapeMismatch):
        project_linf(np.zeros((3, 2, 1)), origin, 0.1)
    with pytest.raises(ValueError, match=re.escape("eps must be >= 0, got -0.01")):
        project_linf(origin, origin, -0.01)
    # a NaN eps would clip every pixel to NaN
    with pytest.raises(ValueError, match="eps must be >= 0, got nan"):
        project_linf(origin + 0.1, origin, float("nan"))
    assert np.array_equal(project_linf(origin + 0.7, origin, math.inf), np.ones((2, 2, 1)))


# -- the general correlation reference ------------------------------------------------
#
# The package correlates only with its rank-1 Gaussian (tests/test_transforms.py);
# these checks keep the general reference it is tested against honest.


def _identity_weights(size):
    w = np.zeros((size, size))
    w[size // 2, size // 2] = 1.0
    return w


def test_identity_kernel_is_bitwise_noop():
    img = rand_pixel_image((5, 4, 2), seed=1)
    assert np.array_equal(conv2d_same(img, _identity_weights(1)), img)
    # a larger identity kernel behaves the same up to float addition of zeros
    assert np.allclose(conv2d_same(img, _identity_weights(3)), img, atol=1e-15, rtol=0)


def test_conv2d_same_hand_case():
    # 2x2 image, all-ones 3x3 kernel: every output pixel sees the whole image
    img = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
    out = conv2d_same(img, np.ones((3, 3)))
    assert np.allclose(out, np.full((2, 2, 1), 10.0), atol=1e-12, rtol=0)


def _rank2_kernel(k, seed):
    rng = np.random.default_rng(seed)
    return np.outer(rng.normal(size=k), rng.normal(size=k)) + np.outer(
        rng.normal(size=k), rng.normal(size=k))


def test_conv2d_same_matches_brute_force():
    rng = np.random.default_rng(5)
    cases = [((5, 6, 2), rng.normal(size=(k, k))) for k in (1, 3, 5)]
    cases += [((5, 7, 2), rng.normal(size=(k, k))) for k in (1, 3, 5, 7)]
    cases += [((4, 4, 1), rng.normal(size=(7, 7))),     # kernel wider than the image
              ((6, 5, 3), _rank2_kernel(5, 41)), ((5, 7, 2), np.zeros((3, 3)))]
    for shape, weights in cases:
        img = rng.normal(size=shape)
        got = conv2d_same(img, weights)
        assert got.shape == shape and got.flags.c_contiguous
        assert np.max(np.abs(got - correlate_nested_loops(img, weights))) < 1e-12


def test_conv2d_same_symmetric_kernel_is_self_adjoint():
    rng = np.random.default_rng(9)
    weights = rng.normal(size=(3, 3))
    weights = weights + weights[::-1, ::-1]  # point-symmetric, like a Gaussian
    u = rng.normal(size=(6, 6, 1))
    v = rng.normal(size=(6, 6, 1))
    assert abs(np.sum(conv2d_same(u, weights) * v)
               - np.sum(u * conv2d_same(v, weights))) < 1e-10


# -- bilinear resize -----------------------------------------------------------
#
# The package applies resizes only inside the fused diversity matrices;
# these checks keep the tensordot reference chain in reference_transforms,
# which the fused operator is tested against, honest.


def test_resize_bilinear_hand_case_2x2_to_3x3():
    # half-pixel sampling of [[1,2],[3,4]]: rows/cols interpolate at
    # weights [[1,0],[.5,.5],[0,1]], giving 0.5-step ramps
    img = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
    want = np.array([[1.0, 1.5, 2.0], [2.0, 2.5, 3.0], [3.0, 3.5, 4.0]])
    got = resize_bilinear(img, 3, 3)
    assert np.max(np.abs(got[:, :, 0] - want)) < 1e-12


def test_resize_bilinear_identity_is_exact():
    img = rand_pixel_image((7, 5, 3), seed=2)
    assert np.array_equal(resize_bilinear(img, 7, 5), img)


def test_resize_bilinear_constant_image_stays_constant():
    # row-stochastic weights: interpolation preserves constants exactly
    img = np.full((6, 6, 1), 0.37)
    out = resize_bilinear(img, 9, 4)
    assert np.max(np.abs(out - 0.37)) < 1e-12
    assert out.shape == (9, 4, 1)


@pytest.mark.parametrize(
    "old,new,seed",
    [((4, 6), (7, 3), 21), ((5, 5), (9, 9), 22), ((8, 3), (2, 11), 23)],
)
def test_resize_adjoint_inner_product(old, new, seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=old + (2,))
    v = rng.normal(size=new + (2,))
    lhs = np.sum(resize_bilinear(u, *new) * v)
    rhs = np.sum(u * resize_bilinear_adjoint(v, *old))
    assert abs(lhs - rhs) < 1e-10


# -- _separable_gemm against np.tensordot ---------------------------------------------
#
# _separable_gemm, the one kernel behind every linear operator, must return
# the bytes of the tensordot resize and its adjoint when given their
# matrices (rows, cols.T) and (rows.T, cols).


def _gemm_resize(img, new_h, new_w):
    h, w, c = img.shape
    wh = _bilinear_weights(new_h, h)
    ww = _bilinear_weights(new_w, w)
    return _separable_gemm(wh, img.reshape(h, w * c), ww.T, c)


def _gemm_resize_adjoint(grad, old_h, old_w):
    new_h, new_w, c = grad.shape
    wh = _bilinear_weights(new_h, old_h)
    ww = _bilinear_weights(new_w, old_w)
    return _separable_gemm(wh.T, grad.reshape(new_h, new_w * c), ww, c)


def _signed_zero_image(shape, seed):
    """Normal noise with about a quarter +0.0 and a quarter -0.0 entries."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape)
    pick = rng.integers(0, 4, size=shape)
    a[pick == 0] = 0.0
    a[pick == 1] = -0.0
    return a


@pytest.mark.parametrize("old, new", [
    ((28, 28), (29, 29)), ((28, 28), (30, 30)), ((31, 31), (28, 28)), ((28, 28), (28, 28)),
    ((7, 5), (3, 9)), ((6, 6), (1, 1)), ((1, 1), (5, 4)), ((2, 3), (2, 3)),
])
@pytest.mark.parametrize("c", [1, 3])
def test_resize_bytes_match_tensordot(old, new, c):
    img = _signed_zero_image(old + (c,), seed=sum(old) + c)
    got = _gemm_resize(img, *new)
    want = resize_bilinear(img, *new)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    grad = _signed_zero_image(new + (c,), seed=sum(new) + 10 * c)
    got = _gemm_resize_adjoint(grad, *old)
    want = resize_bilinear_adjoint(grad, *old)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_resize_bytes_match_tensordot_on_a_strided_view():
    img = _signed_zero_image((10, 8, 3), seed=5)[::2, ::-1]
    assert _gemm_resize(img, 7, 6).tobytes() == resize_bilinear(img, 7, 6).tobytes()
    assert (_gemm_resize_adjoint(img, 9, 4).tobytes()
            == resize_bilinear_adjoint(img, 9, 4).tobytes())


def test_operators_check_shapes_but_do_not_scan_pixels():
    # finiteness is checked once, at the attack boundary; the operators keep
    # only their O(1) checks and carry a NaN through
    img = np.zeros((4, 4, 1))
    img[1, 2, 0] = np.nan
    assert np.isnan(project_linf(img, np.zeros((4, 4, 1)), 0.1)).any()
    eye = np.eye(4)
    assert np.isnan(_separable_gemm(eye, img.reshape(4, 4), eye, 1)).any()
    with pytest.raises(ShapeMismatch):
        project_linf(img, np.zeros((4, 4)), 0.1)


# -- zero padding (the reference chain's) ------------------------------------------


def test_pad_zero_hand_case():
    img = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(2, 2, 1)
    out = pad_zero(img, 1, 2, 4, 4)
    want = np.zeros((4, 4))
    want[1:3, 2:4] = [[1.0, 2.0], [3.0, 4.0]]
    assert np.array_equal(out[:, :, 0], want)


def test_pad_zero_adjoint_inner_product():
    rng = np.random.default_rng(12)
    u = rng.normal(size=(3, 4, 2))
    v = rng.normal(size=(6, 7, 2))
    lhs = np.sum(pad_zero(u, 2, 1, 6, 7) * v)
    rhs = np.sum(u * pad_zero_adjoint(v, 2, 1, 3, 4))
    assert abs(lhs - rhs) < 1e-12


def test_pad_then_crop_roundtrip():
    img = rand_pixel_image((3, 3, 1), seed=4)
    assert np.array_equal(pad_zero_adjoint(pad_zero(img, 1, 1, 5, 5), 1, 1, 3, 3), img)


# -- EMTN serialization -----------------------------------------------------------


def test_tensor_bytes_frozen_layout():
    t = np.array([1.5, -2.25]).reshape(2, 1, 1)
    want = (
        b"EMTN"
        + bytes([1])
        + struct.pack("<I", 3)
        + struct.pack("<3I", 2, 1, 1)
        + struct.pack("<2d", 1.5, -2.25)
    )
    assert _encode_tensor(t) == want


def test_tensor_bytes_roundtrip():
    t = rand_pixel_image((4, 5, 3), seed=6)
    back = _decode_tensor(_encode_tensor(t))
    assert back.dtype == np.float64
    assert np.array_equal(back, t)


def test_tensor_roundtrip_via_file(tmp_path):
    t = rand_pixel_image((3, 3, 2), seed=8)
    result = types.SimpleNamespace(adv=t, white_box_success=False)
    save_attack_set(str(tmp_path), AttackConfig(), ["m"], [0], [result])
    assert np.array_equal(load_attack_set(str(tmp_path))[1][0], t)
    # no temp files left behind by the atomic writes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adv_00000.emtn", "manifest.json"]


def test_tensor_from_bytes_errors():
    good = _encode_tensor(np.zeros((2, 2, 1)))
    with pytest.raises(CorruptFile):
        _decode_tensor(good[:5])
    # the bare text: load_attack_set names the file, once
    with pytest.raises(CorruptFile, match=r"^expected b'EMTN', got b'XXXX'$"):
        _decode_tensor(b"XXXX" + good[4:])
    with pytest.raises(VersionMismatch, match=r"^unsupported tensor format version 2$"):
        _decode_tensor(good[:4] + bytes([2]) + good[5:])
    # implausible rank
    with pytest.raises(CorruptFile):
        _decode_tensor(good[:5] + struct.pack("<I", 33) + good[9:])
    # dims block truncated
    with pytest.raises(CorruptFile):
        _decode_tensor(good[:5] + struct.pack("<I", 3) + b"\x02\x00")
    # payload shorter than the dims promise
    with pytest.raises(CorruptFile, match=r"^dims \(2, 2, 1\) need 32 payload bytes, got 24$"):
        _decode_tensor(good[:-8])


# -- properties ---------------------------------------------------------------------

# Derandomized and without an example database: every run draws the same
# examples and writes no files.
_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _images(elements, max_side=6, max_channels=3):
    shapes = st.tuples(st.integers(1, max_side), st.integers(1, max_side),
                       st.integers(1, max_channels))
    return shapes.flatmap(lambda shape: arrays(np.float64, shape, elements=elements))


def _inner_product_scale(a, b):
    return float(np.sum(np.abs(a) * np.abs(b)))


@_PROPERTY
@given(data=st.data())
def test_property_project_linf_idempotent_and_feasible(data):
    origin = data.draw(_images(st.floats(0.0, 1.0)))
    t = data.draw(arrays(np.float64, origin.shape, elements=st.floats(-2.0, 3.0)))
    eps = data.draw(st.floats(0.0, 1.0))
    p = project_linf(t, origin, eps)
    assert p.tobytes() == project_linf(p, origin, eps).tobytes()
    assert np.all(p >= origin - eps) and np.all(p <= origin + eps)
    assert np.all(p >= 0.0) and np.all(p <= 1.0)


@_PROPERTY
@given(data=st.data())
def test_property_resize_bilinear_adjoint_identity(data):
    x = data.draw(_images(st.floats(-1.0, 1.0)))
    new_h, new_w = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    y = data.draw(arrays(np.float64, (new_h, new_w, x.shape[2]),
                         elements=st.floats(-1.0, 1.0)))
    lx = resize_bilinear(x, new_h, new_w)
    lty = resize_bilinear_adjoint(y, x.shape[0], x.shape[1])
    assert lty.shape == x.shape
    scale = _inner_product_scale(lx, y) + _inner_product_scale(x, lty)
    assert abs(np.sum(lx * y) - np.sum(x * lty)) <= 1e-12 * max(scale, 1.0)


@_PROPERTY
@given(data=st.data())
def test_property_pad_zero_adjoint_identity(data):
    x = data.draw(_images(st.floats(-1.0, 1.0)))
    h, w, c = x.shape
    top, left = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    out_h = top + h + data.draw(st.integers(0, 3))
    out_w = left + w + data.draw(st.integers(0, 3))
    y = data.draw(arrays(np.float64, (out_h, out_w, c), elements=st.floats(-1.0, 1.0)))
    lx = pad_zero(x, top, left, out_h, out_w)
    lty = pad_zero_adjoint(y, top, left, h, w)
    scale = _inner_product_scale(lx, y)
    assert abs(np.sum(lx * y) - np.sum(x * lty)) <= 1e-12 * max(scale, 1.0)


@_PROPERTY
@given(t=_images(st.floats(allow_nan=True, allow_infinity=True), max_side=5, max_channels=4))
def test_property_emtn_roundtrip_is_bit_exact(t):
    blob = _encode_tensor(t)
    back = _decode_tensor(blob)
    assert back.shape == t.shape
    assert back.tobytes() == t.tobytes()
    assert _encode_tensor(back) == blob


@_PROPERTY
@given(t=_images(st.floats(-1.0, 1.0), max_side=4), data=st.data())
def test_property_truncated_emtn_raises_advm_error(t, data):
    blob = _encode_tensor(t)
    cut = data.draw(st.integers(0, len(blob) - 1))
    with pytest.raises(AdvmError):
        _decode_tensor(blob[:cut])


@_PROPERTY
@given(head=st.sampled_from([b"", b"EMTN", b"EMTN\x01"]),
       tail=st.binary(max_size=64))
def test_property_random_emtn_blob_parses_or_raises_advm_error(head, tail):
    try:
        back = _decode_tensor(head + tail)
    except AdvmError:
        return
    assert back.dtype == np.float64
    assert _encode_tensor(back) == head + tail
