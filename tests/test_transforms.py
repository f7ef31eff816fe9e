"""Gradient transforms: diversity, smoothing, scaling, and their composition."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from advm.attacks import AttackConfig, run_attack
from advm.errors import ShapeMismatch
from advm.sampling import derive_rng
from advm.transforms import (
    PAD_RATIO,
    TransformConfig,
    compose_dts,
    draw_dim_geometry,
    _dim_matrix,
    _diversified_loss_grad,
    _tim_kernel,
    _tim_matrices,
)

from conftest import (
    LinearOracle,
    QuadraticOracle,
    RecordingOracle,
    central_diff,
    rand_pixel_image,
)
from reference_transforms import (
    conv2d_same,
    correlate_nested_loops,
    dim_chain,
    dim_chain_adjoint,
    separable_terms,
)


def _sim_only(oracle, x, y, copies):
    """compose_dts with the scaling transform alone."""
    cfg = TransformConfig(enabled=("sim",), sim_copies=copies)
    return compose_dts(oracle, x, y, cfg, derive_rng(0, 0))


# -- config --------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        TransformConfig(enabled=("blur",))
    with pytest.raises(ValueError):
        TransformConfig(dim_prob=1.5)
    with pytest.raises(ValueError, match="^tim_kernel_size must be odd, got 4$"):
        TransformConfig(tim_kernel_size=4)
    with pytest.raises(ValueError):
        TransformConfig(tim_sigma=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            TransformConfig(tim_sigma=bad)
    with pytest.raises(ValueError):
        TransformConfig(dim_prob=math.nan)
    with pytest.raises(ValueError):
        TransformConfig(sim_copies=0)
    with pytest.raises(ValueError):
        TransformConfig(dim_resize_low=0)
    with pytest.raises(ValueError):
        TransformConfig(dim_resize_low=10, dim_pad_to=8)
    # sim_copies=2.0 crashed mid-attack; tim_kernel_size=7.0 ran 7's bytes
    # under another config hash
    for field, bad in (("tim_kernel_size", 7.0), ("tim_kernel_size", True),
                       ("sim_copies", 2.0), ("sim_copies", np.int64(2)),
                       ("dim_resize_low", 4.0), ("dim_pad_to", np.int64(31))):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            TransformConfig(**{field: bad})
    assert TransformConfig(dim_resize_low=None, dim_pad_to=None).dim_pad_to is None


@pytest.mark.parametrize("pad", [0, -1])
def test_config_refuses_a_dim_pad_to_below_one(pad):
    # with dim off, pad_to 0 or -1 was accepted and entered the config hash
    with pytest.raises(ValueError, match=f"dim_pad_to must be an integer >= 1, got {pad}"):
        TransformConfig(dim_pad_to=pad)


def test_config_enabled_sorted_and_deduped():
    cfg = TransformConfig(enabled=("tim", "dim", "dim"))
    assert cfg.enabled == ("dim", "tim")


def test_dim_sides_defaults():
    cfg = TransformConfig(enabled=("dim",))
    assert cfg.dim_sides((28, 28, 1)) == (28, math.ceil(PAD_RATIO * 28))
    assert cfg.dim_sides((28, 28, 3)) == (28, 31)
    assert TransformConfig(dim_resize_low=20, dim_pad_to=40).dim_sides((28, 28, 1)) == (20, 40)


def test_dim_sides_low_exceeds_derived_pad():
    cfg = TransformConfig(enabled=("dim",), dim_resize_low=40)
    with pytest.raises(ShapeMismatch,
                       match="^dim resize_low 40 exceeds pad_to 31 for 28-pixel images$"):
        cfg.dim_sides((28, 28, 1))


# ceil(PAD_RATIO * side) for sides 1-40, written out so that any change to
# the derived pad_to shows
_AUTO_PAD = (2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 23,
             24, 25, 26, 27, 28, 29, 30, 31, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 44, 45)


@pytest.mark.parametrize("low, pad", [(None, None), (3, None), (12, None), (None, 4),
                                      (None, 20), (5, 30), (40, 40)])
def test_dim_sides_on_sides_1_to_40(low, pad):
    cfg = TransformConfig(enabled=("dim",), dim_resize_low=low, dim_pad_to=pad)
    for side in range(1, 41):
        want = (side if low is None else low, _AUTO_PAD[side - 1] if pad is None else pad)
        for c in (1, 3):
            if want[0] <= want[1]:
                assert cfg.dim_sides((side, side, c)) == want
                continue
            text = f"dim resize_low {want[0]} exceeds pad_to {want[1]} for {side}-pixel images"
            with pytest.raises(ShapeMismatch, match=f"^{re.escape(text)}$"):
                cfg.dim_sides((side, side, c))


# -- smoothing kernel -------------------------------------------------------------


def test_tim_kernel_size_one_is_identity():
    k = _tim_kernel(1, 3.0)
    assert np.array_equal(k, np.array([[1.0]]))


def test_tim_kernel_explicit_sum_oracle():
    # recompute every weight with scalar math: exp(-(di^2+dj^2)/(2 s^2)) / total
    size, sigma = 7, 3.0
    r = size // 2
    raw = [
        [math.exp(-(di * di + dj * dj) / (2.0 * sigma * sigma)) for dj in range(-r, r + 1)]
        for di in range(-r, r + 1)
    ]
    total = sum(sum(row) for row in raw)
    want = np.array(raw) / total
    got = _tim_kernel(size, sigma)
    assert np.max(np.abs(got - want)) < 1e-12
    assert abs(got.sum() - 1.0) < 1e-12


def test_tim_kernel_symmetry_and_peak():
    w = _tim_kernel(5, 2.0)
    assert np.array_equal(w, w.T)
    assert np.array_equal(w, w[::-1, ::-1])
    assert w[2, 2] == w.max()


def test_tim_kernel_huge_sigma_is_nearly_uniform():
    w = _tim_kernel(3, 1e6)
    assert np.max(np.abs(w - 1.0 / 9.0)) < 1e-9


# 2 sigma^2 underflows to 0 from sigma = 1e-162 down: the kernel was 0 / 0,
# all NaN, and the band SVD raised LinAlgError mid-attack
def test_tim_sigma_whose_square_underflows_is_refused():
    assert 2.0 * 1e-161 * 1e-161 > 0.0 and not 2.0 * 1e-162 * 1e-162 > 0.0
    TransformConfig(enabled=("tim",), tim_sigma=1e-161)
    for sigma in (1e-162, 1e-320, 5e-324):
        with pytest.raises(ValueError, match=re.escape(f"2 sigma^2 > 0, got {sigma}")):
            TransformConfig(enabled=("tim",), tim_sigma=sigma)


def test_tim_kernel_of_the_least_sigma_is_one_tap():
    # the smallest sigma TransformConfig takes sends the off-centre exponents
    # to -inf: the one-tap kernel, without an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one_tap = _tim_kernel(9, 1e-161)
    assert one_tap[4, 4] == 1.0 and one_tap.sum() == 1.0


# -- smoothing operator ------------------------------------------------------------


class _FixedGradOracle:
    """Returns the same gradient at every query point."""

    def __init__(self, g):
        self.g = g

    def loss_and_grad(self, x, y):
        return 0.0, self.g.copy()


def _tim_smooth(g, size, sigma):
    """The package's smoothing of g: compose_dts with tim alone on an oracle
    whose gradient is g, so the single unit-scale copy passes g through."""
    cfg = TransformConfig(enabled=("tim",), tim_kernel_size=size, tim_sigma=sigma)
    return compose_dts(_FixedGradOracle(g), np.zeros_like(g), 0, cfg, derive_rng(0, 0))[1]


TIM_SIZES = range(1, 42, 2)
TIM_SIGMAS = (0.1, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 1e3, 1e6)


@pytest.mark.parametrize("shape", [(28, 28, 2), (12, 9, 1)])
def test_tim_matches_the_general_reference_bit_for_bit(shape):
    # the general route keeps every SVD term above the rank tolerance; on the
    # Gaussian that is one term, so the leading pair must give its bytes
    g = np.random.default_rng(sum(shape)).normal(size=shape)
    for size in TIM_SIZES:
        for sigma in TIM_SIGMAS:
            kernel = _tim_kernel(size, sigma)
            assert len(separable_terms(kernel, 3, 3)) == 1
            got = _tim_smooth(g, size, sigma)
            assert got.flags.c_contiguous
            assert got.tobytes() == conv2d_same(g, kernel).tobytes(), (size, sigma)


def test_tim_matches_nested_loop_correlation():
    rng = np.random.default_rng(11)
    cases = [((6, 6, 1), 3, 1.5), ((5, 7, 2), 5, 2.0), ((7, 5, 3), 7, 3.0),
             ((4, 4, 1), 9, 1.0),     # kernel wider than the image
             ((3, 8, 2), 5, 1e6)]
    for shape, size, sigma in cases:
        g = rng.normal(size=shape)
        want = correlate_nested_loops(g, _tim_kernel(size, sigma))
        assert np.max(np.abs(_tim_smooth(g, size, sigma) - want)) < 1e-12


def test_tim_smoothing_is_self_adjoint():
    # the Gaussian is point-symmetric, so the operator is its own adjoint,
    # which is what applying it to the gradient relies on
    rng = np.random.default_rng(9)
    for shape, size, sigma in (((6, 6, 1), 3, 1.0), ((12, 9, 2), 7, 3.0), ((5, 8, 1), 9, 2.0)):
        u, v = rng.normal(size=shape), rng.normal(size=shape)
        lhs = np.sum(_tim_smooth(u, size, sigma) * v)
        assert abs(lhs - np.sum(u * _tim_smooth(v, size, sigma))) < 1e-10


def test_tim_smoothing_carries_nan_through():
    # finiteness is checked at the attack boundary, not inside the operator
    g = np.zeros((4, 4, 1))
    g[1, 2, 0] = np.nan
    assert np.isnan(_tim_smooth(g, 3, 1.0)).any()
    assert np.isnan(_tim_smooth(g, 1, 1.0)).any()


def test_tim_matrices_are_cached_and_read_only():
    rows, cols = _tim_matrices(5, 2.0, 6, 7)
    assert _tim_matrices(5, 2.0, 6, 7)[0] is rows
    assert rows.shape == (6, 6) and cols.shape == (7, 7)
    assert not rows.flags.writeable and not cols.flags.writeable


# -- single transforms -------------------------------------------------------------


def test_tim_gradient_is_convolved_base_gradient():
    oracle = LinearOracle((6, 6, 1), seed=3)
    x = rand_pixel_image((6, 6, 1), seed=20)
    k = _tim_kernel(3, 1.5)
    cfg = TransformConfig(enabled=("tim",), tim_kernel_size=3, tim_sigma=1.5)
    loss, g = compose_dts(oracle, x, 0, cfg, derive_rng(0, 0))
    base_loss, base_g = oracle.loss_and_grad(x, 0)
    assert loss == base_loss
    assert np.array_equal(g, conv2d_same(base_g, k))


def test_sim_gradient_closed_form_on_linear_oracle():
    # J(x) = w . x + b, so averaging over x / 2^i scales the gradient by
    # mean(2^-i) and the loss by the same factor on the w . x part
    oracle = LinearOracle((4, 4, 1), seed=5)
    x = rand_pixel_image((4, 4, 1), seed=21)
    m = 3
    loss, g = _sim_only(oracle, x, 1, m)
    mean_scale = sum(0.5**i for i in range(m)) / m
    want_loss = mean_scale * float(np.sum(oracle.w * x)) + float(oracle.b[1])
    assert abs(loss - want_loss) < 1e-12
    assert np.max(np.abs(g - mean_scale * oracle.w)) < 1e-12


def test_sim_gradient_matches_central_difference():
    oracle = QuadraticOracle((3, 3, 1), seed=6)
    x = rand_pixel_image((3, 3, 1), seed=22)
    m = 4
    _, g = _sim_only(oracle, x, 0, m)

    def composite_loss(t):
        return sum(oracle.loss_and_grad(t * 0.5**i, 0)[0] for i in range(m)) / m

    fd = central_diff(composite_loss, x, h=1e-5)
    assert np.max(np.abs(fd - g)) < 1e-6


def test_sim_single_copy_is_bitwise_plain():
    oracle = QuadraticOracle((3, 3, 1), seed=7)
    x = rand_pixel_image((3, 3, 1), seed=23)
    loss, g = _sim_only(oracle, x, 2, 1)
    base_loss, base_g = oracle.loss_and_grad(x, 2)
    assert loss == base_loss
    assert np.array_equal(g, base_g)


def test_sim_queries_scaled_copies():
    base = QuadraticOracle((3, 3, 1), seed=8)
    rec = RecordingOracle(base)
    x = rand_pixel_image((3, 3, 1), seed=24)
    _sim_only(rec, x, 0, 3)
    assert len(rec.queries) == 3
    assert np.array_equal(rec.queries[0], x)
    assert np.array_equal(rec.queries[1], x * 0.5)
    assert np.array_equal(rec.queries[2], x * 0.25)


# -- diversity ---------------------------------------------------------------------


def test_draw_dim_geometry_prob_zero_consumes_one_draw():
    cfg = TransformConfig(enabled=("dim",), dim_prob=0.0)
    rng = derive_rng(9, 0)
    assert draw_dim_geometry(cfg, (8, 8, 1), rng) is None
    ref = derive_rng(9, 0)
    ref.uniform()                      # the gate draw
    assert rng.uniform() == ref.uniform()


def test_draw_dim_geometry_prob_one_bounds():
    cfg = TransformConfig(enabled=("dim",), dim_prob=1.0, dim_resize_low=5)
    rng = derive_rng(10, 0)
    for _ in range(50):
        r, top, left, pad = draw_dim_geometry(cfg, (8, 8, 1), rng)
        assert pad == 9                       # ceil(1.104 * 8)
        assert 5 <= r < 9
        assert 0 <= top <= pad - r
        assert 0 <= left <= pad - r


def test_draw_dim_geometry_requires_square():
    cfg = TransformConfig(enabled=("dim",))
    with pytest.raises(ShapeMismatch, match="^dim needs square images, got 8x9$"):
        draw_dim_geometry(cfg, (8, 9, 1), derive_rng(0, 0))


def _refused_geometry():
    """Each fault against each entry point, at dim_prob 0 and 1. compose_dts and
    draw_dim_geometry used to refuse an 8x9 image in other words, and an oversized
    resize_low with a ValueError at dim_prob 1 and not at all at 0."""
    faults = {"8x9": ((8, 9, 1), {}, "dim needs square images, got 8x9"),
              "low40": ((6, 6, 1), {"dim_resize_low": 40},
                        "dim resize_low 40 exceeds pad_to 7 for 6-pixel images")}
    for fault, (shape, fields, text) in faults.items():
        for entry in ("check_shape", "run_attack", "compose_dts", "draw_dim_geometry"):
            for p in (0.0, 1.0):
                cfg = TransformConfig(enabled=("dim",), dim_prob=p, **fields)
                yield pytest.param(entry, shape, cfg, text, id=f"{fault}-{entry}-p{p:g}")


@pytest.mark.parametrize("entry, shape, cfg, text", _refused_geometry())
def test_a_bad_dim_geometry_is_refused_one_way_on_every_path(entry, shape, cfg, text):
    oracle = RecordingOracle(QuadraticOracle(shape, seed=4))
    x, rng = rand_pixel_image(shape, seed=1), derive_rng(0, 0)
    calls = {
        "check_shape": lambda: cfg.check_shape(shape),
        "run_attack": lambda: run_attack(oracle, x, 0,
                                         AttackConfig(variant="mifgsm", transforms=cfg)),
        "compose_dts": lambda: compose_dts(oracle, x, 0, cfg, rng),
        "draw_dim_geometry": lambda: draw_dim_geometry(cfg, shape, rng),
    }
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(text)}$"):
        calls[entry]()
    assert oracle.queries == []
    assert rng.random() == derive_rng(0, 0).random()   # refused before the gate draw


def test_dim_degenerate_geometry_is_bitwise_plain():
    # resize_low == pad_to == side: the fused matrix is exactly the identity
    assert np.array_equal(_dim_matrix(6, 6, 0, 6), np.eye(6))
    oracle = QuadraticOracle((6, 6, 1), seed=9)
    cfg = TransformConfig(enabled=("dim",), dim_prob=1.0, dim_resize_low=6, dim_pad_to=6)
    x = rand_pixel_image((6, 6, 1), seed=25)
    loss, g = compose_dts(oracle, x, 0, cfg, derive_rng(11, 0))
    base_loss, base_g = oracle.loss_and_grad(x, 0)
    assert loss == base_loss
    assert np.array_equal(g, base_g)


def test_dim_gradient_is_adjoint_pullback_of_linear_oracle():
    # for J(z) = w . z the transformed gradient must be L^T w, where L is
    # the resize->pad->resize chain; verify <L u, w> == <u, L^T w>
    oracle = LinearOracle((8, 8, 1), seed=12)
    cfg = TransformConfig(enabled=("dim",), dim_prob=1.0, dim_resize_low=5)
    geometry = draw_dim_geometry(cfg, (8, 8, 1), derive_rng(13, 0))
    x = rand_pixel_image((8, 8, 1), seed=26)
    _, g = _diversified_loss_grad(oracle, x, 0, geometry)
    rng = np.random.default_rng(27)
    for _ in range(3):
        u = rng.normal(size=(8, 8, 1))
        assert abs(np.sum(dim_chain(u, geometry) * oracle.w) - np.sum(u * g)) < 1e-10


class _Probe:
    """Records the query and answers with a fixed gradient, so that
    _diversified_loss_grad exposes the fused forward map (the query) and
    its pullback (the returned gradient)."""

    def __init__(self, grad):
        self.grad, self.query = grad, None

    def loss_and_grad(self, z, y):
        self.query = z
        return 0.0, self.grad


def _fused(x, g, geometry):
    probe = _Probe(g)
    _, pulled = _diversified_loss_grad(probe, x, 0, geometry)
    return probe.query, pulled


def _every_geometry(side, cfg):
    low, pad = cfg.dim_sides((side, side, 1))
    for r in ([low] if low == pad else range(low, pad)):
        for top in range(pad - r + 1):
            for left in range(pad - r + 1):
                yield r, top, left, pad


@pytest.mark.parametrize("side, cfg", [
    (28, TransformConfig(enabled=("dim",))),
    (8, TransformConfig(enabled=("dim",), dim_resize_low=5)),
])
@pytest.mark.parametrize("c", [1, 3])
def test_fused_dim_operator_matches_reference_chain(side, cfg, c):
    rng = np.random.default_rng(side + c)
    x = rng.normal(size=(side, side, c))
    g = rng.normal(size=(side, side, c))
    geometries = list(_every_geometry(side, cfg))
    assert len(geometries) == {28: 29, 8: 54}[side]
    for geometry in geometries:
        z, pulled = _fused(x, g, geometry)
        assert z.shape == pulled.shape == x.shape
        assert np.max(np.abs(z - dim_chain(x, geometry))) <= 1e-12
        assert np.max(np.abs(pulled - dim_chain_adjoint(g, geometry))) <= 1e-12


def test_dim_matrices_are_cached_and_read_only():
    m = _dim_matrix(28, 29, 1, 31)
    assert m is _dim_matrix(28, 29, 1, 31)
    assert m.shape == (28, 28) and not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_property_dim_operator_adjoint_identity(data):
    side = data.draw(st.integers(1, 9))
    pad = data.draw(st.integers(1, 11))
    r = data.draw(st.integers(1, pad))
    top, left = data.draw(st.integers(0, pad - r)), data.draw(st.integers(0, pad - r))
    shape = (side, side, data.draw(st.integers(1, 3)))
    x = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    y = data.draw(arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    lx, lty = _fused(x, y, (r, top, left, pad))
    scale = float(np.sum(np.abs(lx) * np.abs(y)) + np.sum(np.abs(x) * np.abs(lty)))
    assert abs(np.sum(lx * y) - np.sum(x * lty)) <= 1e-12 * max(scale, 1.0)


def test_dim_gradient_matches_central_difference_with_fixed_geometry():
    oracle = QuadraticOracle((6, 6, 1), seed=14)
    cfg = TransformConfig(enabled=("dim",), dim_prob=1.0, dim_resize_low=4)
    geometry = draw_dim_geometry(cfg, (6, 6, 1), derive_rng(15, 0))
    x = rand_pixel_image((6, 6, 1), seed=28)
    _, g = _diversified_loss_grad(oracle, x, 1, geometry)
    fd = central_diff(lambda t: _diversified_loss_grad(oracle, t, 1, geometry)[0], x)
    assert np.max(np.abs(fd - g)) < 1e-6


# -- composition -------------------------------------------------------------------


def test_compose_equals_manual_sim_then_tim_chain():
    oracle = QuadraticOracle((6, 6, 1), seed=16)
    cfg = TransformConfig(enabled=("sim", "tim"), sim_copies=3, tim_kernel_size=3,
                          tim_sigma=1.0)
    x = rand_pixel_image((6, 6, 1), seed=29)
    loss, g = compose_dts(oracle, x, 0, cfg, derive_rng(0, 0))
    want_loss, want_g = _sim_only(oracle, x, 0, 3)
    want_g = conv2d_same(want_g, _tim_kernel(3, 1.0))
    assert loss == want_loss
    assert np.array_equal(g, want_g)


def test_compose_sim_linear_closed_form_with_tim():
    oracle = LinearOracle((6, 6, 1), seed=17)
    cfg = TransformConfig(enabled=("sim", "tim"), sim_copies=4, tim_kernel_size=3,
                          tim_sigma=2.0)
    x = rand_pixel_image((6, 6, 1), seed=30)
    _, g = compose_dts(oracle, x, 1, cfg, derive_rng(0, 0))
    mean_scale = sum(0.5**i for i in range(4)) / 4
    want = conv2d_same(mean_scale * oracle.w, _tim_kernel(3, 2.0))
    assert np.max(np.abs(g - want)) < 1e-12


def test_compose_draws_fresh_geometry_per_scale_copy():
    base = QuadraticOracle((8, 8, 1), seed=18)
    rec = RecordingOracle(base)
    cfg = TransformConfig(enabled=("dim", "sim"), dim_prob=1.0, dim_resize_low=4,
                          sim_copies=3)
    x = rand_pixel_image((8, 8, 1), seed=31)
    compose_dts(rec, x, 0, cfg, derive_rng(19, 0))
    assert len(rec.queries) == 3
    # with p=1 and resize_low < side, the three diversified copies almost
    # surely differ from the raw scaled copies and from each other
    assert not np.array_equal(rec.queries[0], x)
    assert not np.array_equal(rec.queries[1], rec.queries[0] * 0.5)


def test_compose_dim_prob_zero_replays_plain_sim_stream():
    oracle = QuadraticOracle((6, 6, 1), seed=20)
    cfg = TransformConfig(enabled=("dim", "sim"), dim_prob=0.0, sim_copies=2)
    x = rand_pixel_image((6, 6, 1), seed=32)
    rng = derive_rng(21, 0)
    loss, g = compose_dts(oracle, x, 0, cfg, rng)
    want_loss, want_g = _sim_only(oracle, x, 0, 2)
    assert loss == want_loss
    assert np.array_equal(g, want_g)
    # exactly one gate draw per scale copy was consumed
    ref = derive_rng(21, 0)
    ref.uniform()
    ref.uniform()
    assert rng.uniform() == ref.uniform()


def test_reseeded_estimator_is_deterministic_per_call():
    base = QuadraticOracle((6, 6, 1), seed=27)
    cfg = TransformConfig(enabled=("dim", "sim"), dim_prob=1.0, dim_resize_low=4,
                          sim_copies=2)
    x = rand_pixel_image((6, 6, 1), seed=35)
    l1, g1 = compose_dts(base, x, 0, cfg, derive_rng(28, 0))
    l2, g2 = compose_dts(base, x, 0, cfg, derive_rng(28, 0))
    assert l1 == l2
    assert np.array_equal(g1, g2)


def test_reseeded_estimator_objective_is_differentiable():
    # the frozen transform draws make the composite a fixed linear chain,
    # so finite differences of its loss must match its reported gradient
    base = QuadraticOracle((6, 6, 1), seed=29)
    cfg = TransformConfig(enabled=("dim", "sim"), dim_prob=1.0, dim_resize_low=4,
                          sim_copies=2)
    x = rand_pixel_image((6, 6, 1), seed=36)
    _, g = compose_dts(base, x, 0, cfg, derive_rng(30, 0))
    fd = central_diff(lambda t: compose_dts(base, t, 0, cfg, derive_rng(30, 0))[0], x, h=1e-5)
    assert np.max(np.abs(fd - g)) / max(1.0, np.max(np.abs(g))) < 1e-6


def test_identity_kernel_full_stack_matches_central_difference():
    # with a size-1 smoothing kernel the whole stack is the gradient of a
    # genuine scalar objective, so the probe covers all three transforms
    base = QuadraticOracle((6, 6, 1), seed=31)
    cfg = TransformConfig(enabled=("dim", "tim", "sim"), dim_prob=1.0,
                          dim_resize_low=4, tim_kernel_size=1, sim_copies=2)
    x = rand_pixel_image((6, 6, 1), seed=37)
    _, g = compose_dts(base, x, 0, cfg, derive_rng(32, 0))
    fd = central_diff(lambda t: compose_dts(base, t, 0, cfg, derive_rng(32, 0))[0], x, h=1e-5)
    assert np.max(np.abs(fd - g)) / max(1.0, np.max(np.abs(g))) < 1e-6
    # identity-kernel smoothing really is a no-op on the gradient
    no_tim = TransformConfig(enabled=("dim", "sim"), dim_prob=1.0, dim_resize_low=4,
                             sim_copies=2)
    _, g_plain = compose_dts(base, x, 0, no_tim, derive_rng(32, 0))
    assert np.array_equal(g, g_plain)
