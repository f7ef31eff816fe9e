"""Attack engine: configs, feasibility, exact reductions, and scheduling."""

import dataclasses
import functools
import math
import multiprocessing
import os
import re

import numpy as np
import pytest

from advm import attacks
from advm.attacks import (
    VARIANTS,
    AttackConfig,
    AttackResult,
    _l1_direction,
    _pmap,
    attack_batch,
    attack_one,
    batch_width,
    run_attack,
)
from advm.errors import AdvmError, LabelOutOfRange, NonFiniteGradient, ShapeMismatch, WorkerLost
from advm.models import Model, ModelSpec
from advm.sampling import (SamplingSpec, derive_rng, make_rng, sample_coefficients,
                           sample_uniform_cube)
from advm.tensor import project_linf
from advm.transforms import TransformConfig, compose_dts

from conftest import (
    DyingOracle,
    QuadraticOracle,
    RecordingOracle,
    SinusoidOracle,
    bits,
    observed,
    rand_pixel_image,
)


class ZeroGradOracle:
    """Constant loss surface: the gradient is exactly zero everywhere."""

    input_shape = (2, 2, 1)
    num_classes = 2
    name = "flat"

    def loss_and_grad(self, x, y):
        return 1.0, np.zeros_like(x)

    def logits(self, x):
        return np.array([0.0, 0.0])

    def predict(self, x):
        return 0


# -- config ------------------------------------------------------------------------


def test_variant_roster():
    assert VARIANTS == (
        "fgsm", "ifgsm", "mifgsm", "nifgsm", "pifgsm",
        "emifgsm", "enifgsm", "erifgsm",
    )


def test_config_validation():
    with pytest.raises(ValueError):
        AttackConfig(variant="pgd")
    with pytest.raises(ValueError):
        AttackConfig(eps=-0.1)
    with pytest.raises(ValueError):
        AttackConfig(iters=0)
    with pytest.raises(ValueError):
        AttackConfig(mu=-1.0)
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        AttackConfig(seed=-1)
    # NaN passed the old `eps < 0` check and came back as NaN pixels
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            AttackConfig(eps=bad)
        with pytest.raises(ValueError):
            AttackConfig(mu=bad)
    # a float count crashed mid-attack, a numpy one in config_hash
    for field, bad in (("iters", 2.5), ("iters", np.int64(10)), ("iters", True),
                       ("seed", 1.0), ("seed", np.int64(1))):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            AttackConfig(**{field: bad})


@pytest.mark.parametrize("field", ["eps", "mu", "sampling.eta", "transforms.dim_prob",
                                   "transforms.tim_sigma"])
def test_float_fields_take_an_int_or_a_float_and_store_a_float(field):
    # eps=True was accepted under a hash of its own, mu=1 and mu=1.0 hashed
    # apart, and a numpy float32 or a string raised a bare TypeError
    group, _, name = field.rpartition(".")

    def cfg(value):
        if group == "sampling":
            return AttackConfig(sampling=SamplingSpec(**{name: value}))
        if group == "transforms":
            return AttackConfig(transforms=TransformConfig(**{name: value}))
        return AttackConfig(**{name: value})

    stored = functools.reduce(getattr, field.split("."), cfg(1))
    assert type(stored) is float and stored == 1.0
    assert cfg(1).config_hash() == cfg(1.0).config_hash()
    assert type(functools.reduce(getattr, field.split("."), cfg(np.float64(0.5)))) is float
    assert cfg(np.float64(0.5)).config_hash() == cfg(0.5).config_hash()
    for bad in (True, False, np.float32(0.5), np.int64(1), "0.5", None):
        with pytest.raises(ValueError, match=f"{name} must be an int or a float"):
            cfg(bad)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cfg(10**400)


def test_an_int_float_field_hashes_as_its_float():
    assert AttackConfig(eps=1).config_hash() == "ff1d69abb8b7"   # eps=1.0's hash
    assert AttackConfig(mu=1).config_hash() == "af58225b7e0d"    # the default mu=1.0's


def test_alpha_is_eps_over_iters():
    cfg = AttackConfig(variant="ifgsm", eps=0.5, iters=4)
    assert cfg.alpha == 0.125


def test_a_fgsm_config_records_the_single_step_it_runs():
    # iters=10 was stored, written to the manifest and hashed, while one step of eps ran
    cfg = AttackConfig(variant="fgsm", eps=0.5, iters=10)
    one = AttackConfig(variant="fgsm", eps=0.5, iters=1)
    assert cfg.iters == 1 and cfg.alpha == cfg.eps == 0.5
    assert cfg == one and cfg.config_hash() == one.config_hash()
    assert dataclasses.replace(AttackConfig(variant="emifgsm"), variant="fgsm").iters == 1
    # a bad iters is still refused before it is replaced
    for bad in (0, 2**31):
        with pytest.raises(ValueError, match=f"iters must be an integer >= 1.*got {bad}"):
            AttackConfig(variant="fgsm", iters=bad)


def test_canonical_covers_nested_fields():
    cfg = AttackConfig(
        variant="emifgsm",
        eps=0.1,
        sampling=SamplingSpec(method="uniform", count=7, eta=2.0),
        transforms=TransformConfig(enabled=("tim", "dim")),
    )
    d = cfg.canonical()
    assert d["variant"] == "emifgsm"
    assert d["sampling"] == {"method": "uniform", "count": 7, "eta": 2.0}
    assert d["transforms"]["enabled"] == ["dim", "tim"]
    assert set(d) == {
        "variant", "eps", "iters", "mu", "sampling", "transforms",
        "normalize_sample_dir", "seed",
    }


def test_config_hash_frozen_values():
    # pinned so a silent change to hashing or to any default shows up here
    assert AttackConfig().config_hash() == "af58225b7e0d"
    assert AttackConfig(variant="mifgsm").config_hash() == "c5b4907cd29d"


def test_config_hash_shape_and_sensitivity():
    h = AttackConfig().config_hash()
    assert len(h) == 12 and all(c in "0123456789abcdef" for c in h)
    assert AttackConfig().config_hash() == h
    assert AttackConfig(seed=1).config_hash() != h
    assert AttackConfig(eps=15.0 / 255.0).config_hash() != h
    assert (
        AttackConfig(transforms=TransformConfig(enabled=("tim",))).config_hash() != h
    )


def test_config_hash_leaves_equality_hashing_and_canonical_alone():
    cfg = AttackConfig(variant="mifgsm")
    first = cfg.config_hash()
    assert first == "c5b4907cd29d"
    # hashing a config adds no field: equality, hashing and canonical() do not change
    assert cfg == AttackConfig(variant="mifgsm")
    assert hash(cfg) == hash(AttackConfig(variant="mifgsm"))
    assert "_hash" not in cfg.canonical()
    assert dataclasses.replace(cfg, seed=1).config_hash() != first


# -- feasibility -------------------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
def test_every_variant_stays_feasible(variant):
    oracle = QuadraticOracle((4, 4, 1), seed=1)
    x = rand_pixel_image((4, 4, 1), seed=40)
    cfg = AttackConfig(
        variant=variant, eps=0.3, iters=3,
        sampling=SamplingSpec(count=3, eta=2.0),
    )
    res, steps = observed(oracle, x, 1, cfg)
    assert isinstance(res, AttackResult)
    assert np.max(np.abs(res.adv - x)) <= cfg.eps + 1e-12
    assert res.adv.min() >= 0.0 and res.adv.max() <= 1.0
    assert len(res.loss_trace) == cfg.iters
    # the observer sees every iteration, and the last iterate is the output
    assert [st.t for st in steps] == list(range(len(res.loss_trace)))
    assert tuple(st.loss for st in steps) == res.loss_trace
    assert np.array_equal(steps[-1].x, res.adv)


def test_eps_zero_returns_input_bitwise():
    oracle = QuadraticOracle((3, 3, 1), seed=2)
    x = rand_pixel_image((3, 3, 1), seed=41)
    for variant in ("fgsm", "ifgsm", "mifgsm", "emifgsm"):
        cfg = AttackConfig(variant=variant, eps=0.0, iters=2,
                           sampling=SamplingSpec(count=2))
        res = run_attack(oracle, x, 0, cfg)
        assert np.array_equal(res.adv, x)


def test_zero_gradient_leaves_input_unmoved():
    x = rand_pixel_image((2, 2, 1), seed=42)
    cfg = AttackConfig(variant="mifgsm", eps=0.2, iters=3)
    res = run_attack(ZeroGradOracle(), x, 1, cfg)
    assert np.array_equal(res.adv, x)
    assert res.loss_trace == (1.0, 1.0, 1.0)


def test_white_box_success_reflects_prediction_flip():
    oracle = QuadraticOracle((3, 3, 1), seed=3)
    x = np.full((3, 3, 1), 0.5)
    y = oracle.predict(x)
    big = run_attack(oracle, x, y, AttackConfig(variant="mifgsm", eps=0.5, iters=5))
    assert big.white_box_success == (oracle.predict(big.adv) != y)
    tiny = run_attack(oracle, x, y, AttackConfig(variant="mifgsm", eps=0.0, iters=1))
    assert not tiny.white_box_success


def test_white_box_success_is_a_python_bool_for_numpy_labels():
    # a numpy-integer label made it a numpy.bool
    oracle = QuadraticOracle((3, 3, 1), seed=3)
    x = np.full((3, 3, 1), 0.5)
    cfg = AttackConfig(variant="mifgsm", eps=0.5, iters=2)
    r = run_attack(oracle, x, np.int64(1), cfg)
    assert type(r.white_box_success) is bool
    results = attack_batch(oracle, [x, x], np.array([0, 1]), cfg)
    assert [type(r.white_box_success) for r in results] == [bool, bool]


def test_input_validation_enforced():
    oracle = QuadraticOracle((3, 3, 1), seed=4)
    with pytest.raises(ShapeMismatch):
        run_attack(oracle, np.zeros((3, 3)), 0, AttackConfig(variant="ifgsm"))
    with pytest.raises(ValueError):
        run_attack(oracle, np.full((3, 3, 1), 1.5), 0, AttackConfig(variant="ifgsm"))
    with pytest.raises(ShapeMismatch, match=r"non-empty image, got shape \(0, 28, 1\)"):
        run_attack(oracle, np.zeros((0, 28, 1)), 0, AttackConfig(variant="ifgsm"))


# -- the L1 direction --------------------------------------------------------------


def test_l1_direction_hand_case():
    got = _l1_direction(np.array([1.0, -2.0, 3.0]))
    assert np.array_equal(got, np.array([1.0, -2.0, 3.0]) / 6.0)
    assert abs(np.abs(got).sum() - 1.0) < 1e-15


def test_l1_direction_of_a_zero_gradient_is_zeros():
    for g in (np.zeros((3, 3)), np.full((2, 2), 1e-301)):
        got = _l1_direction(g)
        assert got.shape == g.shape and not got.any()


def test_l1_direction_of_a_tiny_but_nonzero_gradient_is_normalized():
    got = _l1_direction(np.full((2, 2), 1e-100))
    assert abs(np.abs(got).sum() - 1.0) < 1e-12


class InfiniteLossOracle(QuadraticOracle):
    """A finite gradient under an infinite loss."""

    def loss_and_grad(self, x, y):
        _, g = super().loss_and_grad(x, y)
        return math.inf, g


def _nan_weight_smallcnn():
    model = Model.initialize(ModelSpec("smallcnn", (8, 8, 1), 3, conv_channels=4, seed=6))
    model.params["conv.W"][1, 1, 0, 2] = np.nan
    return model


@pytest.mark.parametrize("enabled", [(), ("dim", "tim", "sim")])
@pytest.mark.parametrize("variant", ["ifgsm", "mifgsm", "emifgsm"])
def test_nan_parameter_raises_non_finite_gradient(variant, enabled):
    model = _nan_weight_smallcnn()
    x = rand_pixel_image((8, 8, 1), seed=61)
    cfg = AttackConfig(variant=variant, iters=3, sampling=SamplingSpec(count=3),
                       transforms=TransformConfig(enabled=enabled), seed=2)
    with pytest.raises(NonFiniteGradient, match="iteration 1"):
        attack_one(model, x, 0, cfg, 0)
    with pytest.raises(NonFiniteGradient):
        attack_batch(model, [x, x], [0, 1], cfg, jobs=2)
    assert issubclass(NonFiniteGradient, AdvmError)


def test_infinite_loss_raises_non_finite_gradient():
    oracle = InfiniteLossOracle((3, 3, 1), seed=4)
    with pytest.raises(NonFiniteGradient):
        run_attack(oracle, rand_pixel_image((3, 3, 1), seed=1), 0,
                   AttackConfig(variant="mifgsm"))


@pytest.mark.parametrize("y", [1.5, True, -1, 3])
def test_run_attack_refuses_a_label_outside_the_model_classes(y):
    # 1.5 died in numpy with a bare IndexError, and True with a bare TypeError
    model = Model.initialize(ModelSpec("logistic", (3, 3, 1), 3, seed=2))
    with pytest.raises(LabelOutOfRange, match=re.escape(
            f"label {y!r} is not an integer in [0, 3), the classes of the model")):
        run_attack(model, rand_pixel_image((3, 3, 1), seed=1), y,
                   AttackConfig(variant="mifgsm", iters=2))


def test_run_attack_takes_a_numpy_integer_label():
    model = Model.initialize(ModelSpec("logistic", (3, 3, 1), 3, seed=2))
    x = rand_pixel_image((3, 3, 1), seed=1)
    cfg = AttackConfig(variant="emifgsm", iters=2, sampling=SamplingSpec(count=3))
    got, want = run_attack(model, x, np.int64(1), cfg), run_attack(model, x, 1, cfg)
    assert bits(got.adv) == bits(want.adv)
    assert got.loss_trace == want.loss_trace


def test_non_finite_clean_image_is_refused():
    x = rand_pixel_image((3, 3, 1), seed=1)
    x[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run_attack(QuadraticOracle((3, 3, 1), seed=4), x, 0, AttackConfig(variant="ifgsm"))


@pytest.mark.parametrize("shape, transforms, text", [
    ((6, 6, 1), TransformConfig(enabled=("dim",), dim_resize_low=40),
     "dim resize_low 40 exceeds pad_to 7 for 6-pixel images"),
    ((6, 6, 1), TransformConfig(enabled=("dim",), dim_resize_low=40, dim_prob=0.0),
     "dim resize_low 40 exceeds pad_to 7 for 6-pixel images"),
    ((6, 6, 1), TransformConfig(enabled=("tim",), tim_kernel_size=41),
     "41 exceeds 2 * 6 - 1 for 6x6 images"),
    ((2, 4, 1), TransformConfig(enabled=("dim",)), "dim needs square images, got 2x4"),
])
def test_geometry_the_image_cannot_take_is_refused_before_any_query(shape, transforms, text):
    # the first case used to raise a bare ValueError at the first dim draw taken;
    # with dim_prob=0, or a 41-tap tim kernel, the attack ran through
    oracle = RecordingOracle(QuadraticOracle(shape, seed=4))
    with pytest.raises(ShapeMismatch, match=re.escape(text)):
        run_attack(oracle, rand_pixel_image(shape, seed=1), 0,
                   AttackConfig(variant="mifgsm", transforms=transforms))
    assert oracle.queries == []


# -- exact reductions --------------------------------------------------------------


def _bitwise_same_attack(res_a, res_b):
    assert np.array_equal(res_a.adv, res_b.adv)
    assert res_a.loss_trace == res_b.loss_trace


def test_momentum_zero_reduces_to_iterative():
    oracle = SinusoidOracle((3, 3, 1), seed=5)
    x = rand_pixel_image((3, 3, 1), seed=43)
    base = AttackConfig(variant="ifgsm", eps=0.25, iters=4)
    for variant in ("mifgsm", "nifgsm"):
        got = run_attack(oracle, x, 1, AttackConfig(variant=variant, eps=0.25,
                                                    iters=4, mu=0.0))
        _bitwise_same_attack(got, run_attack(oracle, x, 1, base))


def test_single_sample_linear_reduces_to_momentum():
    # one linearly spaced coefficient is exactly 0.0, so the sampled point
    # is the iterate itself and the recursion collapses to plain momentum
    oracle = SinusoidOracle((3, 3, 1), seed=6)
    x = rand_pixel_image((3, 3, 1), seed=44)
    emi = AttackConfig(variant="emifgsm", eps=0.25, iters=4,
                       sampling=SamplingSpec(method="linear", count=1))
    mi = AttackConfig(variant="mifgsm", eps=0.25, iters=4)
    _bitwise_same_attack(run_attack(oracle, x, 2, emi), run_attack(oracle, x, 2, mi))


def test_single_iteration_reduces_to_single_step():
    oracle = QuadraticOracle((3, 3, 1), seed=7)
    x = rand_pixel_image((3, 3, 1), seed=45)
    one = run_attack(oracle, x, 0, AttackConfig(variant="ifgsm", eps=0.3, iters=1))
    single = run_attack(oracle, x, 0, AttackConfig(variant="fgsm", eps=0.3))
    assert np.array_equal(one.adv, single.adv)
    assert one.loss_trace == single.loss_trace


def test_run_attack_dispatches_fgsm():
    oracle = QuadraticOracle((3, 3, 1), seed=8)
    x = rand_pixel_image((3, 3, 1), seed=46)
    via_dispatch = run_attack(oracle, x, 0, AttackConfig(variant="fgsm", eps=0.2))
    loss, g = oracle.loss_and_grad(x, 0)
    direct = project_linf(x + 0.2 * np.sign(g), x, 0.2)
    assert np.array_equal(via_dispatch.adv, direct)
    assert via_dispatch.loss_trace == (loss,)


# -- the observer ------------------------------------------------------------------


def test_observer_arguments_per_variant():
    oracle = SinusoidOracle((2, 2, 1), seed=9)
    x = rand_pixel_image((2, 2, 1), seed=47)

    def steps(variant):
        cfg = AttackConfig(variant=variant, eps=0.2, iters=3,
                           sampling=SamplingSpec(count=2))
        return observed(oracle, x, 1, cfg, make_rng(0))[1]

    for variant in ("fgsm", "ifgsm"):
        assert all(st.g is None and st.points == 1 for st in steps(variant))
    for variant in ("mifgsm", "nifgsm", "pifgsm"):
        t = steps(variant)
        assert len(t) == 3 and all(st.g is not None and st.points == 1 for st in t)
    for variant in ("emifgsm", "enifgsm", "erifgsm"):
        assert all(st.g is not None and st.points == 2 for st in steps(variant))


def test_observed_iterates_stay_in_ball():
    oracle = SinusoidOracle((2, 2, 1), seed=10)
    x = rand_pixel_image((2, 2, 1), seed=48)
    cfg = AttackConfig(variant="mifgsm", eps=0.2, iters=4)
    res, steps = observed(oracle, x, 0, cfg)
    for st in steps:
        assert np.max(np.abs(st.x - x)) <= cfg.eps + 1e-12
    assert np.array_equal(steps[-1].x, res.adv)


@pytest.mark.parametrize("enabled", [(), ("dim", "tim", "sim")])
@pytest.mark.parametrize("variant", ["fgsm", "ifgsm", "pifgsm", "emifgsm", "erifgsm"])
def test_observed_run_is_byte_identical_to_unobserved(variant, enabled):
    oracle = QuadraticOracle((6, 6, 1), seed=20)
    x = rand_pixel_image((6, 6, 1), seed=64)
    cfg = AttackConfig(variant=variant, eps=0.2, iters=3, seed=5,
                       sampling=SamplingSpec(method="uniform", count=2),
                       transforms=TransformConfig(enabled=enabled, sim_copies=2))
    plain = run_attack(oracle, x, 2, cfg, derive_rng(5, 1))
    seen, steps = observed(oracle, x, 2, cfg, derive_rng(5, 1))
    assert bits(seen.adv) == bits(plain.adv)
    assert seen.loss_trace == plain.loss_trace
    assert seen.white_box_success == plain.white_box_success
    assert len(steps) == len(plain.loss_trace)


# -- transforms inside the loop ----------------------------------------------------


@pytest.mark.parametrize("variant", ["mifgsm", "pifgsm", "emifgsm", "erifgsm"])
def test_run_attack_applies_the_configured_transforms(variant):
    # run_attack once ignored cfg.transforms: only attack_one applied them
    model = Model.initialize(ModelSpec("smallcnn", (8, 8, 1), 3, conv_channels=4, seed=6))
    x = rand_pixel_image((8, 8, 1), seed=62)
    cfg = AttackConfig(variant=variant, iters=3, seed=4,
                       sampling=SamplingSpec(method="uniform", count=3),
                       transforms=TransformConfig(enabled=("dim", "tim", "sim"),
                                                  sim_copies=2))
    got = run_attack(model, x, 1, cfg, derive_rng(4, 2))
    want = attack_one(model, x, 1, cfg, 2)
    assert bits(got.adv) == bits(want.adv)
    assert got.loss_trace == want.loss_trace
    assert got.white_box_success == want.white_box_success
    plain = run_attack(model, x, 1, dataclasses.replace(cfg, transforms=TransformConfig()),
                       derive_rng(4, 2))
    assert bits(got.adv) != bits(plain.adv)
    assert got.loss_trace != plain.loss_trace
    # the transforms shape the gradient only: success is the plain prediction
    assert got.white_box_success == (model.predict(got.adv) != 1)


@pytest.mark.parametrize("variant", ["emifgsm", "erifgsm"])
def test_transform_draws_follow_the_iterations_points_on_one_stream(variant):
    oracle = QuadraticOracle((6, 6, 1), seed=21)
    x = rand_pixel_image((6, 6, 1), seed=63)
    tcfg = TransformConfig(enabled=("dim", "sim"), dim_prob=0.6, dim_resize_low=4,
                           sim_copies=2)
    cfg = AttackConfig(variant=variant, eps=0.2, iters=3, transforms=tcfg,
                       sampling=SamplingSpec(method="uniform", count=2))
    _, steps = observed(oracle, x, 0, cfg, make_rng(8))
    ref = make_rng(8)
    adv, gbar = x, np.zeros_like(x)
    for st in steps:
        # every point of the iteration is drawn before any transform draw
        if variant == "emifgsm":
            points = [adv + c * gbar for c in sample_coefficients(cfg.sampling, ref)]
        else:
            points = [adv + cfg.alpha * sample_uniform_cube(ref, x.shape) for _ in range(2)]
        pairs = [compose_dts(oracle, pt, 0, tcfg, ref) for pt in points]
        assert st.loss == (pairs[0][0] + pairs[1][0]) / 2
        assert np.array_equal(st.gbar, (pairs[0][1] + pairs[1][1]) / 2)
        adv, gbar = st.x, st.gbar


# -- per-example scheduling --------------------------------------------------------


def _stochastic_cfg(seed=0):
    return AttackConfig(
        variant="erifgsm", eps=0.2, iters=2, seed=seed,
        sampling=SamplingSpec(count=2),
        transforms=TransformConfig(enabled=("dim",), dim_prob=0.7, dim_resize_low=3),
    )


def test_attack_one_is_deterministic_per_index():
    oracle = QuadraticOracle((4, 4, 1), seed=11)
    x = rand_pixel_image((4, 4, 1), seed=49)
    cfg = _stochastic_cfg()
    a = attack_one(oracle, x, 0, cfg, example_index=5)
    b = attack_one(oracle, x, 0, cfg, example_index=5)
    assert np.array_equal(a.adv, b.adv)
    c = attack_one(oracle, x, 0, cfg, example_index=6)
    assert not np.array_equal(a.adv, c.adv)


_DTS = TransformConfig(enabled=("dim", "tim", "sim"), dim_prob=0.7, dim_resize_low=3,
                       tim_kernel_size=3, sim_copies=2)


@pytest.mark.parametrize("seed", [0, 7919, 2**96, 2**200], ids=["0", "7919", "2**96", "2**200"])
@pytest.mark.parametrize("cfg", [
    AttackConfig(variant="erifgsm", eps=0.2, iters=2, sampling=SamplingSpec(count=2)),
    AttackConfig(variant="mifgsm", eps=0.2, iters=2, transforms=_DTS),
], ids=["erifgsm", "mifgsm-dts"])
def test_run_attack_without_a_stream_draws_example_zeros(cfg, seed):
    # the default was make_rng(seed), which is example 0's derive_rng(seed, 0)
    # only for seeds below 2**96
    oracle = QuadraticOracle((4, 4, 1), seed=16)
    x = rand_pixel_image((4, 4, 1), seed=52)
    cfg = dataclasses.replace(cfg, seed=seed)
    alone = run_attack(oracle, x, 1, cfg)
    for other in (attack_one(oracle, x, 1, cfg, 0), attack_batch(oracle, [x], [1], cfg)[0]):
        assert alone.adv.tobytes() == other.adv.tobytes()
        assert alone.loss_trace == other.loss_trace


def test_attack_one_seed_changes_stream():
    oracle = QuadraticOracle((4, 4, 1), seed=12)
    x = rand_pixel_image((4, 4, 1), seed=50)
    a = attack_one(oracle, x, 0, _stochastic_cfg(seed=0), example_index=3)
    b = attack_one(oracle, x, 0, _stochastic_cfg(seed=1), example_index=3)
    assert not np.array_equal(a.adv, b.adv)


def test_attack_batch_validation():
    oracle = QuadraticOracle((4, 4, 1), seed=13)
    xs = [rand_pixel_image((4, 4, 1), seed=51)]
    with pytest.raises(ValueError):
        attack_batch(oracle, xs, [0, 1], _stochastic_cfg())
    with pytest.raises(ValueError):
        attack_batch(oracle, xs, [0], _stochastic_cfg(), jobs=0)


def test_attack_batch_matches_attack_one_in_order():
    oracle = QuadraticOracle((4, 4, 1), seed=14)
    xs = [rand_pixel_image((4, 4, 1), seed=60 + i) for i in range(6)]
    ys = [i % 3 for i in range(6)]
    cfg = _stochastic_cfg()
    got = attack_batch(oracle, xs, ys, cfg, jobs=1)
    for i, res in enumerate(got):
        want = attack_one(oracle, xs[i], ys[i], cfg, example_index=i)
        assert np.array_equal(res.adv, want.adv)
        assert res.loss_trace == want.loss_trace


def test_attack_batch_job_width_is_bit_identical():
    oracle = QuadraticOracle((4, 4, 1), seed=15)
    xs = [rand_pixel_image((4, 4, 1), seed=70 + i) for i in range(8)]
    ys = [i % 3 for i in range(8)]
    cfg = _stochastic_cfg()
    serial = attack_batch(oracle, xs, ys, cfg, jobs=1)
    wide = attack_batch(oracle, xs, ys, cfg, jobs=4)
    for a, b in zip(serial, wide):
        assert bits(a.adv) == bits(b.adv)
        assert a.loss_trace == b.loss_trace
        assert a.white_box_success == b.white_box_success


def _batch_bits(results):
    return [bits(r.adv) for r in results]


def _needs_a_worker():
    if batch_width(2, 2) < 2:
        pytest.skip("fewer than two usable CPUs: jobs=2 runs serially")


def test_batch_width_caps_jobs_without_starting_a_process():
    before = {p.pid for p in multiprocessing.active_children()}
    cpus = len(os.sched_getaffinity(0))
    assert batch_width(10**6, 5) <= min(cpus, 5)
    assert batch_width(10**6, 10**6) == cpus
    assert batch_width(1, 10**6) == 1
    assert {p.pid for p in multiprocessing.active_children()} == before


def test_workers_see_the_oracle_as_it_is_at_each_call():
    _needs_a_worker()
    oracle = QuadraticOracle((4, 4, 1), seed=16)
    xs = [rand_pixel_image((4, 4, 1), seed=80 + i) for i in range(4)]
    ys = [i % 3 for i in range(4)]
    cfg = _stochastic_cfg()
    before = attack_batch(oracle, xs, ys, cfg, jobs=2)
    oracle.c = oracle.c + 0.25
    after = attack_batch(oracle, xs, ys, cfg, jobs=2)
    assert _batch_bits(after) == _batch_bits(attack_batch(oracle, xs, ys, cfg, jobs=1))
    assert _batch_bits(after)[-1] != _batch_bits(before)[-1]


def test_worker_exception_is_raised_in_the_caller():
    _needs_a_worker()
    oracle = QuadraticOracle((4, 4, 1), seed=17)
    xs = [rand_pixel_image((4, 4, 1), seed=90 + i) for i in range(4)]
    xs[-1] = np.full((4, 4, 1), 2.0)   # in the last chunk, which a worker attacks
    with pytest.raises(ValueError, match="outside"):
        attack_batch(oracle, xs, [0, 1, 2, 0], _stochastic_cfg(), jobs=2)


def _attack_in_child(oracle, xs, ys, cfg, want):
    assert _batch_bits(attack_batch(oracle, xs, ys, cfg, jobs=2)) == want


def test_a_child_process_forks_a_pool_of_its_own_and_exits():
    _needs_a_worker()
    oracle = QuadraticOracle((4, 4, 1), seed=19)
    xs = [rand_pixel_image((4, 4, 1), seed=110 + i) for i in range(4)]
    ys = [i % 3 for i in range(4)]
    cfg = _stochastic_cfg()
    want = _batch_bits(attack_batch(oracle, xs, ys, cfg, jobs=2))   # this process has a pool
    child = multiprocessing.get_context("fork").Process(
        target=_attack_in_child, args=(oracle, xs, ys, cfg, want))
    child.start()
    try:
        child.join(timeout=60)
        assert not child.is_alive(), "the child hung on an inherited pool or at exit"
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join(timeout=10)


def test_dead_worker_raises_worker_lost_and_the_next_call_recovers():
    _needs_a_worker()
    xs = [rand_pixel_image((4, 4, 1), seed=100 + i) for i in range(4)]
    ys = [i % 3 for i in range(4)]
    cfg = _stochastic_cfg()
    with pytest.raises(WorkerLost):
        attack_batch(DyingOracle((4, 4, 1), seed=18), xs, ys, cfg, jobs=2)
    assert issubclass(WorkerLost, AdvmError)
    oracle = QuadraticOracle((4, 4, 1), seed=18)
    serial = attack_batch(oracle, xs, ys, cfg, jobs=1)
    assert _batch_bits(attack_batch(oracle, xs, ys, cfg, jobs=2)) == _batch_bits(serial)


# -- the ordered process map ---------------------------------------------------------


def _tag(i, tag):
    return tag, i, os.getpid()


def _fail_on_three(i):
    if i == 3:
        raise ValueError(f"item {i} refused")
    return i


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_pmap_returns_results_in_item_order(jobs):
    got = _pmap(_tag, [(i, "t") for i in range(7)], jobs)
    assert [g[:2] for g in got] == [("t", i) for i in range(7)]
    assert got[0][2] == os.getpid()   # the first chunk runs in this process
    if batch_width(jobs, 7) > 1:
        assert got[-1][2] != os.getpid()


def test_pmap_with_more_jobs_than_items_runs_one_item_a_process():
    got = _pmap(_tag, [(0, "a"), (1, "b")], 8)
    assert [g[:2] for g in got] == [("a", 0), ("b", 1)]
    assert len({g[2] for g in got}) == batch_width(8, 2)


def test_pmap_over_no_items_returns_an_empty_list_and_forks_nothing(monkeypatch):
    def no_pool(workers):
        raise AssertionError("forked for no items")
    monkeypatch.setattr(attacks, "_worker_pool", no_pool)
    before = {p.pid for p in multiprocessing.active_children()}
    assert _pmap(_tag, [], 4) == []
    assert {p.pid for p in multiprocessing.active_children()} == before


def test_pmap_raises_an_exception_from_a_worker_chunk_in_the_caller():
    _needs_a_worker()
    with pytest.raises(ValueError, match="item 3 refused"):
        _pmap(_fail_on_three, [(i,) for i in range(4)], 2)   # item 3 is in the worker's chunk
    assert _pmap(_fail_on_three, [(i,) for i in range(3)], 2) == [0, 1, 2]


def test_pmap_refuses_jobs_below_one():
    with pytest.raises(ValueError, match=re.escape("jobs must be an integer >= 1, got 0")):
        _pmap(_tag, [], 0)
