"""Attack engine: configs, feasibility, exact reductions, and scheduling."""

import dataclasses
import math
import multiprocessing
import os

import numpy as np
import pytest

from advm.attacks import (
    VARIANTS,
    AttackConfig,
    AttackResult,
    attack_batch,
    attack_one,
    batch_width,
    fgsm,
    run_attack,
)
from advm.errors import AdvmError, NonFiniteGradient, ShapeMismatch, WorkerLost
from advm.models import Model, ModelSpec
from advm.sampling import SamplingSpec, make_rng
from advm.tensor import tensor_to_bytes
from advm.transforms import TransformConfig

from conftest import DyingOracle, QuadraticOracle, SinusoidOracle, rand_pixel_image


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
    with pytest.raises(ValueError, match="seed must be >= 0"):
        AttackConfig(seed=-1)
    # NaN passed the old `eps < 0` check and came back as NaN pixels
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            AttackConfig(eps=bad)
        with pytest.raises(ValueError):
            AttackConfig(mu=bad)


def test_alpha_is_eps_over_iters():
    cfg = AttackConfig(variant="ifgsm", eps=0.5, iters=4)
    assert cfg.alpha == 0.125


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


def test_config_hash_is_computed_once_per_config():
    cfg = AttackConfig(variant="mifgsm")
    first = cfg.config_hash()
    assert first == "c5b4907cd29d" and cfg.config_hash() is first
    # the cached value is not a field: equality, hashing and canonical() ignore it
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
    res = run_attack(oracle, x, 1, cfg)
    assert isinstance(res, AttackResult)
    assert np.max(np.abs(res.adv - x)) <= cfg.eps + 1e-12
    assert res.adv.min() >= 0.0 and res.adv.max() <= 1.0
    assert len(res.loss_trace) == (1 if variant == "fgsm" else cfg.iters)
    assert res.config_hash == cfg.config_hash()
    if variant == "fgsm":
        # the single step's full state is its output, recorded for free
        assert len(res.state_trace) == 1
        assert np.array_equal(res.state_trace[0].x, res.adv)
    else:
        assert res.state_trace == ()


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


def test_input_validation_enforced():
    oracle = QuadraticOracle((3, 3, 1), seed=4)
    with pytest.raises(ShapeMismatch):
        run_attack(oracle, np.zeros((3, 3)), 0, AttackConfig(variant="ifgsm"))
    with pytest.raises(ValueError):
        run_attack(oracle, np.full((3, 3, 1), 1.5), 0, AttackConfig(variant="ifgsm"))


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


def test_non_finite_clean_image_is_refused():
    x = rand_pixel_image((3, 3, 1), seed=1)
    x[0, 0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        run_attack(QuadraticOracle((3, 3, 1), seed=4), x, 0, AttackConfig(variant="ifgsm"))


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
    single = fgsm(oracle, x, 0, 0.3)
    assert np.array_equal(one.adv, single.adv)
    assert one.loss_trace == single.loss_trace


def test_run_attack_dispatches_fgsm():
    oracle = QuadraticOracle((3, 3, 1), seed=8)
    x = rand_pixel_image((3, 3, 1), seed=46)
    via_dispatch = run_attack(oracle, x, 0, AttackConfig(variant="fgsm", eps=0.2))
    direct = fgsm(oracle, x, 0, 0.2)
    assert np.array_equal(via_dispatch.adv, direct.adv)


# -- state recording ---------------------------------------------------------------


def test_record_state_field_population():
    oracle = SinusoidOracle((2, 2, 1), seed=9)
    x = rand_pixel_image((2, 2, 1), seed=47)

    def trace(variant, **kw):
        cfg = AttackConfig(variant=variant, eps=0.2, iters=3,
                           sampling=SamplingSpec(count=2), **kw)
        return run_attack(oracle, x, 1, cfg, rng=make_rng(0), record_state=True)

    t = trace("ifgsm").state_trace
    assert len(t) == 3 and t[0].g is None and t[0].g_avg is None

    t = trace("mifgsm").state_trace
    assert t[0].g is not None and t[0].g_avg is None and t[0].g_prev is None

    t = trace("pifgsm").state_trace
    assert t[0].g is not None and t[0].g_prev is not None

    t = trace("emifgsm").state_trace
    assert t[0].g is not None and t[0].g_avg is not None and t[0].g_prev is None


def test_state_trace_iterates_stay_in_ball():
    oracle = SinusoidOracle((2, 2, 1), seed=10)
    x = rand_pixel_image((2, 2, 1), seed=48)
    cfg = AttackConfig(variant="mifgsm", eps=0.2, iters=4)
    res = run_attack(oracle, x, 0, cfg, record_state=True)
    for st in res.state_trace:
        assert np.max(np.abs(st.x - x)) <= cfg.eps + 1e-12
    assert np.array_equal(res.state_trace[-1].x, res.adv)


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
        assert tensor_to_bytes(a.adv) == tensor_to_bytes(b.adv)
        assert a.loss_trace == b.loss_trace
        assert a.white_box_success == b.white_box_success


def _batch_bytes(results):
    return [tensor_to_bytes(r.adv) for r in results]


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
    assert _batch_bytes(after) == _batch_bytes(attack_batch(oracle, xs, ys, cfg, jobs=1))
    assert _batch_bytes(after)[-1] != _batch_bytes(before)[-1]


def test_worker_exception_is_raised_in_the_caller():
    _needs_a_worker()
    oracle = QuadraticOracle((4, 4, 1), seed=17)
    xs = [rand_pixel_image((4, 4, 1), seed=90 + i) for i in range(4)]
    xs[-1] = np.full((4, 4, 1), 2.0)   # in the last chunk, which a worker attacks
    with pytest.raises(ValueError, match="outside"):
        attack_batch(oracle, xs, [0, 1, 2, 0], _stochastic_cfg(), jobs=2)


def _attack_in_child(oracle, xs, ys, cfg, want):
    assert _batch_bytes(attack_batch(oracle, xs, ys, cfg, jobs=2)) == want


def test_a_child_process_forks_a_pool_of_its_own_and_exits():
    _needs_a_worker()
    oracle = QuadraticOracle((4, 4, 1), seed=19)
    xs = [rand_pixel_image((4, 4, 1), seed=110 + i) for i in range(4)]
    ys = [i % 3 for i in range(4)]
    cfg = _stochastic_cfg()
    want = _batch_bytes(attack_batch(oracle, xs, ys, cfg, jobs=2))   # this process has a pool
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
    assert _batch_bytes(attack_batch(oracle, xs, ys, cfg, jobs=2)) == _batch_bytes(serial)
