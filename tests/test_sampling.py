"""Coefficient samplers, the deterministic stream discipline, and the one
number rule that every count, seed and real-valued setting goes through."""

import contextlib
import dataclasses
import math
import re

import numpy as np
import pytest

from advm.attacks import AttackConfig, _pmap, batch_width
from advm.data import LabeledDataset, _blob_template, generate_synthetic, subsample
from advm.errors import EmptyDataset, TooFew
from advm.models import Model, ModelSpec, train_sgd
from advm.sampling import (
    SamplingSpec,
    derive_rng,
    sample_coefficients,
    sample_uniform_cube,
)
from advm.transforms import TransformConfig


def test_spec_defaults():
    spec = SamplingSpec()
    assert (spec.method, spec.count, spec.eta) == ("linear", 11, 7.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SamplingSpec(method="cauchy")
    with pytest.raises(ValueError):
        SamplingSpec(count=0)
    with pytest.raises(ValueError):
        SamplingSpec(eta=-0.1)
    with pytest.raises(ValueError):
        SamplingSpec(eta=float("nan"))
    with pytest.raises(ValueError):
        SamplingSpec(eta=float("inf"))
    # a float count crashed mid-attack with a TypeError
    for bad in (3.0, True, np.int64(3)):
        with pytest.raises(ValueError, match="count must be an int"):
            SamplingSpec(count=bad)


def test_linear_grid_frozen():
    got = sample_coefficients(SamplingSpec("linear", 11, 7.0), derive_rng(0, 0))
    want = [-7.0, -5.6, -4.2, -2.8, -1.4, 0.0, 1.4, 2.8, 4.2, 5.6, 7.0]
    assert got.shape == (11,)
    assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_linear_grid_exact_zero_midpoint():
    got = sample_coefficients(SamplingSpec("linear", 11, 7.0), derive_rng(0, 0))
    assert got[5] == 0.0
    # exact mirror symmetry, endpoints included
    assert np.array_equal(got, -got[::-1])
    assert got[0] == -7.0 and got[-1] == 7.0


def test_linear_single_sample_is_exact_zero():
    got = sample_coefficients(SamplingSpec("linear", 1, 7.0), derive_rng(0, 0))
    assert np.array_equal(got, np.array([0.0]))


def test_linear_even_count():
    got = sample_coefficients(SamplingSpec("linear", 4, 6.0), derive_rng(0, 0))
    assert np.array_equal(got, np.linspace(-6.0, 6.0, 4))


def test_linear_consumes_no_draws():
    rng = derive_rng(42, 0)
    sample_coefficients(SamplingSpec("linear", 11, 7.0), rng)
    ref = derive_rng(42, 0)
    assert rng.uniform() == ref.uniform()


def test_uniform_bounds_count_determinism():
    spec = SamplingSpec("uniform", 9, 2.5)
    a = sample_coefficients(spec, derive_rng(5, 0))
    b = sample_coefficients(spec, derive_rng(5, 0))
    assert a.shape == (9,)
    assert np.all(np.abs(a) <= 2.5)
    assert np.array_equal(a, b)
    c = sample_coefficients(spec, derive_rng(6, 0))
    assert not np.array_equal(a, c)


def test_gaussian_bounds_and_determinism():
    spec = SamplingSpec("gaussian", 64, 1.0)
    a = sample_coefficients(spec, derive_rng(7, 0))
    b = sample_coefficients(spec, derive_rng(7, 0))
    assert a.shape == (64,)
    assert np.all(np.abs(a) <= 1.0)
    assert np.array_equal(a, b)
    # sigma = eta / 3: most draws fall well inside the truncation bound
    assert np.std(a) < 0.6


def test_gaussian_eta_zero_gives_zeros():
    got = sample_coefficients(SamplingSpec("gaussian", 5, 0.0), derive_rng(0, 0))
    assert np.array_equal(got, np.zeros(5))


def test_uniform_eta_zero_gives_zeros():
    got = sample_coefficients(SamplingSpec("uniform", 5, 0.0), derive_rng(0, 0))
    assert np.array_equal(got, np.zeros(5))


def test_derive_rng_streams_are_distinct_and_reproducible():
    a1 = derive_rng(5, 0).uniform(size=4)
    a2 = derive_rng(5, 0).uniform(size=4)
    b = derive_rng(5, 1).uniform(size=4)
    c = derive_rng(6, 0).uniform(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def _flat_stream(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_derive_rng_index_zero_aliases_flat_stream():
    # SeedSequence pads its entropy with zero words up to a pool of four 32-bit
    # words, so (seed, 0) hashes as seed alone while seed fits in three: below
    # 2**96, stream #0 is the flat stream of the seed, and later streams are not
    for seed in (0, 1, 7919, 2**96 - 1):
        flat = _flat_stream(seed).uniform(size=8)
        assert np.array_equal(derive_rng(seed, 0).uniform(size=8), flat), seed
        assert not np.array_equal(derive_rng(seed, 1).uniform(size=8), flat), seed
    flat = _flat_stream(2**96).uniform(size=8)
    assert not np.array_equal(derive_rng(2**96, 0).uniform(size=8), flat)


# Past 2**96, where stream #0 and the flat stream part: each seeded draw of data,
# a subsample or initial parameters is stream #0 of its seed at any seed.
_BIG_SEED = 2**100


def test_generate_synthetic_draws_stream_zero_of_its_seed():
    got = generate_synthetic(2, 1, 6, 6, noise_sigma=0.0, seed=_BIG_SEED)
    rng = derive_rng(_BIG_SEED, 0)
    for image in got.images:   # noise 0: each image is its class template
        assert image.tobytes() == _blob_template(rng, 6, 6, 1, 1.0).tobytes()


def test_subsample_draws_stream_zero_of_its_seed():
    ds = generate_synthetic(3, 4, 2, 2, seed=1)
    idx = derive_rng(_BIG_SEED, 0).choice(12, size=5, replace=False)
    got = subsample(ds, 5, _BIG_SEED)
    assert got.labels == tuple(ds.labels[i] for i in idx)
    assert all(a is ds.images[i] for a, i in zip(got.images, idx))


def test_model_initialize_draws_stream_zero_of_its_seed():
    spec = ModelSpec("mlp", (2, 2, 1), 3, hidden=(5,), seed=_BIG_SEED)
    rng = derive_rng(_BIG_SEED, 0)
    want = {}
    for wname, bname, fan_in, fan_out in (("fc0.W", "fc0.b", 4, 5), ("fc1.W", "fc1.b", 5, 3)):
        a = math.sqrt(6.0 / (fan_in + fan_out))
        want[wname] = rng.uniform(-a, a, size=(fan_out, fan_in))
        want[bname] = np.zeros(fan_out)
    got = Model.initialize(spec).params
    assert list(got) == list(want)
    assert all(got[k].tobytes() == want[k].tobytes() for k in want)


def test_derive_rng_negative_index():
    with pytest.raises(ValueError):
        derive_rng(0, -1)


def test_sample_uniform_cube():
    rng = derive_rng(3, 0)
    u = sample_uniform_cube(rng, (4, 4, 2))
    assert u.shape == (4, 4, 2)
    assert np.all(u >= -1.0) and np.all(u <= 1.0)
    assert np.array_equal(sample_uniform_cube(derive_rng(3, 0), (4, 4, 2)), u)


# -- the one number rule -------------------------------------------------------

_SPEC = ModelSpec("mlp", (4, 4, 1), 3, hidden=(5,))


def _train_sgd(**kw):
    # the numbers are checked before the dataset, so the empty one stops every
    # accepted run before it trains
    with contextlib.suppress(EmptyDataset):
        train_sgd(_SPEC, LabeledDataset((), (), 3), **kw)


def _generate(**kw):
    # no classes (or, at the classes site, no examples): every accepted run stops
    # at EmptyDataset after the numbers are checked, before any template is drawn
    with contextlib.suppress(EmptyDataset):
        generate_synthetic(**{"classes": 0, "per_class": 0, **kw})


def _subsample(n):
    with contextlib.suppress(TooFew):   # more than its one example
        subsample(LabeledDataset((np.zeros((2, 2, 1)),), (0,), 2), n, 0)


# site: (a call that takes one value and runs nothing, the name the refusal
# gives, the least value, whether 2**31 and up is refused)
_INT_SITES = {
    "AttackConfig.iters": (lambda v: AttackConfig(iters=v), "iters", 1, True),
    "AttackConfig.seed": (lambda v: AttackConfig(seed=v), "seed", 0, False),
    "SamplingSpec.count": (lambda v: SamplingSpec(count=v), "count", 1, True),
    "TransformConfig.tim_kernel_size": (lambda v: TransformConfig(tim_kernel_size=v),
                                        "tim_kernel_size", 1, True),
    "TransformConfig.sim_copies": (lambda v: TransformConfig(sim_copies=v), "sim_copies", 1,
                                   True),
    "TransformConfig.dim_resize_low": (lambda v: TransformConfig(dim_resize_low=v),
                                       "dim_resize_low", 1, True),
    "TransformConfig.dim_pad_to": (lambda v: TransformConfig(dim_pad_to=v), "dim_pad_to", 1,
                                   True),
    "ModelSpec.input_shape": (lambda v: dataclasses.replace(_SPEC, input_shape=(4, v, 1)),
                              "input_shape[1]", 1, True),
    "ModelSpec.num_classes": (lambda v: dataclasses.replace(_SPEC, num_classes=v),
                              "num_classes", 2, True),
    "ModelSpec.hidden": (lambda v: dataclasses.replace(_SPEC, hidden=(5, v)), "hidden[1]", 1,
                         True),
    "ModelSpec.conv_channels": (lambda v: dataclasses.replace(_SPEC, conv_channels=v),
                                "conv_channels", 1, True),
    "ModelSpec.conv_kernel": (lambda v: dataclasses.replace(_SPEC, conv_kernel=v),
                              "conv_kernel", 1, True),
    "ModelSpec.seed": (lambda v: dataclasses.replace(_SPEC, seed=v), "seed", 0, False),
    "train_sgd.epochs": (lambda v: _train_sgd(epochs=v), "epochs", 0, True),
    "train_sgd.batch": (lambda v: _train_sgd(batch=v), "batch size", 1, True),
    "train_sgd.seed": (lambda v: _train_sgd(seed=v), "seed", 0, False),
    "subsample.n": (_subsample, "n", 0, True),
    "_pmap.jobs": (lambda v: _pmap(len, [], v), "jobs", 1, True),
    "batch_width.n_items": (lambda v: batch_width(1, v), "n_items", 0, True),
    "derive_rng.seed": (lambda v: derive_rng(v, 0), "seed", 0, False),
    "derive_rng.index": (lambda v: derive_rng(0, v), "index", 0, False),
    "generate_synthetic.classes": (lambda v: _generate(classes=v), "classes", 0, True),
    "generate_synthetic.per_class": (lambda v: _generate(per_class=v), "per_class", 0, True),
    "generate_synthetic.height": (lambda v: _generate(height=v), "height", 1, True),
    "generate_synthetic.width": (lambda v: _generate(width=v), "width", 1, True),
    "generate_synthetic.channels": (lambda v: _generate(channels=v), "channels", 1, True),
    "generate_synthetic.seed": (lambda v: _generate(seed=v), "seed", 0, False),
    "LabeledDataset.class_count": (lambda v: LabeledDataset((), (), v), "class_count", 1, True),
}


def _refused_ints():
    for site, (_, name, least, bounded) in _INT_SITES.items():
        rows = [("below", least - 1), ("bool", bool(least)), ("numpy", np.int64(least)),
                ("float", float(least))]
        for why, value in rows:
            text = f"{name} must be an integer >= {least}, got {value!r}"
            yield pytest.param(site, value, text, id=f"{site}-{why}")
        if bounded:
            text = f"{name} must be an integer >= {least} and < 2**31, got {2**31}"
            yield pytest.param(site, 2**31, text, id=f"{site}-2**31")


@pytest.mark.parametrize("site, value, text", _refused_ints())
def test_number_rule_refuses_an_integer_setting(site, value, text):
    call = _INT_SITES[site][0]
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call(value)


@pytest.mark.parametrize("site", _INT_SITES)
def test_number_rule_accepts_the_least_and_the_largest_integer(site):
    call, _, least, bounded = _INT_SITES[site]
    for value in (least, 2**31 - 1) + (() if bounded else (2**31, 2**64)):
        call(value)


# site: (a call that takes one value of a real-valued setting and runs nothing, the
# name its refusal gives, whether it refuses 0 too, the least values it takes)
_FLOAT_SITES = {
    "eps": (lambda v: AttackConfig(eps=v), "eps", False, (0.0, 0)),
    "mu": (lambda v: AttackConfig(mu=v), "mu", False, (0.0, 0)),
    "eta": (lambda v: SamplingSpec(eta=v), "eta", False, (0.0, 0)),
    "generate_synthetic.noise_sigma": (lambda v: _generate(noise_sigma=v), "noise_sigma",
                                       False, (0.0, 0)),
    "generate_synthetic.contrast": (lambda v: _generate(contrast=v), "contrast", True,
                                    (5e-324,)),
    "train_sgd.lr": (lambda v: _train_sgd(lr=v), "learning rate", True, (5e-324,)),
    # below about 1.5e-162, 2 sigma^2 underflows to 0, which TransformConfig refuses itself
    "TransformConfig.tim_sigma": (lambda v: TransformConfig(tim_sigma=v), "tim_sigma", False,
                                  (1e-161,)),
}


@pytest.mark.parametrize("site", _FLOAT_SITES)
@pytest.mark.parametrize("value", [-1e-300, -math.inf, math.inf, math.nan, True,
                                   np.int64(1), "0.5"])
def test_number_rule_refuses_a_real_setting(site, value):
    _, name, strict, _ = _FLOAT_SITES[site]
    kind = f"an int or a float, got {value!r}" if type(value) not in (int, float) else (
        f"finite and {'>' if strict else '>='} 0, got {value}")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {kind}')}$"):
        _FLOAT_SITES[site][0](value)


@pytest.mark.parametrize("site", [s for s, row in _FLOAT_SITES.items() if row[2]])
def test_number_rule_refuses_zero_where_the_bound_is_open(site):
    call, name, _, _ = _FLOAT_SITES[site]
    for value in (0.0, 0, -0.0):
        text = f"{name} must be finite and > 0, got {float(value)}"
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            call(value)


@pytest.mark.parametrize("site", _FLOAT_SITES)
def test_number_rule_accepts_real_settings_from_zero_up(site):
    call, _, _, least = _FLOAT_SITES[site]
    for value in least + (1e300,):
        call(value)


def test_an_int_too_long_to_print_is_refused_by_its_size():
    # Python will not print an int of more than 4,300 digits, so the refusal
    # ended in its own "Exceeds the limit" error, which named no field
    bits = (10**5000).bit_length()
    with pytest.raises(ValueError, match=re.escape(
            f"iters must be an integer >= 1 and < 2**31, got an int of {bits} bits")):
        AttackConfig(iters=10**5000)
    with pytest.raises(ValueError, match=re.escape(
            f"seed must be an integer >= 0, got a negative int of {bits} bits")):
        derive_rng(-10**5000, 0)
    with pytest.raises(ValueError, match=re.escape(f"got {10**4299}")):   # still printable
        AttackConfig(iters=10**4299)
