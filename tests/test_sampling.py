"""Coefficient samplers and the deterministic stream discipline."""

import numpy as np
import pytest

from advm.sampling import (
    SamplingSpec,
    derive_rng,
    make_rng,
    sample_coefficients,
    sample_uniform_cube,
)


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
    got = sample_coefficients(SamplingSpec("linear", 11, 7.0), make_rng(0))
    want = [-7.0, -5.6, -4.2, -2.8, -1.4, 0.0, 1.4, 2.8, 4.2, 5.6, 7.0]
    assert got.shape == (11,)
    assert np.max(np.abs(got - np.array(want))) < 1e-12


def test_linear_grid_exact_zero_midpoint():
    got = sample_coefficients(SamplingSpec("linear", 11, 7.0), make_rng(0))
    assert got[5] == 0.0
    # exact mirror symmetry, endpoints included
    assert np.array_equal(got, -got[::-1])
    assert got[0] == -7.0 and got[-1] == 7.0


def test_linear_single_sample_is_exact_zero():
    got = sample_coefficients(SamplingSpec("linear", 1, 7.0), make_rng(0))
    assert np.array_equal(got, np.array([0.0]))


def test_linear_even_count():
    got = sample_coefficients(SamplingSpec("linear", 4, 6.0), make_rng(0))
    assert np.array_equal(got, np.linspace(-6.0, 6.0, 4))


def test_linear_consumes_no_draws():
    rng = make_rng(42)
    sample_coefficients(SamplingSpec("linear", 11, 7.0), rng)
    ref = make_rng(42)
    assert rng.uniform() == ref.uniform()


def test_uniform_bounds_count_determinism():
    spec = SamplingSpec("uniform", 9, 2.5)
    a = sample_coefficients(spec, make_rng(5))
    b = sample_coefficients(spec, make_rng(5))
    assert a.shape == (9,)
    assert np.all(np.abs(a) <= 2.5)
    assert np.array_equal(a, b)
    c = sample_coefficients(spec, make_rng(6))
    assert not np.array_equal(a, c)


def test_gaussian_bounds_and_determinism():
    spec = SamplingSpec("gaussian", 64, 1.0)
    a = sample_coefficients(spec, make_rng(7))
    b = sample_coefficients(spec, make_rng(7))
    assert a.shape == (64,)
    assert np.all(np.abs(a) <= 1.0)
    assert np.array_equal(a, b)
    # sigma = eta / 3: most draws fall well inside the truncation bound
    assert np.std(a) < 0.6


def test_gaussian_eta_zero_gives_zeros():
    got = sample_coefficients(SamplingSpec("gaussian", 5, 0.0), make_rng(0))
    assert np.array_equal(got, np.zeros(5))


def test_uniform_eta_zero_gives_zeros():
    got = sample_coefficients(SamplingSpec("uniform", 5, 0.0), make_rng(0))
    assert np.array_equal(got, np.zeros(5))


def test_make_rng_deterministic():
    assert make_rng(123).uniform() == make_rng(123).uniform()
    assert make_rng(123).uniform() != make_rng(124).uniform()


def test_derive_rng_streams_are_distinct_and_reproducible():
    a1 = derive_rng(5, 0).uniform(size=4)
    a2 = derive_rng(5, 0).uniform(size=4)
    b = derive_rng(5, 1).uniform(size=4)
    c = derive_rng(6, 0).uniform(size=4)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)


def test_derive_rng_index_zero_aliases_flat_stream():
    # numpy SeedSequence drops trailing zero entropy words, so stream #0
    # coincides with make_rng(seed); later streams are all distinct from it
    assert derive_rng(5, 0).uniform() == make_rng(5).uniform()
    assert derive_rng(5, 1).uniform() != make_rng(5).uniform()


def test_derive_rng_negative_index():
    with pytest.raises(ValueError):
        derive_rng(0, -1)


def test_sample_uniform_cube():
    rng = make_rng(3)
    u = sample_uniform_cube(rng, (4, 4, 2))
    assert u.shape == (4, 4, 2)
    assert np.all(u >= -1.0) and np.all(u <= 1.0)
    assert np.array_equal(sample_uniform_cube(make_rng(3), (4, 4, 2)), u)
