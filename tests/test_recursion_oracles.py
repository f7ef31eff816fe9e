"""Every attack recursion vs an independent straight-line reference.

The engine runs with a StepRecorder as its observer; the references in
reference_recursions.py spell out the same update equations from scratch.
Randomized variants replay the engine's recorded draws through the
reference, so both sides see identical sampled values without sharing code.
"""

import numpy as np
import pytest

from advm.attacks import AttackConfig, run_attack
from advm.sampling import SamplingSpec, make_rng

from conftest import SinusoidOracle, observed, rand_pixel_image
from reference_recursions import (
    RecordingRNG,
    linear_grid,
    ref_emifgsm,
    ref_enifgsm,
    ref_erifgsm,
    ref_fgsm,
    ref_ifgsm,
    ref_mifgsm,
    ref_nifgsm,
    ref_pifgsm,
)

TOL = 1e-12
SHAPES = [(1, 1, 1), (1, 2, 1)]


def _close(a, b):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= TOL


def _compare(run, ref):
    res, steps = run
    assert len(steps) == len(ref["xs"])
    _close(res.adv, ref["adv"])
    for got, want in zip(res.loss_trace, ref["losses"]):
        assert abs(got - want) <= TOL
    for st, i in zip(steps, range(len(ref["xs"]))):
        _close(st.x, ref["xs"][i])
        if "gs" in ref:
            _close(st.g, ref["gs"][i])
        if "gbars" in ref:
            _close(st.gbar, ref["gbars"][i])
        if "g_prevs" in ref:   # pifgsm steps ahead along the previous gbar
            _close(st.gbar, ref["g_prevs"][i])


@pytest.mark.parametrize("shape", SHAPES)
def test_fgsm_against_reference(shape):
    oracle = SinusoidOracle(shape, seed=31)
    x = rand_pixel_image(shape, seed=80)
    run = observed(oracle, x, 1, AttackConfig(variant="fgsm", eps=0.3, iters=1))
    _compare(run, ref_fgsm(oracle, x, 1, 0.3))
    # a fgsm config at the default iters=10 takes the same single step
    _close(run_attack(oracle, x, 1, AttackConfig(variant="fgsm", eps=0.3)).adv, run[0].adv)


@pytest.mark.parametrize("shape", SHAPES)
def test_ifgsm_against_reference(shape):
    oracle = SinusoidOracle(shape, seed=32)
    x = rand_pixel_image(shape, seed=81)
    cfg = AttackConfig(variant="ifgsm", eps=0.3, iters=3)
    run = observed(oracle, x, 1, cfg)
    _compare(run, ref_ifgsm(oracle, x, 1, 0.3, 3))


@pytest.mark.parametrize("shape", SHAPES)
def test_mifgsm_against_reference(shape):
    oracle = SinusoidOracle(shape, seed=33)
    x = rand_pixel_image(shape, seed=82)
    cfg = AttackConfig(variant="mifgsm", eps=0.3, iters=3, mu=0.8)
    run = observed(oracle, x, 2, cfg)
    _compare(run, ref_mifgsm(oracle, x, 2, 0.3, 3, 0.8))


@pytest.mark.parametrize("shape", SHAPES)
def test_nifgsm_against_reference(shape):
    oracle = SinusoidOracle(shape, seed=34)
    x = rand_pixel_image(shape, seed=83)
    cfg = AttackConfig(variant="nifgsm", eps=0.3, iters=3, mu=0.8)
    run = observed(oracle, x, 0, cfg)
    _compare(run, ref_nifgsm(oracle, x, 0, 0.3, 3, 0.8))


@pytest.mark.parametrize("shape", SHAPES)
def test_pifgsm_against_reference(shape):
    oracle = SinusoidOracle(shape, seed=35)
    x = rand_pixel_image(shape, seed=84)
    cfg = AttackConfig(variant="pifgsm", eps=0.3, iters=3, mu=0.8)
    run = observed(oracle, x, 1, cfg)
    _compare(run, ref_pifgsm(oracle, x, 1, 0.3, 3, 0.8))


@pytest.mark.parametrize("shape", SHAPES)
def test_emifgsm_linear_against_reference(shape):
    # linear coefficients are draw-free, so no ledger is needed
    oracle = SinusoidOracle(shape, seed=36)
    x = rand_pixel_image(shape, seed=85)
    cfg = AttackConfig(variant="emifgsm", eps=0.3, iters=3, mu=0.8,
                       sampling=SamplingSpec(method="linear", count=3, eta=2.0))
    run = observed(oracle, x, 1, cfg)
    grid = linear_grid(3, 2.0)
    ref = ref_emifgsm(oracle, x, 1, 0.3, 3, 0.8, lambda t: grid)
    _compare(run, ref)


@pytest.mark.parametrize("shape", SHAPES)
def test_enifgsm_linear_against_reference(shape):
    oracle = SinusoidOracle(shape, seed=37)
    x = rand_pixel_image(shape, seed=86)
    cfg = AttackConfig(variant="enifgsm", eps=0.3, iters=3, mu=0.8,
                       sampling=SamplingSpec(method="linear", count=3, eta=2.0))
    run = observed(oracle, x, 2, cfg)
    grid = linear_grid(3, 2.0)
    ref = ref_enifgsm(oracle, x, 2, 0.3, 3, 0.8, lambda t: grid)
    _compare(run, ref)


@pytest.mark.parametrize("shape", SHAPES)
def test_emifgsm_uniform_against_reference_via_ledger(shape):
    oracle = SinusoidOracle(shape, seed=38)
    x = rand_pixel_image(shape, seed=87)
    cfg = AttackConfig(variant="emifgsm", eps=0.3, iters=3, mu=0.8,
                       sampling=SamplingSpec(method="uniform", count=3, eta=1.5))
    ledger = RecordingRNG(make_rng(91))
    run = observed(oracle, x, 1, cfg, ledger)
    assert len(ledger.log) == 3          # one (3,) coefficient draw per step
    assert all(entry.shape == (3,) for entry in ledger.log)
    assert all(np.max(np.abs(entry)) <= 1.5 for entry in ledger.log)
    ref = ref_emifgsm(oracle, x, 1, 0.3, 3, 0.8, lambda t: ledger.log[t])
    _compare(run, ref)


@pytest.mark.parametrize("shape", SHAPES)
def test_enifgsm_uniform_against_reference_via_ledger(shape):
    oracle = SinusoidOracle(shape, seed=39)
    x = rand_pixel_image(shape, seed=88)
    cfg = AttackConfig(variant="enifgsm", eps=0.3, iters=3, mu=0.8,
                       sampling=SamplingSpec(method="uniform", count=2, eta=1.0))
    ledger = RecordingRNG(make_rng(92))
    run = observed(oracle, x, 0, cfg, ledger)
    assert len(ledger.log) == 3
    ref = ref_enifgsm(oracle, x, 0, 0.3, 3, 0.8, lambda t: ledger.log[t])
    _compare(run, ref)


@pytest.mark.parametrize("shape", SHAPES)
def test_erifgsm_against_reference_via_ledger(shape):
    oracle = SinusoidOracle(shape, seed=40)
    x = rand_pixel_image(shape, seed=89)
    n = 2
    cfg = AttackConfig(variant="erifgsm", eps=0.3, iters=3, mu=0.8,
                       sampling=SamplingSpec(count=n))
    ledger = RecordingRNG(make_rng(93))
    run = observed(oracle, x, 1, cfg, ledger)
    assert len(ledger.log) == 3 * n       # one cube draw per point per step
    assert all(entry.shape == shape for entry in ledger.log)
    ref = ref_erifgsm(
        oracle, x, 1, 0.3, 3, 0.8,
        lambda t: ledger.log[t * n:(t + 1) * n],
    )
    _compare(run, ref)
