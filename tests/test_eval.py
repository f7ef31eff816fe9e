"""Evaluation harness: success rates, transfer matrices, sweeps, reports."""

import numpy as np
import pytest

from advm.attacks import AttackConfig
from advm.data import LabeledDataset, generate_synthetic
from advm.errors import EmptyDataset, UnknownParameter
from advm.evaluate import (
    AblationResult,
    TransferMatrix,
    ablation_sweep,
    apply_parameter,
    attack_success_rate,
    emit_report,
    parse_report_csv,
    transfer_matrix,
)
from advm.sampling import SamplingSpec

from conftest import QuadraticOracle, rand_pixel_image


class ConstOracle:
    """Predicts one fixed class for everything."""

    def __init__(self, cls, name="const"):
        self.cls = cls
        self.name = name
        self.num_classes = 3
        self.input_shape = (4, 4, 1)

    def predict(self, x):
        return self.cls


def _named_quadratic(name, seed):
    o = QuadraticOracle((4, 4, 1), num_classes=3, seed=seed)
    o.name = name
    return o


def _tiny_dataset(seed=0):
    return generate_synthetic(classes=3, per_class=2, height=4, width=4,
                              noise_sigma=0.05, seed=seed, contrast=0.8)


# -- success rate ------------------------------------------------------------------


def test_attack_success_rate_hand_count():
    imgs = [rand_pixel_image((4, 4, 1), seed=s) for s in (1, 2, 3)]
    # the model says 0 for everything, so labels 1 and 2 count as fooled
    assert attack_success_rate(ConstOracle(0), imgs, [0, 1, 2]) == pytest.approx(2 / 3)
    assert attack_success_rate(ConstOracle(0), imgs, [0, 0, 0]) == 0.0
    assert attack_success_rate(ConstOracle(1), imgs, [0, 0, 0]) == 1.0


def test_attack_success_rate_validation():
    imgs = [rand_pixel_image((4, 4, 1), seed=1)]
    with pytest.raises(ValueError):
        attack_success_rate(ConstOracle(0), imgs, [0, 1])
    with pytest.raises(EmptyDataset):
        attack_success_rate(ConstOracle(0), [], [])


# -- transfer matrices -------------------------------------------------------------


def test_rate_lookup_by_name():
    m = TransferMatrix(
        surrogates=("s1", "s2"), targets=("t1", "t2"),
        rates=((0.1, 0.2), (0.3, 0.4)), n_examples=10, config_hash="0" * 12,
    )
    assert m.rate("s1", "t2") == 0.2
    assert m.rate("s2", "t1") == 0.3
    with pytest.raises(ValueError):
        m.rate("s3", "t1")


def test_transfer_matrix_deterministic_and_column_structure():
    data = _tiny_dataset()
    s = _named_quadratic("s0", seed=1)
    t_dup = _named_quadratic("t0", seed=2)
    cfg = AttackConfig(variant="mifgsm", eps=0.2, iters=2, seed=5)
    m1 = transfer_matrix([s], [t_dup, t_dup], data, cfg)
    m2 = transfer_matrix([s], [t_dup, t_dup], data, cfg)
    assert m1.rates == m2.rates
    # the same target scored twice gives two identical columns
    assert m1.rates[0][0] == m1.rates[0][1]
    assert m1.surrogates == ("s0",)
    assert m1.n_examples == len(data)
    assert m1.config_hash == cfg.config_hash()
    assert m1.seed == 5


def test_transfer_matrix_ensemble_fuses_surrogates():
    # logit fusion needs real models, not the closed-form test oracles
    from advm.models import Model, ModelSpec

    data = _tiny_dataset(seed=1)
    spec = lambda s: ModelSpec(arch="logistic", input_shape=(4, 4, 1),
                               num_classes=3, seed=s)
    a = Model.initialize(spec(3), name="a")
    b = Model.initialize(spec(4), name="b")
    t = _named_quadratic("t", seed=5)
    cfg = AttackConfig(variant="ifgsm", eps=0.2, iters=2)
    m = transfer_matrix([a, b], [t], data, cfg, ensemble=True)
    assert m.surrogates == ("a+b",)
    assert len(m.rates) == 1
    plain = transfer_matrix([a, b], [t], data, cfg, ensemble=False)
    assert plain.surrogates == ("a", "b")
    assert len(plain.rates) == 2


def test_transfer_matrix_empty_dataset():
    empty = LabeledDataset(images=(), labels=(), class_count=3)
    s = _named_quadratic("s", seed=1)
    with pytest.raises(EmptyDataset):
        transfer_matrix([s], [s], empty, AttackConfig(variant="ifgsm"))


# -- parameter sweeps --------------------------------------------------------------


def test_apply_parameter_covers_every_sweepable_field():
    base = AttackConfig(variant="emifgsm", sampling=SamplingSpec(count=11, eta=7.0))
    assert apply_parameter(base, "samples", 5).sampling.count == 5
    assert apply_parameter(base, "eta", 3.0).sampling.eta == 3.0
    assert apply_parameter(base, "sampling_method", "uniform").sampling.method == "uniform"
    assert apply_parameter(base, "mu", 0.5).mu == 0.5
    assert apply_parameter(base, "iters", 4).iters == 4
    assert apply_parameter(base, "eps", 0.1).eps == 0.1
    # everything not swept stays put
    assert apply_parameter(base, "eta", 3.0).sampling.count == 11


def test_apply_parameter_rejects_unknown():
    with pytest.raises(UnknownParameter) as exc:
        apply_parameter(AttackConfig(), "alpha", 1)
    assert "samples" in str(exc.value)


def test_ablation_sweep_sorts_and_dedups_grid():
    data = _tiny_dataset(seed=2)
    s = _named_quadratic("s", seed=6)
    t = _named_quadratic("t", seed=7)
    base = AttackConfig(variant="emifgsm", eps=0.2, iters=2,
                        sampling=SamplingSpec(count=1))
    res = ablation_sweep("samples", [3, 1, 3], base, s, [t], data)
    assert res.grid == (1, 3)
    assert res.parameter == "samples"
    assert res.targets == ("t",)
    assert len(res.curves) == 1 and len(res.curves[0]) == 2
    assert res.config_hash == base.config_hash()


def test_ablation_sweep_rejects_empty_grid():
    s = _named_quadratic("s", seed=8)
    with pytest.raises(ValueError):
        ablation_sweep("samples", [], AttackConfig(), s, [s], _tiny_dataset())


def test_empty_target_list_is_refused():
    s = _named_quadratic("s", seed=9)
    with pytest.raises(ValueError, match="no target models"):
        ablation_sweep("samples", [1], AttackConfig(), s, [], _tiny_dataset())
    with pytest.raises(ValueError, match="no target models"):
        transfer_matrix([s], [], _tiny_dataset(), AttackConfig(variant="ifgsm"))


def test_mean_curve_hand_check():
    a = AblationResult(
        parameter="samples", grid=(1, 3, 5), targets=("t1", "t2"),
        curves=((0.1, 0.2, 0.3), (0.3, 0.4, 0.5)),
        n_examples=10, config_hash="f" * 12,
    )
    assert a.mean_curve() == (
        pytest.approx(0.2), pytest.approx(0.3), pytest.approx(0.4)
    )


# -- reports -----------------------------------------------------------------------


def _sample_matrix():
    return TransferMatrix(
        surrogates=("s1", "t1"), targets=("t1", "t2"),
        rates=((1 / 3, 2 / 3), (0.25, 1.0)),
        n_examples=12, config_hash="abc123def456",
    )


def _sample_ablation():
    return AblationResult(
        parameter="eta", grid=(1.0, 3.0), targets=("t1", "t2"),
        curves=((0.125, 1 / 3), (0.5, 0.75)),
        n_examples=9, config_hash="0123456789ab",
    )


def test_matrix_csv_roundtrip_is_exact():
    m = _sample_matrix()
    text = emit_report(m, "csv")
    assert text.splitlines()[0] == "surrogate,target,rate,n,config_hash"
    back = parse_report_csv(text)
    assert isinstance(back, TransferMatrix)
    assert back.rate("s1", "t1") == 1 / 3          # repr floats parse back exactly
    assert back.surrogates == m.surrogates and back.targets == m.targets
    assert back.n_examples == 12 and back.config_hash == "abc123def456"
    assert emit_report(back, "csv") == text


def test_ablation_csv_roundtrip_is_stable():
    a = _sample_ablation()
    text = emit_report(a, "csv")
    assert text.splitlines()[0] == "parameter,value,target,rate,n,config_hash"
    back = parse_report_csv(text)
    assert isinstance(back, AblationResult)
    assert back.parameter == "eta"
    # grid values come back as strings, but a second emit is identical text
    assert back.grid == ("1.0", "3.0")
    assert back.curves[0][1] == 1 / 3
    assert emit_report(back, "csv") == text


def test_matrix_markdown_marks_white_box_cells():
    text = emit_report(_sample_matrix(), "markdown")
    lines = text.splitlines()
    assert lines[0] == "| surrogate \\ target | t1 | t2 |"
    assert "| s1 | 33.3 | 66.7 |" in lines
    assert "| t1 | 25.0* | 100.0 |" in lines      # s == t gets the star
    assert lines[-1] == "n=12, config=abc123def456 (* = white-box)"


def test_ablation_markdown_has_mean_row():
    text = emit_report(_sample_ablation(), "markdown")
    lines = text.splitlines()
    assert lines[0] == "| target \\ eta | 1.0 | 3.0 |"
    assert "| t1 | 12.5 | 33.3 |" in lines
    assert "| mean | 31.2 | 54.2 |" in lines      # (12.5+50)/2, (33.3+75)/2
    assert lines[-1] == "n=9, config=0123456789ab"


def test_report_errors():
    with pytest.raises(ValueError):
        emit_report(_sample_matrix(), "html")
    with pytest.raises(TypeError):
        emit_report(42, "csv")
    with pytest.raises(ValueError):
        parse_report_csv("")
    with pytest.raises(ValueError):
        parse_report_csv("who,what\n1,2\n")
    with pytest.raises(ValueError):
        parse_report_csv("surrogate,target,rate,n,config_hash\n")
    matrix = "surrogate,target,rate,n,config_hash\n"
    ablation = "parameter,value,target,rate,n,config_hash\n"
    for text, message in [
        # a (row, target) cell is missing
        (matrix + "s1,t1,0.5,4,h\ns1,t2,0.5,4,h\ns2,t1,0.5,4,h\n", "no rate"),
        (ablation + "eta,1.0,t1,0.5,4,h\neta,3.0,t2,0.5,4,h\n", "no rate"),
        # rows disagree on n, config_hash or the swept parameter
        (matrix + "s1,t1,0.5,4,h\ns1,t2,0.5,5,h\n", "disagree"),
        (matrix + "s1,t1,0.5,4,h\ns1,t2,0.5,4,g\n", "disagree"),
        (ablation + "eta,1.0,t1,0.5,4,h\nmu,1.0,t2,0.5,4,h\n", "disagree"),
        # a cell appears twice
        (matrix + "s1,t1,0.5,4,h\ns1,t1,0.25,4,h\n", "duplicate"),
        (ablation + "eta,1.0,t1,0.5,4,h\neta,1.0,t1,0.5,4,h\n", "duplicate"),
        # a row of the wrong width
        (matrix + "s1,t1,0.5,4\n", "fields"),
        (matrix + "eta,s1,t1,0.5,4,h\n", "fields"),
    ]:
        with pytest.raises(ValueError, match=message):
            parse_report_csv(text)
