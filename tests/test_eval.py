"""Evaluation harness: success rates, transfer matrices, sweeps, reports."""

import dataclasses
import hashlib
import inspect
import json
import os
import re

import numpy as np
import pytest

from advm import experiment, models
from advm.attacks import AttackConfig, attack_batch
from advm.data import LabeledDataset, generate_synthetic, subsample
from advm.errors import EmptyDataset, LabelOutOfRange
from advm.evaluate import (
    RateTable,
    _craft_and_score,
    ablation_sweep,
    attack_success_rate,
    emit_report,
    fooled,
    load_attack_set,
    save_attack_set,
)
from advm.models import EnsembleOracle, Model, ModelSpec
from advm.sampling import SamplingSpec

from conftest import QuadraticOracle, rand_pixel_image, report_rows


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
    imgs = [rand_pixel_image((4, 4, 1), seed=s) for s in (1, 2)]
    for score in (fooled, attack_success_rate):   # the rate refuses through the flags
        with pytest.raises(ValueError, match="^1 images vs 2 labels$"):
            score(ConstOracle(0), imgs[:1], [0, 1])
        with pytest.raises(ValueError, match="^2 images vs 1 labels$"):
            score(ConstOracle(0), imgs, [0])
        with pytest.raises(EmptyDataset, match="^no adversarial images to score$"):
            score(ConstOracle(0), [], [])


@pytest.mark.parametrize("n", [1, 12])
def test_scoring_takes_a_stacked_batch(n):
    # `not adv_images` raised numpy's "truth value of an array ... is ambiguous"
    imgs = [rand_pixel_image((4, 4, 1), seed=s) for s in range(n)]
    labels = [s % 3 for s in range(n)]
    assert fooled(ConstOracle(0), np.stack(imgs), labels) == fooled(ConstOracle(0), imgs, labels)
    assert (attack_success_rate(ConstOracle(0), np.stack(imgs), labels)
            == attack_success_rate(ConstOracle(0), imgs, labels))


@pytest.mark.parametrize("label", [3, -1, True, False, np.bool_(True), 1.0, "1", None])
def test_attack_success_rate_refuses_labels_outside_the_target_classes(label):
    imgs = [rand_pixel_image((4, 4, 1), seed=s) for s in (1, 2)]
    for score in (fooled, attack_success_rate):
        with pytest.raises(LabelOutOfRange, match=re.escape(
                f"label {label!r} is not an integer in [0, 3), the classes of target const")):
            score(ConstOracle(0), imgs, [0, label])


def test_attack_success_rate_takes_numpy_integer_labels():
    imgs = [rand_pixel_image((4, 4, 1), seed=s) for s in (1, 2, 3)]
    labels = [np.int64(0), np.uint8(1), np.int32(2)]
    assert attack_success_rate(ConstOracle(0), imgs, labels) == pytest.approx(2 / 3)
    assert fooled(ConstOracle(0), imgs, labels) == (False, True, True)


def test_a_table_over_numpy_integer_labels_holds_python_floats():
    # numpy-integer labels made every rate a numpy float64, and the CSV report
    # wrote np.float64(0.3333333333333333), which float() cannot read
    data = _tiny_dataset()
    data = LabeledDataset(data.images, tuple(np.int64(y) for y in data.labels), 3)
    cfg = AttackConfig(variant="ifgsm", eps=0.2, iters=2)
    m = ablation_sweep("iters", {2: cfg}, cfg, _named_quadratic("s", seed=1),
                       [_named_quadratic("t", seed=2)], data)
    assert type(m.rates[0][0]) is float
    assert [float(row["rate"]) for row in report_rows(emit_report(m, "csv"))] == [m.rates[0][0]]


@pytest.mark.parametrize("n", [1, 2, 7])
def test_the_mean_of_the_fooled_flags_is_the_success_rate(n):
    target = _named_quadratic("t", seed=4)
    imgs = [rand_pixel_image((4, 4, 1), seed=s) for s in range(n)]
    labels = [k % 3 for k in range(n)]
    flags = fooled(target, imgs, labels)
    assert len(flags) == n and all(type(f) is bool for f in flags)
    assert flags == tuple(target.predict(x) != y for x, y in zip(imgs, labels))
    rate = attack_success_rate(target, imgs, labels)
    assert type(rate) is float and (sum(flags) / n).hex() == rate.hex()


# -- the builder -------------------------------------------------------------------


def test_ablation_sweep_refuses_an_empty_dataset():
    empty = LabeledDataset(images=(), labels=(), class_count=3)
    s = _named_quadratic("s", seed=1)
    cfg = AttackConfig(variant="ifgsm")
    with pytest.raises(EmptyDataset):
        ablation_sweep("iters", {10: cfg}, cfg, s, [s], empty)


def test_ablation_sweep_refuses_labels_outside_a_target_before_attacking(monkeypatch):
    from advm import evaluate
    monkeypatch.setattr(evaluate, "attack_batch", _refuse_attack)
    narrow = ConstOracle(0, name="narrow")
    narrow.num_classes = 2
    data = _tiny_dataset()   # labels 0, 1 and 2
    cfg = AttackConfig(variant="ifgsm")
    with pytest.raises(LabelOutOfRange, match=re.escape(
            "label 2 is not an integer in [0, 2), the classes of target narrow")):
        ablation_sweep("iters", {10: cfg}, cfg, _named_quadratic("s", seed=1),
                       [ConstOracle(0), narrow], data)


def _refuse_attack(*args, **kwargs):
    raise AssertionError("attacked before checking the labels")


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_builder_scores_one_attack_batch_on_each_target(jobs):
    data = _tiny_dataset(seed=2)
    s = _named_quadratic("s", seed=1)
    targets = (_named_quadratic("t0", seed=2), ConstOracle(0), s)
    cfg = AttackConfig(variant="mifgsm", eps=0.2, iters=2, seed=3)
    advs = [r.adv for r in attack_batch(s, data.images, data.labels, cfg, jobs=1)]
    rates, flags = _craft_and_score([(s, cfg, data, targets)], jobs=jobs)
    assert flags == (tuple(fooled(t, advs, data.labels) for t in targets),)
    assert _bits(rates) == _bits((_ref_transfer_rates(s, targets, data, cfg),))


# -- the row loops the one builder replaced, kept as its references ------------------


def _ref_success_rate(target, adv_images, labels):
    wrong = sum(target.predict(img) != y for img, y in zip(adv_images, labels))
    return wrong / len(adv_images)


def _ref_transfer_rates(oracle, targets, dataset, cfg):
    results = attack_batch(oracle, dataset.images, dataset.labels, cfg, jobs=1)
    advs = [r.adv for r in results]
    return tuple(_ref_success_rate(t, advs, dataset.labels) for t in targets)


def _ref_transfer_matrix(surrogates, targets, dataset, cfg):
    return tuple(_ref_transfer_rates(o, targets, dataset, cfg) for o in surrogates)


def _ref_ablation_rates(cfgs, surrogate, targets, dataset):
    return tuple(_ref_transfer_rates(surrogate, targets, dataset, cfgs[v]) for v in sorted(cfgs))


def _ref_mean_transfer(worlds, cfgs, seeds, n_images):
    sums = dict.fromkeys(cfgs, 0.0)
    for seed, world in zip(seeds, worlds):
        sub = subsample(world.evalset, n_images, seed)
        for name, cfg in cfgs.items():
            rates = _ref_transfer_rates(world.surrogate, world.targets, sub,
                                        dataclasses.replace(cfg, seed=seed))
            sums[name] += sum(rates) / len(rates)
    return {name: total / len(seeds) for name, total in sums.items()}


def _bits(rates):
    """The exact bits of nested float rates, so equal tables compare bit for bit."""
    return [[float(r).hex() for r in row] for row in rates]


def _logistic(seed, name):
    spec = ModelSpec(arch="logistic", input_shape=(4, 4, 1), num_classes=3, seed=seed)
    return Model.initialize(spec, name=name)


def test_the_builder_tables_equal_the_reference_loops_bit_for_bit():
    data = _tiny_dataset(seed=3)
    t = _named_quadratic("t", seed=2)
    targets = [t, ConstOracle(0), t]   # a duplicate target gives a duplicate column
    # the ensemble is one surrogate, crafted on as its fused logits
    surrogates = [_named_quadratic("s", seed=1), EnsembleOracle([_logistic(3, "a"),
                                                                 _logistic(4, "b")])]
    cfg = AttackConfig(variant="mifgsm", eps=0.2, iters=2, seed=5)
    rates, _ = _craft_and_score([(o, cfg, data, targets) for o in surrogates])
    assert _bits(rates) == _bits(_ref_transfer_matrix(surrogates, targets, data, cfg))
    base = AttackConfig(variant="emifgsm", eps=0.2, iters=2, seed=5)
    cfgs = {n: dataclasses.replace(base, sampling=SamplingSpec(count=n)) for n in (3, 1, 2)}
    a = ablation_sweep("samples", cfgs, base, surrogates[1], targets, data)
    assert _bits(a.rates) == _bits(_ref_ablation_rates(cfgs, surrogates[1], targets, data))


def test_only_the_world_cache_caches():
    for builder in (experiment.build_whitebox_world, experiment.build_transfer_world):
        assert not hasattr(builder, "cache_info")
    for name in ("build_whitebox_world_cached", "build_transfer_world_cached",
                 "replicate_transfer"):
        assert not hasattr(experiment, name)
    assert [f.name for f in dataclasses.fields(experiment.WhiteboxWorld)] == ["evalset", "model"]


def _fake_world(seed):
    return "world", seed, os.getpid()


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_the_world_cache_builds_each_builder_and_seed_once(monkeypatch, jobs):
    monkeypatch.setattr(experiment, "_worlds", {})
    first = experiment._cached_worlds(_fake_world, (5, 6, 7, 5), jobs)
    assert [w[:2] for w in first] == [("world", s) for s in (5, 6, 7, 5)]
    assert first[3] is first[0]
    again = experiment._cached_worlds(_fake_world, (7, 8, 6), jobs)
    assert again[0] is first[2] and again[2] is first[1] and again[1][:2] == ("world", 8)
    assert sorted(experiment._worlds) == [(_fake_world, s) for s in (5, 6, 7, 8)]


def test_mean_transfer_builds_its_worlds_once_and_averages_them(monkeypatch):
    monkeypatch.setattr(experiment, "_worlds", {})
    built = []

    def build(seed):   # a builder patched in here never reaches a pool worker: jobs=1
        built.append(seed)
        t = _named_quadratic("t0", seed + 1)
        # a ragged study: world 4 scores on three targets, one of them twice
        targets = (t, ConstOracle(0)) + ((t,) if seed == 4 else ())
        return experiment.DeskWorld(_tiny_dataset(seed), _named_quadratic("s", seed), targets)
    monkeypatch.setattr(experiment, "build_transfer_world", build)
    cfgs = {"mi": AttackConfig(variant="mifgsm", eps=0.2, iters=2),
            "i": AttackConfig(variant="ifgsm", eps=0.1, iters=1),
            "emi": AttackConfig(variant="emifgsm", eps=0.2, iters=2,
                                sampling=SamplingSpec(count=3))}
    got, flags = experiment.mean_transfer(cfgs, seeds=(3, 5, 4), n_images=5, jobs=1)
    assert built == [3, 5, 4]
    worlds = [experiment._worlds[build, s] for s in (3, 5, 4)]
    want = _ref_mean_transfer(worlds, cfgs, (3, 5, 4), 5)
    assert list(got) == list(want) and [v.hex() for v in got.values()] == [
        v.hex() for v in want.values()]
    for name, cfg in cfgs.items():
        assert [len(per_target) for per_target in flags[name]] == [2, 2, 3]
        for seed, world, per_target in zip((3, 5, 4), worlds, flags[name]):
            sub = subsample(world.evalset, 5, seed)
            advs = [r.adv for r in attack_batch(world.surrogate, sub.images, sub.labels,
                                                dataclasses.replace(cfg, seed=seed))]
            assert per_target == tuple(fooled(t, advs, sub.labels) for t in world.targets)


def test_mean_transfer_refuses_no_seeds(monkeypatch):
    # a mean over no worlds would divide by zero
    monkeypatch.setattr(experiment, "_worlds", {})

    def build(seed):
        raise AssertionError(f"built world {seed}")
    monkeypatch.setattr(experiment, "build_transfer_world", build)
    cfgs = {"mi": AttackConfig(variant="mifgsm", eps=0.2, iters=2)}
    for seeds in ((), [], iter(())):
        with pytest.raises(ValueError, match="at least one replicate seed"):
            experiment.mean_transfer(cfgs, seeds=seeds, n_images=5)


def test_mean_transfer_refuses_no_configs(monkeypatch):
    # it built every world, then returned ({}, {})
    monkeypatch.setattr(experiment, "_worlds", {})

    def build(seed):
        raise AssertionError(f"built world {seed}")
    monkeypatch.setattr(experiment, "build_transfer_world", build)
    with pytest.raises(ValueError, match="one config"):
        experiment.mean_transfer({}, seeds=(3, 4), n_images=5)


def test_white_box_rate_equals_the_reference_loop(monkeypatch):
    monkeypatch.setattr(experiment, "_worlds", {})
    world = experiment.WhiteboxWorld(_tiny_dataset(seed=6), _named_quadratic("m", seed=6))
    monkeypatch.setattr(experiment, "build_whitebox_world", lambda seed: world)
    cfg = AttackConfig(variant="mifgsm", eps=0.2, iters=2)
    got = experiment.white_box_rate(cfg, seed=7, n_images=5, jobs=1)
    sub = subsample(world.evalset, 5, 7)
    want = _ref_transfer_rates(world.model, [world.model], sub, dataclasses.replace(cfg, seed=7))
    assert got.hex() == want[0].hex()


# -- the desk-world recipe, kept as its reference ------------------------------------

# The transfer zoo the worlds were first trained with: (name, channels, kernel,
# seed offset, per-class training window).
_REF_ZOO = (
    ("surrogate", 8, 3, 11, (0, 100)),
    ("t0", 6, 5, 22, (140, 240)),
    ("t1", 10, 3, 33, (70, 170)),
    ("t2", 12, 5, 44, (35, 135)),
)


def _ref_desk_data(seed, contrast):
    """(data, per-class train pools, evalset): each class gives its first
    DESK_TRAIN_PER_CLASS examples to a pool and the rest to the evalset."""
    e = experiment
    data = generate_synthetic(e.DESK_CLASSES, e.DESK_PER_CLASS, e.DESK_SIDE, e.DESK_SIDE, 1,
                              noise_sigma=e.DESK_NOISE, seed=seed, contrast=contrast)
    pools, eval_idx = [], []
    for start in range(0, len(data), e.DESK_PER_CLASS):
        pools.append(range(start, start + e.DESK_TRAIN_PER_CLASS))
        eval_idx.extend(range(start + e.DESK_TRAIN_PER_CLASS, start + e.DESK_PER_CLASS))
    return data, pools, data.subset(eval_idx)


def _ref_train_smallcnn(train_sgd, train, channels, kernel, seed, offset, name):
    """Init from seed*100 + offset, shuffle from seed*100 + 7."""
    e = experiment
    spec = ModelSpec("smallcnn", (e.DESK_SIDE, e.DESK_SIDE, 1), e.DESK_CLASSES,
                     conv_channels=channels, conv_kernel=kernel, seed=seed * 100 + offset)
    model, _ = train_sgd(spec, train, epochs=e.DESK_EPOCHS, lr=e.DESK_LR, batch=e.DESK_BATCH,
                         seed=seed * 100 + 7, name=name)
    return model


def _ref_whitebox_world(train_sgd, seed):
    data, pools, evalset = _ref_desk_data(seed, experiment.DESK_CONTRAST_WHITEBOX)
    train = data.subset([i for pool in pools for i in pool])
    return experiment.WhiteboxWorld(
        evalset, _ref_train_smallcnn(train_sgd, train, 8, 3, seed, 11, "whitebox"))


def _ref_transfer_world(train_sgd, seed):
    data, pools, evalset = _ref_desk_data(seed, experiment.DESK_CONTRAST_TRANSFER)
    zoo = [_ref_train_smallcnn(train_sgd, data.subset([i for pool in pools for i in pool[lo:hi]]),
                               channels, kernel, seed, offset, name)
           for name, channels, kernel, offset, (lo, hi) in _REF_ZOO]
    return experiment.DeskWorld(evalset, zoo[0], tuple(zoo[1:]))


def _recording_train_sgd(calls):
    """A train_sgd that records each call's arguments, the training images as
    one digest of their dtypes, shapes and bytes, and returns a stub model."""
    def train_sgd(*args, **kwargs):
        bound = inspect.signature(models.train_sgd).bind(*args, **kwargs)
        bound.apply_defaults()
        call = dict(bound.arguments)
        data = call.pop("dataset")
        call["images"] = _images_digest(data.images)
        call["labels"], call["class_count"] = data.labels, data.class_count
        calls.append(call)
        return ("model", len(calls)), 0.5
    return train_sgd


def _images_digest(images):
    digest = hashlib.sha256()
    for img in images:
        digest.update(f"{img.dtype}{img.shape}".encode())
        digest.update(img.tobytes())
    return digest.hexdigest()


def _evalset_key(evalset):
    # digests, not the 600 labels: pytest's diff of two long tuples takes half a minute
    labels = hashlib.sha256(repr(evalset.labels).encode()).hexdigest()
    return len(evalset), _images_digest(evalset.images), labels, evalset.class_count


@pytest.mark.parametrize("builder, reference", [
    ("build_whitebox_world", _ref_whitebox_world),
    ("build_transfer_world", _ref_transfer_world),
])
def test_both_builders_keep_the_desk_recipe(monkeypatch, builder, reference):
    # every trained byte rests on these calls: nothing is trained here
    for seed in (101, 102, 103, 104, 105):
        got_calls, want_calls = [], []
        monkeypatch.setattr(experiment, "train_sgd", _recording_train_sgd(got_calls))
        got = getattr(experiment, builder)(seed)
        want = reference(_recording_train_sgd(want_calls), seed)
        assert len(got_calls) == len(want_calls) and got_calls == want_calls
        assert [f.name for f in dataclasses.fields(got)] == [
            f.name for f in dataclasses.fields(want)]
        assert _evalset_key(got.evalset) == _evalset_key(want.evalset)
        assert dataclasses.replace(got, evalset=None) == dataclasses.replace(want, evalset=None)


# -- parameter sweeps --------------------------------------------------------------


def test_ablation_sweep_sorts_and_dedups_grid():
    data = _tiny_dataset(seed=2)
    s = _named_quadratic("s", seed=6)
    t = _named_quadratic("t", seed=7)
    base = AttackConfig(variant="emifgsm", eps=0.2, iters=2, seed=5,
                        sampling=SamplingSpec(count=1))
    cfgs = {n: dataclasses.replace(base, sampling=SamplingSpec(count=n)) for n in (3, 1, 2, 3)}
    res = ablation_sweep("samples", cfgs, base, s, [t], data)
    assert res.rows == (1, 2, 3)
    assert res.parameter == "samples"
    assert res.targets == ("t",)
    assert res.rates == _ref_ablation_rates(cfgs, s, [t], data)
    assert res.config_hash == base.config_hash() != cfgs[3].config_hash()


def test_ablation_sweep_rejects_empty_grid():
    s = _named_quadratic("s", seed=8)
    with pytest.raises(ValueError, match="nothing to craft: an empty ablation grid"):
        ablation_sweep("samples", {}, AttackConfig(), s, [s], _tiny_dataset())


def test_empty_target_list_is_refused():
    s = _named_quadratic("s", seed=9)
    with pytest.raises(ValueError, match="no target models"):
        ablation_sweep("samples", {1: AttackConfig()}, AttackConfig(), s, [], _tiny_dataset())


@pytest.mark.parametrize("rows, rates", [
    (("a", "b"), ((0.5,),)),
    (("a",), ((0.5,), (0.25,))),
    (("a", "b"), ((0.5,), ())),
    (("a", "b"), ((0.5,), (0.25, 0.75))),
])
def test_a_rate_grid_that_is_not_rows_by_targets_is_refused(rows, rates):
    # zip in emit_report dropped row "b" of a one-row grid without an error
    with pytest.raises(ValueError, match=re.escape(f"rates must be {len(rows)} rows x 1 targets")):
        RateTable(rows=rows, targets=("t",), rates=rates, n_examples=2, config_hash="x")


def test_mean_curve_hand_check():
    a = RateTable(
        rows=(1, 3, 5), targets=("t1", "t2"),
        rates=((0.1, 0.3), (0.2, 0.4), (0.3, 0.5)),
        n_examples=10, config_hash="f" * 12, parameter="samples",
    )
    assert a.mean_curve() == (
        pytest.approx(0.2), pytest.approx(0.3), pytest.approx(0.4)
    )


# -- reports -----------------------------------------------------------------------


def _sample_matrix():
    return RateTable(
        rows=("s1", "t1"), targets=("t1", "t2"),
        rates=((1 / 3, 2 / 3), (0.25, 1.0)),
        n_examples=12, config_hash="abc123def456",
    )


def _sample_ablation():
    return RateTable(
        rows=(1.0, 3.0), targets=("t1", "t2"),
        rates=((0.125, 0.5), (1 / 3, 0.75)),
        n_examples=9, config_hash="0123456789ab", parameter="eta",
    )


# One table of each kind, with rates of 1/3, 0.0 and 1.0, and its exact report bytes.
_PINNED_REPORTS = {
    "matrix": (
        RateTable(rows=("s1", "t1"), targets=("t1", "t2"), rates=((1 / 3, 0.0), (1.0, 0.25)),
                  n_examples=12, config_hash="abc123def456"),
        "surrogate,target,rate,n,config_hash\n"
        "s1,t1,0.3333333333333333,12,abc123def456\n"
        "s1,t2,0.0,12,abc123def456\n"
        "t1,t1,1.0,12,abc123def456\n"
        "t1,t2,0.25,12,abc123def456\n",
        "| surrogate \\ target | t1 | t2 |\n"
        "| --- | --- | --- |\n"
        "| s1 | 33.3 | 0.0 |\n"
        "| t1 | 100.0* | 25.0 |\n"
        "\n"
        "n=12, config=abc123def456 (* = white-box)\n",
    ),
    "ablation": (
        RateTable(rows=(1.0, 3.0), targets=("t1", "t2"), rates=((0.0, 1 / 3), (1.0, 0.75)),
                  n_examples=9, config_hash="0123456789ab", parameter="eta"),
        "parameter,value,target,rate,n,config_hash\n"
        "eta,1.0,t1,0.0,9,0123456789ab\n"
        "eta,1.0,t2,0.3333333333333333,9,0123456789ab\n"
        "eta,3.0,t1,1.0,9,0123456789ab\n"
        "eta,3.0,t2,0.75,9,0123456789ab\n",
        "| target \\ eta | 1.0 | 3.0 |\n"
        "| --- | --- | --- |\n"
        "| t1 | 0.0 | 100.0 |\n"
        "| t2 | 33.3 | 75.0 |\n"
        "| mean | 16.7 | 87.5 |\n"
        "\n"
        "n=9, config=0123456789ab\n",
    ),
}


@pytest.mark.parametrize("kind", list(_PINNED_REPORTS))
def test_report_bytes_are_pinned(kind):
    table, csv_text, markdown = _PINNED_REPORTS[kind]
    assert emit_report(table, "csv") == csv_text
    assert emit_report(table, "markdown") == markdown
    # repr rates: float() of each cell is the table's number, bit for bit
    cells = [r for row in table.rates for r in row]
    assert [float(row["rate"]).hex() for row in report_rows(csv_text)] == [r.hex() for r in cells]


def test_csv_report_refuses_a_repeated_row_or_target_name():
    # a reader can only key each line by its (row, target) names, so a table that
    # repeats one would be written as a report whose cells it could not tell apart
    m = dataclasses.replace(_sample_matrix(), rows=("s0",), targets=("t0", "t0"),
                            rates=((0.5, 0.5),))
    with pytest.raises(ValueError, match="target 't0' appears twice"):
        emit_report(m, "csv")
    assert emit_report(m, "markdown").splitlines()[0] == "| surrogate \\ target | t0 | t0 |"
    twice = dataclasses.replace(_sample_matrix(), rows=("s1", "s1"))
    with pytest.raises(ValueError, match="row 's1' appears twice"):
        emit_report(twice, "csv")
    ablation = dataclasses.replace(_sample_ablation(), rows=(3.0, "3.0"))   # one written text
    with pytest.raises(ValueError, match="row '3.0' appears twice"):
        emit_report(ablation, "csv")


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


# -- attack sets -------------------------------------------------------------------


def test_attack_set_round_trip_is_exact(tmp_path):
    data = _tiny_dataset()
    cfg = AttackConfig(variant="mifgsm", iters=2, seed=5)
    results = attack_batch(_named_quadratic("q", 1), data.images, data.labels, cfg)
    save_attack_set(str(tmp_path), cfg, ["q"], data.labels, results)
    manifest, images = load_attack_set(str(tmp_path))
    assert [img.tobytes() for img in images] == [r.adv.tobytes() for r in results]
    with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
        assert manifest == json.load(fh)
    assert manifest == {
        "format": "advm-advset", "version": 1,
        "config": json.loads(json.dumps(dataclasses.asdict(cfg))),
        "config_hash": cfg.config_hash(), "count": 6,
        "files": [f"adv_{i:05d}.emtn" for i in range(6)], "labels": list(data.labels),
        "surrogates": ["q"], "white_box": [bool(r.white_box_success) for r in results],
    }


def test_an_attack_set_without_examples_is_an_empty_dataset_naming_its_manifest(tmp_path):
    path = str(tmp_path / "manifest.json")
    with pytest.raises(EmptyDataset, match=re.escape(f"no adversarial examples: {path} missing")):
        load_attack_set(str(tmp_path))
    # save_attack_set refuses no examples, so this manifest is written by hand
    cfg = AttackConfig()
    manifest = {"format": "advm-advset", "version": 1, "config": dataclasses.asdict(cfg),
                "config_hash": cfg.config_hash(), "count": 0, "files": [], "labels": [],
                "surrogates": ["q"], "white_box": []}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(EmptyDataset, match=re.escape(f"no adversarial examples in the manifest "
                                                     f"{path}")):
        load_attack_set(str(tmp_path))


def _set_files(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_attack_set_labels_are_written_as_python_ints(tmp_path):
    # a numpy label array raised a TypeError from json after the old set was gone
    data = _tiny_dataset()
    cfg = AttackConfig(variant="mifgsm", iters=2)
    results = attack_batch(_named_quadratic("q", 1), data.images, data.labels, cfg)
    save_attack_set(str(tmp_path / "a"), cfg, ["q"], data.labels, results)
    save_attack_set(str(tmp_path / "b"), cfg, ["q"], np.array(data.labels), results)
    assert _set_files(tmp_path / "a") == _set_files(tmp_path / "b")


@pytest.mark.parametrize("surrogates, labels, n, error, text", [
    (["m"], [True, 1], 2, LabelOutOfRange, "label True is not an integer"),
    (["m"], [1.0, 1], 2, LabelOutOfRange, "label 1.0 is not an integer"),
    (["m"], [-1, 1], 2, LabelOutOfRange, "label -1 is not an integer"),
    (["m"], [2**31, 1], 2, LabelOutOfRange, "label 2147483648 is not an integer"),
    (["m"], [1], 2, ValueError, "1 labels vs 2 results"),
    (["m"], [], 0, EmptyDataset, "no adversarial examples to save"),
    ([], [0, 1], 2, ValueError, "surrogates must be a non-empty list of model names"),
    ([""], [0, 1], 2, ValueError, "surrogates must be a non-empty list of model names"),
    (["m", 3], [0, 1], 2, ValueError, "surrogates must be a non-empty list of model names"),
    ("m", [0, 1], 2, ValueError, "surrogates must be a non-empty list of model names"),
], ids=["bool", "float", "negative", "2**31", "short", "none", "no-surrogate", "empty-name",
        "int-name", "str"])
def test_a_set_load_would_refuse_is_refused_before_the_old_set_is_touched(
        tmp_path, surrogates, labels, n, error, text):
    data = _tiny_dataset()
    cfg = AttackConfig(variant="mifgsm", iters=2)
    results = attack_batch(_named_quadratic("q", 1), data.images, data.labels, cfg)
    save_attack_set(str(tmp_path), cfg, ["q"], data.labels, results)
    before = _set_files(tmp_path)
    with pytest.raises(error, match=re.escape(text)):
        save_attack_set(str(tmp_path), cfg, surrogates, labels, results[:n])
    assert _set_files(tmp_path) == before
    assert load_attack_set(str(tmp_path))[0]["labels"] == list(data.labels)
