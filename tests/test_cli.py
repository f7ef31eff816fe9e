"""Command-line interface: parsing, the option table, and end-to-end runs."""

import errno
import functools
import json
import os
import pathlib
import re
import shutil
import struct
import subprocess
import sys
import warnings

import click
import numpy as np
import pytest
from click.testing import CliRunner

from advm.attacks import AttackConfig
from advm.cli import (
    _ATTACK_OPTIONS,
    _SWEEPABLE,
    load_dataset,
    load_models,
    main,
    parse_attack_name,
    parse_eps,
    resolve_attack_config,
)
from advm.evaluate import _ADVSET_FIELDS, load_attack_set
from advm.models import load_model
from advm.sampling import SamplingSpec
from advm.transforms import TransformConfig

from conftest import (MODEL_DAMAGES, decode_model, encode_model, encode_tensor, legacy_model,
                      report_rows)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One tiny trained model shared by the end-to-end tests."""
    root = tmp_path_factory.mktemp("cli")
    path = str(root / "surr.json")
    result = CliRunner().invoke(main, [
        "train", "--arch", "logistic", "--dataset", "synthetic:2x6x6:0.05",
        "--out", path, "--epochs", "2", "--seed", "3",
    ])
    assert result.exit_code == 0, result.output
    return {"root": root, "model": path}


def _cfg_from_manifest(c: dict) -> AttackConfig:
    t = dict(c["transforms"])
    t["enabled"] = tuple(t["enabled"])
    return AttackConfig(
        variant=c["variant"], eps=c["eps"], iters=c["iters"], mu=c["mu"],
        sampling=SamplingSpec(**c["sampling"]),
        transforms=TransformConfig(**t),
        normalize_sample_dir=c["normalize_sample_dir"], seed=c["seed"],
    )


# -- parsing helpers ---------------------------------------------------------------


def test_parse_eps_fraction_and_decimal():
    assert parse_eps("16/255") == 16.0 / 255.0
    assert parse_eps("0.125") == 0.125
    assert parse_eps("  8/255 ") == 8.0 / 255.0


@pytest.mark.parametrize("text", ["1/0", "abc", "16/", ""])
def test_parse_eps_rejects_malformed_text(text):
    with pytest.raises(click.BadParameter):
        parse_eps(text)


def test_parse_attack_name_normalizes_hyphens_and_case():
    assert parse_attack_name("MI-FGSM") == "mifgsm"
    assert parse_attack_name("emi-fgsm") == "emifgsm"
    assert parse_attack_name("fgsm") == "fgsm"
    with pytest.raises(click.BadParameter):
        parse_attack_name("pgd")


def test_load_dataset_synthetic_spec():
    data = load_dataset("synthetic:2x3x8", seed=1)
    assert len(data) == 6
    assert data.image_shape == (8, 8, 1)
    assert data.class_count == 2
    noiseless = load_dataset("synthetic:2x3x8:0.0", seed=1)
    assert np.array_equal(noiseless.images[0], noiseless.images[1])
    with pytest.raises(click.BadParameter):
        load_dataset("synthetic:2x3", seed=0)
    with pytest.raises(click.BadParameter):
        load_dataset("idx:only_one_path", seed=0)
    with pytest.raises(click.BadParameter):
        load_dataset("csv:whatever", seed=0)


def test_load_models_validation(tmp_path):
    with pytest.raises(click.BadParameter):
        load_models("")
    with pytest.raises(click.BadParameter):
        load_models(str(tmp_path / "nothing-*.json"))


# -- end-to-end --------------------------------------------------------------------


def test_version_flag(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "advm" in result.output and "0.1.0" in result.output


def test_train_writes_loadable_model(runner, trained):
    model = load_model(trained["model"])
    assert model.name == "surr"           # defaults to the output file stem
    assert model.spec.arch == "logistic"
    assert model.spec.seed == 3
    assert model.spec.input_shape == (6, 6, 1)


def _tree_bytes(root) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_environment_never_changes_output_bytes(runner, trained, tmp_path):
    # the seed and every option come from flags and defaults only: an
    # ADVM_<OPTION> variable for each attack option changes no output byte
    env = {"ADVM_" + flag[2:].upper().replace("-", "_"): text
           for flag, text in {**_FLAG_TEXT, "--seed": "7"}.items()}
    trees = []
    for name, run_env in (("plain", None), ("env", env)):
        root = tmp_path / name
        for argv in (["train", "--arch", "logistic", "--dataset", "synthetic:2x3x6",
                      "--out", str(root / "m.json"), "--epochs", "1"],
                     ["attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6",
                      "--num-images", "2", "--iters", "2", "--out", str(root / "adv")]):
            result = runner.invoke(main, argv, env=run_env)
            assert result.exit_code == 0, result.output
        trees.append(_tree_bytes(root))
    assert sorted(trees[0]) == ["adv/adv_00000.emtn", "adv/adv_00001.emtn",
                                "adv/manifest.json", "m.json"]
    assert trees[0] == trees[1]
    assert load_model(str(tmp_path / "env" / "m.json")).spec.seed == 0


def test_attack_writes_manifest_and_feasible_examples(runner, trained, tmp_path):
    out = str(tmp_path / "advset")
    result = runner.invoke(main, [
        "attack", "--surrogate", trained["model"],
        "--dataset", "synthetic:2x4x6:0.05",
        "--attack", "mi-fgsm", "--eps", "16/255", "--iters", "2",
        "--seed", "3", "--out", out,
    ])
    assert result.exit_code == 0, result.output
    assert "white-box success" in result.output

    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["format"] == "advm-advset"
    assert manifest["count"] == 8
    assert manifest["surrogates"] == ["surr"]
    assert len(manifest["files"]) == 8 and len(manifest["labels"]) == 8
    assert len(manifest["white_box"]) == 8

    # the stored config reproduces the run's hash exactly
    cfg = _cfg_from_manifest(manifest["config"])
    assert cfg.variant == "mifgsm"
    assert cfg.eps == 16.0 / 255.0
    assert cfg.config_hash() == manifest["config_hash"]
    assert manifest["config_hash"] in result.output

    # adversarial tensors are feasible against the regenerated originals
    data = load_dataset("synthetic:2x4x6:0.05", seed=3)
    for i, adv in enumerate(load_attack_set(out)[1]):
        assert adv.shape == (6, 6, 1)
        assert adv.min() >= 0.0 and adv.max() <= 1.0
        assert np.max(np.abs(adv - data.images[i])) <= cfg.eps + 1e-12


def test_attack_reruns_are_byte_identical(runner, trained, tmp_path):
    args = [
        "attack", "--surrogate", trained["model"],
        "--dataset", "synthetic:2x3x6:0.05",
        "--attack", "eri-fgsm", "--eps", "8/255", "--iters", "2",
        "--samples", "2", "--seed", "11",
    ]
    out_a, out_b, out_c = (str(tmp_path / d) for d in ("a", "b", "c"))
    assert runner.invoke(main, args + ["--out", out_a]).exit_code == 0
    assert runner.invoke(main, args + ["--out", out_b]).exit_code == 0
    assert runner.invoke(main, args + ["--out", out_c, "--jobs", "2"]).exit_code == 0
    with open(os.path.join(out_a, "manifest.json")) as fh:
        files = json.load(fh)["files"]
    for fname in files + ["manifest.json"]:
        with open(os.path.join(out_a, fname), "rb") as fh:
            blob = fh.read()
        for other in (out_b, out_c):
            with open(os.path.join(other, fname), "rb") as fh:
                assert fh.read() == blob, f"{other}/{fname} diverged"


def test_attack_manifest_holds_exactly_the_field_table(runner, trained, tmp_path):
    out = tmp_path / "advset"
    result = runner.invoke(main, ["attack", "--surrogate", trained["model"], "--dataset",
                                  "synthetic:2x2x6", "--iters", "1", "--out", str(out)])
    assert result.exit_code == 0, result.output
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert sorted(manifest) == sorted([*_ADVSET_FIELDS, "format", "version"])
    assert {k: type(manifest[k]) for k in _ADVSET_FIELDS} == _ADVSET_FIELDS


@pytest.fixture(scope="module")
def advset(trained):
    out = str(trained["root"] / "advset-eval")
    result = CliRunner().invoke(main, [
        "attack", "--surrogate", trained["model"],
        "--dataset", "synthetic:2x4x6:0.05",
        "--attack", "mi-fgsm", "--eps", "16/255", "--iters", "2",
        "--seed", "3", "--out", out,
    ])
    assert result.exit_code == 0, result.output
    return out


def test_eval_rates_match_manifest_white_box(runner, trained, advset):
    result = runner.invoke(main, ["eval", "--adv", advset,
                                  "--targets", trained["model"]])
    assert result.exit_code == 0, result.output
    (row,) = report_rows(result.output)
    assert list(row) == ["surrogate", "target", "rate", "n", "config_hash"]
    assert (row["surrogate"], row["target"]) == ("surr", "surr")
    with open(os.path.join(advset, "manifest.json")) as fh:
        manifest = json.load(fh)
    # scoring the surrogate itself reproduces the crafting-time flags
    assert float(row["rate"]) == (
        sum(manifest["white_box"]) / manifest["count"]
    )


def test_eval_accepts_glob_targets_and_writes_file(runner, trained, advset, tmp_path):
    out_path = str(tmp_path / "matrix.csv")
    pattern = str(trained["root"] / "*.json")
    result = runner.invoke(main, ["eval", "--adv", advset, "--targets", pattern,
                                  "--out", out_path])
    assert result.exit_code == 0, result.output
    with open(out_path) as fh:
        assert fh.readline() == "surrogate,target,rate,n,config_hash\n"


def test_eval_missing_manifest_is_an_error(runner, trained, tmp_path):
    result = runner.invoke(main, ["eval", "--adv", str(tmp_path),
                                  "--targets", trained["model"]])
    assert result.exit_code != 0
    assert "no adversarial examples" in result.output


def test_eval_empty_manifest_is_an_error(runner, trained, tmp_path):
    with open(tmp_path / "manifest.json", "w") as fh:
        json.dump({"format": "advm-advset", "version": 1,
                   "count": 0, "files": [], "labels": [], "surrogates": ["s"],
                   "white_box": [], "config_hash": "0" * 12, "config": {}}, fh)
    result = runner.invoke(main, ["eval", "--adv", str(tmp_path),
                                  "--targets", trained["model"]])
    assert result.exit_code != 0
    assert "no adversarial examples" in result.output


def test_ablate_sweeps_sample_count(runner, trained, tmp_path):
    out_path = str(tmp_path / "sweep.csv")
    result = runner.invoke(main, [
        "ablate", "--param", "samples", "--grid", "3,1,3",
        "--attack", "emi-fgsm", "--eps", "16/255", "--iters", "2",
        "--surrogate", trained["model"], "--targets", trained["model"],
        "--dataset", "synthetic:2x3x6:0.05", "--seed", "3", "--out", out_path,
    ])
    assert result.exit_code == 0, result.output
    with open(out_path) as fh:
        sweep = report_rows(fh.read())
    assert {row["parameter"] for row in sweep} == {"samples"}
    assert [row["value"] for row in sweep] == ["1", "3"]
    assert {row["target"] for row in sweep} == {"surr"}


def test_attack_fgsm_records_the_single_step_it_runs(runner, trained, tmp_path):
    # the manifest said "iters": 10, under another hash than --iters 1, for the same tensors
    manifests = []
    for iters in ([], ["--iters", "1"]):
        out = tmp_path / f"fgsm{len(iters)}"
        result = runner.invoke(main, [
            "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6:0.05",
            "--attack", "fgsm", *iters, "--seed", "3", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        manifests.append((out / "manifest.json").read_bytes())
    assert json.loads(manifests[0])["config"]["iters"] == 1
    assert manifests[0] == manifests[1]


@pytest.mark.parametrize("flag", ["--mu", "--eps", "--dim-prob"])
def test_attack_records_a_negative_zero_setting_as_zero(runner, trained, tmp_path, flag):
    # -0 was stored as given: an equal config, written under another hash
    manifests = []
    for value in ("-0", "0"):
        out = tmp_path / f"zero{value}"
        result = runner.invoke(main, [
            "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6:0.05",
            "--attack", "mifgsm", "--iters", "2", flag, value, "--seed", "3", "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]


def test_ablate_iters_of_fgsm_is_one_row(runner, trained):
    # every grid value ran the same single step, and was printed as its own row
    result = runner.invoke(main, [
        "ablate", "--param", "iters", "--grid", "1,5,10", "--attack", "fgsm",
        "--surrogate", trained["model"], "--targets", trained["model"],
        "--dataset", "synthetic:2x3x6:0.05", "--seed", "3",
    ])
    assert result.exit_code == 0, result.output
    assert [row["value"] for row in report_rows(result.output)] == ["1"]


def test_ablate_refuses_labels_outside_the_target_classes(runner, tmp_path, monkeypatch):
    # labels 3-5 of a 6-class dataset always counted as fooling a 3-class
    # target, so this sweep exited 0 with rate 1.0
    from advm import evaluate
    calls, real = [], evaluate.attack_batch
    monkeypatch.setattr(evaluate, "attack_batch", lambda *a, **k: calls.append(a) or real(*a, **k))
    for name, dataset in (("surr6", "synthetic:6x10x8"), ("tgt3", "synthetic:3x10x8")):
        result = runner.invoke(main, ["train", "--arch", "logistic", "--dataset", dataset,
                                      "--out", str(tmp_path / f"{name}.json")])
        assert result.exit_code == 0, result.output
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, [
        "ablate", "--param", "mu", "--grid", "0,1", "--iters", "2",
        "--surrogate", str(tmp_path / "surr6.json"), "--targets", str(tmp_path / "tgt3.json"),
        "--dataset", "synthetic:6x10x8", "--out", str(out),
    ])
    _assert_error_wrote_nothing(result, ["LabelOutOfRange", "label 3 is not an integer in "
                                         "[0, 3), the classes of target tgt3"], out)
    assert calls == []


@pytest.mark.parametrize("command", [
    ["attack", "--attack", "i-fgsm"],
    ["ablate", "--param", "mu", "--grid", "0,1", "--targets", "{model}"],
])
def test_attack_and_ablate_refuse_labels_outside_the_surrogate_classes(
        runner, tmp_path, monkeypatch, command):
    # attack ran run_attack 30 times, then died on "label 3 outside [0, 3)",
    # which named no model
    from advm import cli, evaluate
    monkeypatch.setattr(cli, "attack_batch", _refuse_work)
    monkeypatch.setattr(evaluate, "attack_batch", _refuse_work)
    surrogate = tmp_path / "surr3.json"
    result = runner.invoke(main, ["train", "--arch", "logistic", "--dataset", "synthetic:3x10x8",
                                  "--out", str(surrogate)])
    assert result.exit_code == 0, result.output
    out = tmp_path / "out"
    result = runner.invoke(main, [
        *(a.format(model=surrogate) for a in command), "--iters", "2",
        "--surrogate", str(surrogate), "--dataset", "synthetic:6x10x8", "--out", str(out),
    ])
    _assert_error_wrote_nothing(result, ["LabelOutOfRange", "label 3 is not an integer in "
                                         "[0, 3), the classes of surrogate surr3"], out)


# -- usage errors at the boundary --------------------------------------------------


def _assert_usage_error(result, text):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert text in result.output
    assert "Traceback" not in result.output


def _past_count_limit(flag):
    """click's refusal of 10**20 on a count flag, whose type holds the size rule's bound."""
    return (f"Invalid value for '{flag}': 100000000000000000000 is not in the range "
            "1<=x<=2147483647.")


# In these tables a row whose message text changed keeps its earlier id, so each
# test keeps its name across the rewording.
@pytest.mark.parametrize("flags, text", [
    (["--eps", "1/0"], "16/255"),
    (["--eps", "abc"], "16/255"),
    (["--eps", "nan"], "eps must be finite"),
    (["--eps", "inf"], "eps must be finite"),
    (["--mu", "nan"], "mu must be finite"),
    pytest.param(["--tim-sigma", "nan"], "tim_sigma must be finite and >= 0, got nan",
                 id="flags5-tim sigma must be finite"),
    pytest.param(["--iters", "0"], "iters must be an integer >= 1, got 0",
                 id="flags6-iters must be >= 1"),
    pytest.param(["--samples", "0"], "count must be an integer >= 1, got 0",
                 id="flags7-sample count must be >= 1"),
    (["--jobs", "0"], "--jobs"),
    (["--num-images", "-3"], "--num-images"),
    (["--num-images", "0"], "--num-images"),
    (["--iters", "abc"], "'abc' is not a valid integer"),
    (["--sampling", "bogus"], "unknown sampling method"),
    (["--transforms", "dim,warp"], "unknown transform 'warp'"),
    (["--dim-resize-low", "x"], "--dim-resize-low"),
    pytest.param(["--seed", "-5"], "seed must be an integer >= 0, got -5",
                 id="flags15-seed must be >= 0"),
    pytest.param(["--dataset", "synthetic:2x3x0"], "height must be an integer >= 1, got 0",
                 id="flags16-image shape must be >= 1"),
    # taps past 2 * side - 1 never reach a pixel, yet cost size^2 floats and an SVD
    (["--transforms", "tim", "--tim-kernel-size", "13"], "13 exceeds 2 * 6 - 1 for 6x6 images"),
    pytest.param(["--dim-pad-to", "-1"], "dim_pad_to must be an integer >= 1, got -1",
                 id="flags18-pad_to must be >= 1"),   # was accepted with dim off
    # 2 sigma^2 underflowed to 0: a NaN kernel, then a LinAlgError traceback
    (["--transforms", "tim", "--tim-sigma", "1e-320"], "2 sigma^2 > 0, got 1e-320"),
    # sizes numpy cannot take ended in its traceback: np.linspace's "Maximum allowed
    # size exceeded", "array is too big", and rng.integers' "high is out of bounds"
    pytest.param(["--samples", "100000000000000000000"],
                 "count must be an integer >= 1 and < 2**31, got 100000000000000000000",
                 id="flags20-count must be < 2**31"),
    pytest.param(["--samples", "4611686018427387904"],
                 "count must be an integer >= 1 and < 2**31, got 4611686018427387904",
                 id="flags21-count must be < 2**31"),
    pytest.param(["--transforms", "dim", "--dim-pad-to", "100000000000000000000"],
                 "dim_pad_to must be an integer >= 1 and < 2**31, got 100000000000000000000",
                 id="flags22-dim_pad_to must be < 2**31"),
    # ran one image's loop without end
    (["--attack", "i-fgsm", "--iters", "100000000000000000000"],
     "iters must be an integer >= 1 and < 2**31, got 100000000000000000000"),
    # a count flag past 2**31 ended in _require_sizes' traceback, or (--jobs) was accepted
    (["--num-images", "100000000000000000000"], _past_count_limit("--num-images")),
    (["--jobs", "100000000000000000000"], _past_count_limit("--jobs")),
])
def test_attack_bad_values_are_usage_errors(runner, trained, tmp_path, flags, text):
    out = tmp_path / "advset"
    result = runner.invoke(main, [
        "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6",
        "--out", str(out), *flags,
    ])
    _assert_usage_error(result, text)
    assert not out.exists()


@pytest.mark.parametrize("flags, text", [
    (["--lr", "nan"], "must be finite and > 0"),
    (["--lr", "inf"], "must be finite and > 0"),
    (["--lr", "0"], "must be finite and > 0"),
    (["--lr", "-0.1"], "must be finite and > 0"),
    (["--batch", "0"], "--batch"),
    (["--epochs", "0"], "--epochs"),
    (["--arch", "mlp", "--hidden", "a"], "'a'"),
    (["--arch", "mlp", "--hidden", ","], "mlp needs at least one hidden width"),
    pytest.param(["--arch", "mlp", "--hidden", "64,-3"],
                 "hidden[1] must be an integer >= 1, got -3",
                 id="flags8-hidden widths must be >= 1"),
    pytest.param(["--arch", "mlp", "--hidden", "0"], "hidden[0] must be an integer >= 1, got 0",
                 id="flags9-hidden widths must be >= 1"),
    (["--arch", "smallcnn", "--conv-kernel", "4"], "conv kernel side must be odd"),
    pytest.param(["--arch", "smallcnn", "--conv-kernel", "0"],
                 "conv_kernel must be an integer >= 1, got 0", id="flags11-must be >= 1"),
    pytest.param(["--arch", "smallcnn", "--conv-kernel", "-1"],
                 "conv_kernel must be an integer >= 1, got -1", id="flags12-must be >= 1"),
    pytest.param(["--arch", "smallcnn", "--conv-channels", "-1"],
                 "conv_channels must be an integer >= 1, got -1", id="flags13-must be >= 1"),
    pytest.param(["--arch", "smallcnn", "--conv-channels", "0"],
                 "conv_channels must be an integer >= 1, got 0", id="flags14-must be >= 1"),
    (["--arch", "smallcnn", "--dataset", "synthetic:3x4x5"], "input sides must be even"),
    (["--dataset", "synthetic:3x4x6:abc"], "could not convert"),
    (["--dataset", "synthetic:3x4x6:nan"], "noise_sigma must be finite"),
    (["--dataset", "synthetic:3x4x6:-1"], "noise_sigma must be finite"),
    pytest.param(["--dataset", "synthetic:1x4x6"], "num_classes must be an integer >= 2, got 1",
                 id="flags19-need at least two classes"),
    (["--seed", "-5"], "--seed"),
    (["--dataset", "synthetic:3x4x6:0.1:junk"], "has more than one :NOISE field"),
    # logistic dropped --hidden and stored --conv-* in a header with no conv stem
    (["--hidden", "5"], "Invalid value for --hidden: only mlp reads it, not logistic"),
    (["--conv-channels", "99"], "--conv-channels: only smallcnn reads it, not logistic"),
    (["--arch", "mlp", "--conv-kernel", "4"], "--conv-kernel: only smallcnn reads it, not mlp"),
    (["--hidden", "5", "--dataset", "idx:no.idx,no.idx"], "--hidden"),   # before any load
    # widths numpy cannot allocate ended in an _ArrayMemoryError traceback from _glorot
    pytest.param(["--arch", "smallcnn", "--conv-channels", "1000000000000"],
                 "conv_channels must be an integer >= 1 and < 2**31, got 1000000000000",
                 id="flags26-conv channels and kernel side must be >= 1 and < 2**31"),
    pytest.param(["--arch", "mlp", "--hidden", "1000000000000"],
                 "hidden[0] must be an integer >= 1 and < 2**31, got 1000000000000",
                 id="flags27-hidden widths must be >= 1 and < 2**31"),
    # a count flag past 2**31 ended in _require_sizes' traceback
    (["--epochs", "100000000000000000000"], _past_count_limit("--epochs")),
    (["--batch", "100000000000000000000"], _past_count_limit("--batch")),
    # these three printed "Invalid value:" without naming the flag
    (["--dataset", "synthetic:2x2"], "Invalid value for --dataset: synthetic spec must be "
                                     "CLASSESxPER_CLASSxSIDE, got '2x2'"),
    (["--dataset", "bogus"], "Invalid value for --dataset: dataset must start with synthetic: "
                             "or idx:, got 'bogus'"),
    (["--dataset", "idx:a"], "Invalid value for --dataset: idx spec must be idx:IMAGES,LABELS"),
])
def test_train_bad_values_are_usage_errors(runner, tmp_path, flags, text):
    out = tmp_path / "m.json"
    result = runner.invoke(main, [
        "train", "--arch", "logistic", "--dataset", "synthetic:2x6x6:0.05",
        "--out", str(out), *flags,
    ])
    _assert_usage_error(result, text)
    assert not out.exists()


@pytest.mark.parametrize("spec, text", [
    ("synthetic:100000000000000000000x1x4",
     "classes must be an integer >= 0 and < 2**31, got 100000000000000000000"),
    ("synthetic:2x100000000000000000000x4",
     "per_class must be an integer >= 0 and < 2**31, got 100000000000000000000"),
    ("synthetic:2000000000x1x4",
     "classes*per_class*height*width*channels must be an integer >= 0 and < 2**31, "
     "got 32000000000"),
    # under the value bound, it drew templates for about 60 hours
    ("synthetic:2000000000x1x1", "classes must be an integer >= 0 and < 2**16, got 2000000000"),
])
def test_train_refuses_a_synthetic_count_past_the_size_bound(tmp_path, spec, text):
    # each generated templates without end; a timeout keeps a regression from hanging
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-m", "advm.cli", "train", "--arch", "logistic",
                           "--dataset", spec, "--out", str(tmp_path / "m.json")],
                          capture_output=True, text=True, env=env, timeout=30)
    assert proc.returncode == 2, proc.stderr
    errors = [line for line in proc.stderr.splitlines() if line.startswith("Error:")]
    assert errors == [f"Error: Invalid value for --dataset: {spec!r}: {text}"]
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("flags", [
    ["--dim-resize-low", "40"],                   # derived pad_to is 7 for 6-pixel images
    ["--dim-pad-to", "5"],                        # derived resize_low is the side, 6
])
def test_attack_dim_geometry_is_checked_before_attacking(runner, trained, tmp_path, flags):
    out = tmp_path / "advset"
    result = runner.invoke(main, [
        "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6",
        "--out", str(out), "--transforms", "dim,tim", *flags,
    ])
    _assert_usage_error(result, "for 6-pixel images")
    assert "exceeds pad_to" in result.output
    assert not out.exists()


def test_attack_dim_on_non_square_images_is_a_usage_error(runner, tmp_path):
    rows, cols, n = 2, 4, 6
    images, labels = tmp_path / "img.idx", tmp_path / "lbl.idx"
    images.write_bytes(struct.pack(">4i", 2051, n, rows, cols)
                       + bytes((i * 37) % 256 for i in range(n * rows * cols)))
    labels.write_bytes(struct.pack(">2i", 2049, n) + bytes([0, 1] * 3))
    dataset = f"idx:{images},{labels}"
    model = tmp_path / "m.json"
    result = runner.invoke(main, ["train", "--arch", "logistic", "--dataset", dataset,
                                  "--out", str(model), "--epochs", "1"])
    assert result.exit_code == 0, result.output
    out = tmp_path / "advset"
    result = runner.invoke(main, ["attack", "--surrogate", str(model), "--dataset", dataset,
                                  "--out", str(out), "--transforms", "dim"])
    _assert_usage_error(result, "dim needs square images, got 2x4")
    assert not out.exists()


def test_train_on_idx_with_negative_header_dims_is_an_error(runner, tmp_path):
    images, labels = tmp_path / "img.idx", tmp_path / "lbl.idx"
    images.write_bytes(struct.pack(">4i", 2051, -1, -1, 4) + bytes(4))
    labels.write_bytes(struct.pack(">2i", 2049, 4) + bytes(4))
    model = tmp_path / "m.json"
    result = runner.invoke(main, ["train", "--arch", "logistic", "--out", str(model),
                                  "--dataset", f"idx:{images},{labels}"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "CorruptFile" in result.output and "Traceback" not in result.output
    assert not model.exists()


@pytest.mark.parametrize("command", ["attack", "train"])
@pytest.mark.parametrize("rows, cols", [(0, 28), (28, 0)])
def test_idx_with_a_zero_side_is_an_error(runner, trained, tmp_path, command, rows, cols):
    # three empty images used to reach validate_image, whose t.min() raised a traceback
    images, labels = tmp_path / "img.idx", tmp_path / "lbl.idx"
    images.write_bytes(struct.pack(">4i", 2051, 3, rows, cols))
    labels.write_bytes(struct.pack(">2i", 2049, 3) + bytes(3))
    out = tmp_path / "out"
    args = (["attack", "--surrogate", trained["model"]] if command == "attack"
            else ["train", "--arch", "logistic"])
    result = runner.invoke(main, [*args, "--dataset", f"idx:{images},{labels}",
                                  "--out", str(out)])
    _assert_error_wrote_nothing(result, ["CorruptFile", str(images), f"{rows}x{cols}"], out)


def test_eval_refuses_a_target_that_declares_a_huge_shape(runner, trained, advset, tmp_path):
    bad = _edited_model(trained, tmp_path,
                        lambda d, p: d["spec"].update(input_shape=[100000, 100000, 1]))
    result = runner.invoke(main, ["eval", "--adv", advset, "--targets", bad])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "CorruptFile" in result.output and "has shape" in result.output
    assert "Traceback" not in result.output and "MemoryError" not in result.output


def test_attack_refuses_a_model_with_non_finite_parameters(runner, trained, tmp_path):
    bad = _edited_model(trained, tmp_path, lambda d, p: p["fc.b"].__setitem__(0, float("nan")))
    out = tmp_path / "advset"
    result = runner.invoke(main, [
        "attack", "--surrogate", bad, "--dataset", "synthetic:2x3x6", "--out", str(out),
    ])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "CorruptFile" in result.output and "non-finite" in result.output
    assert not out.exists()


def _edited_model(trained, tmp_path, edit):
    """A copy of the trained model file whose decoded header and parameters went
    through edit, which edits them in place or returns the copy's bytes."""
    with open(trained["model"], "rb") as fh:
        header, params = decode_model(fh.read())
    bad = tmp_path / "edited.json"
    bad.write_bytes(edit(header, params) or encode_model(header, params))
    return str(bad)


def _assert_error_wrote_nothing(result, texts, out):
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert all(text in result.output for text in texts), result.output
    assert "Traceback" not in result.output
    assert not out.exists()


def test_attack_refuses_an_ensemble_member_whose_name_is_not_a_string(runner, trained,
                                                                      tmp_path):
    bad = _edited_model(trained, tmp_path, lambda d, p: d.update(name=1))
    out = tmp_path / "advset"
    result = runner.invoke(main, [
        "attack", "--surrogate", f"{trained['model']},{bad}", "--dataset", "synthetic:2x3x6",
        "--out", str(out),
    ])
    _assert_error_wrote_nothing(result, ["CorruptFile", "model name 1 is not"], out)


def test_eval_refuses_a_target_whose_name_is_not_a_string(runner, trained, advset, tmp_path):
    bad = _edited_model(trained, tmp_path, lambda d, p: d.update(name=1))
    out = tmp_path / "report.csv"
    result = runner.invoke(main, ["eval", "--adv", advset, "--targets", bad, "--out", str(out)])
    _assert_error_wrote_nothing(result, ["CorruptFile", "model name 1 is not"], out)


@pytest.mark.parametrize("flags", [["--name", ""], ["--out", "{tmp}/"]])
def test_train_refuses_an_empty_model_name(runner, tmp_path, flags):
    flags = [f.format(tmp=tmp_path) for f in flags]
    result = runner.invoke(main, [
        "train", "--arch", "logistic", "--dataset", "synthetic:2x6x6:0.05",
        "--out", str(tmp_path / "m.json"), *flags,
    ])
    _assert_usage_error(result, "the model name must not be empty")
    assert os.listdir(tmp_path) == []


def _corrupt_payload(doc, params):
    return encode_model(doc, params)[:-3]   # cut inside the last value


def _short_payload(doc, params):
    return encode_model(doc, dict(params, **{"fc.W": params["fc.W"].reshape(-1)[:-1]}))


def _v1_manifest(doc, params):
    return legacy_model(doc, params, 1)


@pytest.mark.parametrize("edit, texts", [
    (_corrupt_payload, ["CorruptFile", "bytes, not 8 per value of fc.W"]),
    (_short_payload, ["CorruptFile", "bytes, not 8 per value of fc.W"]),
    (_v1_manifest, ["VersionMismatch", "retrain the model with `advm train`"]),
])
def test_attack_and_eval_refuse_a_bad_model_payload(runner, trained, advset, tmp_path, edit,
                                                    texts):
    bad = _edited_model(trained, tmp_path, edit)
    out = tmp_path / "advset"
    result = runner.invoke(main, [
        "attack", "--surrogate", bad, "--dataset", "synthetic:2x3x6", "--out", str(out),
    ])
    _assert_error_wrote_nothing(result, texts, out)
    out = tmp_path / "report.csv"
    result = runner.invoke(main, ["eval", "--adv", advset, "--targets", bad, "--out", str(out)])
    _assert_error_wrote_nothing(result, texts, out)


@pytest.mark.parametrize("kind", list(MODEL_DAMAGES))
def test_attack_and_eval_refuse_a_damaged_model_file(runner, trained, advset, tmp_path, kind):
    damage, error, text = MODEL_DAMAGES[kind]
    with open(trained["model"], "rb") as fh:
        data = damage(fh.read())
    bad = str(tmp_path / "damaged.json")
    with open(bad, "wb") as fh:
        fh.write(data)
    out = tmp_path / "advset"
    result = runner.invoke(main, [
        "attack", "--surrogate", bad, "--dataset", "synthetic:2x3x6", "--out", str(out),
    ])
    _assert_error_wrote_nothing(result, [error, bad, text], out)
    out = tmp_path / "report.csv"
    result = runner.invoke(main, ["eval", "--adv", advset, "--targets", bad, "--out", str(out)])
    _assert_error_wrote_nothing(result, [error, bad, text], out)


def test_attack_dim_geometry_ignored_when_dim_is_off(runner, trained, tmp_path):
    out = tmp_path / "advset"
    result = runner.invoke(main, [
        "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6",
        "--out", str(out), "--attack", "mi-fgsm", "--transforms", "tim",
        "--dim-resize-low", "40",
    ])
    assert result.exit_code == 0, result.output
    assert (out / "manifest.json").exists()


def test_ablate_dim_geometry_is_checked_before_sweeping(runner, trained, tmp_path):
    out = tmp_path / "ablation.csv"
    result = runner.invoke(main, [
        "ablate", "--surrogate", trained["model"], "--targets", trained["model"],
        "--dataset", "synthetic:2x3x6", "--param", "samples", "--grid", "1,2",
        "--transforms", "dim", "--dim-resize-low", "40", "--out", str(out),
    ])
    _assert_usage_error(result, "dim resize_low 40 exceeds pad_to 7 for 6-pixel images")
    assert not out.exists()


def test_eval_refuses_two_targets_of_one_name(runner, trained, advset, tmp_path):
    # a copy in another directory keeps its name: the report held two 'surr'
    # columns that no reader of it could tell apart
    (tmp_path / "b").mkdir()
    copy = shutil.copy(trained["model"], tmp_path / "b" / "surr.json")
    out = tmp_path / "matrix.csv"
    result = runner.invoke(main, ["eval", "--adv", advset, "--targets",
                                  f"{trained['model']},{copy}", "--out", str(out)])
    _assert_usage_error(result, "two targets are named 'surr'")
    assert not out.exists()


def test_ablate_refuses_two_targets_of_one_name(runner, trained, tmp_path, monkeypatch):
    from advm import evaluate
    monkeypatch.setattr(evaluate, "attack_batch", _refuse_work)
    out = tmp_path / "ablation.csv"
    result = runner.invoke(main, [
        "ablate", "--surrogate", trained["model"],
        "--targets", f"{trained['model']},{trained['model']}",
        "--dataset", "synthetic:2x3x6", "--param", "mu", "--grid", "0,1", "--iters", "2",
        "--out", str(out),
    ])
    _assert_usage_error(result, "two targets are named 'surr'")
    assert not out.exists()


# Non-default text for each option's flag.
_FLAG_TEXT = {
    "--attack": "ni-fgsm", "--eps": "8/255", "--iters": "3", "--mu": "0.5", "--eta": "3",
    "--samples": "5", "--sampling": "uniform", "--transforms": "tim,dim", "--dim-prob": "0.7",
    "--dim-resize-low": "5", "--dim-pad-to": "9", "--tim-kernel-size": "5",
    "--tim-sigma": "2.0", "--sim-copies": "3", "--normalize-sample-dir": "true", "--seed": "9",
}


@pytest.mark.parametrize("flag, field, parse", [r[:3] for r in _ATTACK_OPTIONS])
def test_each_flag_sets_its_field(runner, trained, tmp_path, flag, field, parse):
    configs = []
    for name, extra in (("default", []),
                        ("flag", [flag] if parse is click.BOOL else [flag, _FLAG_TEXT[flag]])):
        out = tmp_path / name
        result = runner.invoke(main, [
            "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6",
            "--num-images", "2", "--out", str(out), *extra,
        ])
        assert result.exit_code == 0, result.output
        with open(out / "manifest.json") as fh:
            configs.append(json.load(fh)["config"])
    default, by_flag = configs
    *path, name = field.split(".")
    mine, theirs = (functools.reduce(dict.get, path, config) for config in (by_flag, default))
    assert mine[name] != theirs[name]
    mine[name] = theirs[name]
    assert by_flag == default   # the flag set its own field and no other


# The flags that take a text, and texts that no option's parser and checks
# accept, each tried on one flag while every other flag holds its _FLAG_TEXT.
_TEXT_FLAGS = [row[0] for row in _ATTACK_OPTIONS if row[2] is not click.BOOL]
_BAD_FLAG_VALUES = ("x", "nan", "-1", "1e999")


@pytest.mark.parametrize("flag", _TEXT_FLAGS)
def test_a_flag_value_no_option_takes_is_refused(runner, trained, tmp_path, flag):
    for bad in (None, *_BAD_FLAG_VALUES):   # None: every flag holds its good text
        values = {f: _FLAG_TEXT[f] for f in _TEXT_FLAGS} | ({} if bad is None else {flag: bad})
        out = tmp_path / f"advset-{bad}"
        result = runner.invoke(main, [
            "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6",
            "--num-images", "2", "--out", str(out),
            *(text for pair in values.items() for text in pair),
        ])
        if bad is None:
            assert result.exit_code == 0, result.output
            continue
        _assert_usage_error(result, "Invalid value")
        assert not out.exists()


def test_dim_sides_take_auto_from_their_flags():
    assert resolve_attack_config({}) == AttackConfig()
    for side in ("dim_resize_low", "dim_pad_to"):
        for text in ("auto", "none", ""):
            assert resolve_attack_config({side: text}) == AttackConfig()


def test_readme_lists_every_attack_flag():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        flags = re.findall(r"^\| `(--[a-z-]+)` \|", fh.read(), re.MULTILINE)
    assert sorted(flags) == sorted(row[0] for row in _ATTACK_OPTIONS)


@pytest.mark.parametrize("command", [
    ["report", "--in", "{report}", "--format", "markdown"],
    ["attack", "--surrogate", "{model}", "--dataset", "synthetic:2x3x6", "--out", "adv",
     "--config", "{report}"],
], ids=["report", "attack-config"])
def test_the_retired_report_command_and_config_file_are_usage_errors(runner, trained, tmp_path,
                                                                      command):
    report = tmp_path / "matrix.csv"
    report.write_text("surrogate,target,rate,n,config_hash\ns,t,0.5,4,h\n")
    args = [a.format(report=report, model=trained["model"]) for a in command]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args)
        _assert_usage_error(result, "No such command 'report'" if command[0] == "report"
                            else "No such option '--config'")
        assert os.listdir(".") == []


# These rows keep the ids they had beside the rows of the retired --config file
# and report command.
@pytest.mark.parametrize("command, make, code", [
    pytest.param(["train", "--arch", "logistic", "--out", "m.json", "--dataset", "idx:{p},{p}"],
                 None, 1, id="command0-None-1"),
    pytest.param(["attack", "--surrogate", "{p}", "--dataset", "synthetic:2x3x6", "--out", "adv"],
                 None, 1, id="command6-None-1"),
    pytest.param(["eval", "--adv", "{advset}", "--targets", "{p}"], "dir", 1,
                 id="command7-dir-1"),
])
def test_unreadable_inputs_name_the_path(runner, trained, advset, tmp_path, command, make,
                                        code):
    path = tmp_path / "input"
    if make == "dir":
        path.mkdir()
    args = [a.format(p=path, model=trained["model"], advset=advset) for a in command]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args)
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        assert str(path) in result.output and "Traceback" not in result.output
        assert os.listdir(".") == []


@pytest.mark.parametrize("flags, text", [
    (["--param", "samples", "--grid", "1,x"], "--grid"),
    pytest.param(["--param", "iters", "--grid", "0"], "iters must be an integer >= 1, got 0",
                 id="flags1-iters must be >= 1"),
    (["--param", "eps", "--grid", "1/0"], "16/255"),
    (["--param", "samples", "--grid", ","], "no values to sweep"),
    (["--param", "samples", "--grid", "1", "--jobs", "0"], "--jobs"),
    (["--param", "samples", "--grid", "1", "--transforms", "tim", "--tim-kernel-size", "13"],
     "13 exceeds 2 * 6 - 1 for 6x6 images"),
    (["--param", "sampling_method", "--grid", "uniform"], "'sampling_method' is not one of"),
    # a count flag past 2**31 ended in _require_sizes' traceback, or (--jobs) was accepted
    (["--param", "samples", "--grid", "1", "--num-images", "100000000000000000000"],
     _past_count_limit("--num-images")),
    (["--param", "samples", "--grid", "1", "--jobs", "100000000000000000000"],
     _past_count_limit("--jobs")),
])
def test_ablate_bad_values_are_usage_errors(runner, trained, tmp_path, flags, text):
    result = runner.invoke(main, [
        "ablate", "--surrogate", trained["model"], "--targets", trained["model"],
        "--dataset", "synthetic:2x3x6", *flags,
    ])
    _assert_usage_error(result, text)


@pytest.mark.parametrize("param, flag, text", [
    ("samples", "--samples", "3"), ("samples", "--samples", "3.5"),
    ("samples", "--samples", "0"), ("eta", "--eta", "2.5"), ("eta", "--eta", "1/2"),
    ("eta", "--eta", "nan"), ("sampling", "--sampling", "uniform"),
    ("sampling", "--sampling", "bogus"), ("mu", "--mu", "0.5"), ("mu", "--mu", "1/2"),
    ("mu", "--mu", "-1"), ("iters", "--iters", "2"), ("iters", "--iters", "x"),
    ("eps", "--eps", "8/255"), ("eps", "--eps", "1/0"),
])
def test_ablate_grid_value_takes_its_flag_text(runner, trained, tmp_path, param, flag, text):
    common = ["--surrogate", trained["model"], "--dataset", "synthetic:2x3x6:0.05",
              "--num-images", "1", "--seed", "3"]
    advset = tmp_path / "advset"
    attack = runner.invoke(main, ["attack", *common, "--out", str(advset), flag, text])
    sweep_path = tmp_path / "sweep.csv"
    ablate = runner.invoke(main, ["ablate", *common, "--targets", trained["model"],
                                  "--param", param, "--grid", text, "--out", str(sweep_path)])
    assert attack.exit_code == ablate.exit_code, (attack.output, ablate.output)
    if attack.exit_code != 0:
        _assert_usage_error(attack, "Invalid value")
        _assert_usage_error(ablate, "Invalid value for --grid")
        return
    with open(advset / "manifest.json") as fh:
        value = json.load(fh)["config"]
    field = next(row[1] for row in _ATTACK_OPTIONS if row[0] == flag)
    for part in field.split("."):
        value = value[part]
    with open(sweep_path) as fh:
        assert [row["value"] for row in report_rows(fh.read())] == [str(value)]


def test_every_sweepable_parameter_is_a_flag_of_the_table():
    flags = [row[0] for row in _ATTACK_OPTIONS]
    assert len(set(_SWEEPABLE)) == len(_SWEEPABLE)
    assert {"--" + param for param in _SWEEPABLE} <= set(flags)
    assert not any("-" in param for param in _SWEEPABLE)   # each is its own click name


# -- eval manifest checks ----------------------------------------------------------


def _edit_advset(advset, tmp_path, edit):
    """A copy of the stored set with its manifest dict passed through edit."""
    copy = tmp_path / "advset"
    shutil.copytree(advset, copy)
    with open(copy / "manifest.json") as fh:
        manifest = json.load(fh)
    edit(manifest)
    with open(copy / "manifest.json", "w") as fh:
        json.dump(manifest, fh)
    return copy


@pytest.mark.parametrize("edit, text", [
    (lambda m: m.update(format="other"), "expected format advm-advset"),
    (lambda m: m.update(version=2), "expected format advm-advset"),
    (lambda m: m.update(count=m["count"] + 1), "does not match"),
    (lambda m: m["labels"].pop(), "does not match"),
    (lambda m: m.update(files=m["files"][:-1]), "does not match"),
    (lambda m: m.pop("surrogates"), "lacks surrogates"),
    (lambda m: m["files"].__setitem__(0, "../" + m["files"][0]), "not a plain file name"),
    (lambda m: m["files"].__setitem__(0, "/etc/passwd"), "not a plain file name"),
    (lambda m: m["files"].__setitem__(0, ".."), "not a plain file name"),
    (lambda m: m["files"].__setitem__(0, "missing.emtn"), "unreadable adversarial tensor"),
])
def test_eval_rejects_inconsistent_manifest(runner, trained, advset, tmp_path, edit, text):
    adv_dir = _edit_advset(advset, tmp_path, edit)
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir),
                                  "--targets", trained["model"]])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert text in result.output


def test_eval_rejects_corrupt_tensor_and_manifest(runner, trained, advset, tmp_path):
    adv_dir = _edit_advset(advset, tmp_path, lambda m: None)
    with open(adv_dir / "manifest.json") as fh:
        first = json.load(fh)["files"][0]
    (adv_dir / first).write_bytes(b"not a tensor")
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir),
                                  "--targets", trained["model"]])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert f"unreadable adversarial tensor {first}: expected b'EMTN'" in result.output
    assert str(adv_dir) not in result.output   # the file is named once, by its name

    (adv_dir / "manifest.json").write_text("{ truncated")
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir),
                                  "--targets", trained["model"]])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "unreadable manifest" in result.output


def _assert_eval_manifest_error(runner, trained, adv_dir, text):
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir),
                                  "--targets", trained["model"]])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert isinstance(result.exception.__context__, click.ClickException)
    assert text in result.output and "Traceback" not in result.output


def test_eval_refuses_surrogates_that_are_not_model_names(runner, trained, advset, tmp_path):
    adv_dir = _edit_advset(advset, tmp_path, lambda m: m.update(surrogates=[1]))
    _assert_eval_manifest_error(runner, trained, adv_dir,
                                "surrogates must be a non-empty list of model names")


@pytest.mark.parametrize("flag", ["x", 1, None])
def test_eval_refuses_white_box_flags_that_are_not_booleans(runner, trained, advset, tmp_path,
                                                            flag):
    # a list of strings as long as files used to pass eval with exit 0
    adv_dir = _edit_advset(advset, tmp_path, lambda m: m.update(white_box=[flag] * m["count"]))
    _assert_eval_manifest_error(runner, trained, adv_dir, "white_box must be a list of booleans")


def test_eval_refuses_a_config_that_is_not_an_object(runner, trained, advset, tmp_path):
    adv_dir = _edit_advset(advset, tmp_path, lambda m: m.update(config=[1]))
    _assert_eval_manifest_error(runner, trained, adv_dir, "config must be an object, got list")


def test_eval_refuses_a_boolean_count_for_a_one_file_set(runner, trained, advset, tmp_path):
    def one_file_with_count_true(m):
        m.update(count=True, files=m["files"][:1], labels=m["labels"][:1],
                 white_box=m["white_box"][:1])
    adv_dir = _edit_advset(advset, tmp_path, one_file_with_count_true)
    _assert_eval_manifest_error(runner, trained, adv_dir, "count must be an integer, got bool")


@pytest.mark.parametrize("label", [99, -1, 2, "cat", True, False, 1.0, None])
def test_eval_refuses_labels_outside_the_target_classes(runner, trained, advset, tmp_path,
                                                        label):
    adv_dir = _edit_advset(advset, tmp_path, lambda m: m["labels"].__setitem__(-1, label))
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir),
                                  "--targets", trained["model"]])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert (f"label {label!r} is not an integer in [0, 2), the classes of target surr"
            in result.output)


@pytest.mark.parametrize("edit, text", [
    (lambda t: t.__setitem__((0, 0, 0), np.nan), "non-finite"),
    (lambda t: t.__setitem__((0, 0, 0), np.inf), "non-finite"),
    (lambda t: t.fill(7.0), "outside [0, 1]"),
    (lambda t: t.__setitem__((0, 0, 0), -0.5), "outside [0, 1]"),
])
def test_eval_refuses_tensors_that_are_not_pixel_images(runner, trained, advset, tmp_path,
                                                        edit, text):
    adv_dir = _edit_advset(advset, tmp_path, lambda m: None)
    with open(adv_dir / "manifest.json") as fh:
        last = json.load(fh)["files"][-1]
    tensor = load_attack_set(str(adv_dir))[1][-1]
    edit(tensor)
    (adv_dir / last).write_bytes(encode_tensor(tensor))
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir),
                                  "--targets", trained["model"]])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert f"unreadable adversarial tensor {last}: " in result.output and text in result.output


def test_eval_refuses_a_tensor_of_the_wrong_rank(runner, trained, advset, tmp_path):
    adv_dir = _edit_advset(advset, tmp_path, lambda m: None)
    with open(adv_dir / "manifest.json") as fh:
        first = json.load(fh)["files"][0]
    (adv_dir / first).write_bytes(encode_tensor(np.full((6, 6), 0.5)))
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir),
                                  "--targets", trained["model"]])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert f"unreadable adversarial tensor {first}: expected a rank-3 array" in result.output


def test_eval_refuses_a_zero_size_tensor_by_its_shape(runner, trained, advset, tmp_path):
    adv_dir = _edit_advset(advset, tmp_path, lambda m: None)
    with open(adv_dir / "manifest.json") as fh:
        first = json.load(fh)["files"][0]
    (adv_dir / first).write_bytes(encode_tensor(np.zeros((0, 6, 1))))
    out = tmp_path / "report.csv"
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir),
                                  "--targets", trained["model"], "--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert (f"unreadable adversarial tensor {first}: expected a non-empty image, "
            f"got shape (0, 6, 1)") in result.output
    assert "Traceback" not in result.output and not out.exists()


# -- one checked manifest reader ------------------------------------------------------

_DEEP_JSON = "[" * 200000   # past Python's recursion limit: json raises RecursionError


def test_eval_refuses_a_deeply_nested_manifest(runner, trained, advset, tmp_path):
    adv_dir = _edit_advset(advset, tmp_path, lambda m: None)
    (adv_dir / "manifest.json").write_text(_DEEP_JSON)
    out = tmp_path / "report.csv"
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir), "--targets", trained["model"],
                                  "--out", str(out)])
    _assert_error_wrote_nothing(result, ["CorruptFile", "unreadable manifest", "recursion"],
                                out)


def test_attack_refuses_a_deeply_nested_surrogate(runner, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(_DEEP_JSON)
    out = tmp_path / "advset"
    result = runner.invoke(main, ["attack", "--surrogate", str(deep),
                                  "--dataset", "synthetic:2x3x6", "--out", str(out)])
    _assert_error_wrote_nothing(result, ["CorruptFile", "unreadable manifest", "recursion"],
                                out)


# -- an unwritable --out, and the widest tim kernel ------------------------------------


def _refuse_work(*args, **kwargs):
    raise AssertionError("the command started work it could not write out")


@pytest.mark.parametrize("command, out", [
    (["train", "--arch", "logistic", "--dataset", "synthetic:2x6x6"], "dir"),
    (["attack", "--surrogate", "{model}", "--dataset", "synthetic:2x3x6"], "file"),
    (["attack", "--surrogate", "{model}", "--dataset", "synthetic:2x3x6"], "file/adv"),
    (["eval", "--adv", "{advset}", "--targets", "{model}"], "dir"),
    (["ablate", "--surrogate", "{model}", "--targets", "{model}", "--dataset",
      "synthetic:2x3x6", "--param", "samples", "--grid", "1"], "dir"),
], ids=["train", "attack", "attack-under-a-file", "eval", "ablate"])
def test_unwritable_out_is_refused_before_any_work(runner, trained, advset, tmp_path,
                                                   monkeypatch, command, out):
    # train used to fail in os.replace after training, and attack in
    # os.makedirs after attacking every image, each with a traceback
    from advm import cli
    for name in ("train_sgd", "attack_batch", "ablation_sweep"):
        monkeypatch.setattr(cli, name, _refuse_work)
    work = tmp_path / "work"
    work.mkdir()
    (work / "dir").mkdir()
    (work / "file").write_text("keep")
    target = work / out
    args = [a.format(model=trained["model"], advset=advset) for a in command]
    result = runner.invoke(main, [*args, "--out", str(target)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert f"cannot write {target}" in result.output and "Traceback" not in result.output
    assert sorted(os.listdir(work)) == ["dir", "file"] and os.listdir(work / "dir") == []
    assert (work / "file").read_text() == "keep"


def test_attack_refuses_an_empty_out_before_attacking(runner, trained, tmp_path, monkeypatch):
    # os.makedirs("") used to raise FileNotFoundError after every image was attacked
    from advm import cli
    monkeypatch.setattr(cli, "attack_batch", _refuse_work)
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, ["attack", "--surrogate", trained["model"],
                                      "--dataset", "synthetic:2x3x6", "--out", ""])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
        assert "empty --out" in result.output and "Traceback" not in result.output
        assert os.listdir(".") == []


def _fail_on_call(monkeypatch, module, n):
    """Make the n-th atomic_write_bytes call of module (evaluate for an attack set's
    tensors, models for save_model) fail as a full disk does; earlier calls write."""
    real, calls = module.atomic_write_bytes, []

    def write(path, data):
        calls.append(path)
        if len(calls) == n:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        real(path, data)

    monkeypatch.setattr(module, "atomic_write_bytes", write)


@pytest.mark.parametrize("command", [
    ["attack", "--surrogate", "{model}", "--dataset", "synthetic:2x3x6", "--iters", "1"],
    ["train", "--arch", "logistic", "--dataset", "synthetic:2x3x6", "--epochs", "1"],
])
def test_a_write_that_fails_is_one_line_not_a_traceback(runner, trained, tmp_path, monkeypatch,
                                                         command):
    from advm import evaluate, models
    _fail_on_call(monkeypatch, evaluate if command[0] == "attack" else models, 1)
    out = tmp_path / "out"
    args = [a.format(model=trained["model"]) for a in command]
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert result.output.startswith(f"Error: OSError: [Errno {errno.ENOSPC}] ")
    assert len(result.output.splitlines()) == 1 and "Traceback" not in result.output


@pytest.mark.parametrize("command, work", [
    (["train", "--arch", "logistic", "--dataset", "synthetic:2x3x6"], "train_sgd"),
    (["attack", "--surrogate", "{model}", "--dataset", "synthetic:2x3x6"], "attack_batch"),
])
def test_running_out_of_memory_is_one_line_not_a_traceback(runner, trained, tmp_path,
                                                           monkeypatch, command, work):
    from advm import cli

    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")
    monkeypatch.setattr(cli, work, out_of_memory)
    args = [a.format(model=trained["model"]) for a in command]
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "out")])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert result.output == "Error: MemoryError: Unable to allocate 7.28 TiB for an array\n"


def test_an_attack_that_stops_short_leaves_no_manifest(runner, trained, tmp_path, monkeypatch):
    # the old manifest used to stay, and eval scored it, exit 0, over 3 new
    # tensors and 5 old ones under the first run's config hash
    from advm import evaluate
    out = str(tmp_path / "advset")
    args = ["attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x4x6:0.05",
            "--iters", "1", "--out", out]
    assert runner.invoke(main, [*args, "--seed", "1"]).exit_code == 0
    _fail_on_call(monkeypatch, evaluate, 4)
    result = runner.invoke(main, [*args, "--seed", "2"])
    assert result.exit_code == 1 and "No space left on device" in result.output, result.output
    assert not os.path.exists(os.path.join(out, "manifest.json"))
    result = runner.invoke(main, ["eval", "--adv", out, "--targets", trained["model"]])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    assert "no adversarial examples" in result.output


def test_a_shorter_rewrite_leaves_exactly_what_a_fresh_run_writes(runner, trained, tmp_path):
    # a 12-image set rewritten with --num-images 2 kept adv_00002 .. adv_00011
    # of the first set next to the 2 new tensors its manifest lists
    args = ["attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x6x6:0.05",
            "--iters", "1", "--seed", "4"]
    out, fresh = tmp_path / "advset", tmp_path / "fresh"
    assert runner.invoke(main, [*args, "--out", str(out)]).exit_code == 0
    assert len(list(out.iterdir())) == 13
    assert runner.invoke(main, [*args, "--num-images", "2", "--out", str(out)]).exit_code == 0
    assert runner.invoke(main, [*args, "--num-images", "2", "--out", str(fresh)]).exit_code == 0
    names = ["adv_00000.emtn", "adv_00001.emtn", "manifest.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir()) == names
    assert all((out / n).read_bytes() == (fresh / n).read_bytes() for n in names)
    # only the set's own tensor names go: any other file in --out stays
    others = ["adv_123456.emtn", "adv_0000a.emtn", "adv_00005.emtn.bak", "notes.txt"]
    for name in others:
        (out / name).write_text("kept")
    assert runner.invoke(main, [*args, "--num-images", "1", "--out", str(out)]).exit_code == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["adv_00000.emtn", "manifest.json"] + others)


def test_tiny_tim_sigma_attacks_without_a_warning(runner, trained, tmp_path):
    # 1e-161 is the smallest accepted sigma: its off-centre exponents overflow
    # to -inf; no other test builds this (7, sigma) kernel, so no cache hides a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = runner.invoke(main, [
            "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6",
            "--num-images", "2", "--iters", "2", "--transforms", "tim", "--tim-sigma", "1e-161",
            "--out", str(tmp_path / "adv"),
        ])
    assert result.exit_code == 0, result.output
    assert [str(w.message) for w in caught] == []


def test_tim_kernel_of_twice_the_side_less_one_is_accepted(runner, trained, tmp_path):
    out = tmp_path / "advset"
    result = runner.invoke(main, [
        "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6",
        "--attack", "i-fgsm", "--iters", "2", "--transforms", "tim",
        "--tim-kernel-size", "11", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    assert (out / "manifest.json").exists()
