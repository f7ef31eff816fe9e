"""Command-line interface: parsing, precedence, and end-to-end runs."""

import json
import os
import re
import shutil
import struct

import click
import numpy as np
import pytest
from click.testing import CliRunner

from advm.attacks import AttackConfig
from advm.cli import (
    _ATTACK_OPTIONS,
    load_dataset,
    load_models,
    main,
    parse_attack_name,
    parse_eps,
    read_config_file,
    resolve_attack_config,
)
from advm.evaluate import SWEEPABLE, AblationResult, TransferMatrix, parse_report_csv
from advm.models import load_model
from advm.sampling import SamplingSpec
from advm.tensor import load_tensor, save_tensor
from advm.transforms import TransformConfig


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


def test_read_config_file(tmp_path):
    p = tmp_path / "atk.cfg"
    p.write_text(
        "# crafting defaults\n"
        "attack = ni-fgsm\n"
        "iters = 3   # flags still win\n"
        "tim.kernel_size = 5\n"
        "\n"
    )
    assert read_config_file(str(p)) == {
        "attack": "ni-fgsm", "iters": "3", "tim.kernel_size": "5",
    }
    bad = tmp_path / "bad.cfg"
    bad.write_text("volume = 11\n")
    with pytest.raises(click.UsageError):
        read_config_file(str(bad))
    noeq = tmp_path / "noeq.cfg"
    noeq.write_text("just words\n")
    with pytest.raises(click.UsageError):
        read_config_file(str(noeq))


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


def test_train_seed_from_environment(runner, tmp_path):
    path = str(tmp_path / "env.json")
    result = runner.invoke(main, [
        "train", "--arch", "logistic", "--dataset", "synthetic:2x3x6",
        "--out", path, "--epochs", "1",
    ], env={"ADVM_SEED": "7"})
    assert result.exit_code == 0, result.output
    assert load_model(path).spec.seed == 7


def test_invalid_environment_seed_is_an_error(runner, tmp_path):
    for raw in ("lots", "-3"):
        result = runner.invoke(main, [
            "train", "--arch", "logistic", "--dataset", "synthetic:2x3x6",
            "--out", str(tmp_path / "x.json"), "--epochs", "1",
        ], env={"ADVM_SEED": raw})
        assert result.exit_code != 0
        assert "ADVM_SEED must be an integer" in result.output
        assert "Traceback" not in result.output


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
    for i, fname in enumerate(manifest["files"]):
        adv = load_tensor(os.path.join(out, fname))
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


def test_attack_config_file_and_flag_precedence(runner, trained, tmp_path):
    cfg_path = tmp_path / "atk.cfg"
    cfg_path.write_text(
        "attack = ni-fgsm\n"
        "iters = 3\n"
        "tim.kernel_size = 5   # dotted keys map to transform fields\n"
    )
    out = str(tmp_path / "advset")
    result = runner.invoke(main, [
        "attack", "--surrogate", trained["model"],
        "--dataset", "synthetic:2x3x6:0.05",
        "--config", str(cfg_path), "--iters", "2", "--seed", "3", "--out", out,
    ])
    assert result.exit_code == 0, result.output
    with open(os.path.join(out, "manifest.json")) as fh:
        config = json.load(fh)["config"]
    assert config["variant"] == "nifgsm"                  # from the file
    assert config["iters"] == 2                           # flag beats file
    assert config["transforms"]["tim_kernel_size"] == 5   # dotted key mapped


def test_attack_rejects_unknown_config_key(runner, trained, tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("warp = 9\n")
    result = runner.invoke(main, [
        "attack", "--surrogate", trained["model"],
        "--dataset", "synthetic:2x3x6", "--config", str(cfg_path),
        "--out", str(tmp_path / "x"),
    ])
    assert result.exit_code != 0
    assert "unknown key" in result.output


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
    matrix = parse_report_csv(result.output)
    assert isinstance(matrix, TransferMatrix)
    assert matrix.surrogates == ("surr",) and matrix.targets == ("surr",)
    with open(os.path.join(advset, "manifest.json")) as fh:
        manifest = json.load(fh)
    # scoring the surrogate itself reproduces the crafting-time flags
    assert matrix.rate("surr", "surr") == (
        sum(manifest["white_box"]) / manifest["count"]
    )


def test_eval_accepts_glob_targets_and_writes_file(runner, trained, advset, tmp_path):
    out_path = str(tmp_path / "matrix.csv")
    pattern = str(trained["root"] / "*.json")
    result = runner.invoke(main, ["eval", "--adv", advset, "--targets", pattern,
                                  "--out", out_path])
    assert result.exit_code == 0, result.output
    with open(out_path) as fh:
        assert isinstance(parse_report_csv(fh.read()), TransferMatrix)


def test_eval_missing_manifest_is_an_error(runner, trained, tmp_path):
    result = runner.invoke(main, ["eval", "--adv", str(tmp_path),
                                  "--targets", trained["model"]])
    assert result.exit_code != 0
    assert "no adversarial examples" in result.output


def test_eval_empty_manifest_is_an_error(runner, trained, tmp_path):
    with open(tmp_path / "manifest.json", "w") as fh:
        json.dump({"count": 0, "files": [], "labels": [], "surrogates": ["s"],
                   "config_hash": "0" * 12, "config": {}}, fh)
    result = runner.invoke(main, ["eval", "--adv", str(tmp_path),
                                  "--targets", trained["model"]])
    assert result.exit_code != 0
    assert "no adversarial examples" in result.output


def test_ablate_sweeps_sample_count(runner, trained, tmp_path):
    out_path = str(tmp_path / "sweep.csv")
    result = runner.invoke(main, [
        "ablate", "--param", "samples", "--grid", "1,3",
        "--attack", "emi-fgsm", "--eps", "16/255", "--iters", "2",
        "--surrogate", trained["model"], "--targets", trained["model"],
        "--dataset", "synthetic:2x3x6:0.05", "--seed", "3", "--out", out_path,
    ])
    assert result.exit_code == 0, result.output
    with open(out_path) as fh:
        sweep = parse_report_csv(fh.read())
    assert isinstance(sweep, AblationResult)
    assert sweep.parameter == "samples"
    assert sweep.grid == ("1", "3")
    assert sweep.targets == ("surr",)


def test_report_rerenders_csv_as_markdown(runner, trained, advset, tmp_path):
    csv_path = str(tmp_path / "matrix.csv")
    assert runner.invoke(main, ["eval", "--adv", advset,
                                "--targets", trained["model"],
                                "--out", csv_path]).exit_code == 0
    result = runner.invoke(main, ["report", "--in", csv_path,
                                  "--format", "markdown"])
    assert result.exit_code == 0, result.output
    assert result.output.startswith("| surrogate \\ target |")
    assert "(* = white-box)" in result.output


# -- usage errors at the boundary --------------------------------------------------


def _assert_usage_error(result, text):
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert text in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("flags, text", [
    (["--eps", "1/0"], "16/255"),
    (["--eps", "abc"], "16/255"),
    (["--eps", "nan"], "eps must be finite"),
    (["--eps", "inf"], "eps must be finite"),
    (["--mu", "nan"], "mu must be finite"),
    (["--tim-sigma", "nan"], "tim sigma must be finite"),
    (["--iters", "0"], "iters must be >= 1"),
    (["--samples", "0"], "sample count must be >= 1"),
    (["--jobs", "0"], "--jobs"),
    (["--num-images", "-3"], "--num-images"),
    (["--num-images", "0"], "--num-images"),
    (["--iters", "abc"], "'abc' is not a valid integer"),
    (["--sampling", "bogus"], "unknown sampling method"),
    (["--transforms", "dim,warp"], "unknown transform 'warp'"),
    (["--dim-resize-low", "x"], "--dim-resize-low"),
    (["--seed", "-5"], "seed must be >= 0"),
    (["--dataset", "synthetic:2x3x0"], "image shape must be >= 1"),
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
    (["--arch", "mlp", "--hidden", "64,-3"], "hidden widths must be >= 1"),
    (["--arch", "mlp", "--hidden", "0"], "hidden widths must be >= 1"),
    (["--arch", "smallcnn", "--conv-kernel", "4"], "conv kernel side must be odd"),
    (["--arch", "smallcnn", "--conv-kernel", "0"], "must be >= 1"),
    (["--arch", "smallcnn", "--conv-kernel", "-1"], "must be >= 1"),
    (["--arch", "smallcnn", "--conv-channels", "-1"], "must be >= 1"),
    (["--arch", "smallcnn", "--conv-channels", "0"], "must be >= 1"),
    (["--arch", "smallcnn", "--dataset", "synthetic:3x4x5"], "input sides must be even"),
    (["--dataset", "synthetic:3x4x6:abc"], "could not convert"),
    (["--dataset", "synthetic:3x4x6:nan"], "noise_sigma must be finite"),
    (["--dataset", "synthetic:3x4x6:-1"], "noise_sigma must be finite"),
    (["--dataset", "synthetic:1x4x6"], "need at least two classes"),
    (["--seed", "-5"], "--seed"),
])
def test_train_bad_values_are_usage_errors(runner, tmp_path, flags, text):
    out = tmp_path / "m.json"
    result = runner.invoke(main, [
        "train", "--arch", "logistic", "--dataset", "synthetic:2x6x6:0.05",
        "--out", str(out), *flags,
    ])
    _assert_usage_error(result, text)
    assert not out.exists()


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
    assert "LengthMismatch" in result.output and "Traceback" not in result.output
    assert not model.exists()


def test_eval_refuses_a_target_that_declares_a_huge_shape(runner, trained, advset, tmp_path):
    with open(trained["model"]) as fh:
        doc = json.load(fh)
    doc["spec"]["input_shape"] = [100000, 100000, 1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["eval", "--adv", advset, "--targets", str(bad)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "CorruptFile" in result.output and "has shape" in result.output
    assert "Traceback" not in result.output and "MemoryError" not in result.output


def test_attack_refuses_a_model_with_non_finite_parameters(runner, trained, tmp_path):
    with open(trained["model"]) as fh:
        doc = json.load(fh)
    doc["params"]["fc.b"]["data"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "advset"
    result = runner.invoke(main, [
        "attack", "--surrogate", str(bad), "--dataset", "synthetic:2x3x6", "--out", str(out),
    ])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "CorruptFile" in result.output and "non-finite" in result.output
    assert not out.exists()


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


def test_attack_bad_config_file_value_is_a_usage_error(runner, trained, tmp_path):
    cfg_path = tmp_path / "atk.cfg"
    cfg_path.write_text("iters = many\n")
    result = runner.invoke(main, [
        "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6",
        "--config", str(cfg_path), "--out", str(tmp_path / "x"),
    ])
    _assert_usage_error(result, "many")


@pytest.mark.parametrize("text, message", [
    ("jobs = 2\n", "unknown key 'jobs'"),
    ("normalize_sample_dir = ture\n", "'ture' is not a valid boolean"),
])
def test_attack_bad_config_file_lines_are_usage_errors(runner, trained, tmp_path, text,
                                                       message):
    cfg_path = tmp_path / "atk.cfg"
    cfg_path.write_text(text)
    out = tmp_path / "advset"
    result = runner.invoke(main, [
        "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6",
        "--config", str(cfg_path), "--out", str(out),
    ])
    _assert_usage_error(result, message)
    assert not out.exists()


# Non-default text for each option row; the flag and the file key take it alike.
_ROW_TEXT = {
    "attack": "ni-fgsm", "eps": "8/255", "iters": "3", "mu": "0.5", "eta": "3",
    "samples": "5", "sampling": "uniform", "transforms": "tim,dim", "dim.prob": "0.7",
    "dim.resize_low": "5", "dim.pad_to": "9", "tim.kernel_size": "5", "tim.sigma": "2.0",
    "sim.copies": "3", "normalize_sample_dir": "true", "seed": "9",
}


@pytest.mark.parametrize("flag, key, parse", [(r[0], r[1], r[3]) for r in _ATTACK_OPTIONS])
def test_flag_and_config_key_give_the_same_config(runner, trained, tmp_path, monkeypatch,
                                                  flag, key, parse):
    monkeypatch.delenv("ADVM_SEED", raising=False)
    text = _ROW_TEXT[key]
    (tmp_path / "one.cfg").write_text(f"{key} = {text}\n")
    hashes = []
    for name, extra in (("default", []),
                        ("flag", [flag] if parse is click.BOOL else [flag, text]),
                        ("file", ["--config", str(tmp_path / "one.cfg")])):
        out = tmp_path / name
        result = runner.invoke(main, [
            "attack", "--surrogate", trained["model"], "--dataset", "synthetic:2x3x6",
            "--num-images", "2", "--out", str(out), *extra,
        ])
        assert result.exit_code == 0, result.output
        with open(out / "manifest.json") as fh:
            hashes.append(json.load(fh)["config_hash"])
    default, by_flag, by_file = hashes
    assert by_flag == by_file != default


def test_dim_sides_take_auto_from_flag_and_file(monkeypatch):
    monkeypatch.delenv("ADVM_SEED", raising=False)
    assert resolve_attack_config({}, {}) == AttackConfig()
    for side in ("dim_resize_low", "dim_pad_to"):
        assert resolve_attack_config({side: "auto"}, {}) == AttackConfig()
        assert resolve_attack_config({}, {side.replace("_", ".", 1): "auto"}) == AttackConfig()


def test_readme_lists_every_config_key():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = re.findall(r"^\| `([a-z_.]+)` \| `(--[a-z-]+)` \|", fh.read(), re.MULTILINE)
    assert sorted(rows) == sorted((key, flag) for flag, key, *_ in _ATTACK_OPTIONS)


@pytest.mark.parametrize("command, make, code", [
    (["train", "--arch", "logistic", "--out", "m.json", "--dataset", "idx:{p},{p}"],
     None, 1),
    (["attack", "--surrogate", "{model}", "--dataset", "synthetic:2x3x6", "--out", "adv",
      "--config", "{p}"], "dir", 2),
    (["attack", "--surrogate", "{model}", "--dataset", "synthetic:2x3x6", "--out", "adv",
      "--config", "{p}"], "latin-1", 2),
    (["report", "--in", "{p}", "--out", "r.md"], "latin-1", 1),
    (["report", "--in", "{p}", "--out", "r.md"], "dir", 1),
    (["report", "--in", "{p}", "--out", "r.md"], "a,b\n1,2\n", 1),
    (["attack", "--surrogate", "{p}", "--dataset", "synthetic:2x3x6", "--out", "adv"], None, 1),
    (["eval", "--adv", "{advset}", "--targets", "{p}"], "dir", 1),
    (["report", "--in", "{p}", "--out", "r.md"],
     "surrogate,target,rate,n,config_hash\ns1,t1,0.5,4,h\ns1,t2,0.5,4,h\ns2,t1,0.5,4,h\n", 1),
])
def test_unreadable_inputs_name_the_path(runner, trained, advset, tmp_path, command, make,
                                        code):
    path = tmp_path / "input"
    if make == "dir":
        path.mkdir()
    elif make == "latin-1":
        path.write_bytes("attack = emi-fgsm  # caf\xe9\n".encode("latin-1"))
    elif make is not None:
        path.write_text(make)
    args = [a.format(p=path, model=trained["model"], advset=advset) for a in command]
    with runner.isolated_filesystem(temp_dir=tmp_path):
        result = runner.invoke(main, args)
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        assert str(path) in result.output and "Traceback" not in result.output
        assert os.listdir(".") == []


@pytest.mark.parametrize("flags, text", [
    (["--param", "samples", "--grid", "1,x"], "--grid"),
    (["--param", "iters", "--grid", "0"], "iters must be >= 1"),
    (["--param", "eps", "--grid", "1/0"], "16/255"),
    (["--param", "samples", "--grid", ","], "no values to sweep"),
    (["--param", "samples", "--grid", "1", "--jobs", "0"], "--jobs"),
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
    ("eta", "--eta", "nan"), ("sampling_method", "--sampling", "uniform"),
    ("sampling_method", "--sampling", "bogus"), ("mu", "--mu", "0.5"), ("mu", "--mu", "1/2"),
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
    for part in SWEEPABLE[param].split("."):
        value = value[part]
    with open(sweep_path) as fh:
        assert parse_report_csv(fh.read()).grid == (str(value),)


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
    assert f"unreadable adversarial tensor {first}" in result.output

    (adv_dir / "manifest.json").write_text("{ truncated")
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir),
                                  "--targets", trained["model"]])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "unreadable manifest" in result.output


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
    tensor = load_tensor(str(adv_dir / last))
    edit(tensor)
    save_tensor(str(adv_dir / last), tensor)
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir),
                                  "--targets", trained["model"]])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert f"unreadable adversarial tensor {last}: " in result.output and text in result.output


def test_eval_refuses_a_tensor_of_the_wrong_rank(runner, trained, advset, tmp_path):
    adv_dir = _edit_advset(advset, tmp_path, lambda m: None)
    with open(adv_dir / "manifest.json") as fh:
        first = json.load(fh)["files"][0]
    save_tensor(str(adv_dir / first), np.full((6, 6), 0.5))
    result = runner.invoke(main, ["eval", "--adv", str(adv_dir),
                                  "--targets", trained["model"]])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert f"unreadable adversarial tensor {first}: expected a rank-3 array" in result.output
