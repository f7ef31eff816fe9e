"""Command-line front end: train models, craft attacks, evaluate transfer.

Settings resolve in precedence order: explicit flags, then the --config
key=value file, then the ADVM_SEED environment variable (seed only), then
built-in defaults. --eps accepts both decimals and fraction literals like
16/255. Attack names use the hyphenated forms (mi-fgsm, emi-fgsm, ...).

Datasets are either `synthetic:CLASSESxPER_CLASSxSIDE[:NOISE]`, generated
from the run seed, or `idx:IMAGES_PATH,LABELS_PATH` pairs.
"""

import glob as globmod
import json
import math
import os
from dataclasses import replace

import click

from . import __version__
from .attacks import VARIANTS, AttackConfig, attack_batch
from .data import generate_synthetic, load_idx, subsample
from .errors import AdvmError
from .evaluate import (
    TransferMatrix,
    ablation_sweep,
    apply_parameter,
    attack_success_rate,
    emit_report,
    parse_report_csv,
)
from .fileio import atomic_write_text
from .models import EnsembleOracle, Model, ModelSpec, load_model, save_model, train_sgd
from .sampling import SamplingSpec
from .tensor import load_tensor, save_tensor
from .transforms import TRANSFORM_NAMES, TransformConfig

_MANIFEST_NAME = "manifest.json"

_CONFIG_KEYS = (
    "attack", "eps", "iters", "mu", "eta", "samples", "sampling", "transforms",
    "normalize_sample_dir", "dim.prob", "dim.resize_low", "dim.pad_to",
    "tim.kernel_size", "tim.sigma", "sim.copies", "seed", "jobs",
)


def parse_eps(text: str) -> float:
    """A decimal, or a fraction literal like 16/255."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise click.BadParameter(
            f"expected a decimal or a fraction like 16/255, got {text!r}") from exc


def parse_attack_name(name: str) -> str:
    variant = name.strip().lower().replace("-", "")
    if variant not in VARIANTS:
        raise click.BadParameter(
            f"unknown attack {name!r}; expected one of "
            + ", ".join(v.replace("fgsm", "-fgsm").lstrip("-") for v in VARIANTS)
        )
    return variant


def read_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; unknown keys are errors."""
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.UsageError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise click.UsageError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value
    return values


def _env_seed() -> int | None:
    raw = os.environ.get("ADVM_SEED")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise click.UsageError(f"ADVM_SEED must be an integer, got {raw!r}") from exc


def resolve_attack_config(cli: dict, filecfg: dict) -> AttackConfig:
    """Merge flag values over config-file values over defaults; a value the
    config rejects is a usage error."""
    try:
        return _merge_attack_config(cli, filecfg)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


def _merge_attack_config(cli: dict, filecfg: dict) -> AttackConfig:
    def pick(key, default, convert):
        if cli.get(key) is not None:
            return cli[key]
        if key in filecfg:
            return convert(filecfg[key])
        return default

    seed = cli.get("seed")
    if seed is None and "seed" in filecfg:
        seed = int(filecfg["seed"])
    if seed is None:
        seed = _env_seed()
    if seed is None:
        seed = 0

    transforms_raw = pick("transforms", "", str)
    enabled = tuple(t for t in (s.strip() for s in transforms_raw.split(",")) if t)
    for t in enabled:
        if t not in TRANSFORM_NAMES:
            raise click.BadParameter(f"unknown transform {t!r}")

    def int_or_none(text):
        text = text.strip()
        return None if text.lower() in ("", "none", "auto") else int(text)

    tcfg = TransformConfig(
        enabled=enabled,
        dim_prob=pick("dim_prob", 0.5, float),
        dim_resize_low=pick("dim_resize_low", None, int_or_none),
        dim_pad_to=pick("dim_pad_to", None, int_or_none),
        tim_kernel_size=pick("tim_kernel_size", 7, int),
        tim_sigma=pick("tim_sigma", 3.0, float),
        sim_copies=pick("sim_copies", 5, int),
    )
    scfg = SamplingSpec(
        method=pick("sampling", "linear", str),
        count=pick("samples", 11, int),
        eta=pick("eta", 7.0, float),
    )
    return AttackConfig(
        variant=parse_attack_name(pick("attack", "emi-fgsm", str)),
        eps=pick("eps", 16.0 / 255.0, parse_eps),
        iters=pick("iters", 10, int),
        mu=pick("mu", 1.0, float),
        sampling=scfg,
        transforms=tcfg,
        normalize_sample_dir=pick(
            "normalize_sample_dir", False,
            lambda s: s.strip().lower() in ("1", "true", "yes"),
        ),
        seed=seed,
    )


def load_dataset(spec: str, seed: int):
    if spec.startswith("synthetic:"):
        body = spec[len("synthetic:"):]
        parts = body.split(":")
        try:
            classes, per_class, side = (int(v) for v in parts[0].split("x"))
        except ValueError as exc:
            raise click.BadParameter(
                f"synthetic spec must be CLASSESxPER_CLASSxSIDE, got {parts[0]!r}"
            ) from exc
        noise = float(parts[1]) if len(parts) > 1 else 0.1
        return generate_synthetic(classes, per_class, side, side, 1, noise, seed)
    if spec.startswith("idx:"):
        paths = spec[len("idx:"):].split(",")
        if len(paths) != 2:
            raise click.BadParameter("idx spec must be idx:IMAGES,LABELS")
        return load_idx(paths[0], paths[1])
    raise click.BadParameter(f"dataset must start with synthetic: or idx:, got {spec!r}")


def load_models(arg: str) -> list:
    """Comma-separated model paths; each element may be a glob pattern."""
    paths = []
    for token in arg.split(","):
        token = token.strip()
        if not token:
            continue
        if any(ch in token for ch in "*?["):
            matches = sorted(globmod.glob(token))
            if not matches:
                raise click.BadParameter(f"no model files match {token!r}")
            paths.extend(matches)
        else:
            paths.append(token)
    if not paths:
        raise click.BadParameter("no model paths given")
    return [load_model(p) for p in paths]


def _positive_finite(ctx, param, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise click.BadParameter(f"must be finite and > 0, got {value}")
    return value


def _check_dim_geometry(cfgs, data) -> None:
    """Reject a diversity geometry the dataset's images cannot take,
    before any attack work starts."""
    side, width, _ = data.image_shape
    for cfg in cfgs:
        if "dim" not in cfg.transforms.enabled:
            continue
        if side != width:
            raise click.BadParameter(
                f"dim needs square images, got {side}x{width}", param_hint="--transforms")
        try:
            cfg.transforms.resolve_dim(side)
        except ValueError as exc:
            raise click.BadParameter(
                f"{exc} for {side}-pixel images",
                param_hint="--dim-resize-low / --dim-pad-to") from exc


def _wrap_errors(fn):
    import functools

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except AdvmError as exc:
            raise click.ClickException(f"{type(exc).__name__}: {exc}") from exc

    return inner


@click.group()
@click.version_option(version=__version__, prog_name="advm")
def main():
    """Momentum-family adversarial attacks and transfer evaluation."""


@main.command()
@click.option("--arch", type=click.Choice(["logistic", "mlp", "smallcnn"]), required=True)
@click.option("--dataset", required=True, help="synthetic:CxPxS[:NOISE] or idx:IMGS,LBLS")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None, help="default: ADVM_SEED or 0")
@click.option("--epochs", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--lr", type=float, default=0.35, show_default=True, callback=_positive_finite)
@click.option("--batch", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--hidden", default="64", show_default=True, help="mlp widths, comma-separated")
@click.option("--conv-channels", type=int, default=8, show_default=True)
@click.option("--conv-kernel", type=int, default=3, show_default=True)
@click.option("--name", default=None, help="default: the output file stem")
@_wrap_errors
def train(arch, dataset, out_path, seed, epochs, lr, batch, hidden, conv_channels,
          conv_kernel, name):
    """Train one model and write its manifest."""
    if seed is None:
        seed = _env_seed() or 0
    data = load_dataset(dataset, seed)
    spec = ModelSpec(
        arch=arch,
        input_shape=data.image_shape,
        num_classes=data.class_count,
        hidden=tuple(int(w) for w in hidden.split(",") if w.strip()) if arch == "mlp" else (),
        conv_channels=conv_channels,
        conv_kernel=conv_kernel,
        seed=seed,
    )
    if name is None:
        name = os.path.splitext(os.path.basename(out_path))[0]
    model, acc = train_sgd(spec, data, epochs=epochs, lr=lr, batch=batch, seed=seed, name=name)
    save_model(model, out_path)
    click.echo(f"trained {arch} '{name}' on {len(data)} examples: train acc {acc:.3f}")
    click.echo(f"wrote {out_path}")


_ATTACK_OPTIONS = [
    click.option("--attack", default=None, help="fgsm, i-fgsm, mi-fgsm, ni-fgsm, pi-fgsm, emi-fgsm, eni-fgsm, eri-fgsm"),
    click.option("--eps", default=None, help="L-inf budget; decimal or fraction like 16/255"),
    click.option("--iters", type=int, default=None),
    click.option("--mu", type=float, default=None, help="momentum decay"),
    click.option("--eta", type=float, default=None, help="coefficient radius"),
    click.option("--samples", type=int, default=None, help="gradients averaged per step"),
    click.option("--sampling", type=click.Choice(["linear", "uniform", "gaussian"]), default=None),
    click.option("--transforms", default=None, help="comma list from: dim,tim,sim"),
    click.option("--dim-prob", type=float, default=None),
    click.option("--dim-resize-low", type=int, default=None),
    click.option("--dim-pad-to", type=int, default=None),
    click.option("--tim-kernel-size", type=int, default=None),
    click.option("--tim-sigma", type=float, default=None),
    click.option("--sim-copies", type=int, default=None),
    click.option("--normalize-sample-dir", is_flag=True, default=None),
    click.option("--seed", type=int, default=None, help="default: ADVM_SEED or 0"),
    click.option("--config", "config_path", type=click.Path(exists=True), default=None,
                 help="key = value file; flags win over it"),
]


def _attack_options(fn):
    for opt in reversed(_ATTACK_OPTIONS):
        fn = opt(fn)
    return fn


def _collect_cfg(kwargs) -> AttackConfig:
    eps_raw = kwargs.pop("eps")
    cli = {
        "attack": kwargs.pop("attack"),
        "eps": parse_eps(eps_raw) if eps_raw is not None else None,
        "iters": kwargs.pop("iters"),
        "mu": kwargs.pop("mu"),
        "eta": kwargs.pop("eta"),
        "samples": kwargs.pop("samples"),
        "sampling": kwargs.pop("sampling"),
        "transforms": kwargs.pop("transforms"),
        "dim_prob": kwargs.pop("dim_prob"),
        "dim_resize_low": kwargs.pop("dim_resize_low"),
        "dim_pad_to": kwargs.pop("dim_pad_to"),
        "tim_kernel_size": kwargs.pop("tim_kernel_size"),
        "tim_sigma": kwargs.pop("tim_sigma"),
        "sim_copies": kwargs.pop("sim_copies"),
        "normalize_sample_dir": kwargs.pop("normalize_sample_dir"),
        "seed": kwargs.pop("seed"),
    }
    config_path = kwargs.pop("config_path")
    filecfg = read_config_file(config_path) if config_path else {}
    file_keymap = {
        "dim.prob": "dim_prob", "dim.resize_low": "dim_resize_low",
        "dim.pad_to": "dim_pad_to", "tim.kernel_size": "tim_kernel_size",
        "tim.sigma": "tim_sigma", "sim.copies": "sim_copies",
    }
    filecfg = {file_keymap.get(k, k): v for k, v in filecfg.items()}
    return resolve_attack_config(cli, filecfg)


@main.command(name="attack")
@_attack_options
@click.option("--surrogate", required=True,
              help="model manifest path(s), comma-separated; several fuse into an ensemble")
@click.option("--dataset", required=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--num-images", type=click.IntRange(min=1), default=None,
              help="subsample this many examples")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@_wrap_errors
def attack_cmd(**kwargs):
    """Craft adversarial examples and write them with a manifest."""
    surrogate_arg = kwargs.pop("surrogate")
    dataset_arg = kwargs.pop("dataset")
    out_dir = kwargs.pop("out_dir")
    num_images = kwargs.pop("num_images")
    jobs = kwargs.pop("jobs")
    cfg = _collect_cfg(kwargs)

    models = load_models(surrogate_arg)
    oracle = models[0] if len(models) == 1 else EnsembleOracle(models)
    data = load_dataset(dataset_arg, cfg.seed)
    if num_images is not None:
        data = subsample(data, num_images, cfg.seed)
    _check_dim_geometry([cfg], data)

    results = attack_batch(oracle, data.images, data.labels, cfg, jobs=jobs)

    os.makedirs(out_dir, exist_ok=True)
    files = []
    for i, r in enumerate(results):
        fname = f"adv_{i:05d}.emtn"
        save_tensor(os.path.join(out_dir, fname), r.adv)
        files.append(fname)
    manifest = {
        "format": "advm-advset",
        "version": 1,
        "config": cfg.canonical(),
        "config_hash": cfg.config_hash(),
        "surrogates": [m.name for m in models],
        "count": len(results),
        "labels": list(data.labels),
        "white_box": [bool(r.white_box_success) for r in results],
        "files": files,
    }
    atomic_write_text(
        os.path.join(out_dir, _MANIFEST_NAME),
        json.dumps(manifest, sort_keys=True, indent=1),
    )
    wb = sum(manifest["white_box"]) / max(1, len(results))
    click.echo(
        f"{cfg.variant} on {oracle.name}: {len(results)} examples, "
        f"white-box success {100.0 * wb:.1f}% (config {cfg.config_hash()})"
    )
    click.echo(f"wrote {out_dir}/")


def _load_advset(adv_dir: str) -> tuple:
    """The checked manifest of a stored adversarial set, and its tensors."""
    manifest_path = os.path.join(adv_dir, _MANIFEST_NAME)
    if not os.path.exists(manifest_path):
        raise click.ClickException(f"no adversarial examples: {manifest_path} missing")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"unreadable manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise click.ClickException(f"{manifest_path} is not a JSON object")
    if manifest.get("count", 0) == 0 or not manifest.get("files"):
        raise click.ClickException("no adversarial examples in the manifest")
    if (manifest.get("format"), manifest.get("version")) != ("advm-advset", 1):
        raise click.ClickException(
            f"{manifest_path}: expected format advm-advset version 1, got "
            f"{manifest.get('format')!r} version {manifest.get('version')!r}")
    missing = {"labels", "surrogates", "config", "config_hash"} - set(manifest)
    if missing:
        raise click.ClickException(f"{manifest_path} lacks {', '.join(sorted(missing))}")
    files, labels = manifest["files"], manifest["labels"]
    if not (isinstance(files, list) and isinstance(labels, list)
            and manifest["count"] == len(files) == len(labels)):
        raise click.ClickException(
            f"{manifest_path}: count {manifest['count']!r} does not match its files "
            f"and labels lists")
    advs = []
    for f in files:
        if not isinstance(f, str) or f in ("", ".", "..") or os.path.basename(f) != f:
            raise click.ClickException(f"{manifest_path}: {f!r} is not a plain file name")
        try:
            advs.append(load_tensor(os.path.join(adv_dir, f)))
        except (OSError, AdvmError) as exc:
            raise click.ClickException(f"unreadable adversarial tensor {f}: {exc}") from exc
    return manifest, advs


@main.command(name="eval")
@click.option("--adv", "adv_dir", required=True, type=click.Path())
@click.option("--targets", required=True, help="model paths, comma-separated or glob")
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default="csv",
              show_default=True)
@_wrap_errors
def eval_cmd(adv_dir, targets, out_path, fmt):
    """Score stored adversarial examples against target models."""
    manifest, advs = _load_advset(adv_dir)
    labels = manifest["labels"]
    target_models = load_models(targets)
    surrogate_name = "+".join(manifest["surrogates"])
    rates = tuple(attack_success_rate(t, advs, labels) for t in target_models)
    matrix = TransferMatrix(
        surrogates=(surrogate_name,),
        targets=tuple(t.name for t in target_models),
        rates=(rates,),
        n_examples=len(advs),
        config_hash=manifest["config_hash"],
        seed=manifest["config"].get("seed"),
    )
    text = emit_report(matrix, fmt)
    if out_path:
        atomic_write_text(out_path, text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


@main.command()
@_attack_options
@click.option("--param", required=True,
              type=click.Choice(["samples", "eta", "sampling_method", "mu", "iters", "eps"]))
@click.option("--grid", required=True, help="comma-separated values to sweep")
@click.option("--surrogate", required=True)
@click.option("--targets", required=True)
@click.option("--dataset", required=True)
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default="csv",
              show_default=True)
@click.option("--num-images", type=click.IntRange(min=1), default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True)
@_wrap_errors
def ablate(**kwargs):
    """Sweep one attack parameter and report per-target success rates."""
    param = kwargs.pop("param")
    grid_arg = kwargs.pop("grid")
    surrogate_arg = kwargs.pop("surrogate")
    targets_arg = kwargs.pop("targets")
    dataset_arg = kwargs.pop("dataset")
    out_path = kwargs.pop("out_path")
    fmt = kwargs.pop("fmt")
    num_images = kwargs.pop("num_images")
    jobs = kwargs.pop("jobs")
    cfg = _collect_cfg(kwargs)

    try:
        if param == "sampling_method":
            grid = [v.strip() for v in grid_arg.split(",") if v.strip()]
        elif param in ("samples", "iters"):
            grid = [int(v) for v in grid_arg.split(",") if v.strip()]
        else:
            grid = [parse_eps(v) for v in grid_arg.split(",") if v.strip()]
        swept = [apply_parameter(cfg, param, value) for value in grid]
    except (ValueError, click.BadParameter) as exc:
        raise click.BadParameter(str(exc), param_hint="--grid") from exc
    if not grid:
        raise click.BadParameter("no values to sweep", param_hint="--grid")
    surrogate = load_models(surrogate_arg)
    oracle = surrogate[0] if len(surrogate) == 1 else EnsembleOracle(surrogate)
    target_models = load_models(targets_arg)
    data = load_dataset(dataset_arg, cfg.seed)
    if num_images is not None:
        data = subsample(data, num_images, cfg.seed)
    _check_dim_geometry(swept, data)
    result = ablation_sweep(param, grid, cfg, oracle, target_models, data, jobs=jobs)
    text = emit_report(result, fmt)
    if out_path:
        atomic_write_text(out_path, text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default="markdown",
              show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path())
@_wrap_errors
def report(in_path, fmt, out_path):
    """Re-render a stored CSV report (matrix or ablation)."""
    with open(in_path, "r", encoding="utf-8") as fh:
        parsed = parse_report_csv(fh.read())
    text = emit_report(parsed, fmt)
    if out_path:
        atomic_write_text(out_path, text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


if __name__ == "__main__":
    main()
