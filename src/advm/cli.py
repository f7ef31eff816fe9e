"""Command-line front end: train models, craft attacks, evaluate transfer.

Attack settings resolve in precedence order: explicit flags, then the
--config key=value file, then the ADVM_SEED environment variable (seed
only), then the AttackConfig defaults; one table, _ATTACK_OPTIONS, names
each option's flag, file key, field and parser. --eps accepts both decimals
and fraction literals like 16/255. Attack names use the hyphenated forms
(mi-fgsm, emi-fgsm, ...).

Datasets are either `synthetic:CLASSESxPER_CLASSxSIDE[:NOISE]`, generated
from the run seed, or `idx:IMAGES_PATH,LABELS_PATH` pairs.
"""

import glob as globmod
import json
import math
import os

import click

from . import __version__
from .attacks import VARIANTS, AttackConfig, attack_batch
from .data import generate_synthetic, load_idx, subsample
from .errors import AdvmError
from .evaluate import (
    SWEEPABLE,
    TransferMatrix,
    ablation_sweep,
    apply_parameter,
    attack_success_rate,
    emit_report,
    parse_report_csv,
)
from .fileio import atomic_write_text
from .models import ARCHITECTURES, EnsembleOracle, ModelSpec, load_model, save_model, train_sgd
from .sampling import SamplingSpec
from .tensor import load_tensor, save_tensor, validate_image
from .transforms import TransformConfig

_MANIFEST_NAME = "manifest.json"


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


def _parse_names(text: str) -> tuple:
    return tuple(t for t in (s.strip() for s in text.split(",")) if t)


def _parse_side(text: str) -> int | None:
    """A dim side in pixels, or auto (also none or empty): derive it from the image."""
    text = text.strip()
    return None if text.lower() in ("", "none", "auto") else int(text)


# One row per attack option: its flag, its config-file key, the AttackConfig
# field it sets ("group.field" inside sampling or transforms), the parser that
# the flag text and the file text both go through, and the flag's help. The
# defaults are the dataclasses' own.
_ATTACK_OPTIONS = (
    ("--attack", "attack", "variant", parse_attack_name,
     "fgsm, i-fgsm, mi-fgsm, ni-fgsm, pi-fgsm, emi-fgsm, eni-fgsm, eri-fgsm"),
    ("--eps", "eps", "eps", parse_eps, "L-inf budget; decimal or fraction like 16/255"),
    ("--iters", "iters", "iters", click.INT, "iterations T"),
    ("--mu", "mu", "mu", click.FLOAT, "momentum decay"),
    ("--eta", "eta", "sampling.eta", click.FLOAT, "coefficient radius"),
    ("--samples", "samples", "sampling.count", click.INT, "gradients averaged per step"),
    ("--sampling", "sampling", "sampling.method", str, "linear, uniform or gaussian"),
    ("--transforms", "transforms", "transforms.enabled", _parse_names,
     "comma list from: dim,tim,sim"),
    ("--dim-prob", "dim.prob", "transforms.dim_prob", click.FLOAT, "dim: transform probability"),
    ("--dim-resize-low", "dim.resize_low", "transforms.dim_resize_low", _parse_side,
     "dim: smallest resize side, or auto"),
    ("--dim-pad-to", "dim.pad_to", "transforms.dim_pad_to", _parse_side,
     "dim: canvas side, or auto"),
    ("--tim-kernel-size", "tim.kernel_size", "transforms.tim_kernel_size", click.INT,
     "tim: kernel side, odd"),
    ("--tim-sigma", "tim.sigma", "transforms.tim_sigma", click.FLOAT, "tim: kernel sigma"),
    ("--sim-copies", "sim.copies", "transforms.sim_copies", click.INT, "sim: scale copies"),
    ("--normalize-sample-dir", "normalize_sample_dir", "normalize_sample_dir", click.BOOL,
     "L1-normalize the sampling direction"),
    ("--seed", "seed", "seed", click.INT, "default: ADVM_SEED or 0"),
)


def read_config_file(path: str) -> dict:
    """Flat key = value lines; '#' starts a comment; the keys are the option
    table's config-file keys, and any other key is an error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}") from exc
    keys = {row[1] for row in _ATTACK_OPTIONS}
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise click.UsageError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value
    return values


def _env_seed() -> int | None:
    raw = os.environ.get("ADVM_SEED")
    if raw is None or raw == "":
        return None
    try:
        return click.IntRange(min=0)(raw)
    except click.BadParameter as exc:
        raise click.UsageError(f"ADVM_SEED must be an integer >= 0, got {raw!r}") from exc


def resolve_attack_config(cli: dict, filecfg: dict) -> AttackConfig:
    """Each table option from its flag, else its config-file key, through the
    row's parser; the seed falls back to ADVM_SEED. An option set nowhere keeps
    its dataclass default. A bad value from either source is a usage error."""
    fields = {"": {}, "sampling": {}, "transforms": {}}
    for flag, key, field, parse, _help in _ATTACK_OPTIONS:
        text, source = cli.get(flag[2:].replace("-", "_")), flag
        if text is None:
            text, source = filecfg.get(key), f"config key {key!r}"
        if text is None:
            continue
        group, _, name = field.rpartition(".")
        try:
            fields[group][name] = parse(text)
        except (ValueError, click.BadParameter) as exc:
            raise click.BadParameter(str(exc), param_hint=source) from exc
    if "seed" not in fields[""] and (seed := _env_seed()) is not None:
        fields[""]["seed"] = seed
    try:
        return AttackConfig(sampling=SamplingSpec(**fields["sampling"]),
                            transforms=TransformConfig(**fields["transforms"]), **fields[""])
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


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
        try:
            noise = float(parts[1]) if len(parts) > 1 else 0.1
            return generate_synthetic(classes, per_class, side, side, 1, noise, seed)
        except ValueError as exc:
            raise click.BadParameter(f"{spec!r}: {exc}", param_hint="--dataset") from exc
    if spec.startswith("idx:"):
        paths = spec[len("idx:"):].split(",")
        if len(paths) != 2:
            raise click.BadParameter("idx spec must be idx:IMAGES,LABELS")
        try:
            return load_idx(paths[0], paths[1])
        except OSError as exc:
            raise click.ClickException(f"unreadable IDX file: {exc}") from exc
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
    try:
        return [load_model(p) for p in paths]
    except OSError as exc:
        raise click.ClickException(f"unreadable model file: {exc}") from exc


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
@click.option("--arch", type=click.Choice(ARCHITECTURES), required=True)
@click.option("--dataset", required=True, help="synthetic:CxPxS[:NOISE] or idx:IMGS,LBLS")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--seed", type=click.IntRange(min=0), default=None, help="default: ADVM_SEED or 0")
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
    try:
        spec = ModelSpec(
            arch=arch,
            input_shape=data.image_shape,
            num_classes=data.class_count,
            hidden=tuple(int(w) for w in hidden.split(",") if w.strip()) if arch == "mlp" else (),
            conv_channels=conv_channels,
            conv_kernel=conv_kernel,
            seed=seed,
        )
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc
    if name is None:
        name = os.path.splitext(os.path.basename(out_path))[0]
    model, acc = train_sgd(spec, data, epochs=epochs, lr=lr, batch=batch, seed=seed, name=name)
    save_model(model, out_path)
    click.echo(f"trained {arch} '{name}' on {len(data)} examples: train acc {acc:.3f}")
    click.echo(f"wrote {out_path}")


def _attack_options(fn):
    """The table's flags, passed on as raw text, then --config read into a dict."""
    fn = click.option("--config", "filecfg", type=click.Path(exists=True),
                      callback=lambda ctx, param, path: read_config_file(path) if path else {},
                      help="key = value file; flags win over it")(fn)
    for flag, _key, _field, parse, help_text in reversed(_ATTACK_OPTIONS):
        fn = click.option(flag, default=None, is_flag=parse is click.BOOL, help=help_text,
                          metavar=getattr(parse, "name", "text").upper())(fn)
    return fn


_JOBS_HELP = ("processes to attack on: this one plus jobs - 1 forked workers, at most "
              "one per usable CPU and per image; never changes an output byte")


@main.command(name="attack")
@_attack_options
@click.option("--surrogate", required=True,
              help="model manifest path(s), comma-separated; several fuse into an ensemble")
@click.option("--dataset", required=True)
@click.option("--out", "out_dir", required=True, type=click.Path())
@click.option("--num-images", type=click.IntRange(min=1), default=None,
              help="subsample this many examples")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help=_JOBS_HELP)
@_wrap_errors
def attack_cmd(surrogate, dataset, out_dir, num_images, jobs, filecfg, **cli):
    """Craft adversarial examples and write them with a manifest."""
    cfg = resolve_attack_config(cli, filecfg)
    models = load_models(surrogate)
    oracle = models[0] if len(models) == 1 else EnsembleOracle(models)
    data = load_dataset(dataset, cfg.seed)
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
            validate_image(advs[-1], pixel_domain=True)
        except (OSError, ValueError, AdvmError) as exc:
            raise click.ClickException(f"unreadable adversarial tensor {f}: {exc}") from exc
    return manifest, advs


def _write_or_echo(text: str, out_path: str | None) -> None:
    """Write a rendered report to out_path and say so, or echo it without one."""
    if out_path:
        atomic_write_text(out_path, text)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(text, nl=False)


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
    for t in target_models:   # bool is an int subclass, so type(), not isinstance()
        bad = [y for y in labels if type(y) is not int or not 0 <= y < t.num_classes]
        if bad:
            raise click.ClickException(f"label {bad[0]!r} is not an integer in "
                                       f"[0, {t.num_classes}), the classes of target {t.name}")
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
    _write_or_echo(emit_report(matrix, fmt), out_path)


@main.command()
@_attack_options
@click.option("--param", required=True, type=click.Choice(list(SWEEPABLE)))
@click.option("--grid", "grid_arg", required=True,
              help="comma-separated values to sweep; each takes its option's flag text")
@click.option("--surrogate", required=True)
@click.option("--targets", required=True)
@click.option("--dataset", required=True)
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default="csv",
              show_default=True)
@click.option("--num-images", type=click.IntRange(min=1), default=None)
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help=_JOBS_HELP)
@_wrap_errors
def ablate(param, grid_arg, surrogate, targets, dataset, out_path, fmt, num_images, jobs,
           filecfg, **cli):
    """Sweep one attack parameter and report per-target success rates."""
    cfg = resolve_attack_config(cli, filecfg)
    parse = next(row[3] for row in _ATTACK_OPTIONS if row[2] == SWEEPABLE[param])
    try:
        grid = [parse(v) for v in _parse_names(grid_arg)]
        swept = [apply_parameter(cfg, param, value) for value in grid]
    except (ValueError, click.BadParameter) as exc:
        raise click.BadParameter(str(exc), param_hint="--grid") from exc
    if not grid:
        raise click.BadParameter("no values to sweep", param_hint="--grid")
    models = load_models(surrogate)
    oracle = models[0] if len(models) == 1 else EnsembleOracle(models)
    target_models = load_models(targets)
    data = load_dataset(dataset, cfg.seed)
    if num_images is not None:
        data = subsample(data, num_images, cfg.seed)
    _check_dim_geometry(swept, data)
    result = ablation_sweep(param, grid, cfg, oracle, target_models, data, jobs=jobs)
    _write_or_echo(emit_report(result, fmt), out_path)


@main.command()
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default="markdown",
              show_default=True)
@click.option("--out", "out_path", default=None, type=click.Path())
@_wrap_errors
def report(in_path, fmt, out_path):
    """Re-render a stored CSV report (matrix or ablation)."""
    try:
        with open(in_path, "r", encoding="utf-8") as fh:
            parsed = parse_report_csv(fh.read())
    except (OSError, ValueError) as exc:
        raise click.ClickException(f"unreadable report {in_path}: {exc}") from exc
    _write_or_echo(emit_report(parsed, fmt), out_path)


if __name__ == "__main__":
    main()
