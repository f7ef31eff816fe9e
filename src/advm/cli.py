"""Command-line front end: train models, craft attacks, evaluate transfer.

Attack settings come from flags, and an option left unset keeps its
AttackConfig default; no environment variable or file is read. One table,
_ATTACK_OPTIONS, names each option's flag, field and parser. --eps accepts
both decimals and fraction literals like 16/255. Attack names use the
hyphenated forms (mi-fgsm, emi-fgsm, ...).

Datasets are either `synthetic:CLASSESxPER_CLASSxSIDE[:NOISE]`, generated
from the run seed, or `idx:IMAGES_PATH,LABELS_PATH` pairs.
"""

import functools
import glob as globmod
import math
import os

import click
from click.core import ParameterSource

from . import __version__
from .attacks import VARIANTS, AttackConfig, attack_batch
from .data import check_label, generate_synthetic, load_idx, subsample
from .errors import AdvmError, ShapeMismatch
from .evaluate import (RateTable, ablation_sweep, attack_success_rate, emit_report,
                       load_attack_set, save_attack_set)
from .fileio import atomic_write_bytes
from .models import ARCHITECTURES, EnsembleOracle, ModelSpec, load_model, save_model, train_sgd
from .sampling import SIZE_LIMIT, SamplingSpec
from .transforms import TransformConfig


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
    """The CLI's one comma-list rule: items stripped, empty items dropped."""
    return tuple(t for t in (s.strip() for s in text.split(",")) if t)


def _parse_side(text: str) -> int | None:
    """A dim side in pixels, or auto (also none or empty): derive it from the image."""
    text = text.strip()
    return None if text.lower() in ("", "none", "auto") else int(text)


# One row per attack option: its flag, the AttackConfig field it sets
# ("group.field" inside sampling or transforms), the parser its text goes
# through, and the flag's help. The defaults are the dataclasses' own.
_ATTACK_OPTIONS = (
    ("--attack", "variant", parse_attack_name,
     "fgsm, i-fgsm, mi-fgsm, ni-fgsm, pi-fgsm, emi-fgsm, eni-fgsm, eri-fgsm"),
    ("--eps", "eps", parse_eps, "L-inf budget; decimal or fraction like 16/255"),
    ("--iters", "iters", click.INT, "iterations T"),
    ("--mu", "mu", click.FLOAT, "momentum decay"),
    ("--eta", "sampling.eta", click.FLOAT, "coefficient radius"),
    ("--samples", "sampling.count", click.INT, "gradients averaged per step"),
    ("--sampling", "sampling.method", str, "linear, uniform or gaussian"),
    ("--transforms", "transforms.enabled", _parse_names, "comma list from: dim,tim,sim"),
    ("--dim-prob", "transforms.dim_prob", click.FLOAT, "dim: transform probability"),
    ("--dim-resize-low", "transforms.dim_resize_low", _parse_side,
     "dim: smallest resize side, or auto"),
    ("--dim-pad-to", "transforms.dim_pad_to", _parse_side, "dim: canvas side, or auto"),
    ("--tim-kernel-size", "transforms.tim_kernel_size", click.INT, "tim: kernel side, odd"),
    ("--tim-sigma", "transforms.tim_sigma", click.FLOAT, "tim: kernel sigma"),
    ("--sim-copies", "transforms.sim_copies", click.INT, "sim: scale copies"),
    ("--normalize-sample-dir", "normalize_sample_dir", click.BOOL,
     "L1-normalize the sampling direction"),
    ("--seed", "seed", click.INT, "run seed, >= 0; default 0"),
)

# Every count flag's type: the library's size rule, >= 1 and < 2**31.
_COUNT = click.IntRange(1, SIZE_LIMIT - 1)


def resolve_attack_config(cli: dict) -> AttackConfig:
    """Each table option from its flag's text, keyed by the flag's parameter
    name, through the row's parser. An option not set keeps its dataclass
    default. A bad value is a usage error."""
    fields = {"": {}, "sampling": {}, "transforms": {}}
    for flag, field, parse, _help in _ATTACK_OPTIONS:
        text = cli.get(flag[2:].replace("-", "_"))
        if text is None:
            continue
        group, _, name = field.rpartition(".")
        try:
            fields[group][name] = parse(text)
        except (ValueError, click.BadParameter) as exc:
            raise click.BadParameter(str(exc), param_hint=flag) from exc
    try:
        return AttackConfig(sampling=SamplingSpec(**fields["sampling"]),
                            transforms=TransformConfig(**fields["transforms"]), **fields[""])
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc


def load_dataset(spec: str, seed: int):
    if spec.startswith("synthetic:"):
        dims, sep, noise = spec[len("synthetic:"):].partition(":")
        if ":" in noise:
            raise click.BadParameter(f"{spec!r} has more than one :NOISE field",
                                     param_hint="--dataset")
        try:
            classes, per_class, side = (int(v) for v in dims.split("x"))
        except ValueError as exc:
            raise click.BadParameter(f"synthetic spec must be CLASSESxPER_CLASSxSIDE, "
                                     f"got {dims!r}", param_hint="--dataset") from exc
        try:
            return generate_synthetic(classes, per_class, side, side, 1,
                                      float(noise) if sep else 0.1, seed)
        except ValueError as exc:
            raise click.BadParameter(f"{spec!r}: {exc}", param_hint="--dataset") from exc
    if spec.startswith("idx:"):
        paths = spec[len("idx:"):].split(",")
        if len(paths) != 2:
            raise click.BadParameter("idx spec must be idx:IMAGES,LABELS",
                                     param_hint="--dataset")
        try:
            return load_idx(paths[0], paths[1])
        except OSError as exc:
            raise click.ClickException(f"unreadable IDX file: {exc}") from exc
    raise click.BadParameter(f"dataset must start with synthetic: or idx:, got {spec!r}",
                             param_hint="--dataset")


def load_models(arg: str) -> list:
    """Comma-separated model paths; each element may be a glob pattern."""
    paths = []
    for token in _parse_names(arg):
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


def _load_targets(arg: str) -> list:
    """The --targets models. A report names each column by its target, so two
    targets of one name (train names a model after its file stem) are refused."""
    models = load_models(arg)
    names = [m.name for m in models]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise click.BadParameter(f"two targets are named {name!r}", param_hint="--targets")
    return models


def _positive_finite(ctx, param, value):
    if not (value > 0.0 and math.isfinite(value)):
        raise click.BadParameter(f"must be finite and > 0, got {value}")
    return value


def _check_out(path: str | None, directory: bool = False) -> None:
    """Refuse an --out path the command could not write, before any work.
    An empty path names no file: eval and ablate then echo."""
    if not path:
        if directory:
            raise click.ClickException("cannot write an empty --out directory name")
        return
    full = os.path.abspath(path)
    if os.path.exists(full) and os.path.isdir(full) != directory:
        raise click.ClickException(f"cannot write {path}: it is {'not ' * directory}a directory")
    base = full if directory else os.path.dirname(full)
    while not os.path.exists(base):
        base = os.path.dirname(base)
    if not (os.path.isdir(base) and os.access(base, os.W_OK | os.X_OK)):
        raise click.ClickException(f"cannot write {path}: {base} is not a writable directory")


def _wrap_errors(fn):
    @functools.wraps(fn)
    def inner(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (AdvmError, OSError, MemoryError) as exc:   # a full disk, or out of memory
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
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--epochs", type=_COUNT, default=8, show_default=True)
@click.option("--lr", type=float, default=0.35, show_default=True, callback=_positive_finite)
@click.option("--batch", type=_COUNT, default=32, show_default=True)
@click.option("--hidden", default="64", show_default=True, help="mlp widths, comma-separated")
@click.option("--conv-channels", type=int, default=8, show_default=True)
@click.option("--conv-kernel", type=int, default=3, show_default=True)
@click.option("--name", default=None, help="default: the output file stem")
@_wrap_errors
def train(arch, dataset, out_path, seed, epochs, lr, batch, hidden, conv_channels,
          conv_kernel, name):
    """Train one model and write its manifest."""
    ctx = click.get_current_context()
    for param, reader in (("hidden", "mlp"), ("conv_channels", "smallcnn"),
                          ("conv_kernel", "smallcnn")):
        if arch != reader and ctx.get_parameter_source(param) is not ParameterSource.DEFAULT:
            raise click.BadParameter(f"only {reader} reads it, not {arch}",
                                     param_hint="--" + param.replace("_", "-"))
    if name is None:
        name = os.path.splitext(os.path.basename(out_path))[0]
    if not name:
        raise click.BadParameter("the model name must not be empty", param_hint="--name")
    _check_out(out_path)
    data = load_dataset(dataset, seed)
    try:
        spec = ModelSpec(
            arch=arch,
            input_shape=data.image_shape,
            num_classes=data.class_count,
            hidden=tuple(int(w) for w in _parse_names(hidden)) if arch == "mlp" else (),
            conv_channels=conv_channels,
            conv_kernel=conv_kernel,
            seed=seed,
        )
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from exc
    model, acc = train_sgd(spec, data, epochs=epochs, lr=lr, batch=batch, seed=seed, name=name)
    save_model(model, out_path)
    click.echo(f"trained {arch} '{name}' on {len(data)} examples: train acc {acc:.3f}")
    click.echo(f"wrote {out_path}")


def _attack_options(fn):
    """The table's flags, passed on as raw text."""
    for flag, _field, parse, help_text in reversed(_ATTACK_OPTIONS):
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
@click.option("--num-images", type=_COUNT, default=None, help="subsample this many examples")
@click.option("--jobs", type=_COUNT, default=1, show_default=True, help=_JOBS_HELP)
@_wrap_errors
def attack_cmd(surrogate, dataset, out_dir, num_images, jobs, **cli):
    """Craft adversarial examples and write them with a manifest."""
    _check_out(out_dir, directory=True)
    cfg = resolve_attack_config(cli)
    models, oracle, data = _load_attack_inputs(surrogate, dataset, num_images, [cfg])
    results = attack_batch(oracle, data.images, data.labels, cfg, jobs=jobs)
    save_attack_set(out_dir, cfg, [m.name for m in models], data.labels, results)
    wb = sum(r.white_box_success for r in results) / len(results)
    click.echo(f"{cfg.variant} on {oracle.name}: {len(results)} examples, white-box success "
               f"{100.0 * wb:.1f}% (config {cfg.config_hash()})")
    click.echo(f"wrote {out_dir}/")


def _load_attack_inputs(surrogate: str, dataset: str, num_images, cfgs) -> tuple:
    """The surrogate models, their oracle (one model or their ensemble), and the
    dataset subsampled with the run seed, once its labels are classes of the
    oracle and the configs' geometry fits its images."""
    models = load_models(surrogate)
    # one surrogate is queried as itself: its queries stay Model.loss_and_grad calls
    oracle = models[0] if len(models) == 1 else EnsembleOracle(models)
    data = load_dataset(dataset, cfgs[0].seed)
    if num_images is not None:
        data = subsample(data, num_images, cfgs[0].seed)
    for y in data.labels:
        check_label(y, oracle.num_classes, f"surrogate {oracle.name}")
    for cfg in cfgs:   # a usage error before any attack work; run_attack checks it too
        try:
            cfg.transforms.check_shape(data.image_shape)
        except ShapeMismatch as exc:
            raise click.BadParameter(str(exc)) from exc
    return models, oracle, data


def _write_or_echo(text: str, out_path: str | None) -> None:
    """Write a rendered report to out_path and say so, or echo it without one."""
    if out_path:
        atomic_write_bytes(out_path, text.encode())
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
    _check_out(out_path)
    manifest, advs = load_attack_set(adv_dir)
    target_models = _load_targets(targets)
    rates = tuple(attack_success_rate(t, advs, manifest["labels"]) for t in target_models)
    matrix = RateTable(rows=("+".join(manifest["surrogates"]),),
                       targets=tuple(t.name for t in target_models), rates=(rates,),
                       n_examples=len(advs), config_hash=manifest["config_hash"])
    _write_or_echo(emit_report(matrix, fmt), out_path)


# The table's flags that ablate can sweep, without their leading --, which is
# also each one's parameter name. Not all of them: an auto dim side parses to
# None, which does not sort against ints, and transforms parses to a tuple.
_SWEEPABLE = ("samples", "eta", "sampling", "mu", "iters", "eps")


@main.command()
@_attack_options
@click.option("--param", required=True, type=click.Choice(_SWEEPABLE))
@click.option("--grid", "grid_arg", required=True,
              help="comma-separated values to sweep; each takes its option's flag text")
@click.option("--surrogate", required=True)
@click.option("--targets", required=True)
@click.option("--dataset", required=True)
@click.option("--out", "out_path", default=None, type=click.Path())
@click.option("--format", "fmt", type=click.Choice(["csv", "markdown"]), default="csv",
              show_default=True)
@click.option("--num-images", type=_COUNT, default=None)
@click.option("--jobs", type=_COUNT, default=1, show_default=True, help=_JOBS_HELP)
@_wrap_errors
def ablate(param, grid_arg, surrogate, targets, dataset, out_path, fmt, num_images, jobs,
           **cli):
    """Sweep one attack parameter and report per-target success rates."""
    _check_out(out_path)
    cfg = resolve_attack_config(cli)
    field = next(row[1] for row in _ATTACK_OPTIONS if row[0] == "--" + param)
    cfgs = {}   # grid value -> config; of texts that parse equal, the first wins
    for text in _parse_names(grid_arg):
        try:
            swept = resolve_attack_config({**cli, param: text})
        except click.BadParameter as exc:
            raise click.BadParameter(str(exc), param_hint="--grid") from exc
        cfgs.setdefault(functools.reduce(getattr, field.split("."), swept), swept)
    if not cfgs:
        raise click.BadParameter("no values to sweep", param_hint="--grid")
    _, oracle, data = _load_attack_inputs(surrogate, dataset, num_images, list(cfgs.values()))
    target_models = _load_targets(targets)
    result = ablation_sweep(param, cfgs, cfg, oracle, target_models, data, jobs=jobs)
    _write_or_echo(emit_report(result, fmt), out_path)


if __name__ == "__main__":
    main()
