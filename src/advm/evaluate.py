"""Transferability evaluation: success rates, transfer matrices, ablations.

Success rate is the untargeted convention: the fraction of adversarial
images the target model misclassifies, counting examples the target
already got wrong. Transfer numbers are averaged over replicates
elsewhere; this module computes one matrix or sweep at a time and
round-trips them through CSV.
"""

import csv
import io
from dataclasses import dataclass, replace

from .attacks import AttackConfig, attack_batch
from .data import LabeledDataset
from .errors import EmptyDataset, UnknownParameter
from .models import EnsembleOracle

_MATRIX_HEADER = ["surrogate", "target", "rate", "n", "config_hash"]
_ABLATION_HEADER = ["parameter", "value", "target", "rate", "n", "config_hash"]


def attack_success_rate(target, adv_images, labels) -> float:
    """Fraction of adversarial images the target misclassifies."""
    if len(adv_images) != len(labels):
        raise ValueError(f"{len(adv_images)} images vs {len(labels)} labels")
    if not adv_images:
        raise EmptyDataset("no adversarial images to score")
    wrong = sum(target.predict(img) != y for img, y in zip(adv_images, labels))
    return wrong / len(adv_images)


@dataclass(frozen=True)
class TransferMatrix:
    surrogates: tuple
    targets: tuple
    rates: tuple              # rates[i][j]: crafted on surrogate i, scored on target j
    n_examples: int
    config_hash: str
    seed: int | None = None

    def rate(self, surrogate: str, target: str) -> float:
        i = self.surrogates.index(surrogate)
        j = self.targets.index(target)
        return self.rates[i][j]


@dataclass(frozen=True)
class AblationResult:
    parameter: str
    grid: tuple
    targets: tuple
    curves: tuple             # curves[j][k]: target j at grid value k
    n_examples: int
    config_hash: str
    seed: int | None = None

    def mean_curve(self) -> tuple:
        """Grid-aligned rates averaged over targets."""
        n_t = len(self.targets)
        return tuple(
            sum(self.curves[j][k] for j in range(n_t)) / n_t
            for k in range(len(self.grid))
        )


def transfer_matrix(
    surrogates,
    targets,
    dataset: LabeledDataset,
    cfg: AttackConfig,
    jobs: int = 1,
    ensemble: bool = False,
) -> TransferMatrix:
    """Craft on each surrogate (or their logit-fused ensemble), score on
    every target. Identical target models produce identical columns."""
    if len(dataset) == 0:
        raise EmptyDataset("no examples to attack")
    if ensemble and len(surrogates) > 1:
        crafting = [EnsembleOracle(surrogates)]
    else:
        crafting = list(surrogates)
    rows = []
    for oracle in crafting:
        results = attack_batch(oracle, dataset.images, dataset.labels, cfg, jobs=jobs)
        advs = [r.adv for r in results]
        rows.append(
            tuple(attack_success_rate(t, advs, dataset.labels) for t in targets)
        )
    return TransferMatrix(
        surrogates=tuple(o.name for o in crafting),
        targets=tuple(t.name for t in targets),
        rates=tuple(rows),
        n_examples=len(dataset),
        config_hash=cfg.config_hash(),
        seed=cfg.seed,
    )


# The parameters an ablation can sweep, and the AttackConfig field each one
# sets ("group.field" inside a nested spec). The CLI parses grid values with
# the parser of the attack option that sets the same field.
SWEEPABLE = {
    "samples": "sampling.count",
    "eta": "sampling.eta",
    "sampling_method": "sampling.method",
    "mu": "mu",
    "iters": "iters",
    "eps": "eps",
}


def apply_parameter(cfg: AttackConfig, parameter: str, value) -> AttackConfig:
    """A copy of cfg with one swept parameter set to value, as given."""
    if parameter not in SWEEPABLE:
        raise UnknownParameter(f"cannot sweep {parameter!r}; one of {tuple(SWEEPABLE)}")
    group, _, name = SWEEPABLE[parameter].rpartition(".")
    if group:
        return replace(cfg, **{group: replace(getattr(cfg, group), **{name: value})})
    return replace(cfg, **{name: value})


def ablation_sweep(
    parameter: str,
    grid,
    base_cfg: AttackConfig,
    surrogate,
    targets,
    dataset: LabeledDataset,
    jobs: int = 1,
) -> AblationResult:
    """Success rate per target for each grid value of one parameter.

    The grid is sorted (numerically when numeric) and deduplicated; every
    point reuses the same dataset, surrogate, and seed, so the swept
    parameter is the only thing that changes.
    """
    if not grid:
        raise ValueError("empty ablation grid")
    values = sorted(set(grid)) if not isinstance(grid[0], str) else sorted(set(grid))
    per_target = [[] for _ in targets]
    for value in values:
        cfg = apply_parameter(base_cfg, parameter, value)
        results = attack_batch(surrogate, dataset.images, dataset.labels, cfg, jobs=jobs)
        advs = [r.adv for r in results]
        for j, t in enumerate(targets):
            per_target[j].append(attack_success_rate(t, advs, dataset.labels))
    return AblationResult(
        parameter=parameter,
        grid=tuple(values),
        targets=tuple(t.name for t in targets),
        curves=tuple(tuple(c) for c in per_target),
        n_examples=len(dataset),
        config_hash=base_cfg.config_hash(),
        seed=base_cfg.seed,
    )


# -- reports -----------------------------------------------------------------


def emit_report(result, fmt: str = "csv") -> str:
    """Render a TransferMatrix or AblationResult as CSV or markdown.

    CSV rates use repr floats, so parsing the report back reproduces the
    numbers exactly. Output is deterministic for identical inputs.
    """
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"unknown report format {fmt!r}")
    if isinstance(result, TransferMatrix):
        return _matrix_csv(result) if fmt == "csv" else _matrix_markdown(result)
    if isinstance(result, AblationResult):
        return _ablation_csv(result) if fmt == "csv" else _ablation_markdown(result)
    raise TypeError(f"cannot report a {type(result).__name__}")


def _matrix_csv(m: TransferMatrix) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_MATRIX_HEADER)
    for i, s in enumerate(m.surrogates):
        for j, t in enumerate(m.targets):
            w.writerow([s, t, repr(m.rates[i][j]), m.n_examples, m.config_hash])
    return buf.getvalue()


def _matrix_markdown(m: TransferMatrix) -> str:
    lines = [
        "| surrogate \\ target | " + " | ".join(m.targets) + " |",
        "| --- |" + " --- |" * len(m.targets),
    ]
    for i, s in enumerate(m.surrogates):
        cells = []
        for j, t in enumerate(m.targets):
            mark = "*" if s == t else ""   # white-box cell
            cells.append(f"{100.0 * m.rates[i][j]:.1f}{mark}")
        lines.append(f"| {s} | " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(f"n={m.n_examples}, config={m.config_hash} (* = white-box)")
    return "\n".join(lines) + "\n"


def _ablation_csv(a: AblationResult) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(_ABLATION_HEADER)
    for k, v in enumerate(a.grid):
        for j, t in enumerate(a.targets):
            w.writerow([a.parameter, v, t, repr(a.curves[j][k]), a.n_examples, a.config_hash])
    return buf.getvalue()


def _ablation_markdown(a: AblationResult) -> str:
    header = [str(v) for v in a.grid]
    lines = [
        f"| target \\ {a.parameter} | " + " | ".join(header) + " |",
        "| --- |" + " --- |" * len(a.grid),
    ]
    for j, t in enumerate(a.targets):
        cells = [f"{100.0 * a.curves[j][k]:.1f}" for k in range(len(a.grid))]
        lines.append(f"| {t} | " + " | ".join(cells) + " |")
    mean = [f"{100.0 * v:.1f}" for v in a.mean_curve()]
    lines.append("| mean | " + " | ".join(mean) + " |")
    lines.append("")
    lines.append(f"n={a.n_examples}, config={a.config_hash}")
    return "\n".join(lines) + "\n"


def parse_report_csv(text: str):
    """Inverse of emit_report(..., "csv"); detects which report type it is."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty report")
    header = rows[0]
    if header == _MATRIX_HEADER:
        return _parse_matrix(rows[1:])
    if header == _ABLATION_HEADER:
        return _parse_ablation(rows[1:])
    raise ValueError(f"unrecognized report header {header}")


def _parse_matrix(rows) -> TransferMatrix:
    if not rows:
        raise ValueError("matrix report has no data rows")
    surrogates, targets, cells = [], [], {}
    n, config_hash = None, None
    for s, t, rate, n_str, h in rows:
        if s not in surrogates:
            surrogates.append(s)
        if t not in targets:
            targets.append(t)
        cells[(s, t)] = float(rate)
        n, config_hash = int(n_str), h
    rates = tuple(tuple(cells[(s, t)] for t in targets) for s in surrogates)
    return TransferMatrix(
        surrogates=tuple(surrogates),
        targets=tuple(targets),
        rates=rates,
        n_examples=n,
        config_hash=config_hash,
    )


def _parse_ablation(rows) -> AblationResult:
    if not rows:
        raise ValueError("ablation report has no data rows")
    parameter = rows[0][0]
    grid, targets, cells = [], [], {}
    n, config_hash = None, None
    for p, v, t, rate, n_str, h in rows:
        if v not in grid:
            grid.append(v)
        if t not in targets:
            targets.append(t)
        cells[(v, t)] = float(rate)
        n, config_hash = int(n_str), h
    curves = tuple(tuple(cells[(v, t)] for v in grid) for t in targets)
    return AblationResult(
        parameter=parameter,
        grid=tuple(grid),
        targets=tuple(targets),
        curves=curves,
        n_examples=n,
        config_hash=config_hash,
    )
