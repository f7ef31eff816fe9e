"""Transferability evaluation: success rates, transfer matrices, ablations.

Success rate is the untargeted convention: the fraction of adversarial
images the target model misclassifies, counting examples the target
already got wrong. Transfer numbers are averaged over replicates
elsewhere; this module computes one matrix or sweep at a time.

Both results report as one table of rates, row label x target: a matrix's
rows are its surrogates, an ablation's are its grid values (the table is
zip(*curves)) behind a leading `parameter` column. One CSV writer gives a
line per cell and one parser reads either type back exactly; one markdown
renderer draws either from its corner cell, cells and footer.
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
    if not targets:
        raise ValueError("no target models to score")
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
    if not targets:
        raise ValueError("no target models to score")
    values = sorted(set(grid))
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
        lead, labels, table = [], result.surrogates, result.rates
    elif isinstance(result, AblationResult):
        lead, labels, table = [result.parameter], result.grid, tuple(zip(*result.curves))
    else:
        raise TypeError(f"cannot report a {type(result).__name__}")
    footer = f"n={result.n_examples}, config={result.config_hash}"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_ABLATION_HEADER if lead else _MATRIX_HEADER)
        for label, row in zip(labels, table):
            for t, r in zip(result.targets, row):
                w.writerow(lead + [label, t, repr(r), result.n_examples, result.config_hash])
        return buf.getvalue()
    if lead:   # rows are targets, columns grid values, plus a mean row
        cells = [(t, [_pct(r) for r in curve]) for t, curve in zip(result.targets, result.curves)]
        cells.append(("mean", [_pct(r) for r in result.mean_curve()]))
        return _markdown_table(f"target \\ {result.parameter}", result.grid, cells, footer)
    cells = [(s, [_pct(r) + ("*" if s == t else "") for t, r in zip(result.targets, row)])
             for s, row in zip(result.surrogates, result.rates)]
    return _markdown_table("surrogate \\ target", result.targets, cells,
                           footer + " (* = white-box)")


def _markdown_table(corner, columns, cells, footer: str) -> str:
    lines = [f"| {corner} | " + " | ".join(str(c) for c in columns) + " |",
             "| --- |" + " --- |" * len(columns)]
    lines += [f"| {label} | " + " | ".join(row) + " |" for label, row in cells]
    return "\n".join(lines + ["", footer]) + "\n"


def _pct(rate: float) -> str:
    return f"{100.0 * rate:.1f}"


def parse_report_csv(text: str):
    """Inverse of emit_report(..., "csv"); detects which report type it is.

    Raises ValueError unless every (row, target) cell appears exactly once
    and all rows agree on the parameter, n and config_hash.
    """
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty report")
    header, body = rows[0], rows[1:]
    if header not in (_MATRIX_HEADER, _ABLATION_HEADER):
        raise ValueError(f"unrecognized report header {header}")
    if not body:
        raise ValueError("report has no data rows")
    labels, targets, cells, shared = {}, {}, {}, set()
    for row in body:
        if len(row) != len(header):
            raise ValueError(f"row {row} has {len(row)} fields, want {len(header)}")
        *lead, label, t, rate, n, h = row
        if (label, t) in cells:
            raise ValueError(f"duplicate rate for row {label!r}, target {t!r}")
        labels[label] = targets[t] = None
        cells[(label, t)] = float(rate)
        shared.add((tuple(lead), int(n), h))
    if len(shared) > 1:
        raise ValueError("rows disagree on the parameter, n or config_hash")
    missing = [(r, t) for r in labels for t in targets if (r, t) not in cells]
    if missing:
        raise ValueError(f"no rate for row {missing[0][0]!r}, target {missing[0][1]!r}")
    lead, n, h = shared.pop()
    table = tuple(tuple(cells[(r, t)] for t in targets) for r in labels)
    if not lead:
        return TransferMatrix(surrogates=tuple(labels), targets=tuple(targets), rates=table,
                              n_examples=n, config_hash=h)
    return AblationResult(parameter=lead[0], grid=tuple(labels), targets=tuple(targets),
                          curves=tuple(zip(*table)), n_examples=n, config_hash=h)
