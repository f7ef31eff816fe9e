"""Transferability evaluation: success rates, ablations, rate reports, attack sets.

fooled flags each adversarial image the target misclassifies, counting
examples the target already got wrong (the untargeted convention); a
success rate is their mean. One builder crafts and scores every table,
here and in experiment's replicate study: each (oracle, config, dataset)
group is crafted once and scored on that group's targets.

A transfer matrix (`advm eval`'s) and an ablation are one RateTable, row
label x target: a matrix's rows are its surrogates, an ablation's are its
grid values, named by its `parameter` (None for a matrix). One CSV writer
gives a line per cell with exact repr rates; one markdown renderer draws
either from its corner cell, cells and footer.

An attack set is the hand-off from `advm attack` to `advm eval`: a
directory of one .emtn file per adversarial image plus the manifest.json
that names them. Both files' formats live here. An .emtn file is magic
"EMTN", a version byte, a little-endian u32 rank, the dims as little-endian
u32, then the raw float64 payload in row-major order; round trips are
bit-exact.
"""

import contextlib
import csv
import glob
import io
import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .attacks import AttackConfig, attack_batch
from .data import LabeledDataset, check_label
from .errors import AdvmError, CorruptFile, EmptyDataset, VersionMismatch
from .fileio import atomic_write_bytes, parse_manifest
from .sampling import SIZE_LIMIT
from .tensor import validate_image

_MATRIX_HEADER = ["surrogate", "target", "rate", "n", "config_hash"]
_ABLATION_HEADER = ["parameter", "value", "target", "rate", "n", "config_hash"]


def fooled(target, adv_images, labels) -> tuple:
    """One flag per adversarial image: True where the target misclassifies it. A
    label past the target's classes would always count as fooled, so it is refused."""
    if len(adv_images) != len(labels):
        raise ValueError(f"{len(adv_images)} images vs {len(labels)} labels")
    if len(adv_images) == 0:   # not `not adv_images`: a stacked array has no truth value
        raise EmptyDataset("no adversarial images to score")
    whose = f"target {target.name}"
    for y in labels:
        check_label(y, target.num_classes, whose)
    return tuple(bool(target.predict(img) != y) for img, y in zip(adv_images, labels))


def attack_success_rate(target, adv_images, labels) -> float:
    """Fraction of adversarial images the target misclassifies: the mean of their flags."""
    flags = fooled(target, adv_images, labels)
    return sum(flags) / len(flags)


def _craft_and_score(groups, jobs: int = 1) -> tuple:
    """(rates, flags) over (oracle, cfg, dataset, targets) groups: each group's dataset
    is crafted once on its oracle, and flags[i][j] holds the fooled flags of group i's
    images on its target j, rates[i][j] their mean. Every group's labels are checked
    against its targets before the first attack."""
    if not groups:
        raise ValueError("nothing to craft: an empty ablation grid")
    for _, _, dataset, targets in groups:
        if not targets:
            raise ValueError("no target models to score")
        for t in targets:
            for y in dataset.labels:
                check_label(y, t.num_classes, f"target {t.name}")
    flags = []
    for oracle, cfg, dataset, targets in groups:
        advs = [r.adv for r in attack_batch(oracle, dataset.images, dataset.labels, cfg, jobs=jobs)]
        flags.append(tuple(fooled(t, advs, dataset.labels) for t in targets))
    return tuple(tuple(sum(f) / len(f) for f in row) for row in flags), tuple(flags)


@dataclass(frozen=True)
class RateTable:
    rows: tuple               # surrogate names (a matrix) or grid values (an ablation)
    targets: tuple
    rates: tuple              # rates[i][j]: row i scored on target j
    n_examples: int
    config_hash: str
    parameter: str | None = None   # the swept parameter; None for a transfer matrix

    def __post_init__(self):   # zip would drop the cells of a short grid unseen
        if [len(r) for r in self.rates] != [len(self.targets)] * len(self.rows):
            raise ValueError(f"rates must be {len(self.rows)} rows x {len(self.targets)} targets")

    def mean_curve(self) -> tuple:
        """Each row's rate averaged over the targets."""
        return tuple(sum(row) / len(self.targets) for row in self.rates)


def ablation_sweep(
    parameter: str,
    cfgs: dict,
    base_cfg: AttackConfig,
    surrogate,
    targets,
    dataset: LabeledDataset,
    jobs: int = 1,
) -> RateTable:
    """Success rate per target for each {value: AttackConfig} point of a
    sweep of one parameter, in sorted value order.

    Every point reuses the same dataset, surrogate, and seed, so the swept
    parameter is the only thing that changes; the table carries base_cfg's
    hash.
    """
    values = sorted(cfgs)
    return RateTable(
        rows=tuple(values),
        targets=tuple(t.name for t in targets),
        rates=_craft_and_score([(surrogate, cfgs[v], dataset, targets) for v in values], jobs)[0],
        n_examples=len(dataset),
        config_hash=base_cfg.config_hash(),
        parameter=parameter,
    )


# -- reports -----------------------------------------------------------------


def emit_report(result: RateTable, fmt: str = "csv") -> str:
    """Render a RateTable as CSV or markdown.

    CSV rates use repr floats, so float() of a rate cell gives back the
    table's number exactly. Output is deterministic for identical inputs.
    """
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"unknown report format {fmt!r}")
    if not isinstance(result, RateTable):
        raise TypeError(f"cannot report a {type(result).__name__}")
    lead = [] if result.parameter is None else [result.parameter]
    footer = f"n={result.n_examples}, config={result.config_hash}"
    if fmt == "csv":   # a reader can only key each line by its (row, target) text
        for what, names in (("row", result.rows), ("target", result.targets)):
            written = [str(v) for v in names]
            for i, name in enumerate(written):
                if name in written[:i]:
                    raise ValueError(f"{what} {name!r} appears twice; a CSV report "
                                     "could not tell the two apart")
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(_ABLATION_HEADER if lead else _MATRIX_HEADER)
        for label, row in zip(result.rows, result.rates):
            for t, r in zip(result.targets, row):
                w.writerow(lead + [label, t, repr(r), result.n_examples, result.config_hash])
        return buf.getvalue()
    if lead:   # rows are targets, columns grid values, plus a mean row
        cells = [(t, [_pct(r) for r in curve])
                 for t, curve in zip(result.targets, zip(*result.rates))]
        cells.append(("mean", [_pct(r) for r in result.mean_curve()]))
        return _markdown_table(f"target \\ {result.parameter}", result.rows, cells, footer)
    cells = [(s, [_pct(r) + ("*" if s == t else "") for t, r in zip(result.targets, row)])
             for s, row in zip(result.rows, result.rates)]
    return _markdown_table("surrogate \\ target", result.targets, cells,
                           footer + " (* = white-box)")


def _markdown_table(corner, columns, cells, footer: str) -> str:
    lines = [f"| {corner} | " + " | ".join(str(c) for c in columns) + " |",
             "| --- |" + " --- |" * len(columns)]
    lines += [f"| {label} | " + " | ".join(row) + " |" for label, row in cells]
    return "\n".join(lines + ["", footer]) + "\n"


def _pct(rate: float) -> str:
    return f"{100.0 * rate:.1f}"


# An attack set's manifest.json fields besides its format and version, with their
# JSON types: save_attack_set writes exactly these and load_attack_set checks them.
_ADVSET_FORMAT, _ADVSET_VERSION = "advm-advset", 1
_ADVSET_FIELDS = {"config": dict, "config_hash": str, "count": int, "files": list,
                  "labels": list, "surrogates": list, "white_box": list}
_MANIFEST_NAME = "manifest.json"
_EMTN_MAGIC, _EMTN_VERSION = b"EMTN", 1


def _encode_tensor(t) -> bytes:
    arr = np.ascontiguousarray(t, dtype="<f8")
    header = struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape)
    return _EMTN_MAGIC + bytes([_EMTN_VERSION]) + header + arr.tobytes()


def _decode_tensor(data: bytes) -> np.ndarray:
    """The array in an .emtn file's bytes. A refusal names no file: the caller does."""
    if len(data) < 9:
        raise CorruptFile("tensor blob shorter than its fixed header")
    if data[:4] != _EMTN_MAGIC:
        raise CorruptFile(f"expected {_EMTN_MAGIC!r}, got {data[:4]!r}")
    if data[4] != _EMTN_VERSION:
        raise VersionMismatch(f"unsupported tensor format version {data[4]}")
    (rank,) = struct.unpack_from("<I", data, 5)
    if rank > 32:
        raise CorruptFile(f"implausible tensor rank {rank}")
    if len(data) < 9 + 4 * rank:
        raise CorruptFile("tensor blob truncated inside the dims block")
    dims = struct.unpack_from(f"<{rank}I", data, 9)
    count, payload = math.prod(dims), data[9 + 4 * rank:]
    if len(payload) != 8 * count:
        raise CorruptFile(f"dims {dims} need {8 * count} payload bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype="<f8").reshape(dims).copy()


def save_attack_set(out_dir: str, cfg: AttackConfig, surrogates: list, labels, results) -> None:
    """Each result's adversarial image as a tensor file in out_dir, then the manifest. A
    set load_attack_set would refuse is refused before any write; then an old manifest goes
    first, so a write that stops short leaves none behind to name a mix of new and old tensors."""
    if len(labels) != len(results):
        raise ValueError(f"{len(labels)} labels vs {len(results)} results")
    if len(results) == 0:
        raise EmptyDataset("no adversarial examples to save")
    for y in labels:
        check_label(y, SIZE_LIMIT, "an attack set")
    if not (isinstance(surrogates, list) and surrogates
            and all(type(s) is str and s for s in surrogates)):
        raise ValueError(f"surrogates must be a non-empty list of model names, got {surrogates!r}")
    manifest_path = os.path.join(out_dir, _MANIFEST_NAME)
    with contextlib.suppress(FileNotFoundError):
        os.remove(manifest_path)
    files = [f"adv_{i:05d}.emtn" for i in range(len(results))]
    for fname, r in zip(files, results):
        atomic_write_bytes(os.path.join(out_dir, fname), _encode_tensor(r.adv))
    for stale in set(glob.glob("adv_" + "[0-9]" * 5 + ".emtn", root_dir=out_dir)) - set(files):
        os.remove(os.path.join(out_dir, stale))   # a longer set written here before
    values = {"config": asdict(cfg), "config_hash": cfg.config_hash(), "count": len(results),
              "files": files, "labels": [int(y) for y in labels], "surrogates": surrogates,
              "white_box": [r.white_box_success for r in results]}
    manifest = {"format": _ADVSET_FORMAT, "version": _ADVSET_VERSION,
                **{key: values[key] for key in _ADVSET_FIELDS}}
    atomic_write_bytes(manifest_path, json.dumps(manifest, sort_keys=True, indent=1).encode())


def load_attack_set(adv_dir: str) -> tuple:
    """The checked manifest of the attack set in adv_dir, and its images. No manifest or no
    example is an EmptyDataset, any other refusal a CorruptFile that names the file."""
    manifest_path = os.path.join(adv_dir, _MANIFEST_NAME)
    try:
        with open(manifest_path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError as exc:
        raise EmptyDataset(f"no adversarial examples: {manifest_path} missing") from exc
    except OSError as exc:
        raise CorruptFile(f"unreadable manifest {manifest_path}: {exc}") from exc
    manifest = parse_manifest(data, manifest_path, _ADVSET_FORMAT, _ADVSET_VERSION, _ADVSET_FIELDS)
    if manifest["count"] == 0 or not manifest["files"]:
        raise EmptyDataset(f"no adversarial examples in the manifest {manifest_path}")
    surrogates, files, white_box = manifest["surrogates"], manifest["files"], manifest["white_box"]
    if not surrogates or not all(type(s) is str and s for s in surrogates):
        raise CorruptFile(f"{manifest_path}: surrogates must be a non-empty list of model names")
    if not manifest["count"] == len(files) == len(manifest["labels"]) == len(white_box):
        raise CorruptFile(f"{manifest_path}: count {manifest['count']!r} does not match its "
                          f"files, labels and white_box lists")
    if not all(type(w) is bool for w in white_box):
        raise CorruptFile(f"{manifest_path}: white_box must be a list of booleans")
    advs = []
    for f in files:
        if not isinstance(f, str) or f in ("", ".", "..") or os.path.basename(f) != f:
            raise CorruptFile(f"{manifest_path}: {f!r} is not a plain file name")
        try:
            with open(os.path.join(adv_dir, f), "rb") as fh:
                advs.append(_decode_tensor(fh.read()))
            validate_image(advs[-1])
        except (OSError, ValueError, AdvmError) as exc:
            raise CorruptFile(f"unreadable adversarial tensor {f}: {exc}") from exc
    return manifest, advs
