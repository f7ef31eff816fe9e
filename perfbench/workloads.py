"""The benchmark's workloads, their output checks and their metrics.

Every workload is a closed loop driven from this one process: the next
attack (or CLI pass) starts when the previous one returns. The worlds
are built from a fixed seed; the workload seed picks the attacked images
and seeds the attacks. The program sees only the generated images,
labels and trained models.

- attack-plain: the experiment white-box world, all eight variants at
  paper defaults, no transforms, jobs=1. One round attacks one image
  with every variant.
- attack-dts:   the same world, mi-fgsm and emi-fgsm under dim,tim,sim,
  jobs=1. One round attacks one image with both variants.
- transfer-cli: one replicate transfer world built and attacked through
  the `advm` CLI entry point in-process: `train` for a surrogate and
  three targets, then per pass `attack --attack emi-fgsm --jobs 2` and
  `eval` on a fresh batch of images.

All calls into advm go through module attributes (`attacks.attack_one`,
never a name imported from it), so the tracer's patches catch them.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import signal
import statistics
import struct
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from advm import attacks, cli, data, evaluate, experiment, models
from advm.attacks import VARIANTS, AttackConfig
from advm.sampling import SamplingSpec
from advm.transforms import TransformConfig

from tracing import Summary

# Paper defaults: eps = 16/255, T = 10, mu = 1, N = 11 linear samples, eta = 7.
EPS = 16.0 / 255.0
ITERS = 10
MU = 1.0
SAMPLES = 11
ETA = 7.0
DTS = ("dim", "tim", "sim")
DTS_VARIANTS = ("mifgsm", "emifgsm")
TRANSFER_VARIANT = "emifgsm"

# Slack on the eps-ball test: project_linf clips to origin +- eps, which is
# exact up to one rounding of origin + eps.
BALL_TOL = 1e-12

# Transfer world, shaped like the experiment module's replicate worlds:
# (name, conv channels, conv kernel, seed offset, training window out of 240).
ZOO = (
    ("surrogate", 8, 3, 11, (0, 100)),
    ("t0", 6, 5, 22, (140, 240)),
    ("t1", 10, 3, 33, (70, 170)),
    ("t2", 12, 5, 44, (35, 135)),
)
TRANSFER_NOISE = 0.20
TRANSFER_CONTRAST = 0.40
TRAIN_LR = 0.1
TRAIN_BATCH = 32

# The worlds (training data and models) use one fixed seed, so setup does
# the same work on every run and the rates vary only with the attacked
# images; the workload seed picks those images and seeds the attacks.
WORLD_SEED = experiment.DESK_DEFAULT_SEED
# `advm eval` runs this many times per transfer pass, for a median eval time.
EVAL_REPEATS = 5

# On shared cores the speed of one core changes by up to 1.7x within
# seconds and drifts over minutes, and CPU time varies as much as wall
# time, so raw times of the same code spread past the metrics' bounds.
# Every timed step is therefore bracketed by a fixed calibration kernel
# that calls no advm code, and its time is scaled to a machine on which
# that kernel takes REF_S seconds. The kernel is the kind of work advm does
# most: forward and input gradient of a small conv net on a 28x28 image
# (im2col matmul, ReLU, 2x2 average pool, dense softmax), in numpy. Kernels
# of other kinds (a large matmul alone, elementwise numpy ops alone, a
# plain Python loop) tracked the host's speed changes less closely, and so
# did the kernel run in two threads at once for the two-thread CLI attack.
REF_S = 0.003
SAMPLE_S = 0.2   # calibration period inside a world build
CAL_REPS = 10
_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.random((28, 28, 1))
_CAL_W = _CAL_RNG.standard_normal((9, 8)) * 0.3
_CAL_FC = _CAL_RNG.standard_normal((6, 14 * 14 * 8)) * 0.05


def calibrate() -> float:
    """Seconds CAL_REPS passes of the calibration kernel take now."""
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        xp = np.pad(_CAL_X, ((1, 1), (1, 1), (0, 0)))
        cols = sliding_window_view(xp, (3, 3), axis=(0, 1)).reshape(784, 9)
        pre = (cols @ _CAL_W).reshape(28, 28, 8)
        pooled = np.maximum(pre, 0.0).reshape(14, 2, 14, 2, 8).mean(axis=(1, 3))
        z = _CAL_FC @ pooled.ravel()
        g = np.exp(z - z.max())
        g /= g.sum()
        g[0] -= 1.0
        dpool = (_CAL_FC.T @ g).reshape(14, 14, 8)
        dpre = np.repeat(np.repeat(dpool, 2, axis=0), 2, axis=1) / 4.0 * (pre > 0.0)
        dcols = (dpre.reshape(784, 8) @ _CAL_W.T).reshape(28, 28, 3, 3)
        dxp = np.zeros((30, 30))
        for i in range(3):
            for j in range(3):
                dxp[i:i + 28, j:j + 28] += dcols[:, :, i, j]
    return time.perf_counter() - t0


class Clock:
    """Times steps in reference seconds; keeps every calibration time for the result file."""

    def __init__(self):
        calibrate()          # warm-up: first BLAS call, cold caches
        self.samples = []    # per step: its calibration times, in order

    def measure(self, fn, *args, sample=False):
        """(fn(*args), its time in seconds at the reference speed).

        Calibrates just before and after the call. With `sample` (world
        builds, which take seconds over which the host's speed changes) a
        timer signal also calibrates every SAMPLE_S seconds inside it, and
        those runs are taken out of its time (traced runs, which report no
        setup_s, skip this so the spans hold no calibration time). Each
        calibration time c says the host ran at REF_S / c of the reference
        speed then; the calibrations are spread evenly over the step, so
        the mean of REF_S / c converts its time to reference seconds.
        """
        cals = [calibrate()]
        if sample:
            old = signal.signal(signal.SIGALRM, lambda *_: cals.append(calibrate()))
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        raw_s = time.perf_counter() - t0
        inside_s = sum(cals[1:])
        cals.append(calibrate())
        self.samples.append(cals)
        return result, (raw_s - inside_s) * statistics.mean(REF_S / c for c in cals)


@dataclass(frozen=True)
class Size:
    smoke: bool
    setup_reps: int       # world builds per untraced run; setup_s is their median
    subsample: int        # eval images the white-box rounds cycle through
    min_rounds: int       # leading rounds (or passes) always run; they are hashed
    pass_images: int      # images per CLI attack pass (transfer-cli)
    replay_images: int    # prefix of pass 0 replayed at jobs=1 (transfer-cli)
    classes: int
    per_class: int
    side: int
    train_per_class: int
    epochs: int


FULL = Size(smoke=False, setup_reps=3, subsample=128, min_rounds=2,
            pass_images=24, replay_images=6, classes=6, per_class=340, side=28,
            train_per_class=240, epochs=8)
SMOKE = Size(smoke=True, setup_reps=1, subsample=8, min_rounds=2,
             pass_images=4, replay_images=2, classes=6, per_class=16, side=12,
             train_per_class=12, epochs=1)


def attack_config(variant: str, seed: int, enabled=()) -> AttackConfig:
    return AttackConfig(
        variant=variant, eps=EPS, iters=ITERS, mu=MU,
        sampling=SamplingSpec(method="linear", count=SAMPLES, eta=ETA),
        transforms=TransformConfig(enabled=tuple(enabled)), seed=seed,
    )


def analytic_queries(cfg: AttackConfig) -> int:
    """Oracle queries one image costs: 1, T or N*T, times the sim copies."""
    if cfg.variant == "fgsm":
        n = 1
    elif cfg.variant in ("emifgsm", "enifgsm", "erifgsm"):
        n = cfg.sampling.count * cfg.iters
    else:
        n = cfg.iters
    if "sim" in cfg.transforms.enabled:
        n *= cfg.transforms.sim_copies
    return n


def image_faults(adv, clean, eps) -> int:
    """1 unless adv is a finite float64 image inside the eps-ball and [0, 1]."""
    ok = (
        isinstance(adv, np.ndarray) and adv.dtype == np.float64
        and adv.shape == clean.shape and bool(np.all(np.isfinite(adv)))
        and float(adv.min()) >= 0.0 and float(adv.max()) <= 1.0
        and float(np.abs(adv - clean).max()) <= eps + BALL_TOL
    )
    return 0 if ok else 1


class Unit(NamedTuple):
    """One closed-loop step: attack a batch, then score it. Times are calibrated."""

    traced: bool
    images: int       # images crafted
    attack_s: float
    scored: int       # target predictions made while scoring
    score_s: float


class Run:
    """State shared by one benchmark run: options, tracer, counters, checks."""

    def __init__(self, workload, seed, seconds, size, tracer, work_dir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.tracer = tracer
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []        # human-readable reasons behind `failed`
        self.clock = Clock()
        self.setup_times = []     # calibrated seconds per world build
        self.units = []           # Unit per round or pass
        self.white_box = []       # per crafted image
        self.transfer_rates = []  # per pass: mean over targets
        self.sha = hashlib.sha256()
        self.marks = {}
        self.jobs = 1
        self.configs = []

    def fail(self, count, why):
        if count:
            self.failed += count
            self.problems.append(why)

    @contextlib.contextmanager
    def traced(self, on=True):
        if self.tracer is not None and on:
            self.tracer.install()
            try:
                yield
            finally:
                self.tracer.uninstall()
        else:
            yield

    def mark(self, name):
        if self.tracer is not None:
            t = self.tracer
            self.marks[name] = (len(t.spans), t.bytes_written, t.dim_draws, t.dim_taken)

    def deadline_passed(self, start, done):
        return done >= self.size.min_rounds and time.perf_counter() - start >= self.seconds


# -- white-box workloads -------------------------------------------------------


def build_whitebox(size: Size):
    """(model, evalset) of the white-box world; the smoke size is a tiny replica."""
    if not size.smoke:
        world = experiment.build_whitebox_world(WORLD_SEED)
        return world.model, world.evalset
    d = data.generate_synthetic(size.classes, size.per_class, size.side, size.side, 1,
                                noise_sigma=0.2, seed=WORLD_SEED, contrast=0.22)
    spec = models.ModelSpec("smallcnn", (size.side, size.side, 1), size.classes,
                            seed=WORLD_SEED * 100 + 11)
    model, _ = models.train_sgd(spec, d, epochs=size.epochs, lr=TRAIN_LR,
                                batch=TRAIN_BATCH, seed=WORLD_SEED * 100 + 7)
    return model, d


def run_whitebox(run: Run):
    size, seed = run.size, run.seed
    reps = 1 if run.tracer is not None else size.setup_reps
    first = None
    for _ in range(reps):
        with run.traced():
            (model, evalset), build_s = run.clock.measure(
                build_whitebox, size, sample=run.tracer is None)
        run.setup_times.append(build_s)
        if first is None:
            first = model
        elif any(not np.array_equal(first.params[k], model.params[k]) for k in first.params):
            run.fail(1, "world builds with one seed trained different models")
    sub = data.subsample(evalset, size.subsample, seed)
    if run.workload == "attack-plain":
        run.configs = [attack_config(v, seed) for v in VARIANTS]
    else:
        run.configs = [attack_config(v, seed, DTS) for v in DTS_VARIANTS]
    run.mark("setup")

    crafted = []   # (adv, clean)
    wrong = 0      # misclassified by the white-box scoring
    start = time.perf_counter()
    r = 0
    while not run.deadline_passed(start, r):
        i = r % len(sub)
        x, y = sub.images[i], sub.labels[i]
        traced = run.tracer is not None and r % 2 == 1
        with run.traced(traced):
            results, attack_s = run.clock.measure(
                lambda: [attacks.attack_one(model, x, y, cfg, i) for cfg in run.configs])
            advs = [res.adv for res in results]
            rate, score_s = run.clock.measure(
                evaluate.attack_success_rate, model, advs, [y] * len(advs))
        run.units.append(Unit(traced, len(advs), attack_s, len(advs), score_s))
        wrong += round(rate * len(advs))
        for res in results:
            crafted.append((res.adv, x))
            run.white_box.append(bool(res.white_box_success))
            if r < size.min_rounds:
                run.sha.update(np.ascontiguousarray(res.adv).tobytes())
        r += 1
    run.mark("measure")

    run.attempted += len(crafted)
    run.fail(sum(image_faults(a, x, EPS) for a, x in crafted),
             "adversarial images outside the eps-ball, [0, 1] or non-finite")
    run.fail(abs(wrong - sum(run.white_box)),
             "attack_success_rate disagrees with the attacks' white-box flags")


# -- transfer-cli ----------------------------------------------------------------


def write_idx(prefix: str, pixels: np.ndarray, labels: np.ndarray):
    """IDX image/label pair (big-endian headers); returns the CLI dataset spec."""
    n, rows, cols = pixels.shape[:3]
    img_path, lbl_path = prefix + "-images.idx", prefix + "-labels.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">4i", 0x803, n, rows, cols) + pixels.astype(np.uint8).tobytes())
    with open(lbl_path, "wb") as fh:
        fh.write(struct.pack(">2i", 0x801, n) + labels.astype(np.uint8).tobytes())
    return f"idx:{img_path},{lbl_path}"


def read_emtn(path: str) -> np.ndarray:
    """Independent reader of the .emtn tensor format (magic, version, rank, dims, f8)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:5] != b"EMTN\x01":
        raise ValueError(f"{path}: bad tensor header")
    (rank,) = struct.unpack_from("<I", blob, 5)
    dims = struct.unpack_from(f"<{rank}I", blob, 9)
    return np.frombuffer(blob, dtype="<f8", offset=9 + 4 * rank).reshape(dims).astype(np.float64)


def advm_cli(argv):
    """Run one `advm` command in-process, its echo lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main.main(args=list(argv), prog_name="advm", standalone_mode=False)


def build_transfer_world(world_dir: str, seed: int, size: Size):
    """Data, IDX inputs and four CLI-trained models; returns (paths, eval pixels, labels)."""
    os.makedirs(world_dir, exist_ok=True)
    d = data.generate_synthetic(size.classes, size.per_class, size.side, size.side, 1,
                                noise_sigma=TRANSFER_NOISE, seed=seed,
                                contrast=TRANSFER_CONTRAST)
    pixels = np.rint(np.stack(d.images) * 255.0).astype(np.uint8)
    labels = np.asarray(d.labels)
    tpc, pc = size.train_per_class, size.per_class
    paths = {}
    for name, channels, kernel, offset, (lo, hi) in ZOO:
        lo, hi = lo * tpc // 240, hi * tpc // 240
        idx = [c * pc + j for c in range(size.classes) for j in range(lo, hi)]
        spec = write_idx(os.path.join(world_dir, name), pixels[idx], labels[idx])
        paths[name] = os.path.join(world_dir, name + ".json")
        advm_cli(["train", "--arch", "smallcnn", "--dataset", spec, "--out", paths[name],
                  "--seed", str(seed * 100 + offset), "--epochs", str(size.epochs),
                  "--lr", str(TRAIN_LR), "--batch", str(TRAIN_BATCH),
                  "--conv-channels", str(channels), "--conv-kernel", str(kernel),
                  "--name", name])
    eval_idx = [c * pc + j for c in range(size.classes) for j in range(tpc, pc)]
    return paths, pixels[eval_idx], labels[eval_idx]


def attack_argv(spec, surrogate, out_dir, seed, jobs):
    return ["attack", "--attack", "emi-fgsm", "--eps", "16/255", "--iters", str(ITERS),
            "--mu", str(MU), "--samples", str(SAMPLES), "--eta", str(ETA),
            "--sampling", "linear", "--surrogate", surrogate, "--dataset", spec,
            "--out", out_dir, "--seed", str(seed), "--jobs", str(jobs)]


def check_pass(run: Run, adv_dir, pixels, labels, report_path):
    """Count faulty outputs of one pass; return (manifest, white-box flags, target rates)."""
    with open(os.path.join(adv_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    n = len(labels)
    if (manifest.get("count") != n or manifest.get("labels") != labels.tolist()
            or len(manifest.get("files", ())) != n or len(manifest.get("white_box", ())) != n):
        run.fail(1, "manifest does not describe the attacked batch")
        return manifest, [], []
    clean = pixels.astype(np.float64) / 255.0
    faults = 0
    for k, fname in enumerate(manifest["files"]):
        try:
            adv = read_emtn(os.path.join(adv_dir, fname))
        except (OSError, ValueError, struct.error):
            faults += 1
            continue
        faults += image_faults(adv, clean[k], EPS)
    run.fail(faults, "adversarial tensors unreadable, outside the eps-ball or [0, 1]")
    with open(report_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rates = [float(row["rate"]) for row in rows]
    if len(rates) != len(ZOO) - 1:
        run.fail(1, "eval report does not score every target")
    return manifest, manifest["white_box"], rates


def run_transfer(run: Run):
    size, seed = run.size, run.seed
    reps = 1 if run.tracer is not None else size.setup_reps
    digests = set()
    for rep in range(reps):
        with run.traced():
            (paths, pool, pool_labels), build_s = run.clock.measure(
                build_transfer_world, os.path.join(run.work_dir, f"world{rep}"), WORLD_SEED,
                size, sample=run.tracer is None)
        run.setup_times.append(build_s)
        h = hashlib.sha256()
        for name in sorted(paths):
            with open(paths[name], "rb") as fh:
                h.update(fh.read())
        digests.add(h.hexdigest())
    run.fail(len(digests) - 1, "CLI training with one seed wrote different models")
    run.jobs = min(2, len(os.sched_getaffinity(0)))
    run.configs = [attack_config(TRANSFER_VARIANT, seed)]
    targets = ",".join(paths[name] for name, *_ in ZOO[1:])
    run.mark("setup")

    passes = []
    start = time.perf_counter()
    p = 0
    while not run.deadline_passed(start, p):
        pass_dir = os.path.join(run.work_dir, f"pass{p}")
        os.makedirs(pass_dir)
        pick = np.random.default_rng([seed, p]).choice(len(pool), size.pass_images,
                                                       replace=False)
        spec = write_idx(os.path.join(pass_dir, "input"), pool[pick], pool_labels[pick])
        adv_dir, report = os.path.join(pass_dir, "adv"), os.path.join(pass_dir, "report.csv")
        attack_seed = seed * 1000 + p
        traced = run.tracer is not None and p % 2 == 1
        with run.traced(traced):
            _, attack_s = run.clock.measure(
                advm_cli, attack_argv(spec, paths["surrogate"], adv_dir, attack_seed, run.jobs))
            evals = [run.clock.measure(advm_cli, ["eval", "--adv", adv_dir, "--targets",
                                                  targets, "--out", report])[1]
                     for _ in range(EVAL_REPEATS)]
        run.units.append(Unit(traced, size.pass_images, attack_s,
                              size.pass_images * (len(ZOO) - 1), statistics.median(evals)))
        passes.append((pass_dir, pick, attack_seed))
        p += 1
    run.mark("measure")

    for p, (pass_dir, pick, _seed) in enumerate(passes):
        adv_dir = os.path.join(pass_dir, "adv")
        manifest, wb, rates = check_pass(run, adv_dir, pool[pick], pool_labels[pick],
                                         os.path.join(pass_dir, "report.csv"))
        run.attempted += size.pass_images
        run.white_box.extend(bool(v) for v in wb)
        if rates:
            run.transfer_rates.append(sum(rates) / len(rates))
        if p < size.min_rounds:
            for name in manifest.get("files", ()) + ["manifest.json"]:
                with open(os.path.join(adv_dir, name), "rb") as fh:
                    run.sha.update(fh.read())
            with open(os.path.join(pass_dir, "report.csv"), "rb") as fh:
                run.sha.update(fh.read())
    replay(run, passes[0], pool, pool_labels, paths["surrogate"])


def replay(run: Run, first_pass, pool, pool_labels, surrogate):
    """Re-attack a prefix of pass 0 at jobs=1; tensors must match byte for byte."""
    pass_dir, pick, attack_seed = first_pass
    k = run.size.replay_images
    replay_dir = os.path.join(run.work_dir, "replay")
    os.makedirs(replay_dir)
    spec = write_idx(os.path.join(replay_dir, "input"), pool[pick[:k]], pool_labels[pick[:k]])
    out_dir = os.path.join(replay_dir, "adv")
    advm_cli(attack_argv(spec, surrogate, out_dir, attack_seed, 1))
    run.attempted += k
    src_dir = os.path.join(pass_dir, "adv")
    with open(os.path.join(src_dir, "manifest.json"), encoding="utf-8") as fh:
        full = json.load(fh)
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        prefix = json.load(fh)
    mismatched = 0
    for name in full["files"][:k]:
        with open(os.path.join(src_dir, name), "rb") as a, \
                open(os.path.join(out_dir, name), "rb") as b:
            mismatched += a.read() != b.read()
    run.fail(mismatched, f"jobs={run.jobs} tensors differ from a jobs=1 replay")
    expected = dict(full, count=k,
                    **{key: full[key][:k] for key in ("files", "labels", "white_box")})
    run.fail(int(expected != prefix), f"jobs={run.jobs} manifest differs from a jobs=1 replay")


# -- metrics ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    import resource
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def end_to_end(run: Run) -> dict:
    units = [u for u in run.units if not u.traced]
    return {
        "setup_s": statistics.median(run.setup_times),
        "attack_images_per_s": statistics.median(u.images / u.attack_s for u in units),
        "score_images_per_s": statistics.median(u.scored / u.score_s for u in units),
        "wall_s": statistics.median(u.attack_s + u.score_s for u in units),
        "white_box_rate": sum(run.white_box) / len(run.white_box) if run.white_box else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(run: Run) -> tuple:
    """Layer metrics from the traced spans, and whether every query count is exact."""
    lo, hi = run.marks["setup"], run.marks["measure"]
    spans = run.tracer.spans[lo[0]:hi[0]]
    bytes_written, draws, taken = (b - a for a, b in zip(lo[1:], hi[1:]))
    setup, meas = Summary(run.tracer.spans[:lo[0]]), Summary(spans)
    images = sum(u.images for u in run.units if u.traced)

    per_image = lambda count: count / images
    m = {
        "models.forward.calls": per_image(meas.count("models.forward")),
        "models.forward.us": meas.mean_us("models.forward"),
        "models.input_grad.calls": per_image(meas.count("models.input_grad")),
        "models.input_grad.us": meas.mean_us("models.input_grad"),
        "models.loss_and_grad.us": meas.mean_us("models.loss_and_grad"),
        "models.param_grads.us": setup.mean_us("models.param_grads"),
        "models.train_sgd.s": setup.mean_s("models.train_sgd"),
        "data.generate_synthetic.s": setup.mean_s("data.generate_synthetic"),
        "models.predict.calls": per_image(meas.count("models.predict")),
        "models.predict.us": meas.mean_us("models.predict"),
        "evaluate.attack_success_rate.s": meas.mean_s("evaluate.attack_success_rate"),
        "transforms.compose_dts.calls": per_image(meas.count("transforms.compose_dts")),
        "transforms.compose_dts.self_us": meas.mean_us("transforms.compose_dts", own=True),
        "transforms.draw_dim_geometry.calls":
            per_image(meas.count("transforms.draw_dim_geometry")),
        "transforms.dim_taken_frac": taken / draws if draws else 0.0,
        "tensor.resize_bilinear.us": meas.mean_us("tensor.resize_bilinear"),
        "tensor.resize_bilinear_adjoint.us": meas.mean_us("tensor.resize_bilinear_adjoint"),
        "tensor.pad_zero.us": meas.mean_us("tensor.pad_zero"),
        "tensor.conv2d_same.us": meas.mean_us("tensor.conv2d_same"),
        "tensor.validate_image.calls": per_image(meas.count("tensor.validate_image")),
        "tensor.validate_image.busy_s": per_image(meas.total_s("tensor.validate_image")),
        "tensor.project_linf.calls": per_image(meas.count("tensor.project_linf")),
        "tensor.project_linf.us": meas.mean_us("tensor.project_linf"),
        "sampling.sample_coefficients.us": meas.mean_us("sampling.sample_coefficients"),
        "sampling.sample_uniform_cube.us": meas.mean_us("sampling.sample_uniform_cube"),
        "sampling.derive_rng.us": meas.mean_us("sampling.derive_rng"),
        "attacks.run_attack.self_s": per_image(meas.self_s("attacks.run_attack")),
        "attacks.attack_batch.s": meas.mean_s("attacks.attack_batch"),
        "attacks.worker_idle_frac": worker_idle_frac(spans, run.jobs),
        "cli.train.self_s": setup.mean_s("cli.train", own=True),
        "cli.attack.self_s": meas.mean_s("cli.attack", own=True),
        "cli.eval.self_s": meas.mean_s("cli.eval", own=True),
        "tensor.save_tensor.us": meas.mean_us("tensor.save_tensor"),
        "tensor.load_tensor.us": meas.mean_us("tensor.load_tensor"),
        "models.save_model.s": setup.mean_s("models.save_model"),
        "models.load_model.s": meas.mean_s("models.load_model"),
        "fileio.bytes_written": per_image(bytes_written),
    }
    queries, exact = queries_per_image(run, spans)
    for variant in VARIANTS:
        m[f"attacks.queries_per_image.{variant}"] = queries.get(variant, 0)
    rate = lambda traced: statistics.median(
        u.images / u.attack_s for u in run.units if u.traced == traced)
    m["trace.overhead_frac"] = 1.0 - rate(True) / rate(False)
    return m, exact


def queries_per_image(run: Run, spans) -> tuple:
    """Oracle queries per traced image, by variant, and whether each equals the analytic count."""
    per_image = {}
    for _id, name, _s, _e, _parent, image, _child in spans:
        if name == "models.loss_and_grad" and image >= 0:
            per_image[image] = per_image.get(image, 0) + 1
    expected = {cfg.variant: analytic_queries(cfg) for cfg in run.configs}
    seen = {}
    for image, variant in run.tracer.image_variant.items():
        seen.setdefault(variant, set()).add(per_image.get(image, 0))
    exact = set(seen) == set(expected) and all(
        counts == {expected[v]} for v, counts in seen.items())
    return {v: (min(c) if len(c) == 1 else statistics.mean(c)) for v, c in seen.items()}, exact


def worker_idle_frac(spans, jobs) -> float:
    """Median over attack_batch calls of 1 - (attack_one busy time) / (jobs * batch wall)."""
    batches = [s for s in spans if s[1] == "attacks.attack_batch"]
    if not batches:
        return 0.0
    ones = [s for s in spans if s[1] == "attacks.attack_one"]
    fracs = []
    for _id, _n, start, end, *_ in batches:
        busy = sum(e - s for _i, _m, s, e, *_ in ones if s >= start and e <= end)
        fracs.append(1.0 - busy / (jobs * (end - start)))
    return statistics.median(fracs)
