"""The momentum family of L-infinity sign attacks, as one loop.

Every variant perturbs within an eps-ball around the clean image, steps
by alpha = eps / iters (a fgsm config stores iters = 1), and clips to
the ball intersected with [0, 1] after every step. Each iteration averages
the oracle's loss and gradient over a list of points x_t + c * d into
gbar_t. The variants differ only in that list, their query rule, and in
the direction they step along:

    variant   points queried at iteration t        step along
    fgsm      x_t  (T = 1, so alpha = eps)          sign(gbar_t)
    ifgsm     x_t                                   sign(gbar_t)
    mifgsm    x_t                                   sign(g_t)
    nifgsm    x_t + (alpha * mu) * g_{t-1}          sign(g_t)
    pifgsm    x_t + alpha * gbar_{t-1}              sign(g_t)
    emifgsm   x_t + c_i * gbar_{t-1},  i = 1..N     sign(g_t)
    enifgsm   x_t + c_i * g_{t-1},     i = 1..N     sign(g_t)
    erifgsm   x_t + alpha * u_i,       i = 1..N     sign(g_t)

where g_t = mu * g_{t-1} + gbar_t / ||gbar_t||_1 is the momentum. A
one-point average is the raw gradient, so pifgsm queries one raw-gradient
step ahead. The c_i come from the coefficient sampler; with
normalize_sample_dir the direction d is L1-normalized first. Each u_i is a
fresh draw from U([-1,1]^d), and the sampler contributes only its count N.

Momentum and the averaged-gradient memory start at zero, so a zero
coefficient or mu=0 reproduces the simpler family members exactly.

With transforms enabled, each point's loss and gradient come from
compose_dts on the attack's own stream, drawn after the iteration's
coefficients or cubes; white-box success is scored by the plain oracle.

Finiteness is checked at this boundary, not inside the transform operators:
run_attack refuses a non-finite clean image, and raises NonFiniteGradient
as soon as an iteration's averaged loss or gradient is NaN or infinite,
so a broken oracle never turns into NaN pixels.
Before its first query it also refuses, with ShapeMismatch, a transform
geometry the image's shape cannot take (TransformConfig.check_shape).
"""

import hashlib
import json
import math
import multiprocessing
import multiprocessing.util
import os
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NonFiniteGradient, WorkerLost
from .sampling import (SamplingSpec, _require_floats, _require_ints, _require_sizes, derive_rng,
                       sample_coefficients, sample_uniform_cube)
from .tensor import project_linf, validate_image
from .transforms import TransformConfig, compose_dts

VARIANTS = (
    "fgsm",
    "ifgsm",
    "mifgsm",
    "nifgsm",
    "pifgsm",
    "emifgsm",
    "enifgsm",
    "erifgsm",
)


@dataclass(frozen=True)
class AttackConfig:
    variant: str = "emifgsm"
    eps: float = 16.0 / 255.0
    iters: int = 10
    mu: float = 1.0
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    transforms: TransformConfig = field(default_factory=TransformConfig)
    normalize_sample_dir: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown attack variant {self.variant!r}")
        for name, kind in (("sampling", SamplingSpec), ("transforms", TransformConfig),
                           ("normalize_sample_dir", bool)):
            if not isinstance(getattr(self, name), kind):   # bool has no subclass
                raise ValueError(f"{name} must be a {kind.__name__}, got {getattr(self, name)!r}")
        _require_sizes(1, self, "iters")
        _require_ints(0, self, "seed")
        _require_floats(0.0, self, "eps", "mu")
        if self.variant == "fgsm":   # one step of size eps, recorded as it runs
            object.__setattr__(self, "iters", 1)

    @property
    def alpha(self) -> float:
        return self.eps / self.iters

    def config_hash(self) -> str:
        """12 hex digits of the sha256 of asdict(self) as compact JSON with sorted keys,
        the "config" that save_attack_set writes."""
        blob = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class AttackResult:
    adv: np.ndarray
    white_box_success: bool
    trace: tuple   # per iteration: observe's return, or the averaged loss


def _l1_direction(g: np.ndarray) -> np.ndarray:
    """g / ||g||_1, or zeros when that L1 mass is at or below 1e-300."""
    mass = float(np.abs(g).sum())
    return np.zeros_like(g) if mass <= 1e-300 else g / mass


_PLAIN = ("fgsm", "ifgsm")                       # step along gbar_t, no momentum
_SAMPLED = ("emifgsm", "enifgsm", "erifgsm")     # N-point averages


def _query_points(cfg: AttackConfig, rng, adv, g_acc, g_avg) -> list:
    """The query rule: the points x_t + c * d averaged at this iteration."""
    variant = cfg.variant
    if variant == "nifgsm":
        return [adv + cfg.alpha * cfg.mu * g_acc]
    if variant == "pifgsm":
        return [adv + cfg.alpha * g_avg]
    if variant == "erifgsm":
        return [adv + cfg.alpha * sample_uniform_cube(rng, adv.shape)
                for _ in range(cfg.sampling.count)]
    if variant in _SAMPLED:
        d = g_avg if variant == "emifgsm" else g_acc
        if cfg.normalize_sample_dir:
            d = _l1_direction(d)
        return [adv + c * d for c in sample_coefficients(cfg.sampling, rng)]
    return [adv]


def run_attack(oracle, x, y, cfg: AttackConfig, rng=None, observe=None) -> AttackResult:
    """Attack one example with any variant and cfg.transforms, as the module
    docstring says; rng defaults to derive_rng(cfg.seed, 0), example 0's
    stream under attack_one and attack_batch.

    observe, if given, is called after each iteration t = 0, 1, ... as
    observe(t, loss, x_next, g, gbar, points) with the momentum g_t (None
    for fgsm and ifgsm), the averaged gradient gbar_t and the number of
    points queried, and the result's trace holds what it returned, in
    iteration order. Its arrays are the attack's own, so it must not write
    them. Without it the trace holds each iteration's averaged loss.
    """
    validate_image(x)
    variant, tcfg = cfg.variant, cfg.transforms
    tcfg.check_shape(x.shape)
    if rng is None:
        rng = derive_rng(cfg.seed, 0)
    adv = x
    g_acc = None if variant in _PLAIN else np.zeros_like(x)
    g_avg = np.zeros_like(x)
    trace = []
    for t in range(cfg.iters):
        points = _query_points(cfg, rng, adv, g_acc, g_avg)
        loss, g_sum = 0.0, None
        for pt in points:
            loss_i, g_i = (compose_dts(oracle, pt, y, tcfg, rng) if tcfg.enabled
                           else oracle.loss_and_grad(pt, y))
            loss += loss_i
            g_sum = g_i if g_sum is None else g_sum + g_i
        loss, g_avg = loss / len(points), g_sum / len(points)
        if not (math.isfinite(loss) and np.isfinite(g_avg).all()):
            raise NonFiniteGradient(
                f"{variant} iteration {t + 1}: averaged loss {loss} or its gradient "
                f"is not finite; check the oracle's parameters")
        if g_acc is None:
            step = g_avg
        else:
            g_acc = cfg.mu * g_acc + _l1_direction(g_avg)
            step = g_acc
        adv = project_linf(adv + cfg.alpha * np.sign(step), x, cfg.eps)
        trace.append(loss if observe is None
                     else observe(t, loss, adv, g_acc, g_avg, len(points)))
    return AttackResult(adv, bool(oracle.predict(adv) != y), tuple(trace))


def attack_one(oracle, x, y, cfg: AttackConfig, example_index: int) -> AttackResult:
    """One example with its own derived stream, so results are independent
    of how examples are scheduled across workers."""
    return run_attack(oracle, x, y, cfg, derive_rng(cfg.seed, example_index))


def batch_width(jobs: int, n_items: int) -> int:
    """Processes a _pmap call runs on: jobs, capped at the usable CPUs and
    at the item count. Starts nothing. Where os has no sched_getaffinity
    (macOS), the usable CPUs are os.cpu_count(), or 1 when that is unknown."""
    _require_sizes(1, jobs=jobs)
    _require_sizes(0, n_items=n_items)
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    return min(jobs, cpus, n_items)


def _run_chunk(fn, items) -> list:
    return [fn(*item) for item in items]


# One fork-context pool per process, made on first use and reused, since
# forking anew costs more than a small batch's work. _pool_workers is its size.
_pool = None
_pool_workers = 0


def _worker_pool(workers: int) -> ProcessPoolExecutor:
    """The shared pool, replaced by a larger one when it has fewer than `workers`."""
    global _pool, _pool_workers
    if _pool is None or _pool_workers < workers:
        _drop_pool()   # its manager thread must be gone before the next fork
        _pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        _pool_workers = workers
        # At exit a multiprocessing child closes its queues (finalizers of
        # priority 10) and joins its children before the hook that stops
        # executors runs, so it would wait on idle workers forever; this
        # finalizer stops the pool before either.
        multiprocessing.util.Finalize(None, _drop_pool, exitpriority=20)
    return _pool


def _drop_pool() -> None:
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


def _forget_pool() -> None:
    """In a forked child the parent's pool is a copy whose manager thread
    did not survive the fork: work sent to it would never return."""
    global _pool
    _pool = None


os.register_at_fork(after_in_child=_forget_pool)


def _pmap(fn, items, jobs: int) -> list:
    """[fn(*item) for item in items] on width = batch_width(jobs, len(items))
    processes: as `width` contiguous chunks, the first in this process and
    the others in the shared pool's forked workers, so code patched in after
    that fork (a monkeypatch, a tracer) does not reach them. fn and each
    chunk, which must pickle, are sent afresh on every call; an object the
    items share is pickled once per chunk. A dead worker raises WorkerLost,
    and the next call forks a new pool. batch_width refuses a bad jobs.
    """
    width = batch_width(jobs, len(items))
    if width <= 1:
        return _run_chunk(fn, items)
    bounds = [len(items) * k // width for k in range(width + 1)]
    futures = []
    try:
        pool = _worker_pool(width - 1)
        futures = [pool.submit(_run_chunk, fn, items[lo:hi])
                   for lo, hi in zip(bounds[1:-1], bounds[2:])]
        results = _run_chunk(fn, items[:bounds[1]])
        for f in futures:
            results += f.result()
        return results
    except BrokenProcessPool as exc:
        _drop_pool()
        raise WorkerLost(f"a worker process died: {exc}") from exc
    finally:
        wait(futures)
        if any(isinstance(f.exception(), BrokenProcessPool) for f in futures):
            _drop_pool()   # also when this process's own chunk raised first


def attack_batch(oracle, images, labels, cfg: AttackConfig, jobs: int = 1) -> list:
    """attack_one on each example, through _pmap; any jobs width reproduces
    the jobs=1 results bit for bit. With jobs > 1 the oracle and cfg must pickle."""
    if len(images) != len(labels):
        raise ValueError(f"{len(images)} images vs {len(labels)} labels")
    return _pmap(attack_one, [(oracle, x, y, cfg, k)
                              for k, (x, y) in enumerate(zip(images, labels))], jobs)
