"""The momentum family of L-infinity sign attacks, as one loop.

Every variant perturbs within an eps-ball around the clean image, steps
by alpha = eps / iters, and clips to the ball intersected with [0, 1]
after every step. Each iteration averages the oracle's loss and gradient
over a list of points x_t + c * d into gbar_t. The variants differ only in
that list, their query rule, and in the direction they step along:

    variant   points queried at iteration t        step along
    fgsm      x_t  (forced to T = 1, alpha = eps)   sign(gbar_t)
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

Finiteness is checked at this boundary, not inside the tensor operators:
run_attack refuses a non-finite clean image, and raises NonFiniteGradient
as soon as an iteration's averaged loss or gradient is NaN or infinite,
so a broken oracle never turns into NaN pixels.
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
from functools import cached_property

import numpy as np

from .errors import NonFiniteGradient, WorkerLost, ZeroGradient
from .sampling import SamplingSpec, derive_rng, make_rng, sample_coefficients, sample_uniform_cube
from .tensor import l1_normalize, project_linf, sign, validate_image
from .transforms import TransformConfig, make_estimator

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
        if not (self.eps >= 0.0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if self.iters < 1:
            raise ValueError(f"iters must be >= 1, got {self.iters}")
        if not (self.mu >= 0.0 and math.isfinite(self.mu)):
            raise ValueError(f"mu must be finite and >= 0, got {self.mu}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def alpha(self) -> float:
        return self.eps / self.iters

    def canonical(self) -> dict:
        d = asdict(self)
        d["transforms"]["enabled"] = list(self.transforms.enabled)
        return d

    @cached_property
    def _hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]

    def config_hash(self) -> str:
        """12 hex digits of the canonical JSON's sha256, computed once per config."""
        return self._hash


@dataclass(frozen=True)
class StepState:
    """Engine internals after one iteration, for trace comparison."""

    x: np.ndarray
    g: np.ndarray | None = None        # momentum accumulator g_t
    g_avg: np.ndarray | None = None    # averaged sampled gradient gbar_t
    g_prev: np.ndarray | None = None   # previous raw gradient (pre-gradient variant)


@dataclass(frozen=True)
class AttackResult:
    adv: np.ndarray
    white_box_success: bool
    loss_trace: tuple
    config_hash: str
    state_trace: tuple = ()


def _l1_direction(g: np.ndarray) -> np.ndarray:
    """grad / ||grad||_1, with an exactly-zero gradient passed through as zeros."""
    try:
        return l1_normalize(g)
    except ZeroGradient:
        return np.zeros_like(g)


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


def _average(oracle, points, y):
    """Mean loss and gradient over the query points."""
    loss_sum = 0.0
    grad_sum = None
    for pt in points:
        loss_i, g_i = oracle.loss_and_grad(pt, y)
        loss_sum += loss_i
        grad_sum = g_i if grad_sum is None else grad_sum + g_i
    return loss_sum / len(points), grad_sum / len(points)


def fgsm(oracle, x, y, eps: float) -> AttackResult:
    """One signed-gradient step of size eps."""
    return run_attack(oracle, x, y, AttackConfig(variant="fgsm", eps=eps, iters=1))


def run_attack(oracle, x, y, cfg: AttackConfig, rng=None, record_state=False) -> AttackResult:
    """Attack one example with any variant; the query rules are in the module docstring.

    fgsm always records its single state, which is its output.
    """
    validate_image(x, pixel_domain=True)
    if rng is None:
        rng = make_rng(cfg.seed)
    variant = cfg.variant
    iters, alpha = (1, cfg.eps) if variant == "fgsm" else (cfg.iters, cfg.alpha)
    record_state = record_state or variant == "fgsm"
    adv = x
    g_acc = np.zeros_like(x)
    g_avg = np.zeros_like(x)
    losses, states = [], []
    for t in range(iters):
        loss, g_avg = _average(oracle, _query_points(cfg, rng, adv, g_acc, g_avg), y)
        if not (math.isfinite(loss) and np.isfinite(g_avg).all()):
            raise NonFiniteGradient(
                f"{variant} iteration {t + 1}: averaged loss {loss} or its gradient "
                f"is not finite; check the oracle's parameters")
        if variant in _PLAIN:
            step = g_avg
        else:
            g_acc = cfg.mu * g_acc + _l1_direction(g_avg)
            step = g_acc
        adv = project_linf(adv + alpha * sign(step), x, cfg.eps)
        losses.append(loss)
        if record_state:
            states.append(StepState(
                x=adv,
                g=None if variant in _PLAIN else g_acc,
                g_avg=g_avg if variant in _SAMPLED else None,
                g_prev=g_avg if variant == "pifgsm" else None,
            ))
    return AttackResult(
        adv=adv,
        white_box_success=oracle.predict(adv) != y,
        loss_trace=tuple(losses),
        config_hash=cfg.config_hash(),
        state_trace=tuple(states),
    )


def attack_one(oracle, x, y, cfg: AttackConfig, example_index: int) -> AttackResult:
    """One example with its own derived stream: transform draws and attack
    sampling share the stream serially, so results are independent of how
    examples are scheduled across workers."""
    rng = derive_rng(cfg.seed, example_index)
    estimator = make_estimator(oracle, cfg.transforms, lambda: rng)
    return run_attack(estimator, x, y, cfg, rng)


def batch_width(jobs: int, n_images: int) -> int:
    """Processes an attack_batch call runs on: jobs, capped at the usable
    CPUs and at the batch size. Starts nothing."""
    return min(jobs, len(os.sched_getaffinity(0)), n_images)


def _attack_chunk(oracle, cfg, start, images, labels) -> list:
    """attack_one over images[k], labels[k] as examples start + k."""
    return [attack_one(oracle, x, y, cfg, start + k)
            for k, (x, y) in enumerate(zip(images, labels))]


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


def attack_batch(oracle, images, labels, cfg: AttackConfig, jobs: int = 1) -> list:
    """Attack a batch; any jobs width reproduces the jobs=1 results bit for bit.

    It runs on width = batch_width(jobs, len(images)) processes, i.e. jobs
    capped at the usable CPUs and at the batch size: at width 1 serially in
    this process, otherwise as `width` contiguous chunks of indices, the
    first in this process and the others in `width - 1` forked workers.
    The workers belong to a pool forked on first use and kept for later
    calls, so code patched into this process after that fork (a monkeypatch,
    a tracer) does not reach them; the oracle and cfg, which must pickle, are
    sent afresh on every call. A worker that dies raises WorkerLost, and the
    next call forks a new pool.
    """
    if len(images) != len(labels):
        raise ValueError(f"{len(images)} images vs {len(labels)} labels")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    width = batch_width(jobs, len(images))
    if width <= 1:
        return _attack_chunk(oracle, cfg, 0, images, labels)
    bounds = [len(images) * k // width for k in range(width + 1)]
    futures = []
    try:
        pool = _worker_pool(width - 1)
        futures = [pool.submit(_attack_chunk, oracle, cfg, lo, images[lo:hi], labels[lo:hi])
                   for lo, hi in zip(bounds[1:-1], bounds[2:])]
        results = _attack_chunk(oracle, cfg, 0, images[:bounds[1]], labels[:bounds[1]])
        for f in futures:
            results += f.result()
        return results
    except BrokenProcessPool as exc:
        _drop_pool()
        raise WorkerLost(f"an attack worker process died: {exc}") from exc
    finally:
        wait(futures)
        if any(isinstance(f.exception(), BrokenProcessPool) for f in futures):
            _drop_pool()   # also when this process's own chunk raised first
