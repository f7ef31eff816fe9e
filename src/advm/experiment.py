"""Reproducible desk-scale attack experiments.

Two standard setups share one synthetic-data generator and model zoo
recipe but probe different questions, so they use different class
separations:

* The **white-box benchmark** trains a single convnet on well-mixed data
  whose class separation is small next to the attack budget, the regime
  where iterative sign attacks are expected to approach a 100% success
  rate against the model they are crafted on.

* The **transfer study** builds replicate "worlds": wider class
  separation, a convolutional surrogate, and three convolutional targets
  that differ in channel width, kernel size, init seed, and (overlapping
  but distinct) training windows, so the targets genuinely disagree with
  the surrogate about where the decision boundary sits. Crafting on the
  surrogate and scoring on the targets gives black-box transfer rates;
  averaging replicate worlds gives the statistics the directional claims
  are checked against.

Every world is deterministic in its seed. The experiments read worlds
through one per-process cache keyed by (builder, seed), so several
comparisons share one trained zoo; mean_transfer builds the worlds it lacks
through the attacks' ordered process map on up to `jobs` processes, before
it attacks, and the width never changes a byte. build_whitebox_world and
build_transfer_world stay uncached: each call trains afresh, which is what
timing a world build or checking that two builds agree needs.
"""

from dataclasses import dataclass, replace

from .attacks import AttackConfig, _pmap
from .data import LabeledDataset, generate_synthetic, subsample
from .evaluate import _craft_and_score
from .models import Model, ModelSpec, train_sgd

DESK_CLASSES = 6
DESK_PER_CLASS = 340
DESK_SIDE = 28
DESK_NOISE = 0.20
# Class separation knobs: the white-box benchmark keeps classes close so
# per-image margins stay far below the attack budget; the transfer study
# separates them more so black-box rates land mid-range instead of
# saturating, which is where methods can actually be told apart.
DESK_CONTRAST_WHITEBOX = 0.22
DESK_CONTRAST_TRANSFER = 0.40
DESK_TRAIN_PER_CLASS = 240  # per-class training pool; the rest is evaluation
DESK_EPOCHS = 8
DESK_LR = 0.1
DESK_BATCH = 32
DESK_EVAL_COUNT = 500
DESK_DEFAULT_SEED = 101
DESK_REPLICATE_SEEDS = (101, 102, 103, 104, 105)


@dataclass(frozen=True)
class WhiteboxWorld:
    evalset: LabeledDataset
    model: Model


@dataclass(frozen=True)
class DeskWorld:
    evalset: LabeledDataset
    surrogate: Model
    targets: tuple


def _desk_world(seed: int, contrast: float, zoo) -> tuple:
    """(evalset, models) of one desk world. Every split is a per-class window
    [lo, hi) of one class-grouped dataset: the evalset takes [DESK_TRAIN_PER_CLASS,
    DESK_PER_CLASS), and each zoo row trains one smallcnn on its own window."""
    data = generate_synthetic(
        DESK_CLASSES, DESK_PER_CLASS, DESK_SIDE, DESK_SIDE, 1,
        noise_sigma=DESK_NOISE, seed=seed, contrast=contrast,
    )

    def window(lo, hi):
        return data.subset([c * DESK_PER_CLASS + i for c in range(DESK_CLASSES)
                            for i in range(lo, hi)])

    models = []
    for name, channels, kernel, offset, (lo, hi) in zoo:
        spec = ModelSpec("smallcnn", (DESK_SIDE, DESK_SIDE, 1), DESK_CLASSES,
                         conv_channels=channels, conv_kernel=kernel, seed=seed * 100 + offset)
        models.append(train_sgd(spec, window(lo, hi), epochs=DESK_EPOCHS, lr=DESK_LR,
                                batch=DESK_BATCH, seed=seed * 100 + 7, name=name)[0])
    return window(DESK_TRAIN_PER_CLASS, DESK_PER_CLASS), models


def build_whitebox_world(seed: int = DESK_DEFAULT_SEED) -> WhiteboxWorld:
    """Dataset plus one convnet trained on the full training split."""
    evalset, (model,) = _desk_world(seed, DESK_CONTRAST_WHITEBOX,
                                    (("whitebox", 8, 3, 11, (0, DESK_TRAIN_PER_CLASS)),))
    return WhiteboxWorld(evalset=evalset, model=model)


# Transfer-study zoo: (name, channels, kernel, seed offset, training window).
# Each model trains on its own 100-wide per-class window of the 240-wide
# training pool; the windows overlap pairwise but never coincide, so each
# model sees a different noise realization of the same class templates.
_ZOO = (
    ("surrogate", 8, 3, 11, (0, 100)),
    ("t0", 6, 5, 22, (140, 240)),
    ("t1", 10, 3, 33, (70, 170)),
    ("t2", 12, 5, 44, (35, 135)),
)


def build_transfer_world(seed: int) -> DeskWorld:
    """One replicate world: fresh data, surrogate, and three targets."""
    evalset, (surrogate, *targets) = _desk_world(seed, DESK_CONTRAST_TRANSFER, _ZOO)
    return DeskWorld(evalset=evalset, surrogate=surrogate, targets=tuple(targets))


# Worlds built in this process, by (builder, seed), kept for its life.
_worlds = {}


def _cached_worlds(builder, seeds, jobs: int = 1) -> list:
    """builder(seed) for each seed, each built once per process; the missing
    ones are built through _pmap on up to jobs processes."""
    missing = [s for s in dict.fromkeys(seeds) if (builder, s) not in _worlds]
    for seed, world in zip(missing, _pmap(builder, [(s,) for s in missing], jobs)):
        _worlds[builder, seed] = world
    return [_worlds[builder, s] for s in seeds]


def white_box_rate(
    cfg: AttackConfig,
    seed: int = DESK_DEFAULT_SEED,
    n_images: int = DESK_EVAL_COUNT,
    jobs: int = 1,
) -> float:
    """Attack success against the white-box benchmark model itself."""
    world = _cached_worlds(build_whitebox_world, (seed,))[0]
    sub = subsample(world.evalset, n_images, seed)
    return _craft_and_score([(world.model, replace(cfg, seed=seed), sub, (world.model,))],
                            jobs)[0][0][0]


def mean_transfer(
    cfgs: dict,
    seeds=DESK_REPLICATE_SEEDS,
    n_images: int = DESK_EVAL_COUNT,
    jobs: int = 1,
) -> tuple:
    """(means, flags): {config name: mean transfer rate}, averaged over replicate
    worlds and their targets, and the fooled flags it came from. flags[name][k][j]
    holds one flag per image crafted in world seeds[k], scored on its target j.
    The replicate seed also seeds each attack."""
    seeds = tuple(seeds)
    if not seeds or not cfgs:
        raise ValueError("mean_transfer needs at least one replicate seed and one config")
    worlds = _cached_worlds(build_transfer_world, seeds, jobs)
    subs = [subsample(w.evalset, n_images, s) for s, w in zip(seeds, worlds)]
    means, flags = {}, {}
    for name, cfg in cfgs.items():
        rates, flags[name] = _craft_and_score([(w.surrogate, replace(cfg, seed=s), sub, w.targets)
                                               for s, w, sub in zip(seeds, worlds, subs)], jobs)
        total = 0.0   # world by world, in seed order, so every mean keeps its float
        for world in rates:
            total += sum(world) / len(world)
        means[name] = total / len(seeds)
    return means, flags
