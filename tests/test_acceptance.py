"""Acceptance criteria, one test per criterion.

Each test prints its measured numbers and asserts the stated tolerance and
time budget. Heavy benchmark worlds are cached inside advm.experiment, so
the transfer criteria share their trained models within one pytest run.
The transfer criteria also print each gated comparison's noise, from the
flags of the same attack run; those lines are printed, never asserted.
"""

import math
import statistics
import time

import numpy as np
import pytest

from advm.attacks import (
    VARIANTS,
    AttackConfig,
    attack_batch,
    attack_one,
    run_attack,
)
from advm.experiment import DESK_REPLICATE_SEEDS, mean_transfer, white_box_rate
from advm.models import EnsembleOracle, Model, ModelSpec
from advm.sampling import SamplingSpec, make_rng
from advm.transforms import TransformConfig, _tim_kernel, compose_dts

from conftest import (SinusoidOracle, QuadraticOracle, bits, central_diff, observed,
                      rand_pixel_image)
from reference_recursions import (
    RecordingRNG,
    linear_grid,
    ref_emifgsm,
    ref_enifgsm,
    ref_erifgsm,
    ref_fgsm,
    ref_ifgsm,
    ref_mifgsm,
    ref_nifgsm,
    ref_pifgsm,
)
from reference_transforms import correlate_nested_loops


def _models_all_archs(side=6, classes=3):
    shape = (side, side, 1)
    return [
        Model.initialize(ModelSpec("logistic", shape, classes, seed=41)),
        Model.initialize(ModelSpec("mlp", shape, classes, hidden=(10,), seed=42)),
        Model.initialize(ModelSpec("smallcnn", shape, classes, conv_channels=4,
                                   conv_kernel=3, seed=43)),
    ]


def test_criterion_1_finite_difference_gradients():
    """Hand-derived gradients vs central differences on every architecture,
    alone and composed with the scaling and full transform stacks."""
    t0 = time.monotonic()
    h = 1e-5
    triples = 0
    worst = 0.0

    def check(loss_fn, grad, x):
        nonlocal triples, worst
        fd = central_diff(loss_fn, x, h=h)
        rel = float(np.max(np.abs(fd - grad))) / max(1.0, float(np.max(np.abs(grad))))
        worst = max(worst, rel)
        triples += 1
        assert rel <= 1e-5, f"finite-difference mismatch: rel err {rel:.3e}"

    models = _models_all_archs()
    for k, model in enumerate(models):
        # plain model gradients: two inputs x two labels
        for i in range(2):
            x = rand_pixel_image((6, 6, 1), seed=90 + 10 * k + i)
            for y in (0, 2):
                _, g = model.loss_and_grad(x, y)
                check(lambda t, y=y: model.loss_and_grad(t, y)[0], g, x)

        # scaled-copy composite: the engine's chain rule vs differences of
        # an independently written average-of-scaled-losses objective
        for i in range(2):
            x = rand_pixel_image((6, 6, 1), seed=120 + 10 * k + i)
            sim = TransformConfig(enabled=("sim",), sim_copies=5)
            _, g = compose_dts(model, x, 1, sim, make_rng(0))

            def sim_loss(t):
                return sum(model.loss_and_grad(t * 0.5**j, 1)[0] for j in range(5)) / 5

            check(sim_loss, g, x)

        # full stack with frozen draws and an identity smoothing kernel:
        # a genuine deterministic scalar objective through all transforms
        full = TransformConfig(enabled=("dim", "tim", "sim"), dim_prob=1.0,
                               dim_resize_low=4, tim_kernel_size=1, sim_copies=2)
        x = rand_pixel_image((6, 6, 1), seed=150 + k)
        _, g = compose_dts(model, x, 0, full, make_rng(50 + k))
        check(lambda t: compose_dts(model, t, 0, full, make_rng(50 + k))[0], g, x)

    # logit-fused ensemble: its gradient vs differences of the fused loss
    ens = EnsembleOracle([models[0], models[1]])
    for i in range(2):
        x = rand_pixel_image((6, 6, 1), seed=170 + i)
        _, g = ens.loss_and_grad(x, 2)
        check(lambda t: ens.loss_and_grad(t, 2)[0], g, x)

    assert triples >= 20

    # Gaussian smoothing is linear, not a scalar objective's gradient, so it
    # gets an exact two-route check: engine vs nested-loop convolution
    kern = _tim_kernel(7, 3.0)
    tim = TransformConfig(enabled=("tim",), tim_kernel_size=7, tim_sigma=3.0)
    smooth_worst = 0.0
    for k, model in enumerate(models):
        x = rand_pixel_image((6, 6, 1), seed=160 + k)
        loss_t, g_t = compose_dts(model, x, 1, tim, make_rng(0))
        loss_p, g_p = model.loss_and_grad(x, 1)
        assert loss_t == loss_p
        diff = float(np.max(np.abs(g_t - correlate_nested_loops(g_p, kern))))
        smooth_worst = max(smooth_worst, diff)
        assert diff <= 1e-12

    elapsed = time.monotonic() - t0
    print(f"criterion 1: {triples} finite-difference triples, worst rel err "
          f"{worst:.3e}; smoothing two-route diff {smooth_worst:.3e}; "
          f"{elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_2_exact_reductions():
    """Eight parameter degenerations that must reproduce the simpler
    algorithm bit for bit (tolerance 1e-12 per element, same seed)."""
    t0 = time.monotonic()
    sin = SinusoidOracle((4, 4, 1), seed=45)
    xs = rand_pixel_image((4, 4, 1), seed=95)
    cnn = Model.initialize(ModelSpec("smallcnn", (6, 6, 1), 3, conv_channels=4,
                                     conv_kernel=3, seed=44))
    xc = rand_pixel_image((6, 6, 1), seed=96)

    checked = []

    def same(name, res_a, res_b):
        diff = float(np.max(np.abs(res_a.adv - res_b.adv)))
        assert diff <= 1e-12, f"{name}: adv diverged by {diff:.3e}"
        assert res_a.loss_trace == res_b.loss_trace, f"{name}: loss trace diverged"
        checked.append(name)

    base_i = AttackConfig(variant="ifgsm", eps=0.3, iters=4)
    base_mi = AttackConfig(variant="mifgsm", eps=0.3, iters=4, mu=0.9)

    # 1: one linearly spaced sample point is the iterate itself
    emi1 = AttackConfig(variant="emifgsm", eps=0.3, iters=4, mu=0.9,
                        sampling=SamplingSpec(method="linear", count=1))
    same("sampling(N=1) == momentum", run_attack(sin, xs, 1, emi1),
         run_attack(sin, xs, 1, base_mi))

    # 2 and 3: zero momentum decay collapses onto the plain iteration
    for variant in ("mifgsm", "nifgsm"):
        cfg = AttackConfig(variant=variant, eps=0.3, iters=4, mu=0.0)
        same(f"{variant}(mu=0) == ifgsm", run_attack(sin, xs, 1, cfg),
             run_attack(sin, xs, 1, base_i))

    # 4: a single scale copy is the plain gradient
    atk = dict(variant="mifgsm", eps=0.25, iters=3, seed=7)
    plain = attack_one(cnn, xc, 1, AttackConfig(**atk), example_index=3)
    sim1 = AttackConfig(**atk, transforms=TransformConfig(enabled=("sim",),
                                                          sim_copies=1))
    same("scaling(copies=1) == plain", attack_one(cnn, xc, 1, sim1, 3), plain)

    # 5: zero diversity probability never transforms (the gate draw is
    # consumed, but this attack takes no other draws)
    dim0 = AttackConfig(**atk, transforms=TransformConfig(enabled=("dim",),
                                                          dim_prob=0.0))
    same("diversity(p=0) == plain", attack_one(cnn, xc, 1, dim0, 3), plain)

    # 6: the size-1 smoothing kernel is the identity
    tim1 = AttackConfig(**atk, transforms=TransformConfig(enabled=("tim",),
                                                          tim_kernel_size=1))
    same("smoothing(size=1) == plain", attack_one(cnn, xc, 1, tim1, 3), plain)

    # 7: one iteration of the iterative attack is the single-step attack
    one = AttackConfig(variant="ifgsm", eps=0.25, iters=1)
    same("iters=1 == single step", run_attack(sin, xs, 2, one),
         run_attack(sin, xs, 2, AttackConfig(variant="fgsm", eps=0.25)))

    # 8: an ensemble of one model is that model
    cfg8 = AttackConfig(variant="mifgsm", eps=0.25, iters=3)
    same("ensemble-of-one == model",
         run_attack(EnsembleOracle([cnn]), xc, 0, cfg8),
         run_attack(cnn, xc, 0, cfg8))

    elapsed = time.monotonic() - t0
    print(f"criterion 2: {len(checked)} reductions exact; {elapsed:.1f}s")
    assert len(checked) == 8
    assert elapsed < 60.0


def test_criterion_3_feasibility_and_scheduling():
    """1000 randomized attacks across every variant and transform stack:
    all stay inside the budget and the pixel box, and worker count never
    changes a bit of output."""
    t0 = time.monotonic()
    worlds = [
        (QuadraticOracle((8, 8, 1), num_classes=3, seed=57),
         [rand_pixel_image((8, 8, 1), seed=200 + i) for i in range(16)]),
        (QuadraticOracle((6, 6, 2), num_classes=4, seed=58),
         [rand_pixel_image((6, 6, 2), seed=230 + i) for i in range(16)]),
    ]

    subsets = [
        (), ("dim",), ("tim",), ("sim",),
        ("dim", "tim"), ("dim", "sim"), ("tim", "sim"), ("dim", "tim", "sim"),
    ]
    stacks = {
        "+".join(s) or "plain": TransformConfig(
            enabled=s, dim_prob=0.7, dim_resize_low=5,
            tim_kernel_size=3, tim_sigma=1.5, sim_copies=2,
        )
        for s in subsets
    }
    eps_cycle = (4 / 255, 8 / 255, 16 / 255, 0.08, 0.2)
    method_cycle = ("linear", "uniform", "gaussian")

    total = 0
    kept = {}
    for v_idx, variant in enumerate(VARIANTS):
        for s_idx, (s_name, stack) in enumerate(stacks.items()):
            oracle, images = worlds[(v_idx + s_idx) % 2]
            labels = [i % oracle.num_classes for i in range(len(images))]
            cfg = AttackConfig(
                variant=variant,
                eps=eps_cycle[(v_idx + s_idx) % 5],
                iters=1 + (v_idx + s_idx) % 3,
                mu=(0.8, 1.0)[s_idx % 2],
                sampling=SamplingSpec(method=method_cycle[s_idx % 3],
                                      count=3, eta=2.0),
                transforms=stack,
                seed=303,
            )
            results = attack_batch(oracle, images, labels, cfg, jobs=1)
            for x, r in zip(images, results):
                assert np.max(np.abs(r.adv - x)) <= cfg.eps + 1e-12
                assert r.adv.min() >= 0.0 and r.adv.max() <= 1.0
            total += len(results)
            if s_name in ("plain", "dim+tim+sim"):
                kept[(variant, s_name)] = (oracle, images, labels, cfg, results)

    assert total >= 1000, f"only {total} attacks exercised"

    # worker-count independence on the bare and fully stacked runs
    for (variant, s_name), (oracle, images, labels, cfg, serial) in kept.items():
        for jobs in (3, 7):
            wide = attack_batch(oracle, images, labels, cfg, jobs=jobs)
            for a, b in zip(serial, wide):
                assert bits(a.adv) == bits(b.adv), (
                    f"{variant}/{s_name} diverged at jobs={jobs}"
                )

    # same-seed rerun reproduces byte-identically
    oracle, images, labels, cfg, serial = kept[("emifgsm", "dim+tim+sim")]
    again = attack_batch(oracle, images, labels, cfg, jobs=1)
    for a, b in zip(serial, again):
        assert bits(a.adv) == bits(b.adv)

    elapsed = time.monotonic() - t0
    print(f"criterion 3: {total} attacks over {len(stacks)} transform stacks "
          f"feasible, jobs 1/3/7 bit-identical; {elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_4_white_box_success():
    """Iterative and momentum attacks all but saturate the white-box
    benchmark at the default budget."""
    t0 = time.monotonic()
    rates = {}
    for variant in ("ifgsm", "mifgsm", "nifgsm", "pifgsm", "emifgsm"):
        rates[variant] = white_box_rate(AttackConfig(variant=variant),
                                        seed=101, n_images=500, jobs=2)
    elapsed = time.monotonic() - t0
    report = ", ".join(f"{v} {100 * r:.2f}%" for v, r in rates.items())
    print(f"criterion 4: {report}; {elapsed:.1f}s")
    for variant, rate in rates.items():
        assert rate >= 0.99, f"{variant} white-box rate {rate:.4f} below 99%"
    assert elapsed < 300.0


def paired_noise(flags, a: str, b: str) -> str:
    """How far config a's mean transfer rate sits from b's, and how much of that
    is chance: a - b per world in points, the standard error of their mean over
    the worlds (sample SD with ddof=1, over the root of the world count), and
    the (world, target, image) pairs that fool the target under a only and
    under b only. Everything comes from mean_transfer's flags."""
    def rate(world):   # as mean_transfer averages: over the targets, of each one's rate
        return sum(sum(f) / len(f) for f in world) / len(world)

    per_world, only_a, only_b = [], 0, 0
    for world_a, world_b in zip(flags[a], flags[b]):
        per_world.append(100.0 * (rate(world_a) - rate(world_b)))
        for fa, fb in zip(world_a, world_b):
            only_a += sum(x and not y for x, y in zip(fa, fb))
            only_b += sum(y and not x for x, y in zip(fa, fb))
    se = statistics.stdev(per_world) / math.sqrt(len(per_world))
    return (f"{a}-{b} per world " + " ".join(f"{d:+.2f}" for d in per_world)
            + f" points, SE {se:.2f}; pairs fooled by {a} only {only_a}, by {b} only {only_b}")


def test_criterion_5_transfer_margins():
    """Sampled averaging beats plain and lookahead momentum on transfer by
    at least three points, and the pre-gradient variant never loses to
    plain momentum; five replicate worlds, three targets each."""
    t0 = time.monotonic()
    cfgs = {
        "mifgsm": AttackConfig(variant="mifgsm"),
        "nifgsm": AttackConfig(variant="nifgsm"),
        "pifgsm": AttackConfig(variant="pifgsm"),
        "emifgsm": AttackConfig(variant="emifgsm"),
    }
    means, flags = mean_transfer(cfgs, seeds=DESK_REPLICATE_SEEDS, n_images=500, jobs=2)
    elapsed = time.monotonic() - t0
    report = ", ".join(f"{k} {100 * v:.2f}%" for k, v in means.items())
    print(f"criterion 5: {report}; {elapsed:.1f}s")
    for a, b in (("emifgsm", "mifgsm"), ("emifgsm", "nifgsm"), ("pifgsm", "mifgsm")):
        print(f"criterion 5: {paired_noise(flags, a, b)}")

    assert means["emifgsm"] - means["mifgsm"] >= 0.03 - 1e-9, (
        f"sampled vs momentum margin {means['emifgsm'] - means['mifgsm']:.4f}"
    )
    assert means["emifgsm"] - means["nifgsm"] >= 0.03 - 1e-9, (
        f"sampled vs lookahead margin {means['emifgsm'] - means['nifgsm']:.4f}"
    )
    assert means["pifgsm"] >= means["mifgsm"] - 1e-9, (
        f"pre-gradient {means['pifgsm']:.4f} below momentum {means['mifgsm']:.4f}"
    )
    assert elapsed < 1200.0


def test_criterion_6_sampling_ablations():
    """The sampled-averaging knobs behave as designed: more points help,
    the sampler family barely matters, and a wider radius does not hurt."""
    t0 = time.monotonic()
    cfgs = {
        "base": AttackConfig(variant="emifgsm"),
        "n1": AttackConfig(variant="emifgsm", sampling=SamplingSpec(count=1)),
        "uniform": AttackConfig(variant="emifgsm",
                                sampling=SamplingSpec(method="uniform")),
        "gaussian": AttackConfig(variant="emifgsm",
                                 sampling=SamplingSpec(method="gaussian")),
        "eta1": AttackConfig(variant="emifgsm", sampling=SamplingSpec(eta=1.0)),
        "eta3": AttackConfig(variant="emifgsm", sampling=SamplingSpec(eta=3.0)),
    }
    means, flags = mean_transfer(cfgs, seeds=DESK_REPLICATE_SEEDS, n_images=250, jobs=2)
    elapsed = time.monotonic() - t0
    report = ", ".join(f"{k} {100 * v:.2f}%" for k, v in means.items())
    print(f"criterion 6: {report}; {elapsed:.1f}s")
    for a, b in (("base", "n1"), ("eta3", "eta1")):
        print(f"criterion 6: {paired_noise(flags, a, b)}")

    assert means["base"] > means["n1"], (
        f"averaging gained nothing: base {means['base']:.4f} vs "
        f"single-point {means['n1']:.4f}"
    )
    samplers = [means["base"], means["uniform"], means["gaussian"]]
    spread = max(samplers) - min(samplers)
    assert spread <= 0.05 + 1e-9, f"sampler families spread {spread:.4f}"
    assert means["eta3"] >= means["eta1"] - 1e-9, (
        f"widening the radius degraded transfer: eta1 {means['eta1']:.4f} "
        f"vs eta3 {means['eta3']:.4f}"
    )
    assert elapsed < 1200.0


def test_criterion_7_recursion_state_traces():
    """Every variant's per-step state matches an independent straight-line
    recursion on 1-D and 2-D analytic oracles, randomized variants replaying
    the engine's recorded draws."""
    t0 = time.monotonic()
    worst = 0.0
    runs = 0

    def compare(run, ref):
        nonlocal worst, runs
        res, steps = run
        diffs = [float(np.max(np.abs(res.adv - ref["adv"])))]
        diffs += [abs(a - b) for a, b in zip(res.loss_trace, ref["losses"])]
        for st, i in zip(steps, range(len(ref["xs"]))):
            diffs.append(float(np.max(np.abs(st.x - ref["xs"][i]))))
            if "gs" in ref:
                diffs.append(float(np.max(np.abs(st.g - ref["gs"][i]))))
            if "gbars" in ref:
                diffs.append(float(np.max(np.abs(st.gbar - ref["gbars"][i]))))
            if "g_prevs" in ref:   # pifgsm steps ahead along the previous gbar
                diffs.append(float(np.max(np.abs(st.gbar - ref["g_prevs"][i]))))
        assert len(steps) == len(ref["xs"])
        worst = max(worst, max(diffs))
        runs += 1
        assert max(diffs) <= 1e-12

    for shape, x_seed in (((1, 1, 1), 85), ((1, 2, 1), 86)):
        oracle = SinusoidOracle(shape, seed=46)
        x = rand_pixel_image(shape, seed=x_seed)
        eps, iters, mu = 0.3, 3, 0.8

        compare(observed(oracle, x, 1, AttackConfig(variant="fgsm", eps=eps, iters=1)),
                ref_fgsm(oracle, x, 1, eps))
        compare(observed(oracle, x, 1, AttackConfig(variant="ifgsm", eps=eps, iters=iters)),
                ref_ifgsm(oracle, x, 1, eps, iters))
        for variant, ref in (("mifgsm", ref_mifgsm), ("nifgsm", ref_nifgsm),
                             ("pifgsm", ref_pifgsm)):
            cfg = AttackConfig(variant=variant, eps=eps, iters=iters, mu=mu)
            compare(observed(oracle, x, 1, cfg),
                    ref(oracle, x, 1, eps, iters, mu))

        # linear coefficients need no draws
        grid = linear_grid(3, 2.0)
        for variant, ref in (("emifgsm", ref_emifgsm), ("enifgsm", ref_enifgsm)):
            cfg = AttackConfig(variant=variant, eps=eps, iters=iters, mu=mu,
                               sampling=SamplingSpec(method="linear", count=3,
                                                     eta=2.0))
            compare(observed(oracle, x, 1, cfg),
                    ref(oracle, x, 1, eps, iters, mu, lambda t: grid))

        # randomized coefficients and cubes replay the engine's own draws
        cfg = AttackConfig(variant="emifgsm", eps=eps, iters=iters, mu=mu,
                           sampling=SamplingSpec(method="uniform", count=3,
                                                 eta=1.5))
        ledger = RecordingRNG(make_rng(91))
        run = observed(oracle, x, 1, cfg, ledger)
        compare(run, ref_emifgsm(oracle, x, 1, eps, iters, mu,
                                 lambda t: ledger.log[t]))

        n = 2
        cfg = AttackConfig(variant="erifgsm", eps=eps, iters=iters, mu=mu,
                           sampling=SamplingSpec(count=n))
        ledger = RecordingRNG(make_rng(92))
        run = observed(oracle, x, 1, cfg, ledger)
        compare(run, ref_erifgsm(oracle, x, 1, eps, iters, mu,
                                 lambda t: ledger.log[t * n:(t + 1) * n]))

    elapsed = time.monotonic() - t0
    print(f"criterion 7: {runs} recursions traced, worst deviation "
          f"{worst:.3e}; {elapsed:.1f}s")
    assert runs == 18
    assert elapsed < 60.0
