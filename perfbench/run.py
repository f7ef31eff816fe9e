"""advm benchmark: attack throughput on three closed-loop workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload attack-plain --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end ones; with `--trace 1` they are the per-layer
ones, taken from spans recorded around advm's layer functions, plus the
tracing overhead. Times are scaled by a calibration kernel timed around
every step (see `workloads.Clock`). `--smoke` shrinks the worlds so a run takes seconds.
A result file with the environment, the summary and an `output_sha256`
of the checked outputs is written under `.perfbench_out/`, next to the
span file of a traced run.

The launcher pins BLAS/OpenMP to one thread before numpy loads, and
imports advm only from the checkout's `src/`; without it the run exits
with a non-zero status and prints no result.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# A seed kept out of tuning, for confirming a claim made on other seeds.
HELD_OUT_SEED = 7919

END_TO_END = {
    "setup_s": "s",
    "attack_images_per_s": "1/s",
    "score_images_per_s": "1/s",
    "wall_s": "s",
    "white_box_rate": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "models.forward.calls": "calls/image",
    "models.forward.us": "us",
    "models.input_grad.calls": "calls/image",
    "models.input_grad.us": "us",
    "models.loss_and_grad.us": "us",
    "models.param_grads.us": "us",
    "models.train_sgd.s": "s",
    "data.generate_synthetic.s": "s",
    "models.predict.calls": "calls/image",
    "models.predict.us": "us",
    "evaluate.attack_success_rate.s": "s",
    "transforms.compose_dts.calls": "calls/image",
    "transforms.compose_dts.self_us": "us",
    "transforms.draw_dim_geometry.calls": "calls/image",
    "transforms.dim_taken_frac": "fraction",
    "tensor.resize_bilinear.us": "us",
    "tensor.resize_bilinear_adjoint.us": "us",
    "tensor.pad_zero.us": "us",
    "tensor.conv2d_same.us": "us",
    "tensor.validate_image.calls": "calls/image",
    "tensor.validate_image.busy_s": "s/image",
    "tensor.project_linf.calls": "calls/image",
    "tensor.project_linf.us": "us",
    "sampling.sample_coefficients.us": "us",
    "sampling.sample_uniform_cube.us": "us",
    "sampling.derive_rng.us": "us",
    "attacks.run_attack.self_s": "s/image",
    "attacks.queries_per_image.fgsm": "count",
    "attacks.queries_per_image.ifgsm": "count",
    "attacks.queries_per_image.mifgsm": "count",
    "attacks.queries_per_image.nifgsm": "count",
    "attacks.queries_per_image.pifgsm": "count",
    "attacks.queries_per_image.emifgsm": "count",
    "attacks.queries_per_image.enifgsm": "count",
    "attacks.queries_per_image.erifgsm": "count",
    "attacks.attack_batch.s": "s",
    "attacks.worker_idle_frac": "fraction",
    "cli.train.self_s": "s",
    "cli.attack.self_s": "s",
    "cli.eval.self_s": "s",
    "tensor.save_tensor.us": "us",
    "tensor.load_tensor.us": "us",
    "models.save_model.s": "s",
    "models.load_model.s": "s",
    "fileio.bytes_written": "B/image",
    "trace.overhead_frac": "fraction",
}


def import_advm():
    """Import advm from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "advm", "__init__.py")):
        sys.exit(f"perfbench: no advm sources under {SRC}")
    sys.path.insert(0, SRC)
    import advm

    if os.path.dirname(os.path.dirname(os.path.abspath(advm.__file__))) != SRC:
        sys.exit(f"perfbench: advm imported from {advm.__file__}, not {SRC}")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None   # stays None in a plain source tree
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas")
    except (TypeError, AttributeError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                  "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("attack-plain", "attack-dts", "transfer-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny worlds, for tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    import_advm()
    import workloads
    from tracing import Tracer

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    work_dir = os.path.join(OUT, tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    tracer = Tracer() if args.trace else None
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        workloads.SMOKE if args.smoke else workloads.FULL, tracer, work_dir)
    t0 = time.perf_counter()
    if args.workload == "transfer-cli":
        workloads.run_transfer(run)
    else:
        workloads.run_whitebox(run)
    elapsed = time.perf_counter() - t0

    summary = workloads.end_to_end(run)
    summary["transfer_rate"] = (sum(run.transfer_rates) / len(run.transfer_rates)
                                if run.transfer_rates else None)
    summary["failed_frac"] = run.failed / run.attempted
    correct = run.failed == 0
    if tracer is not None:
        values, exact = workloads.per_layer(run)
        units = PER_LAYER
        if not exact:
            correct = False
            run.problems.append("oracle queries per image differ from the analytic count")
        tracer.write_tsv(os.path.join(OUT, tag + ".spans.tsv"))
    else:
        values, units = summary, END_TO_END
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "elapsed_s": elapsed, "jobs": run.jobs,
        "setup_times_s": run.setup_times,
        "ref_s": workloads.REF_S, "calibration_s": run.clock.samples,
        "units": [u._asdict() for u in run.units],
        "problems": run.problems, "summary": summary,
        "output_sha256": run.sha.hexdigest(), "environment": environment(args.seed),
        "result": result,
    }
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(work_dir, ignore_errors=True)

    summary_units = dict(END_TO_END, transfer_rate="fraction", failed_frac="fraction")
    for name, unit in summary_units.items():
        value = summary[name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{args.workload:>12}  {name:<20} {shown:>12} {unit}")
    for why in run.problems:
        print(f"{args.workload:>12}  FAILED: {why}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
