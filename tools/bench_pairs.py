"""Run perfbench in alternating parent/change pairs and summarise them.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --seed S --pairs N --tag T

PARENT_DIR and CHANGE_DIR are two source checkouts. Pair i runs
`perfbench/run.py --workload W --seed S --trace 0` once from each, for
BENCHMARK.json's `run_seconds`, the parent first on even pairs and the
change first on odd ones, so a drift of the host's speed falls on both
sides alike. Each run's end-to-end metrics come from its last stdout line
and are printed as it finishes, with its `correct` flag and the first 16
hex digits of its result file's `output_sha256`. Pair 0's result files
are copied to BENCH_<T>_<W>_parent.json and BENCH_<T>_<W>_change.json in
the current directory.

At the end, one row per end-to-end metric of BENCHMARK.json: the parent's
median and interquartile range (quartiles interpolated linearly, as
numpy's percentile does), the change's median, and the pairs the change
won. A tie counts for neither side. Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys


def iqr(values) -> float:
    """Upper minus lower quartile, interpolated linearly; 0.0 for one value."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(metrics, parent, change) -> list:
    """One (name, parent median, parent IQR, change median, won, pairs) row per
    (name, better) in metrics. parent and change hold one {name: value} dict
    per pair, in pair order. The change wins a pair when its value is higher,
    or lower where better is "lower"; a tie counts for neither side."""
    rows = []
    for name, better in metrics:
        ps, cs = [p[name] for p in parent], [c[name] for c in change]
        won = sum(c > p if better == "higher" else c < p for p, c in zip(ps, cs))
        rows.append((name, statistics.median(ps), iqr(ps), statistics.median(cs), won, len(ps)))
    return rows


def run_once(checkout, command, workload, seed, seconds):
    """One untraced perfbench run from checkout: (metric values, correct,
    output_sha256, result file path)."""
    out = subprocess.run(command + ["--workload", workload, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"perfbench failed in {checkout} (exit {out.returncode}):\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    path = os.path.join(checkout, ".perfbench_out", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        sha = json.load(fh)["output_sha256"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["correct"], sha, path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with open(os.path.join(args.parent_dir, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    dirs = {"parent": args.parent_dir, "change": args.change_dir}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            values, correct, sha, path = run_once(dirs[side], bench["command"], args.workload,
                                                  args.seed, bench["run_seconds"])
            runs[side].append(values)
            if i == 0:
                shutil.copyfile(path, f"BENCH_{args.tag}_{args.workload}_{side}.json")
            shown = " ".join(f"{name}={values[name]:.6g}" for name, _ in metrics)
            print(f"pair {i} {side:<6} {shown} correct={correct} sha256={sha[:16]}", flush=True)

    print(f"\n{args.workload}, seed {args.seed}, {args.pairs} pairs")
    print(f"{'metric':<22}{'parent median':>16}{'parent IQR':>14}{'change median':>16}  won")
    for name, pmed, spread, cmed, won, n in summarize(metrics, runs["parent"], runs["change"]):
        print(f"{name:<22}{pmed:>16.6g}{spread:>14.6g}{cmed:>16.6g}  {won}/{n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
