"""Smoke test of the benchmark: every named metric is emitted, outputs check out.

Runs each workload at the tiny smoke size, traced and untraced, and
compares the emitted metric names and units with BENCHMARK.json.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


PLAIN = {"fgsm": 1, "ifgsm": 10, "mifgsm": 10, "nifgsm": 10, "pifgsm": 10,
         "emifgsm": 110, "enifgsm": 110, "erifgsm": 110}
QUERIES = {
    "attack-plain": PLAIN,
    "attack-dts": dict({v: 0 for v in PLAIN}, mifgsm=50, emifgsm=550),
    "transfer-cli": dict({v: 0 for v in PLAIN}, emifgsm=110),
}


def run_bench(workload, trace, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    if trace:
        # exact oracle queries per image: 1, T = 10, N*T = 110, times 5 sim copies
        for variant, count in QUERIES[workload].items():
            assert result["metrics"]["attacks.queries_per_image." + variant]["value"] == count


def test_fails_without_sources(tmp_path):
    """In a tree holding only the benchmark, the run exits non-zero and prints no result."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name), "rb") as src:
                (bench / name).write_bytes(src.read())
    with open(os.path.join(ROOT, "BENCHMARK.json"), "rb") as src:
        (tmp_path / "BENCHMARK.json").write_bytes(src.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attack-plain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
