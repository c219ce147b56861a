"""Smoke test of the benchmark itself, at tiny operation sizes.

Runs every workload once untraced and once traced with --smoke, and
checks that each metric BENCHMARK.json declares for the mode is printed
with its unit and that the workload's correctness gates ran and held;
also that the speed clock samples in-process work and disarms its timer.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)

GATES = {
    "lowdeg-serial": {"setup_determinism", "counts", "failure_replay"},
    "highdeg-serial": {"setup_determinism", "counts", "failure_replay"},
    "lowdeg-pool": {"setup_determinism", "counts", "failure_replay", "pool_vs_serial"},
    "cli-mix": {"setup_determinism", "cli_reference"},
}


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_declared_workloads_are_tested():
    assert {w["name"] for w in SPEC["workloads"]} <= set(GATES)


# lowdeg-serial is not declared in BENCHMARK.json but is still runnable
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(GATES))
def test_every_metric_and_gate(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name, v in result["metrics"].items():
        assert isinstance(v["value"], (int, float)) and v["value"] >= 0, name
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())

    gates = json.loads(next(line for line in lines if line.startswith("gates "))[6:])
    expected = GATES[workload]
    if trace:
        expected = expected | {"timed_vs_traced"} | (
            {"cli_trace_written"} if workload == "cli-mix" else {"trace_complete"})
    for gate in expected:
        assert gates[gate]["checked"] >= 1 and gates[gate]["mismatches"] == 0, gate


CLOCK_CHECK = """
import os, signal, sys, time
sys.path[:0] = ["src", "perfbench"]
import bench
cpus = os.sched_getaffinity(0)
clock = bench.Clock()
for mode in (bench.SAMPLE_HERE, bench.SAMPLE_EACH_VCPU):
    clock.start(mode)
    t = time.perf_counter()
    while time.perf_counter() - t < 0.5:
        pass
    clock.stop()
    wall = time.perf_counter() - t
    samples = len(clock._samples)
    ref = clock.to_ref(wall)
    assert samples >= 4, (mode, samples)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert os.sched_getaffinity(0) == cpus
    assert 0 < ref < 10 * wall, (mode, ref, wall)
print("ok")
"""


def test_clock_samples_and_disarms():
    proc = subprocess.run([sys.executable, "-c", CLOCK_CHECK], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr[-2000:]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "lowdeg-serial", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
