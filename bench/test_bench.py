"""Self-test of the benchmark harness.

    python3 -m pytest -q bench

Smoke runs of every workload at a small budget scale must report every
metric BENCHMARK.json names, with its unit, and no failed job.  The
correctness checks must trip on corrupted witnesses, and the harness must
refuse to run without the package.
"""

import copy
import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench_run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    out = bench_run("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "0.05")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # failed_ratio is 0 on a correct program
    assert result["attempted"] >= len(workloads.build(workload, 0.05))
    assert result["failed"] == 0 and result["correct"] is True


def test_witness_check_trips_on_corrupted_estimate_witness():
    job = next(j for j in workloads.build("scan-line", 0.05) if j.name == "inner-interval n=4")
    est = job.run(1)
    assert job.check(est) == []
    w = est.witness
    corrupted = dataclasses.replace(est, witness=dataclasses.replace(w, z=w.z + 0.25))
    assert any("witness ratio" in f for f in job.check(corrupted))


def test_witness_check_trips_on_corrupted_report_witness():
    job = next(j for j in workloads.build("verify", 0.05) if j.name == "constants single-anchor:s=0.4")
    code, text = job.run(1)
    assert job.check((code, text)) == []
    report = json.loads(text)
    witness = report["rows"][0]["witness"]
    witness["tuple"] = [witness["z"]] + witness["tuple"][1:]
    assert any("witness" in f for f in job.check((code, json.dumps(report))))


def test_verdict_check_trips_on_unexpected_status():
    job = next(j for j in workloads.build("verify", 0.05) if j.name == "verify arithmetic-mean")
    code, text = job.run(1)
    assert job.check((code, text)) == []
    report = json.loads(text)
    for v in report["verdicts"]:
        if v["property"] == "repetition-invariance":
            v["status"] = "pass"  # the mean is not repetition-invariant
    assert any("repetition-invariance" in f for f in job.check((code, json.dumps(report))))


def test_reference_diff_lists_changed_rows():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        pinned = json.load(fh)["workloads"]["scan-line"]
    rows = [[row] for row in copy.deepcopy(list(pinned.values()))]
    assert run.reference_diff("scan-line", rows) == []
    rows[0][0]["lower_bound"] += 1e-3
    diff = run.reference_diff("scan-line", rows)
    assert len(diff) == 1 and diff[0].startswith(rows[0][0]["name"])


def test_refuses_to_run_without_the_package():
    bare = os.path.join(ROOT, ".bench_out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "bench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = bench_run("--workload", "scan-line", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert out.stdout == ""
