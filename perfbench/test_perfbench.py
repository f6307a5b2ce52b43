"""Tests of the benchmark itself, on the tiny smoke configuration of each workload.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layertrace
import passrun
import run
import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert BENCHMARK["per_layer"] == layertrace.per_layer_catalogue()
    record = json.loads((ROOT / "perfbench" / "record.json").read_text())
    mapped = [m for row in record["layer_map"] for m in row["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert record["seed_of_record"] == workloads.SEED_OF_RECORD


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(workload):
    proc = _run_cli("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0",
                    "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "ops_failed_share" in proc.stdout


def test_every_traced_symbolic_pass_is_cold_and_counts_repeat():
    measured = run.measure("symbolic", 3, BENCHMARK["run_seconds"], trace=True, smoke=True)
    traced = measured["runs"]["traced"]
    assert len(traced) >= 2 and len(measured["runs"]["plain"]) >= 1
    assert all(r["layers"]["pipeline.solve_R_hat.calls"] > 0 for r in traced)
    assert all(r["warm_jobs"] == [] for r in traced)
    assert run.trace_failures(traced) == []


def test_a_second_pass_in_one_interpreter_runs_warm():
    passrun.run_pass("symbolic", 3, trace=True, smoke=True)
    warm = passrun.run_pass("symbolic", 3, trace=True, smoke=True)["warm_jobs"]
    assert warm == [f"nhat {g} {n}" for g, n in workloads.SYMBOLIC_SMOKE_GRID]


def test_trace_failures_flags_a_warm_job_drifting_counts_and_one_traced_pass():
    cold = {"layers": {"ring.MultiPoly.mul.calls": 10}, "warm_jobs": []}
    warm = {"layers": {"ring.MultiPoly.mul.calls": 10}, "warm_jobs": ["nhat 1 2"]}
    drift = {"layers": {"ring.MultiPoly.mul.calls": 11}, "warm_jobs": []}
    assert run.trace_failures([cold, cold]) == []
    assert len(run.trace_failures([cold, warm])) == 1
    assert len(run.trace_failures([cold, drift])) == 1
    assert len(run.trace_failures([cold])) == 1


def test_traced_oracle_smoke_reports_every_layer_metric():
    proc = _run_cli("--workload", "oracle-planar", "--seed", "3", "--seconds", "0",
                    "--trace", "1", "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert [(k, m["unit"]) for k, m in metrics.items()] == \
        [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert metrics["oracle.CoverBall.calls"]["value"] == 0
    assert metrics["oracle.check_irreducible.calls"]["value"] > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_restores_every_patched_attribute(workload):
    modules = passrun._modules()
    before = layertrace.patched_objects(modules)
    out = passrun.run_pass(workload, 3, trace=True, smoke=True)
    after = layertrace.patched_objects(modules)
    assert out["failed"] == 0, out["failures"]
    assert sum(v for k, v in out["layers"].items() if k.endswith(".calls")) > 0
    assert [k for k in before if after[k] is not before[k]] == []


def test_failed_check_makes_the_result_incorrect():
    job = workloads.oracle_jobs(workloads.ORACLE_PLANAR_SMOKE)[0]
    assert job.check(job.run()) == []
    assert job.check(job.run() + 1) != []
    bad = {"wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 20.0,
           "attempted": 2, "failed": 1, "failures": ["wrong answer"]}
    result, lines = run.summarize("oracle-planar", 3, False,
                                  {"runs": {"plain": [bad]}, "setups": [0.1, 0.1],
                                   "crosscheck": None})
    assert not result["correct"] and result["failed"] == 1
    assert any("wrong answer" in line for line in lines)


def test_counts_inputs_follow_the_seed():
    assert workloads.counts_tuples(4, False) == workloads.counts_tuples(4, False)
    assert workloads.counts_tuples(4, False) != workloads.counts_tuples(5, False)
    assert workloads.counts_tuples(4, False)[0] == workloads.D1_ANCHOR


@pytest.mark.parametrize("seed", [2, 3, 4, 5])
def test_degree_one_counts_are_checked_for_every_seed(seed):
    jobs = [j for j in workloads.counts_jobs(seed, False) if j.label.startswith("exact-d1")]
    assert len(jobs) == len(workloads.COUNTS_GRID) + 1
    assert all(j.check is not None for j in jobs)
    assert jobs[0].check(0) != []


def test_degree_one_count_is_symmetric_in_the_degrees():
    from irrmaps import pipeline

    one = pipeline.count_exact(1, 3, 1, (1, 2, 3), allow_degree_one=True)
    assert pipeline.count_exact(1, 3, 1, (3, 1, 2), allow_degree_one=True) == one


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "symbolic", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
