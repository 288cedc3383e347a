"""The benchmark's own tests, on the smoke sizes of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads

RUN = str(run.HERE / "run.py")


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def one_pass(workload: str, mode: str) -> dict:
    run.WORK.mkdir(parents=True, exist_ok=True)
    try:
        return run.run_pass(workload, 7, mode, f"test-{workload}-{mode}", time.monotonic() + 60)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)


@pytest.mark.parametrize(
    "workload", ["smoke-pipeline", "smoke-search", "smoke-search-w2", "smoke-atlas"]
)
def test_smoke_end_to_end(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(run.END_TO_END)
    for name, metric in res["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name
    assert res["metrics"]["ok_frac"]["value"] == 1.0


def test_smoke_traced_reports_every_layer_metric():
    res = result_of(bench("--workload", "smoke-search-w2", "--seed", "3", "--seconds", "1",
                          "--trace", "1"))
    assert res["correct"] is True
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert set(metrics) == set(run.per_layer_units())
    assert metrics["search.nodes"] == 7
    assert metrics["search.found"] == 1
    assert metrics["search.search_starter.calls"] == 1
    assert metrics["search.parallel_efficiency"] > 0
    assert metrics["search.w1_search_s"] > 0 and metrics["search.w2_search_s"] > 0


def test_atlas_order_follows_seed_and_statuses_are_recorded():
    ops = workloads.ops_for("smoke-atlas", 3)
    assert sorted(op["id"] for op in ops) == sorted(
        f"certify-{m}x{n}" for m, n in workloads.atlas_pairs(12)
    )
    assert [op["id"] for op in ops] != [op["id"] for op in workloads.ops_for("smoke-atlas", 4)]
    result = one_pass("smoke-atlas", "plain")
    for rec in result["ops"]:
        assert rec["status"] in ("certified", "witness", "budget_exceeded")
        assert rec["classified"] in ("exists", "not_exists", "unknown")


@pytest.mark.parametrize("workload", ["smoke-pipeline", "smoke-atlas"])
def test_span_self_times_add_up_to_op_wall(workload):
    result = one_pass(workload, "traced")
    per_op = result["trace"]["ops"]
    for rec in result["ops"]:
        spans = per_op[rec["id"]]
        assert spans["self_s"] == pytest.approx(spans["root_s"], rel=1e-9, abs=1e-9)
        assert spans["root_s"] <= rec["seconds"]
        assert rec["seconds"] - spans["self_s"] < 1e-3 + 0.02 * rec["seconds"]


def test_output_checks_catch_wrong_results():
    expected = json.loads(run.EXPECTED.read_text())["ops"]
    result = one_pass("smoke-atlas", "plain")
    assert all(run.check_op(rec, expected) == [] for rec in result["ops"])

    rec = dict(result["ops"][0])
    assert run.check_op(dict(rec, exit=rec["exit"] + 1), expected)
    name = next(iter(rec["sha256"]))
    assert run.check_op(dict(rec, sha256={name: "0" * 64}), expected)
    assert run.check_op(dict(rec, id="certify-99x2"), expected)
    assert run.check_op(dict(rec, status="certified", classified="exists"), expected)
    assert run.check_op(dict(rec, status="witness", classified="not_exists"), expected)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / run.HERE.name / "run.py"), "--workload", "atlas",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
