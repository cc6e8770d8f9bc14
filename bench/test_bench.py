"""Tests of the benchmark itself: its checks, its clock guard, and short
smoke-scale runs of every workload, untraced and traced."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import child  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _optimize_job(n=40):
    argv = ("optimize", "ui", str(n), "--format", "json")
    return child.Job("optimize_ui", "optimize_ui_s", argv), child.run_cli(argv, None)


def test_pinned_digests_pass():
    job, (code, out, err) = _optimize_job()
    failures, counts = child.check_job(job, code, out, err, "smoke")
    assert failures == []
    assert counts["value_sha256"] == child.PINNED["ui 40"]["value"]


def test_wrong_pinned_digest_is_a_failure():
    job, (code, out, err) = _optimize_job()
    pinned = json.loads(json.dumps(child.PINNED))
    pinned["ui 40"]["value"] = "0" * 64
    failures, _ = child.check_job(job, code, out, err, "smoke", pinned=pinned)
    assert failures == ["optimize ui 40: value digest differs from the pinned one"]


def test_search_stopped_by_the_clock_is_a_failure():
    argv = ("search", "4", "--no-seed", "--max-products", "10000000",
            "--max-seconds", "0.001", "--format", "json")
    code, out, err = child.run_cli(argv, None)
    assert code == 0
    failures, _ = child.check_job(child.Job("search", "search_s", argv),
                                  code, out, err, "full")
    assert any("stopped on the clock" in f for f in failures)


def test_nonzero_exit_is_a_failure():
    argv = ("optimize", "ui", "100000", "--format", "json")
    code, out, err = child.run_cli(argv, None)
    failures, _ = child.check_job(child.Job("optimize_ui", "optimize_ui_s", argv),
                                  code, out, err, "full")
    assert code != 0 and failures and "exit code" in failures[0]


def test_scaled_time_reads_the_same_on_a_slower_host():
    ref = run.CAL_REF_S
    assert run.scaled(2.0, ref, ref) == pytest.approx(2.0)
    # twice as slow: the job and its calibrations both take twice as long
    assert run.scaled(4.0, 2 * ref, 2 * ref) == pytest.approx(2.0)


def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, trace):
    t0 = time.monotonic()
    proc = _run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                      "--trace", trace, "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    assert time.monotonic() - t0 < 60
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = _run_bench("--workload", "dp", "--seed", "1", "--seconds", "1",
                      cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
