"""Smoke test of the benchmark itself, at tiny sizes.

Run from the root of a checkout:  python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))


def bench(workload, trace=False, corrupt=False):
    return run.run_benchmark(workload, seed=7, seconds=0.2, trace=trace, size="tiny",
                             corrupt=corrupt)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = bench(workload, trace=trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] > 0
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[key]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_engine_passes_every_check(workload):
    result, meta = bench(workload)
    assert result["correct"] and result["failed"] == 0, meta["failures"]


@pytest.mark.xfail(strict=True, reason="the engine fills the active domain in evaluation order")
def test_the_active_domain_does_not_depend_on_evaluation_order():
    _, meta = bench("retrieval")
    assert meta["known_defects"] == {}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_expected_answer_raises_the_fail_rate(workload):
    _, clean = bench(workload)
    result, meta = bench(workload, corrupt=True)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0
    assert set(meta["failures"]) - set(clean["failures"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_all_eight_layers(workload):
    from tracer import LAYERS

    result, _ = bench(workload, trace=True)
    metrics = result["metrics"]
    assert len(LAYERS) == 8
    for layer in LAYERS:
        assert metrics[f"{layer}.self_s"]["value"] > 0, layer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_repeats_the_determinism_record(workload):
    keys = ("trace_digest", "demo_trace_digest", "derived", "layer_counts", "concepts")
    _, first = bench(workload, trace=True)
    _, second = bench(workload, trace=True)
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}


def test_refuses_to_run_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
