"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import checks, run
from perfbench.workloads import FULL, REFERENCE_ITERATION, WORKLOADS, Sizes

ROOT = Path(__file__).resolve().parent.parent
SMOKE = Sizes(large_n=2**12, independent_n=2**8, trace_n=2**10,
              sweep_ns=(64, 128), compare_n=128, trials=5)


def _declared(kind: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_named_metric(workload, trace):
    result = run.benchmark(workload, seed=3, seconds=0.01, trace=trace, sizes=SMOKE)

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert result["metrics"]["verify.violations"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_workloads():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


def test_digest_check_fails_when_one_trace_byte_is_flipped(tmp_path):
    runner = run.Runner(run._import_package(), WORKLOADS["trace-roundtrip"], FULL, str(tmp_path))
    argv = WORKLOADS["trace-roundtrip"].iteration(0, REFERENCE_ITERATION)[0]
    outcome = runner._invoke(argv)
    runner.check([outcome], pinned=True)
    assert outcome.problems == []

    trace = tmp_path / "trace.csv"
    data = bytearray(trace.read_bytes())
    data[len(data) // 2] ^= 0x01
    trace.write_bytes(bytes(data))
    flipped = replace(outcome, digests={}, problems=[])
    runner.check([flipped], pinned=True)
    assert any(problem.startswith("trace digest") for problem in flipped.problems)


def test_fails_without_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate-large",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_invariant_checks_catch_a_broken_summary():
    argv = ("simulate", "--n", "8", "--R", "1", "--seed", "1")
    doc = {"n": 8, "outcome": "completed", "completion_round": 3, "rounds_executed": 3,
           "total_calls": 20, "informing_calls": 7, "encounter_calls": 13,
           "crashed_target_calls": 0, "per_round_informed": [1, 2, 5, 8]}
    outcome = checks.Outcome(argv, 0, 0.0, json.dumps(doc))
    checks.check_outcome(outcome, {}, None)
    assert any("n(R+1)" in p for p in outcome.problems)
    assert any("doubling" in p for p in outcome.problems)
