"""The benchmark's own tests: every workload at toy scale, traced and untraced,
the result contract, and a gate that fails on a corrupted reference.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import harness, tracing, workloads

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--scale", "toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_toy_run_reports_every_metric_with_its_unit(workload, trace, declared):
    result = _result(_run(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
    if trace == 0:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_results_file_records_the_environment():
    _result(_run("compact_symmetric", 0, seed=11))
    record = json.loads((ROOT / ".perfbench_out" / "compact_symmetric-toy-seed11-trace0.json")
                        .read_text())
    assert record["fail_ratio"] == 0
    assert set(record["environment"]) >= {"python", "nproc", "cpu_model", "seed", "commit"}
    assert record["environment"]["seed"] == 11


def test_same_seed_gives_the_same_inputs_and_counts():
    first, second = (_result(_run("small_corpus", 1, seed=5)) for _ in range(2))
    counts = [{k: v["value"] for k, v in r["metrics"].items() if tracing.is_exact(k)}
              for r in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["analysis.pure_nash.calls"] > 0


def test_fails_without_the_toolkit_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("dense_pipeline", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()


def test_tail_percentile_leaves_ten_samples_of_a_rep_beyond_it():
    assert harness.tail_percentile(614) == 98.0
    assert harness.tail_percentile(40) == 75.0
    assert harness.tail_percentile(8) == 50.0
    assert harness.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5


def _corrupt_dense(reference):
    reference["public_goods"] += 1


def _corrupt_cost(reference):
    reference["weakly_acyclic"] = False


def _corrupt_small(reference):
    reference["level"] = lambda game: Fraction(-1)


def _corrupt_compact(reference):
    reference["pd_n"] = "1/8"


@pytest.mark.parametrize("workload, corrupt", [
    ("dense_pipeline", _corrupt_dense), ("cost_dynamics", _corrupt_cost),
    ("small_corpus", _corrupt_small), ("compact_symmetric", _corrupt_compact),
])
def test_gate_fails_on_a_corrupted_reference(workload, corrupt):
    lib = harness.import_library(ROOT, fresh=False)
    build = workloads.WORKLOADS[workload]
    clean = harness.measure(build(lib, 1, workloads.TOY), 0.0, harness.GcMonitor())
    assert clean.fail_ratio == 0
    broken = build(lib, 1, workloads.TOY)
    corrupt(broken.reference)
    result = harness.measure(broken, 0.0, harness.GcMonitor())
    assert result.fail_ratio > 0
    assert result.failures
