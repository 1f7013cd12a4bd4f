"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run the workload process at its reduced size and run.py on
scratch copies of the benchmark, so they take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

# Counters that must repeat exactly for the same seed; times never do.
DETERMINISTIC_FIELDS = ("calls", "terms_out", "accepted", "max_coeff_bits")


def deterministic_counters(sample: dict) -> dict:
    out = dict(sample["counters"])
    for name, entry in sample["trace"]["names"].items():
        for field in DETERMINISTIC_FIELDS:
            if field in entry:
                out[f"{name}.{field}"] = entry[field]
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_counters_repeat_for_the_same_seed(workload):
    first = run.run_sample(workload, 5, trace=True, size="small")
    second = run.run_sample(workload, 5, trace=True, size="small")
    assert first["failures"] == [] and second["failures"] == []
    assert first["digest"] == second["digest"]
    counters = deterministic_counters(first)
    assert counters == deterministic_counters(second)
    assert counters["base.lincomb_new.calls"] > 0


def test_alloc_peak_repeats_for_the_same_seed():
    first = run.run_sample("centralizer-pbw", 5, trace=False, size="small", alloc=True)
    second = run.run_sample("centralizer-pbw", 5, trace=False, size="small", alloc=True)
    assert first["failures"] == [] and second["failures"] == []
    # allocations repeat to within bytes; the RSS of the same runs moves by 1-2%
    assert first["alloc_peak_mb"] > 0
    assert first["alloc_peak_mb"] == pytest.approx(second["alloc_peak_mb"], rel=1e-3)


def test_traced_parts_add_up_to_the_traced_wall_time():
    sample = run.run_sample("rank-windows", 2, trace=True, size="small")
    trace = sample["trace"]
    parts = sum(trace["layer_self_s"].values()) + trace["remainder_s"]
    assert parts == pytest.approx(sample["wall_s"], rel=1e-9)
    assert 0 <= trace["remainder_s"] < sample["wall_s"]


def scratch_checkout(tmp_path, with_source: bool):
    """A checkout holding the benchmark, and the package source if asked."""
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    if with_source:
        shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def bench(checkout, workload: str):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "0"]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=170, check=False)


def test_corrupted_reference_digest_fails_the_run(tmp_path):
    checkout = scratch_checkout(tmp_path, with_source=True)
    ref_path = checkout / "perfbench" / "reference.json"
    data = json.loads(ref_path.read_text())
    digest = data["digests"]["centralizer-pbw"]["0"]
    data["digests"]["centralizer-pbw"]["0"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    ref_path.write_text(json.dumps(data))
    proc = bench(checkout, "centralizer-pbw")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == run.MIN_SAMPLES + 1  # one digest mismatch per sample, the alloc sample too
    assert "digest" in proc.stdout


def test_a_raising_package_counts_as_failed_cases(tmp_path):
    checkout = scratch_checkout(tmp_path, with_source=True)
    with open(checkout / "src" / "sbar2lab" / "__init__.py", "a", encoding="utf-8") as handle:
        handle.write("\n\ndef run_suite(*args, **kwargs):\n    raise RuntimeError('broken suite')\n")
    proc = bench(checkout, "axiom-sweep")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "broken suite" in proc.stdout


def test_no_result_without_the_package(tmp_path):
    checkout = scratch_checkout(tmp_path, with_source=False)
    proc = bench(checkout, "axiom-sweep")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_the_metrics_run_py_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        tuple(entry[:3]) for entry in workloads.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(entry[:3]) for entry in workloads.PER_LAYER
    ]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
