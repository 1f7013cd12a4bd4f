"""Record the benchmark's reference digests or its baseline.

    python3 perfbench/record.py references
    python3 perfbench/record.py baseline

``references`` runs every workload once per reduced seed (0 to
SEED_CYCLE - 1) and writes the digest of its checked outputs to
``reference.json``; every case must pass. Record them again only when a
change is meant to alter the package's outputs.

``baseline`` runs ``run.py`` on every workload once per seed, 0 to
SEEDS - 1, with the run length BENCHMARK.json fixes, and writes
``baseline.json``: per workload and end-to-end metric the median over the
runs, the quartiles and the spread (distance between the quartiles as a
share of the median), the pooled per-sample median with its highest
percentile, and whether the spread is within the metric's bound; and the
per-layer values of one traced run at seed 0. These medians are the
numbers later changes compare against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SEEDS = 10


def record_references() -> int:
    digests: dict = {}
    for workload in workloads.WORKLOADS:
        digests[workload] = {}
        for seed in range(workloads.SEED_CYCLE):
            sample = run.run_sample(workload, seed, trace=False)
            if sample["failures"]:
                print(f"{workload} seed {seed}: {sample['failures']}", file=sys.stderr)
                return 1
            digests[workload][str(seed)] = sample["digest"]
            print(f"{workload} seed {seed}: {sample['digest']}", flush=True)
    data = {
        "about": "sha256 over the (suite, seed, name, status, witness) of every checked case, "
        "per workload and reduced seed",
        "git_sha": run.git_sha(),
        "sizes": {w: workloads.inputs(w, 0) for w in workloads.WORKLOADS},
        "digests": digests,
    }
    with open(run.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    return 0


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py invocation: its result line and the run record it wrote."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else {"correct": False}
    if proc.returncode != 0 or not result["correct"]:
        raise run.BenchError(f"{workload} seed {seed}: run failed\n{proc.stdout}{proc.stderr}")
    path = os.path.join(run.OUT_DIR, f"run-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        return result, json.load(handle)


def record_baseline() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    for workload in workloads.WORKLOADS:
        for seed in range(SEEDS):
            result, _record = bench_run(workload, seed, seconds, trace=0)
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        # one traced run gives the per-layer values, counters included
        bench_run(workload, 0, seconds, trace=1)
    return write_baseline(seconds, {m["name"]: m["bound"] for m in bench["end_to_end"]})


def write_baseline(seconds: int, bounds: dict) -> int:
    """Summarize the run records of record_baseline into baseline.json."""
    out: dict = {
        "git_sha": run.git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "run_seconds": seconds,
        "seeds": list(range(SEEDS)),
        "per_layer_map": {
            name: {"moves": list(moves), "on": list(on)} for name, _u, _b, moves, on in workloads.PER_LAYER
        },
        "workloads": {},
    }
    status = 0
    for workload in workloads.WORKLOADS:
        results = []
        for seed in range(SEEDS):
            path = os.path.join(run.OUT_DIR, f"run-{workload}-seed{seed}-trace0.json")
            with open(path, encoding="utf-8") as handle:
                results.append(json.load(handle)["results"][0])
        entry: dict = {}
        for name, unit, better, source in workloads.END_TO_END:
            per_run = [r["end_to_end"][name]["value"] for r in results]
            pooled = [
                s[name] * (s["speed"] if source == "scaled" else 1)
                for r in results
                for s in ([r["alloc_sample"]] if source == "alloc" else r["samples"])
            ]
            st = spread(per_run)
            st.update(
                {
                    "unit": unit,
                    "better": better,
                    "runs": per_run,
                    "bound": bounds[name],
                    "within_bound": st["spread"] <= bounds[name],
                    "within_third_of_bound": st["spread"] < bounds[name] / 3,
                    "pooled_median": statistics.median(pooled),
                    "pooled_samples": len(pooled),
                    "pooled_high_percentile": run.high_percentile(pooled),
                }
            )
            entry[name] = st
            print(f"  {workload} {name}: median {st['median']:.4f} {unit}, spread {st['spread']:.4f} "
                  f"(bound {bounds[name]})", flush=True)
            if not st["within_bound"] and name != "setup_s":
                status = 1
        with open(os.path.join(run.OUT_DIR, f"run-{workload}-seed0-trace1.json"), encoding="utf-8") as handle:
            traced = json.load(handle)["results"][0]
        entry["per_layer_seed0"] = {k: v["value"] for k, v in traced["per_layer"].items()}
        out["workloads"][workload] = entry
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record reference digests or the baseline")
    parser.add_argument("what", choices=("references", "baseline"))
    args = parser.parse_args(argv)
    try:
        if args.what == "references":
            return record_references()
        return record_baseline()
    except run.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
