"""Benchmark entry point: runs one workload (or all) and prints every metric.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each sample is a fresh, single-threaded
interpreter (``workload.py``), started one at a time, so every sample pays
the empty memo caches a ``sbar2lab verify`` call pays. Samples repeat until
``--seconds`` have passed (at least ``MIN_SAMPLES``); each end-to-end metric
is the median of the samples, and the report also prints the highest
percentile with at least 10 samples beyond it and the sample count. Times
are scaled to the reference host speed (see ``speed_probe``); the raw
times are printed beside them. One more sample, untimed, runs first under
tracemalloc and gives ``alloc_peak_mb``. With ``--trace 1`` one more
sample runs with the span tracer installed and gives the per-layer
metrics; the end-to-end metrics never come from it.

Every sample's outputs are checked: each case must pass, the digest of the
cases must equal the reference recorded in ``reference.json`` for the
workload and seed, and the y-generation decomposition is re-checked by the
workload process on its own. The last output line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every check passed. An exception the package raises counts as a
failed case. If the package cannot be run at all (no source, or a workload
process that prints no readable result), the command prints no result and
exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150
# Seconds speed_probe() takes on the reference host (Xeon, 2.1 GHz) when
# nothing else slows it.
PROBE_REF_S = 0.085
REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(HERE, "out")


class BenchError(RuntimeError):
    """The package could not be run; no result is printed."""


def git_sha() -> str | None:
    """The checked-out commit, read from .git without starting git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    # its thread pool was measured slower on two cores; runs are single-threaded
    env.pop("SBAR2LAB_WORKERS", None)
    # fixed string hashing, so set iteration orders and counters repeat
    env["PYTHONHASHSEED"] = "0"
    return env


def run_sample(workload: str, seed: int, trace: bool, size: str = "full", alloc: bool = False) -> dict:
    """One fresh workload process; returns its result with setup_s added."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--size", size,
        "--trace", str(int(trace)),
        "--alloc", str(int(alloc)),
    ]
    spawned = time.monotonic()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{workload}: sample exceeded {SAMPLE_TIMEOUT_S} s") from None
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: workload process failed (exit {proc.returncode})\n{err.strip()}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise BenchError(f"{workload}: unreadable workload output: {exc}") from exc
    result["setup_s"] = result["first_call_monotonic"] - spawned
    return result


def speed_probe() -> float:
    """Seconds a fixed sparse product with Fraction coefficients, the kind
    of work the package does, takes right now.

    A shared host slows this process by up to 2x, at times for minutes.
    Each sample's times are scaled by the reference time of this probe over
    the mean of the probes run just before and just after the sample, which
    cancels most of that slowdown. Over sets of 40 s runs on a 2-vCPU
    virtual machine, the quartile distance of the scaled median wall time
    was about 5% of its median; that of the raw median or minimum, 20-30%.
    """
    start = time.perf_counter()
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(12) for j in range(12)}
    product: dict = {}
    for (a, b), c in poly.items():
        for (d, e), f in poly.items():
            key = (a + d, b + e)
            total = product.get(key, 0) + c * f
            if total:
                product[key] = total
            else:
                product.pop(key, None)
    return time.perf_counter() - start


def scale_sample(sample: dict, probe_before: float) -> float:
    """Record the sample's host speed factor; return the probe after it."""
    probe_after = speed_probe()
    sample["speed"] = PROBE_REF_S / ((probe_before + probe_after) / 2)
    return probe_after


def load_references() -> dict:
    try:
        with open(REFERENCE_PATH, encoding="utf-8") as handle:
            return json.load(handle)["digests"]
    except (OSError, KeyError, json.JSONDecodeError):
        return {}


def check_sample(sample: dict, reference: str | None) -> list[str]:
    """Failed checks of one sample: failing cases, then the digest."""
    failed = list(sample["failures"])
    if reference is None:
        failed.append("no reference digest recorded for this workload and seed")
    elif sample["digest"] != reference:
        failed.append(f"digest {sample['digest'][:16]} != reference {reference[:16]}")
    return failed


def high_percentile(values: list[float]):
    """(p, value) for the highest percentile with at least 10 samples above
    it, by nearest rank; None with 10 samples or fewer."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return 100 * k // n, sorted(values)[k - 1]


def per_layer_metrics(samples: list[dict], traced: dict, untraced_wall: float) -> tuple[dict, list]:
    """Per-layer metric values, and the names a removed counter left absent."""
    trace = traced["trace"]
    names = trace["names"]
    counters = traced["counters"]
    values: dict = {}
    for name, *_rest in workloads.PER_LAYER:
        boundary, _, field = name.rpartition(".")
        if name in counters:
            values[name] = counters[name]
        elif boundary.startswith("suites."):
            suite = boundary[len("suites."):]
            walls = [s["suite_wall_s"][suite] * s["speed"] for s in samples if suite in s["suite_wall_s"]]
            values[name] = statistics.median(walls) if walls else 0.0
        elif name == "centralizer.y_generation_search.wall_s":
            walls = [s["ygen_wall_s"] * s["speed"] for s in samples if s["ygen_wall_s"] is not None]
            values[name] = statistics.median(walls) if walls else 0.0
        elif boundary.startswith("layer."):
            values[name] = trace["layer_self_s"][boundary[len("layer."):]]
        elif name == "trace.remainder_s":
            values[name] = trace["remainder_s"]
        elif name == "trace.wall_s":
            values[name] = traced["wall_s"]
        elif name == "trace.overhead_s":
            values[name] = traced["wall_s"] * traced["speed"] - untraced_wall
        elif field == "accept_ratio":
            entry = names.get(boundary, {})
            values[name] = entry.get("accepted", 0) / entry["calls"] if entry.get("calls") else 0.0
        elif boundary.startswith(("enveloping.nf", "enveloping.partials_past_word")):
            continue  # the cache is gone: reported absent below
        elif boundary in trace["absent"]:
            continue
        else:
            values[name] = names.get(boundary, {}).get(field, 0)
    absent = [name for name, *_rest in workloads.PER_LAYER if name not in values]
    return values, absent


def run_workload(workload: str, seed: int, seconds: float, trace: bool, references: dict) -> dict:
    inp = workloads.inputs(workload, seed)
    reference = references.get(workload, {}).get(str(inp["seed"]))
    samples = []
    started = time.monotonic()
    allocs = run_sample(workload, seed, trace=False, alloc=True)
    last = 0.0
    probe = speed_probe()
    # stop before a sample that would end past the run length
    while len(samples) < MIN_SAMPLES or time.monotonic() - started + last <= seconds:
        begun = time.monotonic()
        samples.append(run_sample(workload, seed, trace=False))
        probe = scale_sample(samples[-1], probe)
        last = time.monotonic() - begun
    checked = [allocs, *samples]
    traced = None
    if trace:
        traced = run_sample(workload, seed, trace=True)
        scale_sample(traced, probe)
        checked.append(traced)

    attempted = failed = 0
    failures = []
    for sample in checked:
        bad = check_sample(sample, reference)
        attempted += sample["cases"] + 1  # the cases and the digest
        failed += len(bad)
        failures.extend(bad)

    stats = {}
    for name, unit, _better, source in workloads.END_TO_END:
        measured = [allocs] if source == "alloc" else samples
        raw = [s[name] for s in measured]
        values = [s[name] * s["speed"] for s in measured] if source == "scaled" else raw
        stats[name] = {
            "value": statistics.median(values),
            "unit": unit,
            "source": source,
            "raw_median": statistics.median(raw),
            "raw_min": min(raw),
            "samples": len(values),
            "high_percentile": high_percentile(values),
        }
    out = {
        "workload": workload,
        "inputs": inp,
        "degrees": samples[0]["degrees"],
        "attempted": attempted,
        "failed": failed,
        "failures": sorted(set(failures)),
        "end_to_end": stats,
        "samples": [{k: s[k] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "speed")} for s in samples],
        "alloc_sample": {"alloc_peak_mb": allocs["alloc_peak_mb"]},
    }
    if traced is not None:
        values, absent = per_layer_metrics(samples, traced, stats["wall_s"]["value"])
        units = {name: unit for name, unit, *_rest in workloads.PER_LAYER}
        out["per_layer"] = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
        out["absent"] = absent
        out["spans_file"] = traced["trace"]["spans_file"]
    return out


def print_report(result: dict, env: dict) -> None:
    w = result["workload"]
    inp = result["inputs"]
    ygen = f"  y_generation_search({tuple(inp['ygen_target'])}, {inp['ygen_cap']})" if inp["ygen_target"] else ""
    print(f"== {w}  seed {inp['seed']}  degrees {result['degrees']}{ygen}")
    print(f"   sha {env['git_sha']}  python {env['python']}  nproc {env['nproc']}")
    ratio = result["failed"] / result["attempted"]
    print(f"   checks: {result['attempted']} attempted, {result['failed']} failed, fail_ratio {ratio:.4f}")
    for line in result["failures"]:
        print(f"   FAILED {line}")
    for name, st in result["end_to_end"].items():
        hp = st["high_percentile"]
        tail = f"p{hp[0]} {hp[1]:.4f}" if hp else "p- (needs > 10 samples)"
        how = {"scaled": "median at reference speed", "raw": "median", "alloc": "tracemalloc peak"}[st["source"]]
        print(
            f"   {name:<16} {st['value']:>12.4f} {st['unit']:<6} {how} of {st['samples']}, {tail}; "
            f"raw median {st['raw_median']:.4f}, raw min {st['raw_min']:.4f}"
        )
    if "per_layer" not in result:
        return
    for name, m in result["per_layer"].items():
        value = m["value"]
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"   {name:<44} {shown:>14} {m['unit']}")
    for name in result["absent"]:
        print(f"   {name:<44} {'absent':>14}")
    layer = result["per_layer"]
    parts = sum(v["value"] for k, v in layer.items() if k.startswith("layer.")) + layer["trace.remainder_s"]["value"]
    print(
        f"   traced raw wall {layer['trace.wall_s']['value']:.4f} s = layer self times + remainder "
        f"{parts:.4f} s; tracing overhead {layer['trace.overhead_s']['value']:.4f} s "
        f"over the untraced median, at reference speed; spans in {result['spans_file']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sbar2lab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so the running sample is killed and reaped
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "src", "sbar2lab")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    env = {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    references = load_references()
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), references))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    record = os.path.join(OUT_DIR, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"env": env, "results": results}, handle, indent=1, default=str)
    print(json.dumps({"env": env, **{r["workload"]: {"inputs": r["inputs"], "degrees": r["degrees"]} for r in results}}))
    for result in results:
        print_report(result, env)

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        chosen = result["per_layer"] if args.trace else result["end_to_end"]
        if args.workload == "all":
            chosen = {**result["end_to_end"], **result.get("per_layer", {})}
        for name, m in chosen.items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
