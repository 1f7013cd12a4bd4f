"""One run of one workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload NAME --seed N [--size small] [--trace 1 | --alloc 1]

``run.py`` starts this once per sample; it prints one JSON
object on its last output line. Every run starts with the package's memo
caches empty, as every ``sbar2lab verify`` call does.

The package is imported from ``src`` of the checkout that holds this file.
Only its public entry points are called: ``run_suite``, ``emit_report``,
``y_generation_search`` and, for the independent check of the generation
result, ``y_element`` and the ``Loc`` product.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import sbar2lab  # noqa: E402
import workloads  # noqa: E402

# Memo caches whose hit and miss counts the run reports, as cache_info()
# deltas: (counter prefix, module, attribute).
CACHES = [
    ("enveloping.nf", "enveloping", "_nf"),
    ("enveloping.partials_past_word", "enveloping", "_partials_past_word"),
]


def cache_stats() -> dict:
    out = {}
    for prefix, module, attr in CACHES:
        fn = getattr(getattr(sbar2lab, module, None), attr, None)
        info = getattr(fn, "cache_info", None)
        if info is None:
            continue  # the cache is gone; its counters are reported absent
        stats = info()
        out[prefix] = {"hits": stats.hits, "misses": stats.misses, "entries": stats.currsize}
    return out


def cache_delta(before: dict, after: dict) -> dict:
    out = {}
    for prefix, now in after.items():
        was = before.get(prefix, {"hits": 0, "misses": 0, "entries": 0})
        out[f"{prefix}.hits"] = now["hits"] - was["hits"]
        out[f"{prefix}.misses"] = now["misses"] - was["misses"]
        out[f"{prefix}.entries"] = now["entries"]
        lookups = out[f"{prefix}.hits"] + out[f"{prefix}.misses"]
        out[f"{prefix}.hit_ratio"] = out[f"{prefix}.hits"] / lookups if lookups else 0.0
    return out


def fmt_index(idx) -> str:
    return f"Y({idx[0]},{idx[1]})"


def check_generation(target, found) -> tuple[str, dict]:
    """Re-check a decomposition on its own: sum c_w * prod Y_i == Y_target."""
    if found is None:
        return "inconclusive", {}
    total = sbar2lab.Loc()
    for word, c in found.items():
        value = sbar2lab.Loc.one()
        for idx in word:
            value = value * sbar2lab.y_element(idx)
        total = total + value * c
    witness = {"*".join(fmt_index(i) for i in word) or "1": str(c) for word, c in sorted(found.items())}
    status = "pass" if total == sbar2lab.y_element(target) else "fail"
    return status, witness


def effective_degrees(suites) -> dict:
    """The degree each suite runs at, its default where none is given."""
    defaults = getattr(getattr(sbar2lab, "suites", None), "SUITES", {})
    return {name: defaults.get(name, (None, None))[1] if degree is None else degree for name, degree in suites}


def call_package(inp: dict) -> dict:
    """The timed part: the package calls a user would make, nothing else.

    An exception the package raises is kept as that call's output, so a
    crashing package counts as failed cases instead of stopping the run.
    """
    reports = []  # (suite, JSON report or the exception raised)
    suite_wall = {}
    for suite, degree in inp["suites"]:
        start = time.perf_counter()
        try:
            report = sbar2lab.run_suite(suite, degree, inp["seed"])
            suite_wall[suite] = time.perf_counter() - start
            reports.append((suite, sbar2lab.emit_report(report, "json")))
        except Exception as exc:
            reports.append((suite, exc))
    found = ygen_wall = None
    if inp["ygen_target"] is not None:
        start = time.perf_counter()
        try:
            found = sbar2lab.y_generation_search(tuple(inp["ygen_target"]), inp["ygen_cap"])
            ygen_wall = time.perf_counter() - start
        except Exception as exc:
            found = exc
    return {"reports": reports, "found": found, "suite_wall_s": suite_wall, "ygen_wall_s": ygen_wall}


def check(inp: dict, called: dict) -> dict:
    """Check and digest every output of call_package, outside the timing."""
    cases = []  # (suite, seed, name, status, witness)
    seed = inp["seed"]
    for suite, report in called["reports"]:
        try:
            if isinstance(report, Exception):
                raise report
            data = json.loads(report)
            for case in data["cases"]:
                cases.append((data["suite"], data["seed"], case["name"], case["status"], case["witness"]))
        except Exception as exc:
            cases.append((suite, seed, "error", "error", repr(exc)))
    if inp["ygen_target"] is not None:
        target = tuple(inp["ygen_target"])
        name = f"{fmt_index(target)}-cap{inp['ygen_cap']}"
        try:
            if isinstance(called["found"], Exception):
                raise called["found"]
            status, witness = check_generation(target, called["found"])
        except Exception as exc:
            status, witness = "error", repr(exc)
        cases.append(("y_generation_search", seed, name, status, witness))
    canonical = json.dumps(cases, sort_keys=True, default=str, separators=(",", ":"))
    failures = [f"{c[0]}/{c[2]}: {c[3]}" + (f" {c[4]}" if c[3] == "error" else "") for c in cases if c[3] != "pass"]
    return {
        "cases": len(cases),
        "failures": failures,
        "digest": hashlib.sha256(canonical.encode()).hexdigest(),
        "suite_wall_s": called["suite_wall_s"],
        "ygen_wall_s": called["ygen_wall_s"],
    }


def traced_report(tracer, wall: float, label: str) -> dict:
    import tracer as tracing

    records = tracer.records()
    names = tracing.summarize(records, tracer.span_counters, tracer.counts)
    covered = tracing.top_level_time(records)
    layers = {layer: 0.0 for layer in workloads.LAYERS}
    for name, entry in names.items():
        layer = name.split(".", 1)[0]
        if "self_s" in entry:
            layers[layer] = layers.get(layer, 0.0) + entry["self_s"]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"run": tracer.run_id, "wall_s": wall, "spans": records}, handle, default=str)
    return {
        "run_id": tracer.run_id,
        "names": names,
        "layer_self_s": layers,
        "remainder_s": wall - covered,
        "absent": tracer.absent,
        "spans_file": os.path.relpath(path, ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "small"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--alloc", type=int, choices=(0, 1), default=0, help="measure allocations with tracemalloc")
    args = parser.parse_args(argv)
    if args.trace and args.alloc:
        parser.error("--trace and --alloc measure different runs")

    inp = workloads.inputs(args.workload, args.seed, args.size)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer(f"{args.workload}-{inp['seed']}-{os.getpid()}-{time.time_ns()}")
        tracer.install()
    caches_before = cache_stats()
    if args.alloc:
        # imported here: its imports would add to the timed samples' peak RSS
        import tracemalloc

        tracemalloc.start()

    first_call = time.monotonic()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    called = call_package(inp)
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - wall_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    alloc_peak_mb = None
    if args.alloc:
        alloc_peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()

    # the checks below are the benchmark's work: untimed and untraced
    if tracer is not None:
        tracer.uninstall()
    counters = cache_delta(caches_before, cache_stats())
    result = check(inp, called)
    result.update(
        {
            "first_call_monotonic": first_call,
            "wall_s": wall,
            "cpu_s": cpu,
            "peak_rss_mb": peak_rss_mb,
            "alloc_peak_mb": alloc_peak_mb,
            "counters": counters,
            "inputs": inp,
            "degrees": effective_degrees(inp["suites"]),
            "python": sys.version.split()[0],
        }
    )
    if tracer is not None:
        result["trace"] = traced_report(tracer, wall, f"{args.workload}-seed{inp['seed']}-{args.size}")
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
