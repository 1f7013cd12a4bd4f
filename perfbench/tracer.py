"""In-memory span tracer that wraps the package's layer boundaries.

The tracer lives in the benchmark, not in the package: ``install`` replaces
each boundary function (or method) by a timing wrapper, in every package
module that bound the name, and ``uninstall`` puts the originals back.

A boundary is either a span boundary, where each call becomes one span
(id, name, start, end, parent span id), or a hot boundary, where calls are
aggregated into one node per (name, parent node) holding a call count, a
total time and a self time. Self time is a call's duration minus the part
its child spans cover, so over the whole run the self times of all spans
and nodes plus the time outside any span add up to the traced wall time.
"""

from __future__ import annotations

import sys
import time

SPAN = "span"
HOT = "hot"

# (span name, module, attribute, kind). The attribute may name a method as
# "Class.method". Hot boundaries run 10^3 to 10^6 times in one workload.
# Some boundaries feed no metric of their own; they attribute self time to
# the layer that spends it.
BOUNDARIES = [
    ("suites.run_suite", "suites", "run_suite", SPAN),
    ("report.serialize", "report", "emit_report", SPAN),
    ("tmodule.act_letter", "tmodule", "act_letter", HOT),
    ("tmodule.closure_probe", "tmodule", "closure_probe", SPAN),
    ("tmodule.joint_kernel", "tmodule", "joint_kernel", SPAN),
    ("tmodule.uh_freeness_check", "tmodule", "uh_freeness_check", SPAN),
    ("tmodule.act_sbar", "tmodule", "act_sbar", HOT),
    ("tmodule.act_loc", "tmodule", "act_loc", HOT),
    ("linalg.rref", "linalg", "rref", SPAN),
    ("linalg.nullspace", "linalg", "nullspace", SPAN),
    ("linalg.solve", "linalg", "solve", SPAN),
    ("linalg.echelon_add", "linalg", "EchelonSpan.add", HOT),
    ("enveloping.loc_mul", "enveloping", "Loc._key_mul", HOT),
    ("enveloping.uenv_mul", "enveloping", "UEnv._key_mul", HOT),
    ("enveloping.q1_act", "enveloping", "q1_act", HOT),
    ("weyl.tensor_mul", "weyl", "TensorAlg._key_mul", HOT),
    ("weyl.phi_hom_check", "weyl", "phi_hom_check", HOT),
    ("gl2.poly_mul", "gl2", "Gl2Poly._key_mul", HOT),
    ("gl2.pi_env", "gl2", "pi_env", HOT),
    ("centralizer.y_element", "centralizer", "y_element", HOT),
    ("centralizer.centralizer_check", "centralizer", "centralizer_check", HOT),
    ("centralizer.y_generation_search", "centralizer", "y_generation_search", SPAN),
    ("base.lincomb_mul", "base", "LinComb.__mul__", HOT),
    ("lie.sbar_bracket", "lie", "sbar_bracket", HOT),
    ("lie.vf_bracket", "lie", "vf_bracket", HOT),
]

# Boundaries that are only counted, never timed: a span this fine would
# cost more than the work it measures.
COUNTED = [
    ("base.lincomb_new", "base", "LinComb.__init__"),
]


def _terms_out(result) -> dict:
    return {"terms_out": len(result.terms)}


def _max_coeff_bits(result) -> dict:
    rows, _pivots = result
    bits = 0
    for row in rows:
        for c in row:
            if c:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return {"max_coeff_bits": bits}


def _accepted(result) -> dict:
    return {"accepted": int(result is not None)}


# Deterministic counters read off a boundary's results; "max_" counters
# keep the maximum, the others a sum.
RESULT_COUNTERS = {
    "tmodule.act_letter": _terms_out,
    "linalg.rref": _max_coeff_bits,
    "linalg.echelon_add": _accepted,
}


class _Node:
    __slots__ = ("id", "name", "parent", "calls", "total", "self_time", "counters")

    def __init__(self, node_id, name, parent):
        self.id = node_id
        self.name = name
        self.parent = parent
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.counters: dict = {}


class Tracer:
    """Spans and aggregated nodes of one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.clock = time.perf_counter
        self.spans: list[dict] = []
        self.nodes: dict[tuple, _Node] = {}
        self.counts: dict[str, int] = {}
        # open frames: [span or node id, time covered by finished children]
        self.stack: list[list] = []
        self._next_id = 1
        self.span_counters: dict[str, dict] = {}
        self._patches: list[tuple] = []
        self.absent: list[str] = []

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    @staticmethod
    def _merge(store: dict, extra: dict) -> None:
        for key, value in extra.items():
            if key.startswith("max_"):
                store[key] = max(store.get(key, value), value)
            else:
                store[key] = store.get(key, 0) + value

    def _wrap_span(self, name, fn, on_result):
        tracer = self
        clock = self.clock
        stack = self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [tracer._new_id(), 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append(
                    {
                        "id": frame[0],
                        "name": name,
                        "parent": parent[0] if parent is not None else None,
                        "start": start,
                        "end": end,
                        "self": duration - frame[1],
                        "arg": args[0] if args and isinstance(args[0], str) else None,
                    }
                )
            if on_result is not None:
                tracer._merge(tracer.span_counters.setdefault(name, {}), on_result(result))
            return result

        return wrapper

    def _wrap_hot(self, name, fn, on_result):
        tracer = self
        clock = self.clock
        stack = self.stack
        nodes = self.nodes

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[0] if parent is not None else None
            node = nodes.get((name, parent_id))
            if node is None:
                node = nodes[(name, parent_id)] = _Node(tracer._new_id(), name, parent_id)
            frame = [node.id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += duration
                node.calls += 1
                node.total += duration
                node.self_time += duration - frame[1]
            if on_result is not None:
                tracer._merge(node.counters, on_result(result))
            return result

        return wrapper

    def _wrap_count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every boundary that exists in the loaded package."""
        for name, module, attr, kind in BOUNDARIES:
            on_result = RESULT_COUNTERS.get(name)
            if kind == SPAN:
                self._patch(name, module, attr, lambda fn, n=name, r=on_result: self._wrap_span(n, fn, r))
            else:
                self._patch(name, module, attr, lambda fn, n=name, r=on_result: self._wrap_hot(n, fn, r))
        for name, module, attr in COUNTED:
            self._patch(name, module, attr, lambda fn, n=name: self._wrap_count(n, fn))

    def _patch(self, name, module_name, attr, make) -> None:
        module = sys.modules.get(f"sbar2lab.{module_name}")
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = None
        if owner is not None:
            original = vars(owner).get(method) if owner_name else getattr(owner, method, None)
        if original is None:
            self.absent.append(name)
            return
        wrapper = make(original)
        if owner_name:
            setattr(owner, method, wrapper)
            self._patches.append((owner, method, original))
            return
        # rebind the name in every package module that imported it
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sbar2lab" or mod_name.startswith("sbar2lab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def records(self) -> list[dict]:
        """Every span and aggregated node, all carrying the run id."""
        out = [dict(span, run=self.run_id, calls=1) for span in self.spans]
        for node in self.nodes.values():
            out.append(
                {
                    "id": node.id,
                    "name": node.name,
                    "parent": node.parent,
                    "run": self.run_id,
                    "calls": node.calls,
                    "total": node.total,
                    "self": node.self_time,
                    "counters": node.counters,
                }
            )
        return out


def summarize(records: list[dict], span_counters: dict, counts: dict) -> dict:
    """Per-name calls, inclusive time, self time and counters.

    Inclusive time counts only calls with no same-name ancestor, so a
    boundary that nests inside itself is not counted twice.
    """
    by_id = {rec["id"]: rec for rec in records}

    def nested_in_same(rec) -> bool:
        parent = rec["parent"]
        while parent is not None:
            up = by_id[parent]
            if up["name"] == rec["name"]:
                return True
            parent = up["parent"]
        return False

    out: dict[str, dict] = {}
    for rec in records:
        entry = out.setdefault(rec["name"], {"calls": 0, "time_s": 0.0, "self_s": 0.0})
        entry["calls"] += rec["calls"]
        entry["self_s"] += rec["self"]
        duration = rec["total"] if "total" in rec else rec["end"] - rec["start"]
        if not nested_in_same(rec):
            entry["time_s"] += duration
        for key, value in rec.get("counters", {}).items():
            Tracer._merge(entry, {key: value})
    for name, extra in span_counters.items():
        Tracer._merge(out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0}), extra)
    for name, n in counts.items():
        out[name] = {"calls": n}
    return out


def top_level_time(records: list[dict]) -> float:
    """Time covered by spans and nodes that have no parent."""
    total = 0.0
    for rec in records:
        if rec["parent"] is None:
            total += rec["total"] if "total" in rec else rec["end"] - rec["start"]
    return total
