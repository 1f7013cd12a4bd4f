"""Suite reports: typed case records, deterministic serialization.

The JSON layout is fixed: schema_version, suite, seed, cases (sorted by
name, each with name / paper_anchor / provenance / status / witness),
summary tallies, wall_time_ms. Everything except the wall time is
byte-reproducible for a given seed and engine version.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"


class Case:
    __slots__ = ("name", "anchor", "provenance", "status", "witness")

    def __init__(self, name: str, anchor: str, provenance: str, status: str, witness: dict | None = None):
        self.name = name
        self.anchor = anchor  # the identity or claim being exercised, in formula form
        self.provenance = provenance  # how the expected value arises: axiom-sweep, display-regression, ...
        self.status = status
        self.witness = {} if witness is None else witness


class SuiteReport:
    __slots__ = ("suite", "seed", "engine_version", "cases", "wall_time_ms")

    def __init__(self, suite: str, seed: int, engine_version: str, cases: list[Case], wall_time_ms: int = 0):
        self.suite = suite
        self.seed = seed
        self.engine_version = engine_version
        self.cases = sorted(cases, key=lambda c: c.name)  # the one place the case order is decided
        self.wall_time_ms = wall_time_ms

    def summary(self) -> dict:
        out = {PASS: 0, FAIL: 0, INCONCLUSIVE: 0}
        for case in self.cases:
            out[case.status] += 1
        return out

    @property
    def failures(self) -> int:
        return self.summary()[FAIL]

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "engine_version": self.engine_version,
            "cases": [
                {
                    "name": c.name,
                    "paper_anchor": c.anchor,
                    "provenance": c.provenance,
                    "status": c.status,
                    "witness": c.witness,
                }
                for c in self.cases
            ],
            "summary": self.summary(),
            "wall_time_ms": self.wall_time_ms,
        }


def emit_report(report: SuiteReport, fmt: str = "text", path: str | None = None) -> str:
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, default=str) + "\n"
    elif fmt == "text":
        summary = report.summary()
        lines = [
            f"suite {report.suite}  (seed {report.seed}, engine {report.engine_version})",
        ]
        for case in report.cases:
            lines.append(f"  [{case.status:>12}] {case.name}")
            if case.status != PASS and case.witness:
                lines.append(f"                 witness: {json.dumps(case.witness, default=str)}")
        lines.append(
            f"  {summary[PASS]} pass, {summary[FAIL]} fail, "
            f"{summary[INCONCLUSIVE]} inconclusive  ({report.wall_time_ms} ms)"
        )
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text
