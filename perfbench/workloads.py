"""Workload definitions and the metric catalogue of the benchmark.

Shared by ``run.py`` and the workload process
(``workload.py``). Nothing here imports the package.
"""

from __future__ import annotations

import random

# The benchmark's --seed is reduced modulo this cycle before it reaches the
# package, so every run's output digest has a recorded reference
# (reference.json holds one per workload and reduced seed).
SEED_CYCLE = 16

# The y-generation targets the seed draws from, and the word-length cap.
# Each is found well inside the cap; Y(2,0), Y(0,2) and Y(2,1) would need
# the full cap-3 solve, about 1.4 s each, which would more than double the
# sample and leave the other suites a small share of it.
YGEN_TARGETS = ((1, 1), (2, -1), (-1, 2))
YGEN_CAP = 3

# suites: (suite name, max degree or None for the suite's default).
# "small" is the reduced size the benchmark's own test runs. Why each
# workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "axiom-sweep": {
        "suites": [
            ("action-axioms", 0),
            ("sigma-annihilation", 2),
            ("jacobi", 2),
            ("bracket-crosscheck", 3),
        ],
        "ygen": False,
        "small": [("action-axioms", 0), ("sigma-annihilation", 1), ("jacobi", 1), ("bracket-crosscheck", 1)],
    },
    "rank-windows": {
        "suites": [
            ("closure", 5),
            ("whittaker-dim", 5),
            ("freeness", 4),
            ("y-basis", None),
        ],
        "ygen": True,
        "small": [("closure", 3), ("whittaker-dim", 2), ("freeness", 2), ("y-basis", None)],
    },
    "centralizer-pbw": {
        "suites": [
            ("y-centralizer", 3),
            ("xi-whittaker", 3),
            ("phi-hom", 2),
            ("pi1-compare", None),
        ],
        "ygen": False,
        "small": [("y-centralizer", 1), ("xi-whittaker", 1), ("phi-hom", 1), ("pi1-compare", None)],
    },
}


def inputs(workload: str, seed: int, size: str = "full") -> dict:
    """The inputs one run hands to the package, drawn from the seed alone."""
    spec = WORKLOADS[workload]
    reduced = seed % SEED_CYCLE
    target = None
    if spec["ygen"]:
        target = YGEN_TARGETS[random.Random(reduced).randrange(len(YGEN_TARGETS))]
    return {
        "workload": workload,
        "seed": reduced,
        "suites": spec["small" if size == "small" else "suites"],
        "ygen_target": target,
        "ygen_cap": YGEN_CAP,
    }


# End-to-end metrics: (name, unit, better, source), measured with tracing
# off. Source "scaled" is the median over a run's timed samples, scaled to
# the reference host speed; "raw" the same median unscaled; "alloc" the one
# untimed sample run under tracemalloc. peak_rss_mb is page-granular and
# shifts by up to 2% with the allocation layout (the checkout's path moves
# it that much), while the package's memo caches hold about 1.3 MB of
# its 24 MB; alloc_peak_mb counts the bytes the package calls allocate,
# independently of the layout and the same to within bytes from run to run,
# so a change in cache size shows there.
END_TO_END = [
    ("wall_s", "s", "lower", "scaled"),
    ("cpu_s", "s", "lower", "scaled"),
    ("setup_s", "s", "lower", "scaled"),
    ("peak_rss_mb", "MB", "lower", "raw"),
    ("alloc_peak_mb", "MB", "lower", "alloc"),
]

_ALL = ("axiom-sweep", "rank-windows", "centralizer-pbw")
_RANK = ("rank-windows",)
_PBW = ("centralizer-pbw",)
_AXIOM = ("axiom-sweep",)

# Per-layer metrics from the traced run: (name, unit, better, end-to-end
# metrics it should move, workloads where it should move them).
PER_LAYER = [
    ("tmodule.act_letter.calls", "count", "lower", ("wall_s",), ("axiom-sweep", "rank-windows")),
    ("tmodule.act_letter.time_s", "s", "lower", ("wall_s",), ("axiom-sweep", "rank-windows")),
    ("tmodule.act_letter.self_s", "s", "lower", ("wall_s",), ("axiom-sweep", "rank-windows")),
    ("tmodule.act_letter.terms_out", "count", "lower", ("wall_s",), ("axiom-sweep", "rank-windows")),
    ("tmodule.closure_probe.time_s", "s", "lower", ("wall_s",), _RANK),
    ("tmodule.joint_kernel.time_s", "s", "lower", ("wall_s",), _RANK),
    ("tmodule.uh_freeness_check.time_s", "s", "lower", ("wall_s",), _RANK),
    ("linalg.rref.calls", "count", "lower", ("wall_s",), _RANK),
    ("linalg.rref.time_s", "s", "lower", ("wall_s",), _RANK),
    ("linalg.rref.max_coeff_bits", "bits", "lower", ("wall_s",), _RANK),
    ("linalg.nullspace.time_s", "s", "lower", ("wall_s",), _RANK),
    ("linalg.solve.time_s", "s", "lower", ("wall_s",), _RANK),
    ("linalg.echelon_add.calls", "count", "lower", ("wall_s",), _RANK),
    ("linalg.echelon_add.accepted", "count", "lower", ("wall_s",), _RANK),
    ("linalg.echelon_add.accept_ratio", "ratio", "higher", ("wall_s",), _RANK),
    ("linalg.echelon_add.time_s", "s", "lower", ("wall_s",), _RANK),
    ("enveloping.nf.hits", "count", "higher", ("wall_s", "peak_rss_mb", "alloc_peak_mb"), _PBW),
    ("enveloping.nf.misses", "count", "lower", ("wall_s", "peak_rss_mb", "alloc_peak_mb"), _PBW),
    ("enveloping.nf.entries", "count", "lower", ("wall_s", "peak_rss_mb", "alloc_peak_mb"), _PBW),
    ("enveloping.nf.hit_ratio", "ratio", "higher", ("wall_s", "peak_rss_mb", "alloc_peak_mb"), _PBW),
    ("enveloping.partials_past_word.hits", "count", "higher", ("wall_s", "peak_rss_mb", "alloc_peak_mb"), _PBW),
    ("enveloping.partials_past_word.misses", "count", "lower", ("wall_s", "peak_rss_mb", "alloc_peak_mb"), _PBW),
    ("enveloping.partials_past_word.entries", "count", "lower", ("wall_s", "peak_rss_mb", "alloc_peak_mb"), _PBW),
    ("enveloping.loc_mul.calls", "count", "lower", ("wall_s",), ("centralizer-pbw", "rank-windows")),
    ("enveloping.loc_mul.time_s", "s", "lower", ("wall_s",), ("centralizer-pbw", "rank-windows")),
    ("enveloping.loc_mul.self_s", "s", "lower", ("wall_s",), ("centralizer-pbw", "rank-windows")),
    ("enveloping.q1_act.time_s", "s", "lower", ("wall_s",), ("centralizer-pbw", "rank-windows")),
    ("weyl.tensor_mul.calls", "count", "lower", ("wall_s",), _PBW),
    ("weyl.tensor_mul.time_s", "s", "lower", ("wall_s",), _PBW),
    ("weyl.tensor_mul.self_s", "s", "lower", ("wall_s",), _PBW),
    ("weyl.phi_hom_check.time_s", "s", "lower", ("wall_s",), _PBW),
    ("centralizer.y_element.time_s", "s", "lower", ("wall_s",), ("centralizer-pbw", "rank-windows")),
    ("centralizer.centralizer_check.time_s", "s", "lower", ("wall_s",), ("centralizer-pbw", "rank-windows")),
    ("centralizer.y_generation_search.time_s", "s", "lower", ("wall_s",), ("centralizer-pbw", "rank-windows")),
    ("base.lincomb_mul.calls", "count", "lower", ("wall_s", "cpu_s"), _ALL),
    ("base.lincomb_mul.self_s", "s", "lower", ("wall_s", "cpu_s"), _ALL),
    ("base.lincomb_new.calls", "count", "lower", ("wall_s", "cpu_s"), _ALL),
    ("lie.sbar_bracket.calls", "count", "lower", ("wall_s",), _AXIOM),
    ("lie.sbar_bracket.time_s", "s", "lower", ("wall_s",), _AXIOM),
    ("lie.vf_bracket.calls", "count", "lower", ("wall_s",), _AXIOM),
    ("lie.vf_bracket.time_s", "s", "lower", ("wall_s",), _AXIOM),
    ("report.serialize.time_s", "s", "lower", ("wall_s",), _ALL),
]

# Untraced wall time of each package call a workload makes, median over the
# untraced runs; 0 on a workload that does not make the call.
SUITE_NAMES = [name for spec in WORKLOADS.values() for name, _deg in spec["suites"]]
for _name in SUITE_NAMES:
    _holder = tuple(w for w, spec in WORKLOADS.items() if any(n == _name for n, _ in spec["suites"]))
    PER_LAYER.append((f"suites.{_name}.wall_s", "s", "lower", ("wall_s",), _holder))
PER_LAYER.append(("centralizer.y_generation_search.wall_s", "s", "lower", ("wall_s",), _RANK))

# Self time of each layer in the traced run; with the untraced remainder
# they add up to the traced wall time.
LAYERS = ("base", "lie", "enveloping", "weyl", "gl2", "tmodule", "centralizer", "linalg", "suites", "report")
for _layer in LAYERS:
    PER_LAYER.append((f"layer.{_layer}.self_s", "s", "lower", ("wall_s",), _ALL))
PER_LAYER += [
    ("trace.remainder_s", "s", "lower", ("wall_s",), _ALL),
    ("trace.wall_s", "s", "lower", ("wall_s",), _ALL),
    ("trace.overhead_s", "s", "lower", (), _ALL),
]
