"""Acceptance gate: one test per criterion, at the stated window and budget.

All arithmetic is exact, so every tolerance is exact equality of normal
forms; the budgets are wall-clock seconds. Each test prints a one-line
verdict (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import time

from sbar2lab.suites import run_suite


def _run(names, budget_s, max_degrees=None):
    reports = []
    started = time.perf_counter()
    for pos, name in enumerate(names):
        degree = None if max_degrees is None else max_degrees[pos]
        reports.append(run_suite(name, max_degree=degree, seed=0))
    elapsed = time.perf_counter() - started
    failures = {
        (rep.suite, case.name): case.witness
        for rep in reports
        for case in rep.cases
        if case.status == "fail"
    }
    return reports, elapsed, failures


def _verdict(criterion, names, budget_s, max_degrees=None):
    reports, elapsed, failures = _run(names, budget_s, max_degrees)
    ok = not failures and elapsed < budget_s
    line = (
        f"{'PASS' if ok else 'FAIL'} {criterion}: "
        f"{'+'.join(names)} in {elapsed:.1f}s (budget {budget_s}s), "
        f"{sum(len(r.cases) for r in reports)} cases, {len(failures)} failures"
    )
    print(line)
    assert not failures, failures
    assert elapsed < budget_s, f"budget exceeded: {elapsed:.1f}s >= {budget_s}s"
    return reports


def test_criterion_1_jacobi_and_crosscheck():
    _verdict("criterion-1", ["jacobi", "bracket-crosscheck"], 30, [4, 4])


def test_criterion_2_divergence():
    _verdict("criterion-2", ["divergence"], 5, [6])


def test_criterion_3_phi_homomorphism():
    _verdict("criterion-3", ["phi-hom"], 60, [3])


def test_criterion_4_action_axioms():
    _verdict("criterion-4", ["action-axioms"], 60, [2])


def test_criterion_5_whittaker_dimensions():
    reports = _verdict("criterion-5", ["whittaker-dim"], 30, [6])
    # the grid covers five weights at every truncation degree up to 6
    assert len(reports[0].cases) == 35


def test_criterion_6_freeness():
    reports = _verdict("criterion-6", ["freeness"], 60, [4])
    names = [c.name for c in reports[0].cases]
    assert "freeness-Q1" in names and len(names) == 6


def test_criterion_7_y_centralizer_and_displays():
    reports = _verdict("criterion-7", ["y-centralizer"], 120, [4])
    names = [c.name for c in reports[0].cases]
    assert sum(1 for n in names if n.startswith("commutes-Y")) == 24
    assert sum(1 for n in names if n.startswith("display-Y")) == 4
    assert sum(1 for n in names if n.startswith("display-xi")) == 4


def test_criterion_8_g_recurrences():
    _verdict("criterion-8", ["g-recurrence"], 10, [5])


def test_criterion_9_xi_whittaker_and_pi1():
    reports = _verdict("criterion-9", ["xi-whittaker", "pi1-compare"], 60, [4, None])
    compare = [c for c in reports[1].cases if c.name.startswith("pi1-module")]
    assert len(compare) == 16  # four generators over the four-weight grid


def test_criterion_10_closure():
    reports = _verdict("criterion-10", ["closure"], 300, [6])
    by_name = {c.name: c for c in reports[0].cases}
    assert by_name["closure-reducible-point"].status == "pass"
    assert by_name["closure-simple-lam(1,1)"].status == "pass"
    assert by_name["closure-simple-lam(2,0)"].status == "pass"


def test_criterion_11_sigma_annihilation():
    reports = _verdict("criterion-11", ["sigma-annihilation"], 120, [6])
    case = next(c for c in reports[0].cases if c.name == "sigma-minimal-annihilator")
    found = case.witness["minimal_m"]
    print(f"     recorded minimal annihilating order: m = {found}")
    # the order the golden sigma-annihilation report records (degree 2); a
    # search that saw only zeros would stop at m = 0
    assert found == 3
