"""Suites whose builders share per-run data between cases: the letters'
elements and fields (jacobi, bracket-crosscheck) and the letter-pair
operators (action-axioms); the sigma-annihilation cases, which share no
per-run data, are run the same way. A case's outcome must not depend on which
cases ran before it in the same run."""

import random

import pytest

from sbar2lab import suites
from sbar2lab.base import run_scope
from sbar2lab.lie import L_letter
from sbar2lab.report import FAIL
from test_lie import _flip_one

SHARED = [("jacobi", 2), ("bracket-crosscheck", 3), ("action-axioms", 0), ("sigma-annihilation", 2)]


def _outcomes(name: str, degree: int, pick) -> dict:
    """{case name: (status, witness)} of the cases ``pick`` selects from one
    build of the suite, run in the order it returns them, in one run scope."""
    builder, _ = suites.SUITES[name]
    with run_scope():
        cases = builder(degree, random.Random(0))
        return {case: thunk() for case, _, _, thunk in pick(cases)}


def _order_independent_outcomes(name: str, degree: int) -> dict:
    """The outcomes of the suite's cases run forward, after checking that
    running them reversed, or each alone, gives the same ones."""
    forward = _outcomes(name, degree, list)
    assert _outcomes(name, degree, lambda cases: cases[::-1]) == forward
    alone = {}
    for i in range(len(forward)):
        alone.update(_outcomes(name, degree, lambda cases: cases[i : i + 1]))
    assert alone == forward
    return forward


@pytest.mark.parametrize("name, degree", SHARED)
def test_case_outcomes_do_not_depend_on_case_order(name, degree):
    outcomes = _order_independent_outcomes(name, degree)
    report = suites.run_suite(name, degree)
    assert outcomes == {case.name: (case.status, case.witness) for case in report.cases}
    assert all(status != FAIL for status, _ in outcomes.values())


def _negate_bracket(monkeypatch):
    real = suites.sbar_bracket
    monkeypatch.setattr(suites, "sbar_bracket", lambda x, y: -real(x, y))


def _bump_sigma(monkeypatch):
    real = suites.sigma_terms

    def bumped(op):
        terms = real(op)
        if terms:
            first, second, coeff = terms[0]
            terms[0] = (first, second, coeff + 1)
        return terms

    monkeypatch.setattr(suites, "sigma_terms", bumped)


AXIOM_CASES = [f"axiom-lam{lam}-a{a}" for lam in ("(1,0)", "(1,1)", "(2,0)") for a in ("(0,0)", "(1,0)", "(1,1)")]


@pytest.mark.parametrize(
    "name, degree, break_it, failing",
    [
        (
            "jacobi",
            2,
            lambda mp: _flip_one(mp, "letter_bracket", L_letter((1, 0)), L_letter((0, 1))),
            ["jacobi-degrees(-1, 1, 2)", "jacobi-degrees(0, 1, 1)", "jacobi-degrees(1, 1, 1)"],
        ),
        (
            "jacobi",
            2,
            lambda mp: _flip_one(mp, "_vf_key_bracket", ((2, 0), 1), ((1, 0), 1)),
            ["jacobi-degrees(-1, 1, 1)", "jacobi-degrees(0, 0, 1)", "jacobi-degrees(0, 1, 1)"],
        ),
        (
            "bracket-crosscheck",
            3,
            lambda mp: _flip_one(mp, "letter_bracket", L_letter((0, 1)), L_letter((1, 0))),
            ["crosscheck-degrees(1, 1)"],
        ),
        (
            "bracket-crosscheck",
            3,
            lambda mp: _flip_one(mp, "_vf_key_bracket", ((1, 0), 1), ((2, 0), 1)),
            ["crosscheck-degrees(0, 1)"],
        ),
        ("action-axioms", 0, _negate_bracket, AXIOM_CASES),
        ("sigma-annihilation", 2, _bump_sigma, ["sigma-minimal-annihilator", "sigma-two-term-example"]),
    ],
)
def test_negative_controls_fail_the_same_cases_in_any_order(monkeypatch, name, degree, break_it, failing):
    # a wrong bracket or coefficient fails the same cases, with the same
    # witnesses, whichever cases ran before them on the shared per-run data
    break_it(monkeypatch)
    outcomes = _order_independent_outcomes(name, degree)
    assert sorted(case for case, (status, _) in outcomes.items() if status == FAIL) == failing
