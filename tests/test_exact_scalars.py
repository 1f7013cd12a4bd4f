"""Runtime guard: every scalar the package coerces is exact and canonical.

Each suite runs at the golden test's reduced degrees, seed 0, with
``as_scalar`` wrapped in every module that calls it. No result may be a
float, and none may be a Fraction with denominator 1: integral coefficients
are stored as ints.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest
from test_golden import REDUCED_DEGREES

from sbar2lab import base
from sbar2lab.suites import run_suite, suite_names

# every loaded package module that bound the name, base itself included
MODULES = [
    module
    for name, module in sorted(sys.modules.items())
    if name.startswith("sbar2lab.") and getattr(module, "as_scalar", None) is base.as_scalar
]


@pytest.mark.parametrize("name", suite_names())
def test_suite_scalars_are_canonical(name, monkeypatch):
    real = base.as_scalar
    kinds = Counter()

    def recording(x):
        out = real(x)
        integral_fraction = type(out) is Fraction and out.denominator == 1
        kinds["integral Fraction" if integral_fraction else type(out).__name__] += 1
        return out

    for module in MODULES:
        monkeypatch.setattr(module, "as_scalar", recording)
    doc = run_suite(name, REDUCED_DEGREES.get(name), 0).to_dict()
    assert doc["summary"]["fail"] == 0
    assert set(kinds) <= {"int", "Fraction"}, kinds
    assert kinds["int"] > 0
