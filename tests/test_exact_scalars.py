"""Runtime guard: every scalar the package coerces or stores is exact and
canonical.

Each suite runs at the golden test's reduced degrees, seed 0, with
``as_scalar`` wrapped in every module that calls it and ``LinComb._own``,
where every constructor stores its terms, wrapped in ``base``. No result
and no stored coefficient may be a float, and none may be a Fraction with
denominator 1: integral coefficients are stored as ints. The stored check
is the one that sees int coefficients, which skip ``as_scalar``.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest
from test_golden import REDUCED_DEGREES

from sbar2lab import base
from sbar2lab.gl2 import gl2_simple
from sbar2lab.lie import D2
from sbar2lab.suites import run_suite, suite_names
from sbar2lab.tmodule import BasisImages

# every loaded package module that bound the name, base itself included
MODULES = [
    module
    for name, module in sorted(sys.modules.items())
    if name.startswith("sbar2lab.") and getattr(module, "as_scalar", None) is base.as_scalar
]


def _kind(x) -> str:
    if type(x) is Fraction and x.denominator == 1:
        return "integral Fraction"
    return type(x).__name__


@pytest.mark.parametrize("name", suite_names())
def test_suite_scalars_are_canonical(name, monkeypatch):
    real, real_own = base.as_scalar, base.LinComb._own
    kinds, stored = Counter(), Counter()

    def recording(x):
        out = real(x)
        kinds[_kind(out)] += 1
        return out

    def owning(self, terms):
        real_own(self, terms)
        stored.update(_kind(c) for c in self.terms.values())

    for module in MODULES:
        monkeypatch.setattr(module, "as_scalar", recording)
    monkeypatch.setattr(base.LinComb, "_own", owning)
    doc = run_suite(name, REDUCED_DEGREES.get(name), 0).to_dict()
    assert doc["summary"]["fail"] == 0
    assert set(kinds) <= {"int", "Fraction"}, kinds
    assert kinds["int"] > 0
    assert set(stored) <= {"int", "Fraction"}, stored
    assert stored["int"] > 0


def test_basis_images_sums_are_canonical():
    # pairs_on sums raw table coefficients, so two halves of an integral
    # value are coerced when the sum is translated back to keys
    images = BasisImages(gl2_simple((1, 0)), (1, 1))
    got = images.pairs_on([(D2, D2, Fraction(1, 2))] * 2, ((0, 1), 0))
    assert got == {((0, 1), 0): 1, ((0, 2), 0): 3, ((0, 3), 0): 1}
    assert {_kind(c) for c in got.values()} == {"int"}
