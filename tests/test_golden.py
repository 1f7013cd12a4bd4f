"""Golden digests of every suite report and pinned printed forms.

The digests are sha256 sums of the JSON report minus ``wall_time_ms``, at
seed 0, recorded before the accumulator, term printer and localized action
were each collapsed into one implementation. A refactor that changes any
report byte, or any printed form, fails here. Degrees are reduced where the
default would add seconds to the test run.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from sbar2lab.base import Poly2
from sbar2lab.enveloping import Loc, Q1, UEnv
from sbar2lab.gl2 import Gl2Poly, gl2_simple
from sbar2lab.lie import D2, P1_LETTER, L_letter, Sbar, VectorField
from sbar2lab.suites import run_suite, suite_names
from sbar2lab.tmodule import TVector
from sbar2lab.weyl import TensorAlg, Weyl

REDUCED_DEGREES = {"action-axioms": 0, "sigma-annihilation": 2, "jacobi": 2, "phi-hom": 2, "y-centralizer": 3}

GOLDEN = {
    "action-axioms": "374c0a1ec0ff53f12c76f14cb1716c581b97e6ca3b2ee4d32f797a61d5128637",
    "bracket-crosscheck": "41615a79fc475bce9ec4e8b76a0f647cbdd9a6926ce7fd0148c4ded67ce6df90",
    "closure": "fe20e9cf7a87e0df16ec879fbeb862b31ad0fbac39c534454ce2ab20b6229f63",
    "divergence": "210494d4ff6e2ac4c1ec9ef0883ddf70e5d5e78e9cd2493f3faa86a27aeaee01",
    "freeness": "5a81db54165f7057ff108ae663c3892e5d705cc048e0a9a9b0acabb1cbbd1cd1",
    "g-recurrence": "781c65ceeb9aff0878c39a9fbe7807dee1126527650d151f2098a23091413a0f",
    "jacobi": "f537f42e452e9f7f3d1acce890214b9a94fb9012fa692b689f8a4202d53ac639",
    "phi-hom": "b514d8952fd58eb1730d7beb6c9871e90a60ff08fa1eab361882cbabdad9c9b5",
    "pi1-compare": "8b5443142f91a4dd919577b86b48afe532d71f58c2afd13ecd0ac793ca870dbf",
    "sigma-annihilation": "35c0d82b59d36b4fe60c33ecf57d9a9ec539f5df4b0a6c12b3eeaf86043a3a96",
    "twist": "ee243e9d5cf2bb0a84ef2ae8fcc30b34dadb92da1fe2f88b4b099b149f1d0387",
    "whittaker-dim": "49178212c8e60732522febd3e6dc12f075f69d38a1f2bcf2ba303ee42185861d",
    "xi-whittaker": "108103ee35470a95feeabad3fc86d7976d6f04718ceca4122b8d147c7ee7dbb8",
    "y-basis": "ff10752d8efbb6911af03814c75a34e1962969410e9e4e1568dc5f2e4c409fc9",
    "y-centralizer": "f57e0d05d80e7ced79d8d31d7708c0eb573dde58633d5a36ee4e942b6097ac3a",
}


def test_golden_covers_every_suite():
    assert sorted(GOLDEN) == suite_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name):
    doc = run_suite(name, REDUCED_DEGREES.get(name), 0).to_dict()
    del doc["wall_time_ms"]
    digest = hashlib.sha256(json.dumps(doc, indent=2, default=str).encode()).hexdigest()
    assert digest == GOLDEN[name]


H = Fraction(3, 2)
L = L_letter

# One element per LinComb subclass with coefficients 1, -1 and 3/2, and a
# constant term where the class has one.
PRINTED = [
    (Poly2({(0, 0): 5, (1, 0): 1, (0, 2): -1, (1, 1): H}), "5 + t1 - t2^2 + 3/2*t1*t2"),
    (VectorField({((0, 0), 1): 1, ((1, 0), 2): -1, ((0, 2), 1): H}), "p1 - t1*p2 + 3/2*t2^2*p1"),
    (Sbar({D2: 1, L((1, 0)): -1, L((-1, 0)): H}), "d2 - L(1,0) + 3/2*L(-1,0)"),
    (
        UEnv({(): 2, (D2,): 1, (L((0, 0)), L((0, 0))): -1, (L((1, 0)), P1_LETTER): H}),
        "2 + d2 - L(0,0)^2 + 3/2*L(1,0)*L(-1,0)",
    ),
    (
        Loc({((), (0, 0)): 2, ((D2,), (1, 0)): 1, ((L((1, 0)),), (0, -1)): -1, ((), (2, -1)): H}),
        "2 + 3/2*p1^2*p2^-1 + d2*p1 - L(1,0)*p2^-1",
    ),
    (Q1({(): 2, (D2,): 1, (L((0, 0)),): -1, (D2, L((1, 1))): H}), "(2 + d2 + 3/2*d2*L(1,1) - L(0,0)) * v1"),
    (Q1({(D2,): 1}), "d2 * v1"),
    (
        Weyl({((0, 0), (0, 0)): 2, ((1, 0), (0, 0)): 1, ((0, 1), (1, 0)): -1, ((2, 0), (0, 1)): H}),
        "2 - t2*p1 + t1 + 3/2*t1^2*p2",
    ),
    (
        TensorAlg(
            {
                (((0, 0), (0, 0)), ()): 2,
                (((1, 0), (0, 0)), ()): 1,
                (((0, 0), (1, 0)), (D2,)): -1,
                (((0, 1), (0, 0)), (L((1, 0)),)): H,
            }
        ),
        "2*[1 (x) 1] - p1 (x) d2 + 3/2*[t2 (x) L(1,0)] + t1 (x) 1",
    ),
    (
        Gl2Poly({(): 2, ((1, 1),): 1, ((2, 1), (1, 2)): -1, ((2, 2), (2, 2)): H}),
        "2 + E11 - E21*E12 + 3/2*E22*E22",
    ),
    (
        TVector({((0, 0), 0): 1, ((1, 0), 1): -1, ((0, 2), 0): H}, a=(1, 1), module=gl2_simple((1, 0))),
        "v0 - t1*v1 + 3/2*t2^2*v0",
    ),
]


@pytest.mark.parametrize("element, text", PRINTED, ids=[type(e).__name__ for e, _ in PRINTED])
def test_printed_form(element, text):
    assert str(element) == text
    assert str(element._new({})) == ("0 * v1" if isinstance(element, Q1) else "0")
