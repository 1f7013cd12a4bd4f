"""Golden digests of every suite report and pinned printed forms.

The digests are sha256 sums of the JSON report minus ``wall_time_ms``, at
seed 0, recorded before the accumulator, term printer and localized action
were each collapsed into one implementation. A refactor that changes any
report byte, or any printed form, fails here. Degrees are reduced where the
default would add seconds to the test run.

A second table pins every suite at a pushed degree, past its default, so
that a refactor is checked on wider windows than the defaults reach. It
holds seed 0 for every suite and seed 1 for closure, the one suite that
draws from ``rng``.

A third table pins the stdout of ``ygen --alpha=A --xi --pi1 --lambda=L``:
the enveloping realization, the formal operator image and its matrix on the
simple gl_2-module, at integral, zero and half-integral highest weights.
"""

import contextlib
import hashlib
import io
import json
from fractions import Fraction

import pytest

from sbar2lab.base import Poly2
from sbar2lab.cli import main
from sbar2lab.enveloping import Loc, Q1, UEnv
from sbar2lab.gl2 import Gl2Module, Gl2Poly
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


PUSHED_DEGREES = {
    "action-axioms": 3,
    "bracket-crosscheck": 6,
    "closure": 9,
    "divergence": 9,
    "freeness": 7,
    "g-recurrence": 8,
    "jacobi": 5,
    "phi-hom": 4,
    "pi1-compare": 4,
    "sigma-annihilation": 8,
    "twist": 5,
    "whittaker-dim": 9,
    "xi-whittaker": 5,
    "y-basis": 3,
    "y-centralizer": 5,
}

GOLDEN_PUSHED = {
    ("action-axioms", 0): "908e0f7427ada5a0bd1b3611945e210441f9a4eb63664ca455452de07c66b88a",
    ("bracket-crosscheck", 0): "772c965064f000ae79b8e90fd0cf5e79a1d24cbdfe35c33b2551e08a674a1b0d",
    ("closure", 0): "d9708dad5d46fde30b57a6d3c5205373b0b948790611d8f1037fd274df539b6c",
    ("closure", 1): "3a0224d1bce8b1b3d05447a13c4220bf9b695c5c745c682e26b4642cc51c89cc",
    ("divergence", 0): "b46e02791a342216e92384e033169bf85a1a8cbb261a72524c7472f8f3aa0c3b",
    ("freeness", 0): "9f519e26d7c1a05e4cdbbfde6a658da14d94e7382dc48e28c7af654f11a81aff",
    ("g-recurrence", 0): "038aebb34d0f707236f555c0bc4358d786e30a3fcc9a27dbb38475a420ef9a1f",
    ("jacobi", 0): "cb949520afca191aa1052d9915153e550450bae93508c00d55a6768386be9442",
    ("phi-hom", 0): "c8c3821cbe5ecab8f962845188b02b1c98366ee32f12820e43da9ce527de07e5",
    ("pi1-compare", 0): "8b5443142f91a4dd919577b86b48afe532d71f58c2afd13ecd0ac793ca870dbf",
    ("sigma-annihilation", 0): "19ba0a8686dbec92b04c303cd02b090bfb6014cd2989c27d6458a7733051bb9f",
    ("twist", 0): "ee243e9d5cf2bb0a84ef2ae8fcc30b34dadb92da1fe2f88b4b099b149f1d0387",
    ("whittaker-dim", 0): "bd9bbd2acd1dab2657fc43034fa83c4b63e3873e4ccd559dfcb97d6598f0789c",
    ("xi-whittaker", 0): "9e987ffecce24118d30b70e409d569c5e2f21b9c79e5d7d884d9479a1129256e",
    ("y-basis", 0): "ff10752d8efbb6911af03814c75a34e1962969410e9e4e1568dc5f2e4c409fc9",
    ("y-centralizer", 0): "3470a06306b653113b08184a063c3bb0bbe042fefae146cbcd19e1a05b10557b",
}

GOLDEN_YGEN = {
    ("1,0", "1,0"): "fd8fced0ee35d4e9a947b1e7f1a35764cc47dc35c5a7f13703c64c7d723e4654",
    ("1,0", "3,1"): "0239a3a1f7c1329300d86a701b889f6a2cc34e3bef61c711e2362ce887ac5880",
    ("1,0", "1/2,-1/2"): "2807cae005333f42ce946b45b5332eceafa8c94a55cb7dd3cb8a3d06523e468c",
    ("1,0", "0,0"): "28ee6cdd238a43cb8dc73c0e35b96e9912fc1fa8658128b3084963c7aa54d177",
    ("0,1", "1,0"): "7aecb4d13a9e6409031ff7d04a68eaba61e98009656601bc98571106db8741b3",
    ("0,1", "3,1"): "7872e8ebce5b876d1870bc3f696bc2f7e68a34cf41bcaea3f49f6f5502bad0bf",
    ("0,1", "1/2,-1/2"): "b21941f842b5bc00a11e8c06393593552879719616c9953c6ade0960d0aee6f7",
    ("0,1", "0,0"): "f84d7663e88617b5bf9fc15714155d152163c97c0b4ca553ae3c11c80ef35b26",
    ("1,-1", "1,0"): "93d76c55184f22bce002c63f248acd50ab2d7f0ce05883820184e0c3d1d22220",
    ("1,-1", "3,1"): "dc7d5164f362e1c9bba906c041af595327a13babfd2feb561309c6d6fd415d7d",
    ("1,-1", "1/2,-1/2"): "5b1999a389ab0ad901c3be1539b68a20a91aa17ac57cbfd446eb7bb523ebf2e5",
    ("1,-1", "0,0"): "c163edc54b823f08af498ddc3f47414e8321115c8d51354712f91ea1a1483037",
    ("-1,1", "1,0"): "8c83d2d58154eeb6026a0736450f9fd310c3b981be90d21dfd043d81d5f47903",
    ("-1,1", "3,1"): "6cb4e5ac705ceb28fb0611d4f42a5beeac55ed451d8886cc112729847c8b7e83",
    ("-1,1", "1/2,-1/2"): "273d40a05e54d5f9bcdcba8d55e0441ff1296cb783328246a76ec745da1042ab",
    ("-1,1", "0,0"): "d4ff7596c4090ee18bfc93f775585200b4237d4e782a529314831a00c6839633",
    ("1,1", "1,0"): "b48fd64b1a5b09cb9c2662a2909b318b700fc4f39a65b743b453d67c8baf23ac",
    ("1,1", "3,1"): "a7ac571cdc6ef16dc73ecf6fd31c14f1deb4ca516caaeddcdfb61d18ac7d3593",
    ("1,1", "1/2,-1/2"): "807d4f5e26832fc0b412c55fa25960e548573b61109f6b10f71f40e68e1eb118",
    ("1,1", "0,0"): "906236664241a18b87a36a1a4be2dd029994553a0332396202bafa9541e5e474",
    ("2,0", "1,0"): "090c8d4ccdf62c5b7aac5a658f983d3765ef1e72ae0725463671b5744ef9eb33",
    ("2,0", "3,1"): "5ddb0c204db5ec041fc448d9473e6d1d5ddd776a44ce3e501c8f843e2f652325",
    ("2,0", "1/2,-1/2"): "769bd73333621eb0baa66968112a20d51860d57876cbeadcc9d7338343fdaae8",
    ("2,0", "0,0"): "8d324f542a83070c0bdddb4bd01d4f52c4572a3e5f0178185334ebbef6aadff6",
    ("0,2", "1,0"): "c2aafde3de2c32eb3b65bea1fed710420b3ec23ec95e2b355952014ab1a504b4",
    ("0,2", "3,1"): "98e0a4aae75abf814d110c1213f4108d02773d7ba2d320d26e2a6a5a10f29d32",
    ("0,2", "1/2,-1/2"): "632100ff99458a9cc31eb5cc26b4878157dc61500ba4bacf292fa533b8140e1c",
    ("0,2", "0,0"): "ddec5943317266d3fccb172a301af90a896cf7ef234cfc4b35c279fe57cf017a",
    ("2,1", "1,0"): "ac91d4f5838e5f54f52fb01e070f68f3331a8ef8421b42c3d3be5c3ded42b6d7",
    ("2,1", "3,1"): "3840b593a57a77a92b937d7a4e6a30bf09a4cdd1eb8d34ac20d25e08a9d25114",
    ("2,1", "1/2,-1/2"): "5f2d3d200d501ee29f3f11271e378f5f0fa55d0d70fcb9c23588955bd958c8b0",
    ("2,1", "0,0"): "718408a7b2747cefa7ff1d720857df183ac56783cba9a1b0358e97fd90498eac",
}


def _digest(name, degree, seed) -> str:
    doc = run_suite(name, degree, seed).to_dict()
    del doc["wall_time_ms"]
    return hashlib.sha256(json.dumps(doc, indent=2, default=str).encode()).hexdigest()


def test_golden_covers_every_suite():
    assert sorted(GOLDEN) == suite_names()
    assert sorted(PUSHED_DEGREES) == sorted({name for name, _ in GOLDEN_PUSHED}) == suite_names()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name):
    assert _digest(name, REDUCED_DEGREES.get(name), 0) == GOLDEN[name]


@pytest.mark.parametrize("name, seed", sorted(GOLDEN_PUSHED))
def test_pushed_report_digest(name, seed):
    assert _digest(name, PUSHED_DEGREES[name], seed) == GOLDEN_PUSHED[(name, seed)]


@pytest.mark.parametrize("alpha, lam", sorted(GOLDEN_YGEN))
def test_ygen_stdout_digest(alpha, lam):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["ygen", f"--alpha={alpha}", "--xi", "--pi1", f"--lambda={lam}"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == GOLDEN_YGEN[(alpha, lam)]


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
        TVector({((0, 0), 0): 1, ((1, 0), 1): -1, ((0, 2), 0): H}, a=(1, 1), module=Gl2Module((1, 0))),
        "v0 - t1*v1 + 3/2*t2^2*v0",
    ),
]


@pytest.mark.parametrize("element, text", PRINTED, ids=[type(e).__name__ for e, _ in PRINTED])
def test_printed_form(element, text):
    assert str(element) == text
    assert str(element._new({})) == ("0 * v1" if isinstance(element, Q1) else "0")
