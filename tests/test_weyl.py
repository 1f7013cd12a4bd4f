import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbar2lab import weyl
from sbar2lab.base import Poly2
from sbar2lab.enveloping import UEnv, _nf
from sbar2lab.lie import D2, L_letter, Sbar, VectorField, l_basis, l_indices
from sbar2lab.weyl import (
    TensorAlg,
    Weyl,
    phi_L,
    phi_d2,
    phi_hom_check,
    phi_letter,
    phi_poly,
)
from sbar2lab.report import FAIL
from sbar2lab.suites import run_suite
from oracles import A2aVector, a2a_act


def rand_weyl(rng):
    return Weyl(
        {
            ((rng.randrange(3), rng.randrange(3)), (rng.randrange(3), rng.randrange(3))): Fraction(
                rng.randrange(-3, 4)
            )
            for _ in range(2)
        }
    )


# the coordinate functions t1, t2
T = {1: Weyl.monomial((1, 0), (0, 0)), 2: Weyl.monomial((0, 1), (0, 0))}


def test_weyl_mul_examples():
    assert Weyl.partial(1) * T[1] == Weyl.monomial((1, 0), (1, 0)) + Weyl.one()
    got = Weyl.monomial((1, 0), (0, 1)) * Weyl.monomial((0, 1), (1, 0))
    assert got == Weyl.monomial((1, 1), (1, 1)) + Weyl.monomial((1, 0), (1, 0))
    assert T[1] * T[2] == Weyl.monomial((1, 1), (0, 0))


def test_weyl_relations_and_associativity():
    for i, j in itertools.product((1, 2), repeat=2):
        comm = Weyl.partial(i) * T[j] - T[j] * Weyl.partial(i)
        assert comm == (Weyl.one() if i == j else Weyl())
    rng = random.Random(1)
    for _ in range(40):
        x, y, z = rand_weyl(rng), rand_weyl(rng), rand_weyl(rng)
        assert (x * y) * z == x * (y * z)


def test_a2a_examples():
    one = A2aVector(Poly2.one(), (1, 1))
    got = a2a_act(Weyl.partial(1) * T[1], one)
    assert got.poly == Poly2.one() + Poly2.monomial((1, 0))
    t1 = A2aVector(Poly2.monomial((1, 0)), (1, 1))
    got = a2a_act(Weyl.from_vf(VectorField.euler(1)), t1)
    assert got.poly == Poly2.monomial((1, 0)) + Poly2.monomial((2, 0))
    zero_type = A2aVector(Poly2.one(), (0, 0))
    assert a2a_act(Weyl.partial(1), zero_type).poly.is_zero()


def test_a2a_is_a_module():
    rng = random.Random(6)
    for _ in range(25):
        x, y = rand_weyl(rng), rand_weyl(rng)
        f = A2aVector(
            Poly2({(rng.randrange(3), rng.randrange(3)): Fraction(rng.randrange(-2, 3)) for _ in range(3)}),
            (1, 2),
        )
        lhs = a2a_act(x, a2a_act(y, f)).poly - a2a_act(y, a2a_act(x, f)).poly
        rhs = a2a_act(x * y - y * x, f).poly
        assert lhs == rhs


def test_phi_generator_images():
    assert phi_poly(Poly2.monomial((2, 1))) == TensorAlg({(((2, 1), (0, 0)), ()): Fraction(1)})
    expect = TensorAlg.from_weyl(Weyl.from_vf(VectorField.euler(2))) + TensorAlg.from_env(UEnv.d2())
    assert phi_d2() == expect
    got = phi_L((1, 0))
    expect = (
        TensorAlg.from_weyl(Weyl.from_vf(l_basis((1, 0))))
        + TensorAlg.from_env(UEnv.L((1, 0)))
        + TensorAlg({(((1, 0), (0, 0)), (L_letter((0, 0)),)): Fraction(2)})
        + TensorAlg({(((0, 1), (0, 0)), (L_letter((1, -1)),)): Fraction(1)})
    )
    assert got == expect
    # only the lone term survives for the constant fields
    assert phi_L((-1, 0)) == TensorAlg.from_weyl(Weyl.partial(1))


def test_env_factor_rejects_constant_fields():
    with pytest.raises(ValueError):
        TensorAlg.from_env(UEnv.partial(1))


def test_phi_hom_check_examples():
    assert phi_hom_check(Sbar.L((-1, 0)), Poly2.monomial((1, 0))).is_zero()
    assert phi_hom_check(Sbar.L((1, -1)), Sbar.L((0, 1))).is_zero()
    x = Sbar.L((2, 1))
    assert phi_hom_check(x, x).is_zero()


def test_phi_hom_suite_fails_on_one_wrong_coefficient(monkeypatch):
    # negative control: phi(L(1,0)) carries 2 on t^(1,0) x L(0,0); with 3
    # there the suite must report a failing pair
    key = (((1, 0), (0, 0)), (L_letter((0, 0)),))
    assert phi_letter(L_letter((1, 0))).terms[key] == 2

    def skewed(letter):
        image = phi_letter(letter)
        return image + TensorAlg({key: 1}) if letter == L_letter((1, 0)) else image

    monkeypatch.setattr(weyl, "_phi_letter", skewed)
    failed = [case for case in run_suite("phi-hom", 2, 0).cases if case.status == FAIL]
    assert any("L(1,0)" in case.witness["pair"] for case in failed)


def test_phi_hom_sweep_window():
    letters = [D2] + [
        L_letter((a1, a2))
        for a1 in range(-1, 4)
        for a2 in range(-1, 4)
        if (a1, a2) != (-1, -1) and -1 <= a1 + a2 <= 2
    ]
    gens = [Poly2.monomial((b1, b2)) for b1 in range(3) for b2 in range(3 - b1)]
    gens += [Sbar({l: Fraction(1)}) for l in letters]
    for x, y in itertools.product(gens, repeat=2):
        assert phi_hom_check(x, y).is_zero()


@st.composite
def weyl_elements(draw):
    """One to three normally ordered terms with exponents up to 2 and nonzero
    coefficients in [-3, 3] with denominators up to 2."""
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    coeffs = st.fractions(-3, 3, max_denominator=2).filter(bool)
    return Weyl(draw(st.dictionaries(st.tuples(exps, exps), coeffs, min_size=1, max_size=3)))


@settings(max_examples=60, deadline=None)
@given(weyl_elements(), weyl_elements(), weyl_elements())
def test_weyl_product_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


NONNEG_LETTERS = [D2] + [L_letter(alpha) for alpha in l_indices(0, 2)]


@st.composite
def tensor_elements(draw):
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2))
    terms = {}
    for _ in range(draw(st.integers(1, 2))):
        seq = tuple(draw(st.lists(st.sampled_from(NONNEG_LETTERS), max_size=2)))
        word = draw(st.sampled_from(sorted(_nf(seq))))
        terms[((draw(exps), draw(exps)), word)] = draw(st.integers(-3, 3))
    return TensorAlg(terms)


@settings(max_examples=60, deadline=None)
@given(tensor_elements(), tensor_elements(), tensor_elements())
def test_tensor_product_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=200, deadline=None)
@given(tensor_elements(), tensor_elements())
def test_bracket_is_the_commutator(x, y):
    assert x.bracket(y) == x * y - y * x


def _key(t_exp, d_exp, *word):
    return ((t_exp, d_exp), tuple(L_letter(alpha) for alpha in word))


@pytest.mark.parametrize(
    "k1, k2, expect",
    [
        # equal words: only the Weyl commutator, d1 t1 - t1 d1 = 1
        (_key((1, 0), (0, 0), (0, 0)), _key((0, 0), (1, 0), (0, 0)), {_key((0, 0), (0, 0), (0, 0), (0, 0)): -1}),
        # an empty word on one side: d1 t1^2 - t1^2 d1 = 2 t1
        (_key((0, 0), (1, 0)), _key((2, 0), (0, 0), (1, 0)), {_key((1, 0), (0, 0), (1, 0)): 2}),
        # two different letters: [L(0,0), L(1,0)] = L(1,0) on the k = 0 term
        (_key((1, 0), (0, 0), (0, 0)), _key((0, 1), (0, 0), (1, 0)), {_key((1, 1), (0, 0), (1, 0)): 1}),
        (
            _key((0, 0), (1, 0), (0, 0)),
            _key((1, 0), (0, 0), (1, 0)),
            {_key((1, 0), (1, 0), (1, 0)): 1, _key((0, 0), (0, 0), (0, 0), (1, 0)): 1},
        ),
        # pure Weyl keys: d1^2 t1^2 - t1^2 d1^2 = 4 t1 d1 + 2, and d2, t1 commute
        (_key((0, 0), (2, 0)), _key((2, 0), (0, 0)), {_key((1, 0), (1, 0)): 4, _key((0, 0), (0, 0)): 2}),
        (_key((0, 0), (0, 1)), _key((1, 0), (0, 0)), {}),
    ],
)
def test_bracket_pinned_keys(k1, k2, expect):
    x, y = TensorAlg({k1: 1}), TensorAlg({k2: 1})
    assert x.bracket(y) == TensorAlg(expect) == x * y - y * x
    assert y.bracket(x) == -TensorAlg(expect)
