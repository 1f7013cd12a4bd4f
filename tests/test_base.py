import random
from fractions import Fraction

import pytest

from sbar2lab import base
from sbar2lab.base import (
    LinComb, Poly2, as_scalar, bilinear, bilinear_sum, binom2, comb0, exponents, gbinom, linear, qdiv, run_memo,
    run_scope,
)


def p(terms):
    return Poly2(terms)


def test_exponents_is_the_degree_window_in_order():
    # a brute-force filter over a box that holds negative exponents
    for d in range(7):
        box = [(b1, b2) for b1 in range(-2, d + 3) for b2 in range(-2, d + 3)]
        window = [b for b in box if b[0] >= 0 and b[1] >= 0 and b[0] + b[1] <= d]
        assert exponents(d) == sorted(window, key=lambda b: (b[0] + b[1], b[0]))
    assert exponents(-1) == []


def test_poly_mul_examples():
    d1, d2 = Poly2.variable(1), Poly2.variable(2)
    assert d1 * d2 == Poly2.monomial((1, 1))
    one = Poly2.one()
    q = p({(2, 1): Fraction(3, 2), (0, 0): Fraction(-1)})
    assert one * q == q
    # (d1 + 1) d1 = d1^2 + d1
    assert (d1 + one) * d1 == p({(2, 0): 1, (1, 0): 1})


def test_poly_shift_examples():
    d1 = Poly2.variable(1)
    assert d1.shift((1, 0)) == d1 + Poly2.one()
    d1d2 = Poly2.monomial((1, 1))
    assert d1d2.shift((1, 1)) == p({(1, 1): 1, (1, 0): 1, (0, 1): 1, (0, 0): 1})
    # shifting the tail polynomial of the first distinguished centralizer index
    g0 = p({(2, 0): -1, (1, 0): -1})  # -(d1+1)d1
    shifted = g0.shift((1, 0))
    assert shifted == p({(2, 0): -1, (1, 0): -3, (0, 0): -2})  # -(d1+2)(d1+1)


def test_shift_composes():
    rng = random.Random(3)
    for _ in range(30):
        q = p({(rng.randrange(4), rng.randrange(4)): Fraction(rng.randrange(-5, 6)) for _ in range(4)})
        a = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        b = (rng.randrange(-3, 4), rng.randrange(-3, 4))
        assert q.shift(a).shift(b) == q.shift((a[0] + b[0], a[1] + b[1]))


def test_binomials():
    assert comb0(5, 2) == 10
    assert comb0(3, 5) == 0
    assert comb0(3, -1) == 0
    assert binom2((3, 1), (1, 0)) == 3
    assert binom2((3, 1), (1, 2)) == 0
    assert binom2((2, 2), (-1, 0)) == 0
    # negative upper index follows the generalized convention
    assert gbinom(-1, 3) == -1
    assert gbinom(-2, 2) == 3
    with pytest.raises(ValueError):
        gbinom(2, -1)


def test_scalar_field_axioms():
    rng = random.Random(11)
    for _ in range(200):
        x = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
        y = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
        z = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if x:
            assert x * (1 / x) == 1


def test_scalar_boundary_rejects_floats():
    with pytest.raises(TypeError):
        as_scalar(0.5)
    assert as_scalar(3) == Fraction(3)


def test_integral_scalars_are_ints():
    for x in (3, Fraction(6, 2), True):
        assert type(as_scalar(x)) is int
    assert as_scalar(Fraction(1, 2)) == Fraction(1, 2)


def test_qdiv_is_exact():
    assert qdiv(6, -3) == -2 and type(qdiv(6, -3)) is int
    assert type(qdiv(Fraction(1, 2), Fraction(1, 4))) is int
    assert qdiv(2, 4) == Fraction(1, 2) and type(qdiv(2, 4)) is Fraction
    with pytest.raises(TypeError):
        qdiv(1.0, 2)
    with pytest.raises(TypeError):
        qdiv(1, 2.0)
    with pytest.raises(ZeroDivisionError):
        qdiv(1, 0)


def test_lincomb_drops_zeros():
    q = p({(1, 0): Fraction(1), (0, 1): Fraction(0)})
    assert (0, 1) not in q.terms
    assert (q - q).is_zero()


def test_subtraction_is_adding_the_negative():
    x = p({(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): -1})
    y = p({(1, 0): 2, (0, 1): Fraction(-1, 2), (2, 0): 3})
    got = x - y
    assert got == x + (-y) and got.terms == {(0, 1): 1, (0, 0): -1, (2, 0): -3}
    assert type(got.terms[(0, 1)]) is int
    assert x.terms == {(1, 0): 2, (0, 1): Fraction(1, 2), (0, 0): -1}  # operands untouched


def test_linear_sums_images_once():
    images = {"x": {(1, 0): 1, (0, 1): 2}, "y": {(1, 0): -1, (0, 0): 2}}
    built = []

    def out(terms):
        built.append(dict(terms))
        return Poly2(terms)

    # the (1,0) terms of x and y cancel, and the key is gone
    got = linear([("x", 1), ("y", 1)], images.__getitem__, out)
    assert got == p({(0, 1): 2, (0, 0): 2}) and (1, 0) not in got.terms
    assert len(built) == 1
    # an integral product of non-integral factors is stored as an int
    got = linear([("x", Fraction(1, 2))], images.__getitem__, Poly2)
    assert got.terms == {(1, 0): Fraction(1, 2), (0, 1): 1}
    assert type(got.terms[(0, 1)]) is int
    assert linear([], images.__getitem__, Poly2).is_zero()


def test_integral_sums_of_fractions_are_stored_as_ints():
    # a key met twice sums its coefficients, and the sum of two halves is 1
    half = Fraction(1, 2)
    got = p({(0, 0): half, (1, 0): half}) * p({(0, 0): 1, (1, 0): 1})
    assert got.terms == {(0, 0): half, (1, 0): 1, (2, 0): half}
    assert type(got.terms[(1, 0)]) is int
    got = LinComb([("k", half), ("k", half)])
    assert got.terms == {"k": 1} and type(got.terms["k"]) is int


def test_results_never_share_terms_with_an_operand():
    # a combination keeps the dict it is built from, so every operation must
    # build a fresh one
    x = p({(1, 0): 2, (0, 1): Fraction(1, 2)})
    y = p({(1, 0): -2, (0, 0): 1})
    zero, one = Poly2(), Poly2.one()
    operands = (x, y, zero, one)
    results = [
        x + y, x + zero, zero + x, x - y, x - zero, -x, -zero,
        x * 1, 1 * x, x * 3, x * Fraction(1, 2), x * 0,
        x * one, one * x, x * zero, bilinear(x, one, x._key_mul, Poly2._adopt),
        linear([("x", 1)], {"x": x.terms}.__getitem__, Poly2._adopt),
        linear([("x", 1)], {"x": x}.__getitem__, Poly2._adopt),
    ]
    for r in results:
        assert all(r.terms is not o.terms for o in operands)
    assert x.terms == {(1, 0): 2, (0, 1): Fraction(1, 2)} and y.terms == {(1, 0): -2, (0, 0): 1}


def test_bilinear_sum_is_the_sum_of_its_products():
    # every product of the pair list goes into one accumulator: terms that
    # cancel across pairs leave no key, and an empty list is zero
    x = p({(1, 0): 2, (0, 1): Fraction(1, 2)})
    y = p({(1, 0): -2, (0, 0): 1})
    pairs = [(x, y), (y, x), (x, -y * 2)]
    got = bilinear_sum(pairs, x._key_mul, Poly2._adopt)
    assert got == x * y + y * x + x * (-y * 2) and got.is_zero()
    assert bilinear_sum([(x, y), (y, y)], x._key_mul, Poly2._adopt) == x * y + y * y
    assert bilinear_sum([], x._key_mul, Poly2._adopt) == Poly2()


def test_run_memo_keeps_results_only_inside_a_scope():
    # a hit is one dict lookup; a miss, also one whose function raises
    # KeyError, stores nothing until the function has returned
    calls = []

    @run_memo
    def f(x):
        calls.append(x)
        if x < 0:
            raise KeyError(x)
        return [x] if x else None

    with run_scope():
        assert f(1) is f(1) and f(0) is None and f(0) is None
        with pytest.raises(KeyError):
            f(-1)
        with pytest.raises(KeyError):
            f(-1)
        assert calls == [1, 0, -1, -1]
    assert base._scope_memo is None
    assert f(1) is not f(1) and calls[-2:] == [1, 1]
