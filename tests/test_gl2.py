from fractions import Fraction

import pytest

from sbar2lab.gl2 import Gl2Poly, gl2_simple, mat_add, mat_mul, mat_scale, mat_zero, pi_env
from sbar2lab.enveloping import UEnv
from sbar2lab.lie import Sbar
from oracles import pi_iso


def commutator(m, a, b):
    return mat_add(mat_mul(m.E[a], m.E[b]), mat_scale(mat_mul(m.E[b], m.E[a]), -1))


@pytest.mark.parametrize("lam,dim", [((1, 0), 2), ((3, 3), 1), ((2, 0), 3), ((3, 1), 3)])
def test_gl2_relations(lam, dim):
    m = gl2_simple(lam)
    assert m.dim == dim
    for a in m.E:
        for b in m.E:
            expect = mat_zero(dim)
            if a[1] == b[0]:
                expect = mat_add(expect, m.E[(a[0], b[1])])
            if b[1] == a[0]:
                expect = mat_add(expect, mat_scale(m.E[(b[0], a[1])], -1))
            assert commutator(m, a, b) == expect
    # central character and highest weight vector
    trace_op = mat_add(m.E[(1, 1)], m.E[(2, 2)])
    lam1, lam2 = Fraction(lam[0]), Fraction(lam[1])
    assert trace_op == tuple(
        tuple((lam1 + lam2 if i == j else Fraction(0)) for j in range(dim)) for i in range(dim)
    )
    assert all(m.E[(1, 2)][i][0] == 0 for i in range(dim))
    assert m.E[(1, 1)][0][0] == lam1


def test_weight_string():
    m = gl2_simple((2, 0))
    diffs = [m.E[(1, 1)][k][k] - m.E[(2, 2)][k][k] for k in range(3)]
    assert diffs == [2, 0, -2]
    m = gl2_simple((5, 5))
    assert m.dim == 1 and m.E[(1, 2)] == ((Fraction(0),),)


def test_rejects_bad_weights():
    with pytest.raises(ValueError):
        gl2_simple((0, 1))
    with pytest.raises(ValueError):
        gl2_simple((Fraction(1, 2), 0))


def test_pi_iso_table():
    G = Gl2Poly.gen
    assert pi_iso(Sbar.L((1, -1))) == G(1, 2) * -2
    assert pi_iso(Sbar.L((-1, 1))) == G(2, 1) * 2
    assert pi_iso(Sbar.L((0, 0))) == G(1, 1) - G(2, 2)
    assert pi_iso(Sbar.d2()) == G(2, 2)
    assert pi_iso(Sbar.L((2, 0))).is_zero()
    with pytest.raises(ValueError):
        pi_iso(Sbar.L((-1, 0)))


def test_pi_iso_is_a_homomorphism_in_degree_zero():
    from sbar2lab.lie import sbar_bracket

    degree_zero = [Sbar.L((0, 0)), Sbar.L((1, -1)), Sbar.L((-1, 1)), Sbar.d2()]
    for x in degree_zero:
        for y in degree_zero:
            lhs = pi_iso(sbar_bracket(x, y)).normalized()
            rhs = (pi_iso(x) * pi_iso(y) - pi_iso(y) * pi_iso(x)).normalized()
            assert lhs == rhs


def test_gl2poly_normalization_and_evaluation():
    G = Gl2Poly.gen
    # E12 E22 = E22 E12 + E12
    lhs = (G(1, 2) * G(2, 2)).normalized()
    rhs = (G(2, 2) * G(1, 2) + G(1, 2)).normalized()
    assert lhs == rhs
    m = gl2_simple((1, 0))
    mat = (G(1, 2) * G(2, 2) * 2 - G(1, 1) * G(1, 1) - G(1, 1)).evaluate(m)
    assert mat == ((Fraction(-2), Fraction(2)), (Fraction(0), Fraction(0)))


def test_pi_env_drops_positive_degree_words():
    u = UEnv.L((1, 0)) * UEnv.L((0, 0)) + UEnv.d2() * 3
    G = Gl2Poly.gen
    assert pi_env(u) == G(2, 2) * 3
