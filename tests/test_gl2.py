from fractions import Fraction

import pytest

from sbar2lab.gl2 import GL_LETTERS, Gl2Module, Gl2Poly, pi_env
from sbar2lab.enveloping import UEnv
from sbar2lab.lie import Sbar
from oracles import pi_iso


@pytest.mark.parametrize("lam,dim", [((1, 0), 2), ((3, 3), 1), ((2, 0), 3), ((3, 1), 3)])
def test_gl2_relations(lam, dim):
    m = Gl2Module(lam)
    assert m.dim == dim
    for a in GL_LETTERS:
        for b in GL_LETTERS:
            # pair lists of unnormalized words: a dict literal loses a term when a == b
            commutator = Gl2Poly([((a, b), 1), ((b, a), -1)])
            expect = []
            if a[1] == b[0]:
                expect.append((((a[0], b[1]),), 1))
            if b[1] == a[0]:
                expect.append((((b[0], a[1]),), -1))
            assert commutator.evaluate(m) == Gl2Poly(expect).evaluate(m)
    # central character and highest weight vector
    trace_op = (Gl2Poly.gen(1, 1) + Gl2Poly.gen(2, 2)).evaluate(m)
    lam1, lam2 = Fraction(lam[0]), Fraction(lam[1])
    assert trace_op == {(i, i): lam1 + lam2 for i in range(dim)}
    assert m.column((1, 2), 0) == ()
    assert m.column((1, 1), 0) == ((0, lam1),)


def test_weight_string():
    def weight(m, ij, k):
        # the eigenvalue of a diagonal E_ij on v_k, read off its sparse column
        return dict(m.column(ij, k)).get(k, 0)

    m = Gl2Module((2, 0))
    diffs = [weight(m, (1, 1), k) - weight(m, (2, 2), k) for k in range(3)]
    assert diffs == [2, 0, -2]
    m = Gl2Module((5, 5))
    assert m.dim == 1 and m.column((1, 2), 0) == ()


def test_rejects_bad_weights():
    with pytest.raises(ValueError):
        Gl2Module((0, 1))
    with pytest.raises(ValueError):
        Gl2Module((Fraction(1, 2), 0))


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
            # one-letter words and products are both in PBW normal form
            assert pi_iso(sbar_bracket(x, y)) == pi_iso(x) * pi_iso(y) - pi_iso(y) * pi_iso(x)


def test_gl2poly_normalization_and_evaluation():
    G = Gl2Poly.gen
    # E12 E22 = E22 E12 + E12: the raw word is normalized by the unit, and
    # the product is already normal
    raw = Gl2Poly([(((1, 2), (2, 2)), 1)])
    normal = G(2, 2) * G(1, 2) + G(1, 2)
    assert raw != normal and Gl2Poly.one() * raw == G(1, 2) * G(2, 2) == normal
    m = Gl2Module((1, 0))
    mat = (G(1, 2) * G(2, 2) * 2 - G(1, 1) * G(1, 1) - G(1, 1)).evaluate(m)
    assert mat == {(0, 0): -2, (0, 1): 2}


def test_pi_env_drops_positive_degree_words():
    u = UEnv.L((1, 0)) * UEnv.L((0, 0)) + UEnv.d2() * 3
    G = Gl2Poly.gen
    assert pi_env(u) == G(2, 2) * 3
