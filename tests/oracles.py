"""Reference routines that only the tests use: the twisted polynomial module,
the degree-zero identification on Lie elements, PBW normal forms of
arbitrary letter sequences, powers by repeated products, and the localized
action term by term."""

from sbar2lab.base import Poly2, as_scalar, linear
from sbar2lab.enveloping import UEnv, _nf, partial_inverse
from sbar2lab.gl2 import Gl2Poly, pi_letter


class A2aVector:
    """Polynomial vector of the twisted module: the operator action sends
    d/dt_i to d/dt_i + a_i and fixes the t_i."""

    __slots__ = ("poly", "a")

    def __init__(self, poly: Poly2, a: tuple):
        self.poly = poly
        self.a = (as_scalar(a[0]), as_scalar(a[1]))

    def __eq__(self, other):
        return isinstance(other, A2aVector) and self.a == other.a and self.poly == other.poly

    def __repr__(self):
        return f"A2aVector({self.poly}, a={self.a})"


def a2a_act(x, f: A2aVector) -> A2aVector:
    """Action of a Weyl element on the twisted module, (d/dt_i + a_i)^e
    acting on the polynomial."""

    def image(key) -> Poly2:
        te, de = key
        p = f.poly
        for i in (1, 2):
            for _ in range(de[i - 1]):
                p = p.diff(i) + p * f.a[i - 1]
        return Poly2.monomial(te) * p

    return A2aVector(linear(x.items(), image, Poly2._adopt), f.a)


def pi_iso(x) -> Gl2Poly:
    """Degree-zero identification of a Lie element with gl_2, extended by
    zero in higher degree."""
    return linear(x.items(), pi_letter, Gl2Poly._adopt)


def pbw_normalize(seq, c=1) -> UEnv:
    """Normal form of a coefficient times an arbitrary letter sequence."""
    return UEnv(dict(_nf(tuple(seq)))) * as_scalar(c)


def power(x, n: int):
    """x^n by n products with x, starting from the unit."""
    out = x.one()
    for _ in range(n):
        out = out * x
    return out


def loc_act_by_term(x, v, partial, word_act, scalars):
    """The localized action term by term: for every term the p2 then p1
    powers act on v afresh (negative powers through the inverse series),
    then the head word."""

    def image(key):
        head, (m1, m2) = key
        u = v
        for i, m in ((2, m2), (1, m1)):
            for _ in range(abs(m)):
                u = partial(i, u) if m > 0 else partial_inverse(i, u, partial, scalars[i - 1])
        return word_act(head, u)

    return linear(x.items(), image, v._new)
