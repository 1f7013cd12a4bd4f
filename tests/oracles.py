"""Reference routines that only the tests use: the twisted polynomial module,
the degree-zero identification on Lie elements, PBW normal forms of
arbitrary letter sequences, powers by repeated products, the localized
action term by term, the rank probes on vectors, and the sigma operators on
vectors."""

from sbar2lab.base import Poly2, accumulate, as_scalar, linear, mtotal
from sbar2lab.enveloping import UEnv, _nf, partial_inverse
from sbar2lab.gl2 import Gl2Poly, pi_letter
from sbar2lab.lie import D2, L_letter, l_indices, letter_degree
from sbar2lab.linalg import EchelonSpan, nullspace
from sbar2lab.tmodule import TVector, act_letter, sigma_terms, slice_keys


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


def closure_probe_by_vectors(seed, degree: int, gen_degree: int) -> dict:
    """``closure_probe`` with a ``TVector`` for every letter applied: the
    span closes over its own rows breadth first, each row acted on by
    ``act_letter`` while the cap allows the letter's worst-case degree raise."""
    generators = [D2] + [L_letter(idx) for idx in l_indices(-1, gen_degree)]
    span = EchelonSpan(lambda key: (-mtotal(key[0]), key[0], key[1]))
    frontier = [span.add(dict(seed.terms))]
    while frontier:
        added = []
        for row in frontier:
            vec = seed._new(dict(row))
            for letter in generators:
                if vec.degree() + letter_degree(letter) + 1 <= degree:
                    stored = span.add(dict(act_letter(letter, vec).terms))
                    if stored is not None:
                        added.append(stored)
        frontier = added
    pivot_degrees = [mtotal(key[0]) for key in span.pivot_keys()]
    window = degree - gen_degree
    table = {
        d: (sum(1 for pd in pivot_degrees if pd <= d), (d + 1) * (d + 2) // 2 * seed.module.dim)
        for d in range(window + 1)
    }
    return {
        "window": window,
        "table": table,
        "proper": all(c < amb for c, amb in table.values()),
        "full": all(c == amb for c, amb in table.values()),
        "tracked_rank": span.rank,
    }


def joint_kernel_by_vectors(module, a, degree: int, ops) -> list:
    """``joint_kernel`` over ``(op, scalar)`` pairs with op a callable on
    vectors, applied to a ``TVector`` per slice key, the kernel read off
    ``nullspace``."""
    keys = slice_keys(module, degree)
    index = {key: pos for pos, key in enumerate(keys)}
    rows = []
    for op, scalar in ops:
        block: dict = {}
        for j, key in enumerate(keys):
            coords = dict(op(TVector({key: 1}, a=a, module=module)).terms)
            accumulate(coords, key, -scalar)
            for out_key, c in coords.items():
                if out_key not in index:
                    raise ValueError("operator left the degree slice")
                block.setdefault(index[out_key], {})[j] = c
        rows.extend(block.values())
    return [TVector({keys[j]: c for j, c in vec.items()}, a=a, module=module) for vec in nullspace(rows, len(keys))]


def sigma_act(op, w):
    """The sigma operator on a vector, each two-letter product of its
    ``sigma_terms`` applied through ``act_letter``, inner letter first."""
    pairs = [((first, second), coeff) for first, second, coeff in sigma_terms(op)]
    return linear(pairs, lambda letters: act_letter(letters[0], act_letter(letters[1], w)), w._new)
