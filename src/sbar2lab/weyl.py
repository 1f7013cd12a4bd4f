"""The rank-2 Weyl algebra, its TensorAlg commutator, and the
generator-level isomorphism into (Weyl algebra) x U(nonnegative part).

Weyl elements are stored normally ordered (all t's left of all d/dt's); the
product uses the closed-form reordering identity

    d^m t^n = sum_k C(m,k) C(n,k) k! t^(n-k) d^(m-k)   (componentwise).

The k = 0 term of a key product t^a d^b * t^c d^d is t^(a+c) d^(b+d) with
factor 1 in either order, so a commutator of TensorAlg keys needs only the
k != 0 terms of each order:

    [A x u, B x v] = (AB)' x uv - (BA)' x vu + t^(a+c) d^(b+d) x (uv - vu)

where A = t^a d^b, B = t^c d^d and ' drops the k = 0 term. (AB)' is empty
unless some d/dt_i of A meets a t_i of B, and the last term vanishes when
u = v or either word is empty, as for the field part of phi.

The isomorphism phi on generators:

    phi(t^b)  = t^b x 1
    phi(d2)   = d2 x 1 + 1 x d2
    phi(L_a)  = L_a x 1 + sum_r C(a+(1,1), r) t^r x L_(a-r)

where r runs over all of Z_+^2 with the residual index a - r kept only when
it lies in Z^2_{>=-1} with |a - r| >= 0. The r = 0 term (1 x L_a) and, for
a = 0, the terms forced by phi(d_i) are therefore present; residuals of
degree -1 are excluded because the constant fields live in the first tensor
factor only. The homomorphism sweep in the suite is what validates this
reading of the summation range.
"""

from __future__ import annotations

import math

from .base import (
    LinComb,
    MultiIndex,
    Poly2,
    bilinear,
    binom2,
    in_phi,
    is_nonneg,
    linear,
    madd,
    msub,
    mtotal,
    run_memo,
    terms_str,
)
from .enveloping import UEnv, Word, _nf, word_str
from .lie import (
    D2,
    L_letter,
    Sbar,
    VectorField,
    apply_to_poly,
    l_basis,
    letter_alpha,
    letter_degree,
    sbar_bracket,
    sbar_to_vf,
)

WeylKey = tuple[MultiIndex, MultiIndex]  # (t exponents, d/dt exponents)


def _weyl_key_mul(k1: WeylKey, k2: WeylKey):
    """Terms of t^a d^b * t^c d^d. The first is always the k = (0, 0) term
    t^(a+c) d^(b+d) with factor 1, and more follow only when b_i and c_i are
    both nonzero for some i; ``_tensor_key_bracket`` relies on both."""
    (a, b), (c, d) = k1, k2
    out = []
    for k0 in range(min(b[0], c[0]) + 1):
        f0 = math.comb(b[0], k0) * math.comb(c[0], k0) * math.factorial(k0)
        for k1_ in range(min(b[1], c[1]) + 1):
            f = f0 * math.comb(b[1], k1_) * math.comb(c[1], k1_) * math.factorial(k1_)
            k = (k0, k1_)
            out.append(((madd(a, msub(c, k)), madd(msub(b, k), d)), f))
    return out


class Weyl(LinComb):
    """Normally ordered differential operator with polynomial coefficients."""

    unit_key: WeylKey = ((0, 0), (0, 0))

    def _key_mul(self, k1, k2):
        return _weyl_key_mul(k1, k2)

    @classmethod
    def monomial(cls, t_exp: MultiIndex, d_exp: MultiIndex, c=1) -> "Weyl":
        if not (is_nonneg(t_exp) and is_nonneg(d_exp)):
            raise ValueError("Weyl exponents must be nonnegative")
        return cls({(t_exp, d_exp): c})

    @classmethod
    def partial(cls, i: int) -> "Weyl":
        return cls.monomial((0, 0), (1, 0) if i == 1 else (0, 1))

    @classmethod
    def from_poly(cls, p: Poly2) -> "Weyl":
        return cls({(exp, (0, 0)): c for exp, c in p.terms.items()})

    @classmethod
    def from_vf(cls, x: VectorField) -> "Weyl":
        return cls({(exp, (1, 0) if i == 1 else (0, 1)): c for (exp, i), c in x.terms.items()})

    def __str__(self):
        return terms_str((_weyl_key_str(key), self.terms[key]) for key in sorted(self.terms))


def _weyl_key_str(key: WeylKey) -> str:
    te, de = key
    parts = (Poly2.monomial(te).to_str(), Poly2.monomial(de).to_str("p1", "p2"))
    return "*".join(p for p in parts if p != "1") or "1"


TensorKey = tuple[WeylKey, Word]


class TensorAlg(LinComb):
    """Element of (Weyl algebra) x U(nonnegative part); the second factor is
    a PBW word over letters of degree >= 0."""

    unit_key: TensorKey = (((0, 0), (0, 0)), ())

    def _key_mul(self, k1: TensorKey, k2: TensorKey):
        (w1, u1), (w2, u2) = k1, k2
        out = []
        env = _nf(u1 + u2)
        for wk, wf in _weyl_key_mul(w1, w2):
            for word, uf in env.items():
                out.append(((wk, word), wf * uf))
        return out

    def bracket(self, other: "TensorAlg") -> "TensorAlg":
        """The commutator self * other - other * self."""
        return bilinear(self, other, _tensor_key_bracket, TensorAlg._adopt)

    @classmethod
    def from_weyl(cls, x: Weyl) -> "TensorAlg":
        return cls({(k, ()): c for k, c in x.terms.items()})

    @classmethod
    def from_env(cls, u: UEnv) -> "TensorAlg":
        for word in u.terms:
            for letter in word:
                if letter_degree(letter) < 0:
                    raise ValueError("second tensor factor admits only letters of degree >= 0")
        return cls({(cls.unit_key[0], w): c for w, c in u.terms.items()})

    def __str__(self):
        return terms_str(
            (f"{_weyl_key_str(wk)} (x) {word_str(word)}", self.terms[(wk, word)])
            for wk, word in sorted(self.terms)
        )


def _tensor_key_bracket(k1: TensorKey, k2: TensorKey):
    """[A x u, B x v] as in the module docstring, without the k = 0 terms that cancel."""
    (w1, u1), (w2, u2) = k1, k2
    (a, b), (c, d) = w1, w2
    uv = _nf(u1 + u2)
    out = []
    if u1 == u2 or not (u1 and u2):
        vu = uv
    else:
        vu = _nf(u2 + u1)
        head = (madd(a, c), madd(b, d))
        out += [((head, word), x) for word, x in uv.items()]
        out += [((head, word), -x) for word, x in vu.items()]
    # a product has k != 0 terms only where some d/dt_i meets a t_i
    if b[0] and c[0] or b[1] and c[1]:
        out += [((wk, word), wf * x) for wk, wf in _weyl_key_mul(w1, w2)[1:] for word, x in uv.items()]
    if d[0] and a[0] or d[1] and a[1]:
        out += [((wk, word), -wf * x) for wk, wf in _weyl_key_mul(w2, w1)[1:] for word, x in vu.items()]
    return out


def phi_poly(p: Poly2) -> TensorAlg:
    """phi of a polynomial in t1, t2: p x 1."""
    return TensorAlg.from_weyl(Weyl.from_poly(p))


def phi_d2() -> TensorAlg:
    return TensorAlg.from_weyl(Weyl.from_vf(VectorField.euler(2))) + TensorAlg.from_env(UEnv.d2())


def phi_L(alpha: MultiIndex) -> TensorAlg:
    """phi of L_alpha under the documented summation convention."""
    if not in_phi(alpha):
        raise ValueError(f"index {alpha} outside the L-index set")
    terms = {(wk, ()): c for wk, c in Weyl.from_vf(l_basis(alpha)).items()}
    top = madd(alpha, (1, 1))
    for r0 in range(0, top[0] + 1):
        for r1 in range(0, top[1] + 1):
            r = (r0, r1)
            res = msub(alpha, r)
            if mtotal(res) < 0 or res == (-1, -1):
                continue
            terms[((r, (0, 0)), (L_letter(res),))] = binom2(top, r)
    return TensorAlg(terms)


def phi_letter(letter) -> TensorAlg:
    """phi of one basis letter, d2 or some L_a."""
    return phi_d2() if letter == D2 else phi_L(letter_alpha(letter))


_phi_letter = run_memo(phi_letter)


def phi_sbar(x: Sbar) -> TensorAlg:
    return linear(x.items(), _phi_letter, TensorAlg._adopt)


def phi_hom_check(x, y) -> TensorAlg:
    """Homomorphism discrepancy for a generator pair; zero iff compatible.

    Lie pair: phi([x,y]) - [phi(x), phi(y)]. Mixed pair: phi(x(t^b)) -
    [phi(x), phi(t^b)] with x acting as a derivation. Polynomial pair:
    phi(pq) - phi(p) phi(q).
    """
    if isinstance(x, Sbar) and isinstance(y, Sbar):
        lhs = phi_sbar(sbar_bracket(x, y))
        fx, fy = phi_sbar(x), phi_sbar(y)
        return lhs - fx.bracket(fy)
    if isinstance(x, Sbar) and isinstance(y, Poly2):
        lhs = phi_poly(apply_to_poly(sbar_to_vf(x), y))
        fx, fy = phi_sbar(x), phi_poly(y)
        return lhs - fx.bracket(fy)
    if isinstance(x, Poly2) and isinstance(y, Sbar):
        return -phi_hom_check(y, x)
    if isinstance(x, Poly2) and isinstance(y, Poly2):
        return phi_poly(x * y) - phi_poly(x) * phi_poly(y)
    raise TypeError("generators must be polynomial or Lie elements")
