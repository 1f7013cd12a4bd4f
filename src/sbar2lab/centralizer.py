"""The centralizer of the Cartan and constant fields inside the localization.

For each index a in Z^2_{>=-1} with |a| >= 0, a != 0 (``is_y_index``;
``y_indices`` lists them up to a degree), the element

    Y_a = L_a p^a
        + sum_(0 <= |b| < |a|, b != 0) (-1)^(|a-b|) C(a+1, b+1) L_b
              prod_(m=0..a1-b1-1)(d1 - m) prod_(m=0..a2-b2-1)(d2 - m) p^b
        + g_0(d1, d2)

commutes with p1, p2, d1, d2; the commutators are computed (not assumed) by
the localized product. Deleting the trailing p^b factors gives the
realization xi(Y_a) inside the nonnegative enveloping algebra, and pushing
that through the degree-zero identification (positive-degree letters to zero)
gives the operator image pi1(Y_a) on gl_2-modules.

The coefficient polynomials g_b satisfy two first-difference recurrences
(exercised as exact polynomial identities in the suite); a reversed product
range can only occur in a term whose scalar prefactor vanishes, and such
terms are skipped before the product is formed.
"""

from __future__ import annotations

import itertools

from .base import MultiIndex, Poly2, accumulate, binom2, linear, mtotal, run_memo
from .enveloping import Loc, Q1, UEnv, q1_act, reduce_mod_I1
from .gl2 import Gl2Poly, Matrix, gl2_simple, pi_env
from .lie import l_indices
from .linalg import EchelonSpan, solve
from .tmodule import act_loc, whittaker_space

#: generator indices in the fixed monomial order (|a|, a1, a2)
H_GENERATORS: tuple[MultiIndex, ...] = ((-1, 1), (1, -1), (0, 1), (1, 0))


def is_y_index(alpha: MultiIndex) -> bool:
    """a in Z^2_{>=-1} with |a| >= 0 and a != 0, the index set of the Y's."""
    return alpha[0] >= -1 and alpha[1] >= -1 and mtotal(alpha) >= 0 and alpha != (0, 0)


def y_indices(hi: int) -> list[MultiIndex]:
    """The Y-indices a with |a| <= hi, in (|a|, a1) order."""
    return [alpha for alpha in l_indices(0, hi) if alpha != (0, 0)]


def _check_y_index(alpha: MultiIndex) -> None:
    if not is_y_index(alpha):
        raise ValueError(f"index {alpha} outside the Y-element range")


@run_memo
def falling(i: int, lo: int, hi: int) -> Poly2:
    """prod_(m=lo..hi) (d_i - m), the empty or reversed range being 1; built
    from the product one factor shorter."""
    if hi < lo:
        return Poly2.one()
    return falling(i, lo, hi - 1) * (Poly2.variable(i) - Poly2.const(hi))


def g_poly(alpha: MultiIndex, beta: MultiIndex) -> Poly2:
    """Coefficient polynomial of L_b inside Y_a, for b != 0, 0 <= |b| <= |a|.

    At |b| = |a| this reduces to 1 for b = a and 0 otherwise, so the same
    expression covers the leading coefficient.
    """
    _check_y_index(alpha)
    if beta == (0, 0) or mtotal(beta) < 0 or mtotal(beta) > mtotal(alpha):
        raise ValueError(f"index {beta} out of range for {alpha}")
    c = binom2((alpha[0] + 1, alpha[1] + 1), (beta[0] + 1, beta[1] + 1))
    if not c:
        return Poly2()
    sign = (-1) ** (mtotal(alpha) - mtotal(beta))
    p = falling(1, 0, alpha[0] - beta[0] - 1) * falling(2, 0, alpha[1] - beta[1] - 1)
    return p * (sign * c)


def g0_poly(alpha: MultiIndex) -> Poly2:
    """The constant-letter tail of Y_a (a polynomial in d1, d2)."""
    _check_y_index(alpha)
    sign = (-1) ** mtotal(alpha)
    out = Poly2()
    c1 = alpha[0] * (alpha[1] + 1)
    if c1:
        p = falling(1, -1, alpha[0] - 1) * falling(2, 0, alpha[1] - 1)
        out = out + p * (sign * c1)
    c2 = (alpha[0] + 1) * alpha[1]
    if c2:
        p = falling(1, 0, alpha[0] - 1) * falling(2, -1, alpha[1] - 1)
        out = out + p * (-sign * c2)
    return out


@run_memo
def d_monomial(exp: MultiIndex) -> UEnv:
    """d1^i d2^j, built from the next lower monomial."""
    i, j = exp
    if j:
        return d_monomial((i, j - 1)) * UEnv.d2()
    return d_monomial((i - 1, 0)) * UEnv.d1() if i else UEnv.one()


def dpoly_to_uenv(p: Poly2) -> UEnv:
    """Expand a polynomial in d1, d2 through the letter basis; each monomial
    d1^i d2^j is built once per run."""
    return linear(p.items(), d_monomial, UEnv._adopt)


def _beta_range(alpha: MultiIndex) -> list[MultiIndex]:
    """The Y-indices b with |b| < |a| inside the binomial support, which
    bounds b_i <= a_i + 1 componentwise."""
    return [b for b in y_indices(mtotal(alpha) - 1) if b[0] <= alpha[0] + 1 and b[1] <= alpha[1] + 1]


def y_terms(alpha: MultiIndex) -> list[tuple[UEnv, MultiIndex]]:
    """The displayed terms of Y_a as (head in the enveloping algebra, trailing
    p-exponent) pairs; dropping the exponents yields xi(Y_a)."""
    _check_y_index(alpha)
    terms: list[tuple[UEnv, MultiIndex]] = [(UEnv.L(alpha), alpha)]
    for beta in _beta_range(alpha):
        g = g_poly(alpha, beta)
        if g.is_zero():
            continue
        terms.append((UEnv.L(beta) * dpoly_to_uenv(g), beta))
    g0 = g0_poly(alpha)
    if not g0.is_zero():
        terms.append((dpoly_to_uenv(g0), (0, 0)))
    return terms


@run_memo
def y_element(alpha: MultiIndex) -> Loc:
    out: dict = {}
    for env, beta in y_terms(alpha):
        for word, c in env.terms.items():
            accumulate(out, (word, beta), c)
    return Loc(out)


@run_memo
def xi_y(alpha: MultiIndex) -> UEnv:
    """Y_a with its trailing p-exponents deleted."""
    return linear(y_element(alpha).items(), lambda key: {key[0]: 1}, UEnv._adopt)


def centralizer_check(alpha: MultiIndex) -> dict[str, Loc]:
    """All four commutators [x, Y_a] for x in {p1, p2, d1, d2}; membership in
    the centralizer holds iff each is zero."""
    y = y_element(alpha)
    probes = {
        "p1": Loc.partial(1),
        "p2": Loc.partial(2),
        "d1": Loc.from_uenv(UEnv.d1()),
        "d2": Loc.from_uenv(UEnv.d2()),
    }
    return {name: x * y - y * x for name, x in probes.items()}


def xi_q1_consistency(alpha: MultiIndex) -> tuple[Q1, Q1]:
    """Both routes from Y_a to its action on the cyclic vector: through the
    localization and through xi; equal by construction of xi."""
    via_y = q1_act(y_element(alpha), Q1.cyclic())
    via_xi = reduce_mod_I1(xi_y(alpha))
    return via_y, via_xi


def whittaker_stability_defect(alpha: MultiIndex) -> tuple[Q1, Q1]:
    """(p_i - 1) applied to xi(Y_a) v; both must vanish for the image to lie
    in the Whittaker-invariant subalgebra."""
    base = reduce_mod_I1(xi_y(alpha))
    return q1_act(UEnv.partial(1), base) - base, q1_act(UEnv.partial(2), base) - base


def pi1(alpha: MultiIndex) -> Gl2Poly:
    """Operator image of Y_a: the degree-zero truncation of xi(Y_a) pushed
    through the identification, in canonical form; ``Gl2Poly.evaluate``
    gives its matrix on a module."""
    return pi_env(xi_y(alpha)).normalized()


def wh_action_compare(alpha: MultiIndex, lam) -> tuple[Matrix, Matrix, bool]:
    """Matrix of Y_a on the Whittaker vectors of the type-1 tensor module
    versus the operator image on the module itself. On the degree-0 slice
    the Whittaker space is every constant vector 1 x v_k, in k order."""
    module = gl2_simple(lam)
    basis = whittaker_space(module, (1, 1), 0)
    y = y_element(alpha)
    cols = []
    for w in basis:
        image = act_loc(y, w)
        col = [0] * module.dim
        for (beta, k), c in image.terms.items():
            if beta != (0, 0):
                raise AssertionError("Y did not preserve the Whittaker space")
            col[k] = c
        cols.append(col)
    mat_y = tuple(tuple(cols[j][i] for j in range(module.dim)) for i in range(module.dim))
    mat_pi = pi1(alpha).evaluate(module)
    return mat_y, mat_pi, mat_y == mat_pi


def _ordered_monomials(indices: list[MultiIndex], max_len: int):
    """Non-decreasing index words up to the length cap, empty word included."""
    order = sorted(indices, key=lambda a: (mtotal(a), a[0], a[1]))
    return [word for n in range(max_len + 1) for word in itertools.combinations_with_replacement(order, n)]


def _word_value(values: dict, word: tuple[MultiIndex, ...]) -> Loc:
    """Y(w1) ... Y(wn) folded left: for n > 1, the value of its prefix times
    the value of its last index, both already in ``values``."""
    if len(word) > 1:
        return values[word[:-1]] * values[word[-1:]]
    return y_element(word[0]) if word else Loc.one()


def y_basis_probe(indices: list[MultiIndex], max_len: int) -> dict:
    """Exact rank of the ordered monomials in the given Y's inside the
    localization; full rank witnesses their independence."""
    words = _ordered_monomials(list(indices), max_len)
    values: dict = {}
    span = EchelonSpan()
    for word in words:
        value = _word_value(values, word)
        if len(word) < max_len:  # a longest word is no other word's prefix
            values[word] = value
        span.add(dict(value.terms))
    return {"count": len(words), "rank": span.rank, "full": span.rank == len(words)}


def y_generation_search(alpha: MultiIndex, max_len: int):
    """Exact linear solve for Y_a inside the span of words in the four
    generators, trying each length cap in turn. Returns the decomposition as
    a {word: coefficient} dict, or None when the bounded search is
    inconclusive.

    Generation is a statement about arbitrary products, so the search spans
    all words, not only the fixed-order monomials of the basis probes (the
    ordered monomials in the four generators alone provably miss Y_(1,1)).
    """
    target = y_element(alpha)
    words: list[tuple[MultiIndex, ...]] = [()]
    values = {(): Loc.one()}
    for length in range(1, max_len + 1):
        new_words = list(itertools.product(H_GENERATORS, repeat=length))
        words.extend(new_words)
        for w in new_words:
            values[w] = _word_value(values, w)
        keys = sorted({k for v in values.values() for k in v.terms} | set(target.terms))
        columns = [[values[w].terms.get(k, 0) for k in keys] for w in words]
        rhs = [target.terms.get(k, 0) for k in keys]
        sol = solve(columns, rhs)
        if sol is not None:
            return {words[j]: sol[j] for j in range(len(words)) if sol[j]}
    return None
