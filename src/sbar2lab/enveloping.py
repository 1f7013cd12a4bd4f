"""PBW normal forms, the localization at the constant fields, and the
universal Whittaker module.

Words are flat non-decreasing tuples of letters under the order fixed in
``lie`` (d2, then L(a) with |a| >= 0 by (|a|, a1, a2), then the two degree -1
letters last). Putting the constant fields at the right end makes reduction
along the left ideal generated by (p1 - 1, p2 - 1) a pure tail substitution,
and lets localized elements store their p1/p2 powers as a separate integer
exponent pair.

The rewriting engine replaces an out-of-order adjacent pair xy by yx + [x,y];
every step either sorts a word or strictly shortens it, so it terminates, and
the memoized normal form is confluent (the diamond test compares randomized
rewrite schedules against it).

The localized product (h1 p^m)(h2 p^n) first rewrites p^m h2 as a sum of
head * p^k (``_partials_past_word``), then reads each term's h1 * head
straight off ``_nf`` with exponent k + n; it builds no intermediate element.
The (ad p_i)^k chains are built from one-word entries: the entry for p_i h
is the only place that sums the normal forms of P w and w P, and every ad
step reads it, as [p_i, h p^k] = [p_i, h] p^k. Each chain stops at the
binomial support of C(m_i, k): at k = m_i for m_i >= 0, and where the chain
vanishes for m_i < 0.
"""

from __future__ import annotations

from functools import cache

from .base import E1, E2, LinComb, MultiIndex, accumulate, gbinom, linear, qdiv, terms_str
from .lie import (
    _AD_CAP,
    PARTIALS,
    Letter,
    P1_LETTER,
    P2_LETTER,
    NilpotencyGuardError,
    Sbar,
    letter_bracket,
    letter_str,
)

Word = tuple[Letter, ...]


def pbw_engine(bracket, rank=None):
    """Memoized normal-form function for a letter set with the given bracket.

    ``rank`` maps each letter to its place in the PBW order; without it the
    letters' natural order is the PBW order. ``bracket`` returns
    [(letter, int coefficient)] for any letter pair.
    """

    @cache
    def nf(word: Word) -> dict:
        ranks = word if rank is None else [rank[letter] for letter in word]
        for i in range(len(word) - 1):
            if ranks[i] > ranks[i + 1]:
                x, y = word[i], word[i + 1]
                head, tail = word[:i], word[i + 2:]
                rewrite = [(head + (y, x) + tail, 1)] + [(head + (letter,) + tail, c) for letter, c in bracket(x, y)]
                return linear(rewrite, nf, dict)
        return {word: 1}

    return nf


_nf = pbw_engine(letter_bracket)


def word_str(word: Word) -> str:
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        s = letter_str(word[i])
        parts.append(s if j - i == 1 else f"{s}^{j - i}")
        i = j
    return "*".join(parts)


class UEnv(LinComb):
    """Enveloping-algebra element; keys are PBW-normal words."""

    unit_key: Word = ()

    def _key_mul(self, w1: Word, w2: Word):
        return _nf(w1 + w2).items()

    @classmethod
    def from_sbar(cls, x: Sbar) -> "UEnv":
        """The Lie element as one-letter words; its coefficients are already canonical."""
        return cls._adopt({(letter,): c for letter, c in x.items()})

    @classmethod
    def L(cls, alpha: MultiIndex) -> "UEnv":
        return cls.from_sbar(Sbar.L(alpha))

    @classmethod
    def d2(cls) -> "UEnv":
        return cls.from_sbar(Sbar.d2())

    @classmethod
    def d1(cls) -> "UEnv":
        return cls.from_sbar(Sbar.d1())

    @classmethod
    def partial(cls, i: int) -> "UEnv":
        """d/dt_i as an element, ``lie.PARTIALS[i]``."""
        return cls.from_sbar(PARTIALS[i])

    def __str__(self):
        return _sorted_str(self.terms, word_str)


def _sorted_str(terms: dict, key_str) -> str:
    return terms_str((key_str(key), terms[key]) for key in sorted(terms))


def split_tail_partials(word: Word) -> tuple[Word, int, int, int]:
    """Split a normal word into (head, m1, m2, sign).

    The word equals head * p1^m1 * p2^m2 times sign, where sign = (-1)^m2
    accounts for the second degree -1 letter being minus d/dt_2.
    """
    n = len(word)
    m2 = 0
    while n and word[n - 1] == P2_LETTER:
        m2 += 1
        n -= 1
    m1 = 0
    while n and word[n - 1] == P1_LETTER:
        m1 += 1
        n -= 1
    return word[:n], m1, m2, (-1) ** m2


LocKey = tuple[Word, MultiIndex]


class Loc(LinComb):
    """Localized element; keys are (head word without constant-field letters,
    integer exponent pair of p1/p2 on the right)."""

    unit_key: LocKey = ((), (0, 0))

    @classmethod
    def from_uenv(cls, x: UEnv) -> "Loc":
        out: dict = {}
        for word, c in x.terms.items():
            head, m1, m2, sign = split_tail_partials(word)
            accumulate(out, (head, (m1, m2)), sign * c)
        return cls._adopt(out)

    @classmethod
    def partial(cls, i: int, exp: int = 1) -> "Loc":
        return cls({((), (exp, 0) if i == 1 else (0, exp)): 1})

    def _key_mul(self, k1: LocKey, k2: LocKey):
        (h1, m1), (h2, m2) = k1, k2
        out = []
        for (head, mid), c in _partials_past_word(m1, h2).items():
            exp = (mid[0] + m2[0], mid[1] + m2[1])
            for word, cc in _nf(h1 + head).items():
                out.append(((word, exp), c * cc))
        return out

    def __str__(self):
        def key_str(key):
            head, (m1, m2) = key
            parts = []
            if head:
                parts.append(word_str(head))
            if m1:
                parts.append("p1" if m1 == 1 else f"p1^{m1}")
            if m2:
                parts.append("p2" if m2 == 1 else f"p2^{m2}")
            return "*".join(parts) if parts else "1"

        return _sorted_str(self.terms, key_str)


def _ad_partial(i: int, x: UEnv) -> UEnv:
    """[d/dt_i, x] in the enveloping algebra: p w - w p summed word by word
    over the normal forms, with p = ``UEnv.partial(i)``."""
    p, terms = UEnv.partial(i).terms.items(), x.terms.items()
    return linear(
        [(q + w, s * c) for q, s in p for w, c in terms] + [(w + q, -s * c) for q, s in p for w, c in terms],
        _nf,
        UEnv._adopt,
    )


def _ad_chain(i: int, x: dict, m: int) -> list[dict]:
    """(ad p_i)^k x for k = 0, 1, ... while C(m, k) can be nonzero: up to
    k = m for m >= 0, and for m < 0 until the chain vanishes, which it does
    because each ad step lowers total degree (guarded). x is a
    {(head, exponent): c} dict, and each step reads the one-word entries:
    [p_i, h p^k] = [p_i, h] p^k, where [p_i, h] is the entry for p_i h
    without its (h, e_i) term."""
    e = E1 if i == 1 else E2
    chain = [x]
    while m < 0 or len(chain) <= m:
        x = {}
        for (h, k), c in chain[-1].items():
            for (head, a), cc in _partials_past_word(e, h).items():
                if head != h or a != e:
                    accumulate(x, (head, (a[0] + k[0], a[1] + k[1])), c * cc)
        if not x:
            break
        chain.append(x)
        if len(chain) > _AD_CAP:
            raise NilpotencyGuardError(f"ad p{i} chain failed to terminate")
    return chain


@cache
def _partials_past_word(m: MultiIndex, word: Word) -> dict:
    """Rewrite p^m * word as sum of head * p^k, i.e. commute the constant
    fields across a head word.

    The one-word entries, m = (1, 0) and (0, 1), hold p_i * word as
    (word, e_i) plus the split terms of [p_i, word]; they are the only
    callers of ``_ad_partial``. Every other m uses
    p_i^m u = sum_k C(m, k) (ad p_i)^k(u) p_i^(m-k), valid for negative m
    with generalized binomials, on ad chains built from those entries.
    """
    if m in (E1, E2):
        # a copy: the Loc owns its terms
        out = dict(Loc.from_uenv(_ad_partial(1 if m == E1 else 2, UEnv({word: 1}))).terms)
        accumulate(out, (word, m), 1)
        return out
    out: dict = {}
    for k1, u1 in enumerate(_ad_chain(1, {(word, (0, 0)): 1}, m[0])):
        b1 = gbinom(m[0], k1)
        for k2, u2 in enumerate(_ad_chain(2, u1, m[1])):
            b2 = gbinom(m[1], k2)
            for (head, a), c in u2.items():
                accumulate(out, (head, (m[0] - k1 + a[0], m[1] - k2 + a[1])), b1 * b2 * c)
    return out


class Q1(LinComb):
    """Residue class in the universal Whittaker module; keys are words
    without constant-field letters, acting on the cyclic vector."""

    @classmethod
    def cyclic(cls) -> "Q1":
        """The cyclic Whittaker vector itself."""
        return cls({(): 1})

    def lift(self) -> UEnv:
        return UEnv(dict(self.terms))

    def __str__(self):
        body = _sorted_str(self.terms, word_str)
        if len(self.terms) > 1:
            body = f"({body})"
        return body + " * v1"


def reduce_mod_I1(x: UEnv) -> Q1:
    """Normal form of x acting on the cyclic vector: both constant fields act
    by 1 at the right end of each word (the second letter with a sign per
    power), which leaves the heads of ``Loc.from_uenv(x)``, exponents dropped."""
    return linear(Loc.from_uenv(x).items(), lambda key: {key[0]: 1}, Q1._adopt)


def partial_inverse(i: int, v, partial, s):
    """p_i^(-1) v for a module on which p_i acts as the nonzero scalar ``s``
    plus a part that is nilpotent on v: the geometric series

        p_i^(-1) v = s^(-1) sum_n (-(p_i - s)/s)^n v,

    finite because p_i - s strictly lowers a filtration degree (guarded).
    ``partial(i, v)`` is the module's action of p_i."""
    inv = qdiv(1, s)
    term = v * inv
    total = term
    for _ in range(_AD_CAP):
        term = (partial(i, term) - term * s) * -inv
        if term.is_zero():
            return total
        total = total + term
    raise NilpotencyGuardError(f"p_{i} inverse series failed to terminate on the module")


def loc_act(x: Loc, v, partial, word_act, scalars):
    """Left action of a localized element on a module vector: the p2 then p1
    powers act first (negative powers through the inverse series), then the
    head word. The powers act once per exponent: every term with that
    exponent reads the same p^m v. ``partial(i, v)`` and ``word_act(word, v)``
    are the module's actions, and p_i acts as ``scalars[i - 1]`` plus a
    locally nilpotent part."""
    powered: dict = {}  # exponent m -> p^m v

    def image(key: LocKey):
        head, exp = key
        if exp not in powered:
            u = v
            for i, m in ((2, exp[1]), (1, exp[0])):
                for _ in range(abs(m)):
                    u = partial(i, u) if m > 0 else partial_inverse(i, u, partial, scalars[i - 1])
            powered[exp] = u
        return word_act(head, powered[exp])

    return linear(x.items(), image, v._new)


def _q1_partial(i: int, q: Q1) -> Q1:
    return reduce_mod_I1(UEnv.partial(i) * q.lift())


def _q1_word(word: Word, q: Q1) -> Q1:
    return reduce_mod_I1(UEnv({word: 1}) * q.lift())


def q1_act(x, q: Q1) -> Q1:
    """Left action of an enveloping or localized element on the module."""
    if isinstance(x, UEnv):
        return reduce_mod_I1(x * q.lift())
    if isinstance(x, Loc):
        return loc_act(x, q, _q1_partial, _q1_word, (1, 1))
    raise TypeError(f"cannot act with {type(x).__name__} on the module")
