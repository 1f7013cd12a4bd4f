import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbar2lab import enveloping
from sbar2lab.base import accumulate
from sbar2lab.enveloping import (
    Loc,
    Q1,
    UEnv,
    _ad_partial,
    _nf,
    _partials_past_word,
    _q1_partial,
    _q1_word,
    q1_act,
    reduce_mod_I1,
    split_tail_partials,
)
from sbar2lab.gl2 import Gl2Module
from sbar2lab.lie import D2, L_letter, P1_LETTER, P2_LETTER, letter_bracket
from sbar2lab.linalg import EchelonSpan
from sbar2lab.tmodule import act_loc, act_partial, act_word, random_seed_vector
from oracles import loc_act_by_term, pbw_normalize, power

LETTERS = [D2] + [
    L_letter((a1, a2))
    for a1 in range(-1, 5)
    for a2 in range(-1, 5)
    if (a1, a2) != (-1, -1) and -1 <= a1 + a2 <= 3
]


def rand_uenv(rng, max_len=3):
    out = UEnv()
    for _ in range(rng.randrange(1, 3)):
        seq = tuple(rng.choice(LETTERS) for _ in range(rng.randrange(0, max_len + 1)))
        out = out + pbw_normalize(seq, rng.randrange(-3, 4))
    return out


def test_pbw_examples():
    got = pbw_normalize([P1_LETTER, L_letter((1, 0))])
    expect = UEnv({(L_letter((1, 0)), P1_LETTER): Fraction(1), (L_letter((0, 0)),): Fraction(2)})
    assert got == expect

    assert pbw_normalize([D2, D2]) == UEnv({(D2, D2): Fraction(1)})

    got = pbw_normalize([L_letter((1, 0)), L_letter((0, 1))])
    expect = UEnv(
        {
            (L_letter((0, 1)), L_letter((1, 0))): Fraction(1),
            (L_letter((1, 1)),): Fraction(-3),
        }
    )
    assert got == expect


def pbw_normalize_schedule(seq, rng) -> UEnv:
    """Like pbw_normalize but resolving pairs in an rng-chosen order.

    Independent of the memoized engine, so it is an oracle for confluence.
    """
    pending = [(tuple(seq), 1)]
    done: dict = {}
    while pending:
        word, coeff = pending.pop(rng.randrange(len(pending)))
        bad = [i for i in range(len(word) - 1) if word[i] > word[i + 1]]
        if not bad:
            accumulate(done, word, coeff)
            continue
        i = bad[rng.randrange(len(bad))]
        x, y = word[i], word[i + 1]
        pending.append((word[:i] + (y, x) + word[i + 2:], coeff))
        for letter, k in letter_bracket(x, y):
            pending.append((word[:i] + (letter,) + word[i + 2:], coeff * k))
    return UEnv(done)


def test_diamond_property():
    rng = random.Random(42)
    for _ in range(150):
        seq = [rng.choice(LETTERS) for _ in range(rng.randrange(1, 6))]
        assert pbw_normalize(seq) == pbw_normalize_schedule(seq, rng)


def test_u_mul():
    rng = random.Random(9)
    x = rand_uenv(rng)
    assert UEnv.one() * x == x
    # p1 d1 = d1 p1 + p1 in the letter basis
    got = UEnv.partial(1) * UEnv.d1()
    expect = UEnv.d1() * UEnv.partial(1) + UEnv.partial(1)
    assert got == expect
    single = UEnv.L((0, 0))
    assert single * single == UEnv({(L_letter((0, 0)), L_letter((0, 0))): Fraction(1)})
    for _ in range(25):
        x, y, z = rand_uenv(rng), rand_uenv(rng), rand_uenv(rng)
        assert (x * y) * z == x * (y * z)


def test_split_tail():
    word = (D2, L_letter((1, 0)), P1_LETTER, P2_LETTER, P2_LETTER)
    head, m1, m2, sign = split_tail_partials(word)
    assert head == (D2, L_letter((1, 0)))
    assert (m1, m2, sign) == (1, 2, 1)
    assert split_tail_partials((P2_LETTER,))[3] == -1


def test_loc_examples():
    assert Loc.partial(1, -1) * Loc.partial(1) == Loc.one()
    assert Loc.partial(1) * Loc.partial(1, -1) == Loc.one()
    got = Loc.partial(1, -1) * Loc.from_uenv(UEnv.L((1, 0)))
    expect = Loc(
        {
            ((L_letter((1, 0)),), (-1, 0)): Fraction(1),
            ((L_letter((0, 0)),), (-2, 0)): Fraction(-2),
            ((), (-2, 0)): Fraction(2),
        }
    )
    assert got == expect
    assert Loc.partial(1, -1) * Loc.partial(2, -1) == Loc({((), (-1, -1)): Fraction(1)})


def test_loc_agrees_with_uenv_and_associates():
    rng = random.Random(4)
    for _ in range(25):
        x, y = rand_uenv(rng), rand_uenv(rng)
        assert Loc.from_uenv(x * y) == Loc.from_uenv(x) * Loc.from_uenv(y)
    for _ in range(12):
        xs = [
            Loc.from_uenv(rand_uenv(rng, 2)) * Loc.partial(1, rng.randrange(-2, 3))
            for _ in range(3)
        ]
        assert (xs[0] * xs[1]) * xs[2] == xs[0] * (xs[1] * xs[2])


def loc_to_uenv(x: Loc) -> UEnv:
    """Inverse of ``Loc.from_uenv`` on elements without negative powers of
    the constant fields: each key's head word followed by p1^m1 p2^m2, with
    the sign of p2 = -L(0,-1)."""
    out: dict = {}
    for (head, (m1, m2)), c in x.terms.items():
        if m1 < 0 or m2 < 0:
            raise ValueError("element has negative constant-field exponents")
        accumulate(out, head + (P1_LETTER,) * m1 + (P2_LETTER,) * m2, (-1) ** m2 * c)
    return UEnv(out)


def test_loc_round_trip():
    rng = random.Random(8)
    for _ in range(20):
        x = rand_uenv(rng)
        assert loc_to_uenv(Loc.from_uenv(x)) == x
    with pytest.raises(ValueError):
        loc_to_uenv(Loc.partial(1, -1))


def test_reduce_examples():
    assert reduce_mod_I1(UEnv.partial(1)) == Q1.cyclic()
    got = reduce_mod_I1(UEnv.partial(1) * UEnv.d1())
    expect = reduce_mod_I1(UEnv.d1()) + Q1.cyclic()
    assert got == expect
    assert reduce_mod_I1(UEnv.L((1, -1))) == Q1({(L_letter((1, -1)),): Fraction(1)})


def test_q1_action_examples():
    v1 = Q1.cyclic()
    assert q1_act(UEnv.partial(1) - UEnv.one(), v1).is_zero()
    d1v = q1_act(UEnv.d1(), v1)
    assert q1_act(UEnv.partial(1), d1v) == d1v + v1
    assert q1_act(Loc.partial(1, -1), v1) == v1
    # inverse really inverts on the module
    w = q1_act(UEnv.d2(), d1v)
    assert q1_act(Loc.partial(2, -1), q1_act(UEnv.partial(2), w)) == w


def test_q1_freeness_window():
    span = EchelonSpan()
    count = 0
    for m1 in range(7):
        for m2 in range(7 - m1):
            q = reduce_mod_I1(power(UEnv.d1(), m1) * power(UEnv.d2(), m2))
            assert span.add(dict(q.terms)) is not None
            count += 1
    assert span.rank == count == 28


def test_filtration_compatibility():
    rng = random.Random(13)
    for _ in range(25):
        u, w = rand_uenv(rng), rand_uenv(rng)
        assert reduce_mod_I1(u * w) == q1_act(u, reduce_mod_I1(w))


PROPERTY = settings(max_examples=60, deadline=None)
HEAD_LETTERS = [letter for letter in LETTERS if letter not in (P1_LETTER, P2_LETTER)]


def letter_seqs(letters, max_len):
    return st.lists(st.sampled_from(letters), max_size=max_len).map(tuple)


@st.composite
def uenvs(draw, max_len=3):
    """A sum of one or two normalized letter sequences, constant fields included."""
    terms = draw(st.lists(st.tuples(letter_seqs(LETTERS, max_len), st.integers(-3, 3)), min_size=1, max_size=2))
    return sum((pbw_normalize(seq, c) for seq, c in terms), UEnv())


@st.composite
def locs(draw):
    exp = draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2)))
    return Loc.from_uenv(draw(uenvs(max_len=2))) * Loc({((), exp): 1})


@st.composite
def head_words(draw):
    """A PBW-normal word without constant-field letters, i.e. a Loc head."""
    return draw(st.sampled_from(sorted(_nf(draw(letter_seqs(HEAD_LETTERS, 3))))))


@PROPERTY
@given(uenvs(max_len=2), uenvs(max_len=2), uenvs(max_len=2))
def test_uenv_product_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


@settings(max_examples=25, deadline=None)
@given(locs(), locs(), locs())
def test_loc_product_associates(x, y, z):
    assert (x * y) * z == x * (y * z)


@PROPERTY
@given(st.sampled_from([1, 2]), uenvs())
def test_ad_partial_is_the_commutator(i, x):
    # the route through four products and a negation is the oracle
    p = UEnv.partial(i)
    assert _ad_partial(i, x) == p * x - x * p


@PROPERTY
@given(st.tuples(st.integers(0, 3), st.integers(0, 3)), head_words())
def test_partials_past_word_is_the_prefixed_normal_form(m, word):
    prefixed = (P1_LETTER,) * m[0] + (P2_LETTER,) * m[1] + word
    # p2 is minus the second degree -1 letter
    expect = Loc.from_uenv(UEnv(_nf(prefixed))) * (-1) ** m[1]
    assert Loc(_partials_past_word(m, word)) == expect


@PROPERTY
@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(lambda m: min(m) < 0), head_words())
def test_partials_past_word_round_trip(m, word):
    moved = Loc(_partials_past_word(m, word))
    assert Loc.partial(1, -m[0]) * Loc.partial(2, -m[1]) * moved == Loc({(word, (0, 0)): 1})


def test_partials_past_word_cost_does_not_grow_with_the_exponent(monkeypatch):
    # the ad chains read the one-word entries, so p^m past a word forms
    # [p_i, h] once per head h however large |m| is
    word = tuple(sorted(L_letter(a) for a in ((1, 1), (2, 1), (3, 0))))
    calls = []
    real = enveloping._ad_partial
    monkeypatch.setattr(enveloping, "_ad_partial", lambda i, x: calls.append(i) or real(i, x))
    counts = []
    for m in ((50, -3), (200, -3)):
        _partials_past_word.cache_clear()
        calls.clear()
        _partials_past_word(m, word)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
    # p^(200,-3) word is the m = (1, 0) entry applied term by term to p^(199,-3) word
    expect: dict = {}
    for (h, k), c in _partials_past_word((199, -3), word).items():
        for (head, a), cc in _partials_past_word((1, 0), h).items():
            accumulate(expect, (head, (a[0] + k[0], a[1] + k[1])), c * cc)
    assert _partials_past_word((200, -3), word) == expect


# short head words, each PBW-normal because it is sorted
ACTION_HEADS = [(), (D2,), (L_letter((0, 0)),), (L_letter((1, 0)),), (L_letter((-1, 1)),), (D2, L_letter((0, 1)))]


@st.composite
def shared_head_locs(draw):
    """A localized element in which every drawn head comes with every drawn
    exponent, at least one exponent negative, so terms share heads across
    exponents."""
    heads = draw(st.lists(st.sampled_from(ACTION_HEADS), min_size=1, max_size=2, unique=True))
    exps = draw(
        st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=3, unique=True).filter(
            lambda ms: any(min(m) < 0 for m in ms)
        )
    )
    keys = list(itertools.product(heads, exps))
    cs = draw(st.lists(st.integers(-3, 3).filter(bool), min_size=len(keys), max_size=len(keys)))
    return Loc(dict(zip(keys, cs)))


@settings(max_examples=40, deadline=None)
@given(shared_head_locs(), st.lists(st.tuples(st.sampled_from(ACTION_HEADS), st.integers(-3, 3)), min_size=1, max_size=3))
def test_q1_act_matches_the_term_by_term_oracle(x, vector_terms):
    # type (1, 1): both constant fields act as 1 plus a nilpotent part
    v = Q1(vector_terms)
    assert q1_act(x, v) == loc_act_by_term(x, v, _q1_partial, _q1_word, (1, 1))


@settings(max_examples=25, deadline=None)
@given(
    shared_head_locs(),
    st.sampled_from([(1, 1), (2, -1), (-1, 3)]),
    st.sampled_from([(0, 0), (1, 0)]),
    st.integers(0, 2**16),
)
def test_act_loc_matches_the_term_by_term_oracle(x, a, lam, seed):
    # a nonsingular type, so every negative power acts
    v = random_seed_vector(Gl2Module(lam), a, random.Random(seed))
    assert act_loc(x, v) == loc_act_by_term(x, v, act_partial, act_word, a)
