import itertools
import random
from fractions import Fraction

import pytest

from sbar2lab.base import accumulate, comb0
from sbar2lab.enveloping import Loc, UEnv
from sbar2lab.gl2 import gl2_simple
from sbar2lab.lie import D2, L_letter, Sbar, sbar_bracket
from sbar2lab.tmodule import (
    SigmaOp,
    TVector,
    act_letter,
    act_loc,
    act_partial,
    act_sbar,
    act_tensoralg,
    closure_probe,
    h_monomial_env,
    sigma_act,
    t_act,
    uh_freeness_check,
    whittaker_space,
)
from sbar2lab.weyl import phi_L


def basis(module, a, beta, k):
    return TVector.basis(module, a, beta, k)


def test_action_examples():
    m = gl2_simple((1, 0))
    w0 = basis(m, (1, 1), (0, 0), 0)
    w1 = basis(m, (1, 1), (0, 0), 1)
    assert act_partial(1, w0) == w0
    assert act_letter(D2, w0) == basis(m, (1, 1), (0, 1), 0)
    got = act_letter(L_letter((1, -1)), w1)
    expect = basis(m, (1, 1), (1, 0), 1) * -2 + w0 * -2
    assert got == expect


def test_action_dispatcher():
    m = gl2_simple((1, 0))
    w0 = basis(m, (1, 1), (0, 0), 0)
    assert t_act(Sbar.d2(), w0) == act_letter(D2, w0)
    assert t_act(UEnv.d2(), w0) == act_letter(D2, w0)
    assert t_act(Loc.partial(1, -1), w0) == w0
    with pytest.raises(TypeError):
        t_act(3, w0)


def test_derived_vectors_reuse_the_coerced_type_vector():
    m = gl2_simple((1, 0))
    w = TVector({((0, 0), 0): 1}, a=(Fraction(2), Fraction(1, 2)), module=m)
    assert w.a == (2, Fraction(1, 2)) and type(w.a[0]) is int
    # sums, scalings and actions copy a, they do not coerce it again
    for v in (w + w, -w, w * 3, act_letter(D2, w)):
        assert v.a is w.a and v.module is m
    with pytest.raises(TypeError):
        TVector({((0, 0), 0): 1}, a=(0.5, 1), module=m)


def test_localized_action_inverts():
    m = gl2_simple((2, 0))
    w = basis(m, (1, 2), (2, 1), 1) + basis(m, (1, 2), (0, 0), 0) * Fraction(3, 2)
    for i in (1, 2):
        assert act_loc(Loc.partial(i, -1), act_partial(i, w)) == w
        assert act_partial(i, act_loc(Loc.partial(i, -1), w)) == w
    singular = basis(m, (0, 1), (0, 0), 0)
    with pytest.raises(ValueError):
        act_loc(Loc.partial(1, -1), singular)


def test_module_axiom_window():
    letters = [D2] + [
        L_letter((a1, a2))
        for a1 in range(-1, 3)
        for a2 in range(-1, 3)
        if (a1, a2) != (-1, -1) and -1 <= a1 + a2 <= 1
    ]
    for lam, a in (((1, 0), (1, 1)), ((1, 1), (1, 0)), ((2, 0), (0, 0))):
        m = gl2_simple(lam)
        vecs = [
            basis(m, a, (b1, b2), k)
            for b1 in range(3)
            for b2 in range(3 - b1)
            for k in range(m.dim)
        ]
        for x, y in itertools.combinations(letters, 2):
            br = sbar_bracket(Sbar({x: Fraction(1)}), Sbar({y: Fraction(1)}))
            for w in vecs:
                lhs = act_letter(x, act_letter(y, w)) - act_letter(y, act_letter(x, w))
                assert lhs == act_sbar(br, w)


def test_display_matches_generator_images():
    indices = [
        (a1, a2)
        for a1 in range(-1, 4)
        for a2 in range(-1, 4)
        if (a1, a2) != (-1, -1) and -1 <= a1 + a2 <= 2
    ]
    for alpha in indices:
        el = phi_L(alpha)
        for lam, a in (((1, 0), (1, 1)), ((2, 0), (0, 0))):
            m = gl2_simple(lam)
            for beta in ((0, 0), (1, 2)):
                for k in range(m.dim):
                    w = basis(m, a, beta, k)
                    assert act_tensoralg(el, w) == act_letter(L_letter(alpha), w)


@pytest.mark.parametrize(
    "lam,expected",
    [((0, 0), 1), ((1, 0), 2), ((1, 1), 1), ((2, 0), 3), ((3, 1), 3)],
)
def test_whittaker_dims(lam, expected):
    m = gl2_simple(lam)
    for degree in range(0, 5):
        assert len(whittaker_space(m, (1, 1), degree)) == expected
    # singular type: plain derivatives force constants, same count
    assert len(whittaker_space(m, (0, 0), 3)) == expected


def test_whittaker_vectors_are_constants():
    m = gl2_simple((1, 0))
    for w in whittaker_space(m, (1, 1), 4):
        assert all(beta == (0, 0) for beta, _ in w.terms)


def test_degree_zero_action_on_whittaker_vectors_matches_gl2():
    # the constant component of a degree-zero letter acting on 1 x v_k is the
    # letter's gl_2 image applied to v_k
    from sbar2lab.gl2 import pi_letter

    for lam in ((1, 0), (2, 0), (3, 1)):
        m = gl2_simple(lam)
        for letter in (D2, L_letter((0, 0)), L_letter((1, -1)), L_letter((-1, 1))):
            mat = pi_letter(letter).evaluate(m)
            for k in range(m.dim):
                image = act_letter(letter, basis(m, (1, 1), (0, 0), k))
                constants = [image.coeff(((0, 0), j)) for j in range(m.dim)]
                assert constants == [mat[j][k] for j in range(m.dim)]


def test_freeness_examples():
    assert uh_freeness_check(gl2_simple((1, 0)), (1, 1), 3)["rank"] == 20
    report = uh_freeness_check(gl2_simple((1, 0)), (1, 1), 0)
    assert report["rank"] == 2
    report = uh_freeness_check(gl2_simple((1, 1)), (1, 1), 2)
    assert report["rank"] == 6 and report["full"]
    with pytest.raises(ValueError):
        uh_freeness_check(gl2_simple((1, 0)), (1, 0), 2)


def test_h_monomial_env():
    assert h_monomial_env((0, 0)) == UEnv.one()
    assert h_monomial_env((1, 1)) == UEnv.d1() * UEnv.d2()


def test_sigma_examples():
    m = gl2_simple((1, 0))
    w0 = basis(m, (0, 0), (0, 0), 0)
    got = sigma_act(SigmaOp(0, 1, (1, 0), (0, 1)), w0)
    expect = act_letter(L_letter((1, 0)), act_letter(L_letter((0, 1)), w0))
    assert got == expect
    got = sigma_act(SigmaOp(1, 1, (0, 0), (0, 0)), w0)
    assert got == basis(m, (0, 0), (1, 0), 0) * -2
    # terms hitting the corner index vanish
    assert sigma_act(SigmaOp(0, 2, (-1, -1), (0, 0)), w0).is_zero()
    with pytest.raises(ValueError):
        SigmaOp(-1, 1, (0, 0), (0, 0))
    with pytest.raises(ValueError):
        SigmaOp(1, 3, (0, 0), (0, 0))


def test_sigma_suite_dict_path_matches_sigma_act():
    # The sigma-annihilation suite does not call sigma_act: it sums the
    # alternating operator on dict vectors through a cache of act_letter
    # images of basis keys. That path is rebuilt here the same way and
    # compared with sigma_act on the suite's type vector and degree-2 slice.
    a = (0, 0)
    indices = [(-1, -1), (-1, 1), (0, 0), (1, -1), (2, 0)]
    for lam in ((1, 0), (2, -1)):
        module = gl2_simple(lam)
        keys = [((b1, b2), k) for b1 in range(3) for b2 in range(3 - b1) for k in range(module.dim)]
        cache: dict = {}

        def letter_on(letter, terms):
            out: dict = {}
            for key, c in terms.items():
                res = cache.get((letter, key))
                if res is None:
                    res = act_letter(letter, TVector({key: 1}, a=a, module=module)).terms
                    cache[(letter, key)] = res
                for k2, c2 in res.items():
                    accumulate(out, k2, c * c2)
            return out

        def suite_sum(op, key):
            ej = (1, 0) if op.j == 1 else (0, 1)
            total: dict = {}
            for i in range(op.m + 1):
                inner = (op.beta[0] + ej[0] * i, op.beta[1] + ej[1] * i)
                first = (op.alpha[0] + ej[0] * (op.m - i), op.alpha[1] + ej[1] * (op.m - i))
                if first == (-1, -1) or inner == (-1, -1):
                    continue
                piece = letter_on(L_letter(first), letter_on(L_letter(inner), {key: 1}))
                for k2, c2 in piece.items():
                    accumulate(total, k2, (-1) ** i * comb0(op.m, i) * c2)
            return total

        nonzero = 0
        for m, j, alpha, beta in itertools.product(range(3), (1, 2), indices, indices):
            op = SigmaOp(m, j, alpha, beta)
            for key in keys:
                got = sigma_act(op, TVector({key: 1}, a=a, module=module))
                assert suite_sum(op, key) == got.terms, (lam, op, key)
                nonzero += bool(got.terms)
        assert nonzero > 100  # the comparison is not between zeros


def test_closure_probe_profiles():
    m = gl2_simple((1, 0))
    seed = basis(m, (1, 1), (0, 0), 0) + basis(m, (1, 1), (0, 0), 1)
    report = closure_probe(m, (1, 1), seed, 5, 2)
    assert report["proper"] and not report["full"]
    assert report["table"] == {0: (1, 2), 1: (3, 6), 2: (6, 12), 3: (10, 20)}
    # a generic vector generates everything
    report = closure_probe(m, (1, 1), basis(m, (1, 1), (0, 0), 0), 5, 2)
    assert report["full"]
    with pytest.raises(ValueError):
        closure_probe(m, (1, 1), TVector.zero_of(m, (1, 1)), 4, 2)


def test_closure_probe_random_seed_simple_case():
    rng = random.Random(3)
    m = gl2_simple((1, 1))
    terms = {((b1, b2), 0): Fraction(rng.randrange(-2, 3)) for b1 in range(2) for b2 in range(2 - b1)}
    terms = {k: c for k, c in terms.items() if c} or {((0, 0), 0): Fraction(1)}
    report = closure_probe(m, (1, 1), TVector(terms, a=(1, 1), module=m), 5, 2)
    assert report["full"]
