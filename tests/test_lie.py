import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbar2lab import lie
from sbar2lab.base import Poly2
from sbar2lab.lie import (
    D2,
    L_letter,
    NilpotencyGuardError,
    Sbar,
    VectorField,
    apply_to_poly,
    divergence,
    l_basis,
    l_indices,
    letter_degree,
    sbar_bracket,
    sbar_to_vf,
    scaling_twist,
    unipotent_twist,
    vf_bracket,
    vf_to_sbar,
)
from sbar2lab.report import FAIL
from sbar2lab.suites import run_suite


def letters_up_to(deg, low=-1):
    out = [D2]
    for a1 in range(-1, deg + 2):
        for a2 in range(-1, deg + 2):
            if (a1, a2) != (-1, -1) and low <= a1 + a2 <= deg:
                out.append(L_letter((a1, a2)))
    return out


def test_l_basis_displays():
    assert l_basis((1, -1)) == VectorField.monomial((1, 0), 2, -2)
    assert l_basis((-1, 0)) == VectorField.partial(1)
    assert l_basis((0, -1)) == VectorField.partial(2) * -1
    assert l_basis((0, 0)) == VectorField.euler(1) - VectorField.euler(2)
    with pytest.raises(ValueError):
        l_basis((-1, -1))
    with pytest.raises(ValueError):
        l_basis((-2, 0))


def test_vf_bracket_examples():
    assert vf_bracket(VectorField.partial(1), VectorField.partial(2)).is_zero()
    x = VectorField.monomial((1, 0), 2)  # t1 p2
    y = VectorField.monomial((0, 1), 1)  # t2 p1
    assert vf_bracket(x, y) == VectorField.euler(1) - VectorField.euler(2)
    d = sbar_to_vf(Sbar.d())
    assert vf_bracket(d, l_basis((2, 0))) == l_basis((2, 0)) * 2


def test_sbar_bracket_examples():
    assert sbar_bracket(Sbar.L((1, -1)), Sbar.L((-1, 1))) == Sbar.L((0, 0)) * -4
    x = Sbar.L((2, 1))
    assert sbar_bracket(x, x).is_zero()
    assert sbar_bracket(Sbar.L((-1, 0)), Sbar.L((1, 0))) == Sbar.L((0, 0)) * 2
    # indices summing to the corner: zero bracket although the determinant is not
    assert sbar_bracket(Sbar.L((-1, 0)), Sbar.L((0, -1))).is_zero()


def test_grading():
    d = Sbar.d()
    for letter in letters_up_to(6):
        if letter == D2:
            continue
        x = Sbar({letter: Fraction(1)})
        assert sbar_bracket(d, x) == x * letter_degree(letter)


def test_jacobi_window():
    letters = letters_up_to(2)
    for x, y, z in itertools.combinations(letters, 3):
        sx, sy, sz = (Sbar({l: Fraction(1)}) for l in (x, y, z))
        total = (
            sbar_bracket(sx, sbar_bracket(sy, sz))
            + sbar_bracket(sy, sbar_bracket(sz, sx))
            + sbar_bracket(sz, sbar_bracket(sx, sy))
        )
        assert total.is_zero()


SBAR_ELEMENTS = st.dictionaries(
    st.sampled_from(letters_up_to(2)),
    st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    max_size=4,
).map(Sbar)


@settings(max_examples=100, deadline=None)
@given(SBAR_ELEMENTS, SBAR_ELEMENTS, SBAR_ELEMENTS)
def test_jacobi_on_random_combinations(x, y, z):
    # the jacobi suite checks trios of letters; bilinearity carries the
    # identity to combinations, on the structure constants and on the fields
    fx, fy, fz = (sbar_to_vf(e) for e in (x, y, z))
    for bracket, (p, q, r) in ((sbar_bracket, (x, y, z)), (vf_bracket, (fx, fy, fz))):
        total = bracket(p, bracket(q, r)) + bracket(q, bracket(r, p)) + bracket(r, bracket(p, q))
        assert total.is_zero(), bracket.__name__
    assert sbar_to_vf(sbar_bracket(x, sbar_bracket(y, z))) == vf_bracket(fx, vf_bracket(fy, fz))


def _flip_one(monkeypatch, name, k1, k2):
    """Patch ``lie.<name>``, a key bracket, to negate its value on (k1, k2) only."""
    real = getattr(lie, name)

    def flipped(x, y):
        out = real(x, y)
        return [(key, -c) for key, c in out] if (x, y) == (k1, k2) else out

    monkeypatch.setattr(lie, name, flipped)


@pytest.mark.parametrize(
    "name, k1, k2, route",
    [
        # [L(1,0), L(0,1)] = -3 L(1,1): one determinant
        ("letter_bracket", L_letter((1, 0)), L_letter((0, 1)), "letters"),
        # [t1^2 d1, t1 d1] = -t1^2 d1: one monomial bracket
        ("_vf_key_bracket", ((2, 0), 1), ((1, 0), 1), "fields"),
    ],
)
def test_jacobi_suite_fails_on_one_flipped_bracket(monkeypatch, name, k1, k2, route):
    # negative control: the suite computes each inner bracket once per case,
    # and a wrong one still fails its trios on its own route
    assert getattr(lie, name)(k1, k2)
    _flip_one(monkeypatch, name, k1, k2)
    failed = [case for case in run_suite("jacobi", 2).cases if case.status == FAIL]
    assert failed and all(case.witness["route"] == route for case in failed)


@pytest.mark.parametrize(
    "name, k1, k2",
    [
        # crosscheck brackets each letter pair once, in the order of the
        # letter list, which puts L(0,1) before L(1,0); the flip on
        # (L(1,0), L(0,1)) is caught by jacobi alone
        ("letter_bracket", L_letter((0, 1)), L_letter((1, 0))),
        # [t1 d1, t1^2 d1] = t1^2 d1, reached by the pair (L(0,0), L(1,0));
        # the flip on the other order is caught by jacobi alone
        ("_vf_key_bracket", ((1, 0), 1), ((2, 0), 1)),
    ],
)
def test_bracket_crosscheck_suite_fails_on_one_flipped_bracket(monkeypatch, name, k1, k2):
    # negative control: the suite brackets each letter once per case on both
    # routes, and one wrong key bracket on either route fails its pair
    assert getattr(lie, name)(k1, k2)
    _flip_one(monkeypatch, name, k1, k2)
    assert [case for case in run_suite("bracket-crosscheck", 1).cases if case.status == FAIL]


def test_bracket_crosscheck_window():
    letters = letters_up_to(2)
    for x, y in itertools.product(letters, repeat=2):
        sx, sy = Sbar({x: Fraction(1)}), Sbar({y: Fraction(1)})
        assert sbar_to_vf(sbar_bracket(sx, sy)) == vf_bracket(sbar_to_vf(sx), sbar_to_vf(sy))


def test_divergence_examples():
    assert divergence(l_basis((1, 0))).is_zero()
    assert divergence(sbar_to_vf(Sbar.d())) == Poly2.const(2)
    assert divergence(VectorField.monomial((2, 0), 1)) == Poly2.monomial((1, 0), 2)
    for letter in letters_up_to(6):
        if letter != D2:
            assert divergence(l_basis((letter[2], letter[3]))).is_zero()


def test_conversion_round_trip_and_rejection():
    rng = random.Random(2)
    letters = letters_up_to(3)
    for _ in range(25):
        x = Sbar({rng.choice(letters): Fraction(rng.randrange(-4, 5)) for _ in range(3)})
        assert vf_to_sbar(sbar_to_vf(x)) == x
    with pytest.raises(ValueError):
        vf_to_sbar(VectorField.monomial((2, 0), 1))  # divergence 2 t1
    with pytest.raises(ValueError):
        vf_to_sbar(VectorField.monomial((0, 2), 2))


ROUND_TRIP_ELEMENTS = st.dictionaries(
    st.sampled_from(letters_up_to(5)),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    max_size=8,
).map(Sbar)


@settings(max_examples=100, deadline=None)
@given(ROUND_TRIP_ELEMENTS)
def test_conversion_round_trips_on_random_combinations(x):
    # bracket-crosscheck converts brackets of several letters back with
    # vf_to_sbar, so the round trip is checked on wide combinations too
    assert vf_to_sbar(sbar_to_vf(x)) == x


def test_scaling_twist_examples():
    a = (Fraction(2), Fraction(3))
    for i in (1, 2):
        assert scaling_twist(a, VectorField.partial(i)) == VectorField.partial(i) * a[i - 1]
        assert scaling_twist(a, VectorField.euler(i)) == VectorField.euler(i)
    assert scaling_twist(a, l_basis((1, -1))) == VectorField.monomial((1, 0), 2, Fraction(-3))
    with pytest.raises(ValueError):
        scaling_twist((0, 1), VectorField.partial(1))


def test_scaling_twist_stays_exact_with_int_factors():
    # the factor a_j a1^(-b1) a2^(-b2) is a quotient, never a negative int power
    got = scaling_twist((2, 3), l_basis((1, -1)))
    assert got == l_basis((1, -1)) * Fraction(3, 2)
    assert got.terms == {((1, 0), 2): -3} and all(type(c) is int for c in got.terms.values())
    got = scaling_twist((2, 3), VectorField.monomial((0, 1), 1))
    assert got.terms == {((0, 1), 1): Fraction(2, 3)} and all(type(c) is Fraction for c in got.terms.values())


def test_unipotent_twist_examples():
    c = Fraction(-1)
    assert unipotent_twist(c, VectorField.partial(1)) == VectorField.partial(1)
    assert unipotent_twist(c, VectorField.partial(2)) == VectorField.partial(2) + VectorField.partial(1)
    assert unipotent_twist(c, VectorField.euler(2)) == VectorField.euler(2) + VectorField.monomial((0, 1), 1)


def test_unipotent_twist_guard_raises_the_nilpotency_error(monkeypatch):
    # every iteration guard raises one type: with a cap of 1 the shear series
    # of d/dt_2, which needs one bracket, exceeds it
    monkeypatch.setattr(lie, "_AD_CAP", 1)
    with pytest.raises(NilpotencyGuardError):
        unipotent_twist(-1, VectorField.partial(2))


@pytest.mark.parametrize("twist,inverse", [
    (lambda v: scaling_twist((Fraction(2), Fraction(3)), v),
     lambda v: scaling_twist((Fraction(1, 2), Fraction(1, 3)), v)),
    (lambda v: unipotent_twist(Fraction(-1), v),
     lambda v: unipotent_twist(Fraction(1), v)),
])
def test_twists_are_automorphisms(twist, inverse):
    letters = letters_up_to(2)
    for x, y in itertools.combinations(letters, 2):
        vx, vy = sbar_to_vf(Sbar({x: Fraction(1)})), sbar_to_vf(Sbar({y: Fraction(1)}))
        assert twist(vf_bracket(vx, vy)) == vf_bracket(twist(vx), twist(vy))
        assert inverse(twist(vx)) == vx


def test_derivation_action():
    # L_(0,0) = t1 p1 - t2 p2 acting on t1^2 t2
    q = Poly2.monomial((2, 1))
    assert apply_to_poly(l_basis((0, 0)), q) == Poly2.monomial((2, 1), 1)
    assert apply_to_poly(VectorField.partial(1), Poly2.monomial((1, 0))) == Poly2.one()


def test_l_indices_is_the_filtered_grid_in_degree_order():
    for lo in range(-1, 7):
        for hi in range(-1, 7):
            brute = [
                (a1, a2)
                for a1 in range(-1, hi + 2)
                for a2 in range(-1, hi + 2)
                if (a1, a2) != (-1, -1) and max(lo, -1) <= a1 + a2 <= hi
            ]
            assert l_indices(lo, hi) == sorted(brute, key=lambda a: (a[0] + a[1], a[0])), (lo, hi)
    assert l_indices(-5, -1) == [(-1, 0), (0, -1)]
    assert l_indices(3, 2) == []
