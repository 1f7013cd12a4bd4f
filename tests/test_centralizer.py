import contextlib
import functools
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbar2lab import base, centralizer, suites
from sbar2lab.base import Poly2
from sbar2lab.centralizer import (
    H_GENERATORS,
    centralizer_check,
    dpoly_to_uenv,
    g0_poly,
    g_poly,
    is_y_index,
    pi1,
    wh_action_compare,
    whittaker_stability_defect,
    xi_q1_consistency,
    xi_y,
    y_basis_probe,
    y_element,
    y_generation_search,
    y_indices,
)
from sbar2lab.enveloping import Loc, UEnv
from sbar2lab.expr import eval_loc, parse_element
from sbar2lab.gl2 import Gl2Poly, gl2_simple
from sbar2lab.suites import run_suite
from oracles import power

Y_DISPLAYS = {
    (1, -1): "L(1,-1)*p1*p2^-1 + 2*d1",
    (-1, 1): "L(-1,1)*p2*p1^-1 - 2*d2",
    (1, 0): "L(1,0)*p1 - L(1,-1)*d2*p1*p2^-1 - d1^2 - d1",
    (0, 1): "L(0,1)*p2 - L(-1,1)*d1*p2*p1^-1 + d2^2 + d2",
}

XI_DISPLAYS = {
    (1, -1): "L(1,-1) + 2*d1",
    (-1, 1): "L(-1,1) - 2*d2",
    (1, 0): "L(1,0) - L(1,-1)*d2 - d1^2 - d1",
    (0, 1): "L(0,1) - L(-1,1)*d1 + d2^2 + d2",
}


def test_g_polynomials():
    # leading coefficient degenerates to 1 at the top index, 0 next to it
    assert g_poly((1, 0), (1, 0)) == Poly2.one()
    assert g_poly((2, 0), (1, 1)).is_zero()
    assert g_poly((1, 0), (1, -1)) == Poly2.variable(2) * -1
    assert g0_poly((1, 0)) == Poly2({(2, 0): -1, (1, 0): -1})
    assert g0_poly((0, 1)) == Poly2({(0, 2): 1, (0, 1): 1})
    with pytest.raises(ValueError):
        y_element((0, 0))
    with pytest.raises(ValueError):
        y_element((1, -2))


@pytest.mark.parametrize("alpha,text", sorted(Y_DISPLAYS.items()))
def test_y_displays(alpha, text):
    assert y_element(alpha) == eval_loc(parse_element(text))


@pytest.mark.parametrize("alpha,text", sorted(XI_DISPLAYS.items()))
def test_xi_displays(alpha, text):
    assert Loc.from_uenv(xi_y(alpha)) == eval_loc(parse_element(text))


def test_centralizer_window():
    for alpha in y_indices(3):
        for name, value in centralizer_check(alpha).items():
            assert value.is_zero(), (alpha, name)


def test_xi_consistency_and_whittaker_stability():
    for alpha in y_indices(3):
        via_y, via_xi = xi_q1_consistency(alpha)
        assert via_y == via_xi
        d1_, d2_ = whittaker_stability_defect(alpha)
        assert d1_.is_zero() and d2_.is_zero()


def test_y_indices_match_is_y_index():
    # brute force over a grid that holds the corner (-1,-1), the origin and
    # indices below Z^2_{>=-1}
    grid = [(a1, a2) for a1 in range(-3, 7) for a2 in range(-3, 7)]
    assert not is_y_index((-1, -1)) and not is_y_index((0, 0)) and is_y_index((-1, 1))
    for hi in range(-2, 5):
        expected = sorted(
            (a for a in grid if is_y_index(a) and a[0] + a[1] <= hi), key=lambda a: (a[0] + a[1], a[0])
        )
        assert y_indices(hi) == expected


def test_pi1_displays():
    G = Gl2Poly.gen
    expected = {
        (1, -1): G(1, 2) * -2 + G(1, 1) * 2,
        (-1, 1): G(2, 1) * 2 + G(2, 2) * -2,
        (1, 0): G(1, 2) * G(2, 2) * 2 - G(1, 1) * G(1, 1) - G(1, 1),
        (0, 1): G(2, 1) * G(1, 1) * -2 + G(2, 2) * G(2, 2) + G(2, 2),
    }
    for alpha, expect in expected.items():
        assert pi1(alpha) == expect.normalized()
    matrix = pi1((1, 0)).evaluate(gl2_simple((1, 0)))
    assert matrix == ((Fraction(-2), Fraction(2)), (Fraction(0), Fraction(0)))


def test_wh_action_compare():
    mat_y, mat_pi, equal = wh_action_compare((1, -1), (0, 0))
    assert equal and mat_y == ((Fraction(0),),)
    for alpha in H_GENERATORS:
        for lam in ((1, 0), (1, 1), (2, 0)):
            _, _, equal = wh_action_compare(alpha, lam)
            assert equal, (alpha, lam)


def test_y_commutes_with_the_localized_cartan():
    y = y_element((2, 1))
    for probe in (Loc.partial(1, -1), Loc.partial(2, -1), Loc.from_uenv(UEnv.d1())):
        assert (probe * y - y * probe).is_zero()


def test_y_basis_probe():
    report = y_basis_probe([(1, -1), (-1, 1)], 1)
    assert report == {"count": 3, "rank": 3, "full": True}
    assert y_basis_probe([], 2)["rank"] == 1  # the empty monomial alone
    report = y_basis_probe(y_indices(1), 2)
    assert report["full"] and report["count"] == 28


def test_y_generation_search():
    found = y_generation_search((1, -1), 1)
    assert found == {((1, -1),): Fraction(1)}
    found = y_generation_search((1, 1), 3)
    assert found is not None
    total = Loc()
    for word, c in found.items():
        total = total + functools.reduce(operator.mul, map(y_element, word), Loc.one()) * c
    assert total == y_element((1, 1))
    # bounded failure is reported as inconclusive, not an error
    assert y_generation_search((2, -1), 0) is None


def _count_y_builds(monkeypatch) -> list:
    builds = []
    build = centralizer.y_terms
    monkeypatch.setattr(centralizer, "y_terms", lambda alpha: builds.append(alpha) or build(alpha))
    return builds


@pytest.mark.parametrize("args,count", [(("pi1-compare",), 4), (("xi-whittaker", 3), 17), (("y-centralizer", 3), 17)])
def test_each_y_is_built_once_per_run(monkeypatch, args, count):
    builds = _count_y_builds(monkeypatch)
    assert run_suite(*args).failures == 0
    assert len(builds) == len(set(builds)) == count


@pytest.mark.parametrize("args,count", [(("pi1-compare",), 4), (("xi-whittaker", 3), 17)])
def test_each_xi_y_is_built_once_per_run(monkeypatch, args, count):
    # pi1 and both xi-whittaker checks read xi(Y_a) from the run memo
    builds = []
    build = centralizer.xi_y.__wrapped__
    monkeypatch.setattr(centralizer, "xi_y", base.run_memo(lambda alpha: builds.append(alpha) or build(alpha)))
    assert run_suite(*args).failures == 0
    assert len(builds) == len(set(builds)) == count


def test_no_memo_outlives_a_run(monkeypatch):
    builds = _count_y_builds(monkeypatch)
    run_suite("pi1-compare")
    assert base._scope_memo is None
    builds.clear()
    y_element((1, 0))
    y_element((1, 0))
    assert builds == [(1, 0), (1, 0)]

    def raising(_degree, _rng):
        y_element((1, 0))
        yield "boom", "", "", lambda: 1 / 0

    monkeypatch.setitem(suites.SUITES, "pi1-compare", (raising, 2))
    with pytest.raises(ZeroDivisionError):
        run_suite("pi1-compare")
    assert base._scope_memo is None


@settings(max_examples=30, deadline=None)
@given(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(-3, 3).filter(bool), max_size=4),
    st.booleans(),
)
def test_dpoly_to_uenv_is_the_sum_of_powered_monomials(terms, scoped):
    # inside a run scope the monomials are built once and shared, outside
    # every call builds them afresh; both must give the powers' sum
    expect = sum((power(UEnv.d1(), i) * power(UEnv.d2(), j) * c for (i, j), c in terms.items()), UEnv())
    with base.run_scope() if scoped else contextlib.nullcontext():
        assert dpoly_to_uenv(Poly2(terms)) == expect
        assert dpoly_to_uenv(Poly2(terms) * 2) == expect * 2
