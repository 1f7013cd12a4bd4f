import random
from fractions import Fraction

import pytest

from sbar2lab.base import Poly2
from sbar2lab.centralizer import y_element
from sbar2lab.enveloping import Loc, UEnv
from sbar2lab.expr import (
    ParseError,
    eval_loc,
    eval_phi,
    eval_seed,
    parse_element,
    print_element,
)
from sbar2lab.gl2 import Gl2Module
from sbar2lab.tmodule import TVector
from sbar2lab.weyl import phi_L, phi_d2, phi_poly


def test_parse_atoms():
    assert parse_element("L(1,-1)") == ("atom", "L", (1, -1))
    ast = parse_element("3/2*d1*p1^2 - Y(0,1)")
    assert ast[0] == "sum" and len(ast[1]) == 2
    assert ast[1][0][0] == 1 and ast[1][1][0] == -1
    assert parse_element("v2") == ("atom", "v", (2,))


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_element("L(-1,-1)")
    assert "L index" in str(err.value)
    with pytest.raises(ParseError):
        parse_element("Y(0,0)")
    with pytest.raises(ParseError):
        parse_element("t(-1,0)")
    with pytest.raises(ParseError):
        parse_element("L(1,0)^-2")
    with pytest.raises(ParseError) as err:
        parse_element("d1 + + d2")
    assert err.value.col > 1
    with pytest.raises(ParseError):
        parse_element("bogus(1)")
    with pytest.raises(ParseError):
        parse_element("d1 d2")


def _random_ast(rng, depth=0):
    choices = ["num", "atom", "neg", "pow", "mul", "sum"]
    kind = rng.choice(choices if depth < 3 else ["num", "atom"])
    if kind == "num":
        return ("num", Fraction(rng.randrange(0, 12), rng.randrange(1, 5)))
    if kind == "atom":
        name = rng.choice(["d1", "d2", "d", "p1", "p2", "t1", "t2"])
        return ("atom", name, ())
    if kind == "neg":
        return ("neg", _random_ast(rng, depth + 1))
    if kind == "pow":
        return ("pow", ("atom", rng.choice(["p1", "p2"]), ()), rng.randrange(-3, 4))
    if kind == "mul":
        return ("mul", tuple(_random_ast(rng, depth + 1) for _ in range(rng.randrange(2, 4))))
    # parser-canonical sums always carry a leading plus; a leading minus
    # arrives as a neg node inside the first term
    signs = [1] + [rng.choice([1, -1]) for _ in range(rng.randrange(1, 3))]
    return ("sum", tuple((s, _random_ast(rng, depth + 1)) for s in signs))


def test_print_parse_round_trip():
    rng = random.Random(17)
    for _ in range(120):
        ast = _random_ast(rng)
        assert parse_element(print_element(ast)) == ast


def test_round_trip_examples():
    for text in ["L(1,-1)", "3/2*d1*p1^2 - Y(0,1)", "-(d1 + d2)*p1^-1", "t(2,3)*t1 + 1/2"]:
        ast = parse_element(text)
        assert parse_element(print_element(ast)) == ast


def test_eval_loc():
    assert eval_loc(parse_element("p1*p1^-1")) == Loc.one()
    assert eval_loc(parse_element("Y(1,-1)")) == y_element((1, -1))
    assert eval_loc(parse_element("d - d1 - d2")).is_zero()
    got = eval_loc(parse_element("L(0,-1)"))
    assert got == Loc.partial(2) * -1
    with pytest.raises(ValueError):
        eval_loc(parse_element("t1*d1"))
    with pytest.raises(ValueError):
        eval_loc(parse_element("v0"))


def test_eval_phi():
    assert eval_phi(parse_element("t(2,1)")) == phi_poly(Poly2.monomial((2, 1)))
    assert eval_phi(parse_element("L(1,0)")) == phi_L((1, 0))
    # the defining Weyl relation survives the map
    got = eval_phi(parse_element("p1*t1 - t1*p1"))
    assert got == eval_phi(parse_element("1"))
    with pytest.raises(ValueError):
        eval_phi(parse_element("Y(1,0)"))
    with pytest.raises(ValueError):
        eval_phi(parse_element("p1^-1"))


def test_eval_seed():
    m = Gl2Module((1, 0))
    got = eval_seed(parse_element("v0 + v1"), m, (1, 1))
    expect = TVector.basis(m, (1, 1), (0, 0), 0) + TVector.basis(m, (1, 1), (0, 0), 1)
    assert got == expect
    got = eval_seed(parse_element("t1^2*v0 - 2*t(0,1)*v1"), m, (1, 1))
    expect = TVector.basis(m, (1, 1), (2, 0), 0) + TVector.basis(m, (1, 1), (0, 1), 1) * -2
    assert got == expect
    with pytest.raises(ValueError):
        eval_seed(parse_element("t1 + t2"), m, (1, 1))
    with pytest.raises(ValueError):
        eval_seed(parse_element("v0*v1"), m, (1, 1))
    with pytest.raises(ValueError):
        eval_seed(parse_element("d1*v0"), m, (1, 1))


def test_algebra_atoms_in_both_contexts():
    # d1 = L(0,0) + d2, d = L(0,0) + 2 d2, p1 = L(-1,0), p2 = d/dt_2 = -L(0,-1)
    L00 = UEnv.L((0, 0))
    loc = {
        "d1": Loc.from_uenv(L00 + UEnv.d2()),
        "d2": Loc.from_uenv(UEnv.d2()),
        "d": Loc.from_uenv(L00 + UEnv.d2() * 2),
        "p1": Loc.partial(1),
        "p2": Loc.partial(2),
        "L(-1,0)": Loc.partial(1),
        "L(0,-1)": Loc.partial(2) * -1,
    }
    phi = {
        "d1": phi_L((0, 0)) + phi_d2(),
        "d2": phi_d2(),
        "d": phi_L((0, 0)) + phi_d2() * 2,
        "p1": phi_L((-1, 0)),
        "p2": phi_L((0, -1)) * -1,
        "L(-1,0)": phi_L((-1, 0)),
        "L(0,-1)": phi_L((0, -1)),
    }
    for text, expect in loc.items():
        assert eval_loc(parse_element(text)) == expect, text
    for text, expect in phi.items():
        assert eval_phi(parse_element(text)) == expect, text
