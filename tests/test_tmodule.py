import contextlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sbar2lab import base, enveloping, suites, tmodule
from sbar2lab.base import E2, Poly2, accumulate, madd, qdiv, run_scope
from sbar2lab.centralizer import y_element, y_indices
from sbar2lab.enveloping import Loc, UEnv
from sbar2lab.gl2 import Gl2Module, Gl2Poly, pi_letter
from sbar2lab.lie import D2, L_letter, Sbar, l_basis, letter_alpha, letter_window, sbar_bracket
from sbar2lab.linalg import EchelonSpan
from sbar2lab.report import FAIL, PASS
from sbar2lab.suites import LAMBDA_GRID, run_suite
from sbar2lab.tmodule import (
    BasisImages,
    SigmaOp,
    TVector,
    _letter_kernel,
    _letter_recipe,
    act_letter,
    act_loc,
    act_partial,
    act_sbar,
    closure_probe,
    joint_kernel,
    random_seed_vector,
    sigma_terms,
    slice_keys,
    uh_freeness_check,
    whittaker_space,
)
from sbar2lab.weyl import Weyl, phi_letter
from oracles import A2aVector, a2a_act, closure_probe_by_vectors, joint_kernel_by_vectors, sigma_act


def basis(module, a, beta, k):
    return TVector.basis(module, a, beta, k)


@pytest.fixture
def scoped():
    # a suite run compiles each letter's action once (base.run_scope);
    # outside a scope every act_letter call compiles its letter afresh
    with run_scope():
        yield


# the scope is shared by all examples of a property on purpose: a kernel
# depends only on its letter, module and type vector
SCOPED_PROPERTY = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def test_action_examples():
    m = Gl2Module((1, 0))
    w0 = basis(m, (1, 1), (0, 0), 0)
    w1 = basis(m, (1, 1), (0, 0), 1)
    assert act_partial(1, w0) == w0
    assert act_letter(D2, w0) == basis(m, (1, 1), (0, 1), 0)
    got = act_letter(L_letter((1, -1)), w1)
    expect = basis(m, (1, 1), (1, 0), 1) * -2 + w0 * -2
    assert got == expect


def test_action_dispatcher():
    m = Gl2Module((1, 0))
    w0 = basis(m, (1, 1), (0, 0), 0)
    assert act_sbar(Sbar.d2(), w0) == act_letter(D2, w0)
    assert act_loc(Loc.from_uenv(UEnv.d2()), w0) == act_letter(D2, w0)
    assert act_loc(Loc.partial(1, -1), w0) == w0


def test_derived_vectors_reuse_the_coerced_type_vector():
    m = Gl2Module((1, 0))
    w = TVector({((0, 0), 0): 1}, a=(Fraction(2), Fraction(1, 2)), module=m)
    assert w.a == (2, Fraction(1, 2)) and type(w.a[0]) is int
    # sums, scalings and actions copy a, they do not coerce it again
    for v in (w + w, -w, w * 3, act_letter(D2, w)):
        assert v.a is w.a and v.module is m
    with pytest.raises(TypeError):
        TVector({((0, 0), 0): 1}, a=(0.5, 1), module=m)


@pytest.mark.parametrize(
    "build",
    [
        lambda m, a: TVector({((0, 0), 0): 1}, a=a, module=m),
        lambda m, a: BasisImages(m, a),
        lambda m, a: joint_kernel(m, a, 1, []),
        lambda m, a: uh_freeness_check(m, a, 1),
    ],
    ids=["TVector", "BasisImages", "joint_kernel", "uh_freeness_check"],
)
@pytest.mark.parametrize("a", [(0.5, 1), (1, 0.5)])
def test_type_vector_entry_points_reject_a_float(build, a):
    # each place a type vector enters the module coerces it exactly once,
    # so a float in either slot raises before any arithmetic runs
    with pytest.raises(TypeError, match="exact rational"):
        build(Gl2Module((1, 0)), a)


SMALL_SCALARS = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@st.composite
def tensor_vectors(draw):
    """Random vectors on T(a, V) for small lam, with a_i = 0 allowed."""
    module = Gl2Module(draw(st.sampled_from([(0, 0), (1, 0), (1, 1), (2, 0), (3, 1)])))
    a = (draw(SMALL_SCALARS), draw(SMALL_SCALARS))
    key = st.tuples(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.integers(0, module.dim - 1))
    terms = draw(st.dictionaries(key, SMALL_SCALARS, max_size=8))
    return TVector(terms, a=a, module=module)


@pytest.mark.usefixtures("scoped")
@SCOPED_PROPERTY
@given(tensor_vectors(), st.sampled_from([1, 2]))
def test_partial_is_the_shifted_derivative(w, i):
    # oracle: on each weight component p x v_k, d/dt_i acts by p -> dp/dt_i + a_i p
    expect: dict = {}
    for k in range(w.module.dim):
        p = Poly2({beta: c for (beta, kk), c in w.terms.items() if kk == k})
        for beta, c in (p.diff(i) + p * w.a[i - 1]).terms.items():
            accumulate(expect, (beta, k), c)
    assert act_partial(i, w) == TVector(expect, a=w.a, module=w.module)


@pytest.mark.usefixtures("scoped")
@SCOPED_PROPERTY
@given(tensor_vectors(), st.sampled_from(letter_window(2)))
def test_act_letter_is_linear(w, letter):
    # BasisImages rests on this: the images of basis keys determine the
    # action on every vector
    expect = TVector(a=w.a, module=w.module)
    for key, c in w.terms.items():
        expect = expect + act_letter(letter, TVector({key: 1}, a=w.a, module=w.module)) * c
    assert act_letter(letter, w) == expect


def test_localized_action_inverts():
    m = Gl2Module((2, 0))
    w = basis(m, (1, 2), (2, 1), 1) + basis(m, (1, 2), (0, 0), 0) * Fraction(3, 2)
    for i in (1, 2):
        assert act_loc(Loc.partial(i, -1), act_partial(i, w)) == w
        assert act_partial(i, act_loc(Loc.partial(i, -1), w)) == w
    singular = basis(m, (0, 1), (0, 0), 0)
    with pytest.raises(ValueError):
        act_loc(Loc.partial(1, -1), singular)


def _y_partial_commutations(module):
    """Whether Y_a commutes with d/dt_i on one basis vector, for the 11 Y_a
    with 0 < |a| <= 2, two types and every basis vector of degree <= 2. Off
    the Whittaker vectors the inverse series runs past its first term; on
    degree <= 1 its two-term cut breaks no check."""
    for alpha in y_indices(2):
        y = y_element(alpha)
        for a in ((1, 1), (2, Fraction(-1, 3))):
            for key in slice_keys(module, 2):
                w = TVector({key: 1}, a=a, module=module)
                for i in (1, 2):
                    yield act_loc(y, act_partial(i, w)) == act_partial(i, act_loc(y, w))


@pytest.mark.usefixtures("scoped")
def test_y_commutes_with_the_partials_on_every_basis_vector():
    # Y_a lies in the centralizer of d/dt_1 and d/dt_2
    checks = list(_y_partial_commutations(Gl2Module((1, 0))))
    assert len(checks) == 528 and all(checks)


@pytest.mark.usefixtures("scoped")
def test_y_partial_commutation_reaches_the_inverse_series(monkeypatch):
    # negative control: p_i^(-1) cut after two terms of its series
    def truncated(i, v, partial, s):
        term = v * qdiv(1, s)
        return term + (partial(i, term) - term * s) * -qdiv(1, s)

    monkeypatch.setattr(enveloping, "partial_inverse", truncated)
    assert not all(_y_partial_commutations(Gl2Module((1, 0))))


@pytest.mark.usefixtures("scoped")
def test_module_axiom_window():
    letters = [D2] + [
        L_letter((a1, a2))
        for a1 in range(-1, 3)
        for a2 in range(-1, 3)
        if (a1, a2) != (-1, -1) and -1 <= a1 + a2 <= 1
    ]
    for lam, a in (((1, 0), (1, 1)), ((1, 1), (1, 0)), ((2, 0), (0, 0))):
        m = Gl2Module(lam)
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


def act_tensoralg(el, w: TVector) -> TVector:
    """Oracle: the action of an element of (Weyl) x U(nonnegative part) on
    T(a, V). The Weyl factor acts on each weight component through
    ``a2a_act``, a word of the second factor through the matrix of the
    product of its ``pi_letter`` images; positive-degree letters give zero."""
    module = w.module
    parts: dict = {}  # weight index -> polynomial part of w
    for (beta, k), c in w.terms.items():
        parts.setdefault(k, {})[beta] = c
    polys = {k: A2aVector(Poly2(terms), w.a) for k, terms in parts.items()}
    out: dict = {}
    for (weyl_key, word), coeff in el.items():
        img = Gl2Poly.one()
        for letter in word:
            img = img * pi_letter(letter)
        mat = img.evaluate(module)
        op = Weyl({weyl_key: 1})
        for k, f in polys.items():
            for exp, c in a2a_act(op, f).poly.items():
                for (kk, j), e in mat.items():
                    if j == k:
                        accumulate(out, (exp, kk), coeff * c * e)
    return TVector(out, a=w.a, module=module)


@pytest.mark.usefixtures("scoped")
@SCOPED_PROPERTY
@given(tensor_vectors(), st.sampled_from(letter_window(2)))
def test_display_matches_generator_images(w, letter):
    # act_letter runs on recipes read off phi; the oracle acts with the
    # generator image phi(letter) itself
    assert act_letter(letter, w) == act_tensoralg(phi_letter(letter), w)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([(0, 0), (1, 0), (2, 0), (3, 1)]),
    st.sampled_from([(0, 0), (1, 0), (Fraction(1, 2), -3)]),
    st.sampled_from(letter_window(3)),
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(0, 3),
    st.booleans(),
)
def test_basis_images_and_act_letter_apply_one_kernel(lam, a, letter, beta, k, in_scope):
    # BasisImages applies a letter's compiled kernel to a basis key directly,
    # act_letter to a vector; both are the action of phi(letter), inside a run
    # scope (one kernel per letter, module and type vector) and outside one
    # (a kernel compiled per call). A (None, letter, 1) single reads the
    # image back through pairs_on, keyed by basis keys again.
    module = Gl2Module(lam)
    key = (beta, k % module.dim)
    w = TVector({key: 1}, a=a, module=module)
    with run_scope() if in_scope else contextlib.nullcontext():
        images = BasisImages(module, a)
        image = images.image(letter, key)
        ((_, got),) = images.pairs_on(((None, letter, 1),), [key])
        assert got == act_letter(letter, w).terms == act_tensoralg(phi_letter(letter), w).terms
    assert len(image) == len(got)
    # the images skip LinComb's coercion, so their scalars must be canonical
    assert all(type(c) is int or c.denominator != 1 for _, c in image)


def test_equal_weights_share_one_kernel_per_run():
    letter, a = D2, (1, Fraction(1, 2))  # d2 acts through E22, which sees lam2
    with run_scope():
        inside = _letter_kernel(letter, Gl2Module((2, 0)), a)
        assert _letter_kernel(letter, Gl2Module((2, 0)), a) is inside
        assert _letter_kernel(letter, Gl2Module((3, 1)), a) != inside
    # the scope took its kernels with it: outside one, every call compiles
    assert base._scope_memo is None
    outside = _letter_kernel(letter, Gl2Module((2, 0)), a)
    assert outside == inside and outside is not inside
    assert _letter_kernel(letter, Gl2Module((2, 0)), a) is not outside


def displayed_recipe(letter):
    """The module docstring's formula for ``letter``, written out by hand as
    (field entries, gl entries) with zero coefficients dropped."""
    if letter == D2:
        return [(E2, 2, 1)], [((0, 0), (2, 2), 1)]
    alpha = letter_alpha(letter)
    fields = [(exp, i, c) for (exp, i), c in l_basis(alpha).terms.items()]
    c0 = (1 + alpha[0]) * (1 + alpha[1])
    c21 = alpha[1] * (1 + alpha[1])
    c12 = -alpha[0] * (1 + alpha[0])
    gl = [
        (alpha, (1, 1), c0),
        (alpha, (2, 2), -c0),
        (madd(alpha, (1, -1)), (2, 1), c21),
        (madd(alpha, (-1, 1)), (1, 2), c12),
    ]
    return fields, [entry for entry in gl if entry[2]]


def test_recipe_is_the_displayed_formula():
    # the recipes are read off phi and the pi table, in phi's term order;
    # as sorted lists they are the displayed formula
    for letter in letter_window(6):
        fields, gl = _letter_recipe(letter)
        expect_fields, expect_gl = displayed_recipe(letter)
        assert sorted(fields) == sorted(expect_fields), letter
        assert sorted(gl) == sorted(expect_gl), letter


@pytest.mark.parametrize(
    "lam,expected",
    [((0, 0), 1), ((1, 0), 2), ((1, 1), 1), ((2, 0), 3), ((3, 1), 3)],
)
def test_whittaker_dims(lam, expected):
    m = Gl2Module(lam)
    for degree in range(0, 5):
        assert len(whittaker_space(m, (1, 1), degree)) == expected
    # singular type: plain derivatives force constants, same count
    assert len(whittaker_space(m, (0, 0), 3)) == expected


def test_whittaker_vectors_are_constants():
    m = Gl2Module((1, 0))
    for w in whittaker_space(m, (1, 1), 4):
        assert all(beta == (0, 0) for beta, _ in w.terms)


def test_degree_zero_action_on_whittaker_vectors_matches_gl2():
    # the constant component of a degree-zero letter acting on 1 x v_k is the
    # letter's gl_2 image applied to v_k
    from sbar2lab.gl2 import pi_letter

    for lam in ((1, 0), (2, 0), (3, 1)):
        m = Gl2Module(lam)
        for letter in (D2, L_letter((0, 0)), L_letter((1, -1)), L_letter((-1, 1))):
            mat = pi_letter(letter).evaluate(m)
            for k in range(m.dim):
                image = act_letter(letter, basis(m, (1, 1), (0, 0), k))
                constants = {j: c for (beta, j), c in image.items() if beta == (0, 0)}
                assert constants == {j: c for (j, col), c in mat.items() if col == k}


def test_freeness_examples():
    assert uh_freeness_check(Gl2Module((1, 0)), (1, 1), 3)["rank"] == 20
    report = uh_freeness_check(Gl2Module((1, 0)), (1, 1), 0)
    assert report["rank"] == 2
    report = uh_freeness_check(Gl2Module((1, 1)), (1, 1), 2)
    assert report["rank"] == 6 and report["full"]
    with pytest.raises(ValueError):
        uh_freeness_check(Gl2Module((1, 0)), (1, 0), 2)


def test_sigma_terms_pinned():
    L = L_letter
    # m = 1: L(1,0) L(0,0) - L(0,0) L(1,0)
    assert sigma_terms(SigmaOp(1, 1, (0, 0), (0, 0))) == [(L((1, 0)), L((0, 0)), 1), (L((0, 0)), L((1, 0)), -1)]
    assert sigma_terms(SigmaOp(2, 2, (0, 0), (1, -1))) == [
        (L((0, 2)), L((1, -1)), 1),
        (L((0, 1)), L((1, 0)), -2),
        (L((0, 0)), L((1, 1)), 1),
    ]
    # a term whose index hits the corner is skipped
    assert sigma_terms(SigmaOp(0, 1, (-1, -1), (0, 0))) == []
    assert sigma_terms(SigmaOp(1, 1, (-1, -1), (0, 0))) == [(L((0, -1)), L((0, 0)), 1)]


def test_sigma_examples():
    m = Gl2Module((1, 0))
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


@pytest.mark.usefixtures("scoped")
def test_sigma_suite_dict_path_matches_sigma_act():
    # The sigma-annihilation suite does not call sigma_act: it sums the
    # sigma_terms of an operator on the basis keys of a slice through
    # BasisImages.pairs_on (inner image, then outer image). That path is
    # compared here with sigma_act on the suite's type vector and degree-2
    # slice, key by key.
    a = (0, 0)
    indices = [(-1, -1), (-1, 1), (0, 0), (1, -1), (2, 0)]
    for lam in ((1, 0), (2, -1)):
        module = Gl2Module(lam)
        images = BasisImages(module, a)
        keys = [((b1, b2), k) for b1 in range(3) for b2 in range(3 - b1) for k in range(module.dim)]
        nonzero = 0
        for m, j, alpha, beta in itertools.product(range(3), (1, 2), indices, indices):
            op = SigmaOp(m, j, alpha, beta)
            sums = images.pairs_on(sigma_terms(op), keys)
            for key, (at, total) in zip(keys, sums, strict=True):
                got = sigma_act(op, TVector({key: 1}, a=a, module=module))
                assert at == key and total == got.terms, (lam, op, key)
                nonzero += bool(got.terms)
        assert nonzero > 100  # the comparison is not between zeros


@pytest.mark.usefixtures("scoped")
def test_axiom_pairs_match_the_nested_action():
    # The action-axioms suite sums x(y e_key) - y(x e_key) through
    # BasisImages.pairs_on; compared here with nested act_letter calls.
    letters = letter_window(1)
    for lam, a in (((1, 0), (1, 1)), ((2, 0), (Fraction(1, 2), 0))):
        module = Gl2Module(lam)
        images = BasisImages(module, a)
        nonzero = 0
        keys = slice_keys(module, 2)
        for x, y in itertools.combinations(letters, 2):
            sums = images.pairs_on(((x, y, 1), (y, x, -1)), keys)
            for key, (at, total) in zip(keys, sums, strict=True):
                w = TVector({key: 1}, a=a, module=module)
                expect = act_letter(x, act_letter(y, w)) - act_letter(y, act_letter(x, w))
                assert at == key and total == expect.terms, (lam, x, y, key)
                nonzero += bool(expect.terms)
        assert nonzero > 100  # the comparison is not between zeros


def test_action_axioms_fail_under_a_negated_bracket(monkeypatch):
    # negative control: the suite cannot pass vacuously, a wrong bracket
    # fails every case
    bracket = suites.sbar_bracket
    monkeypatch.setattr(suites, "sbar_bracket", lambda x, y: -bracket(x, y))
    report = run_suite("action-axioms", 0)
    assert len(report.cases) == 9
    assert all(case.status == FAIL for case in report.cases)


def test_sigma_search_fails_under_one_bumped_coefficient(monkeypatch):
    # negative control: with one coefficient of every operator off by one,
    # the search must not reach the order the golden report records (3); a
    # pairs_on that always returned {} would pass it with order 0
    real = suites.sigma_terms

    def bumped(op):
        terms = real(op)
        if terms:
            first, second, coeff = terms[0]
            terms[0] = (first, second, coeff + 1)
        return terms

    def search():
        return next(c for c in run_suite("sigma-annihilation", 2).cases if c.name == "sigma-minimal-annihilator")

    assert search().witness["minimal_m"] == 3
    monkeypatch.setattr(suites, "sigma_terms", bumped)
    case = search()
    assert not (case.status == PASS and case.witness["minimal_m"] == 3), case.witness


TYPE_SCALARS = st.one_of(st.just(0), SMALL_SCALARS)
TRIPLES = st.lists(
    st.tuples(st.one_of(st.none(), st.sampled_from(letter_window(2))), st.sampled_from(letter_window(2)), SMALL_SCALARS),
    max_size=5,
)


@pytest.mark.usefixtures("scoped")
@settings(SCOPED_PROPERTY, max_examples=100)
@given(
    st.sampled_from([(0, 0), (1, 0), (1, 1), (2, 0), (3, 1)]),
    st.tuples(TYPE_SCALARS, TYPE_SCALARS),
    st.lists(st.tuples(TRIPLES, st.tuples(st.integers(0, 3), st.integers(0, 3)), st.integers(0, 3)), min_size=1, max_size=6),
)
def test_pairs_on_is_the_nested_action_sum(lam, a, queries):
    # every query runs on one BasisImages, so later ones read the key ids
    # and table entries earlier ones stored; each query is also run with its
    # negated copy appended, whose sum is zero and must come back as {}
    module = Gl2Module(lam)
    images = BasisImages(module, a)
    for triples, beta, k in queries:
        triples = triples + triples[:1]  # a repeated (first, second) pair
        key = (beta, k % module.dim)
        w = TVector({key: 1}, a=a, module=module)
        expect = TVector(a=a, module=module)
        for first, second, coeff in triples:
            v = act_letter(second, w)
            expect = expect + (v if first is None else act_letter(first, v)) * coeff
        ((_, got),) = images.pairs_on(triples, [key])
        assert got == expect.terms, (triples, key)
        ((_, cancelled),) = images.pairs_on(triples + [(f, s, -c) for f, s, c in triples], [key])
        assert cancelled == {}
    for table in images._tables.values():
        for entry in table.values():
            assert all(type(c) is int or c.denominator != 1 for _, c in entry)


def test_closure_probe_profiles():
    m = Gl2Module((1, 0))
    seed = basis(m, (1, 1), (0, 0), 0) + basis(m, (1, 1), (0, 0), 1)
    report = closure_probe(seed, 5, 2)
    assert report["proper"] and not report["full"]
    assert report["table"] == {0: (1, 2), 1: (3, 6), 2: (6, 12), 3: (10, 20)}
    # a generic vector generates everything
    report = closure_probe(basis(m, (1, 1), (0, 0), 0), 5, 2)
    assert report["full"]
    with pytest.raises(ValueError):
        closure_probe(TVector(a=(1, 1), module=m), 4, 2)


def test_probes_reject_an_empty_window():
    # a window with no degree in it would report an empty table or a rank
    # of 0 of 0, and all() over nothing reads as full
    m = Gl2Module((1, 0))
    with pytest.raises(ValueError, match="trusted window is empty"):
        closure_probe(basis(m, (1, 1), (0, 0), 0), 2, 3)
    assert closure_probe(basis(m, (1, 1), (0, 0), 0), 2, 2)["table"] == {0: (2, 2)}
    with pytest.raises(ValueError, match="slice is empty"):
        joint_kernel(m, (1, 1), -1, [(Sbar.d2(), 0)])
    with pytest.raises(ValueError, match="slice is empty"):
        whittaker_space(m, (1, 1), -1)
    with pytest.raises(ValueError, match="window is empty"):
        uh_freeness_check(m, (1, 1), -1)


def test_vector_results_never_share_terms_with_an_operand():
    m = Gl2Module((1, 0))
    w = basis(m, (1, 1), (0, 0), 0) + basis(m, (1, 1), (1, 0), 1) * Fraction(1, 2)
    v = basis(m, (1, 1), (1, 0), 1)
    results = [w + v, w - v, -w, w * 2, 2 * w, w * 1, w * 0, act_sbar(Sbar.d2(), w)]
    results += [act_letter(letter, w) for letter in letter_window(1)]
    for r in results:
        assert r.terms is not w.terms and r.terms is not v.terms
        assert r.a == w.a and r.module is m
    assert w == basis(m, (1, 1), (0, 0), 0) + basis(m, (1, 1), (1, 0), 1) * Fraction(1, 2)


def test_closure_probe_reads_rows_without_aliasing_them(monkeypatch):
    # the span's rows change only inside EchelonSpan.add, and a vector the
    # probe acts on keeps its terms while later adds reduce the row it was
    # read from
    class WatchedSpan(EchelonSpan):
        def __init__(self, key_rank=None):
            super().__init__(key_rank)
            self.seen = {}

        def add(self, vec):
            assert self._rows == self.seen
            row = super().add(vec)
            self.seen = {pivot: dict(r) for pivot, r in self._rows.items()}
            return row

    acted = {}  # id -> (term dict, its terms when first acted on)
    act_terms = tmodule._act_terms

    def watched_act(kernel, terms):
        _, first = acted.setdefault(id(terms), (terms, dict(terms)))
        assert terms == first
        return act_terms(kernel, terms)

    monkeypatch.setattr(tmodule, "EchelonSpan", WatchedSpan)
    monkeypatch.setattr(tmodule, "_act_terms", watched_act)
    # a random seed, so later adds do reduce rows that were read already
    seed = random_seed_vector(Gl2Module((1, 0)), (1, 1), random.Random(0))
    assert closure_probe(seed, 6, 2)["tracked_rank"] > 20
    assert len(acted) > 20 and all(terms == first for terms, first in acted.values())


def test_closure_probe_random_seed_simple_case():
    rng = random.Random(3)
    m = Gl2Module((1, 1))
    terms = {((b1, b2), 0): Fraction(rng.randrange(-2, 3)) for b1 in range(2) for b2 in range(2 - b1)}
    terms = {k: c for k, c in terms.items() if c} or {((0, 0), 0): Fraction(1)}
    report = closure_probe(TVector(terms, a=(1, 1), module=m), 5, 2)
    assert report["full"]


def test_closure_probe_reads_module_and_type_from_the_seed():
    for lam in ((0, 0), (1, 0), (2, 0)):
        m = Gl2Module(lam)
        report = closure_probe(basis(m, (1, 1), (0, 0), 0), 4, 2)
        assert [amb for _, amb in report["table"].values()] == [(d + 1) * (d + 2) // 2 * m.dim for d in range(3)]
    # the type vector is the seed's: the same constants give different tables
    m = Gl2Module((1, 0))
    tables = {
        (1, 1): {0: (1, 2), 1: (3, 6), 2: (6, 12), 3: (10, 20)},
        (0, 0): {0: (2, 2), 1: (5, 6), 2: (9, 12), 3: (14, 20)},
    }
    for a, table in tables.items():
        seed = basis(m, a, (0, 0), 0) + basis(m, a, (0, 0), 1)
        assert closure_probe(seed, 5, 2)["table"] == table


@pytest.mark.usefixtures("scoped")
@pytest.mark.parametrize("cap", [11, 12])
def test_closure_fills_the_simple_cases_at_pushed_caps(cap):
    # the probe closes over its own rows; closing over the raw orbit alone
    # left slice 9 at 54 of 55 for lam (1,1) at cap 11 (seed 0)
    assert [case.status for case in run_suite("closure", cap).cases] == [PASS] * 4
    for seed in range(1, 4):
        cases = suites._suite_closure(cap, random.Random(seed))
        simple = [thunk for name, _, _, thunk in cases if name.startswith("closure-simple")]
        assert len(simple) == 2
        for thunk in simple:
            status, witness = thunk()
            assert status == PASS, (cap, seed, witness)


@pytest.mark.usefixtures("scoped")
def test_closure_reducible_table_is_monotone_in_the_cap():
    m = Gl2Module((1, 0))
    seed = basis(m, (1, 1), (0, 0), 0) + basis(m, (1, 1), (0, 0), 1)
    tables = [closure_probe(seed, cap, 2)["table"] for cap in range(6, 13)]
    for low, high in zip(tables, tables[1:]):
        assert all(low[d][0] <= high[d][0] for d in low), (low, high)
    # the submodule generated by v0 + v1 is half of every slice
    assert tables[-1] == {d: ((d + 1) * (d + 2) // 2, (d + 1) * (d + 2)) for d in range(11)}


@st.composite
def closure_cases(draw):
    """A seed on T(a, V) for lam in the suites' grid, with a mixing ints,
    Fractions and zeros, and a truncation cap up to 5 above the seed."""
    module = Gl2Module(draw(st.sampled_from(LAMBDA_GRID)))
    a = draw(st.tuples(TYPE_SCALARS, TYPE_SCALARS))
    degree = draw(st.integers(0, 5))
    beta = st.integers(0, degree).flatmap(lambda b1: st.tuples(st.just(b1), st.integers(0, degree - b1)))
    key = st.tuples(beta, st.integers(0, module.dim - 1))
    terms = draw(st.dictionaries(key, SMALL_SCALARS.filter(bool), min_size=1, max_size=6))
    return TVector(terms, a=a, module=module), degree, draw(st.integers(0, min(3, degree)))


@pytest.mark.usefixtures("scoped")
@settings(SCOPED_PROPERTY, max_examples=60)
@given(closure_cases())
def test_closure_probe_matches_the_vector_oracle(case):
    seed, degree, gen_degree = case
    assert closure_probe(seed, degree, gen_degree) == closure_probe_by_vectors(seed, degree, gen_degree)


@pytest.mark.usefixtures("scoped")
def test_joint_kernel_checks_the_slice_on_an_ops_summed_image():
    # with a1 = 0, L(0,0) and d2 each move t^beta to t^(beta+e2), with
    # coefficients -a2 and +a2; their sum maps every slice into itself
    module = Gl2Module((1, 0))
    a = (0, 1)
    x = Sbar({L_letter((0, 0)): 1, D2: 1})
    for degree in range(4):
        expect = joint_kernel_by_vectors(module, a, degree, [(lambda v: act_sbar(x, v), 0)])
        assert joint_kernel(module, a, degree, [(x, 0)]) == expect
    with pytest.raises(ValueError, match="left the degree slice"):
        joint_kernel(module, a, 2, [(Sbar({D2: 1}), 0)])


@pytest.mark.usefixtures("scoped")
@settings(SCOPED_PROPERTY, max_examples=100)
@given(st.sampled_from(LAMBDA_GRID), st.tuples(TYPE_SCALARS, TYPE_SCALARS), st.integers(0, 5), st.data())
def test_joint_kernel_matches_the_vector_oracle(lam, a, degree, data):
    # ops are Sbar combinations of letters of degree <= 0, d2 among them,
    # shifted by 0 or an a_i so that kernels are often nonzero; one whose
    # twist raises the degree must leave the slice on both paths
    module = Gl2Module(lam)
    x = st.dictionaries(st.sampled_from(letter_window(0)), SMALL_SCALARS, min_size=1, max_size=3).map(Sbar)
    ops = data.draw(st.lists(st.tuples(x, st.sampled_from((0, *a))), min_size=1, max_size=2))
    vector_ops = [(lambda v, x=x: act_sbar(x, v), scalar) for x, scalar in ops]
    try:
        expect = joint_kernel_by_vectors(module, a, degree, vector_ops)
    except ValueError:
        with pytest.raises(ValueError, match="left the degree slice"):
            joint_kernel(module, a, degree, ops)
        return
    got = joint_kernel(module, a, degree, ops)
    assert got == expect
    assert all(type(c) is int or c.denominator != 1 for w in got for c in w.terms.values())
