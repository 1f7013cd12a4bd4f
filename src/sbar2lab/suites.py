"""Verification suites: deterministic sweeps producing typed reports.

Every suite builds a list of named cases with thunks and a formula-style
anchor describing the identity being exercised; ``run_suite`` evaluates them
and sorts the records by case name. Randomized sweeps draw from a Random
seeded with the reported seed.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction

from . import __version__
from .base import Poly2, exponents, mtotal, run_scope
from .centralizer import (
    H_GENERATORS,
    _beta_range,
    centralizer_check,
    d_monomial,
    g0_poly,
    g_poly,
    wh_action_compare,
    whittaker_stability_defect,
    xi_q1_consistency,
    xi_y,
    y_basis_probe,
    y_element,
    y_generation_search,
    y_indices,
    pi1,
)
from .enveloping import Loc, reduce_mod_I1
from .expr import eval_loc, parse_element
from .gl2 import Gl2Poly, gl2_simple
from .lie import (
    D2,
    L_letter,
    Sbar,
    VectorField,
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
from .linalg import EchelonSpan
from .report import FAIL, INCONCLUSIVE, PASS, Case, SuiteReport
from .tmodule import (
    BasisImages,
    SigmaOp,
    TVector,
    closure_probe,
    joint_kernel,
    random_seed_vector,
    sigma_terms,
    slice_keys,
    uh_freeness_check,
    whittaker_space,
)
from .weyl import phi_hom_check

LAMBDA_GRID = ((0, 0), (1, 0), (1, 1), (2, 0))
#: the highest weights of the whittaker-dim and freeness cases
WH_LAMBDAS = ((0, 0), (1, 0), (1, 1), (2, 0), (3, 1))


def _letters(max_degree: int):
    return [D2] + [L_letter(alpha) for alpha in l_indices(-1, max_degree)]


def _fmt(idx) -> str:
    return f"({idx[0]},{idx[1]})"


def _parse_loc(text: str) -> Loc:
    return eval_loc(parse_element(text))


def _full(report: dict) -> tuple:
    return (PASS if report["full"] else FAIL), report


def _cases(anchor: str, provenance: str, check, entries) -> list:
    """One case per ``(name, *args)`` entry, whose thunk is ``check(*args)``."""
    return [(name, anchor, provenance, functools.partial(check, *args)) for name, *args in entries]


def _bucketed(name, anchor: str, provenance: str, check, items, key) -> list:
    """One case per value k of ``key`` over ``items``, in sorted key order: it
    is named ``name(k)`` and its thunk is ``check`` on the items with key k."""
    buckets: dict = {}
    for item in items:
        buckets.setdefault(key(item), []).append(item)
    return _cases(anchor, provenance, check, [(name(k), bucket) for k, bucket in sorted(buckets.items())])


def _display_cases(name: str, lhs: str, texts: dict, value, expected) -> list:
    """Display-regression cases, one per ``alpha: text`` entry: ``value(alpha)``
    must equal ``expected(text)``. ``name`` and ``lhs`` are templates for the
    formatted index; the anchor reads ``lhs = text``."""

    def check(alpha, text):
        got = value(alpha)
        return (PASS, {}) if got == expected(text) else (FAIL, {"got": str(got), "expected": text})

    return [
        case
        for alpha, text in sorted(texts.items())
        for case in _cases(
            f"{lhs.format(_fmt(alpha))} = {text}",
            "display-regression",
            check,
            [(name.format(_fmt(alpha)), alpha, text)],
        )
    ]


# --- suite builders ---------------------------------------------------------
# Each builder returns a list of (name, anchor, provenance, thunk); a thunk
# returns (status, witness).

def _suite_jacobi(max_degree: int, rng) -> list:
    def check(trios):
        # per case, each letter's element and field and each inner bracket once
        sb = {l: Sbar({l: 1}) for l in {l for trio in trios for l in trio}}
        vf = {l: sbar_to_vf(s) for l, s in sb.items()}
        inner: dict = {}  # (y, z) -> ([y,z] on letters, [y,z] on fields)
        for x, y, z in trios:
            for p, q in ((y, z), (z, x), (x, y)):
                if (p, q) not in inner:
                    inner[p, q] = (sbar_bracket(sb[p], sb[q]), vf_bracket(vf[p], vf[q]))
            for r, (route, bracket, elem) in enumerate((("letters", sbar_bracket, sb), ("fields", vf_bracket, vf))):
                total = (
                    bracket(elem[x], inner[y, z][r])
                    + bracket(elem[y], inner[z, x][r])
                    + bracket(elem[z], inner[x, y][r])
                )
                if not total.is_zero():
                    return FAIL, {"triple": [str(sb[x]), str(sb[y]), str(sb[z])], "route": route}
        return PASS, {"triples": len(trios)}

    return _bucketed(
        "jacobi-degrees{}".format,
        "[x,[y,z]] + [y,[z,x]] + [z,[x,y]] = 0 on both bracket routes",
        "axiom-sweep",
        check,
        itertools.combinations_with_replacement(_letters(max_degree), 3),
        lambda trio: tuple(sorted(letter_degree(l) for l in trio)),
    )


def _suite_bracket_crosscheck(max_degree: int, rng) -> list:
    def check(pairs):
        for x, y in pairs:
            sx, sy = Sbar({x: 1}), Sbar({y: 1})
            via_letters = sbar_to_vf(sbar_bracket(sx, sy))
            via_fields = vf_bracket(sbar_to_vf(sx), sbar_to_vf(sy))
            if via_letters != via_fields:
                return FAIL, {"pair": [str(sx), str(sy)]}
            if not via_fields.is_zero() and vf_to_sbar(via_fields) != sbar_bracket(sx, sy):
                return FAIL, {"pair": [str(sx), str(sy)], "stage": "conversion"}
        return PASS, {"pairs": len(pairs)}

    return _bucketed(
        "crosscheck-degrees{}".format,
        "determinant structure constants agree with the field bracket",
        "cross-check",
        check,
        itertools.combinations_with_replacement(_letters(max_degree), 2),
        lambda pair: tuple(sorted(letter_degree(l) for l in pair)),
    )


def _suite_divergence(max_degree: int, rng) -> list:
    def check(alpha):
        div = divergence(l_basis(alpha))
        if div.is_zero():
            return PASS, {}
        return FAIL, {"divergence": str(div)}

    def euler_thunk():
        div = divergence(sbar_to_vf(Sbar.d()))
        if div == Poly2.const(2):
            return PASS, {}
        return FAIL, {"divergence": str(div)}

    return [
        *_cases(
            "div(L_a) = 0",
            "axiom-sweep",
            check,
            [(f"div-L{_fmt(alpha)}", alpha) for alpha in l_indices(-1, max_degree)],
        ),
        ("div-euler", "div(d1 + d2) = 2", "derived-example", euler_thunk),
    ]


def _suite_twist(max_degree: int, rng) -> list:
    letters = _letters(min(max_degree, 2))
    scale = (2, 3)
    inv_scale = (Fraction(1, 2), Fraction(1, 3))

    def ex_scaling():
        for i in (1, 2):
            got = scaling_twist(scale, VectorField.partial(i))
            if got != VectorField.partial(i) * scale[i - 1]:
                return FAIL, {"input": f"p{i}"}
            if scaling_twist(scale, VectorField.euler(i)) != VectorField.euler(i):
                return FAIL, {"input": f"d{i}"}
        if scaling_twist(scale, l_basis((1, -1))) != l_basis((1, -1)) * Fraction(3, 2):
            return FAIL, {"input": "L(1,-1)"}
        return PASS, {}

    def ex_unipotent():
        if unipotent_twist(-1, VectorField.partial(1)) != VectorField.partial(1):
            return FAIL, {"input": "p1"}
        expect = VectorField.partial(2) + VectorField.partial(1)
        if unipotent_twist(-1, VectorField.partial(2)) != expect:
            return FAIL, {"input": "p2"}
        expect = VectorField.euler(2) + VectorField.monomial((0, 1), 1)
        if unipotent_twist(-1, VectorField.euler(2)) != expect:
            return FAIL, {"input": "d2"}
        return PASS, {}

    def automorphism(twist, name):
        for x, y in itertools.combinations(letters, 2):
            vx, vy = sbar_to_vf(Sbar({x: 1})), sbar_to_vf(Sbar({y: 1}))
            lhs = twist(vf_bracket(vx, vy))
            rhs = vf_bracket(twist(vx), twist(vy))
            if lhs != rhs:
                return FAIL, {"pair": [str(vx), str(vy)], "twist": name}
        return PASS, {"pairs": len(letters) * (len(letters) - 1) // 2}

    def inverses():
        for letter in letters:
            v = sbar_to_vf(Sbar({letter: 1}))
            if scaling_twist(inv_scale, scaling_twist(scale, v)) != v:
                return FAIL, {"letter": str(letter), "twist": "scaling"}
            if unipotent_twist(1, unipotent_twist(-1, v)) != v:
                return FAIL, {"letter": str(letter), "twist": "unipotent"}
        return PASS, {}

    def rep_compat():
        module = gl2_simple((1, 0))
        a = (1, 0)
        images = [
            vf_to_sbar(unipotent_twist(-1, VectorField.partial(i))) for i in (1, 2)
        ]
        kernel = joint_kernel(module, a, max(2, max_degree), [(s, 1) for s in images])
        if len(kernel) == module.dim:
            return PASS, {"dim": len(kernel)}
        return FAIL, {"dim": len(kernel), "expected": module.dim}

    return [
        ("scaling-examples", "p_i -> a_i p_i, d_i fixed", "derived-example", ex_scaling),
        ("unipotent-examples", "exp(c ad(t2 p1)) on constant fields", "derived-example", ex_unipotent),
        *_cases(
            "twist([x,y]) = [twist(x), twist(y)]",
            "axiom-sweep",
            automorphism,
            [
                ("scaling-automorphism", lambda v: scaling_twist(scale, v), "scaling"),
                ("unipotent-automorphism", lambda v: unipotent_twist(-1, v), "unipotent"),
            ],
        ),
        ("twist-inverses", "twist(a) o twist(1/a) = id", "axiom-sweep", inverses),
        (
            "twisted-whittaker-dim",
            "twisting the singular-type module matches the nonsingular count",
            "cross-check",
            rep_compat,
        ),
    ]


def _suite_phi_hom(max_degree: int, rng) -> list:
    # (kind, degree, generator); the polynomials b1-major, the pair order a failure reports
    gens = [("poly", mtotal(b), Poly2.monomial(b)) for b in sorted(exponents(max_degree))]
    gens += [("lie", letter_degree(l), Sbar({l: 1})) for l in _letters(max_degree)]

    def check(pairs):
        for (_, _, x), (_, _, y) in pairs:
            if not phi_hom_check(x, y).is_zero():
                return FAIL, {"pair": [str(x), str(y)]}
        return PASS, {"pairs": len(pairs)}

    return _bucketed(
        lambda key: f"hom-{key[0]}{key[2]}-{key[1]}{key[3]}",
        "the generator map preserves all defining relations",
        "axiom-sweep",
        check,
        itertools.product(gens, repeat=2),
        lambda pair: (pair[0][0], pair[1][0], pair[0][1], pair[1][1]),  # (kind x, kind y, degree x, degree y)
    )


def _suite_action_axioms(max_degree: int, rng) -> list:
    letters = _letters(max_degree)

    def check(lam, a):
        module = gl2_simple(lam)
        images = BasisImages(module, a)
        keys = slice_keys(module, 4)
        checked = 0
        for x, y in itertools.combinations(letters, 2):
            # x(y e_key) - y(x e_key) - [x,y] e_key, the bracket's
            # letters as (None, z, -c) singles
            bracket = sbar_bracket(Sbar({x: 1}), Sbar({y: 1}))
            terms = [(x, y, 1), (y, x, -1)] + [(None, z, -c) for z, c in bracket.terms.items()]
            for key in keys:
                if images.pairs_on(terms, key):
                    return FAIL, {
                        "pair": [str(Sbar({x: 1})), str(Sbar({y: 1}))],
                        "vector": str(TVector({key: 1}, a=a, module=module)),
                    }
                checked += 1
        return PASS, {"checked": checked}

    return _cases(
        "x(yw) - y(xw) = [x,y]w on the tensor module",
        "axiom-sweep",
        check,
        [
            (f"axiom-lam{_fmt(lam)}-a{_fmt(a)}", lam, a)
            for lam in ((1, 0), (1, 1), (2, 0))
            for a in ((1, 1), (1, 0), (0, 0))
        ],
    )


def _suite_whittaker_dim(max_degree: int, rng) -> list:
    def check(lam, deg):
        expected = lam[0] - lam[1] + 1
        module = gl2_simple(lam)
        basis = whittaker_space(module, (1, 1), deg)
        if len(basis) == expected:
            return PASS, {"dim": len(basis)}
        return FAIL, {"dim": len(basis), "expected": expected}

    return _cases(
        "dim Wh(T) = l1 - l2 + 1, independent of truncation",
        "rank-computation",
        check,
        [(f"whdim-lam{_fmt(lam)}-deg{deg}", lam, deg) for lam in WH_LAMBDAS for deg in range(max_degree + 1)],
    )


def _suite_freeness(max_degree: int, rng) -> list:
    def check(lam):
        return _full(uh_freeness_check(gl2_simple(lam), (1, 1), max_degree))

    def q1_thunk():
        span = EchelonSpan()
        window = exponents(max_degree + 2)
        for m in window:
            span.add(dict(reduce_mod_I1(d_monomial(m)).terms))
        status = PASS if span.rank == len(window) else FAIL
        return status, {"rank": span.rank, "expected": len(window)}

    return [
        *_cases(
            "the Cartan translates of the constant vectors are independent",
            "rank-computation",
            check,
            [(f"freeness-T-lam{_fmt(lam)}", lam) for lam in WH_LAMBDAS],
        ),
        (
            "freeness-Q1",
            "the Cartan monomial images form a basis window in the induced module",
            "rank-computation",
            q1_thunk,
        ),
    ]


def _suite_sigma(max_degree: int, rng) -> list:
    index_cap = 2
    m_cap = 4
    lam = (1, 0)

    def search():
        module = gl2_simple(lam)
        a = (0, 0)
        # l_indices plus the corner (-1,-1): sigma_terms skips only the terms
        # whose index is the corner, so alpha = (-1,-1) still contributes the
        # terms whose first index alpha + (m-i) e_j, i < m, has left it
        indices = sorted(l_indices(-1, index_cap) + [(-1, -1)])
        keys = slice_keys(module, max_degree)
        images = BasisImages(module, a)

        def annihilates(m: int) -> bool:
            for j in (1, 2):
                for beta in indices:
                    ops = [sigma_terms(SigmaOp(m, j, alpha, beta)) for alpha in indices]
                    for key in keys:
                        for terms in ops:
                            if images.pairs_on(terms, key):
                                return False
            return True

        for m in range(m_cap + 1):
            if annihilates(m):
                return PASS, {"minimal_m": m, "index_cap": index_cap, "degree_cap": max_degree}
        return FAIL, {"searched_up_to": m_cap}

    def sigma_on(op: SigmaOp, key) -> TVector:
        # the operator on the basis vector at key, through the search's own path
        module = gl2_simple(lam)
        return TVector(BasisImages(module, (0, 0)).pairs_on(sigma_terms(op), key), a=(0, 0), module=module)

    def example():
        got = sigma_on(SigmaOp(1, 1, (0, 0), (0, 0)), ((0, 0), 0))
        return (PASS if got.terms == {((1, 0), 0): -2} else FAIL), {"value": str(got)}

    def corner():
        got = sigma_on(SigmaOp(0, 1, (-1, -1), (0, 0)), ((1, 1), 1))
        return (PASS, {}) if got.is_zero() else (FAIL, {"value": str(got)})

    return [
        (
            "sigma-minimal-annihilator",
            "some finite alternating order kills the untwisted module window",
            "bounded-search",
            search,
        ),
        ("sigma-two-term-example", "order-1 operator value on the constant vector", "derived-example", example),
        ("sigma-corner-term", "the corner index contributes nothing", "axiom-sweep", corner),
    ]


def _suite_y_centralizer(max_degree: int, rng) -> list:
    def check(alpha):
        comm = centralizer_check(alpha)
        bad = {name: str(v) for name, v in comm.items() if not v.is_zero()}
        return (PASS, {}) if not bad else (FAIL, bad)

    def inverse_partials():
        probes = [Loc.partial(1, -1), Loc.partial(2, -1)]
        for alpha in y_indices(min(max_degree, 3)):
            y = y_element(alpha)
            for probe in probes:
                comm = probe * y - y * probe
                if not comm.is_zero():
                    return FAIL, {"alpha": list(alpha), "commutator": str(comm)}
        return PASS, {"indices": len(y_indices(min(max_degree, 3)))}

    displays = {
        (1, -1): "L(1,-1)*p1*p2^-1 + 2*d1",
        (-1, 1): "L(-1,1)*p2*p1^-1 - 2*d2",
        (1, 0): "L(1,0)*p1 - L(1,-1)*d2*p1*p2^-1 - d1^2 - d1",
        (0, 1): "L(0,1)*p2 - L(-1,1)*d1*p2*p1^-1 + d2^2 + d2",
    }
    xi_displays = {
        (1, -1): "L(1,-1) + 2*d1",
        (-1, 1): "L(-1,1) - 2*d2",
        (1, 0): "L(1,0) - L(1,-1)*d2 - d1^2 - d1",
        (0, 1): "L(0,1) - L(-1,1)*d1 + d2^2 + d2",
    }
    return [
        *_cases(
            "[p_i, Y_a] = [d_i, Y_a] = 0",
            "axiom-sweep",
            check,
            [(f"commutes-Y{_fmt(alpha)}", alpha) for alpha in y_indices(max_degree)],
        ),
        ("commutes-inverse-partials", "[p_i^-1, Y_a] = 0 in the localization", "axiom-sweep", inverse_partials),
        *_display_cases("display-Y{}", "Y{}", displays, y_element, _parse_loc),
        *_display_cases("display-xi{}", "xi(Y{})", xi_displays, lambda alpha: Loc.from_uenv(xi_y(alpha)), _parse_loc),
    ]


def _suite_g_recurrence(max_degree: int, rng) -> list:
    def check(alpha):
        n = mtotal(alpha)
        for beta in _beta_range(alpha):
            # |b| < |a|, so b + e1 is again in range (and never 0)
            g, g_up = g_poly(alpha, beta), g_poly(alpha, (beta[0] + 1, beta[1]))
            res = g.shift((1, 0)) - g + g_up * (beta[0] + 2)
            if not res.is_zero():
                return FAIL, {"beta": list(beta), "residue": str(res)}
        g0 = g0_poly(alpha)
        g10 = g_poly(alpha, (1, 0)) if n >= 1 else Poly2()
        g1m1 = g_poly(alpha, (1, -1)) if n >= 0 else Poly2()
        res = (
            g0.shift((1, 0))
            - g0
            + (Poly2.variable(1) - Poly2.variable(2)) * g10 * 2
            - g1m1.shift((0, 1)) * 2
        )
        if not res.is_zero():
            return FAIL, {"beta": "0", "residue": str(res)}
        return PASS, {}

    return _cases(
        "g_b(d1+1,d2) - g_b(d1,d2) + (b1+2) g_(b+e1)(d1,d2) = 0 and the tail identity",
        "axiom-sweep",
        check,
        [(f"grec-{_fmt(alpha)}", alpha) for alpha in y_indices(max_degree)],
    )


def _suite_xi_whittaker(max_degree: int, rng) -> list:
    def check(alpha):
        d1_, d2_ = whittaker_stability_defect(alpha)
        if not (d1_.is_zero() and d2_.is_zero()):
            return FAIL, {"defect_p1": str(d1_), "defect_p2": str(d2_)}
        via_y, via_xi = xi_q1_consistency(alpha)
        if via_y != via_xi:
            return FAIL, {"via_y": str(via_y), "via_xi": str(via_xi)}
        return PASS, {}

    return _cases(
        "(p_i - 1) xi(Y_a) v = 0 and both residue routes agree",
        "cross-check",
        check,
        [(f"xiwh-{_fmt(alpha)}", alpha) for alpha in y_indices(max_degree)],
    )


def _suite_pi1_compare(max_degree: int, rng) -> list:
    G = Gl2Poly.gen
    displays = {
        (1, -1): ("-2*E12 + 2*E11", (G(1, 2) * -2 + G(1, 1) * 2)),
        (-1, 1): ("2*E21 - 2*E22", (G(2, 1) * 2 + G(2, 2) * -2)),
        (1, 0): ("2*E12*E22 - E11^2 - E11", (G(1, 2) * G(2, 2) * 2 - G(1, 1) * G(1, 1) - G(1, 1))),
        (0, 1): ("-2*E21*E11 + E22^2 + E22", (G(2, 1) * G(1, 1) * -2 + G(2, 2) * G(2, 2) + G(2, 2))),
    }
    images = dict(displays.values())  # display text -> formal image

    def check(alpha, lam):
        mat_y, mat_pi, equal = wh_action_compare(alpha, lam)
        if equal:
            return PASS, {}
        return FAIL, {"module_route": str(mat_y), "operator_route": str(mat_pi)}

    return [
        *_display_cases(
            "pi1-display{}",
            "pi1(Y{})",
            {alpha: text for alpha, (text, _) in displays.items()},
            pi1,
            lambda text: images[text].normalized(),
        ),
        *_cases(
            "Y on the Whittaker vectors equals its operator image",
            "cross-check",
            check,
            [(f"pi1-module{_fmt(alpha)}-lam{_fmt(lam)}", alpha, lam) for alpha in H_GENERATORS for lam in LAMBDA_GRID],
        ),
    ]


def _suite_y_basis(max_degree: int, rng) -> list:
    def pair():
        return _full(y_basis_probe([(1, -1), (-1, 1)], 1))

    def window():
        return _full(y_basis_probe(y_indices(1), 2))

    def generation():
        found = y_generation_search((1, 1), 3)
        if found is None:
            return INCONCLUSIVE, {"target": "Y(1,1)", "cap": 3}
        readable = {"*".join(f"Y{_fmt(i)}" for i in word) or "1": str(c) for word, c in found.items()}
        return PASS, {"decomposition": readable}

    def generation_self():
        found = y_generation_search((1, -1), 1)
        if found == {((1, -1),): 1}:
            return PASS, {}
        return FAIL, {"found": str(found)}

    return [
        ("ybasis-pair-len1", "ordered monomials in two Y's are independent", "rank-computation", pair),
        ("ybasis-window1-len2", "ordered monomials up to length 2 are independent", "rank-computation", window),
        (
            "ygen-Y(1,1)-cap3",
            "the four distinguished Y's generate the centralizer window",
            "bounded-search",
            generation,
        ),
        ("ygen-generator-itself", "a generator decomposes as itself", "derived-example", generation_self),
    ]


def _table(report: dict) -> dict:
    return {"table": {str(k): list(v) for k, v in report["table"].items()}}


def _suite_closure(max_degree: int, rng) -> list:
    gen_degree = 2

    def constants(a) -> dict:
        # the probe on the constant vector v0 + v1 of T(a, V(1,0))
        module = gl2_simple((1, 0))
        seed = TVector.basis(module, a, (0, 0), 0) + TVector.basis(module, a, (0, 0), 1)
        return closure_probe(seed, max_degree, gen_degree)

    def reducible_case():
        report = constants((1, 1))
        status = PASS if report["proper"] and report["tracked_rank"] > 0 else FAIL
        return status, _table(report)

    def simple(lam, draw):
        module = gl2_simple(lam)
        seed = random_seed_vector(module, (1, 1), random.Random(draw))
        report = closure_probe(seed, max_degree, gen_degree)
        status = PASS if report["full"] else FAIL
        return status, _table(report)

    def untwisted():
        return PASS, _table(constants((0, 0)))

    local = random.Random(rng.randrange(1 << 30))
    return [
        (
            "closure-reducible-point",
            "the distinguished seed generates a proper submodule slice",
            "rank-computation",
            reducible_case,
        ),
        *_cases(
            "a random seed generates the full trusted slice",
            "rank-computation",
            simple,
            [(f"closure-simple-lam{_fmt(lam)}", lam, local.randrange(1 << 30)) for lam in ((1, 1), (2, 0))],
        ),
        (
            "closure-untwisted-slices",
            "slice dimensions of the submodule generated by the constants",
            "recorded-fact",
            untwisted,
        ),
    ]


SUITES = {
    "jacobi": (_suite_jacobi, 4),
    "bracket-crosscheck": (_suite_bracket_crosscheck, 4),
    "divergence": (_suite_divergence, 6),
    "twist": (_suite_twist, 3),
    "phi-hom": (_suite_phi_hom, 3),
    "action-axioms": (_suite_action_axioms, 2),
    "whittaker-dim": (_suite_whittaker_dim, 6),
    "freeness": (_suite_freeness, 4),
    "sigma-annihilation": (_suite_sigma, 6),
    "y-centralizer": (_suite_y_centralizer, 4),
    "g-recurrence": (_suite_g_recurrence, 5),
    "xi-whittaker": (_suite_xi_whittaker, 4),
    "pi1-compare": (_suite_pi1_compare, 2),
    "y-basis": (_suite_y_basis, 1),
    "closure": (_suite_closure, 6),
}


def suite_names() -> list[str]:
    return sorted(SUITES)


def run_suite(name: str, max_degree: int | None = None, seed: int = 0) -> SuiteReport:
    """Execute one suite deterministically; an unknown name or a negative
    degree raises ValueError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(suite_names())}")
    builder, default_degree = SUITES[name]
    degree = default_degree if max_degree is None else max_degree
    if degree < 0:
        raise ValueError(f"max degree must be nonnegative, got {degree}")
    rng = random.Random(seed)
    started = time.perf_counter()
    with run_scope():  # each Y_a and phi(letter) is built once per run
        cases = [
            Case(case_name, anchor, provenance, *thunk())
            for case_name, anchor, provenance, thunk in builder(degree, rng)
        ]
    elapsed_ms = int((time.perf_counter() - started) * 1000)
    return SuiteReport(name, seed, __version__, cases, elapsed_ms)
