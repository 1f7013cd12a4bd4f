"""Polynomial vector fields on the plane and the constant-divergence algebra.

Two realizations of the same algebra live here. ``VectorField`` is concrete:
a sparse sum of monomial fields t^a d/dt_i with the classical Witt bracket.
``Sbar`` is abstract: coordinates in the basis {d2} u {L_a}, where

    L_a = (1 + a2) t^(a+e1) d/dt_1 - (1 + a1) t^(a+e2) d/dt_2

for a in Z^2_{>=-1} minus the corner (-1,-1), with the determinant structure
constants. d1 is not a basis letter; it is the combination L_(0,0) + d2, and
d = L_(0,0) + 2 d2. The two bracket routes are independent implementations
and the test suite cross-checks them exhaustively on degree windows.

Letters are encoded as order-carrying 4-tuples so that plain tuple comparison
gives the PBW order used by the enveloping-algebra module: d2 first, then
L(a) with |a| >= 0 sorted by (|a|, a1, a2), then L(-1,0) (= d/dt_1), then
L(0,-1) (= -d/dt_2) last.
"""

from __future__ import annotations

from .base import (
    E1,
    E2,
    LinComb,
    MultiIndex,
    Poly2,
    accumulate,
    as_scalar,
    bilinear,
    bilinear_sum,
    in_phi,
    is_nonneg,
    linear,
    madd,
    msub,
    mtotal,
    qdiv,
    terms_str,
)

Letter = tuple[int, int, int, int]

#: the basis letter d2 = t2 d/dt_2
D2: Letter = (0, 0, 0, 0)


def L_letter(alpha: MultiIndex) -> Letter:
    """Encode the basis letter L_alpha; raises when alpha is outside the index set."""
    if not in_phi(alpha):
        raise ValueError(f"index {alpha} outside Z^2_(>=-1) \\ {{(-1,-1)}}")
    deg = mtotal(alpha)
    if deg >= 0:
        return (1, deg, alpha[0], alpha[1])
    return (2, 0, -1, 0) if alpha == (-1, 0) else (3, 0, 0, -1)


#: the two degree -1 letters, i.e. the constant fields
P1_LETTER: Letter = L_letter((-1, 0))   # d/dt_1
P2_LETTER: Letter = L_letter((0, -1))   # equals minus d/dt_2


def l_indices(lo: int, hi: int) -> list[MultiIndex]:
    """The L-indices a with max(lo, -1) <= |a| <= hi, in (|a|, a1) order; a1
    runs from -1 to |a| + 1, so a2 >= -1 and the corner never occurs."""
    return [(a1, g - a1) for g in range(max(lo, -1), hi + 1) for a1 in range(-1, g + 2)]


def letter_window(d: int) -> list[Letter]:
    """The letters of degree <= d: d2, then L_a with -1 <= |a| <= d in ``l_indices`` order."""
    return [D2] + [L_letter(alpha) for alpha in l_indices(-1, d)]


def letter_alpha(letter: Letter) -> MultiIndex | None:
    """The L-index of a letter, or None for d2."""
    if letter == D2:
        return None
    return (letter[2], letter[3])


def letter_degree(letter: Letter) -> int:
    """Grading degree: 0 for d2, |a| for L_a."""
    if letter == D2:
        return 0
    return letter[2] + letter[3]


def letter_str(letter: Letter) -> str:
    if letter == D2:
        return "d2"
    a = letter_alpha(letter)
    return f"L({a[0]},{a[1]})"


def letter_bracket(x: Letter, y: Letter) -> list[tuple[Letter, int]]:
    """[x, y] as a list of (letter, integer coefficient).

    On L-letters this is the determinant rule; when the indices sum to the
    corner (-1,-1) the result is the boundary element of the defining family,
    which is the zero vector field, so the bracket is 0 even though the
    determinant itself is nonzero there.
    """
    if x == D2 and y == D2:
        return []
    if x == D2:
        a = letter_alpha(y)
        return [(y, a[1])] if a[1] else []
    if y == D2:
        a = letter_alpha(x)
        return [(x, -a[1])] if a[1] else []
    a, b = letter_alpha(x), letter_alpha(y)
    det = (1 + a[1]) * (1 + b[0]) - (1 + a[0]) * (1 + b[1])
    if det == 0:
        return []
    s = madd(a, b)
    if s == (-1, -1):
        return []
    return [(L_letter(s), det)]


class VectorField(LinComb):
    """Sparse sum of monomial fields; keys are (exponent in Z_+^2, direction 1|2)."""

    @classmethod
    def monomial(cls, exp: MultiIndex, i: int, c=1) -> "VectorField":
        if not is_nonneg(exp):
            raise ValueError(f"field exponent must be nonnegative, got {exp}")
        if i not in (1, 2):
            raise ValueError(f"direction must be 1 or 2, got {i}")
        return cls({(exp, i): as_scalar(c)})

    @classmethod
    def partial(cls, i: int) -> "VectorField":
        return cls.monomial((0, 0), i)

    @classmethod
    def euler(cls, i: int) -> "VectorField":
        """d_i = t_i d/dt_i."""
        return cls.monomial(E1 if i == 1 else E2, i)

    def __str__(self):
        def body(exp, i):
            mono = Poly2.monomial(exp).to_str()
            return f"p{i}" if mono == "1" else f"{mono}*p{i}"

        order = sorted(self.terms, key=lambda k: (mtotal(k[0]), k[0], k[1]))
        return terms_str((body(*key), self.terms[key]) for key in order)


def _vf_key_bracket(k1, k2):
    ((a1, a2), i), ((b1, b2), j) = k1, k2
    out = []
    c1 = b1 if i == 1 else b2
    if c1:
        out.append((((a1 + b1 - 1, a2 + b2) if i == 1 else (a1 + b1, a2 + b2 - 1), j), c1))
    c2 = a1 if j == 1 else a2
    if c2:
        out.append((((a1 + b1 - 1, a2 + b2) if j == 1 else (a1 + b1, a2 + b2 - 1), i), -c2))
    return out


def vf_bracket(x: VectorField, y: VectorField) -> VectorField:
    """[t^a d_i, t^b d_j] = b_i t^(a+b-e_i) d_j - a_j t^(a+b-e_j) d_i, bilinearly."""
    return bilinear(x, y, _vf_key_bracket, VectorField._adopt)


def vf_bracket_sum(pairs) -> VectorField:
    """The sum of [x, y] over the ``(x, y)`` field pairs, built once."""
    return bilinear_sum(pairs, _vf_key_bracket, VectorField._adopt)


def apply_to_poly(x: VectorField, p: Poly2) -> Poly2:
    """Derivation action of the field on a polynomial in t1, t2."""
    return linear(x.items(), lambda key: Poly2.monomial(key[0]) * p.diff(key[1]), Poly2._adopt)


def divergence(x: VectorField) -> Poly2:
    """d/dt_1(p_1) + d/dt_2(p_2); constant iff the field is in the algebra."""
    return linear(x.items(), lambda key: Poly2.monomial(key[0]).diff(key[1]), Poly2._adopt)


def l_basis(alpha: MultiIndex) -> VectorField:
    """The spanning field L_alpha; terms whose coefficient vanishes are dropped."""
    L_letter(alpha)  # validates the index
    out = []
    c1 = 1 + alpha[1]
    if c1:
        out.append(((madd(alpha, E1), 1), c1))
    c2 = -(1 + alpha[0])
    if c2:
        out.append(((madd(alpha, E2), 2), c2))
    return VectorField(out)


class Sbar(LinComb):
    """Element of the constant-divergence algebra in the {d2} u {L_a} basis."""

    @classmethod
    def d2(cls) -> "Sbar":
        return cls({D2: 1})

    @classmethod
    def L(cls, alpha: MultiIndex) -> "Sbar":
        return cls({L_letter(alpha): 1})

    @classmethod
    def d1(cls) -> "Sbar":
        return cls({L_letter((0, 0)): 1, D2: 1})

    @classmethod
    def d(cls) -> "Sbar":
        return cls({L_letter((0, 0)): 1, D2: 2})

    def __str__(self):
        return terms_str((letter_str(letter), self.terms[letter]) for letter in sorted(self.terms))


#: the constant fields d/dt_1 = L(-1,0) and d/dt_2 = -L(0,-1); with ``Sbar.d1``
#: this is the one place their letters and signs are written out
PARTIALS = {1: Sbar({P1_LETTER: 1}), 2: Sbar({P2_LETTER: -1})}


def sbar_bracket(x: Sbar, y: Sbar) -> Sbar:
    return bilinear(x, y, letter_bracket, Sbar._adopt)


def sbar_bracket_sum(pairs) -> Sbar:
    """The sum of [x, y] over the ``(x, y)`` pairs, built once: a cyclic sum
    such as the Jacobi expression is one element, not three added."""
    return bilinear_sum(pairs, letter_bracket, Sbar._adopt)


def _letter_field(letter: Letter) -> VectorField:
    return VectorField.euler(2) if letter == D2 else l_basis(letter_alpha(letter))


def sbar_to_vf(x: Sbar) -> VectorField:
    return linear(x.items(), _letter_field, VectorField._adopt)


def vf_to_sbar(x: VectorField) -> Sbar:
    """Express a constant-divergence field in the basis; rejects anything else.

    Peels d/dt_1 monomials (each is hit by exactly one L letter), then matches
    the pure d/dt_2 remainder against the L_(k,-1) family and d2.
    """
    coords: dict = {}
    remainder = dict(x.terms)
    for (exp, i), c in list(remainder.items()):
        if i != 1:
            continue
        alpha = msub(exp, E1)
        lead = qdiv(c, 1 + alpha[1])
        accumulate(coords, L_letter(alpha), lead)
        for key, cc in (l_basis(alpha) * -lead).terms.items():
            accumulate(remainder, key, cc)
    for (exp, i), c in remainder.items():
        if exp == E2:  # t2 d/dt_2 = d2
            accumulate(coords, D2, c)
        elif exp[1] == 0:  # t1^k d/dt_2 = -L_(k,-1)/(k+1)
            accumulate(coords, L_letter((exp[0], -1)), -qdiv(c, exp[0] + 1))
        else:
            div = divergence(x)
            detail = "non-constant divergence" if div.degree() > 0 else f"stray term t^{exp}*p2"
            raise ValueError(f"field is not in the constant-divergence algebra: {detail}")
    return Sbar(coords)


def scaling_twist(a: tuple, x: VectorField) -> VectorField:
    """Diagonal automorphism t^b d_j -> a_j a1^(-b1) a2^(-b2) t^b d_j, a_i nonzero."""
    a1, a2 = as_scalar(a[0]), as_scalar(a[1])
    if not a1 or not a2:
        raise ValueError("scale factors must be nonzero")
    out = {}
    for (exp, j), c in x.terms.items():
        factor = qdiv(a1 if j == 1 else a2, a1 ** exp[0] * a2 ** exp[1])
        out[(exp, j)] = c * factor
    return VectorField(out)


#: iteration cap of every ad-expansion and inverse series; exceeding it is a bug
_AD_CAP = 64


class NilpotencyGuardError(RuntimeError):
    """An ad-expansion or inverse series exceeded its iteration cap (a bug)."""


def unipotent_twist(c, x: VectorField) -> VectorField:
    """exp(c ad(t2 d/dt_1)) applied to x; the series is finite and guarded."""
    c = as_scalar(c)
    shear = VectorField.monomial(E2, 1)
    out = x
    term = x
    k = 1
    coeff = 1
    while True:
        term = vf_bracket(shear, term)
        if term.is_zero():
            return out
        coeff = qdiv(coeff * c, k)
        out = out + term * coeff
        k += 1
        if k > _AD_CAP:
            raise NilpotencyGuardError("unipotent twist failed to terminate; this is a bug")
