"""Finite-dimensional simple gl_2-modules and the degree-zero identification.

The weight basis convention is fixed: with n = lambda1 - lambda2,

    E11 v_k = (lambda1 - k) v_k      E22 v_k = (lambda2 + k) v_k
    E21 v_k = v_(k+1)                E12 v_k = k (n - k + 1) v_(k-1)

(v_(n+1) = 0). The degree-zero part of the nonnegative subalgebra maps onto
gl_2 by L_(0,0) -> E11 - E22, L_(1,-1) -> -2 E12, L_(-1,1) -> 2 E21,
d2 -> E22, and everything of positive degree acts by zero on a simple
finite-dimensional module.

Formal (noncommutative) polynomials in the E_ij are kept as word combinations
with their own PBW normalizer so that algebra identities can be compared
canonically rather than only by matrix evaluation.
"""

from __future__ import annotations

from .base import LinComb, Scalar, as_scalar, linear, terms_str
from .enveloping import pbw_engine
from .lie import D2, letter_alpha, letter_degree

Matrix = tuple[tuple[Scalar, ...], ...]


def mat_zero(n: int) -> Matrix:
    return tuple(tuple(0 for _ in range(n)) for _ in range(n))


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, c) -> Matrix:
    c = as_scalar(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


class Gl2Module:
    """Simple highest weight module with the fixed weight basis above."""

    __slots__ = ("lam", "n", "dim", "E")

    def __init__(self, lam: tuple):
        l1, l2 = as_scalar(lam[0]), as_scalar(lam[1])
        n = l1 - l2
        if n.denominator != 1 or n < 0:
            raise ValueError(f"highest weight difference must be a nonnegative integer, got {n}")
        n = int(n)
        self.lam = (l1, l2)
        self.n = n
        self.dim = n + 1
        e11 = [[0] * self.dim for _ in range(self.dim)]
        e22 = [[0] * self.dim for _ in range(self.dim)]
        e12 = [[0] * self.dim for _ in range(self.dim)]
        e21 = [[0] * self.dim for _ in range(self.dim)]
        for k in range(self.dim):
            e11[k][k] = l1 - k
            e22[k][k] = l2 + k
            if k + 1 <= n:
                e21[k + 1][k] = 1
            if k >= 1:
                e12[k - 1][k] = k * (n - k + 1)
        self.E = {
            (1, 1): tuple(map(tuple, e11)),
            (2, 2): tuple(map(tuple, e22)),
            (1, 2): tuple(map(tuple, e12)),
            (2, 1): tuple(map(tuple, e21)),
        }

    def column(self, ij: tuple[int, int], k: int) -> list[tuple[int, Scalar]]:
        """Nonzero entries of E_ij applied to the k-th basis vector."""
        mat = self.E[ij]
        return [(r, mat[r][k]) for r in range(self.dim) if mat[r][k]]

    # equal highest weights give one module, so they share run-memoized work
    def __eq__(self, other):
        return type(other) is type(self) and self.lam == other.lam

    def __hash__(self):
        return hash(self.lam)

    def __repr__(self):
        return f"Gl2Module(lam={self.lam}, dim={self.dim})"


def gl2_simple(lam: tuple) -> Gl2Module:
    return Gl2Module(lam)


# --- formal noncommutative polynomials in the E_ij -------------------------

GL_LETTERS = ((2, 1), (1, 1), (2, 2), (1, 2))  # PBW order: lowering, Cartan, raising
_GL_RANK = {letter: r for r, letter in enumerate(GL_LETTERS)}


def _gl_letter_bracket(x, y):
    # [E_ij, E_kl] = delta_jk E_il - delta_li E_kj
    (i, j), (k, l) = x, y
    out = []
    if j == k:
        out.append(((i, l), 1))
    if l == i:
        out.append(((k, j), -1))
    return out


_gl_nf = pbw_engine(_gl_letter_bracket, _GL_RANK)


class Gl2Poly(LinComb):
    """Formal polynomial in the E_ij; keys are words of (i, j) pairs."""

    unit_key: tuple = ()

    def _key_mul(self, w1, w2):
        return _gl_nf(w1 + w2).items()

    @classmethod
    def gen(cls, i: int, j: int) -> "Gl2Poly":
        return cls({((i, j),): 1})

    def normalized(self) -> "Gl2Poly":
        """Canonical PBW form (E21 words first, then E11, E22, E12)."""
        return self.one() * self

    def evaluate(self, module: Gl2Module) -> Matrix:
        out = mat_zero(module.dim)
        for word, c in self.terms.items():
            m = mat_identity(module.dim)
            for letter in word:
                m = mat_mul(m, module.E[letter])
            out = mat_add(out, mat_scale(m, c))
        return out

    def __str__(self):
        order = sorted(self.terms, key=lambda w: (len(w), tuple(_GL_RANK[l] for l in w)))
        return terms_str(("*".join(f"E{i}{j}" for i, j in w) or "1", self.terms[w]) for w in order)


_PI_TABLE = {
    (0, 0): Gl2Poly({((1, 1),): 1, ((2, 2),): -1}),
    (1, -1): Gl2Poly({((1, 2),): -2}),
    (-1, 1): Gl2Poly({((2, 1),): 2}),
}


def pi_letter(letter) -> Gl2Poly:
    """Image of one basis letter; positive degree dies, negative is an error."""
    deg = letter_degree(letter)
    if deg < 0:
        raise ValueError("constant fields have no image in gl_2")
    if letter == D2:
        return Gl2Poly.gen(2, 2)
    if deg >= 1:
        return Gl2Poly()
    return _PI_TABLE[letter_alpha(letter)]


def pi_env(u) -> Gl2Poly:
    """Push an enveloping element through the identification word by word;
    any word containing a positive-degree letter is dropped."""

    def image(word) -> Gl2Poly:
        img = Gl2Poly.one()
        for letter in word:
            img = img * pi_letter(letter)
        return img

    return linear(u.items(), image, Gl2Poly._adopt)
