"""Exact scalars, multi-indices, bivariate polynomials, and linear combinations.

Everything in the package is computed exactly over the rationals. A scalar
is a Python ``int`` when it is integral and a ``fractions.Fraction`` only
when it is not; no floats are accepted anywhere, and every quotient goes
through ``qdiv``, so every equality test downstream is exact. Multi-indices
are plain ``(int, int)`` tuples and each consuming operation enforces its
own range at its boundary.

``linear`` and ``bilinear_sum`` are the one linear and the one bilinear
extension: each sums its terms in one dict and builds the result once, and
``bilinear_sum`` takes a list of operand pairs, so a sum of products such as
a Jacobi cyclic sum is one element; ``bilinear`` is its one-pair call.

``run_memo`` memoizes a function on its positional arguments while a
``run_scope`` is open (``suites.run_suite`` opens one around its cases);
outside a scope every call computes afresh, so no result outlives a run.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from fractions import Fraction

Scalar = int | Fraction

MultiIndex = tuple[int, int]

E1: MultiIndex = (1, 0)
E2: MultiIndex = (0, 1)


def as_scalar(x) -> Scalar:
    """Coerce an int or Fraction to a Scalar: an int when the value is
    integral, a Fraction otherwise; reject anything inexact."""
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def qdiv(a, b) -> Scalar:
    """The exact quotient a / b of two scalars: an int when b divides a, a
    Fraction otherwise. This is the package's only division; like
    ``as_scalar`` it rejects floats."""
    return as_scalar(Fraction(a, b))


_scope_memo: dict | None = None  # (function, args) -> result, in the open run scope


@contextmanager
def run_scope():
    """A scope in which ``run_memo`` results are kept; the memo is dropped on
    exit, also when the body raises."""
    global _scope_memo
    outer, _scope_memo = _scope_memo, {}
    try:
        yield
    finally:
        _scope_memo = outer


def run_memo(fn):
    """Memoize ``fn`` on its positional arguments while a ``run_scope`` is open."""

    @functools.wraps(fn)
    def wrapper(*args):
        if _scope_memo is None:
            return fn(*args)
        try:
            return _scope_memo[fn, args]
        except KeyError:
            result = _scope_memo[fn, args] = fn(*args)
            return result

    return wrapper


def accumulate(acc: dict, key, c) -> None:
    """Add ``c`` to ``acc[key]``, dropping the key when the sum is zero."""
    s = acc.get(key, 0) + c
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def terms_str(pairs) -> str:
    """Print sorted ``(body, coefficient)`` pairs as a signed sum.

    A body of "1" prints as its bare coefficient; a body containing spaces is
    compound, so a coefficient other than +-1 brackets it.
    """
    parts = []
    for body, c in pairs:
        if body == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        elif " " in body:
            parts.append(f"{c}*[{body}]")
        else:
            parts.append(f"{c}*{body}")
    if not parts:
        return "0"
    return " + ".join(parts).replace("+ -", "- ")


def comb0(n: int, k: int) -> int:
    """Binomial coefficient with C(n, k) = 0 whenever k < 0 or k > n."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def gbinom(m: int, k: int) -> int:
    """C(m, k) for integer m of either sign, k >= 0; C(-n, k) = (-1)^k C(n+k-1, k)."""
    if k < 0:
        raise ValueError("lower binomial index must be nonnegative")
    if m >= 0:
        return comb0(m, k)
    return (-1) ** k * math.comb(-m + k - 1, k)


def binom2(upper: MultiIndex, lower: MultiIndex) -> int:
    """Componentwise product C(u1, l1) C(u2, l2), zero outside the range."""
    return comb0(upper[0], lower[0]) * comb0(upper[1], lower[1])


def madd(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return (a[0] + b[0], a[1] + b[1])


def msub(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return (a[0] - b[0], a[1] - b[1])


def mtotal(a: MultiIndex) -> int:
    return a[0] + a[1]


def is_nonneg(a: MultiIndex) -> bool:
    return a[0] >= 0 and a[1] >= 0


def exponents(d: int) -> list[MultiIndex]:
    """The exponents b in Z_+^2 with |b| <= d, in (|b|, b1) order."""
    return [(b1, g - b1) for g in range(d + 1) for b1 in range(g + 1)]


def in_phi(a: MultiIndex) -> bool:
    """Membership in the index set Z^2_{>=-1} minus the corner (-1,-1)."""
    return a[0] >= -1 and a[1] >= -1 and a != (-1, -1)


class LinComb:
    """Immutable finite linear combination of hashable keys over the rationals.

    Subclasses fix the key shape (monomial fields, PBW words, ...) and, when
    the keys multiply, provide ``_key_mul``. Addition, scalar action and
    equality are shared. Zero coefficients are never stored.
    """

    __slots__ = ("terms",)

    #: key of the multiplicative unit, for subclasses with a product
    unit_key = None

    def __init__(self, terms=()):
        acc: dict = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, c in items:
            c = as_scalar(c)
            # a first occurrence needs no sum, so it skips the call
            if key in acc:
                accumulate(acc, key, c)
            elif c:
                acc[key] = c
        self._own(acc)

    def _own(self, terms: dict) -> None:
        """Store ``terms``, a dict of nonzero values, as this combination's own,
        coercing each value that is not an int: a sum of Fractions can be integral."""
        for key, c in terms.items():
            if type(c) is not int:
                terms[key] = as_scalar(c)
        self.terms = terms

    @classmethod
    def _adopt(cls, terms: dict):
        """The no-copy constructor: ``terms`` is a dict the caller owns and hands over."""
        out = cls.__new__(cls)
        out._own(terms)
        return out

    # subclasses carrying metadata override this construction hook
    _new = _adopt

    @classmethod
    def one(cls):
        if cls.unit_key is None:
            raise TypeError(f"{cls.__name__} has no multiplicative unit")
        return cls({cls.unit_key: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def items(self):
        return self.terms.items()

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        merged = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(merged, key, c)
        return self._new(merged)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        merged = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(merged, key, -c)
        return self._new(merged)

    def __neg__(self):
        return self._new({k: -c for k, c in self.terms.items()})

    def _scale(self, c):
        c = as_scalar(c)
        if not c:
            return self._new({})
        return self._new({k: c * v for k, v in self.terms.items()})

    def _key_mul(self, k1, k2):
        raise TypeError(f"{type(self).__name__} has no product")

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        if type(other) is type(self):
            return bilinear(self, other, self._key_mul, self._new)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return NotImplemented

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((type(self).__name__, frozenset(self.terms.items())))

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


def linear(pairs, image, out):
    """Linear extension of ``image(key)``, an element or dict of terms: the sum
    of c * image(key) over the ``(key, c)`` pairs, built once by ``out``."""
    acc: dict = {}
    for key, c in pairs:
        for k, f in image(key).items():
            accumulate(acc, k, c * f)
    return out(acc)


def bilinear_sum(pairs, key_fn, out):
    """Bilinear extension of ``key_fn(k1, k2) -> iterable[(key, factor)]``
    summed over the ``(x, y)`` operand pairs: every product goes into one
    accumulator, and the sum is built once by ``out``, as in ``linear``."""
    acc: dict = {}
    for x, y in pairs:
        right = y.terms.items()
        for k1, c1 in x.terms.items():
            for k2, c2 in right:
                c = c1 * c2
                for key, f in key_fn(k1, k2):
                    accumulate(acc, key, c * f)
    return out(acc)


def bilinear(x: LinComb, y: LinComb, key_fn, out):
    """The bilinear extension on one operand pair: ``bilinear_sum`` of ``(x, y)``."""
    return bilinear_sum(((x, y),), key_fn, out)


class Poly2(LinComb):
    """Commutative polynomial in two symbols, keys = bidegrees in Z_+^2.

    The same representation serves polynomials in t1, t2 (vector field
    coefficients, divergences) and in d1, d2 (the coefficient polynomials of
    the centralizer elements); only the print symbols differ.
    """

    unit_key = (0, 0)

    def _key_mul(self, k1, k2):
        return ((madd(k1, k2), 1),)

    @classmethod
    def const(cls, c) -> "Poly2":
        return cls({(0, 0): as_scalar(c)})

    @classmethod
    def monomial(cls, exp: MultiIndex, c=1) -> "Poly2":
        if not is_nonneg(exp):
            raise ValueError(f"monomial exponent must be nonnegative, got {exp}")
        return cls({exp: as_scalar(c)})

    @classmethod
    def variable(cls, i: int) -> "Poly2":
        return cls.monomial(E1 if i == 1 else E2)

    def shift(self, delta: MultiIndex) -> "Poly2":
        """Substitute (x, y) -> (x + delta1, y + delta2), expanded exactly."""
        out = []
        d1, d2 = as_scalar(delta[0]), as_scalar(delta[1])
        for (i, j), c in self.terms.items():
            for k in range(i + 1):
                for l in range(j + 1):
                    out.append(((k, l), c * comb0(i, k) * comb0(j, l) * d1 ** (i - k) * d2 ** (j - l)))
        return Poly2(out)

    def diff(self, i: int) -> "Poly2":
        out = []
        for exp, c in self.terms.items():
            e = exp[i - 1]
            if e > 0:
                out.append((msub(exp, E1 if i == 1 else E2), c * e))
        return Poly2(out)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mtotal(e) for e in self.terms)

    def to_str(self, sym1: str = "t1", sym2: str = "t2") -> str:
        def body(exp):
            factors = []
            for s, e in ((sym1, exp[0]), (sym2, exp[1])):
                if e == 1:
                    factors.append(s)
                elif e > 1:
                    factors.append(f"{s}^{e}")
            return "*".join(factors) or "1"

        order = sorted(self.terms, key=lambda e: (mtotal(e), e))
        return terms_str((body(e), self.terms[e]) for e in order)

    def __str__(self):
        return self.to_str()

