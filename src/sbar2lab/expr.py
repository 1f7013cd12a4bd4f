"""Expression grammar for algebra elements.

Atoms: L(a,b), Y(a,b), t(a,b), d1, d2, d, p1, p2, t1, t2, v0, v1, ...,
rational literals. Operators + - * ^ with integer exponents; a negative
exponent is accepted only on p1/p2. Index ranges are validated while
parsing. The printer emits a canonical form that reparses to the same tree.

One tree, three evaluation contexts: the localized enveloping algebra
(``eval`` and the Y machinery; t and v atoms rejected), the image of the
generator map into (Weyl) x U(nonnegative part) (``phi``; Y, v and negative
powers rejected), and module vectors for closure seeds (t and v atoms only).
"""

from __future__ import annotations

import re

from .base import E1, E2, Poly2, in_phi, linear, madd, qdiv
from .centralizer import is_y_index, y_element
from .enveloping import Loc, UEnv
from .gl2 import Gl2Module
from .lie import PARTIALS, Sbar
from .tmodule import TVector
from .weyl import TensorAlg, phi_poly, phi_sbar


class ParseError(ValueError):
    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} at line {line}, column {col}")
        self.pos = pos
        self.line = line
        self.col = col


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*^(),/]))"
)

_WORD_ATOMS = {"d1", "d2", "d", "p1", "p2", "t1", "t2"}
_INDEXED = {"L", "Y", "t"}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", text, len(text) - len(stripped))
        kind = m.lastgroup  # the token pattern always matches one named group
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", self.text, pos)

    def error(self, message: str):
        raise ParseError(message, self.text, self.peek()[2])

    # expr := term (('+'|'-') term)*
    def expr(self):
        signs = [1]
        terms = [self.term()]
        while self.peek()[1] in ("+", "-"):
            _, op, _ = self.next()
            signs.append(1 if op == "+" else -1)
            terms.append(self.term())
        if len(terms) == 1:
            return terms[0]
        return ("sum", tuple(zip(signs, terms)))

    # term := factor ('*' factor)*
    def term(self):
        factors = [self.factor()]
        while self.peek()[1] == "*":
            self.next()
            factors.append(self.factor())
        if len(factors) == 1:
            return factors[0]
        return ("mul", tuple(factors))

    # factor := primary ('^' int)?
    def factor(self):
        base = self.primary()
        if self.peek()[1] == "^":
            self.next()
            exp = self.signed_int()
            if exp < 0 and base != ("atom", "p1", ()) and base != ("atom", "p2", ()):
                self.error("negative exponents are admitted only on p1/p2")
            return ("pow", base, exp)
        return base

    def signed_int(self) -> int:
        sign = 1
        if self.peek()[1] == "-":
            self.next()
            sign = -1
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("expected an integer", self.text, pos)
        return sign * int(val)

    # primary := '(' expr ')' | '-' primary | atom | rational
    def primary(self):
        kind, val, pos = self.peek()
        if val == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        if val == "-":
            self.next()
            return ("neg", self.primary())
        if kind == "num":
            self.next()
            if self.peek()[1] == "/":
                self.next()
                denom_kind, denom, dpos = self.next()
                if denom_kind != "num" or int(denom) == 0:
                    raise ParseError("expected a nonzero denominator", self.text, dpos)
                return ("num", qdiv(int(val), int(denom)))
            return ("num", int(val))
        if kind == "name":
            self.next()
            if val in _INDEXED and self.peek()[1] == "(":
                self.expect("(")
                a = self.signed_int()
                self.expect(",")
                b = self.signed_int()
                self.expect(")")
                self._check_index(val, (a, b), pos)
                return ("atom", val, (a, b))
            if val in _WORD_ATOMS:
                return ("atom", val, ())
            if re.fullmatch(r"v\d+", val):
                return ("atom", "v", (int(val[1:]),))
            raise ParseError(f"unknown atom {val!r}", self.text, pos)
        raise ParseError(f"unexpected token {val!r}", self.text, pos)

    def _check_index(self, name: str, idx, pos: int):
        if name == "L" and not in_phi(idx):
            raise ParseError(f"L index {idx} outside the allowed range", self.text, pos)
        if name == "Y" and not is_y_index(idx):
            raise ParseError(f"Y index {idx} outside the allowed range", self.text, pos)
        if name == "t" and (idx[0] < 0 or idx[1] < 0):
            raise ParseError(f"t exponent {idx} must be nonnegative", self.text, pos)

    def parse(self):
        tree = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input {val!r}", self.text, pos)
        return tree


def parse_element(text: str):
    """Parse to an AST; raises ParseError with position on bad input."""
    return _Parser(text).parse()


def print_element(ast) -> str:
    """Canonical text form; parse(print(parse(s))) == parse(s)."""
    kind = ast[0]
    if kind == "num":
        return str(ast[1])
    if kind == "atom":
        name, args = ast[1], ast[2]
        if name == "v":
            return f"v{args[0]}"
        if args:
            return f"{name}({args[0]},{args[1]})"
        return name
    if kind == "neg":
        # a bare nested neg re-parses as itself; sums, products and powers
        # would bind differently without parentheses
        return f"-{_wrap(ast[1], ('sum', 'mul', 'pow'))}"
    if kind == "pow":
        return f"{_wrap(ast[1], ('sum', 'mul', 'pow', 'neg'))}^{ast[2]}"
    if kind == "mul":
        return "*".join(_wrap(f, ("sum", "mul", "neg")) for f in ast[1])
    if kind == "sum":
        parts = []
        for pos_, (sign, term) in enumerate(ast[1]):
            body = _wrap(term, ("sum",) if sign > 0 else ("sum", "mul", "neg"))
            if pos_ == 0:
                parts.append(body if sign > 0 else f"-{body}")
            else:
                parts.append(("+ " if sign > 0 else "- ") + body)
        return " ".join(parts)
    raise ValueError(f"malformed tree node {ast!r}")


def _wrap(ast, needs_parens: tuple) -> str:
    text = print_element(ast)
    if ast[0] in needs_parens:
        return f"({text})"
    return text


def _fold(ast, atom_fn, scalar_fn, neg_pow=None):
    """Shared tree walk: atom_fn produces values, scalar_fn embeds rationals
    (``scalar_fn(1)`` is the unit); values must support + - * and integer
    powers. Negative powers (possible only on p1/p2 after parsing) go through
    ``neg_pow`` where supported."""
    kind = ast[0]
    if kind == "num":
        return scalar_fn(ast[1])
    if kind == "atom":
        return atom_fn(ast[1], ast[2])
    if kind == "neg":
        return _fold(ast[1], atom_fn, scalar_fn, neg_pow) * -1
    if kind == "pow":
        exp = ast[2]
        if exp < 0:
            if neg_pow is None:
                raise ValueError("negative powers have no meaning in this context")
            return neg_pow(ast[1][1], exp)
        base = _fold(ast[1], atom_fn, scalar_fn, neg_pow)
        out = scalar_fn(1)
        for _ in range(exp):
            out = out * base
        return out
    if kind == "mul":
        out = scalar_fn(1)
        for f in ast[1]:
            out = out * _fold(f, atom_fn, scalar_fn, neg_pow)
        return out
    if kind == "sum":
        out = None
        for sign, term in ast[1]:
            v = _fold(term, atom_fn, scalar_fn, neg_pow) * sign
            out = v if out is None else out + v
        return out
    raise ValueError(f"malformed tree node {ast!r}")


#: the algebra's named atoms; each evaluation context maps them through its
#: own embedding (p1 and p2 are the constant fields ``lie.PARTIALS``)
_ALGEBRA_ATOMS = {"d1": Sbar.d1(), "d2": Sbar.d2(), "d": Sbar.d(), "p1": PARTIALS[1], "p2": PARTIALS[2]}


def _algebra_atom(name, args) -> Sbar | None:
    """The algebra element an atom names, or None when it names none."""
    return Sbar.L(args) if name == "L" else _ALGEBRA_ATOMS.get(name)


def _poly_atom(name, args) -> Poly2 | None:
    """The monomial a t atom (t(a,b), t1 or t2) names, or None when it names none."""
    exp = args if name == "t" else {"t1": E1, "t2": E2}.get(name)
    return None if exp is None else Poly2.monomial(exp)


def eval_loc(ast) -> Loc:
    """Evaluate in the localized enveloping algebra."""

    def atom(name, args):
        if name == "Y":
            return y_element(args)
        x = _algebra_atom(name, args)
        if x is None:
            raise ValueError(f"atom {name} has no meaning in the enveloping algebra")
        return Loc.from_uenv(UEnv.from_sbar(x))

    def neg_pow(name, exp):
        return Loc.partial(1 if name == "p1" else 2, exp)

    return _fold(ast, atom, lambda c: Loc.one() * c, neg_pow)


def eval_phi(ast) -> TensorAlg:
    """Evaluate the image of the expression under the generator map."""

    def atom(name, args):
        p = _poly_atom(name, args)
        if p is not None:
            return phi_poly(p)
        x = _algebra_atom(name, args)
        if x is None:
            raise ValueError(f"atom {name} has no image under the generator map")
        return phi_sbar(x)

    return _fold(ast, atom, lambda c: TensorAlg.one() * c)


class _SeedValue:
    """Either a polynomial or a module vector during seed evaluation."""

    __slots__ = ("poly", "vec")

    def __init__(self, poly=None, vec=None):
        self.poly = poly
        self.vec = vec

    def __add__(self, other):
        if (self.poly is None) != (other.poly is None):
            raise ValueError("cannot add a polynomial to a module vector")
        if self.poly is not None:
            return _SeedValue(poly=self.poly + other.poly)
        return _SeedValue(vec=self.vec + other.vec)

    def __mul__(self, other):
        if isinstance(other, int):
            other = _SeedValue(poly=Poly2.const(other))
        if self.poly is not None and other.poly is not None:
            return _SeedValue(poly=self.poly * other.poly)
        if self.vec is not None and other.vec is not None:
            raise ValueError("module vectors cannot be multiplied together")
        poly = self.poly if self.poly is not None else other.poly
        vec = self.vec if self.vec is not None else other.vec

        def image(exp):
            return {(madd(b, exp), k): c for (b, k), c in vec.items()}

        return _SeedValue(vec=linear(poly.items(), image, vec._new))


def eval_seed(ast, module: Gl2Module, a) -> TVector:
    """Evaluate a module-vector expression (t atoms and v atoms)."""

    def atom(name, args):
        p = _poly_atom(name, args)
        if p is not None:
            return _SeedValue(poly=p)
        if name == "v":
            return _SeedValue(vec=TVector.basis(module, a, (0, 0), args[0]))
        raise ValueError(f"atom {name} has no meaning in a module vector")

    value = _fold(ast, atom, lambda c: _SeedValue(poly=Poly2.const(c)))
    if value.vec is None:
        raise ValueError("seed expression contains no module basis vector")
    return value.vec
