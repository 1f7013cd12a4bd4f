"""Whittaker tensor modules with exact truncated actions.

A module vector is a finite combination of t^b x v_k over the polynomial
exponents b and the weight basis of a fixed simple gl_2-module; it carries
its type vector a. A basis letter x acts through its generator image phi(x) in
(Weyl) x U(nonnegative part): each Weyl term acts on the polynomial factor,
each residual t^r x L as t^r times pi(L) on v, with pi the degree-zero
identification of ``gl2``. Read off phi and the pi table, that is

    L_a (p x v) = L_a p x v + (1+a1)(1+a2) t^a p x (E11 - E22) v
                + a2 (1+a2) t^(a+e1-e2) p x E21 v
                - a1 (1+a1) t^(a+e2-e1) p x E12 v
    d2  (p x v) = d2 p x v + p x E22 v

where the polynomial factor is acted on with d/dt_i shifted by a_i. Whenever
one of the exponent shifts leaves Z_+^2 its scalar prefactor vanishes, so the
displayed formula needs no boundary cases. The constant fields are letters
too, and d/dt_i is the element ``lie.PARTIALS[i]``. Each letter's action is
compiled once per run (``base.run_memo``) against its module and type vector,
and ``_act_terms`` is the one loop applying it to term dicts: ``act_letter``
on one letter, ``act_sbar`` on a Lie element, with one vector per call, and
``BasisImages`` on basis keys, whose images it keeps for one check or one
search under small int key ids; the action is linear, so they determine
every letter product, and ``pairs_on`` sums those products over the ids.
The rank probes (``closure_probe``, ``joint_kernel``, ``uh_freeness_check``)
fetch their letters' kernels once per call and apply them with
``_act_terms`` on plain term dicts, which go straight into ``EchelonSpan``.
The degree slices (``slice_keys``) and the random seed window take their
exponents from ``base.exponents``. Degree-lowering operators act exactly;
the closure probe closes a span over its own rows inside a degree window and
reports dimensions only where the cap cannot have discarded contributions.
"""

from __future__ import annotations

from collections import defaultdict

from .base import (
    E1, E2, LinComb, MultiIndex, Poly2, accumulate, as_scalar, comb0, exponents, linear, madd, msub, mtotal, run_memo,
    terms_str,
)
from .enveloping import Loc, Word, loc_act
from .gl2 import Gl2Module, pi_letter
from .lie import D2, PARTIALS, L_letter, Letter, Sbar, l_indices, letter_degree
from .linalg import EchelonSpan, nullspace
from .weyl import phi_letter

TKey = tuple[MultiIndex, int]  # (polynomial exponent, weight basis index)


def _type_vector(a) -> tuple:
    return (as_scalar(a[0]), as_scalar(a[1]))


class TVector(LinComb):
    """Module vector; carries the type vector and the module descriptor."""

    __slots__ = ("a", "module")

    def __init__(self, terms=(), *, a, module: Gl2Module):
        super().__init__(terms)
        self.a = _type_vector(a)
        self.module = module

    def _new(self, terms):
        # self.a is coerced already, so it is copied, not coerced again
        out = self._adopt(terms)
        out.a = self.a
        out.module = self.module
        return out

    @classmethod
    def basis(cls, module: Gl2Module, a, beta: MultiIndex, k: int) -> "TVector":
        if not (0 <= k < module.dim):
            raise ValueError(f"weight index {k} out of range for dim {module.dim}")
        if beta[0] < 0 or beta[1] < 0:
            raise ValueError(f"polynomial exponent must be nonnegative, got {beta}")
        return cls({(beta, k): 1}, a=a, module=module)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.terms, self.a, self.module) == (other.terms, other.a, other.module)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.a, self.module))

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(mtotal(b) for b, _ in self.terms)

    def __str__(self):
        def body(beta, k):
            mono = Poly2.monomial(beta).to_str()
            return f"v{k}" if mono == "1" else f"{mono}*v{k}"

        order = sorted(self.terms, key=lambda key: (mtotal(key[0]), key[0], key[1]))
        return terms_str((body(*key), self.terms[key]) for key in order)


def _letter_recipe(letter: Letter):
    """Read the recipe off phi(letter): a Weyl term t^gamma d_i x 1 is a field
    entry, and a residual t^r x L is one gl entry per term of pi(L), so a
    positive-degree residual gives none."""
    fields, gl = [], []
    for ((gamma, d_exp), word), c in phi_letter(letter).items():
        if word:
            (residual,) = word
            gl.extend((gamma, ij, c * g) for (ij,), g in pi_letter(residual).items())
        else:
            fields.append((gamma, 1 if d_exp[0] else 2, c))
    return fields, gl


@run_memo
def _letter_kernel(letter: Letter, module: Gl2Module, a) -> tuple:
    """The letter's action on T(a, V), compiled from its recipe once per run:
    derivative entries (i, gamma - e_i, f), each scaled by beta_i, and per
    weight index k the merged constant entries (shift, kk, coeff) of the twist
    and gl parts, stored flat in lists, four numbers an entry. A dropped kernel
    then frees its memory instead of parking tuples on the free lists."""
    fields, gl = _letter_recipe(letter)
    derivs = [x for gamma, i, f in fields for x in (i - 1, *msub(gamma, E1 if i == 1 else E2), f)]
    consts = []
    for k in range(module.dim):
        merged: dict = {}
        for gamma, i, f in fields:
            accumulate(merged, (*gamma, k), f * a[i - 1])
        for shift, ij, g in gl:
            for kk, m in module.column(ij, k):
                accumulate(merged, (*shift, kk), g * m)
        consts.append([x for key, c in merged.items() for x in (*key, as_scalar(c))])
    return derivs, tuple(consts)


def _act_terms(kernel: tuple, terms: dict) -> dict:
    """The terms of a compiled letter applied to the combination ``terms``."""
    derivs, consts = kernel
    out: dict = {}
    for ((b1, b2), k), c in terms.items():
        it = iter(derivs)
        for i, s1, s2, f in zip(it, it, it, it):
            e = b2 if i else b1
            if e:
                accumulate(out, ((b1 + s1, b2 + s2), k), c * f * e)
        it = iter(consts[k])
        for s1, s2, kk, g in zip(it, it, it, it):
            accumulate(out, ((b1 + s1, b2 + s2), kk), c * g)
    return out


def act_letter(letter: Letter, w: TVector) -> TVector:
    return w._new(_act_terms(_letter_kernel(letter, w.module, w.a), w.terms))


class BasisImages:
    """Letter images of basis keys on T(a, V) for one module and type vector,
    memoized for the lifetime of one check or one search in one table per
    letter. Every basis key reached gets a small int id, so a table maps a
    key id to its image as a tuple of ``(key id, coeff)`` pairs, and the
    products summed in ``pairs_on`` hash ints instead of nested key tuples."""

    __slots__ = ("module", "a", "_tables", "_kernels", "_ids", "_keys")

    def __init__(self, module: Gl2Module, a):
        self.module = module
        self.a = _type_vector(a)
        self._tables: defaultdict = defaultdict(dict)  # letter -> {key id: ((key id, coeff), ...)}
        self._kernels: dict = {}  # letter -> compiled kernel, fetched on its table's first miss
        self._ids: dict = {}  # key -> key id
        self._keys: list = []  # key id -> key

    def _id(self, key: TKey) -> int:
        kid = self._ids.get(key)
        if kid is None:
            kid = self._ids[key] = len(self._keys)
            self._keys.append(key)
        return kid

    def image(self, letter: Letter, key: TKey) -> tuple:
        """Compute and store the table entry of ``letter`` at ``key``: the
        terms of ``act_letter(letter, e_key)`` as ``(key id, coeff)`` pairs."""
        kernel = self._kernels.get(letter)
        if kernel is None:
            kernel = self._kernels[letter] = _letter_kernel(letter, self.module, self.a)
        terms = _act_terms(kernel, {key: 1})
        res = self._tables[letter][self._id(key)] = tuple((self._id(k), c) for k, c in terms.items())
        return res

    def pairs_on(self, terms, key: TKey) -> dict:
        """sum of coeff * L_first L_second e_key over ``(first, second, coeff)``
        triples, as in ``sigma_terms``, with a ``None`` first letter adding
        coeff * L_second e_key: the inner image, then the outer one, each read
        from its letter's table and computed there on a miss. The sum runs
        over key ids and is translated back to keys only when it is nonzero."""
        tables = self._tables
        kid = self._id(key)
        total: dict = {}
        for first, second, coeff in terms:
            inner = tables[second].get(kid)
            if inner is None:
                inner = self.image(second, key)
            if first is None:
                for k1, c1 in inner:
                    accumulate(total, k1, coeff * c1)
                continue
            outer = tables[first]
            for k1, c1 in inner:
                f = coeff * c1
                img = outer.get(k1)
                if img is None:
                    img = self.image(first, self._keys[k1])
                for k2, c2 in img:
                    accumulate(total, k2, f * c2)
        if not total:
            return total
        keys = self._keys
        return {keys[k]: as_scalar(c) for k, c in total.items()}


def act_sbar(x: Sbar, w: TVector) -> TVector:
    """Module action of a Lie element: its letters' kernels summed on the terms of ``w``."""
    return linear(x.items(), lambda letter: _act_terms(_letter_kernel(letter, w.module, w.a), w.terms), w._new)


def act_word(word: Word, w: TVector) -> TVector:
    for letter in reversed(word):
        w = act_letter(letter, w)
    return w


def act_partial(i: int, w: TVector) -> TVector:
    """Module action of d/dt_i, the element ``lie.PARTIALS[i]``."""
    return act_sbar(PARTIALS[i], w)


def act_loc(x: Loc, w: TVector) -> TVector:
    """Localized action; d/dt_i acts as a_i plus the nilpotent plain
    derivative, so a negative power needs a_i != 0."""
    for _head, m in x.terms:
        for i in (2, 1):
            if m[i - 1] < 0 and not w.a[i - 1]:
                raise ValueError(f"localized action needs a_{i} != 0")
    return loc_act(x, w, act_partial, act_word, w.a)


def random_seed_vector(module: Gl2Module, a, rng) -> TVector:
    """Random nonzero vector with coefficients in [-2, 2] on the polynomial
    degrees <= 2, drawn from ``rng`` in a fixed key order."""
    terms = {}
    while not terms:
        for beta in sorted(exponents(2)):  # b1-major, the order the draws were recorded in
            for k in range(module.dim):
                c = rng.randrange(-2, 3)
                if c:
                    terms[beta, k] = c
    return TVector(terms, a=a, module=module)


def slice_keys(module: Gl2Module, degree: int) -> list[TKey]:
    """The basis keys of polynomial degree <= ``degree``, in ``exponents`` order."""
    return [(beta, k) for beta in exponents(degree) for k in range(module.dim)]


def whittaker_space(module: Gl2Module, a, degree: int) -> list[TVector]:
    """Exact joint kernel of the shifted operators d/dt_i - a_i on the degree
    slice, as ``(Sbar, scalar)`` ops with d/dt_i from ``lie.PARTIALS``. The
    slice is operator-stable, so the answer is exact for every truncation
    degree."""
    return joint_kernel(module, a, degree, [(PARTIALS[i], a[i - 1]) for i in (1, 2)])


def joint_kernel(module: Gl2Module, a, degree: int, ops) -> list[TVector]:
    """Basis of the common kernel of x - scalar on the degree slice, over the
    ``(x, scalar)`` pairs of ``ops`` with x an ``Sbar``.

    Each x must map the slice into itself (degree-nonincreasing); its letters'
    terms outside the slice may cancel, but a summed image outside raises.
    A negative degree, whose slice is empty, raises too.
    """
    if degree < 0:
        raise ValueError("degree must be nonnegative: the slice is empty")
    a = _type_vector(a)
    keys = slice_keys(module, degree)
    in_slice = set(keys)
    rows: list[dict] = []
    for x, scalar in ops:
        # output key -> sparse row {column: value}, summed over the op's letters
        block = {key: {j: -scalar} for j, key in enumerate(keys)} if scalar else {}
        for letter, c in x.items():
            kernel = _letter_kernel(letter, module, a)
            for j, key in enumerate(keys):
                for out_key, v in _act_terms(kernel, {key: c}).items():
                    accumulate(block.setdefault(out_key, {}), j, v)
        for out_key, row in block.items():
            if row and out_key not in in_slice:  # entries can cancel to an empty row
                raise ValueError("operator left the degree slice")
        rows.extend(row for row in block.values() if row)
    return [
        TVector({keys[j]: c for j, c in vec.items()}, a=a, module=module)
        for vec in nullspace(rows, len(keys))
    ]


def uh_freeness_check(module: Gl2Module, a, degree: int) -> dict:
    """Rank of the Cartan translates d1^m1 d2^m2 (1 x v_k), m1 + m2 <=
    ``degree``, of the constant vectors; full rank witnesses freeness on the
    window. Each translate is built letter by letter, d2 m2 times and then
    the letters of ``Sbar.d1()`` m1 times."""
    if degree < 0:
        raise ValueError("degree must be nonnegative: the window is empty")
    a = _type_vector(a)
    if not (a[0] and a[1]):
        raise ValueError("freeness check needs a nonsingular type vector")
    d2 = _letter_kernel(D2, module, a)
    d1 = [(_letter_kernel(letter, module, a), c) for letter, c in Sbar.d1().items()]
    span = EchelonSpan()
    for k in range(module.dim):
        d2_power = {((0, 0), k): 1}
        for m2 in range(degree + 1):
            w = d2_power
            for m1 in range(degree + 1 - m2):
                if m1:
                    w = linear(d1, lambda kernel: _act_terms(kernel, w), dict)
                span.add(w)
            d2_power = _act_terms(d2, d2_power)
    count = (degree + 1) * (degree + 2) // 2
    expected = count * module.dim
    return {
        "rank": span.rank,
        "expected": expected,
        "monomials": count,
        "dim": module.dim,
        "full": span.rank == expected,
    }


class SigmaOp:
    """Alternating two-letter operator; the corner index acts as zero."""

    __slots__ = ("m", "j", "alpha", "beta")

    def __init__(self, m: int, j: int, alpha: MultiIndex, beta: MultiIndex):
        if m < 0:
            raise ValueError("order must be nonnegative")
        if j not in (1, 2):
            raise ValueError("direction must be 1 or 2")
        for idx in (alpha, beta):
            if idx[0] < -1 or idx[1] < -1:
                raise ValueError(f"index {idx} below the allowed range")
        self.m = m
        self.j = j
        self.alpha = alpha
        self.beta = beta


def sigma_terms(op: SigmaOp) -> list[tuple[Letter, Letter, int]]:
    """The operator as (first, second, coeff) triples, sigma = sum of
    coeff * L_first L_second: for i = 0..m, first = alpha + (m-i) e_j and
    second = beta + i e_j with coeff (-1)^i C(m, i); a term whose index hits
    the corner (-1,-1) is skipped."""
    ej = E1 if op.j == 1 else E2
    out = []
    for i in range(op.m + 1):
        first = madd(op.alpha, (ej[0] * (op.m - i), ej[1] * (op.m - i)))
        second = madd(op.beta, (ej[0] * i, ej[1] * i))
        if first == (-1, -1) or second == (-1, -1):
            continue
        out.append((L_letter(first), L_letter(second), (-1) ** i * comb0(op.m, i)))
    return out


def closure_probe(seed: TVector, degree: int, gen_degree: int) -> dict:
    """Grow the submodule generated by the seed inside the degree-``degree``
    truncation under all letters of degree between -1 and ``gen_degree`` plus
    d2, and report slice dimensions on the trusted window.

    Every tracked vector lies in the submodule exactly: a generator is
    applied only when its worst-case degree raise (letter degree plus one,
    the twist contributing the one) stays under the cap, so no truncation
    error can leak into low degrees through the degree-lowering letters.
    Reported dimensions are therefore true dimensions of a subspace of the
    submodule slice, saturating on the trusted window degree <= cap minus
    generator degree. The module and the type vector are the seed's own."""
    if not 0 <= gen_degree <= degree:
        raise ValueError("degree caps must satisfy 0 <= gen_degree <= degree, or the trusted window is empty")
    if seed.is_zero():
        raise ValueError("seed is zero")
    if seed.degree() > degree:
        raise ValueError("seed degree exceeds the truncation cap")
    # each generator as (worst-case degree raise, compiled kernel)
    generators = [
        (letter_degree(letter) + 1, _letter_kernel(letter, seed.module, seed.a))
        for letter in [D2] + [L_letter(idx) for idx in l_indices(-1, gen_degree)]
    ]

    def key_rank(key: TKey):
        beta, k = key
        return (-mtotal(beta), beta, k)

    # The span closes over itself, breadth first: each pass applies every
    # allowed generator to each row the previous pass added. A raw orbit
    # vector can have a higher degree than the rows it spans, so closing over
    # the orbit alone would skip generators that the cap allows on a row.
    # A row's pivot is its top-degree key and later reductions never raise
    # it, so a row's degree is fixed. A row is read as stored when its pass
    # comes; it is still a vector of the span.
    span = EchelonSpan(key_rank)
    frontier = [span.add(seed.terms)]
    while frontier:
        added = []
        for row in frontier:
            # a copy: a later add may reduce the stored row in place
            terms = dict(row)
            row_degree = max(mtotal(beta) for beta, _ in terms)
            for raise_by, kernel in generators:
                if row_degree + raise_by <= degree:
                    stored = span.add(_act_terms(kernel, terms))
                    if stored is not None:
                        added.append(stored)
        frontier = added

    pivot_degrees = sorted(mtotal(key[0]) for key in span.pivot_keys())
    window = degree - gen_degree
    table = {}
    for d in range(window + 1):
        closure_dim = sum(1 for pd in pivot_degrees if pd <= d)
        ambient = (d + 1) * (d + 2) // 2 * seed.module.dim
        table[d] = (closure_dim, ambient)
    return {
        "window": window,
        "table": table,
        "proper": all(c < amb for c, amb in table.values()),
        "full": all(c == amb for c, amb in table.values()),
        "tracked_rank": span.rank,
    }
