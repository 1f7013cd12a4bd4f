"""Small exact linear algebra over the rationals: one sparse eliminator.

EchelonSpan grows a row echelon basis of a span of sparse dict-vectors
(key -> exact scalar) and is the package's only elimination routine. Its rows
are fraction-free: each is a primitive int vector (coprime entries, positive
at its own pivot, 0 at every other pivot), so elimination runs on ints only,
as in Bareiss's integer-preserving elimination with the content divided out.
``EchelonSpan.reduced_row`` reads a row out scaled to 1 at its pivot with
``qdiv``; the reduced row echelon form is unique, so these rows ordered by
pivot are exactly that form. ``nullspace`` takes sparse rows
``{column: value}`` and reads its sparse kernel vectors off one span ordered
by column index, ``rref`` inserts the nonzero entries of each dense matrix
row the same way, and ``solve`` reads its solution off ``rref``. An entry
read out is an int where it is integral, a Fraction otherwise.
"""

from __future__ import annotations

from math import gcd, lcm

from .base import Scalar, accumulate, as_scalar, qdiv


def rref(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Entries are coerced with ``as_scalar``, so results are exact (ints where
    integral, Fractions otherwise) and float rows are rejected."""
    span = EchelonSpan()
    for r in rows:
        span.add({j: x for j, x in enumerate(map(as_scalar, r)) if x})
    ncols = len(rows[0]) if rows else 0
    pivots = sorted(span.pivot_keys())
    reduced = []
    for p in pivots:
        dense = [0] * ncols
        for j, c in span.reduced_row(p).items():
            dense[j] = c
        reduced.append(dense)
    return reduced, pivots


def nullspace(rows: list[dict], ncols: int) -> list[dict]:
    """Basis of the right kernel of the sparse rows ``{column: value}`` over
    columns ``0..ncols-1`` (rows may be empty), one vector ``{column: value}``
    per free column in increasing order: 1 there, minus the reduced rows'
    entries in that column at their pivots."""
    span = EchelonSpan()
    for r in rows:
        span.add(r)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in span._rows}
    for pc in sorted(span.pivot_keys()):
        for j, c in span.reduced_row(pc).items():
            if j != pc:
                basis[j][pc] = -c
    return list(basis.values())


def solve(columns: list[list[Scalar]], target: list[Scalar]):
    """One exact solution x of  sum_j x_j * columns[j] = target, or None."""
    ncols = len(columns)
    nrows = len(target)
    aug = [[col[i] for col in columns] + [target[i]] for i in range(nrows)]
    reduced, pivots = rref(aug)
    if ncols in pivots:
        return None  # inconsistent: pivot in the augmented column
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return x


class EchelonSpan:
    """Growing echelon basis of sparse vectors (dict key -> scalar).

    ``key_rank`` maps coordinate keys to a sortable value (the keys
    themselves by default); the pivot of each stored row is its minimal key
    under that order. With keys ordered by descending polynomial degree, the
    number of pivots lying in low-degree blocks equals the dimension of the
    span's intersection with those blocks.

    Rows are kept fully reduced against each other: each stored row is a
    primitive int vector, positive at its own pivot and 0 at every other
    pivot. Such a row is the positive multiple of the span's reduced row
    echelon row that clears its denominators, so coefficient sizes stay tied
    to minors of the span instead of compounding with the insertion history,
    and no Fraction is built while eliminating.
    """

    def __init__(self, key_rank=None):
        self._key_rank = key_rank
        self._rows: dict = {}  # pivot key -> primitive int row, positive at its pivot

    def _residual(self, vec: dict) -> tuple[dict, int]:
        """(v, s): an int vector v, 0 at every pivot, with v / s equal to
        ``vec`` minus an element of the span."""
        v, s = _integral(vec)
        # a stored row is 0 at every other pivot, so cancelling one pivot
        # leaves the others' coefficients nonzero or zero as they were: one
        # pass suffices
        for pivot in [k for k in v if k in self._rows]:
            s *= _eliminate(v, pivot, self._rows[pivot])
        return v, s

    def reduce(self, vec: dict) -> dict:
        """``vec`` minus the element of the span that cancels it at every pivot."""
        v, s = self._residual(vec)
        return v if s == 1 else {k: qdiv(c, s) for k, c in v.items()}

    def add(self, vec: dict):
        """Reduce and insert; returns the stored int row if the rank grew, else None."""
        row, _ = self._residual(vec)
        if not row:
            return None
        pivot = min(row, key=self._key_rank)
        _make_primitive(row, row[pivot])
        for other in self._rows.values():
            if pivot in other:
                _eliminate(other, pivot, row)
                _make_primitive(other, 1)
        self._rows[pivot] = row
        return row

    def reduced_row(self, pivot) -> dict:
        """The row at ``pivot`` scaled to 1 there: a row of the reduced row
        echelon form of the span."""
        row = self._rows[pivot]
        p = row[pivot]
        return dict(row) if p == 1 else {k: qdiv(c, p) for k, c in row.items()}

    def contains(self, vec: dict) -> bool:
        return not self._residual(vec)[0]

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivot_keys(self):
        return list(self._rows)


def _integral(vec: dict) -> tuple[dict, int]:
    """(v, d): the nonzero entries of ``vec`` times their least common
    denominator d, as ints; an inexact entry is rejected by ``as_scalar``."""
    v = {}
    d = 1
    for k, c in vec.items():
        if c:
            c = v[k] = as_scalar(c)
            if type(c) is not int:
                d = lcm(d, c.denominator)
    if d != 1:
        for k, c in v.items():
            v[k] = c.numerator * (d // c.denominator)
    return v, d


def _eliminate(v: dict, pivot, row: dict) -> int:
    """Cancel ``v[pivot]`` in place with ``row``, an int row positive at
    ``pivot``: v <- m * v - c * row for the least m > 0 that does it, so no
    entry is divided. Returns m."""
    c = v.pop(pivot)
    m = row[pivot]
    if m != 1:
        g = gcd(m, c)
        m //= g
        c //= g
        if m != 1:
            for k in v:
                v[k] *= m
    for k, r in row.items():
        if k != pivot:
            accumulate(v, k, -c * r)
    return m


def _make_primitive(v: dict, sign: int) -> None:
    """Divide the int vector ``v`` in place by its content, with the sign of
    ``sign``, so its entries are coprime."""
    g = 0
    for c in v.values():
        g = gcd(g, c)
        if g == 1:
            break
    if sign < 0:
        g = -g
    if g != 1:
        for k, c in v.items():
            v[k] = c // g
