"""Small exact linear algebra over the rationals: one sparse eliminator.

EchelonSpan grows the reduced row echelon basis of a span of sparse
dict-vectors (key -> exact scalar) and is the package's only elimination
routine. ``nullspace`` takes sparse rows ``{column: value}`` and returns sparse
kernel vectors read off one span ordered by column index. ``rref`` inserts
the nonzero entries of each dense matrix row the same way; the reduced row
echelon form is unique, so the stored rows ordered by pivot are exactly that
form, and ``solve`` reads it off ``rref``. The one pivot inverse is
taken with ``qdiv`` in ``EchelonSpan.add``, and every stored entry passes
through ``as_scalar``, so an integral entry is an int.
"""

from __future__ import annotations

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
        for j, c in span._rows[p].items():
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
        for j, c in span._rows[pc].items():
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
    """Growing reduced-echelon basis of sparse vectors (dict key -> scalar).

    ``key_rank`` maps coordinate keys to a sortable value (the keys
    themselves by default); the pivot of each stored row is its minimal key
    under that order. With keys ordered by descending polynomial degree, the
    number of pivots lying in low-degree blocks equals the dimension of the
    span's intersection with those blocks.

    Rows are kept fully reduced against each other (each row is 1 at its own
    pivot and 0 at every other pivot). The reduced form is canonical for the
    span, which keeps coefficient sizes tied to minors of the span instead of
    compounding with the insertion history.
    """

    def __init__(self, key_rank=None):
        self._key_rank = key_rank
        self._rows: dict = {}  # pivot key -> reduced row with pivot coefficient 1

    def reduce(self, vec: dict) -> dict:
        v = {k: as_scalar(c) for k, c in vec.items() if c}
        # a stored row is 0 at every other pivot, so cancelling one pivot
        # leaves the others' coefficients as they were: one pass suffices
        for pivot in [k for k in v if k in self._rows]:
            _axpy(v, -v.pop(pivot), self._rows[pivot], pivot)
        return v

    def add(self, vec: dict):
        """Reduce and insert; returns the stored row if the rank grew, else None."""
        rem = self.reduce(vec)
        if not rem:
            return None
        pivot = min(rem, key=self._key_rank)
        inv = qdiv(1, rem[pivot])
        row = {k: as_scalar(c * inv) for k, c in rem.items()}
        for other in self._rows.values():
            f = other.pop(pivot, 0)
            if f:
                _axpy(other, -f, row, pivot)
        self._rows[pivot] = row
        return row

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivot_keys(self):
        return list(self._rows)


def _axpy(acc: dict, f: Scalar, row: dict, pivot) -> None:
    """acc += f * row off the pivot; an integral entry it touches is stored as an int."""
    for k, c in row.items():
        if k != pivot:
            accumulate(acc, k, f * c)
            if k in acc:
                acc[k] = as_scalar(acc[k])
