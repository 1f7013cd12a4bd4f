"""Small exact linear algebra over the rationals.

Dense routines (rref, rank, nullspace, solve) work on lists of rows of
exact scalars (int, or Fraction where not integral); EchelonSpan keeps an
incremental row-echelon basis of sparse dict-vectors and is what the closure
probes and independence checks grow their spans with. Every pivot inverse is
taken with ``qdiv``. Matrices in this package stay small (a few hundred
rows), so fraction Gaussian elimination is entirely adequate.
"""

from __future__ import annotations

from .base import Scalar, accumulate, as_scalar, qdiv


def rref(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices).

    Entries are coerced with ``as_scalar``, so results are exact (ints where
    integral, Fractions otherwise) and float rows are rejected."""
    m = [[as_scalar(x) for x in r] for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(m)):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = qdiv(1, m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows: list[list[Scalar]]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: list[list[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Basis of the right kernel of the matrix (rows may be empty)."""
    if not rows:
        return [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        basis.append(v)
    return basis


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

    ``key_rank`` maps coordinate keys to a sortable value; the pivot of each
    stored row is its minimal key under that order. With keys ordered by
    descending polynomial degree, the number of pivots lying in low-degree
    blocks equals the dimension of the span's intersection with those blocks.

    Rows are kept fully reduced against each other (each row is 1 at its own
    pivot and 0 at every other pivot). The reduced form is canonical for the
    span, which keeps coefficient sizes tied to minors of the span instead of
    compounding with the insertion history.
    """

    def __init__(self, key_rank=None):
        self._key_rank = key_rank or (lambda k: k)
        self._rows: dict = {}  # pivot key -> reduced row with pivot coefficient 1

    def reduce(self, vec: dict) -> dict:
        v = {k: as_scalar(c) for k, c in vec.items() if c}
        while v:
            hits = [k for k in v if k in self._rows]
            if not hits:
                return v
            # cancelling a pivot introduces only non-pivot keys, so the
            # number of pivot coordinates in the support strictly drops
            pivot = min(hits, key=self._key_rank)
            f = -v.pop(pivot)
            row = self._rows[pivot]
            for k, c in row.items():
                if k == pivot:
                    continue
                accumulate(v, k, f * c)
        return v

    def add(self, vec: dict):
        """Reduce and insert; returns the stored row if the rank grew, else None."""
        rem = self.reduce(vec)
        if not rem:
            return None
        pivot = min(rem, key=self._key_rank)
        inv = qdiv(1, rem[pivot])
        row = {k: c * inv for k, c in rem.items()}
        for other in self._rows.values():
            f = other.get(pivot)
            if f:
                f = -f
                for k, c in row.items():
                    accumulate(other, k, f * c)
        self._rows[pivot] = row
        return row

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def pivot_keys(self):
        return list(self._rows)


def rank_of_vectors(vectors, key_rank=None) -> int:
    span = EchelonSpan(key_rank)
    for v in vectors:
        span.add(v)
    return span.rank
