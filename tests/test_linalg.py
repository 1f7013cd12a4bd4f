import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbar2lab.base import accumulate, as_scalar, qdiv
from sbar2lab.linalg import EchelonSpan, nullspace, rref, solve


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def integral_fraction(c) -> bool:
    return type(c) is Fraction and c.denominator == 1


def test_rref_and_rank():
    m = F([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert len(rref(m)[1]) == 2
    assert len(rref(F([[0, 0], [0, 0]]))[1]) == 0


def test_nullspace_dimension_and_membership():
    m = [{0: Fraction(1), 1: Fraction(2), 2: Fraction(3)}, {0: Fraction(4), 1: Fraction(5), 2: Fraction(6)}]
    basis = nullspace(m, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in m:
        assert sum(c * v.get(j, 0) for j, c in row.items()) == 0
    assert nullspace([], 4) == [{0: 1}, {1: 1}, {2: 1}, {3: 1}]


def test_solve():
    cols = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    x = solve(cols, [Fraction(3), Fraction(2)])
    assert x == [Fraction(1), Fraction(2)]
    assert solve([[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)]) is None


def test_int_rows_give_fractions_and_floats_are_rejected():
    reduced, pivots = rref([[2, 1], [1, 3]])
    assert reduced == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert len(rref([[2, 4], [1, 2]])[1]) == 1
    basis = nullspace([{0: 2, 1: 4}, {0: 1, 1: 2}], 2)
    assert basis == [{0: -2, 1: 1}]
    x = solve([[2, 1], [1, 3]], [1, 0])
    assert x == [Fraction(3, 5), Fraction(-1, 5)]
    for value in (reduced, [list(v.values()) for v in basis], [x]):
        # exact scalars: an int, or a Fraction, never a float
        assert all(type(c) in (int, Fraction) for row in value for c in row)
        # and an integral one is an int
        assert not any(integral_fraction(c) for row in value for c in row)
    # Fraction input too: rref([[2, 1], [1, 3]]) held Fraction(1) and Fraction(0)
    assert not any(integral_fraction(c) for row in rref(F([[2, 1], [1, 3]]))[0] for c in row)
    assert not any(integral_fraction(c) for v in nullspace(as_vectors(F([[2, 4], [1, 2]])), 2) for c in v.values())
    assert not any(integral_fraction(c) for c in solve(F([[2, 1], [4, 3]]), F([[2, 4]])[0]))
    for call in (
        lambda: rref([[0.5, 1]]),
        lambda: rref([[0.5]]),
        lambda: nullspace([{0: 1, 1: 0.5}], 2),
        lambda: solve([[1.0]], [1]),
    ):
        with pytest.raises(TypeError):
            call()


def test_echelon_span_rank_matches_dense():
    rng = random.Random(5)
    for _ in range(20):
        vectors = []
        ncols = 6
        for _ in range(rng.randrange(1, 8)):
            vectors.append({j: Fraction(rng.randrange(-3, 4)) for j in range(ncols)})
        dense = [[v.get(j, Fraction(0)) for j in range(ncols)] for v in vectors]
        span = EchelonSpan()
        for v in vectors:
            span.add(v)
        assert span.rank == len(gauss_jordan(dense)[1])


def test_echelon_span_membership_and_pivot_blocks():
    span = EchelonSpan(key_rank=lambda k: -k)  # high coordinates first
    span.add({3: Fraction(1), 0: Fraction(2)})
    span.add({1: Fraction(1)})
    assert span.rank == 2
    assert span.contains({3: Fraction(2), 0: Fraction(4)})
    assert not span.contains({0: Fraction(1)})
    # one pivot in the high block (key 3), one in the low block (key 1)
    assert sorted(span.pivot_keys()) == [1, 3]


def test_echelon_rows_stay_reduced():
    span = EchelonSpan()
    span.add({0: Fraction(1), 1: Fraction(1)})
    span.add({1: Fraction(1), 2: Fraction(1)})
    span.add({0: Fraction(1), 2: Fraction(5)})
    span.add({1: Fraction(1, 2), 3: Fraction(3, 2)})
    # 1/2 + 1/2 sums to an integral entry of the first row when the second
    # one cancels key 1 there
    halves = EchelonSpan()
    halves.add({0: 1, 1: Fraction(1, 2), 2: Fraction(1, 2)})
    halves.add({1: 1, 2: -1})
    assert halves._rows[0] == {0: 1, 2: 1}
    for s in (span, halves):
        assert_primitive_rows(s)
        for pivot in s.pivot_keys():
            row = s.reduced_row(pivot)
            assert row[pivot] == 1
            assert not any(integral_fraction(c) for c in row.values())


def test_stored_rows_are_primitive_int_vectors():
    span = EchelonSpan()
    span.add({0: 4, 1: 6, 2: 2})
    span.add({1: Fraction(3, 2), 2: Fraction(-1, 3)})
    # the second row cancels key 1 in the first: 3 * (2, 3, 1) - (0, 9, -2)
    assert span._rows == {0: {0: 6, 2: 5}, 1: {1: 9, 2: -2}}
    assert span.reduced_row(1) == {1: 1, 2: Fraction(-2, 9)}
    assert span.reduce({0: 1}) == {2: Fraction(-5, 6)}
    # 3 * (-2, 0, 0, 5) + (6, 0, 5, 0) has its pivot at key 2
    assert span.add({0: -2, 3: 5}) == {2: 1, 3: 3}
    assert span._rows == {0: {0: 2, 3: -5}, 1: {1: 3, 3: 2}, 2: {2: 1, 3: 3}}
    assert_primitive_rows(span)


def assert_primitive_rows(span):
    """Every stored row is an int vector with coprime entries, positive at
    its own pivot and 0 at every other pivot."""
    for pivot, row in span._rows.items():
        assert all(type(c) is int and c for c in row.values())
        assert row[pivot] > 0
        assert math.gcd(*row.values()) == 1
        assert (set(span._rows) - {pivot}).isdisjoint(row)


# --- properties on small random matrices ------------------------------------


def gauss_jordan(rows):
    """Dense Gauss-Jordan elimination over Fraction: the reference RREF."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


class NormalizingSpan:
    """The sparse eliminator as it was before its rows became fraction-free:
    every row is scaled to 1 at its pivot with a Fraction inverse. Kept as an
    oracle; it has the same pivots, reduced rows and residuals."""

    def __init__(self, key_rank=None):
        self._key_rank = key_rank
        self._rows: dict = {}  # pivot key -> reduced row with pivot coefficient 1

    def reduce(self, vec: dict) -> dict:
        v = {k: as_scalar(c) for k, c in vec.items() if c}
        for pivot in [k for k in v if k in self._rows]:
            _axpy(v, -v.pop(pivot), self._rows[pivot], pivot)
        return v

    def add(self, vec: dict):
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


def _axpy(acc, f, row, pivot):
    for k, c in row.items():
        if k != pivot:
            accumulate(acc, k, f * c)
            if k in acc:
                acc[k] = as_scalar(acc[k])


def oracle_rref(rows):
    span = NormalizingSpan()
    for r in rows:
        span.add({j: x for j, x in enumerate(r) if x})
    ncols = len(rows[0]) if rows else 0
    pivots = sorted(span._rows)
    return [[span._rows[p].get(j, 0) for j in range(ncols)] for p in pivots], pivots


def oracle_nullspace(rows, ncols):
    span = NormalizingSpan()
    for r in rows:
        span.add(r)
    basis = {fc: {fc: 1} for fc in range(ncols) if fc not in span._rows}
    for pc in sorted(span._rows):
        for j, c in span._rows[pc].items():
            if j != pc:
                basis[j][pc] = -c
    return list(basis.values())


def oracle_solve(columns, target):
    ncols = len(columns)
    reduced, pivots = oracle_rref([[col[i] for col in columns] + [t] for i, t in enumerate(target)])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = reduced[r][ncols]
    return x


def same_scalars(a, b) -> bool:
    """Equal, and an int exactly where the other is an int."""
    return a == b and repr(a) == repr(b)


SCALARS = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)


# wider entries, so that rows have a content and pivots a common factor
WIDE_SCALARS = st.one_of(
    st.just(0),
    st.integers(-60, 60),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)


@st.composite
def matrices(draw, min_rows=0, scalars=SCALARS):
    """Small int/Fraction matrices with some rows and columns forced to zero."""
    nrows = draw(st.integers(min_rows, 5))
    ncols = draw(st.integers(1, 5))
    m = [[draw(scalars) for _ in range(ncols)] for _ in range(nrows)]
    for i in draw(st.sets(st.integers(0, max(nrows - 1, 0)), max_size=2)):
        if i < nrows:
            m[i] = [0] * ncols
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in m:
            row[j] = 0
    return m


def dot(row, v):
    return sum(Fraction(a) * b for a, b in zip(row, v))


PROPERTY = settings(max_examples=100, deadline=None)


@PROPERTY
@given(matrices())
def test_rref_equals_dense_gauss_jordan(m):
    reduced, pivots = rref(m)
    assert (reduced, pivots) == gauss_jordan(m)
    assert not any(integral_fraction(c) for row in reduced for c in row)


@PROPERTY
@given(matrices())
def test_nullspace_annihilates_and_has_full_dimension(m):
    ncols = len(m[0]) if m else 3
    basis = nullspace(as_vectors(m), ncols)
    reduced, pivots = gauss_jordan(m)
    assert len(basis) == ncols - len(pivots)
    dense = [[v.get(j, 0) for j in range(ncols)] for v in basis]
    assert len(rref(dense)[1]) == len(basis)
    # read off the dense reference RREF: 1 at a free column, minus the
    # reduced rows' entries there at their pivots
    free = [c for c in range(ncols) if c not in pivots]
    for fc, v in zip(free, dense):
        assert v == [1 if j == fc else -reduced[pivots.index(j)][fc] if j in pivots else 0 for j in range(ncols)]
    for v in basis:
        assert not any(integral_fraction(c) for c in v.values())
        assert all(v.values())  # sparse: no stored zeros
    for v in dense:
        for row in m:
            assert dot(row, v) == 0


@PROPERTY
@given(matrices(min_rows=1), st.data())
def test_solve_is_none_exactly_when_inconsistent(m, data):
    # the matrix's rows are the solve's columns; the target has one entry per
    # matrix column
    target = data.draw(st.lists(SCALARS, min_size=len(m[0]), max_size=len(m[0])))
    x = solve(m, target)
    coefficient_rows = [list(r) for r in zip(*m)]
    augmented = [r + [t] for r, t in zip(coefficient_rows, target)]
    consistent = len(gauss_jordan(augmented)[1]) == len(gauss_jordan(coefficient_rows)[1])
    assert (x is not None) == consistent
    if x is not None:
        assert not any(integral_fraction(c) for c in x)
        for i, t in enumerate(target):
            assert sum(Fraction(x[j]) * m[j][i] for j in range(len(m))) == t


def as_vectors(m):
    return [{j: c for j, c in enumerate(row) if c} for row in m]


@PROPERTY
@given(matrices(), st.randoms(use_true_random=False))
def test_pivot_keys_do_not_depend_on_insertion_order(m, rng):
    vectors = as_vectors(m)
    shuffled = list(vectors)
    rng.shuffle(shuffled)
    for key_rank in (None, lambda k: -k):
        first, second = EchelonSpan(key_rank), EchelonSpan(key_rank)
        for v in vectors:
            first.add(v)
        for v in shuffled:
            second.add(v)
        assert set(first.pivot_keys()) == set(second.pivot_keys())


@PROPERTY
@given(matrices(), matrices(min_rows=1))
def test_reduce_leaves_no_pivot_and_removes_a_span_element(m, probes):
    span = EchelonSpan()
    for v in as_vectors(m):
        span.add(v)
    for v in as_vectors(probes):
        rem = span.reduce(v)
        assert not set(rem) & set(span.pivot_keys())
        diff = dict(v)
        for k, c in rem.items():
            accumulate(diff, k, -c)
        assert span.contains(diff)


ANY_MATRICES = st.one_of(matrices(), matrices(scalars=WIDE_SCALARS))


@PROPERTY
@given(ANY_MATRICES, matrices(min_rows=1, scalars=WIDE_SCALARS), st.sampled_from([None, lambda k: -k]))
def test_span_matches_the_normalizing_oracle(m, probes, key_rank):
    span, oracle = EchelonSpan(key_rank), NormalizingSpan(key_rank)
    for v in as_vectors(m):
        stored, expected = span.add(v), oracle.add(v)
        assert (stored is None) == (expected is None)
        if stored is not None:
            # the stored int row is a positive multiple of the oracle's row
            pivot = min(stored, key=key_rank)
            assert {k: qdiv(c, stored[pivot]) for k, c in stored.items()} == expected
        assert_primitive_rows(span)
    assert set(span.pivot_keys()) == set(oracle._rows)
    for pivot, row in oracle._rows.items():
        assert same_scalars(span.reduced_row(pivot), row)
    for v in as_vectors(probes):
        rem = span.reduce(v)
        assert same_scalars(rem, oracle.reduce(v))
        assert span.contains(v) == (not rem)


@PROPERTY
@given(matrices(min_rows=1, scalars=WIDE_SCALARS), st.data())
def test_rref_nullspace_and_solve_match_the_oracle(m, data):
    ncols = len(m[0])
    assert same_scalars(rref(m), oracle_rref(m))
    assert same_scalars(nullspace(as_vectors(m), ncols), oracle_nullspace(as_vectors(m), ncols))
    target = data.draw(st.lists(WIDE_SCALARS, min_size=ncols, max_size=ncols))
    assert same_scalars(solve(m, target), oracle_solve(m, target))
