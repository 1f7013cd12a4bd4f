import random
from fractions import Fraction

import pytest

from sbar2lab.linalg import EchelonSpan, nullspace, rank, rank_of_vectors, rref, solve


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_and_rank():
    m = F([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    reduced, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2
    assert rank(F([[0, 0], [0, 0]])) == 0


def test_nullspace_dimension_and_membership():
    m = F([[1, 2, 3], [4, 5, 6]])
    basis = nullspace(m, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in m:
        assert sum(a * b for a, b in zip(row, v)) == 0
    assert nullspace([], 4) != []


def test_solve():
    cols = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
    x = solve(cols, [Fraction(3), Fraction(2)])
    assert x == [Fraction(1), Fraction(2)]
    assert solve([[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)]) is None


def test_int_rows_give_fractions_and_floats_are_rejected():
    reduced, pivots = rref([[2, 1], [1, 3]])
    assert reduced == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert rank([[2, 4], [1, 2]]) == 1
    basis = nullspace([[2, 4], [1, 2]], 2)
    assert basis == [[-2, 1]]
    x = solve([[2, 1], [1, 3]], [1, 0])
    assert x == [Fraction(3, 5), Fraction(-1, 5)]
    for value in (reduced, basis, [x]):
        # exact scalars: an int, or a Fraction, never a float
        assert all(type(c) in (int, Fraction) for row in value for c in row)
    for call in (
        lambda: rref([[0.5, 1]]),
        lambda: rank([[0.5]]),
        lambda: nullspace([[1, 0.5]], 2),
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
        assert rank_of_vectors(vectors) == rank(dense)


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
    for pivot, row in span._rows.items():
        assert row[pivot] == 1
        for other in span._rows:
            if other != pivot:
                assert other not in row
