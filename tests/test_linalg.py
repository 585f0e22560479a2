"""Exact dense linear algebra: the pivot kernel against determinants."""

import random
from fractions import Fraction

import pytest

from qmatball.field import GaussRat, ONE, Scalar, ZERO, from_int, q_pow
from qmatball.linalg import (
    mat_det,
    mat_identity,
    mat_invert,
    mat_leading_pivots,
    mat_mul,
    mat_rank,
)


def _random_gauss(rng, n, density):
    return [
        [
            GaussRat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
            if rng.random() < density
            else GaussRat(0)
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def _random_scalar(rng, n, density):
    return [
        [
            from_int(rng.randint(-3, 3)) + q_pow(rng.randint(-2, 2)) * rng.randint(-1, 1)
            if rng.random() < density
            else ZERO
            for _ in range(n)
        ]
        for _ in range(n)
    ]


def _check_pivots_against_minors(A, one):
    pivots = list(mat_leading_pivots(A))
    prod = one
    for t, p in enumerate(pivots, start=1):
        prod = prod * p
        assert prod == mat_det([row[:t] for row in A[:t]], one=one)
    if len(pivots) < len(A):
        # stopped early: exactly at the first vanishing leading minor
        assert not pivots[-1]
    assert all(pivots[:-1])


@pytest.mark.parametrize("seed", range(40))
def test_pivots_are_minor_ratios_gauss(seed):
    rng = random.Random(seed)
    A = _random_gauss(rng, rng.randint(1, 6), rng.choice([0.5, 0.8, 1.0]))
    _check_pivots_against_minors(A, GaussRat(1))


@pytest.mark.parametrize("seed", range(15))
def test_pivots_are_minor_ratios_scalar(seed):
    rng = random.Random(1000 + seed)
    A = _random_scalar(rng, rng.randint(1, 4), rng.choice([0.6, 1.0]))
    _check_pivots_against_minors(A, ONE)


def test_pivots_stop_at_a_zero_minor():
    A = [[GaussRat(x) for x in row] for row in ([1, 2, 3], [2, 4, 5], [3, 5, 6])]
    assert list(mat_leading_pivots(A)) == [GaussRat(1), GaussRat(0)]


def test_pivots_of_empty_matrix():
    assert list(mat_leading_pivots([])) == []


def test_row_updates_with_sparse_rows():
    # a permuted sparse matrix exercises row swaps and skipped zero entries
    rows = ([0, 0, 2, 0], [3, 0, 0, 1], [0, 5, 0, 0], [1, 0, 0, 4])
    A = [[Fraction(x) for x in row] for row in rows]
    one, zero = Fraction(1), Fraction(0)
    assert mat_det(A, one=one) == 2 * 5 * (3 * 4 - 1 * 1)
    inv = mat_invert(A, one=one, zero=zero)
    assert mat_mul(A, inv) == mat_identity(4, one=one, zero=zero)
    assert mat_rank(A) == 4
    assert mat_rank([row[:] for row in A[:3]] + [[a + b for a, b in zip(A[0], A[1])]]) == 3


def test_scalar_invert_roundtrip():
    rng = random.Random(7)
    while True:
        A = _random_scalar(rng, 3, 1.0)
        if mat_det(A):
            break
    inv = mat_invert(A)
    assert mat_mul(A, inv) == mat_identity(3)
    assert isinstance(inv[0][0], Scalar)
