"""Exact dense linear algebra, and the fraction-free kernel against
determinants.

The pivots of the fraction-free pass are the leading minors D_t themselves
(the field pivots are their ratios D_t / D_{t-1}), so each one is checked
against one determinant of a leading submatrix.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from qmatball import linalg
from qmatball.field import GaussRat, I, Scalar, ZERO, from_int, q_pow
from qmatball.fockrep import _zi_blocks
from qmatball.linalg import bareiss_zi, mat_identity, mat_invert, mat_mul

from dense_linalg import mat_det, mat_rank


def _zi(c):
    """The Gaussian integer of an (re, im) pair as a constant Scalar."""
    return from_int(c[0]) + I * c[1]


def _constants(A):
    return [[_zi(c) for c in row] for row in A]


def _random_zi(rng, nrows, ncols, rank, density):
    """A random Z[i] matrix of rank at most ``rank``: every row is a small
    Z[i] combination of ``rank`` sparse random rows."""
    base = [
        [
            (rng.randint(-4, 4), rng.randint(-3, 3)) if rng.random() < density else (0, 0)
            for _ in range(ncols)
        ]
        for _ in range(rank)
    ]
    out = []
    for _ in range(nrows):
        coeffs = [(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in base]
        row = []
        for j in range(ncols):
            re = sum(ca * b[j][0] - cb * b[j][1] for (ca, cb), b in zip(coeffs, base))
            im = sum(ca * b[j][1] + cb * b[j][0] for (ca, cb), b in zip(coeffs, base))
            row.append((re, im))
        out.append(row)
    return out


def _check_kernel(A):
    minors, rank = bareiss_zi(A)
    G = _constants(A)
    for t, D in enumerate(minors, start=1):
        assert _zi(D) == mat_det([row[:t] for row in G[:t]])
    if all(D != (0, 0) for D in minors):
        assert len(minors) == min(len(A), len(A[0]))
    else:
        # stopped exactly at the first vanishing leading minor
        assert minors[-1] == (0, 0)
        assert all(D != (0, 0) for D in minors[:-1])
    assert rank == mat_rank(G)
    return minors, rank


def _zi_case(seed):
    """Mostly square, as the Gram and pairing blocks are; every fourth
    matrix has a random rank, possibly below its size."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    if seed % 3:
        nrows = ncols
    rank = min(nrows, ncols)
    if seed % 4 == 0:
        rank = rng.randint(0, rank)
    return _random_zi(rng, nrows, ncols, rank, rng.choice([0.5, 0.8, 1.0]))


@pytest.mark.parametrize("seed", range(40))
def test_pivots_are_minor_ratios_gauss(seed):
    _check_kernel(_zi_case(seed))


def test_random_matrices_cover_zero_minors_and_low_rank():
    """The seeds above reach both ends of the kernel, a stop at a zero
    minor and a rank below the smaller dimension, with complex entries."""
    cases = [_zi_case(seed) for seed in range(40)]
    results = [bareiss_zi(A) for A in cases]
    assert sum((0, 0) in minors for minors, _ in results) >= 10
    assert sum(r < min(len(A), len(A[0])) for A, (_, r) in zip(cases, results)) >= 10
    assert sum(any(b for row in A for _, b in row) for A in cases) >= 30


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


@pytest.mark.parametrize("seed", range(15))
def test_pivots_are_minor_ratios_scalar(seed):
    """Scalar matrices through the certificates' own path: exact evaluation
    at s0 and rows scaled to Z[i].  Each minor is the evaluated Scalar
    minor times the row scales, read here off ``eval_at``'s fractions."""
    rng = random.Random(1000 + seed)
    n = rng.randint(1, 4)
    A = _random_scalar(rng, n, rng.choice([0.6, 1.0]))
    s0 = rng.choice([Fraction(1, 2), Fraction(2, 3), Fraction(-3, 2)])
    entries = {(p, r): c for p, row in enumerate(A) for r, c in enumerate(row) if c}
    (rows,) = _zi_blocks(entries, (tuple(range(n)),), s0)
    minors, rank = _check_kernel(rows)
    values = [[c.eval_at(s0) for c in row] for row in A]
    scale = Fraction(1)
    for t, D in enumerate(minors, start=1):
        scale *= lcm(*(x.denominator for c in values[t - 1] for x in (c.re, c.im)))
        want = (mat_det([row[:t] for row in A[:t]]) * scale).eval_at(s0)
        assert GaussRat(*D) == want
    assert rank == mat_rank([[Scalar({0: v}) for v in row] for row in values])


def test_pivots_stop_at_a_zero_minor():
    A = [[(x, 0) for x in row] for row in ([1, 2, 3], [2, 4, 5], [3, 5, 6])]
    # D_2 = 0 ends the minors; the rank goes on with a row swap
    assert bareiss_zi(A) == ([(1, 0), (0, 0)], 3)


def test_pivots_of_empty_matrix():
    assert bareiss_zi([]) == ([], 0)
    assert bareiss_zi([[]]) == ([], 0)


def test_rank_skips_a_column_without_pivot():
    A = [[(0, 0), (1, 1), (2, 0)], [(0, 0), (2, 2), (4, 0)], [(0, 0), (0, 1), (1, 0)]]
    assert bareiss_zi(A) == ([(0, 0)], 2)
    assert bareiss_zi([[(0, 0)] * 3] * 2) == ([(0, 0)], 0)


def test_complex_previous_pivot_divides_exactly():
    A = [[(1, 1), (2, 0), (0, 1)], [(3, 0), (1, -1), (2, 2)], [(0, 2), (1, 0), (5, 0)]]
    minors, rank = _check_kernel(A)
    assert minors[0] == (1, 1) and rank == 3


def test_inexact_division_raises():
    assert linalg._zi_exact_div(3, 1, 1, 1) == (2, -1)  # (3 + i)/(1 + i)
    with pytest.raises(ArithmeticError, match="inexact"):
        linalg._zi_exact_div(1, 0, 1, 1)
    with pytest.raises(ArithmeticError, match="inexact"):
        linalg._zi_exact_div(3, 2, 2, 0)


def test_planted_wrong_pivot_is_caught(monkeypatch):
    """A pass that divides by a wrong previous pivot (here D_0 = 2) meets a
    remainder and raises instead of returning a wrong minor."""
    A = [[(1, 0), (1, 0)], [(1, 0), (2, 0)]]
    assert bareiss_zi(A) == ([(1, 0), (1, 0)], 2)
    monkeypatch.setattr(linalg, "_ZI_ONE", (2, 0))
    with pytest.raises(ArithmeticError, match="inexact"):
        bareiss_zi(A)


def test_row_updates_with_sparse_rows():
    # a permuted sparse matrix exercises row swaps and skipped zero entries
    rows = ([0, 0, 2, 0], [3, 0, 0, 1], [0, 5, 0, 0], [1, 0, 0, 4])
    A = [[Fraction(x) for x in row] for row in rows]
    one, zero = Fraction(1), Fraction(0)
    assert mat_det(A, one=one) == 2 * 5 * (3 * 4 - 1 * 1)
    inv = mat_invert(A)
    assert mat_mul(A, inv) == [[one if i == j else zero for j in range(4)] for i in range(4)]
    assert mat_rank(A) == 4
    assert mat_rank([row[:] for row in A[:3]] + [[a + b for a, b in zip(A[0], A[1])]]) == 3


def test_invert_keeps_the_entry_type_and_rejects_singular_matrices():
    A = [[Fraction(1, 2), Fraction(2)], [Fraction(-1, 3), Fraction(1)]]
    inv = mat_invert(A)
    assert all(type(x) is Fraction for row in inv for x in row)
    assert mat_mul(A, inv) == [[1, 0], [0, 1]]
    for singular in ([[1, 2], [2, 4]], [[0, 0]] * 2):
        with pytest.raises(ValueError, match="singular"):
            mat_invert([[Fraction(x) for x in row] for row in singular])
    assert mat_invert([]) == []


def test_scalar_invert_roundtrip():
    rng = random.Random(7)
    while True:
        A = _random_scalar(rng, 3, 1.0)
        if mat_det(A):
            break
    inv = mat_invert(A)
    assert mat_mul(A, inv) == mat_identity(3)
    assert isinstance(inv[0][0], Scalar)
