"""Dense exact linear algebra over any field-like elements.

Matrices are lists of lists.  Entries only need +, -, *, / and truthiness
(empty == zero), which both Scalar and GaussRat provide.  Sizes here are tiny
(at most a few hundred rows), so plain Gaussian elimination with exact field
operations is the right tool.  Every row update skips zero entries of the
pivot row, because exact products and differences are the cost here.

:func:`mat_leading_pivots` is the one-pass Sylvester kernel: elimination
without row swaps, whose t-th pivot is the ratio D_t / D_{t-1} of
consecutive leading principal minors.
"""

from __future__ import annotations

from .field import ONE, ZERO

__all__ = [
    "mat_det",
    "mat_mul",
    "mat_identity",
    "mat_invert",
    "mat_leading_pivots",
    "mat_rank",
    "mat_rref",
]


def mat_mul(A, B):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(rows):
        Ai = A[i]
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                a = Ai[k]
                if not a:
                    continue
                b = B[k][j]
                if not b:
                    continue
                acc = a * b if acc is None else acc + a * b
            row.append(acc if acc is not None else Ai[0] - Ai[0])
        out.append(row)
    return out


def mat_identity(n, one=ONE, zero=ZERO):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _eliminate(row, f, pivot_row):
    """row - f * pivot_row, skipping the zero entries of pivot_row."""
    return [a - f * b if b else a for a, b in zip(row, pivot_row)]


def mat_invert(A, one=ONE, zero=ZERO):
    """Gauss-Jordan inverse; raises ValueError when A is singular."""
    n = len(A)
    M = [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col]:
                piv = r
                break
        if piv is None:
            raise ValueError("matrix is singular")
        M[col], M[piv] = M[piv], M[col]
        inv = one / M[col][col]
        M[col] = [x * inv if x else x for x in M[col]]
        for r in range(n):
            if r != col and M[r][col]:
                M[r] = _eliminate(M[r], M[r][col], M[col])
    return [row[n:] for row in M]


def mat_det(A, one=ONE):
    """Determinant by Gaussian elimination with row swaps (exact field ops)."""
    n = len(A)
    if n == 0:
        return one
    M = [list(row) for row in A]
    det = one
    for col in range(n):
        piv = None
        for r in range(col, n):
            if M[r][col]:
                piv = r
                break
        if piv is None:
            return M[0][0] - M[0][0]
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det = det * M[col][col]
        inv = one / M[col][col]
        for r in range(col + 1, n):
            if M[r][col]:
                M[r] = _eliminate(M[r], M[r][col] * inv, M[col])
    return det


def mat_leading_pivots(A):
    """Yield the pivots of Gaussian elimination on A without row swaps.

    Pivot t is D_t / D_{t-1}, where D_t is the t-th leading principal minor
    (D_0 = 1), so D_t is the product of the first t pivots.  A zero pivot
    means D_t = 0; elimination without swaps cannot go on, so it is the last
    value yielded.  Lazy, so a caller that stops early skips the rest.
    """
    M = [list(row) for row in A]
    n = len(M)
    for t in range(n):
        piv = M[t][t]
        yield piv
        if not piv:
            return
        tail = M[t][t + 1 :]
        for row in M[t + 1 :]:
            if row[t]:
                row[t + 1 :] = _eliminate(row[t + 1 :], row[t] / piv, tail)


def mat_rref(A):
    """Reduced row echelon form; returns (rows, pivot_column_indices)."""
    M = [list(row) for row in A]
    nrows = len(M)
    ncols = len(M[0]) if M else 0
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for rr in range(r, nrows):
            if M[rr][col]:
                piv = rr
                break
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        lead = M[r][col]
        M[r] = [x / lead if x else x for x in M[r]]
        for rr in range(nrows):
            if rr != r and M[rr][col]:
                M[rr] = _eliminate(M[rr], M[rr][col], M[r])
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return M, pivots


def mat_rank(A) -> int:
    if not A or not A[0]:
        return 0
    return len(mat_rref(A)[1])
