"""Determinant and rank by plain Gaussian elimination, as a test-side
reference.

The package's only determinants and ranks come from the fraction-free
kernel :func:`qmatball.linalg.bareiss_zi`, which works on Gaussian
integers.  The functions here eliminate over any field-like entries
(Scalar or Fraction) with exact division instead, so the tests can
check that kernel, and the Gram and pairing certificates built on it,
against an independent computation.
"""

from qmatball.field import ONE
from qmatball.linalg import mat_rref


def mat_det(A, one=ONE):
    """Determinant by Gaussian elimination with row swaps (exact field ops)."""
    n = len(A)
    if n == 0:
        return one
    M = [list(row) for row in A]
    det = one
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return M[0][0] - M[0][0]
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = -det
        det = det * M[col][col]
        inv = one / M[col][col]
        for r in range(col + 1, n):
            if M[r][col]:
                f = M[r][col] * inv
                M[r] = [a - f * b if b else a for a, b in zip(M[r], M[col])]
    return det


def mat_rank(A) -> int:
    if not A or not A[0]:
        return 0
    return len(mat_rref(A)[1])
