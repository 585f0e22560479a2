"""Dense exact linear algebra over any field-like elements (products,
inverses and reduced row echelon forms, for the braiding tables), and one
fraction-free kernel over the Gaussian integers.

Matrices are lists of lists.  Entries only need +, -, *, / and truthiness
(empty == zero), which Scalar and Fraction provide.  Sizes here are tiny
(at most a few hundred rows), so plain Gaussian elimination with exact field
operations is the right tool.  Every row update skips zero entries of the
pivot row, because exact products and differences are the cost here.

:func:`bareiss_zi` is the certificate kernel of the Gram and pairing
blocks: Bareiss's fraction-free elimination (Math. Comp. 22, 1968) on
(re, im) int pairs.  Its pivots are the leading principal minors
themselves, every entry stays in Z[i], and each division by the previous
pivot is exact, so no rational number is ever formed.  It gives the only
determinants (leading minors) and ranks in the package.
"""

from __future__ import annotations

from .field import ONE, ZERO

__all__ = [
    "bareiss_zi",
    "mat_mul",
    "mat_identity",
    "mat_invert",
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


def mat_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def _eliminate(row, f, pivot_row):
    """row - f * pivot_row, skipping the zero entries of pivot_row."""
    return [a - f * b if b else a for a, b in zip(row, pivot_row)]


def mat_invert(A):
    """Gauss-Jordan inverse, the right half of the reduced row echelon form
    of [A | I]; raises ValueError when A is singular.  One and zero are
    taken from an entry of A (a / a and a - a), so the inverse has A's
    entry type."""
    n = len(A)
    a = next((x for row in A for x in row if x), None)
    if a is None:
        if n:
            raise ValueError("matrix is singular")
        return []
    one, zero = a / a, a - a
    M, pivots = mat_rref(
        [list(row) + [one if i == j else zero for j in range(n)] for i, row in enumerate(A)]
    )
    # [A | I] has rank n, so n pivots; A is singular iff one lands past A
    if pivots[n - 1] >= n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in M]


def mat_rref(A):
    """Reduced row echelon form; returns (rows, pivot_column_indices)."""
    M = [list(row) for row in A]
    one = next((x / x for row in M for x in row if x), None)
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
        inv = one / M[r][col]
        M[r] = [x * inv if x else x for x in M[r]]
        for rr in range(nrows):
            if rr != r and M[rr][col]:
                M[rr] = _eliminate(M[rr], M[rr][col], M[r])
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return M, pivots


_ZI_ONE = (1, 0)  # the pivot "before the first", D_0 = 1


def _zi_exact_div(a: int, b: int, c: int, d: int) -> tuple:
    """(a + b*i) / (c + d*i) in Z[i]; ArithmeticError when not exact."""
    if d:
        n2 = c * c + d * d
        a, b, c = a * c + b * d, b * c - a * d, n2
    qa, ra = divmod(a, c)
    qb, rb = divmod(b, c)
    if ra or rb:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return (qa, qb)


def bareiss_zi(rows) -> tuple:
    """Fraction-free elimination of a matrix of Gaussian integers.

    ``rows`` holds ``(re, im)`` int pairs.  Returns ``(minors, rank)``:

    * ``minors`` are the leading principal minors D_1, D_2, ... as int
      pairs, up to and including the first zero one (all of them when none
      vanishes);
    * ``rank`` is the rank.  Past a zero leading minor the pass goes on with
      row swaps, and a column with no pivot left is skipped.

    After t pivots every remaining entry is a (t+1) x (t+1) minor of the
    input, so the division of each update by the previous pivot is exact;
    it is checked, and a remainder raises ArithmeticError.
    """
    M = [list(row) for row in rows]
    nrows, ncols = len(M), len(M[0]) if M else 0
    minors = []
    leading = True
    prev = _ZI_ONE
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if M[i][c] != (0, 0)), None)
        if leading:
            minors.append(M[c][c])
            leading = piv == c
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        top = M[r]
        xa, xb = top[c]
        qa, qb = prev
        for row in M[r + 1 :]:
            ya, yb = row[c]
            for j in range(c + 1, ncols):
                ua, ub = row[j]
                va, vb = top[j]
                row[j] = _zi_exact_div(
                    xa * ua - xb * ub - ya * va + yb * vb,
                    xa * ub + xb * ua - ya * vb - yb * va,
                    qa,
                    qb,
                )
        prev = (xa, xb)
        r += 1
    return minors, r
