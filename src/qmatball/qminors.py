"""Quantum minors of the ambient N x N matrix algebra and the sign
characters of the (m, n) block split.

The coordinate algebras of this package embed into a larger quantum matrix
algebra with generators t[i,j], 1 <= i,j <= N = m + n.  Elements here are
plain free polynomials in those letters (:class:`~qmatball.words.NCPoly`):
no rewriting system is attached, because every identity the package relies
on is certified through exact ladder operators (module
:mod:`qmatball.ladder`).  The laws and the exported slices read their
minors from ``ladder.minor_images``, built without these permutation sums;
the sums give the certificates of the exported slices and, in the tests,
the oracle.

Provided here:

* q-minors: signed permutation sums over a row set and a column set;
* the row and column sign characters, which twist the compact-form
  involution into the indefinite-signature one (checked on operators by
  :func:`qmatball.fockrep.type_identity_ok`);
* the distinguished corner minor, the grouplike volume element built from
  it, and the column sets realizing coordinate generators as minor
  quotients.
"""

from __future__ import annotations

import itertools

from .field import Scalar, q_pow
from .words import NCPoly, sym

__all__ = [
    "inversions",
    "neg_q_pow",
    "qminor",
    "qdet",
    "row_sign",
    "col_sign",
    "row_signs",
    "col_signs",
    "corner_minor_label",
    "opposite_corner_label",
    "volume_element",
    "coordinate_column_set",
    "coordinate_numerator_label",
]


def neg_q_pow(e: int) -> Scalar:
    """(-q)**e for any integer e."""
    return q_pow(e) if e % 2 == 0 else -q_pow(e)


def inversions(s) -> int:
    """Number of inverted pairs of a permutation given in one-line form."""
    s = tuple(s)
    return sum(
        1
        for a, b in itertools.combinations(range(len(s)), 2)
        if s[a] > s[b]
    )


def qminor(rows, cols) -> NCPoly:
    """The k x k quantum minor over ascending index sets of equal size.

    Sum over permutations s of the columns, with weight (-q)^inversions(s),
    of the row-ordered products t[r1, c_s(1)] ... t[rk, c_s(k)].
    """
    rows = tuple(sorted(rows))
    cols = tuple(sorted(cols))
    if len(rows) != len(cols):
        raise ValueError("row and column sets must have equal size")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("index sets must not repeat entries")
    k = len(rows)
    terms: dict = {}
    for s in itertools.permutations(range(k)):
        coeff = neg_q_pow(inversions(s))
        word = tuple(sym("t", rows[r], cols[s[r]]) for r in range(k))
        terms[word] = coeff
    return NCPoly(terms, _clean=True)


def qdet(N: int) -> NCPoly:
    """The full N x N quantum determinant."""
    rng = range(1, N + 1)
    return qminor(rng, rng)


# ---------------------------------------------------------------------------
# sign characters attached to the (m, n) block split


def row_sign(k: int, m: int) -> int:
    """-1 on the first m indices, +1 on the rest."""
    return -1 if k <= m else 1


def col_sign(k: int, n: int) -> int:
    """+1 on the first n indices, -1 on the rest."""
    return 1 if k <= n else -1


def row_signs(m: int, n: int) -> tuple:
    return tuple(row_sign(k, m) for k in range(1, m + n + 1))


def col_signs(m: int, n: int) -> tuple:
    return tuple(col_sign(k, n) for k in range(1, m + n + 1))


# ---------------------------------------------------------------------------
# distinguished elements


def corner_minor_label(m: int, n: int) -> tuple:
    """Label of the m x m upper-right corner minor: rows 1..m, columns n+1..N."""
    N = m + n
    return (tuple(range(1, m + 1)), tuple(range(n + 1, N + 1)))


def opposite_corner_label(m: int, n: int) -> tuple:
    """Label of the n x n lower-left corner minor: rows m+1..N, columns 1..n."""
    N = m + n
    return (tuple(range(m + 1, N + 1)), tuple(range(1, n + 1)))


def volume_element(m: int, n: int) -> NCPoly:
    """(-q)^(mn) times (upper-right corner minor)(lower-left corner minor).

    A grouplike product whose operator image is diagonal with strictly
    positive spectrum; it plays the role of the squared modulus of the
    corner minor.
    """
    up = qminor(*corner_minor_label(m, n))
    lo = qminor(*opposite_corner_label(m, n))
    return (up * lo).scale(neg_q_pow(m * n))


def coordinate_column_set(a: int, al: int, m: int, n: int) -> tuple:
    """Column set whose corner-row minor realizes the coordinate z[a,al].

    Start from columns n+1..N, remove column N+1-al, insert column a.
    """
    N = m + n
    if not (1 <= a <= n and 1 <= al <= m):
        raise ValueError(f"coordinate indices out of range: ({a},{al})")
    cols = set(range(n + 1, N + 1))
    cols.discard(N + 1 - al)
    cols.add(a)
    return tuple(sorted(cols))


def coordinate_numerator_label(a: int, al: int, m: int, n: int) -> tuple:
    """Minor label (rows 1..m, the coordinate column set) for z[a,al]."""
    return (tuple(range(1, m + 1)), coordinate_column_set(a, al, m, n))
