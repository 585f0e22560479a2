"""The compact-form involution on free polynomials in the t letters, as a
test-side reference.

The package checks the involution on operators only
(:func:`qmatball.fockrep.type_identity_ok` and
:func:`qmatball.fockrep.minor_conjugation_ok`, on the cofactor images of
:func:`qmatball.ladder.minor_images`).  The functions here build it as
polynomials, from the permutation sums of :func:`qmatball.qminors.qminor`,
so the tests can feed those polynomials through the operator builders.
"""

from qmatball.field import add_terms
from qmatball.qminors import neg_q_pow, qminor
from qmatball.words import NCPoly, sym


def t_gen(i: int, j: int) -> NCPoly:
    """The single letter t[i,j] as a polynomial."""
    return NCPoly.from_word((sym("t", i, j),))


def star_compact(i: int, j: int, N: int) -> NCPoly:
    """Image of t[i,j] under the compact-form involution: (-q)^(j-i) times
    the complementary quantum minor (rows without i, columns without j)."""
    rows = tuple(r for r in range(1, N + 1) if r != i)
    cols = tuple(c for c in range(1, N + 1) if c != j)
    return qminor(rows, cols).scale(neg_q_pow(j - i))


def star_compact_poly(f: NCPoly, N: int) -> NCPoly:
    """Conjugate-linear antimultiplicative extension of the compact involution."""
    out: dict = {}
    for word, c in f.terms.items():
        piece = NCPoly.from_word((), c.conjugate())
        for g in reversed(word):
            if g.kind != "t":
                raise ValueError(f"expected a t-letter, got {g.token()}")
            piece = piece * star_compact(g.row, g.col, N)
        add_terms(out, piece.terms.items())
    return NCPoly(out, _clean=True)
