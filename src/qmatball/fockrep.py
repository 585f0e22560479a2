"""Operator slices on the weighted ladder basis, the representation laws,
and the cyclic-module comparison.

The ladder space has the basis e_k, k in N^L (one index per tensor leg,
L = mn for the (m, n) block split), with the weighted inner product
||e_k||^2 = prod over legs of (q^-2 - 1)(q^-4 - 1)...(q^-2k_l - 1).  On
one leg the 2 x 2 ladder generators act as

    t[1,1] e_j = e_{j+1}            t[1,2] e_j = q^-j e_j
    t[2,2] e_j = (1 - q^-2j) e_{j-1}    t[2,1] e_j = -q^-(j+1) e_j

and :mod:`qmatball.ladder` builds every letter, minor, coordinate and
conjugate coordinate from them as an exact q-difference operator.

The ``rep_*`` builders (behind ``qmb export``) return a
:class:`TruncatedOperator`: an operator that :mod:`qmatball.ladder` builds
(a polynomial in the t letters, a minor, or a polynomial in the
coordinates and their conjugates; a letter or a coordinate is a one-letter
polynomial) with a certificate cert and degree-shift bounds.  Its rows are
the images of the e_k with |k| <= cert, computed one column at a time in
output order, so an export holds one column and the operator, never the
whole slice.  The bounds come without entries: the rules of multiplying
slices entry by entry (products, sums, adjoints) are folded over integers
along the products that define the operator, the staircase product for the
letters and the word grouping of :func:`qmatball.ladder.word_image` for
polynomials (a minor as its permutation sum).  So each slice is exact on
its recorded degrees, and no slice is ever multiplied or applied.

The laws of the representation (diagonal corner and volume minors, the
vacuum modulus, the type identity, the determinant, the rewrite rules as
operators) are checked on the ladder operators themselves, and so hold at
every degree.

On the symbolic side, the same module computes the sparse action of a
polynomial on the cyclic module spanned by coordinate monomials times the
rank-one projector (letter by letter, through the lowering map), and the
Gram matrices of that module; the constant-term pairing of the coordinate
*-algebra is their transpose.  The unitary-equivalence certificate compares
those Gram matrices with the ones of the vacuum orbit vectors
v_b = pi(b) e_0, and the action of each coordinate letter with its ladder
image, pi(x) v_psi = sum of c_u v_u, as integer vectors.  The vacuum orbit
vectors hold {(e, j): c} per basis vector (as
:meth:`qmatball.ladder.LadderOperator.apply_int` gives them) and each
||e_k||^2 is a Laurent polynomial in s over Z.  Two vectors pair only
through the ladder indices they share, so the ladder-side Gram matrix is
built index by index, from the pairs that share one, and a Scalar is made
once per nonzero entry; the ladder side of the vector comparison makes
none.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .algebras import make_preset, star_words
from .field import (
    ONE,
    Scalar,
    ZERO,
    add_terms,
    from_laurent,
    laurent_conj,
    laurent_dot,
    q_pow,
    to_laurent,
)
from .ladder import (
    LadderOperator,
    coordinate_image,
    coordinate_images,
    corner_image,
    generator_image,
    letter_images,
    minor_image,
    minor_images,
    pol_image,
    staircase_product,
    t_letters,
    tpoly_image,
    word_image,
)
from .linalg import bareiss_zi
from .qminors import (
    col_sign,
    coordinate_numerator_label,
    corner_minor_label,
    neg_q_pow,
    opposite_corner_label,
    qminor,
    row_sign,
)
from .words import NCPoly, compositions, generator_weight, sym, word_tokens

__all__ = [
    "CutoffError",
    "TruncatedOperator",
    "rep_tpoly",
    "rep_minor",
    "rep_projector",
    "rep_pol_poly",
    "vacuum_eigenvalue",
    "apply_coordinate_word",
    "diagonal_laws_ok",
    "vacuum_modulus_value",
    "vacuum_modulus_ok",
    "type_identity_ok",
    "det_is_identity_ok",
    "minor_conjugation_ok",
    "corner_adjoint_relation_ok",
    "rules_as_operators_failures",
    "hilbert_basis",
    "cyclic_action",
    "gram_matrix",
    "gram_minors_positive",
    "fock_gram_entries",
    "vacuum_orbit",
    "projector_pairing_rank",
    "intertwines",
    "equivalence_report",
    "write_csv",
    "write_json",
    "default_cutoff",
]


class CutoffError(ValueError):
    """A requested slice exceeds what its truncation certifies."""


# ---------------------------------------------------------------------------
# truncated operators


class TruncatedOperator:
    """A ladder operator ``op`` on the columns e_k with |k| <= ``cert``.

    ``up``/``down`` bound the degree shift of any matrix entry, including
    entries beyond the slice.  No entry is stored: :meth:`rows` evaluates
    ``op`` one column at a time.  ``op`` None is the projector onto e_0,
    whose one entry is 1.
    """

    __slots__ = ("legs", "cert", "up", "down", "op")

    def __init__(self, legs, cert, up, down, op=None):
        if cert < 0:
            raise CutoffError("operator slice is empty (certificate below zero)")
        self.legs, self.cert, self.up, self.down, self.op = legs, cert, up, down, op

    def rows(self):
        """(out-index, in-index, Scalar) for every nonzero entry, ordered by
        in-index, then out-index; only one column is held at a time."""
        if self.op is None:
            zero = (0,) * self.legs
            yield zero, zero, ONE
            return
        # k with |k| <= cert, lexicographic: k and a slack part compose cert
        for padded in compositions(self.cert, self.legs + 1):
            k = padded[:-1]
            col = self.op.apply_int({k: {(0, 0): 1}})
            for kout in sorted(col):
                yield kout, k, from_laurent(col[kout])

    def __repr__(self):
        return (
            f"TruncatedOperator(legs={self.legs}, cert={self.cert}, "
            f"shift=+{self.up}/-{self.down})"
        )


# ---------------------------------------------------------------------------
# slices of the ladder operators


class _Header:
    """The certificate and shift bounds of a slice, without its entries.

    The rules of multiplying slices entry by entry, folded over integers: a
    product is certified through min(right cert, left cert - ``top``), with
    ``top`` the right factor's largest up-shift among its own ladder terms
    (:meth:`with_top`; a right factor is always a generator, a letter, a
    numerator minor or a coordinate), and its shift bounds add; a sum takes
    the smaller certificate and the larger shift bounds; an adjoint lowers
    the certificate by ``down`` and swaps the shifts.  The rules commute
    with the word grouping of :func:`ladder.word_image`, and none depends
    on the cutoff, so ``cert`` is kept relative to it: the slice at cutoff
    c is certified through c + cert.
    """

    __slots__ = ("cert", "up", "down", "top")

    def __init__(self, cert: int, up: int = 0, down: int = 0, top=None):
        self.cert, self.up, self.down, self.top = cert, up, down, top

    def with_top(self, op: LadderOperator):
        return _Header(self.cert, self.up, self.down, max([0, *(sum(key[0]) for key in op.terms)]))

    def compose(self, right):
        return _Header(
            min(right.cert, self.cert - right.top), self.up + right.up, self.down + right.down
        )

    def __add__(self, other):
        return _Header(
            min(self.cert, other.cert), max(self.up, other.up), max(self.down, other.down)
        )

    def scale(self, c: Scalar):
        return self

    def adjoint(self):
        return _Header(self.cert - self.down, self.down, self.up)


def _generator_header(op: LadderOperator) -> _Header:
    """A generator's header: the shifts of its own terms, certified through
    cutoff + legs, since a staircase factor lowers the certificate by at
    most one and so every letter stays certified through the cutoff."""
    shifts = [sum(key[0]) for key in op.terms]
    return _Header(op.legs, max([0, *shifts]), max([0, *(-x for x in shifts)])).with_top(op)


@lru_cache(maxsize=None)
def _letter_headers(m: int, n: int) -> dict:
    """{(i, j): header of t[i,j]}, by the staircase product of the letters."""
    legs = m * n
    P = staircase_product(
        m, n, lambda r, gen: _generator_header(generator_image(legs, r, gen)), _Header(legs)
    )
    return {
        (i, j): P.get(((i,), (j,)), _Header(legs)).with_top(op)
        for (i, j), op in letter_images(m, n).items()
    }


def _tpoly_header(f: NCPoly, m: int, n: int) -> _Header:
    """Header of a polynomial in the t letters, by :func:`ladder.word_image`."""
    return word_image(f, t_letters(_letter_headers(m, n)), _Header(m * n))


@lru_cache(maxsize=None)
def _coordinate_headers(m: int, n: int) -> dict:
    """{z[a,al]: header, zs[a,al]: its adjoint}: the inverse corner minor,
    certified as far as the corner minor's word sum, times the numerator
    minor's word sum (:func:`qminors.qminor`)."""
    ops = coordinate_images(m, n)
    inverse = _Header(_tpoly_header(qminor(*corner_minor_label(m, n)), m, n).cert)
    out = {}
    for a in range(1, n + 1):
        for al in range(1, m + 1):
            label = coordinate_numerator_label(a, al, m, n)
            num = _tpoly_header(qminor(*label), m, n).with_top(minor_image(m, n, label))
            z = inverse.compose(num)
            for g, h in ((sym("z", a, al), z), (sym("zs", a, al), z.adjoint())):
                out[g] = h.with_top(ops[g])
    return out


def _slice(op: LadderOperator, h: _Header, cutoff: int) -> TruncatedOperator:
    """``op`` on the columns e_k with |k| <= cutoff + h.cert, with the
    header's shift bounds; a certificate below zero raises
    :class:`CutoffError`."""
    return TruncatedOperator(op.legs, cutoff + h.cert, h.up, h.down, op)


def default_cutoff(m: int, n: int) -> int:
    """A generous default slice per block size (tuned for the test suites)."""
    return {1: 12, 2: 10, 4: 8}.get(m * n, 6)


def rep_tpoly(f: NCPoly, m: int, n: int, cutoff: int) -> TruncatedOperator:
    """Image of a polynomial in the t letters; a one-letter polynomial
    gives the letter's own operator and header."""
    return _slice(tpoly_image(f, m, n), _tpoly_header(f, m, n), cutoff)


def rep_minor(m: int, n: int, label: tuple, cutoff: int) -> TruncatedOperator:
    """Operator image of the minor t^[I|J], label = (I, J) index sets."""
    h = _tpoly_header(qminor(*label), m, n)  # qminor checks the index sets
    ascending = tuple(tuple(sorted(s)) for s in label)
    return _slice(minor_image(m, n, ascending), h, cutoff)


def rep_projector(m: int, n: int, cutoff: int) -> TruncatedOperator:
    """Orthogonal projection onto the degree-zero line."""
    return TruncatedOperator(m * n, cutoff, 0, 0)


def rep_pol_poly(f: NCPoly, m: int, n: int, cutoff: int) -> TruncatedOperator:
    """Image of a polynomial in the coordinate and conjugate letters; a
    one-letter polynomial gives the coordinate's own operator and header.
    Any other letter, the projector f0 included, raises ValueError."""
    headers = _coordinate_headers(m, n)

    def letter(g):
        if g not in headers:
            raise ValueError(f"no operator image for letter {g.token()}")
        return headers[g]

    h = word_image(f, letter, _Header(m * n))
    return _slice(pol_image(f, m, n), h, cutoff)


def vacuum_eigenvalue(op: LadderOperator) -> Scalar:
    """Eigenvalue on the vacuum vector of a ladder operator; raises if the
    vacuum is not fixed."""
    zero_idx = (0,) * op.legs
    img = op.apply_int({zero_idx: {(0, 0): 1}})
    if img.keys() - {zero_idx}:
        raise ValueError("vacuum vector is not an eigenvector")
    return from_laurent(img.get(zero_idx, {}))


def apply_coordinate_word(word: tuple, m: int, n: int) -> dict:
    """The vector (image of the word applied to the vacuum), word read left
    to right, as {multi-index: integer terms} (see
    :meth:`qmatball.ladder.LadderOperator.apply_int`)."""
    vec = {(0,) * (m * n): {(0, 0): 1}}
    for g in reversed(word):
        vec = coordinate_image(g, m, n).apply_int(vec)
    return vec


# ---------------------------------------------------------------------------
# laws of the representation, as identities of ladder operators
#
# Each law below compares exact q-difference operators (module
# :mod:`qmatball.ladder`), so it holds at every degree of the ladder space.


def diagonal_laws_ok(m: int, n: int) -> bool:
    """Corner minor diagonal q^-(total); volume element diagonal q^-2(total).

    The volume element is (-q)^mn (corner minor)(opposite corner minor).
    """
    corner_image(m, n)  # raises when violated
    up = minor_image(m, n, corner_minor_label(m, n))
    lo = minor_image(m, n, opposite_corner_label(m, n))
    vol = up.compose(lo).scale(neg_q_pow(m * n))
    return vol == LadderOperator.diagonal(m * n, (2,) * (m * n))


def vacuum_modulus_value(m: int, n: int) -> Scalar:
    """The vacuum eigenvalue of the opposite corner minor."""
    return vacuum_eigenvalue(minor_image(m, n, opposite_corner_label(m, n)))


def vacuum_modulus_ok(m, n, s0_list=(Fraction(1, 2), Fraction(9, 10))):
    """|vacuum eigenvalue|^2 = q^-2mn, symbolically and at sample points.

    The opposite corner minor kills every excited-column companion minor on
    the vacuum, and its eigenvalue has squared modulus q^-2mn: the corner
    minor has vacuum eigenvalue 1, the volume element eigenvalue 1, and the
    two minors are adjoint up to (-q)^mn.
    """
    c = vacuum_modulus_value(m, n)
    cc = c * c.conjugate()
    if cc != q_pow(-2 * m * n):
        return False
    for s0 in map(Fraction, s0_list):
        a, b, d = cc.eval_triple(s0.numerator, s0.denominator)
        if b or Fraction(a, d) != s0 ** (-4 * m * n):
            return False
    return True


def _involute_images(m: int, n: int) -> dict:
    """{(i, j): image of the compact involute of t[i,j]}, that is
    (-q)^(j-i) times the minor on the rows without i and the columns
    without j."""
    N = m + n
    cof = minor_images(m, n, N - 1)
    out = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            rows = tuple(r for r in range(1, N + 1) if r != i)
            cols = tuple(c for c in range(1, N + 1) if c != j)
            out[(i, j)] = cof[(rows, cols)].scale(neg_q_pow(j - i))
    return out


def type_identity_ok(m: int, n: int) -> bool:
    """adjoint(image of t[i,j]) = rowsign(i) colsign(j) image of its involute."""
    letters = letter_images(m, n)
    for (i, j), img in _involute_images(m, n).items():
        if row_sign(i, m) * col_sign(j, n) == -1:
            img = -img
        if letters[(i, j)].adjoint() != img:
            return False
    return True


def det_is_identity_ok(m: int, n: int) -> bool:
    """The full quantum determinant acts as the identity."""
    full = tuple(range(1, m + n + 1))
    return minor_image(m, n, (full, full)) == LadderOperator.identity(m * n)


def minor_conjugation_ok(m: int, n: int, k: int) -> bool:
    """Involute of the k x k corner minor vs the complementary corner minor.

    The compact involution sends the top-right k-minor to (-q)^(k(N-k))
    times the bottom-left (N-k)-minor.

    The involution is conjugate-linear and antimultiplicative, so the image
    of the involute of the minor is that of its words reversed, with
    conjugated coefficients, each letter t[i,j] read as the image of its
    involute; the involute itself is never multiplied out.
    """
    N = m + n
    top = qminor(range(1, k + 1), range(N - k + 1, N + 1))
    involute = NCPoly({w[::-1]: c.conjugate() for w, c in top.terms.items()})
    lhs = word_image(
        involute, t_letters(_involute_images(m, n)), LadderOperator.identity(m * n)
    )
    rhs = minor_image(m, n, (tuple(range(k + 1, N + 1)), tuple(range(1, N - k + 1))))
    return lhs == rhs.scale(neg_q_pow(k * (N - k)))


def corner_adjoint_relation_ok(m: int, n: int) -> bool:
    """Corner minor = (-q)^mn adjoint(opposite corner minor) as operators."""
    up = minor_image(m, n, corner_minor_label(m, n))
    lo = minor_image(m, n, opposite_corner_label(m, n))
    return up == lo.adjoint().scale(neg_q_pow(m * n))


def rules_as_operators_failures(m: int, n: int) -> list:
    """Every coordinate-algebra rewrite rule as an exact operator identity.

    Returns the patterns of the rules that fail; empty means every rule
    holds on the whole ladder space.

    The image of a starred word is the adjoint of the word's image, since
    zs[a,al] maps to the adjoint of z[a,al] and the adjoint is antilinear
    and reverses products.  So where star maps the relation pattern -
    replacement of a z z rule, word for word, onto a nonzero multiple of
    that of a zs zs rule, the zs zs identity holds exactly when the z z
    one does, and its images are not built.
    """
    rules = make_preset("Pol", m, n).rules
    partner = {}
    for pat, repl in rules.items():
        if all(g.kind == "z" for g in pat):
            starred = star_words(NCPoly.from_word(pat) - repl)
            for spat, lam in starred.terms.items():
                if spat in rules and starred == (NCPoly.from_word(spat) - rules[spat]).scale(lam):
                    partner[spat] = pat
    fails = {
        pat: pol_image(NCPoly.from_word(pat), m, n) != pol_image(repl, m, n)
        for pat, repl in rules.items()
        if pat not in partner
    }
    return [pat for pat in rules if fails[partner.get(pat, pat)]]


# ---------------------------------------------------------------------------
# the cyclic module side: graded blocks and Gram matrices


def hilbert_basis(m: int, n: int, k: int) -> list:
    """Ordered coordinate monomials of degree k (normal z-words)."""
    return make_preset("CMat", m, n).basis_by_total_degree(k)


def cyclic_action(f: NCPoly, m: int, n: int, psi: tuple) -> dict:
    """{u: c} over normal z-words u with f psi f0 = sum of c u f0, for a
    normal z-word psi: the sparse column of left multiplication by f on the
    cyclic module (coordinate monomials times the projector).

    It needs the lowering certificate of the FunU preset, and a letter of f
    outside its alphabet raises ValueError.  Each word of f acts letter by
    letter from the right: a z letter x sends u f0 to NF(x u) f0, which is a
    sum over z-words since the lowering certificate makes every z z
    replacement a z-word; a zs letter y sends it to the lowering map
    L(y, u) (:meth:`~qmatball.words.Presentation.lower`), whose memo the
    Gram matrices share; and f0 keeps only u = 1, since f0 f0 = f0 and
    f0 z = 0.  This rewrites in another order than the normal form of the
    whole product, and reaches the same result because the presentation is
    confluent.
    """
    funu = make_preset("FunU", m, n)
    funu.require_lowering()
    for word in f.terms:
        funu._check_word(word)
    out: dict = {}
    for word, c in f.terms.items():
        vec = {psi: c}
        for g in reversed(word):
            if g.kind == "z":
                pairs = (
                    (w, cu * cw)
                    for u, cu in vec.items()
                    for w, cw in funu.reduce_word((g,) + u).terms.items()
                )
            elif g.kind == "zs":
                pairs = (
                    (w, cu * cw) for u, cu in vec.items() for w, cw in funu.lower(g, u).items()
                )
            else:
                pairs = [((), vec[()])] if () in vec else []
            vec = add_terms({}, pairs)
        add_terms(out, vec.items())
    return out


def _require_none(violations, what: str) -> None:
    """Raise ArithmeticError naming the first (pattern, replacement word)
    pair of a failed certificate."""
    if violations:
        pat, w = violations[0]
        raise ArithmeticError(
            f"rule for {word_tokens(pat)} {what} "
            f"(replacement word {word_tokens(w)}); the pruned block would be unsound"
        )


@lru_cache(maxsize=None)
def _weight_blocks(m: int, n: int, k: int) -> tuple:
    """The positions of the degree-k basis words grouped by torus weight:
    one tuple per weight, positions increasing, blocks ordered by their
    first position.

    Weights depend on the generators alone.  Whether rewriting keeps them
    depends on the rules, which :func:`_gram_entries` checks: only then
    does a Gram-type entry between words of different weights vanish, the
    entry being the weight-zero coefficient of a normal form of weight equal
    to their difference.
    """
    blocks: dict = {}
    for p, w in enumerate(hilbert_basis(m, n, k)):
        mu = tuple(map(sum, zip(*(generator_weight(g, m, n) for g in w))))
        blocks.setdefault(mu, []).append(p)
    return tuple(map(tuple, blocks.values()))


@lru_cache(maxsize=None)
def _gram_entries(m: int, n: int, k: int) -> dict:
    """Exact Gram matrix of the degree-k monomials in the cyclic module, as
    its nonzero entries {(p, r): Scalar}.  Shared: do not mutate.

    Entry (p, r) is the pairing of the p-th and r-th basis vectors: the
    projector coefficient of f0 (conjugate of b_r) b_p f0.  With
    b_r = z[a] r' it is the sum over u of L(zs[a], b_p)[u] times entry
    (u, r') of the degree k - 1 matrix, where L is the lowering map of the
    FunU preset, since f0 (conjugate of r') zs[a] b_p f0 is the sum of
    L(zs[a], b_p)[u] f0 (conjugate of r') u f0.

    Only pairs in one weight block are computed; every other entry is zero,
    which needs every rule to be weight-homogeneous (else ArithmeticError).
    The matrix is Hermitian, so entry (r, p) is the conjugate of (p, r).
    """
    funu = make_preset("FunU", m, n)
    _require_none(funu.weight_violations(), "is not weight-homogeneous")
    funu.require_lowering()  # the degree-0 block [[1]] needs f0 f0 -> f0 too
    if k == 0:
        return {(0, 0): ONE}
    basis = hilbert_basis(m, n, k)
    below = _gram_entries(m, n, k - 1)
    index = {w: i for i, w in enumerate(hilbert_basis(m, n, k - 1))}
    out = {}
    for block in _weight_blocks(m, n, k):
        for i, r in enumerate(block):
            br = basis[r]
            col = index[br[1:]]
            y = sym("zs", br[0].row, br[0].col)
            for p in block[i:]:
                val = ZERO
                for u, c in funu.lower(y, basis[p]).items():
                    e = below.get((index[u], col))
                    if e:
                        val = val + c * e
                if val:
                    out[p, r] = val
                    if p != r:
                        out[r, p] = val.conjugate()
    return out


def gram_matrix(m: int, n: int, k: int):
    """The degree-k Gram matrix as dense rows: :func:`_gram_entries`, and
    ZERO elsewhere.  Every FunU and Pol rule coefficient is real (the tests
    check it through 3x3), so the matrix is real symmetric."""
    entries = _gram_entries(m, n, k)
    d = len(hilbert_basis(m, n, k))
    return [[entries.get((p, r), ZERO) for r in range(d)] for p in range(d)]


def gram_minors_positive(m: int, n: int, k: int, s0: Fraction) -> bool:
    """All leading principal minors of the degree-k Gram matrix are positive
    rationals at the sample parameter (Sylvester positivity certificate).

    The matrix is read one weight block at a time.  Entries between
    different weights vanish, so each leading minor is a product of one
    leading minor per block, and all are positive iff every block's are.
    Each block's minors come from one fraction-free pass over Z[i]
    (:func:`qmatball.linalg.bareiss_zi`).  ``s0`` is anything
    ``Fraction`` accepts; a pole of an entry at s0 raises ZeroDivisionError.
    """
    blocks = _zi_blocks(_gram_entries(m, n, k), _weight_blocks(m, n, k), s0)
    return all(_leading_minors_positive(rows) for rows in blocks)


def _zi_blocks(M: dict, blocks, s0) -> list:
    """Each weight block of the matrix M, given as {(p, r): Scalar} with
    zero entries left out, at s = s0, as rows of (re, im) int pairs.

    Every nonzero entry is evaluated exactly (all of them, before any
    elimination, so a pole raises whatever the verdict), and each row is
    scaled by the lcm of its denominators.  That factor is positive, so the
    sign of every leading minor and the rank are kept.
    """
    s0 = Fraction(s0)
    u, v = s0.numerator, s0.denominator
    out = []
    for block in blocks:
        rows = []
        for p in block:
            row = [M.get((p, r)) for r in block]
            vals = [e.eval_triple(u, v) if e else (0, 0, 1) for e in row]
            scale = lcm(*(d for _, _, d in vals))
            rows.append([(a * (scale // d), b * (scale // d)) for a, b, d in vals])
        out.append(rows)
    return out


def _leading_minors_positive(rows) -> bool:
    """Whether every leading principal minor of a Z[i] matrix is a positive
    integer; a zero minor ends the list of minors and fails the test."""
    return all(b == 0 and a > 0 for a, b in bareiss_zi(rows)[0])


@lru_cache(maxsize=None)
def vacuum_orbit(m: int, n: int, k: int) -> tuple:
    """The vacuum orbit vectors of the degree-k monomials, in
    :func:`hilbert_basis` order, as :func:`apply_coordinate_word` gives
    them.  Shared between callers: do not mutate."""
    return tuple(apply_coordinate_word(w, m, n) for w in hilbert_basis(m, n, k))


@lru_cache(maxsize=None)
def _weight_terms(k: tuple) -> dict:
    """||e_k||^2 = prod over legs l and 1 <= i <= k_l of (s^-4i - 1), as
    integer terms: a Laurent polynomial in s over Z."""
    out = {(0, 0): 1}
    for j in k:
        for i in range(1, j + 1):
            out = laurent_dot([(out, {(-4 * i, 0): 1, (0, 0): -1})])
    return out


def fock_gram_entries(m: int, n: int, k: int) -> dict:
    """The Gram matrix of the vacuum orbit vectors of the degree-k
    monomials, as {(p, r): integer terms of <v_p, v_r>} over p <= r, zero
    entries left out.

    <v_p, v_r> is the sum of v_p[K] conj(v_r[K]) ||e_K||^2 over the ladder
    indices K that both vectors reach, so the vectors are grouped by index
    and only pairs within a group are formed.  Entry (r, p) is the
    conjugate of entry (p, r).
    """
    by_index: dict = {}
    for p, v in enumerate(vacuum_orbit(m, n, k)):
        for key, terms in v.items():
            by_index.setdefault(key, []).append((p, terms))
    pairs: dict = {}
    for key, column in by_index.items():
        weight = _weight_terms(key)
        for i, (r, vr) in enumerate(column):
            dual = laurent_dot([(laurent_conj(vr), weight)])
            for p, vp in column[: i + 1]:
                pairs.setdefault((p, r), []).append((vp, dual))
    return {pr: acc for pr, ps in pairs.items() if (acc := laurent_dot(ps))}


def projector_pairing_rank(m: int, n: int, l: int, s0: Fraction) -> int:
    """Rank of the constant-term pairing matrix at a sample parameter value
    (a lower bound for the generic rank).

    Sandwiching the projector between a degree-k monomial and a conjugated
    degree-l monomial acts on the cyclic module by (vector) times (this
    pairing); the block of all such operators between the graded slices has
    full rank exactly when the matrix is invertible.  Its entry (r, p) is the
    constant term of X = (conjugate of b_r) b_p in the coordinate *-algebra
    (no projector involved), so it is the transpose of the Gram matrix,
    whose entry (p, r) is the projector coefficient of f0 X f0:

    * every rule of the Pol preset is a rule of FunU with the same
      replacement, so X rewrites in FunU to its Pol normal form, the
      constant term c plus normal Pol words;
    * every zs z pair is a Pol pattern, so a nonempty normal Pol word is
      z...z zs...zs: it starts with z or ends with zs, and f0 z = 0,
      zs f0 = 0 in FunU, while f0 f0 = f0;
    * so f0 X f0 rewrites to c f0, and FunU's rewriting is certified
      confluent, so c f0 is its normal form.
    The test suite checks the first two facts at every size from 1x1
    through 3x3.  A matrix and its transpose have the same rank, so this is
    the sum of the ranks of the Gram matrix's weight blocks, each from one
    fraction-free pass over Z[i] as in :func:`gram_minors_positive`, which
    also says which ``s0`` are accepted.
    """
    blocks = _zi_blocks(_gram_entries(m, n, l), _weight_blocks(m, n, l), s0)
    return sum(bareiss_zi(rows)[1] for rows in blocks)


def intertwines(f: NCPoly, m: int, n: int, k: int) -> bool:
    """Whether pi(f) v_psi = sum of c_u v_u for every degree-k basis word
    psi, with {u: c_u} = :func:`cyclic_action` of f on psi and
    v_b = pi(b) e_0 the vacuum orbit vectors (:func:`vacuum_orbit`).

    Both sides are integer vectors: the ladder side as
    :meth:`~qmatball.ladder.LadderOperator.apply_int` gives it, the module
    side summed with :func:`~qmatball.field.laurent_dot`.  A word u outside
    the basis fails the check.  Every rule coefficient lies in the ring
    Z[i][s, 1/s], so each c_u does too; one that does not makes
    :func:`~qmatball.field.to_laurent` raise ValueError naming it, so no
    verdict ever comes from a rounded value.
    """
    op = pol_image(f, m, n)
    orbits: dict = {}
    for psi, v in zip(hilbert_basis(m, n, k), vacuum_orbit(m, n, k)):
        pairs: dict = {}
        for u, c in cyclic_action(f, m, n, psi).items():
            cu = to_laurent(c)
            d = len(u)
            if d not in orbits:
                orbits[d] = dict(zip(hilbert_basis(m, n, d), vacuum_orbit(m, n, d)))
            vu = orbits[d].get(u)
            if vu is None:
                return False
            for key, p in vu.items():
                pairs.setdefault(key, []).append((cu, p))
        want = {key: p for key, ps in pairs.items() if (p := laurent_dot(ps))}
        if op.apply_int(v) != want:
            return False
    return True


def equivalence_report(m: int, n: int, through: int) -> dict:
    """Unitary-equivalence certificate between the two module pictures, on
    the slab of degrees <= through.

    * gram: the symbolic Gram matrix equals the ladder-side one
      (:func:`fock_gram_entries`) in every degree, so the vacuum-orbit map
      b f0 -> v_b = pi(b) e_0 is an isometry; the nonzero entries on and
      above the diagonal are compared, across the whole triangle, and each
      side's other entries are their conjugates;
    * raising/lowering: for every coordinate generator and its conjugate x,
      pi(x) v_psi equals the image of x psi f0 as integer vectors
      (:func:`intertwines`), so the map intertwines each letter exactly;
    * projector: f0 acts on the empty word as 1 (:func:`cyclic_action`
      drops every other word), as the rank-one projector onto the vacuum
      fixes e_0 = v_1.
    An isometry that intertwines every letter is a unitary equivalence of
    the cyclic module with the span of the vacuum orbit.  Comparing
    pairings <pi(x) v_p, v_r> instead would fix pi(x) v_p only up to
    vectors orthogonal to every v_r, and so would also need the v_r to span
    each degree of the ladder space; equal vectors need no such fact.
    """
    report = {"gram": True, "raising": True, "lowering": True, "projector": True}
    for k in range(through + 1):
        upper = {pr: c for pr, c in _gram_entries(m, n, k).items() if pr[0] <= pr[1]}
        ladder = {pr: from_laurent(terms) for pr, terms in fock_gram_entries(m, n, k).items()}
        if upper != ladder:
            report["gram"] = False
    for g in make_preset("Pol", m, n).symbols("z"):
        gs = sym("zs", g.row, g.col)
        if not all(intertwines(NCPoly.from_word((g,)), m, n, k) for k in range(through)):
            report["raising"] = False
        if not all(intertwines(NCPoly.from_word((gs,)), m, n, k) for k in range(1, through + 1)):
            report["lowering"] = False
    if cyclic_action(NCPoly.from_word((sym("f0"),)), m, n, ()) != {(): ONE}:
        report["projector"] = False
    return report


# ---------------------------------------------------------------------------
# export


def write_csv(op: TruncatedOperator, fh) -> None:
    """Write ``op`` to the text stream ``fh`` as CSV, row by row: a
    ``# legs=... cert=... shift_up=... shift_down=...`` line, a column
    header, then one row per entry in :meth:`TruncatedOperator.rows` order."""
    import csv

    fh.write(f"# legs={op.legs} cert={op.cert} shift_up={op.up} shift_down={op.down}\n")
    w = csv.writer(fh)
    w.writerow(["out_index", "in_index", "value"])
    for kout, kin, c in op.rows():
        w.writerow([" ".join(map(str, kout)), " ".join(map(str, kin)), c.to_string()])


def write_json(op: TruncatedOperator, fh) -> None:
    """Write ``op`` to the text stream ``fh`` as one JSON object and a
    newline, entry by entry: the bytes of ``json.dumps`` on the whole object
    (keys legs, cert, shift_up, shift_down, entries)."""
    head = json.dumps(
        {"legs": op.legs, "cert": op.cert, "shift_up": op.up, "shift_down": op.down, "entries": []}
    )
    fh.write(head[:-2])  # everything up to the entries' closing "]}"
    sep = ""
    for kout, kin, c in op.rows():
        fh.write(sep + json.dumps({"out": list(kout), "in": list(kin), "value": c.to_string()}))
        sep = ", "
    fh.write("]}\n")
