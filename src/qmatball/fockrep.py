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

The ``rep_*`` builders (behind ``qmb export``) return a read-only
:class:`TruncatedOperator`: an operator that :mod:`qmatball.ladder` builds
and caches (a letter, a minor, the volume element, a coordinate or its
conjugate, or a polynomial in the coordinates and their conjugates)
evaluated on every e_k with |k| <= cert, with that certificate and
degree-shift bounds.  The bounds come without entries: the rules of
multiplying slices entry by entry (products, sums, adjoints) are folded
over integers along the products that define the operator, the staircase
product for the letters and the word grouping of
:func:`qmatball.ladder.word_image` for polynomials (a minor as its
permutation sum).  So each slice is exact on its recorded degrees, and no
slice is ever multiplied.

The laws of the representation (diagonal corner and volume minors, the
vacuum modulus, the type identity, the determinant, the rewrite rules as
operators) are checked on the ladder operators themselves, and so hold at
every degree.

On the symbolic side, the same module computes the graded left-multiplication
blocks on the cyclic module spanned by coordinate monomials times the
rank-one projector, and the associated Gram matrices; comparing those with
the ladder-side data realizes the unitary-equivalence and positivity
certificates of the test suite.
"""

from __future__ import annotations

import io
import json
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .algebras import make_preset
from .field import ONE, Scalar, ZERO, add_terms, q_pow
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
from .linalg import bareiss_zi, mat_mul
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
    "fock_norm2",
    "fock_weight",
    "fock_basis",
    "TruncatedOperator",
    "rep_letter",
    "rep_tpoly",
    "rep_minor",
    "rep_coordinate",
    "rep_coordinate_star",
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
    "theta_block",
    "gram_matrix",
    "gram_minors_positive",
    "fock_gram_matrix",
    "vacuum_orbit",
    "projector_pairing_matrix",
    "projector_pairing_rank",
    "pairing_block_theta",
    "pairing_block_fock",
    "equivalence_report",
    "operator_rows",
    "operator_csv",
    "operator_json",
    "default_cutoff",
]


class CutoffError(ValueError):
    """A requested slice exceeds what the stored truncation certifies."""


# ---------------------------------------------------------------------------
# weighted basis bookkeeping


@lru_cache(maxsize=None)
def fock_norm2(j: int) -> Scalar:
    """Squared length of the j-th ladder vector: prod_{i<=j} (q^-2i - 1)."""
    if j < 0:
        raise ValueError("ladder index must be nonnegative")
    if j == 0:
        return ONE
    return fock_norm2(j - 1) * (q_pow(-2 * j) - ONE)


@lru_cache(maxsize=None)
def fock_weight(k: tuple) -> Scalar:
    """Squared length of a tensor basis vector (product over the legs)."""
    out = ONE
    for j in k:
        out = out * fock_norm2(j)
    return out


@lru_cache(maxsize=None)
def fock_basis(legs: int, maxdeg: int) -> tuple:
    """All multi-indices with the given number of legs and total <= maxdeg,
    ordered by total degree then lexicographically."""
    out = []
    for d in range(maxdeg + 1):
        out.extend(compositions(d, legs))
    return tuple(out)


# ---------------------------------------------------------------------------
# truncated operators


class TruncatedOperator:
    """A read-only operator slice on the weighted tensor basis.

    ``entries`` maps (out-index, in-index) to a nonzero Scalar.  Columns are
    complete for every input of total degree <= ``cert``, and none beyond it
    is stored.  ``up``/``down`` bound the degree shift of any matrix entry,
    including entries beyond the stored slice.
    """

    __slots__ = ("legs", "cert", "entries", "up", "down", "_cols")

    def __init__(self, legs, cert, entries, up, down):
        if cert < 0:
            raise CutoffError("operator slice is empty (certificate below zero)")
        for _, kin in entries:
            if sum(kin) > cert:
                raise ValueError(
                    f"stored column at degree {sum(kin)} beyond certificate {cert}"
                )
        self.legs = legs
        self.cert = cert
        self.entries = entries
        self.up = up
        self.down = down
        self._cols = None

    def _column_index(self):
        cols = self._cols
        if cols is None:
            cols = {}
            for (kout, kin), c in self.entries.items():
                cols.setdefault(kin, []).append((kout, c))
            self._cols = cols
        return cols

    def apply(self, vec: dict) -> dict:
        """Image of a vector given as {multi-index: Scalar}."""
        for kin in vec:
            if sum(kin) > self.cert:
                raise CutoffError(
                    f"vector component at degree {sum(kin)} beyond certificate {self.cert}"
                )
        cols = self._column_index()
        return add_terms({}, (
            (kout, a * c) for kin, c in vec.items() for kout, a in cols.get(kin, ())
        ))

    def __repr__(self):
        return (
            f"TruncatedOperator(legs={self.legs}, cert={self.cert}, "
            f"entries={len(self.entries)}, shift=+{self.up}/-{self.down})"
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
        return _Header(self.cert, self.up, self.down, max([0, *(sum(d) for d, _ in op.terms)]))

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
    shifts = [sum(d) for d, _ in op.terms]
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
    """The columns e_k with |k| <= cutoff + h.cert, each the image of e_k,
    with the header's shift bounds; a certificate below zero raises
    :class:`CutoffError`."""
    cert = cutoff + h.cert
    entries = {}
    for k in fock_basis(op.legs, cert):
        for kout, c in op.apply({k: ONE}).items():
            entries[(kout, k)] = c
    return TruncatedOperator(op.legs, cert, entries, h.up, h.down)


def default_cutoff(m: int, n: int) -> int:
    """A generous default slice per block size (tuned for the test suites)."""
    return {1: 12, 2: 10, 4: 8}.get(m * n, 6)


@lru_cache(maxsize=None)
def rep_letter(m: int, n: int, i: int, j: int, cutoff: int) -> TruncatedOperator:
    """Operator image of the letter t[i,j]."""
    return _slice(letter_images(m, n)[(i, j)], _letter_headers(m, n)[(i, j)], cutoff)


def rep_tpoly(f: NCPoly, m: int, n: int, cutoff: int) -> TruncatedOperator:
    """Multiplicative-linear extension to polynomials in the t letters."""
    return _slice(tpoly_image(f, m, n), _tpoly_header(f, m, n), cutoff)


def rep_minor(m: int, n: int, label: tuple, cutoff: int) -> TruncatedOperator:
    """Operator image of the minor t^[I|J], label = (I, J) index sets."""
    h = _tpoly_header(qminor(*label), m, n)  # qminor checks the index sets
    ascending = tuple(tuple(sorted(s)) for s in label)
    return _slice(minor_image(m, n, ascending), h, cutoff)


@lru_cache(maxsize=None)
def rep_coordinate(m: int, n: int, a: int, al: int, cutoff: int) -> TruncatedOperator:
    """Operator image of z[a,al]: corner inverse times the coordinate minor."""
    g = sym("z", a, al)
    return _slice(coordinate_image(g, m, n), _coordinate_headers(m, n)[g], cutoff)


@lru_cache(maxsize=None)
def rep_coordinate_star(m, n, a, al, cutoff) -> TruncatedOperator:
    """Operator image of zs[a,al], the adjoint of z[a,al]."""
    g = sym("zs", a, al)
    return _slice(coordinate_image(g, m, n), _coordinate_headers(m, n)[g], cutoff)


def rep_projector(m: int, n: int, cutoff: int) -> TruncatedOperator:
    """Orthogonal projection onto the degree-zero line."""
    legs = m * n
    zero_idx = (0,) * legs
    return TruncatedOperator(legs, cutoff, {(zero_idx, zero_idx): ONE}, 0, 0)


def rep_pol_poly(f: NCPoly, m: int, n: int, cutoff: int) -> TruncatedOperator:
    """Image of a polynomial in the coordinate and conjugate letters.  Any
    other letter, the projector f0 included, raises ValueError."""
    headers = _coordinate_headers(m, n)

    def letter(g):
        if g not in headers:
            raise ValueError(f"no operator image for letter {g.token()}")
        return headers[g]

    h = word_image(f, letter, _Header(m * n))
    return _slice(pol_image(f, m, n), h, cutoff)


def vacuum_eigenvalue(op) -> Scalar:
    """Eigenvalue on the vacuum vector of a truncated or ladder operator;
    raises if the vacuum is not fixed."""
    zero_idx = (0,) * op.legs
    img = op.apply({zero_idx: ONE})
    if img.keys() - {zero_idx}:
        raise ValueError("vacuum vector is not an eigenvector")
    return img.get(zero_idx, ZERO)


def apply_coordinate_word(word: tuple, m: int, n: int) -> dict:
    """The vector (image of the word applied to the vacuum), word read left to right."""
    vec = {(0,) * (m * n): ONE}
    for g in reversed(word):
        vec = coordinate_image(g, m, n).apply(vec)
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
    for s0 in s0_list:
        got = cc.eval_at(s0)
        if got.im != 0 or got.re != Fraction(s0) ** (-4 * m * n):
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
    """
    rules = make_preset("Pol", m, n).rules
    return [
        pat for pat, repl in rules.items()
        if pol_image(NCPoly.from_word(pat), m, n) != pol_image(repl, m, n)
    ]


# ---------------------------------------------------------------------------
# the cyclic module side: graded blocks and Gram matrices


def hilbert_basis(m: int, n: int, k: int) -> list:
    """Ordered coordinate monomials of degree k (normal z-words)."""
    return make_preset("CMat", m, n).basis_by_total_degree(k)


def theta_block(f: NCPoly, m: int, n: int, k_in: int, k_out: int):
    """Block of left multiplication by f between graded slices of the
    cyclic module (coordinate monomials times the projector)."""
    funu = make_preset("FunU", m, n)
    f0 = sym("f0")
    basis_in = hilbert_basis(m, n, k_in)
    basis_out = hilbert_basis(m, n, k_out)
    index = {w: r for r, w in enumerate(basis_out)}
    block = [[ZERO] * len(basis_in) for _ in basis_out]
    for col, psi in enumerate(basis_in):
        g = funu.multiply(f, NCPoly.from_word(psi + (f0,)))
        for word, c in g.terms.items():
            if not word or word[-1].kind != "f0" or any(
                s.kind != "z" for s in word[:-1]
            ):
                raise ArithmeticError(
                    "left multiplication left the cyclic module span"
                )
            row = index.get(word[:-1])
            if row is not None:
                block[row][col] = c
    return block


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
    depends on the rules, which :func:`_lowered_block` checks: only then
    does a Gram-type entry between words of different weights vanish, the
    entry being the weight-zero coefficient of a normal form of weight equal
    to their difference.
    """
    blocks: dict = {}
    for p, w in enumerate(hilbert_basis(m, n, k)):
        mu = tuple(map(sum, zip(*(generator_weight(g, m, n) for g in w))))
        blocks.setdefault(mu, []).append(p)
    return tuple(map(tuple, blocks.values()))


def _lowered_block(pres, m: int, n: int, k: int, below) -> list:
    """The degree-k block B[p][r] = sum over u of L(zs[a], b_p)[u] below[u][r'],
    where b_r = z[a] r', L is ``pres.lower`` and ``below`` is the block of
    degree k - 1.

    Only pairs in one weight block are computed; every other entry is zero,
    which needs every rule of ``pres`` to be weight-homogeneous (else
    ArithmeticError).  B is Hermitian, so B[r][p] is the conjugate of
    B[p][r].
    """
    _require_none(pres.weight_violations(), "is not weight-homogeneous")
    pres.require_lowering()  # the degree-0 block [[1]] needs f0 f0 -> f0 too
    basis = hilbert_basis(m, n, k)
    d = len(basis)
    B = [[ZERO] * d for _ in range(d)]
    if k == 0:
        B[0][0] = ONE
        return B
    index = {w: i for i, w in enumerate(hilbert_basis(m, n, k - 1))}
    for block in _weight_blocks(m, n, k):
        for i, r in enumerate(block):
            br = basis[r]
            col = index[br[1:]]
            y = sym("zs", br[0].row, br[0].col)
            for p in block[i:]:
                val = ZERO
                for u, c in pres.lower(y, basis[p]).items():
                    e = below[index[u]][col]
                    if e:
                        val = val + c * e
                B[p][r] = val
                if p != r:
                    B[r][p] = val.conjugate()
    return B


@lru_cache(maxsize=None)
def gram_matrix(m: int, n: int, k: int):
    """Exact Gram matrix of the degree-k monomials in the cyclic module.

    Entry (p, r) is the pairing of the p-th and r-th basis vectors: the
    projector coefficient of f0 (conjugate of b_r) b_p f0.  With
    b_r = z[a] r' it is the sum over u of L(zs[a], b_p)[u] times entry
    (u, r') of the degree k - 1 matrix, since f0 (conjugate of r') zs[a] b_p
    f0 is the sum of L(zs[a], b_p)[u] f0 (conjugate of r') u f0.
    """
    pres = make_preset("FunU", m, n)
    return _lowered_block(pres, m, n, k, gram_matrix(m, n, k - 1) if k else None)


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
    blocks = _zi_blocks(gram_matrix(m, n, k), _weight_blocks(m, n, k), s0)
    return all(_leading_minors_positive(rows) for rows in blocks)


def _zi_blocks(M, blocks, s0) -> list:
    """Each weight block of M at s = s0, as rows of (re, im) int pairs.

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
            row = M[p]
            vals = [row[r].eval_triple(u, v) if row[r] else (0, 0, 1) for r in block]
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
    :func:`hilbert_basis` order.  Shared between callers: do not mutate."""
    return tuple(apply_coordinate_word(w, m, n) for w in hilbert_basis(m, n, k))


def fock_gram_matrix(m: int, n: int, k: int):
    """Gram matrix of the vacuum orbit vectors of the degree-k monomials."""
    return _vector_gram(vacuum_orbit(m, n, k))


def _vector_gram(vecs):
    d = len(vecs)
    G = [[ZERO] * d for _ in range(d)]
    for p in range(d):
        for r in range(p, d):
            acc = _fock_inner(vecs[p], vecs[r])
            G[p][r] = acc
            if p != r:
                G[r][p] = acc.conjugate()
    return G


def _fock_inner(u: dict, v: dict) -> Scalar:
    """Sum of u_k * conj(v_k) * |e_k|^2 over the ladder basis vectors e_k,
    walking the smaller of the two vectors."""
    small, big = (u, v) if len(u) <= len(v) else (v, u)
    acc = ZERO
    for idx, c in small.items():
        o = big.get(idx)
        if o is not None:
            a, b = (c, o) if small is u else (o, c)
            acc = acc + a * b.conjugate() * fock_weight(idx)
    return acc


@lru_cache(maxsize=None)
def projector_pairing_matrix(m: int, n: int, l: int):
    """Constant-term pairings of conjugated degree-l monomials against
    degree-l monomials in the coordinate *-algebra (no projector involved).

    Sandwiching the projector between a degree-k monomial and a conjugated
    degree-l monomial acts on the cyclic module by (vector) times (this
    pairing); the block of all such operators between the graded slices has
    full rank exactly when this matrix is invertible.  Entry (r, p) is the
    constant term of (conjugate of b_r) b_p; its transpose follows the Gram
    recursion, since the words of zs[a] b_p that the lowering map drops end
    in zs and so have no constant term after any left factor.
    """
    pres = make_preset("Pol", m, n)
    below = _transpose(projector_pairing_matrix(m, n, l - 1)) if l else None
    return _transpose(_lowered_block(pres, m, n, l, below))


def _transpose(M) -> list:
    return [list(col) for col in zip(*M)]


def projector_pairing_rank(m: int, n: int, l: int, s0: Fraction) -> int:
    """Rank of the constant-term pairing matrix at a sample parameter value
    (a lower bound for the generic rank).

    The sum of the ranks of its weight blocks, each from one fraction-free
    pass over Z[i] as in :func:`gram_minors_positive`, which also says
    which ``s0`` are accepted.
    """
    blocks = _zi_blocks(projector_pairing_matrix(m, n, l), _weight_blocks(m, n, l), s0)
    return sum(bareiss_zi(rows)[1] for rows in blocks)


def pairing_block_theta(f: NCPoly, m: int, n: int, k_in: int, k_out: int):
    """Matrix of pairings of (f times in-basis vectors) against out-basis
    vectors: the transposed coefficient block times the Gram matrix."""
    T = theta_block(f, m, n, k_in, k_out)
    return mat_mul(_transpose(T), gram_matrix(m, n, k_out))


def pairing_block_fock(op, m: int, n: int, k_in: int, k_out: int):
    """Same pairings computed on the ladder side for the operator image
    (a truncated or ladder operator: anything with ``apply``)."""
    vout = vacuum_orbit(m, n, k_out)
    images = map(op.apply, vacuum_orbit(m, n, k_in))
    return [[_fock_inner(img, vr) for vr in vout] for img in images]


def equivalence_report(m: int, n: int, through: int) -> dict:
    """Unitary-equivalence certificate between the two module pictures.

    * gram: the symbolic Gram matrix equals the ladder-side Gram matrix in
      every degree <= through (so the vacuum-orbit map is isometric);
    * raising/lowering: for every coordinate generator and its conjugate,
      the pairings of the symbolic action against the graded basis equal
      the ladder-side pairings (so the isometry intertwines the actions);
    * projector: same for the rank-one projector block.
    Together with the rewrite rules holding as operator identities, this is
    exactly unitary equivalence on the slab of degrees <= through.
    """
    report = {"gram": True, "raising": True, "lowering": True, "projector": True}
    for k in range(through + 1):
        if gram_matrix(m, n, k) != fock_gram_matrix(m, n, k):
            report["gram"] = False
    pol = make_preset("Pol", m, n)
    for g in pol.symbols("z"):
        zpoly = NCPoly.from_word((g,))
        op = coordinate_image(g, m, n)
        for k in range(through):
            if pairing_block_theta(zpoly, m, n, k, k + 1) != pairing_block_fock(
                op, m, n, k, k + 1
            ):
                report["raising"] = False
        gs = sym("zs", g.row, g.col)
        spoly = NCPoly.from_word((gs,))
        sop = coordinate_image(gs, m, n)
        for k in range(1, through + 1):
            if pairing_block_theta(spoly, m, n, k, k - 1) != pairing_block_fock(
                sop, m, n, k, k - 1
            ):
                report["lowering"] = False
    # the projector is no q-difference operator; its block lives on the
    # vacuum alone, where the one-entry slice is the whole operator
    f0poly = NCPoly.from_word((sym("f0"),))
    if pairing_block_theta(f0poly, m, n, 0, 0) != pairing_block_fock(
        rep_projector(m, n, 0), m, n, 0, 0
    ):
        report["projector"] = False
    return report


# ---------------------------------------------------------------------------
# export


def operator_rows(op: TruncatedOperator) -> list:
    rows = [
        (kout, kin, c.to_string())
        for (kout, kin), c in op.entries.items()
    ]
    rows.sort(key=lambda t: (t[1], t[0]))
    return rows


def operator_csv(op: TruncatedOperator) -> str:
    import csv

    buf = io.StringIO()
    buf.write(
        f"# legs={op.legs} cert={op.cert} shift_up={op.up} shift_down={op.down}\n"
    )
    w = csv.writer(buf)
    w.writerow(["out_index", "in_index", "value"])
    for kout, kin, val in operator_rows(op):
        w.writerow([" ".join(map(str, kout)), " ".join(map(str, kin)), val])
    return buf.getvalue()


def operator_json(op: TruncatedOperator) -> str:
    return json.dumps(
        {
            "legs": op.legs,
            "cert": op.cert,
            "shift_up": op.up,
            "shift_down": op.down,
            "entries": [
                {"out": list(kout), "in": list(kin), "value": val}
                for kout, kin, val in operator_rows(op)
            ],
        }
    )
