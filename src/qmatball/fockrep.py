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
:class:`TruncatedOperator`: the ladder operator evaluated on every e_k with
|k| <= cert, with that certificate and degree-shift bounds.  The bounds
come without entries, from the rules of the truncated arithmetic (products,
sums, adjoints) run along the ladder products that build the operator, so
each slice is exact on its recorded degrees.  The truncated arithmetic
stays public: ``rep_pol_word`` and ``rep_pol_poly`` compose slices.

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

from .algebras import make_preset
from .field import ONE, GaussRat, Scalar, ZERO, add_terms, q_pow
from .ladder import (
    LadderOperator,
    coordinate_image,
    corner_image,
    generator_image,
    letter_images,
    pol_image,
    staircase_product,
    tpoly_image,
    word_image,
)
from .linalg import mat_leading_pivots, mat_mul, mat_rank
from .qminors import (
    col_sign,
    coordinate_numerator_label,
    corner_minor_label,
    neg_q_pow,
    opposite_corner_label,
    qdet,
    qminor,
    row_sign,
    star_compact,
    volume_element,
)
from .words import NCPoly, sym, word_tokens

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
    "rep_pol_word",
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
def _norm2_ratio(jout: int, jin: int) -> Scalar:
    """fock_norm2(jout) / fock_norm2(jin), built factor by factor so the
    quotient never routes through a large polynomial reduction."""
    if jout == jin:
        return ONE
    if jout < jin:
        return _norm2_ratio(jin, jout).inverse()
    out = ONE
    for i in range(jin + 1, jout + 1):
        out = out * (q_pow(-2 * i) - ONE)
    return out


def _weight_ratio(kout: tuple, kin: tuple) -> Scalar:
    """fock_weight(kout) / fock_weight(kin) as a product of leg ratios."""
    out = ONE
    for a, b in zip(kout, kin):
        if a != b:
            out = out * _norm2_ratio(a, b)
    return out


@lru_cache(maxsize=None)
def fock_basis(legs: int, maxdeg: int) -> tuple:
    """All multi-indices with the given number of legs and total <= maxdeg,
    ordered by total degree then lexicographically."""
    out = []
    for d in range(maxdeg + 1):
        out.extend(_fixed_degree(legs, d))
    return tuple(out)


def _fixed_degree(legs: int, d: int) -> list:
    if legs == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        out.extend((first,) + rest for rest in _fixed_degree(legs - 1, d - first))
    return out


# ---------------------------------------------------------------------------
# truncated operators


class TruncatedOperator:
    """An exact operator slice on the weighted tensor basis.

    ``entries`` maps (out-index, in-index) to a nonzero Scalar.  Columns are
    complete for every input of total degree <= ``cert``.  ``up``/``down``
    bound the degree shift of any matrix entry, including entries beyond the
    stored slice; they are propagated structurally (sums under composition).
    The observed shifts within the slice (never larger) refine certificate
    arithmetic for compositions.  No column beyond ``cert`` is stored, so an
    operation that keeps the certificate keeps every entry unfiltered.
    """

    __slots__ = ("legs", "cert", "entries", "up", "down", "_obs_up", "_obs_down", "_cols")

    def __init__(self, legs, cert, entries, up, down):
        if cert < 0:
            raise CutoffError("operator slice is empty (certificate below zero)")
        self.legs = legs
        self.cert = cert
        self.entries = entries
        self.up = up
        self.down = down
        obs_up = 0
        obs_down = 0
        for kout, kin in entries:
            din = sum(kin)
            if din > cert:
                raise ValueError(
                    f"stored column at degree {din} beyond certificate {cert}"
                )
            sft = sum(kout) - din
            if sft > obs_up:
                obs_up = sft
            elif -sft > obs_down:
                obs_down = -sft
        self._obs_up = obs_up
        self._obs_down = obs_down
        self._cols = None

    # -- constructors

    @classmethod
    def zero(cls, legs, cert):
        return cls(legs, cert, {}, 0, 0)

    @classmethod
    def identity(cls, legs, cert):
        entries = {(k, k): ONE for k in fock_basis(legs, cert)}
        return cls(legs, cert, entries, 0, 0)

    @classmethod
    def diagonal(cls, legs, cert, eig):
        entries = {}
        for k in fock_basis(legs, cert):
            c = eig(k)
            if c:
                entries[(k, k)] = c
        return cls(legs, cert, entries, 0, 0)

    # -- structure

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

    # -- arithmetic

    def _check_legs(self, other):
        if self.legs != other.legs:
            raise ValueError("operators live on different tensor spaces")

    def __add__(self, other):
        self._check_legs(other)
        cert = min(self.cert, other.cert)
        acc = dict(self._entries_through(cert))
        add_terms(acc, other._entries_through(cert).items())
        return TruncatedOperator(
            self.legs, cert, acc, max(self.up, other.up), max(self.down, other.down)
        )

    def __neg__(self):
        return self.scale(-ONE)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar):
        if not c:
            return TruncatedOperator.zero(self.legs, self.cert)
        if c == ONE:
            return self  # operators are never mutated
        entries = {key: v * c for key, v in self.entries.items()}
        return TruncatedOperator(self.legs, self.cert, entries, self.up, self.down)

    def _entries_through(self, cert: int) -> dict:
        """The stored entries whose input degree is at most ``cert`` (the
        entries themselves, unfiltered, when that keeps every column)."""
        if cert >= self.cert:
            return self.entries
        return {key: c for key, c in self.entries.items() if sum(key[1]) <= cert}

    def compose(self, other):
        """Operator product self . other (other is applied first)."""
        self._check_legs(other)
        cert = min(other.cert, self.cert - other._obs_up)
        if cert < 0:
            raise CutoffError("composition exhausts the certified slice")
        cols = self._column_index()
        acc = add_terms({}, (
            ((kout, kin), c1 * c2)
            for (mid, kin), c2 in other._entries_through(cert).items()
            for kout, c1 in cols.get(mid, ())
        ))
        return TruncatedOperator(
            self.legs, cert, acc, self.up + other.up, self.down + other.down
        )

    def adjoint(self):
        """Adjoint for the weighted inner product (entrywise D^-1 A^T- D)."""
        cert = self.cert - self.down
        if cert < 0:
            raise CutoffError("adjoint exhausts the certified slice")
        entries = {}
        for (kout, kin), c in self.entries.items():
            if sum(kout) > cert:
                continue
            entries[(kin, kout)] = c.conjugate() * _weight_ratio(kout, kin)
        return TruncatedOperator(self.legs, cert, entries, self.down, self.up)

    def __repr__(self):
        return (
            f"TruncatedOperator(legs={self.legs}, cert={self.cert}, "
            f"entries={len(self.entries)}, shift=+{self.up}/-{self.down})"
        )


# ---------------------------------------------------------------------------
# slices of the ladder operators


class _Bounded:
    """A ladder operator with the certificate and shift bounds of its slices.

    The bounds follow the rules of :class:`TruncatedOperator`, run without
    entries: a product is certified through min(right cert, left cert minus
    the right factor's largest up-shift), a sum through the smaller
    certificate with the larger shift bounds, an adjoint through cert minus
    down with the shifts swapped.  None of them depends on the cutoff, so
    ``cert`` is kept relative to it: the slice at cutoff c is certified
    through c + cert.
    """

    __slots__ = ("op", "cert", "up", "down")

    def __init__(self, op: LadderOperator, cert: int, up: int, down: int):
        self.op = op
        self.cert = cert
        self.up = up
        self.down = down

    @classmethod
    def start(cls, op: LadderOperator):
        """An operator the bounds start from (a generator, the identity or
        zero), with the shifts of its own terms, certified through cutoff +
        legs: a staircase factor lowers the certificate by at most one, so
        every letter stays certified through the cutoff."""
        shifts = [sum(d) for d, _ in op.terms]
        return cls(op, op.legs, max([0, *shifts]), max([0, *(-x for x in shifts)]))

    def compose(self, other):
        top = max([0, *(sum(d) for d, _ in other.op.terms)])
        return _Bounded(
            self.op.compose(other.op), min(other.cert, self.cert - top),
            self.up + other.up, self.down + other.down,
        )

    def __add__(self, other):
        return _Bounded(
            self.op + other.op, min(self.cert, other.cert),
            max(self.up, other.up), max(self.down, other.down),
        )

    def scale(self, c: Scalar):
        return _Bounded(self.op.scale(c), self.cert, self.up, self.down)

    def adjoint(self):
        return _Bounded(self.op.adjoint(), self.cert - self.down, self.down, self.up)

    def slice(self, cutoff: int) -> TruncatedOperator:
        """The columns e_k with |k| <= cutoff + cert, each the image of e_k."""
        legs = self.op.legs
        cert = cutoff + self.cert
        entries = {}
        for k in fock_basis(legs, cert):
            for kout, c in self.op.apply({k: ONE}).items():
                entries[(kout, k)] = c
        return TruncatedOperator(legs, cert, entries, self.up, self.down)


@lru_cache(maxsize=None)
def _bounded_letters(m: int, n: int) -> dict:
    """{(i, j): the letter t[i,j]} from the staircase product."""
    legs = m * n
    P = staircase_product(
        m, n, lambda r, gen: _Bounded.start(generator_image(legs, r, gen)),
        _Bounded.start(LadderOperator.identity(legs)),
    )
    zero = _Bounded.start(LadderOperator(legs, {}))
    N = m + n
    return {(i, j): P.get((i, j), zero) for i in range(1, N + 1) for j in range(1, N + 1)}


def _bounded_tpoly(f: NCPoly, m: int, n: int) -> _Bounded:
    """Image of a polynomial in the t letters (see :func:`ladder.word_image`)."""
    legs = m * n
    return word_image(
        f, _bounded_letters(m, n),
        _Bounded.start(LadderOperator.identity(legs)),
        _Bounded.start(LadderOperator(legs, {})),
    )


@lru_cache(maxsize=None)
def _bounded_coordinate(m: int, n: int, a: int, al: int) -> _Bounded:
    """z[a,al]: the inverse corner minor times the coordinate minor."""
    legs = m * n
    corner = _bounded_tpoly(qminor(*corner_minor_label(m, n)), m, n)
    if corner.op != LadderOperator.diagonal(legs, (1,) * legs):
        raise ArithmeticError("corner minor failed its diagonal law")
    inverse = _Bounded(LadderOperator.diagonal(legs, (-1,) * legs), corner.cert, 0, 0)
    num = _bounded_tpoly(qminor(*coordinate_numerator_label(a, al, m, n)), m, n)
    return inverse.compose(num)


def default_cutoff(m: int, n: int) -> int:
    """A generous default slice per block size (tuned for the test suites)."""
    return {1: 12, 2: 10, 4: 8}.get(m * n, 6)


@lru_cache(maxsize=None)
def rep_letter(m: int, n: int, i: int, j: int, cutoff: int) -> TruncatedOperator:
    """Operator image of the letter t[i,j]."""
    return _bounded_letters(m, n)[(i, j)].slice(cutoff)


def rep_tpoly(f: NCPoly, m: int, n: int, cutoff: int) -> TruncatedOperator:
    """Multiplicative-linear extension to polynomials in the t letters."""
    return _bounded_tpoly(f, m, n).slice(cutoff)


def rep_minor(m: int, n: int, label: tuple, cutoff: int) -> TruncatedOperator:
    return rep_tpoly(qminor(*label), m, n, cutoff)


@lru_cache(maxsize=None)
def rep_coordinate(m: int, n: int, a: int, al: int, cutoff: int) -> TruncatedOperator:
    """Operator image of z[a,al]: corner inverse times the coordinate minor."""
    return _bounded_coordinate(m, n, a, al).slice(cutoff)


@lru_cache(maxsize=None)
def rep_coordinate_star(m, n, a, al, cutoff) -> TruncatedOperator:
    return _bounded_coordinate(m, n, a, al).adjoint().slice(cutoff)


def rep_projector(m: int, n: int, cutoff: int) -> TruncatedOperator:
    """Orthogonal projection onto the degree-zero line."""
    legs = m * n
    zero_idx = (0,) * legs
    return TruncatedOperator(legs, cutoff, {(zero_idx, zero_idx): ONE}, 0, 0)


def rep_pol_word(word: tuple, m: int, n: int, cutoff: int) -> TruncatedOperator:
    """Image of a word in coordinate/conjugate/projector letters."""
    piece = None
    for g in word:
        if g.kind == "z":
            op = rep_coordinate(m, n, g.row, g.col, cutoff)
        elif g.kind == "zs":
            op = rep_coordinate_star(m, n, g.row, g.col, cutoff)
        elif g.kind == "f0":
            op = rep_projector(m, n, cutoff)
        else:
            raise ValueError(f"no operator image for letter {g.token()}")
        piece = op if piece is None else piece.compose(op)
    return rep_tpoly(NCPoly.one(), m, n, cutoff) if piece is None else piece


def rep_pol_poly(f: NCPoly, m: int, n: int, cutoff: int) -> TruncatedOperator:
    acc = None
    for word, c in f.terms.items():
        piece = rep_pol_word(word, m, n, cutoff).scale(c)
        acc = piece if acc is None else acc + piece
    return rep_tpoly(NCPoly.zero(), m, n, cutoff) if acc is None else acc


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
    """Corner minor diagonal q^-(total); volume element diagonal q^-2(total)."""
    corner_image(m, n)  # raises when violated
    vol = tpoly_image(volume_element(m, n), m, n)
    return vol == LadderOperator.diagonal(m * n, (2,) * (m * n))


def vacuum_modulus_value(m: int, n: int) -> Scalar:
    """The vacuum eigenvalue of the opposite corner minor."""
    return vacuum_eigenvalue(tpoly_image(qminor(*opposite_corner_label(m, n)), m, n))


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


def type_identity_ok(m: int, n: int) -> bool:
    """adjoint(image of t[i,j]) = rowsign(i) colsign(j) image of its involute."""
    N = m + n
    letters = letter_images(m, n)
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            img = tpoly_image(star_compact(i, j, N), m, n)
            if row_sign(i, m) * col_sign(j, n) == -1:
                img = -img
            if letters[(i, j)].adjoint() != img:
                return False
    return True


def det_is_identity_ok(m: int, n: int) -> bool:
    """The full quantum determinant acts as the identity."""
    return tpoly_image(qdet(m + n), m, n) == LadderOperator.identity(m * n)


def minor_conjugation_ok(m: int, n: int, k: int) -> bool:
    """Involute of the k x k corner minor vs the complementary corner minor.

    The compact involution sends the top-right k-minor to (-q)^(k(N-k))
    times the bottom-left (N-k)-minor.

    The involution is conjugate-linear and antimultiplicative, so the image
    of the involute of a word is the composition of its letters' involute
    images in reverse order; the involute itself is never multiplied out.
    """
    N = m + n
    legs = m * n
    top = qminor(range(1, k + 1), range(N - k + 1, N + 1))
    involutes = {
        g: tpoly_image(star_compact(g.row, g.col, N), m, n)
        for g in {g for word in top.terms for g in word}
    }
    lhs = LadderOperator(legs, {})
    for word, c in top.terms.items():
        piece = LadderOperator.identity(legs).scale(c.conjugate())
        for g in reversed(word):
            piece = piece.compose(involutes[g])
        lhs = lhs + piece
    rhs = tpoly_image(qminor(range(k + 1, N + 1), range(1, N - k + 1)), m, n)
    return lhs == rhs.scale(neg_q_pow(k * (N - k)))


def corner_adjoint_relation_ok(m: int, n: int) -> bool:
    """Corner minor = (-q)^mn adjoint(opposite corner minor) as operators."""
    up = tpoly_image(qminor(*corner_minor_label(m, n)), m, n)
    lo = tpoly_image(qminor(*opposite_corner_label(m, n)), m, n)
    return up == lo.adjoint().scale(neg_q_pow(m * n))


def rules_as_operators_failures(m: int, n: int) -> list:
    """Every coordinate-algebra rewrite rule as an exact operator identity.

    Returns the patterns of the rules that fail; empty means every rule
    holds on the whole ladder space.
    """
    rules = make_preset("Pol", m, n).presentation.rules
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


def _weight_classes(pres, basis) -> list:
    """For each basis word, the positions of the basis words of its weight.

    Raises ArithmeticError unless every rule of ``pres`` is
    weight-homogeneous: only then does a Gram-type entry between words of
    different weights vanish, the entry being the weight-zero coefficient of
    a normal form of weight equal to their difference.
    """
    _require_none(pres.weight_violations(), "is not weight-homogeneous")
    weights = [pres.word_weight(w) for w in basis]
    classes: dict = {}
    for p, mu in enumerate(weights):
        classes.setdefault(mu, []).append(p)
    return [classes[mu] for mu in weights]


def _lowered_block(pres, m: int, n: int, k: int, below) -> list:
    """The degree-k block B[p][r] = sum over u of L(zs[a], b_p)[u] below[u][r'],
    where b_r = z[a] r', L is ``pres.lower`` and ``below`` is the block of
    degree k - 1.

    Only pairs of equal weight are computed; every other entry is zero.  B
    is Hermitian, so B[r][p] is the conjugate of B[p][r].
    """
    basis = hilbert_basis(m, n, k)
    same = _weight_classes(pres, basis)
    pres.require_lowering()  # the degree-0 block [[1]] needs f0 f0 -> f0 too
    d = len(basis)
    B = [[ZERO] * d for _ in range(d)]
    if k == 0:
        B[0][0] = ONE
        return B
    index = {w: i for i, w in enumerate(hilbert_basis(m, n, k - 1))}
    for r, br in enumerate(basis):
        col = index[br[1:]]
        y = sym("zs", br[0].row, br[0].col)
        for p in same[r]:
            if p < r:
                continue
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
    pres = make_preset("FunU", m, n).presentation
    return _lowered_block(pres, m, n, k, gram_matrix(m, n, k - 1) if k else None)


def gram_minors_positive(m: int, n: int, k: int, s0: Fraction) -> bool:
    """All leading principal minors of the degree-k Gram matrix are positive
    rationals at the sample parameter (Sylvester positivity certificate).

    One elimination pass: every minor is positive iff every pivot
    D_t / D_{t-1} is, and the test stops at the first pivot that is not.
    """
    return _leading_minors_positive(_eval_matrix(gram_matrix(m, n, k), s0))


_GAUSS_ZERO = GaussRat(0)


def _eval_matrix(M, s0) -> list:
    """M at s = s0; only nonzero entries are evaluated, zeros share one value."""
    return [[c.eval_at(s0) if c else _GAUSS_ZERO for c in row] for row in M]


def _leading_minors_positive(G) -> bool:
    """Whether every leading principal minor of a GaussRat matrix is a
    positive rational, read off the pivots of one elimination pass."""
    return all(p.im == 0 and p.re > 0 for p in mat_leading_pivots(G))


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
    pres = make_preset("Pol", m, n).presentation
    below = _transpose(projector_pairing_matrix(m, n, l - 1)) if l else None
    return _transpose(_lowered_block(pres, m, n, l, below))


def _transpose(M) -> list:
    return [list(col) for col in zip(*M)]


def projector_pairing_rank(m: int, n: int, l: int, s0: Fraction) -> int:
    """Rank of the constant-term pairing matrix at a sample parameter value
    (a lower bound for the generic rank)."""
    return mat_rank(_eval_matrix(projector_pairing_matrix(m, n, l), s0))


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
    for g in pol.presentation.symbols("z"):
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
