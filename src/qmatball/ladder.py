"""Exact operators on the ladder space: finite sums of q-difference terms.

The ladder space has the basis e_k, k in N^L, one index per tensor leg
(L = mn legs for the (m, n) block split), with the weights
||e_k||^2 = prod_l fock_norm2(k_l) of :mod:`qmatball.fockrep`.  Write X_l
for the diagonal operator e_k -> q^(-k_l) e_k and T^d for the shift
e_k -> e_(k+d).  The term c X^a T^d sends e_k to c q^(-a.k) e_(k+d), and
every 2 x 2 ladder generator on leg r is a sum of such terms:

    t11 = T^(e_r)        t12 = X_r
    t21 = -s^-2 X_r      t22 = T^(-e_r) - X_r^2 T^(-e_r)

So is every letter, minor, coordinate and conjugate coordinate built from
them, since sums, products and adjoints of such sums are again such sums.

A :class:`LadderOperator` keeps its terms as a dict {(d, a): c} with no
zero coefficient.  For operators that preserve the ladder space, equal
dicts and equal operators are the same thing: the characters k -> q^(-a.k)
of distinct exponents a are linearly independent, also on any translated
orthant of N^L, because q is not a root of unity (Dedekind-Artin).  So an
identity checked here holds at every degree, with no truncation.

The N x N letters come from the staircase product of the 2 x 2 generators
(see :func:`staircase_product`), and polynomials in them from one
word-grouping routine (see :func:`word_image`).  The exported slices of
:mod:`qmatball.fockrep` go through both too, so that their certificates
follow the same products and sums.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul

from .field import ONE, Scalar, add_terms, q_pow, s_pow
from .qminors import (
    col_signs,
    coordinate_numerator_label,
    corner_minor_label,
    qminor,
    row_signs,
)
from .words import NCPoly, sym

__all__ = [
    "LadderOperator",
    "staircase_transpositions",
    "sign_chain",
    "staircase_product",
    "generator_image",
    "letter_images",
    "word_image",
    "tpoly_image",
    "corner_image",
    "coordinate_images",
    "coordinate_image",
    "pol_image",
]


def _vadd(u: tuple, v: tuple) -> tuple:
    return tuple(map(add, u, v))


def _dot(u: tuple, v: tuple) -> int:
    return sum(map(mul, u, v))


def _times_q(c: Scalar, e: int) -> Scalar:
    """c * q^e."""
    return c * q_pow(e) if e else c


class LadderOperator:
    """The operator sum of c X^a T^d over ``terms`` = {(d, a): c}.

    ``d`` and ``a`` are integer tuples with one entry per leg, and no
    coefficient is zero, so ``==`` is equality of operators on the whole
    ladder space (see the module docstring).  Operators are never mutated.
    """

    __slots__ = ("legs", "terms")

    def __init__(self, legs: int, terms: dict):
        self.legs = legs
        self.terms = terms

    @classmethod
    def diagonal(cls, legs: int, a: tuple):
        """The diagonal operator e_k -> q^(-a.k) e_k."""
        return cls(legs, {((0,) * legs, tuple(a)): ONE})

    @classmethod
    def identity(cls, legs: int):
        return cls.diagonal(legs, (0,) * legs)

    def _check_legs(self, other):
        if self.legs != other.legs:
            raise ValueError("operators live on different tensor spaces")

    def __eq__(self, other):
        if not isinstance(other, LadderOperator):
            return NotImplemented
        return self.legs == other.legs and self.terms == other.terms

    def __add__(self, other):
        self._check_legs(other)
        return LadderOperator(self.legs, add_terms(dict(self.terms), other.terms.items()))

    def __neg__(self):
        return LadderOperator(self.legs, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar):
        if not c:
            return LadderOperator(self.legs, {})
        return LadderOperator(self.legs, {key: v * c for key, v in self.terms.items()})

    def compose(self, other):
        """Operator product self . other (other is applied first):
        (c X^a T^d)(b X^b' T^e) = c b q^(-a.e) X^(a+b') T^(d+e)."""
        self._check_legs(other)
        return LadderOperator(self.legs, add_terms({}, (
            ((_vadd(d, e), _vadd(a, b)), _times_q(c1 * c2, -_dot(a, e)))
            for (d, a), c1 in self.terms.items()
            for (e, b), c2 in other.terms.items()
        )))

    def adjoint(self):
        """Adjoint for the ladder weights.

        c X^a T^d becomes conj(c) q^(a.d) X^a T^(-d) times the weight ratio
        ||e_k||^2 / ||e_(k-d)||^2 of its input e_k, leg by leg: the factor
        prod_{0<=i<d_l} (q^(2i) X_l^2 - 1) where d_l > 0, and the inverse of
        prod_{1<=i<=-d_l} (q^(-2i) X_l^2 - 1) where d_l < 0.  The division
        is exact when the operator preserves the ladder space; otherwise
        this raises ArithmeticError.
        """
        shifts: dict = {}
        for (d, a), c in self.terms.items():
            shifts.setdefault(d, {})[a] = _times_q(c.conjugate(), _dot(a, d))
        out = {}
        for d, poly in shifts.items():
            for leg, dl in enumerate(d):
                for i in range(dl):
                    poly = _times_factor(poly, leg, q_pow(2 * i))
                for i in range(1, 1 - dl):
                    poly = _divide_factor(poly, leg, q_pow(-2 * i))
            back = tuple(-x for x in d)
            out.update(((back, a), c) for a, c in poly.items())
        return LadderOperator(self.legs, out)

    def apply(self, vec: dict) -> dict:
        """Image of a vector given as {multi-index: Scalar}; raises
        ArithmeticError when a component lands outside N^L."""
        out = add_terms({}, (
            (_vadd(k, d), _times_q(c * v, -_dot(a, k)))
            for k, v in vec.items()
            for (d, a), c in self.terms.items()
        ))
        for k in out:
            if min(k) < 0:
                raise ArithmeticError(f"image leaves the ladder space at index {k}")
        return out

    def __repr__(self):
        return f"LadderOperator(legs={self.legs}, terms={len(self.terms)})"


def _times_factor(poly: dict, leg: int, alpha: Scalar) -> dict:
    """poly * (alpha X_leg^2 - 1), for poly = {a: c} in the X variables."""
    return add_terms(
        {a: -c for a, c in poly.items()},
        ((a[:leg] + (a[leg] + 2,) + a[leg + 1 :], c * alpha) for a, c in poly.items()),
    )


def _divide_factor(poly: dict, leg: int, alpha: Scalar) -> dict:
    """The exact quotient h of poly by (alpha X_leg^2 - 1).

    In each X_leg-coefficient series the quotient solves
    h_e = alpha h_(e-2) - poly_e from the lowest exponent up; a nonzero
    remainder raises ArithmeticError.
    """
    rows: dict = {}
    for a, c in poly.items():
        rows.setdefault(a[:leg] + a[leg + 1 :], {})[a[leg]] = c
    quot = {}
    for rest, row in rows.items():
        h: dict = {}
        for e in range(min(row), max(row) - 1):
            c = alpha * h[e - 2] if e - 2 in h else None
            g = row.get(e)
            if g is not None:
                c = -g if c is None else c - g
            if c:
                h[e] = c
        quot.update((rest[:leg] + (e,) + rest[leg:], c) for e, c in h.items())
    if not quot or _times_factor(quot, leg, alpha) != poly:
        raise ArithmeticError(
            "adjoint leaves the ladder space: a weight ratio does not divide"
        )
    return quot


# ---------------------------------------------------------------------------
# the staircase tensor construction


def staircase_transpositions(m: int, n: int) -> tuple:
    """First entries a_k of the adjacent transpositions (a_k, a_k+1), k = 1..mn.

    Their product (rightmost factor applied first) is the permutation that
    sends 1..n to m+1..N and n+1..N to 1..m; this is verified here.
    """
    mn = m * n
    out = []
    for k in range(1, mn + 1):
        out.append(m - (k - 1) // n + (k - 1) % n)
    N = m + n
    img = []
    for x in range(1, N + 1):
        y = x
        for a in reversed(out):
            if y == a:
                y = a + 1
            elif y == a + 1:
                y = a
        img.append(y)
    expected = list(range(m + 1, N + 1)) + list(range(1, m + 1))
    if img != expected:
        raise ValueError(
            f"staircase word product {img} differs from the block swap {expected}"
        )
    return tuple(out)


def sign_chain(m: int, n: int) -> tuple:
    """The mn+1 sign sequences interpolating row signs to column signs.

    Start from the row signs; the k-th transposition must meet the pattern
    (-1, +1) at its two slots and swaps it to (+1, -1).  The chain ending at
    the column signs certifies leg by leg that the tensor product below
    respects the signed involution.
    """
    cur = list(row_signs(m, n))
    chain = [tuple(cur)]
    for a in staircase_transpositions(m, n):
        if cur[a - 1] != -1 or cur[a] != 1:
            raise ValueError(
                f"sign pattern at slot {a} is ({cur[a-1]}, {cur[a]}), expected (-1, +1)"
            )
        cur[a - 1], cur[a] = 1, -1
        chain.append(tuple(cur))
    if chain[-1] != col_signs(m, n):
        raise ValueError("sign chain does not terminate at the column signs")
    return tuple(chain)


def staircase_product(m: int, n: int, generator, ident) -> dict:
    """The N x N letter images as a product of block-embedded generators.

    For the r-th transposition (a, a+1) of the staircase word, the 2 x 2
    generators ``generator(r, "t11")`` ... ``generator(r, "t22")`` on leg r
    fill slots (a, a+1) x (a, a+1) and ``ident`` the rest of the diagonal;
    these operator-valued matrices are multiplied left to right.  Entries
    that stay zero are missing from the result.  Works for any operator
    type with ``compose`` and ``+``.
    """
    N = m + n
    sign_chain(m, n)  # raises if the leg-by-leg sign bookkeeping breaks
    P = None
    for r, a in enumerate(staircase_transpositions(m, n)):
        M = {}
        for i in (a, a + 1):
            for j in (a, a + 1):
                M[(i, j)] = generator(r, f"t{i - a + 1}{j - a + 1}")
        for i in range(1, N + 1):
            if i not in (a, a + 1):
                M[(i, i)] = ident
        if P is None:
            P = M
            continue
        nxt: dict = {}
        for (i, j), left in P.items():
            for jj in (a, a + 1) if j in (a, a + 1) else (j,):
                right = M.get((j, jj))
                if right is None:
                    continue
                if left is ident:
                    term = right
                elif right is ident:
                    term = left
                else:
                    term = left.compose(right)
                prev = nxt.get((i, jj))
                nxt[(i, jj)] = term if prev is None else prev + term
        P = nxt
    return P


def generator_image(legs: int, leg: int, gen: str) -> LadderOperator:
    """One 2 x 2 ladder generator acting on a single tensor leg."""
    zero = (0,) * legs
    e = tuple(1 if l == leg else 0 for l in range(legs))
    if gen == "t11":
        return LadderOperator(legs, {(e, zero): ONE})
    if gen == "t12":
        return LadderOperator(legs, {(zero, e): ONE})
    if gen == "t21":
        return LadderOperator(legs, {(zero, e): -s_pow(-2)})
    if gen == "t22":
        down = tuple(-x for x in e)
        return LadderOperator(legs, {(down, zero): ONE, (down, _vadd(e, e)): -ONE})
    raise ValueError(f"unknown ladder generator {gen!r}")


@lru_cache(maxsize=None)
def letter_images(m: int, n: int) -> dict:
    """{(i, j): image of the letter t[i,j]} for all N x N letters."""
    legs = m * n
    N = m + n
    P = staircase_product(
        m, n, lambda r, gen: generator_image(legs, r, gen), LadderOperator.identity(legs)
    )
    zero = LadderOperator(legs, {})
    return {(i, j): P.get((i, j), zero) for i in range(1, N + 1) for j in range(1, N + 1)}


def word_image(f: NCPoly, letters: dict, one, zero):
    """The image of a polynomial f in the t letters, where ``letters`` maps
    (i, j) to the image of t[i,j].

    Words are grouped on their last letter, recursively: the image of
    sum_a (f / a) a is sum_a image(f / a) . A_a, so words that share a
    prefix share its compositions.  A word's coefficient rides on its first
    letter, the constant term on ``one``, and ``zero`` is the image of 0.
    Works for any operator type with ``compose``, ``+`` and ``scale``.
    """

    def letter(g):
        if g.kind != "t":
            raise ValueError(f"expected a t-letter, got {g.token()}")
        return letters[(g.row, g.col)]

    def image(terms: dict):
        """Image of sum c_w w over non-empty words w."""
        groups: dict = {}
        for w, c in terms.items():
            groups.setdefault(w[-1], {})[w[:-1]] = c
        acc = None
        for g, heads in groups.items():
            c = heads.pop((), None)
            piece = image(heads).compose(letter(g)) if heads else None
            if c is not None:
                lone = letter(g).scale(c)
                piece = lone if piece is None else piece + lone
            acc = piece if acc is None else acc + piece
        return acc

    terms = dict(f.terms)
    c = terms.pop((), None)
    acc = image(terms) if terms else None
    if c is not None:
        lone = one.scale(c)
        acc = lone if acc is None else acc + lone
    return zero if acc is None else acc


def tpoly_image(f: NCPoly, m: int, n: int) -> LadderOperator:
    """Multiplicative-linear extension to polynomials in the t letters."""
    legs = m * n
    return word_image(
        f, letter_images(m, n), LadderOperator.identity(legs), LadderOperator(legs, {})
    )


def corner_image(m: int, n: int) -> LadderOperator:
    """Image of the corner minor, verified to be X^(1,...,1), that is
    diagonal with eigenvalue q^-(total degree)."""
    legs = m * n
    op = tpoly_image(qminor(*corner_minor_label(m, n)), m, n)
    if op != LadderOperator.diagonal(legs, (1,) * legs):
        raise ArithmeticError("corner minor failed its diagonal law")
    return op


@lru_cache(maxsize=None)
def coordinate_images(m: int, n: int) -> dict:
    """{z[a,al]: image, zs[a,al]: its adjoint} for every coordinate.

    z[a,al] is the inverse corner minor X^(-1,...,-1) times the coordinate
    minor; the corner law is verified first.
    """
    legs = m * n
    corner_image(m, n)
    inverse = LadderOperator.diagonal(legs, (-1,) * legs)
    out = {}
    for a in range(1, n + 1):
        for al in range(1, m + 1):
            num = tpoly_image(qminor(*coordinate_numerator_label(a, al, m, n)), m, n)
            z = inverse.compose(num)
            out[sym("z", a, al)] = z
            out[sym("zs", a, al)] = z.adjoint()
    return out


def coordinate_image(g, m: int, n: int) -> LadderOperator:
    """Image of one coordinate or conjugate coordinate letter."""
    op = coordinate_images(m, n).get(g)
    if op is None:
        raise ValueError(f"no ladder operator for letter {g.token()}")
    return op


def pol_image(f: NCPoly, m: int, n: int) -> LadderOperator:
    """Image of a polynomial in the coordinate and conjugate letters."""
    legs = m * n
    acc = LadderOperator(legs, {})
    for word, c in f.terms.items():
        piece = LadderOperator.identity(legs)
        for g in word:
            piece = piece.compose(coordinate_image(g, m, n))
        acc = acc + piece.scale(c)
    return acc
