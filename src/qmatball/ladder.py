"""Exact operators on the ladder space: finite sums of q-difference terms.

The ladder space has the basis e_k, k in N^L, one index per tensor leg
(L = mn legs for the (m, n) block split), with the weights
||e_k||^2 = prod over legs l of (q^-2 - 1)(q^-4 - 1)...(q^-2k_l - 1), as in
:mod:`qmatball.fockrep`.  Write X_l
for the diagonal operator e_k -> q^(-k_l) e_k and T^d for the shift
e_k -> e_(k+d).  The term c X^a T^d sends e_k to c q^(-a.k) e_(k+d), and
every 2 x 2 ladder generator on leg r is a sum of such terms:

    t11 = T^(e_r)        t12 = X_r
    t21 = -s^-2 X_r      t22 = T^(-e_r) - X_r^2 T^(-e_r)

So is every letter, minor, coordinate and conjugate coordinate built from
them, since sums, products and adjoints of such sums are again such sums.

Every coefficient met on this side lies in Z[i][s, 1/s], and most are
+-s^e.  So a :class:`LadderOperator` keeps its terms as a dict
{(d, a, e, j): c} of nonzero ints, standing for c i^j s^e X^a T^d with j in
{0, 1}, and its products, sums and adjoints cost int operations only.  A
Scalar enters through :meth:`LadderOperator.scale` (the coefficients of a
polynomial ride on it), and a coefficient outside Z[i][s, 1/s], such as 1/2
or 1/(1 - q), raises ValueError naming it and is never rounded; no Scalar
leaves: :meth:`LadderOperator.apply_int` maps integer terms to integer
terms, which :func:`qmatball.field.from_laurent` turns into a Scalar where
one is wanted.  For operators that preserve the
ladder space, equal dicts and equal operators are the same thing: the
characters k -> q^(-a.k) of distinct exponents a are linearly independent,
also on any translated orthant of N^L, because q is not a root of unity
(Dedekind-Artin), and 1, i and the powers of s are independent over Z.  So
an identity checked here holds at every degree, with no truncation.

The N x N letters come from the staircase product of the 2 x 2 generators
(see :func:`staircase_product`).  Every polynomial, in the t letters or in
the coordinates and their conjugates, becomes an operator through one
word-grouping routine (see :func:`word_image`), which reads its letters
through one lookup.  The exported slices of :mod:`qmatball.fockrep` are
these operators, and their certificates are folded through both routines
too, so they follow the same products and sums.

Quantum minors are comultiplicative, t^[I|J] -> sum_K t^[I|K] (x) t^[K|J],
and the letter matrix is a product of factors whose entries act on
different legs and so commute.  Hence the k x k minors of the letters are
the product of the factors' k-th exterior powers (see :func:`minor_images`),
with no sum over permutations.  Factor r, on the slots B = (a, a+1), has
entry (I, K) only where I and K agree off B: the identity when I misses B,
the generator t_xy when one row x of I and column y of K lie in B, and the
block q-determinant t11 t22 - q t12 t21 when both rows do.  On the ladder
that determinant is (1 - X_r^2) + X_r^2 = 1; :func:`minor_images` checks
it as an operator identity and raises ArithmeticError if it fails.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from operator import add, mul

from .field import ZERO, Scalar, q_pow, to_laurent
from .qminors import (
    col_signs,
    coordinate_numerator_label,
    corner_minor_label,
    row_signs,
)
from .words import NCPoly, sym

__all__ = [
    "LadderOperator",
    "staircase_transpositions",
    "sign_chain",
    "staircase_product",
    "generator_image",
    "minor_images",
    "minor_image",
    "letter_images",
    "word_image",
    "t_letters",
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


def _nonzero(acc: dict) -> dict:
    return {key: c for key, c in acc.items() if c}


class LadderOperator:
    """The operator sum of c i^j s^e X^a T^d over ``terms`` = {(d, a, e, j): c}.

    ``d`` and ``a`` are integer tuples with one entry per leg, ``e`` is an
    integer, ``j`` is 0 or 1 and ``c`` a nonzero int, so ``==`` is equality
    of operators on the whole ladder space (see the module docstring).
    Operators are never mutated.
    """

    __slots__ = ("legs", "terms")

    def __init__(self, legs: int, terms: dict):
        self.legs = legs
        self.terms = terms

    @classmethod
    def diagonal(cls, legs: int, a: tuple):
        """The diagonal operator e_k -> q^(-a.k) e_k."""
        return cls(legs, {((0,) * legs, tuple(a), 0, 0): 1})

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
        acc = dict(self.terms)
        for key, c in other.terms.items():
            acc[key] = acc.get(key, 0) + c
        return LadderOperator(self.legs, _nonzero(acc))

    def __neg__(self):
        return LadderOperator(self.legs, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: Scalar):
        """The operator times c; a c outside Z[i][s, 1/s] raises ValueError."""
        acc: dict = {}
        for (f, k), v in to_laurent(c).items():
            for (d, a, e, j), w in self.terms.items():
                key = (d, a, e + f, j ^ k)
                acc[key] = acc.get(key, 0) + (-v * w if j & k else v * w)
        return LadderOperator(self.legs, _nonzero(acc))

    def compose(self, other):
        """Operator product self . other (other is applied first):
        (c X^a T^d)(b X^b' T^g) = c b q^(-a.g) X^(a+b') T^(d+g)."""
        self._check_legs(other)
        # the terms share few distinct shifts and X exponents, so the tuple
        # sums and dot products are made once per distinct pair
        shifts: dict = {}
        diags: dict = {}
        right = [
            (shifts.setdefault(g, len(shifts)), diags.setdefault(b, len(diags)), f, k, c)
            for (g, b, f, k), c in other.terms.items()
        ]
        left: dict = {}
        for (d, a, e, j), c in self.terms.items():
            left.setdefault((d, a), []).append((e, j, c))
        acc: dict = {}
        get = acc.get
        for (d, a), coeffs in left.items():
            sums = [_vadd(d, g) for g in shifts]
            twists = [2 * _dot(a, g) for g in shifts]
            xs = [_vadd(a, b) for b in diags]
            for gi, bi, f, k, c2 in right:
                dg, x, shift = sums[gi], xs[bi], f - twists[gi]
                for e, j, c1 in coeffs:
                    key = (dg, x, e + shift, j ^ k)
                    acc[key] = get(key, 0) + (-c1 * c2 if j & k else c1 * c2)
        return LadderOperator(self.legs, _nonzero(acc))

    def adjoint(self):
        """Adjoint for the ladder weights.

        c i^j s^e X^a T^d becomes its conjugate (-1)^j c i^j s^e times
        q^(a.d) X^a T^(-d) and the weight ratio ||e_k||^2 / ||e_(k-d)||^2 of
        its input e_k, leg by leg: the factor prod_{0<=i<d_l} (q^(2i) X_l^2 - 1)
        where d_l > 0, and the inverse of prod_{1<=i<=-d_l} (q^(-2i) X_l^2 - 1)
        where d_l < 0.  The factors have unit coefficients, so the division
        stays over the integers; it is exact when the operator preserves the
        ladder space, and otherwise this raises ArithmeticError.
        """
        shifts: dict = {}
        for (d, a, e, j), c in _conjugate(self.terms).items():
            shifts.setdefault(d, {})[(a, e + 2 * _dot(a, d), j)] = c
        out = {}
        for d, poly in shifts.items():
            for leg, dl in enumerate(d):
                for i in range(dl):
                    poly = _times_factor(poly, leg, 4 * i)
                for i in range(1, 1 - dl):
                    poly = _divide_factor(poly, leg, -4 * i)
            back = tuple(-x for x in d)
            out.update(((back, a, e, j), c) for (a, e, j), c in poly.items())
        return LadderOperator(self.legs, out)

    def apply_int(self, vec: dict) -> dict:
        """Image of a vector {multi-index: integer terms {(e, j): c}} (see
        :func:`qmatball.field.to_laurent`), in the same form; raises
        ArithmeticError when a component lands outside N^L."""
        out: dict = {}
        for k, poly in vec.items():
            for (d, a, e, j), c in self.terms.items():
                acc = out.setdefault(_vadd(k, d), {})
                shift = e - 2 * _dot(a, k)
                for (f, l), v in poly.items():
                    key = (f + shift, j ^ l)
                    acc[key] = acc.get(key, 0) + (-c * v if j & l else c * v)
        out = {k: p for k, acc in out.items() if (p := _nonzero(acc))}
        for k in out:
            if min(k) < 0:
                raise ArithmeticError(f"image leaves the ladder space at index {k}")
        return out

    def __repr__(self):
        return f"LadderOperator(legs={self.legs}, terms={len(self.terms)})"


def _conjugate(terms: dict) -> dict:
    """The terms with conjugated coefficients: the i terms change sign."""
    return {key: -c if key[3] else c for key, c in terms.items()}


def _times_factor(poly: dict, leg: int, se: int) -> dict:
    """poly * (s^se X_leg^2 - 1), for poly = {(a, e, j): c} in the X
    variables and s."""
    acc = {key: -c for key, c in poly.items()}
    for (a, e, j), c in poly.items():
        key = (a[:leg] + (a[leg] + 2,) + a[leg + 1 :], e + se, j)
        acc[key] = acc.get(key, 0) + c
    return _nonzero(acc)


def _divide_factor(poly: dict, leg: int, se: int) -> dict:
    """The exact quotient h of poly by (s^se X_leg^2 - 1).

    In each X_leg-coefficient series the quotient solves
    h_x = s^se h_(x-2) - poly_x from the lowest exponent x up, each h_x
    holding integer terms {(e, j): c}; a nonzero remainder raises
    ArithmeticError.
    """
    rows: dict = {}
    for (a, e, j), c in poly.items():
        rows.setdefault(a[:leg] + a[leg + 1 :], {}).setdefault(a[leg], {})[(e, j)] = c
    quot = {}
    for rest, row in rows.items():
        h: dict = {}
        for x in range(min(row), max(row) - 1):
            hx = {(e + se, j): c for (e, j), c in h.get(x - 2, {}).items()}
            for key, c in row.get(x, {}).items():
                hx[key] = hx.get(key, 0) - c
            hx = _nonzero(hx)
            if hx:
                h[x] = hx
        quot.update(
            ((rest[:leg] + (x,) + rest[leg:], e, j), c)
            for x, hx in h.items()
            for (e, j), c in hx.items()
        )
    if not quot or _times_factor(quot, leg, se) != poly:
        raise ArithmeticError(
            "adjoint leaves the ladder space: a weight ratio does not divide"
        )
    return quot


# ---------------------------------------------------------------------------
# the staircase tensor construction


def staircase_transpositions(m: int, n: int) -> tuple:
    """First entries a_k of the adjacent transpositions (a_k, a_k+1), k = 1..mn.

    Their product (the factor written last applied first) is the permutation that
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


def staircase_product(m: int, n: int, generator, ident, rows=None) -> dict:
    """The minors of the staircase product of block-embedded generators.

    For the r-th transposition (a, a+1) of the staircase word, the 2 x 2
    generators ``generator(r, "t11")`` ... ``generator(r, "t22")`` on leg r
    fill slots (a, a+1) x (a, a+1) and ``ident`` the rest of the diagonal.
    The k-th exterior powers of these operator-valued matrices are
    multiplied left to right, keeping only the rows I in ``rows`` (ascending
    tuples of 1..N; by default the N singletons, that is the product of the
    factors themselves).  Entries are keyed (I, J) by ascending tuples, and
    those that stay zero are missing from the result.

    Factor r has entry (I, K) only where I and K agree off its block B: the
    identity when I misses B, the generator t_xy when one row x of I, and
    the column y of K, lie in B (the two sit at the same position, so the
    sign is +1), and the block's q-determinant when both rows do.  That last
    entry is taken as ``ident`` here; :func:`minor_images` checks that it is.
    Works for any operator type with ``compose`` and ``+``.
    """
    N = m + n
    sign_chain(m, n)  # raises if the leg-by-leg sign bookkeeping breaks
    if rows is None:
        rows = [(i,) for i in range(1, N + 1)]
    P = {(I, I): ident for I in rows}
    for r, a in enumerate(staircase_transpositions(m, n)):
        block = (a, a + 1)
        gens = {(x, y): generator(r, f"t{x - a + 1}{y - a + 1}") for x in block for y in block}
        nxt: dict = {}
        for (I, J), left in P.items():
            inside = [x for x in J if x in block]
            if len(inside) == 1:
                x = inside[0]
                row = [(tuple(y if j == x else j for j in J), gens[(x, y)]) for y in block]
            else:
                row = [(J, ident)]
            for JJ, right in row:
                if left is ident:
                    term = right
                elif right is ident:
                    term = left
                else:
                    term = left.compose(right)
                prev = nxt.get((I, JJ))
                nxt[(I, JJ)] = term if prev is None else prev + term
        P = nxt
    return P


def generator_image(legs: int, leg: int, gen: str) -> LadderOperator:
    """One 2 x 2 ladder generator acting on a single tensor leg."""
    zero = (0,) * legs
    e = tuple(1 if l == leg else 0 for l in range(legs))
    if gen == "t11":
        return LadderOperator(legs, {(e, zero, 0, 0): 1})
    if gen == "t12":
        return LadderOperator(legs, {(zero, e, 0, 0): 1})
    if gen == "t21":
        return LadderOperator(legs, {(zero, e, -2, 0): -1})
    if gen == "t22":
        down = tuple(-x for x in e)
        return LadderOperator(legs, {(down, zero, 0, 0): 1, (down, _vadd(e, e), 0, 0): -1})
    raise ValueError(f"unknown ladder generator {gen!r}")


@lru_cache(maxsize=None)
def minor_images(m: int, n: int, k: int, rows=None) -> dict:
    """{(I, J): image of the quantum minor t^[I|J]} over ascending k-tuples
    J and the ascending k-tuples I of the tuple ``rows`` (all by default).

    The k-th exterior power of the staircase product (see
    :func:`staircase_product`), which is the product of the factors'
    exterior powers because operators on different legs commute.  For
    k >= 2 each leg's block q-determinant t11 t22 - q t12 t21 is first
    checked to be the identity operator; ArithmeticError otherwise.
    """
    legs = m * n
    ident = LadderOperator.identity(legs)
    if k >= 2:
        for r in range(legs):
            t11, t12, t21, t22 = (
                generator_image(legs, r, g) for g in ("t11", "t12", "t21", "t22")
            )
            if t11.compose(t22) - t12.compose(t21).scale(q_pow(1)) != ident:
                raise ArithmeticError(f"the block q-determinant on leg {r} is not 1")
    subsets = list(combinations(range(1, m + n + 1), k))
    rows = subsets if rows is None else rows
    P = staircase_product(
        m, n, lambda r, gen: generator_image(legs, r, gen), ident, rows
    )
    zero = LadderOperator(legs, {})
    return {(I, J): P.get((I, J), zero) for I in rows for J in subsets}


def minor_image(m: int, n: int, label: tuple) -> LadderOperator:
    """Image of the one minor t^[I|J], label = (I, J) ascending tuples,
    from the row I of :func:`minor_images`."""
    rows = label[0]
    return minor_images(m, n, len(rows), (rows,))[label]


@lru_cache(maxsize=None)
def letter_images(m: int, n: int) -> dict:
    """{(i, j): image of the letter t[i,j]}: the 1 x 1 minors."""
    return {(I[0], J[0]): op for (I, J), op in minor_images(m, n, 1).items()}


def word_image(f: NCPoly, letter, one):
    """The image of a polynomial f, where ``letter`` maps a generator symbol
    to its image and raises ValueError for a letter that has none.

    Words are grouped on their last letter, recursively: the image of
    sum_a (f / a) a is sum_a image(f / a) . A_a, so words that share a
    prefix share its compositions.  A word's coefficient rides on its first
    letter and the constant term on ``one``, the image of 1; the image of 0
    is ``one`` scaled by zero.  Works for any operator type with
    ``compose``, ``+`` and ``scale``.
    """

    def image(terms: dict):
        """Image of sum c_w w over non-empty words w."""
        groups: dict = {}
        for w, c in terms.items():
            groups.setdefault(w[-1], {})[w[:-1]] = c
        acc = None
        for g, heads in groups.items():
            op = letter(g)
            c = heads.pop((), None)
            piece = image(heads).compose(op) if heads else None
            if c is not None:
                lone = op.scale(c)
                piece = lone if piece is None else piece + lone
            acc = piece if acc is None else acc + piece
        return acc

    terms = dict(f.terms)
    c = terms.pop((), None)
    acc = image(terms) if terms else None
    if c is not None:
        lone = one.scale(c)
        acc = lone if acc is None else acc + lone
    return one.scale(ZERO) if acc is None else acc


def t_letters(images: dict):
    """The letter lookup of :func:`word_image` for polynomials in the t
    letters: t[i,j] reads ``images[(i, j)]``, any other letter raises
    ValueError."""

    def letter(g):
        if g.kind != "t":
            raise ValueError(f"expected a t-letter, got {g.token()}")
        return images[(g.row, g.col)]

    return letter


def tpoly_image(f: NCPoly, m: int, n: int) -> LadderOperator:
    """Multiplicative-linear extension to polynomials in the t letters."""
    return word_image(f, t_letters(letter_images(m, n)), LadderOperator.identity(m * n))


def corner_image(m: int, n: int) -> LadderOperator:
    """Image of the corner minor, verified to be X^(1,...,1), that is
    diagonal with eigenvalue q^-(total degree)."""
    legs = m * n
    op = minor_image(m, n, corner_minor_label(m, n))
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
            z = inverse.compose(minor_image(m, n, coordinate_numerator_label(a, al, m, n)))
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
    return word_image(
        f, lambda g: coordinate_image(g, m, n), LadderOperator.identity(m * n)
    )
