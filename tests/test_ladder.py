"""Tests for the exact q-difference operators of :mod:`qmatball.ladder`.

The reference is built entry by entry, without the ladder calculus: the
four 2 x 2 ladder generators are tabulated from their defining action, lifted
to their tensor legs and multiplied as operator-valued matrices along the
staircase word, with the slice arithmetic of ``truncated_arithmetic``.  On
every basis vector of a slice, each letter, coordinate and conjugate
coordinate must act exactly as its reference does.

The minors built as exterior powers of the staircase factors are compared
with their permutation sums, word by word through the letter images.
"""

import re
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qmatball import ladder
from qmatball.field import I, ONE, from_fraction, from_laurent, q_pow, to_laurent
from qmatball.fockrep import rep_pol_poly
from qmatball.ladder import (
    LadderOperator,
    coordinate_images,
    generator_image,
    letter_images,
    minor_image,
    minor_images,
    staircase_product,
    staircase_transpositions,
    tpoly_image,
)
from qmatball.qminors import coordinate_numerator_label, corner_minor_label, qminor
from qmatball.words import NCPoly, sym

import truncated_arithmetic as ta


def _hand_generator(legs: int, leg: int, gen: str, cert: int) -> ta.Slice:
    """One 2 x 2 ladder generator on a single tensor leg, from its table:
    t11 e_j = e_(j+1), t12 e_j = q^-j e_j, t21 e_j = -q^-(j+1) e_j and
    t22 e_j = (1 - q^-2j) e_(j-1)."""
    entries = {}
    for k in ta.fock_basis(legs, cert):
        j = k[leg]
        if gen == "t11":
            entries[(k[:leg] + (j + 1,) + k[leg + 1 :], k)] = ONE
        elif gen == "t12":
            entries[(k, k)] = q_pow(-j)
        elif gen == "t21":
            entries[(k, k)] = -q_pow(-(j + 1))
        elif j:
            entries[(k[:leg] + (j - 1,) + k[leg + 1 :], k)] = ONE - q_pow(-2 * j)
    up, down = {"t11": (1, 0), "t22": (0, 1)}.get(gen, (0, 0))
    return ta.Slice(legs, cert, entries, up, down)


def _hand_letters(m: int, n: int, cert: int) -> dict:
    """{(i, j): slice of t[i,j]}: for each transposition (a, a+1) of the
    staircase word, the generators on its leg fill the block (a, a+1) and
    the identity the rest of the diagonal; the operator-valued matrices are
    multiplied left to right (a product with the identity is its other
    factor)."""
    legs = m * n
    N = m + n
    ident = ta.identity(legs, cert)
    P = {(i, i): ident for i in range(1, N + 1)}
    for r, a in enumerate(staircase_transpositions(m, n)):
        M = {(i, i): ident for i in range(1, N + 1)}
        for i in (a, a + 1):
            for j in (a, a + 1):
                M[(i, j)] = _hand_generator(legs, r, f"t{i - a + 1}{j - a + 1}", cert)
        product: dict = {}
        for (i, mid), left in P.items():
            for (mid2, j), right in M.items():
                if mid2 != mid:
                    continue
                if left is ident or right is ident:
                    term = right if left is ident else left
                else:
                    term = ta.compose(left, right)
                product[(i, j)] = term if (i, j) not in product else ta.add(product[(i, j)], term)
        P = product
    zero = ta.zero(legs, cert)
    return {(i, j): P.get((i, j), zero) for i in range(1, N + 1) for j in range(1, N + 1)}


def _hand_tpoly(f, letters: dict, legs: int, cert: int) -> ta.Slice:
    """Every word multiplied out letter by letter, scaled and summed."""
    acc = ta.zero(legs, cert)
    for word, c in f.terms.items():
        piece = ta.scale(ta.identity(legs, cert), c)
        for g in word:
            piece = ta.compose(piece, letters[(g.row, g.col)])
        acc = ta.add(acc, piece)
    return acc


def _images(m, n, degree):
    """(name, ladder operator, reference slice) for every letter, z and z*."""
    legs = m * n
    cert = degree + legs
    letters = _hand_letters(m, n, cert)
    out = [
        (f"t[{i},{j}]", letter_images(m, n)[(i, j)], ref)
        for (i, j), ref in sorted(letters.items())
    ]
    corner = _hand_tpoly(qminor(*corner_minor_label(m, n)), letters, legs, cert)
    assert corner.entries == {
        (k, k): q_pow(-sum(k)) for k in ta.fock_basis(legs, corner.cert)
    }
    inverse = ta.diagonal(legs, corner.cert, lambda k: q_pow(sum(k)))
    coords = coordinate_images(m, n)
    for a in range(1, n + 1):
        for al in range(1, m + 1):
            num = qminor(*coordinate_numerator_label(a, al, m, n))
            z = ta.compose(inverse, _hand_tpoly(num, letters, legs, cert))
            for g, ref in ((sym("z", a, al), z), (sym("zs", a, al), ta.adjoint(z))):
                out.append((g.token(), coords[g], ref))
    return out


@pytest.mark.parametrize("m,n,degree", [(1, 2, 4), (2, 2, 3), (2, 3, 2)])
def test_truncated_images_are_the_reference(m, n, degree):
    compared = 0
    for name, op, ref in _images(m, n, degree):
        assert ref.cert >= degree, name
        ref_cols: dict = {}
        for (kout, kin), c in ref.entries.items():
            ref_cols.setdefault(kin, {})[kout] = c
        for k in ta.fock_basis(m * n, degree):
            col = _image(op, k)
            assert col == ref_cols.get(k, {}), (name, k)
            compared += len(col)
    assert compared > 0


def _image(op, k, c=ONE):
    """The image of c e_k as {multi-index: Scalar}, through the integer
    terms of :meth:`LadderOperator.apply_int`."""
    return {kout: from_laurent(p) for kout, p in op.apply_int({k: to_laurent(c)}).items()}


def _shift_down(legs):
    """The bare lowering shift T^(-e_0), which leaves the ladder space."""
    down = (-1,) + (0,) * (legs - 1)
    return LadderOperator(legs, {(down, (0,) * legs, 0, 0): 1})


def test_adjoint_of_a_bare_lowering_shift_raises():
    # its adjoint would need 1 / (q^-2 X^2 - 1), which no finite sum is
    with pytest.raises(ArithmeticError, match="does not divide"):
        _shift_down(2).adjoint()


def test_apply_rejects_an_image_outside_the_ladder_space():
    with pytest.raises(ArithmeticError, match="leaves the ladder space"):
        _image(_shift_down(2), (0, 0))
    # on an excited leg the same shift stays inside
    assert _shift_down(2).apply_int({(1, 0): {(0, 0): 1}}) == {(0, 0): {(0, 0): 1}}


def test_generator_adjoints_match_the_weights():
    # t11* = (X^2 - 1) T^-e on one leg, that is e_j -> (q^-2j - 1) e_j-1:
    # <t11 e_j-1, e_j> = |e_j|^2 = (q^-2j - 1) |e_j-1|^2
    t11 = letter_images(1, 1)[(1, 1)]
    assert t11.adjoint() == LadderOperator(1, {((-1,), (0,), 0, 0): -1, ((-1,), (2,), 0, 0): 1})
    assert _image(t11.adjoint(), (3,)) == {(2,): q_pow(-6) - ONE}


@pytest.mark.parametrize("mn", [(1, 2), (2, 2)])
def test_adjoint_is_an_antilinear_antihomomorphism(mn):
    ops = list(letter_images(*mn).values()) + list(coordinate_images(*mn).values())
    for a in ops[:6]:
        assert a.adjoint().adjoint() == a
        assert a.scale(I).adjoint() == a.adjoint().scale(-I)
        for b in ops[-4:]:
            assert a.compose(b).adjoint() == b.adjoint().compose(a.adjoint())


def test_operators_on_different_leg_counts_do_not_mix():
    with pytest.raises(ValueError, match="different tensor spaces"):
        LadderOperator.identity(1).compose(LadderOperator.identity(2))


def test_polynomial_images_reject_foreign_letters():
    with pytest.raises(ValueError, match="expected a t-letter"):
        ladder.tpoly_image(NCPoly.from_word((sym("z", 1, 1),)), 1, 1)
    with pytest.raises(ValueError, match="no ladder operator"):
        ladder.pol_image(NCPoly.from_word((sym("f0"),)), 1, 1)
    # a foreign letter inside a longer polynomial is named too
    z, t = sym("z", 1, 1), sym("t", 2, 1)
    f = NCPoly.from_word((z, z)) + NCPoly.from_word((t, z)) + NCPoly.one()
    with pytest.raises(ValueError, match=r"no ladder operator for letter t\[2,1\]"):
        ladder.pol_image(f, 1, 1)
    with pytest.raises(ValueError, match=r"expected a t-letter, got z\[1,1\]"):
        tpoly_image(f, 1, 1)


# ---------------------------------------------------------------------------
# minors as exterior powers of the staircase factors


def _minor_labels(m, n, sizes):
    N = m + n
    for k in sizes:
        for I in combinations(range(1, N + 1), k):
            for J in combinations(range(1, N + 1), k):
                yield k, I, J


@pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3), (3, 2)])
def test_minor_images_are_the_permutation_sums(mn):
    m, n = mn
    compared = 0
    for k, I, J in _minor_labels(m, n, range(1, m + n + 1)):
        assert minor_images(m, n, k)[(I, J)] == tpoly_image(qminor(I, J), m, n), (k, I, J)
        compared += 1
    assert compared == sum(len(minor_images(m, n, k)) for k in range(1, m + n + 1))


def test_three_by_three_small_minors_cofactors_and_determinant():
    # the 3 and 4 minors at 3 x 3 are left out: their permutation sums take
    # about 3 s of the full sweep's 5 s
    for k, I, J in _minor_labels(3, 3, (1, 2, 5, 6)):
        assert minor_images(3, 3, k)[(I, J)] == tpoly_image(qminor(I, J), 3, 3), (k, I, J)


def test_a_row_subset_reads_the_same_minors():
    rows = ((1, 3), (2, 4))
    part = minor_images(2, 2, 2, rows)
    full = minor_images(2, 2, 2)
    assert part and all(I in rows for I, _ in part)
    assert all(full[key] == op for key, op in part.items())
    assert len(part) == 2 * 6
    assert minor_image(2, 2, ((2, 4), (1, 3))) == full[((2, 4), (1, 3))]


def test_a_block_determinant_that_is_not_one_raises(monkeypatch):
    # t22 doubled on leg 1: the block q-determinant becomes 2 - X^2
    real = generator_image

    def doubled(legs, leg, gen):
        op = real(legs, leg, gen)
        return op.scale(ONE + ONE) if (leg, gen) == (1, "t22") else op

    monkeypatch.setattr(ladder, "generator_image", doubled)
    minor_images.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="block q-determinant on leg 1"):
            minor_images(2, 2, 2)
        minor_images(2, 2, 1)  # the letters do not meet the block determinant
    finally:
        minor_images.cache_clear()


def test_a_sign_flipped_on_a_one_row_entry_breaks_the_oracle():
    # at k = 2 every generator entry of a factor is a one-row entry, so a
    # negated t21 on leg 2 flips the sign of exactly those entries
    m, n = 2, 2
    legs = m * n
    ident = LadderOperator.identity(legs)
    zero = LadderOperator(legs, {})
    rows = list(combinations(range(1, m + n + 1), 2))

    def product(flip):
        def gen(r, name):
            op = generator_image(legs, r, name)
            return -op if flip and (r, name) == (2, "t21") else op

        return staircase_product(m, n, gen, ident, rows)

    good, bad = product(False), product(True)
    differ = 0
    for _, I, J in _minor_labels(m, n, (2,)):
        oracle = tpoly_image(qminor(I, J), m, n)
        assert good.get((I, J), zero) == oracle
        differ += bad.get((I, J), zero) != oracle
    assert differ > 0


# ---------------------------------------------------------------------------
# polynomial images through the one word-grouping routine


def _pol_image_identity_first(f, m, n):
    """Reference: every word multiplied out from the identity, letter by
    letter, scaled and summed one by one."""
    legs = m * n
    acc = LadderOperator(legs, {})
    for word, c in f.terms.items():
        piece = LadderOperator.identity(legs)
        for g in word:
            piece = piece.compose(ladder.coordinate_image(g, m, n))
        acc = acc + piece.scale(c)
    return acc


_COEFFS = [ONE, -ONE, I, q_pow(1), q_pow(-2) - I, ONE + ONE]


@st.composite
def _pol_polys(draw, m, n):
    letters = [sym(k, a, al) for k in ("z", "zs") for a in range(1, n + 1) for al in range(1, m + 1)]
    words = draw(st.lists(st.lists(st.sampled_from(letters), max_size=3), max_size=5))
    f = NCPoly.zero()
    for w in words:
        f = f + NCPoly.from_word(tuple(w), draw(st.sampled_from(_COEFFS)))
    return f


@pytest.mark.parametrize("mn", [(1, 2), (2, 2)])
def test_pol_image_is_the_identity_first_sum(mn):
    @settings(max_examples=40, deadline=None)
    @given(_pol_polys(*mn))
    def check(f):
        assert ladder.pol_image(f, *mn) == _pol_image_identity_first(f, *mn)

    check()



# ---------------------------------------------------------------------------
# integer terms and the boundary of Z[i][s, 1/s]


def test_operator_terms_are_integers():
    ops = list(coordinate_images(2, 2).values()) + list(minor_images(2, 2, 2).values())
    keys = [(key, c) for op in ops for key, c in op.terms.items()]
    assert len(keys) > 100
    for (d, a, e, j), c in keys:
        assert type(c) is int and c and type(e) is int and j in (0, 1), (d, a, e, j, c)


_OUTSIDE = [from_fraction("1/2"), ONE / (ONE - q_pow(1))]


@pytest.mark.parametrize("c", _OUTSIDE, ids=["1/2", "1/(1-q)"])
def test_coefficients_outside_the_ring_raise(c):
    named = re.escape(f"coefficient {c.pretty()} is not in Z[i][s, 1/s]")
    z, t = sym("z", 1, 1), sym("t", 1, 2)
    with pytest.raises(ValueError, match=named):
        LadderOperator.identity(2).scale(c)
    with pytest.raises(ValueError, match=named):
        ladder.pol_image(NCPoly.from_word((z, z), c) + NCPoly.one(), 1, 2)
    with pytest.raises(ValueError, match=named):
        ladder.pol_image(NCPoly.from_word((), c), 1, 2)
    with pytest.raises(ValueError, match=named):
        tpoly_image(NCPoly.from_word((t,), c), 1, 1)
    with pytest.raises(ValueError, match=named):
        rep_pol_poly(NCPoly.from_word((sym("zs", 1, 1),), c), 1, 1, 3)


def test_gaussian_coefficients_are_kept():
    # i rides on the j = 1 terms; q^-2 - i is one term of each kind
    z = coordinate_images(1, 1)[sym("z", 1, 1)]
    op = z.scale(q_pow(-2) - I)
    assert z.terms == {((1,), (-1,), 2, 0): 1}
    assert op.terms == {((1,), (-1,), -2, 0): 1, ((1,), (-1,), 2, 1): -1}
    assert _image(op, (0,)) == {(1,): q_pow(-1) - I * q_pow(1)}
    assert op.scale(I) == z.scale(I * q_pow(-2) + ONE)  # i (q^-2 - i) = i q^-2 + 1
    # i times i on a vector term: i (q^-1 - i q) = q + i q^-1
    assert _image(op, (0,), I) == {(1,): q_pow(1) + I * q_pow(-1)}
