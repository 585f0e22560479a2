"""Tests for the exact q-difference operators of :mod:`qmatball.ladder`.

The reference is built entry by entry, without the ladder calculus: the
four 2 x 2 ladder generators are tabulated from their defining action, lifted
to their tensor legs and multiplied as operator-valued matrices along the
staircase word, with :class:`TruncatedOperator` arithmetic.  On every basis
vector of a slice, each letter, coordinate and conjugate coordinate must act
exactly as its reference does.
"""

import pytest

from qmatball import ladder
from qmatball.field import I, ONE, q_pow
from qmatball.fockrep import TruncatedOperator, fock_basis
from qmatball.ladder import (
    LadderOperator,
    coordinate_images,
    letter_images,
    staircase_transpositions,
)
from qmatball.qminors import coordinate_numerator_label, corner_minor_label, qminor
from qmatball.words import sym


def _hand_generator(legs: int, leg: int, gen: str, cert: int) -> TruncatedOperator:
    """One 2 x 2 ladder generator on a single tensor leg, from its table:
    t11 e_j = e_(j+1), t12 e_j = q^-j e_j, t21 e_j = -q^-(j+1) e_j and
    t22 e_j = (1 - q^-2j) e_(j-1)."""
    entries = {}
    for k in fock_basis(legs, cert):
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
    return TruncatedOperator(legs, cert, entries, up, down)


def _hand_letters(m: int, n: int, cert: int) -> dict:
    """{(i, j): slice of t[i,j]}: for each transposition (a, a+1) of the
    staircase word, the generators on its leg fill the block (a, a+1) and
    the identity the rest of the diagonal; the operator-valued matrices are
    multiplied left to right (a product with the identity is its other
    factor)."""
    legs = m * n
    N = m + n
    ident = TruncatedOperator.identity(legs, cert)
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
                    term = left.compose(right)
                product[(i, j)] = term if (i, j) not in product else product[(i, j)] + term
        P = product
    zero = TruncatedOperator.zero(legs, cert)
    return {(i, j): P.get((i, j), zero) for i in range(1, N + 1) for j in range(1, N + 1)}


def _hand_tpoly(f, letters: dict, legs: int, cert: int) -> TruncatedOperator:
    """Every word multiplied out letter by letter, scaled and summed."""
    acc = TruncatedOperator.zero(legs, cert)
    for word, c in f.terms.items():
        piece = TruncatedOperator.identity(legs, cert).scale(c)
        for g in word:
            piece = piece.compose(letters[(g.row, g.col)])
        acc = acc + piece
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
        (k, k): q_pow(-sum(k)) for k in fock_basis(legs, corner.cert)
    }
    inverse = TruncatedOperator.diagonal(legs, corner.cert, lambda k: q_pow(sum(k)))
    coords = coordinate_images(m, n)
    for a in range(1, n + 1):
        for al in range(1, m + 1):
            num = qminor(*coordinate_numerator_label(a, al, m, n))
            z = inverse.compose(_hand_tpoly(num, letters, legs, cert))
            for g, ref in ((sym("z", a, al), z), (sym("zs", a, al), z.adjoint())):
                out.append((g.token(), coords[g], ref))
    return out


@pytest.mark.parametrize("m,n,degree", [(1, 2, 4), (2, 2, 3), (2, 3, 2)])
def test_truncated_images_are_the_reference(m, n, degree):
    compared = 0
    for name, op, ref in _images(m, n, degree):
        assert ref.cert >= degree, name
        for k in fock_basis(m * n, degree):
            col = op.apply({k: ONE})
            assert col == ref.apply({k: ONE}), (name, k)
            compared += len(col)
    assert compared > 0


def _shift_down(legs):
    """The bare lowering shift T^(-e_0), which leaves the ladder space."""
    down = (-1,) + (0,) * (legs - 1)
    return LadderOperator(legs, {(down, (0,) * legs): ONE})


def test_adjoint_of_a_bare_lowering_shift_raises():
    # its adjoint would need 1 / (q^-2 X^2 - 1), which no finite sum is
    with pytest.raises(ArithmeticError, match="does not divide"):
        _shift_down(2).adjoint()


def test_apply_rejects_an_image_outside_the_ladder_space():
    with pytest.raises(ArithmeticError, match="leaves the ladder space"):
        _shift_down(2).apply({(0, 0): ONE})
    # on an excited leg the same shift stays inside
    assert _shift_down(2).apply({(1, 0): ONE}) == {(0, 0): ONE}


def test_generator_adjoints_match_the_weights():
    # t11* = (X^2 - 1) T^-e on one leg, that is e_j -> (q^-2j - 1) e_j-1:
    # <t11 e_j-1, e_j> = |e_j|^2 = (q^-2j - 1) |e_j-1|^2
    t11 = letter_images(1, 1)[(1, 1)]
    assert t11.adjoint() == LadderOperator(1, {((-1,), (0,)): -ONE, ((-1,), (2,)): ONE})
    assert t11.adjoint().apply({(3,): ONE}) == {(2,): q_pow(-6) - ONE}


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
    from qmatball.words import NCPoly

    with pytest.raises(ValueError, match="expected a t-letter"):
        ladder.tpoly_image(NCPoly.from_word((sym("z", 1, 1),)), 1, 1)
    with pytest.raises(ValueError, match="no ladder operator"):
        ladder.pol_image(NCPoly.from_word((sym("f0"),)), 1, 1)
