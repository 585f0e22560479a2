"""Tests for the exact q-difference operators of :mod:`qmatball.ladder`.

The truncated operators of :mod:`qmatball.fockrep` are the reference: on
every basis vector of a slice, each letter, coordinate and conjugate
coordinate must act exactly as its truncated image does.
"""

import pytest

from qmatball import ladder
from qmatball.field import I, ONE, q_pow
from qmatball.fockrep import fock_basis, rep_coordinate, rep_coordinate_star, rep_letter
from qmatball.ladder import LadderOperator, coordinate_images, letter_images


def _images(m, n, cut):
    """(name, ladder operator, truncated operator) for every letter, z and z*."""
    N = m + n
    out = [
        (f"t[{i},{j}]", letter_images(m, n)[(i, j)], rep_letter(m, n, i, j, cut))
        for i in range(1, N + 1)
        for j in range(1, N + 1)
    ]
    coords = coordinate_images(m, n)
    for g, op in coords.items():
        maker = rep_coordinate if g.kind == "z" else rep_coordinate_star
        out.append((g.token(), op, maker(m, n, g.row, g.col, cut)))
    return out


@pytest.mark.parametrize("m,n,degree", [(1, 2, 4), (2, 2, 3), (2, 3, 2)])
def test_truncated_images_are_the_reference(m, n, degree):
    compared = 0
    for name, op, ref in _images(m, n, degree):
        assert ref.cert >= degree, name
        for k in fock_basis(m * n, degree):
            col = op.apply({k: ONE})
            assert col == ref.column(k), (name, k)
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
    from qmatball.words import NCPoly, sym

    with pytest.raises(ValueError, match="expected a t-letter"):
        ladder.tpoly_image(NCPoly.from_word((sym("z", 1, 1),)), 1, 1)
    with pytest.raises(ValueError, match="no ladder operator"):
        ladder.pol_image(NCPoly.from_word((sym("f0"),)), 1, 1)
