"""Quantum minors, the compact involution (a test-side reference), sign
characters and labels."""

import pytest

from qmatball.field import I, ONE, q_pow
from qmatball.qminors import (
    col_sign,
    col_signs,
    coordinate_column_set,
    coordinate_numerator_label,
    corner_minor_label,
    inversions,
    opposite_corner_label,
    qdet,
    qminor,
    row_sign,
    row_signs,
    volume_element,
)
from qmatball.words import NCPoly, sym

from compact_involution import star_compact, star_compact_poly, t_gen


def t(i, j):
    return sym("t", i, j)


class TestInversions:
    def test_small_cases(self):
        assert inversions((1, 2, 3)) == 0
        assert inversions((2, 1)) == 1
        assert inversions((3, 2, 1)) == 3
        assert inversions((2, 3, 1)) == 2


class TestQMinor:
    def test_size_one(self):
        assert qminor((2,), (3,)) == t_gen(2, 3)

    def test_two_by_two_determinant(self):
        got = qdet(2)
        want = NCPoly(
            {(t(1, 1), t(2, 2)): ONE, (t(1, 2), t(2, 1)): -q_pow(1)}
        )
        assert got == want

    def test_rectangular_selection(self):
        got = qminor((1, 2), (1, 3))
        want = NCPoly(
            {(t(1, 1), t(2, 3)): ONE, (t(1, 3), t(2, 1)): -q_pow(1)}
        )
        assert got == want

    def test_full_three_determinant_shape(self):
        got = qdet(3)
        assert len(got.terms) == 6
        assert got.terms[(t(1, 3), t(2, 2), t(3, 1))] == -q_pow(3)
        assert got.terms[(t(1, 1), t(2, 3), t(3, 2))] == -q_pow(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            qminor((1, 2), (1,))
        with pytest.raises(ValueError):
            qminor((1, 1), (1, 2))


class TestCompactInvolution:
    def test_two_by_two_table(self):
        assert star_compact(1, 1, 2) == t_gen(2, 2)
        assert star_compact(1, 2, 2) == t_gen(2, 1).scale(-q_pow(1))
        assert star_compact(2, 1, 2) == t_gen(1, 2).scale(-q_pow(-1))
        assert star_compact(2, 2, 2) == t_gen(1, 1)

    def test_three_by_three_corner(self):
        got = star_compact(1, 1, 3)
        want = NCPoly(
            {(t(2, 2), t(3, 3)): ONE, (t(2, 3), t(3, 2)): -q_pow(1)}
        )
        assert got == want

    def test_poly_extension_reverses_and_conjugates(self):
        f = (t_gen(1, 1) * t_gen(1, 2)).scale(I)
        got = star_compact_poly(f, 2)
        want = (t_gen(2, 1) * t_gen(2, 2)).scale(q_pow(1) * I)
        assert got == want

    def test_poly_extension_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            star_compact_poly(NCPoly.from_word((sym("z", 1, 1),)), 2)


class TestSignedInvolution:
    def test_rank_one_signs(self):
        # the indefinite involute of t[i,j] is the compact one times
        # row_sign(i) col_sign(j), as fockrep.type_identity_ok reads it
        signs = {(i, j): row_sign(i, 1) * col_sign(j, 1) for i in (1, 2) for j in (1, 2)}
        assert signs == {(1, 1): -1, (1, 2): 1, (2, 1): 1, (2, 2): -1}

    def test_sign_sequences(self):
        assert row_signs(2, 2) == (-1, -1, 1, 1)
        assert col_signs(2, 2) == (1, 1, -1, -1)
        assert row_signs(1, 2) == (-1, 1, 1)
        assert col_signs(1, 2) == (1, 1, -1)


class TestDistinguishedElements:
    def test_corner_labels(self):
        assert corner_minor_label(1, 1) == ((1,), (2,))
        assert corner_minor_label(2, 1) == ((1, 2), (2, 3))
        assert opposite_corner_label(1, 1) == ((2,), (1,))
        assert opposite_corner_label(2, 2) == ((3, 4), (1, 2))

    def test_volume_element_rank_one(self):
        got = volume_element(1, 1)
        want = (t_gen(1, 2) * t_gen(2, 1)).scale(-q_pow(1))
        assert got == want

    def test_coordinate_column_sets(self):
        assert coordinate_column_set(1, 1, 1, 1) == (1,)
        assert coordinate_column_set(2, 1, 2, 2) == (2, 3)
        assert coordinate_column_set(2, 2, 2, 2) == (2, 4)
        assert coordinate_numerator_label(1, 1, 2, 2) == ((1, 2), (1, 3))
        with pytest.raises(ValueError):
            coordinate_column_set(3, 1, 2, 2)


def word_t_degree(word, m, n):
    """The block grading: +1 per letter in the upper-left (m, n) block, -1
    per letter in the lower-right block, 0 otherwise."""
    return sum((g.row <= m and g.col <= n) - (g.row > m and g.col > n) for g in word)


class TestGrading:
    def test_volume_element_is_degree_zero(self):
        for m, n in ((1, 1), (1, 2), (2, 2)):
            for w in volume_element(m, n).terms:
                assert word_t_degree(w, m, n) == 0

    def test_coordinate_numerators_are_degree_one(self):
        for m, n in ((1, 1), (2, 2), (1, 2)):
            for a in range(1, n + 1):
                for al in range(1, m + 1):
                    lab = coordinate_numerator_label(a, al, m, n)
                    for w in qminor(*lab).terms:
                        assert word_t_degree(w, m, n) == 1
