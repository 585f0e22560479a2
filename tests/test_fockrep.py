"""Tests for the exact ladder-operator realizations.

Frozen values (the rank-one ladder, staircase words, sign chains, vacuum
eigenvalues) were derived by hand from the defining tables; the structural
checks (diagonal laws, type identity, operator-level rewrite rules, Gram
agreement) certify the construction on explicit slices.
"""

import hashlib
from fractions import Fraction
from itertools import product

import pytest

from qmatball import fockrep, integral, ladder

from qmatball.algebras import make_preset, star
from qmatball.field import GaussRat, I, ONE, Scalar, ZERO, q_pow, s_pow
from qmatball.fockrep import (
    CutoffError,
    TruncatedOperator,
    apply_coordinate_word,
    corner_adjoint_relation_ok,
    default_cutoff,
    det_is_identity_ok,
    diagonal_laws_ok,
    equivalence_report,
    fock_basis,
    fock_gram_matrix,
    fock_norm2,
    fock_weight,
    gram_matrix,
    gram_minors_positive,
    hilbert_basis,
    minor_conjugation_ok,
    operator_csv,
    operator_json,
    pairing_block_fock,
    pairing_block_theta,
    projector_pairing_matrix,
    projector_pairing_rank,
    rep_coordinate,
    rep_coordinate_star,
    rep_letter,
    rep_minor,
    rep_pol_poly,
    rep_projector,
    rep_tpoly,
    rules_as_operators_failures,
    theta_block,
    type_identity_ok,
    vacuum_eigenvalue,
    vacuum_modulus_ok,
    vacuum_modulus_value,
    vacuum_orbit,
)
from qmatball.fockrep import _leading_minors_positive
from qmatball.ladder import sign_chain, staircase_transpositions
from qmatball.qminors import corner_minor_label, qdet, qminor, volume_element
from qmatball.words import NCPoly, Presentation, sym

import truncated_arithmetic as ta
from compact_involution import star_compact, star_compact_poly, t_gen
from dense_linalg import mat_det, mat_rank


class TestWeights:
    def test_norm_squares(self):
        assert fock_norm2(0) == ONE
        assert fock_norm2(1) == q_pow(-2) - ONE
        assert fock_norm2(2) == (q_pow(-2) - ONE) * (q_pow(-4) - ONE)

    def test_norms_positive_at_sample_points(self):
        # 0 < q < 1 makes every factor q^-2i - 1 positive
        for j in range(1, 7):
            for s0 in (Fraction(1, 2), Fraction(9, 10)):
                v = fock_norm2(j).eval_at(s0)
                assert v.im == 0 and v.re > 0

    def test_weight_is_leg_product(self):
        assert fock_weight((2, 1)) == fock_norm2(2) * fock_norm2(1)

    def test_basis_enumeration(self):
        assert fock_basis(2, 2) == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
        assert len(fock_basis(4, 3)) == 35  # C(3 + 4, 4)


def _columns_through(op, cert) -> dict:
    """The entries of a slice whose input degree is at most ``cert``."""
    return {key: c for key, c in op.entries.items() if sum(key[1]) <= cert}


class TestOperatorCalculus:
    def test_identity_and_diagonal(self):
        ident = ta.identity(2, 3)
        diag = ta.diagonal(2, 3, lambda k: q_pow(-sum(k)))
        basis = fock_basis(2, 3)
        assert ident.entries == {(k, k): ONE for k in basis}
        assert diag.entries == {(k, k): q_pow(-sum(k)) for k in basis}
        assert diag.entries != ident.entries

    def test_negative_certificate_rejected(self):
        with pytest.raises(CutoffError):
            TruncatedOperator(1, -1, {}, 0, 0)

    def test_apply_beyond_certificate_rejected(self):
        ident = ta.identity(1, 2)
        with pytest.raises(CutoffError):
            ident.apply({(3,): ONE})

    def test_compose_certificate_shrinks_with_raising(self):
        z = rep_coordinate(1, 1, 1, 1, 12)
        zz = rep_pol_poly(NCPoly.from_word((sym("z", 1, 1),) * 2), 1, 1, 12)
        assert zz.cert == z.cert - 1
        assert zz.entries[((2,), (0,))] == q_pow(1) * q_pow(2)

    def test_adjoint_involutive_on_slice(self):
        # the star slice is the adjoint of the coordinate slice, so its
        # adjoint gives back the coordinate slice's columns
        z = rep_coordinate(1, 1, 1, 1, 12)
        back = ta.adjoint(rep_coordinate_star(1, 1, 1, 1, 12))
        assert back.cert == z.cert - 1
        assert back.entries == _columns_through(z, back.cert)

    def test_adjoint_is_antilinear(self):
        # every entry of the ladder images is real, so only a complex
        # multiple tells a conjugated entry from a plain one
        z, zs = sym("z", 2, 1), sym("zs", 2, 1)
        lhs = ta.adjoint(rep_pol_poly(NCPoly.from_word((z,), I), 1, 2, 6))
        rhs = rep_pol_poly(NCPoly.from_word((zs,), -I), 1, 2, 6)
        assert _same_operator(lhs, rhs)

    def test_smaller_cutoff_keeps_columns(self):
        z = rep_coordinate(1, 1, 1, 1, 12)
        small = rep_coordinate(1, 1, 1, 1, 4)
        assert small.cert == 4
        assert small.entries == _columns_through(z, 4)
        assert small.apply({(4,): ONE}) == z.apply({(4,): ONE})
        with pytest.raises(CutoffError):
            small.apply({(5,): ONE})

    def test_scalar_linearity(self):
        # a scaled sum of words is the scaled sum of their slices
        z, zs = sym("z", 2, 1), sym("zs", 1, 1)
        words = {(z, zs): I + q_pow(1), (zs, z): -ONE, (z,): ONE + ONE}
        f = NCPoly.zero()
        ref = None
        for w, c in words.items():
            f = f + NCPoly.from_word(w, c)
            piece = ta.scale(rep_pol_poly(NCPoly.from_word(w), 1, 2, 6), c)
            ref = piece if ref is None else ta.add(ref, piece)
        assert _same_operator(rep_pol_poly(f, 1, 2, 6), ref)

    def test_negation_is_scaling_by_minus_one(self):
        z, zs = sym("z", 2, 1), sym("zs", 1, 1)
        f = NCPoly.from_word((z, zs), I) + NCPoly.from_word((zs,))
        neg, ref = rep_pol_poly(-f, 1, 2, 6), ta.scale(rep_pol_poly(f, 1, 2, 6), -ONE)
        assert _same_operator(neg, ref)

    def test_column_beyond_certificate_rejected(self):
        with pytest.raises(ValueError, match="beyond certificate"):
            TruncatedOperator(1, 1, {((2,), (2,)): ONE}, 0, 0)
        with pytest.raises(ValueError, match="beyond certificate"):
            TruncatedOperator(2, 2, {((0, 0), (0, 0)): ONE, ((0, 0), (1, 2)): ONE}, 0, 1)
        # the last column inside the certificate is fine
        assert TruncatedOperator(1, 2, {((1,), (2,)): ONE}, 0, 1).cert == 2


def _tpoly_word_by_word(f, m, n, cutoff, through=None):
    """Reference image of a t-polynomial: every word multiplied out left to
    right from the (restricted) identity, scaled and summed one by one, with
    the test-side slice arithmetic."""
    legs = m * n
    ident = ta.identity(legs, cutoff + legs)
    budget = None
    if through is not None:
        budget = through + max((len(w) for w in f.terms), default=0)
    acc = None
    for word, c in f.terms.items():
        piece = ident if budget is None else ta.restricted(ident, budget)
        for g in word:
            op = rep_letter(m, n, g.row, g.col, cutoff)
            if budget is not None:
                op = ta.restricted(op, budget)
            piece = op if piece is ident else ta.compose(piece, op)
        piece = ta.scale(piece, c)
        acc = piece if acc is None else ta.add(acc, piece)
    return acc if through is None else ta.restricted(acc, through)


def _sliced(op, through):
    """The image cut to inputs of degree <= through (None keeps it whole)."""
    return op if through is None else ta.restricted(op, through)


def _same_operator(a, b) -> bool:
    return (
        (a.legs, a.cert, a.up, a.down, ta.observed_shifts(a))
        == (b.legs, b.cert, b.up, b.down, ta.observed_shifts(b))
        and a.entries == b.entries
    )


def _tpolys(m, n):
    N = m + n
    mixed = qminor((1, 2), (2, 3)) + t_gen(1, 1) * t_gen(2, 2).scale(q_pow(1)) + NCPoly.one()
    return {
        "qminor": qminor((1, 2), (1, N)),
        "qdet": qdet(N),
        "star_compact": star_compact(1, N, N) + star_compact(2, 1, N),
        "volume": volume_element(m, n),
        "star_product": star_compact_poly(qminor((1,), (N,)) * qminor((2,), (1,)), N),
        "mixed": mixed,
    }


class TestGroupedWordImages:
    """rep_tpoly evaluates the grouped ladder image on each basis vector and
    takes its bounds from the grouped products; the plain loop over
    truncated letter slices is the reference.

    With ``through`` set, the reference multiplies letters pre-restricted to
    one degree of budget per letter, and the full image cut to the same
    slice must equal it.
    """

    # at these cutoffs the reference's restricted identity is a real factor
    # (budget below cutoff + legs) for small `through` and the identity
    # itself for large `through`, so both sides of that branch are covered
    @pytest.mark.parametrize("mn, cutoff", [((1, 2), 4), ((2, 2), 3)])
    @pytest.mark.parametrize("through", [None, 0, 1, 3])
    @pytest.mark.parametrize(
        "which", ["qminor", "qdet", "star_compact", "volume", "star_product", "mixed"]
    )
    def test_matches_word_by_word(self, mn, cutoff, through, which):
        f = _tpolys(*mn)[which]
        got = _sliced(rep_tpoly(f, *mn, cutoff), through)
        assert _same_operator(got, _tpoly_word_by_word(f, *mn, cutoff, through))

    def test_matches_word_by_word_at_default_cutoff(self):
        for through in (None, 2):
            f = qdet(3)
            assert _same_operator(
                _sliced(rep_tpoly(f, 1, 2, 12), through), _tpoly_word_by_word(f, 1, 2, 12, through)
            )

    @pytest.mark.parametrize("mn, cutoff", [((1, 1), 4), ((1, 2), 4), ((2, 1), 4), ((2, 2), 3), ((2, 3), 1)])
    def test_letters_raise_degree_by_at_most_one(self, mn, cutoff):
        # why a word's product may skip the restricted identity it starts
        # from in the plain loop: that factor never binds below `through`
        N = sum(mn)
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                assert ta.observed_shifts(rep_letter(*mn, i, j, cutoff))[0] <= 1

    def test_empty_and_constant_polynomials(self):
        zero = rep_tpoly(NCPoly.zero(), 1, 2, 4)
        assert zero.entries == {} and zero.cert == 4 + 2
        for through in (None, 1):
            c = NCPoly.one().scale(q_pow(2))
            assert _same_operator(
                _sliced(rep_tpoly(c, 1, 2, 4), through), _tpoly_word_by_word(c, 1, 2, 4, through)
            )


def _pol_letters(m, n):
    return [sym(k, a, al) for k in ("z", "zs") for a in range(1, n + 1) for al in range(1, m + 1)]


def _pol_polys(m, n):
    z, zs = sym("z", 1, 1), sym("zs", 1, 1)
    pat, repl = next(iter(make_preset("Pol", m, n).rules.items()))
    return {
        "commutator": NCPoly.from_word((zs, z)) - NCPoly.from_word((z, zs)).scale(q_pow(2)),
        "cancelling": NCPoly.from_word(pat) - repl,  # a rewrite rule: zero as an operator
        "zero": NCPoly.zero(),
        "mixed": NCPoly.from_word((z, zs), I) + NCPoly.from_word((zs,)) + NCPoly.one().scale(q_pow(1)),
    }


def _slice_line(label, build) -> str:
    """``label legs cert up down sha256(sorted entries)``, or ``label
    CutoffError`` when the slice is exhausted."""
    try:
        op = build()
    except CutoffError:
        return f"{label} CutoffError"
    text = "\n".join(f"{o} {i} {v}" for o, i, v in fockrep.operator_rows(op))
    sha = hashlib.sha256(text.encode()).hexdigest()
    return f"{label} {op.legs} {op.cert} {op.up} {op.down} {sha}"


# sha256 over one _slice_line per input: every z/zs word of length 0..3,
# then the polynomials of _pol_polys, all through rep_pol_poly.  Recorded
# while the slices were composed, summed and scaled with truncated
# arithmetic.
_POL_SLICE_DIGESTS = {
    ((1, 1), 0): "077ba152669cb5d97b5230a297515bbbef350a447b105fd1077189ef42142beb",
    ((1, 1), 1): "d49102d41784207e1a97611baf085a037d8cf89631587b9cca65d6b0c7bec9b5",
    ((1, 1), 2): "da4621d0100da38fd570ae84aafe3be8dc2aabd6eb61ef861154090f226ab201",
    ((1, 1), 3): "ed06b16613cea43be2518729bd31557608bcc58a42f8e8492b98980857caeb00",
    ((1, 2), 0): "cbcbb9bbbc5aae6c7358fed934b2f8e66c1488f33ccbc9f90ff52ea7fce8dd34",
    ((1, 2), 1): "299a252e7c57a2893f8fd4e6f4db3816b92691f56c99246700a63cbe0073bfcf",
    ((1, 2), 2): "ee5d31dc1c9a628a1bbc8d6605770f2b4ee064332c272c6643cf28198f9e9b74",
    ((1, 2), 3): "e92ebe363fc66c09479873a95fb3491fc6675c2fa8d9347306c8050b341354ba",
    ((2, 2), 0): "c0a0aca27418a391f7f536be1b9b64d2f8393aa90c51901fd22aede6c3839d72",
    ((2, 2), 1): "1270286ac1855f9118bfdcfaee81c8181cfca4cfaacd7e7a10e75e9ca705b423",
    ((2, 2), 2): "241f1870e49f2a8348f7390cc528c1eb3a37cb974fa58a1c50793ab4d2b8966f",
    ((2, 2), 3): "6a91d1da8f537bb4d19382f4595edee2bc0c74dc89b784ffb9e2396090a399ab",
}


@pytest.mark.parametrize("mn, cutoff", list(_POL_SLICE_DIGESTS))
def test_pol_slices_golden(mn, cutoff):
    h = hashlib.sha256()
    for k in range(4):
        for w in product(_pol_letters(*mn), repeat=k):
            label = " ".join(g.token() for g in w)
            f = NCPoly.from_word(w)
            h.update((_slice_line(label, lambda: rep_pol_poly(f, *mn, cutoff)) + "\n").encode())
    for name, f in _pol_polys(*mn).items():
        h.update((_slice_line(name, lambda: rep_pol_poly(f, *mn, cutoff)) + "\n").encode())
    assert h.hexdigest() == _POL_SLICE_DIGESTS[(mn, cutoff)]


class TestStaircase:
    def test_words_frozen(self):
        assert staircase_transpositions(1, 1) == (1,)
        assert staircase_transpositions(2, 2) == (2, 3, 1, 2)
        assert staircase_transpositions(2, 3) == (2, 3, 4, 1, 2, 3)
        assert staircase_transpositions(3, 2) == (3, 4, 2, 3, 1, 2)

    def test_sign_chain_rank_one(self):
        assert sign_chain(1, 1) == ((-1, 1), (1, -1))

    def test_sign_chain_two_by_two(self):
        chain = sign_chain(2, 2)
        assert chain[0] == (-1, -1, 1, 1)
        assert chain[-1] == (1, 1, -1, -1)
        assert len(chain) == 5

    def test_sign_chain_rectangular(self):
        chain = sign_chain(2, 3)
        assert chain[0] == (-1, -1, 1, 1, 1)
        assert chain[-1] == (1, 1, 1, -1, -1)


class TestRankOneLadder:
    """The (1, 1) block: every operator is a hand-checkable ladder."""

    CUT = 12

    def test_coordinate_raises_with_q_powers(self):
        z = rep_coordinate(1, 1, 1, 1, self.CUT)
        for j in range(5):
            assert z.entries[((j + 1,), (j,))] == q_pow(j + 1)

    def test_conjugate_coordinate_entries(self):
        zs = rep_coordinate_star(1, 1, 1, 1, self.CUT)
        for j in range(5):
            assert zs.entries[((j,), (j + 1,))] == q_pow(-j - 1) - q_pow(j + 1)

    def test_defining_relation_as_operators(self):
        z, zs = sym("z", 1, 1), sym("zs", 1, 1)
        f = NCPoly.from_word((zs, z)) - NCPoly.from_word((z, zs)).scale(q_pow(2))
        lhs = rep_pol_poly(f, 1, 1, self.CUT)
        assert lhs.entries == {(k, k): ONE - q_pow(2) for k in fock_basis(1, lhs.cert)}

    def test_pol_poly_commutator_is_a_multiple_of_identity(self):
        # zs z - q^2 z zs = (1 - q^2) 1; the certificate and shift bounds
        # were recorded while the slices were composed entry by entry
        z, zs = sym("z", 1, 1), sym("zs", 1, 1)
        f = NCPoly.from_word((zs, z)) - NCPoly.from_word((z, zs)).scale(q_pow(2))
        op = rep_pol_poly(f, 1, 1, 4)
        assert (op.legs, op.cert, op.up, op.down) == (1, 3, 1, 1)
        assert op.entries == {(k, k): ONE - q_pow(2) for k in fock_basis(1, 3)}
        with pytest.raises(CutoffError):
            rep_pol_poly(f, 1, 1, 0)

    def test_letter_images(self):
        raise_op = rep_letter(1, 1, 1, 1, self.CUT)
        assert raise_op.entries[((3,), (2,))] == ONE
        diag = rep_letter(1, 1, 1, 2, self.CUT)
        assert diag.entries[((2,), (2,))] == q_pow(-2)
        low = rep_letter(1, 1, 2, 2, self.CUT)
        assert low.entries[((1,), (2,))] == ONE - q_pow(-4)

    def test_vacuum_eigenvalue_frozen(self):
        c = vacuum_modulus_value(1, 1)
        assert c == -q_pow(-1)

    def test_vacuum_requires_eigenvector(self):
        with pytest.raises(ValueError):
            vacuum_eigenvalue(rep_letter(1, 1, 1, 1, self.CUT))

    def test_projector_is_vacuum_projection(self):
        p = rep_projector(1, 1, 6)
        assert p.entries == {((0,), (0,)): ONE}
        assert ta.compose(p, p).entries == p.entries

    def test_word_operator_matches_vector_orbit(self):
        word = (sym("z", 1, 1), sym("z", 1, 1))
        vec = apply_coordinate_word(word, 1, 1)
        assert vec == {(2,): q_pow(1) * q_pow(2)}


# the laws hold as identities of exact ladder operators, at every degree
LAW_SIZES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3), (3, 2)]


class TestCertifiedLaws:
    @pytest.mark.parametrize("mn", LAW_SIZES)
    def test_diagonal_laws(self, mn):
        assert diagonal_laws_ok(*mn)

    @pytest.mark.parametrize("mn", LAW_SIZES)
    def test_vacuum_modulus(self, mn):
        assert vacuum_modulus_ok(*mn)

    @pytest.mark.parametrize("mn", LAW_SIZES)
    def test_corner_adjoint_relation(self, mn):
        assert corner_adjoint_relation_ok(*mn)

    @pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 2)])
    def test_determinant_acts_as_identity(self, mn):
        assert det_is_identity_ok(*mn)

    def test_determinant_acts_as_identity_two_by_two(self):
        assert det_is_identity_ok(2, 2)

    @pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 2)])
    def test_type_identity(self, mn):
        assert type_identity_ok(*mn)

    def test_type_identity_two_by_two(self):
        assert type_identity_ok(2, 2)

    @pytest.mark.parametrize(
        "mn,k",
        [((1, 1), 1), ((1, 2), 1), ((1, 2), 2), ((2, 1), 1), ((2, 1), 2),
         ((1, 3), 2), ((2, 3), 2), ((3, 2), 1), ((3, 2), 3), ((2, 2), 2), ((2, 2), 3)],
    )
    def test_minor_conjugation(self, mn, k):
        assert minor_conjugation_ok(*mn, k)

    def test_minor_conjugation_two_by_two(self):
        assert minor_conjugation_ok(2, 2, 1)

    def test_corner_minor_spectrum(self):
        op = rep_minor(1, 2, corner_minor_label(1, 2), 10)
        assert op.entries[((2, 1), (2, 1))] == q_pow(-3)
        assert op.entries == {(k, k): q_pow(-sum(k)) for k in fock_basis(2, op.cert)}

    def test_minor_label_is_a_pair_of_index_sets(self):
        # the order within each index set does not matter, as for qminor
        op = rep_minor(1, 2, ((1, 2), (2, 3)), 3)
        for label in (((2, 1), (3, 2)), ([1, 2], range(2, 4))):
            same = rep_minor(1, 2, label, 3)
            assert (same.entries, same.cert, same.up, same.down) == (
                op.entries, op.cert, op.up, op.down
            )
        with pytest.raises(ValueError, match="equal size"):
            rep_minor(1, 2, ((1, 2), (2,)), 3)

    @pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 2)])
    def test_rewrite_rules_hold_as_operators(self, mn):
        assert rules_as_operators_failures(*mn) == []


class TestCyclicModuleSide:
    def test_theta_raising_block_rank_one(self):
        zpoly = NCPoly.from_word((sym("z", 1, 1),))
        for k in range(4):
            assert theta_block(zpoly, 1, 1, k, k + 1) == [[ONE]]

    def test_theta_lowering_block_rank_one(self):
        spoly = NCPoly.from_word((sym("zs", 1, 1),))
        for k in range(1, 4):
            assert theta_block(spoly, 1, 1, k, k - 1) == [[ONE - q_pow(2 * k)]]

    def test_gram_rank_one_frozen(self):
        for k in range(1, 5):
            expect = ONE
            for j in range(1, k + 1):
                expect = expect * (ONE - q_pow(2 * j))
            assert gram_matrix(1, 1, k) == [[expect]]

    def test_gram_matches_ladder_side(self):
        for mn in [(1, 1), (1, 2), (2, 1)]:
            for k in range(4):
                assert gram_matrix(*mn, k) == fock_gram_matrix(*mn, k)

    def test_vacuum_orbit_is_built_once_per_degree(self):
        orbit = vacuum_orbit(2, 2, 2)
        assert orbit is vacuum_orbit(2, 2, 2)
        assert orbit == tuple(
            apply_coordinate_word(w, 2, 2) for w in hilbert_basis(2, 2, 2)
        )

    def test_gram_hermitian(self):
        G = gram_matrix(1, 2, 2)
        for p in range(len(G)):
            for r in range(len(G)):
                assert G[p][r] == G[r][p].conjugate()

    def test_pairing_blocks_agree_rank_one(self):
        zpoly = NCPoly.from_word((sym("z", 1, 1),))
        op = rep_coordinate(1, 1, 1, 1, 12)
        for k in range(3):
            assert pairing_block_theta(zpoly, 1, 1, k, k + 1) == pairing_block_fock(
                op, 1, 1, k, k + 1
            )

    def test_pairing_blocks_agree_for_a_complex_multiple(self):
        # the ladder-side pairing is linear in the operator image, conjugate
        # linear in the basis vector it is paired against
        zpoly = NCPoly.from_word((sym("z", 2, 1),), I + q_pow(1))
        op = rep_pol_poly(zpoly, 1, 2, default_cutoff(1, 2))
        for k in range(2):
            assert pairing_block_theta(zpoly, 1, 2, k, k + 1) == pairing_block_fock(
                op, 1, 2, k, k + 1
            )

    @pytest.mark.parametrize("mn,through", [((1, 1), 4), ((1, 2), 3), ((2, 1), 3), ((2, 2), 3)])
    def test_equivalence_report(self, mn, through):
        rep = equivalence_report(*mn, through)
        assert all(rep.values()), rep

    @pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1)])
    def test_projector_pairing_full_rank(self, mn):
        for l in range(4):
            d = len(hilbert_basis(*mn, l))
            assert projector_pairing_rank(*mn, l, Fraction(1, 2)) == d


def _gram_by_whole_words(m, n, k):
    """Oracle: every Gram entry from the normal form of its whole word."""
    funu = make_preset("FunU", m, n)
    basis = hilbert_basis(m, n, k)
    f0 = NCPoly.from_word((sym("f0"),))
    return [
        [
            funu.normal_form(f0 * star(NCPoly.from_word(br), funu) * NCPoly.from_word(bp) * f0)
            .coeff((sym("f0"),))
            for br in basis
        ]
        for bp in basis
    ]


def _pairing_by_whole_words(m, n, l):
    pol = make_preset("Pol", m, n)
    basis = hilbert_basis(m, n, l)
    return [
        [
            pol.normal_form(star(NCPoly.from_word(br), pol) * NCPoly.from_word(bp)).coeff(())
            for bp in basis
        ]
        for br in basis
    ]


def _minors_positive_by_determinants(G):
    """Oracle: one determinant per leading principal minor."""
    for t in range(1, len(G) + 1):
        d = mat_det([row[:t] for row in G[:t]], one=GaussRat(1))
        if d.im != 0 or d.re <= 0:
            return False
    return True


class TestPrefixSharedBlocks:
    @pytest.mark.parametrize("mn", [(1, 2), (2, 2)])
    @pytest.mark.parametrize("k", range(4))
    def test_gram_equals_whole_word_normal_forms(self, mn, k):
        assert gram_matrix(*mn, k) == _gram_by_whole_words(*mn, k)

    @pytest.mark.parametrize("mn", [(1, 2), (2, 2)])
    @pytest.mark.parametrize("l", range(4))
    def test_pairing_equals_whole_word_normal_forms(self, mn, l):
        assert projector_pairing_matrix(*mn, l) == _pairing_by_whole_words(*mn, l)

    @pytest.mark.parametrize(
        "mn,k",
        [((2, 2), 4), ((2, 3), 0), ((2, 3), 1), ((2, 3), 2)]
        + [(mn, k) for mn in [(1, 3), (3, 2)] for k in range(3)],
    )
    def test_gram_equals_whole_word_normal_forms_larger(self, mn, k):
        assert gram_matrix(*mn, k) == _gram_by_whole_words(*mn, k)

    # the pairing oracle at 2x2 in degree 4 takes about 10 s; the transpose
    # test below ties that block to the Gram oracle instead
    @pytest.mark.parametrize("l", range(3))
    def test_pairing_equals_whole_word_normal_forms_rectangular(self, l):
        assert projector_pairing_matrix(2, 3, l) == _pairing_by_whole_words(2, 3, l)

    @pytest.mark.parametrize("mn", [(1, 3), (3, 2)])
    @pytest.mark.parametrize("l", range(3))
    def test_pairing_equals_whole_word_normal_forms_more_sizes(self, mn, l):
        assert projector_pairing_matrix(*mn, l) == _pairing_by_whole_words(*mn, l)

    @pytest.mark.parametrize(
        "mn,l",
        [((1, 2), l) for l in range(4)]
        + [((2, 2), l) for l in range(5)]
        + [((2, 3), l) for l in range(4)],
    )
    def test_pairing_is_gram_transposed(self, mn, l):
        # f0 X f0 = (constant term of X) f0, so both read the same pairing
        G = gram_matrix(*mn, l)
        assert projector_pairing_matrix(*mn, l) == [list(col) for col in zip(*G)]


def _with_planted_rules(monkeypatch, name, extra):
    """Let fockrep and integral see preset ``name`` with ``extra`` rules laid
    over its own; a rule mapped to None is taken out."""
    real = fockrep.make_preset

    def fake(pname, m, n):
        preset = real(pname, m, n)
        if pname != name:
            return preset
        rules = {**preset.rules, **extra(preset.rules)}
        rules = {pat: repl for pat, repl in rules.items() if repl is not None}
        return Presentation(preset.name, m, n, preset.kinds, rules)

    monkeypatch.setattr(fockrep, "make_preset", fake)
    monkeypatch.setattr(integral, "make_preset", fake)


def _off_weight_term(rules):
    z11, z21 = sym("z", 1, 1), sym("z", 2, 1)
    return {(z21, z11): rules[(z21, z11)] + NCPoly.from_word((z11, z11))}


def _zs_z_word_in_a_zs_z_rule(rules):
    # weight-homogeneous and smaller than its pattern, but no (z, zs) pair
    pat = (sym("zs", 2, 1), sym("z", 2, 1))
    return {pat: rules[pat] + NCPoly.from_word((sym("zs", 1, 1), sym("z", 1, 1)))}


def _no_zs_f0_rule(rules):
    return {(sym("zs", 1, 1), sym("f0")): None}


class TestFailedCertificatesRaise:
    # __wrapped__ bypasses the block caches, which other tests have filled
    def test_gram_needs_weight_homogeneous_rules(self, monkeypatch):
        _with_planted_rules(monkeypatch, "FunU", _off_weight_term)
        with pytest.raises(ArithmeticError, match=r"z\[2,1\].*weight.*z\[1,1\]"):
            fockrep.gram_matrix.__wrapped__(1, 2, 2)

    def test_pairing_needs_weight_homogeneous_rules(self, monkeypatch):
        _with_planted_rules(monkeypatch, "Pol", _off_weight_term)
        with pytest.raises(ArithmeticError, match="weight-homogeneous"):
            fockrep.projector_pairing_matrix.__wrapped__(1, 2, 2)

    def test_pairing_needs_z_to_stay_in_front(self, monkeypatch):
        # z zs -> 1 makes the (z, zs) replacement word of zs z a pattern
        z, zs = sym("z", 1, 1), sym("zs", 1, 1)
        _with_planted_rules(monkeypatch, "Pol", lambda rules: {(z, zs): NCPoly.one()})
        with pytest.raises(
            ArithmeticError, match=r"zs\[1,1\].*z\[1,1\].*normal \(z, zs\) pair.*lowering"
        ):
            fockrep.projector_pairing_matrix.__wrapped__(1, 1, 1)

    @pytest.mark.parametrize(
        "extra,message",
        [
            (_zs_z_word_in_a_zs_z_rule, r"zs\[2,1\].*z\[2,1\].*normal \(z, zs\) pair"),
            (_no_zs_f0_rule, r"zs\[1,1\].*f0.*should rewrite to 0"),
        ],
        ids=["zs-z-word-in-a-zs-z-rule", "no-zs-f0-rule"],
    )
    def test_lowering_needs_its_rule_shapes(self, monkeypatch, extra, message):
        _with_planted_rules(monkeypatch, "FunU", extra)
        with pytest.raises(ArithmeticError, match=message):
            fockrep.gram_matrix.__wrapped__(1, 2, 2)
        zs, z = (sym("zs", 2, 1), sym("zs", 1, 1)), (sym("z", 1, 1), sym("z", 2, 1))
        with pytest.raises(ArithmeticError, match=message):
            integral._sandwich_pairing.__wrapped__(1, 2, zs, z)


def _first_rule_scaled_by_s2(rules):
    pat, repl = next((p, r) for p, r in rules.items() if r)
    return {pat: repl.scale(s_pow(2))}


class TestLawsCatchPlantedFaults:
    def test_a_rescaled_rule_fails_as_an_operator(self, monkeypatch):
        _with_planted_rules(monkeypatch, "Pol", _first_rule_scaled_by_s2)
        bad = rules_as_operators_failures(2, 2)
        assert bad == list(_first_rule_scaled_by_s2(make_preset("Pol", 2, 2).rules))

    @pytest.fixture
    def phased_letters(self, monkeypatch):
        """Letters conjugated by the unitary e_k -> i^(k_0) e_k: leg 0's t11
        gains the factor i and its t22 the factor -i.  Every letter
        coefficient is real otherwise, so only such letters tell an adjoint
        that conjugates from one that does not."""
        real = ladder.generator_image

        def phased(legs, leg, gen):
            op = real(legs, leg, gen)
            if leg == 0 and gen in ("t11", "t22"):
                return op.scale(I if gen == "t11" else -I)
            return op

        monkeypatch.setattr(ladder, "generator_image", phased)
        ladder.letter_images.cache_clear()
        ladder.minor_images.cache_clear()
        yield
        ladder.letter_images.cache_clear()
        ladder.minor_images.cache_clear()

    @pytest.mark.parametrize("mn", [(1, 1), (2, 2)])
    def test_phased_letters_keep_the_type_identity(self, phased_letters, mn):
        assert any(c.conjugate() != c for op in ladder.letter_images(*mn).values()
                   for c in op.terms.values())
        assert type_identity_ok(*mn)

    @pytest.mark.parametrize("mn", [(1, 1), (2, 2)])
    def test_an_adjoint_without_conjugation_fails_the_type_identity(
        self, phased_letters, monkeypatch, mn
    ):
        monkeypatch.setattr(Scalar, "conjugate", lambda c: c)
        assert not type_identity_ok(*mn)


def _zi_matrix(rows):
    return [[c if isinstance(c, tuple) else (c, 0) for c in row] for row in rows]


def _evaluated(M, s0):
    """The whole matrix at s = s0 over GaussRat, for the dense oracles."""
    return [[c.eval_at(s0) if c else GaussRat(0) for c in row] for row in M]


# Recorded at the parent commit, before the certificates were read per
# weight block: its dense elimination over GaussRat gave these verdicts
# for k = 0..4 at 1x2, 2x1, 2x2 and 2x3 alike, and the pairing ranks were
# the block dimensions except at s0 = 1, where they were 1, 0, 0, 0, 0.
_RECORDED_GRAM = {
    "1/2": [True] * 5,
    "2/3": [True] * 5,
    "3/2": [True, False, True, False, True],
    "-1/3": [True] * 5,
    "1": [True, False, False, False, False],
}


class TestSylvesterRule:
    @pytest.mark.parametrize(
        "rows,expect",
        [
            ([[2, 1], [1, 2]], True),
            ([[0, 1], [1, 2]], False),  # D_1 = 0
            ([[1, 1], [1, 1]], False),  # D_2 = 0
            ([[1, 2], [2, 1]], False),  # D_2 < 0
            ([[-1, 0], [0, -1]], False),  # D_1 < 0, D_2 > 0
            ([[1, (0, 1)], [(0, 1), 1]], True),  # not Hermitian, yet D_2 = 2
            ([[(0, 1), 0], [0, 1]], False),  # D_1 = i, not real
            ([[1, (1, 1)], [(1, 1), 1]], False),  # D_2 = 1 - 2i, not real
            ([[1, 0, 0], [0, 2, 0], [0, 0, 0]], False),  # last minor zero
            ([[4, 2, (0, 1)], [2, 3, 1], [(0, -1), 1, 2]], True),
        ],
    )
    def test_pivot_rule_matches_determinant_rule(self, rows, expect):
        rows = _zi_matrix(rows)
        G = [[GaussRat(*c) for c in row] for row in rows]
        assert _minors_positive_by_determinants(G) is expect
        assert _leading_minors_positive(rows) is expect

    @pytest.mark.parametrize("mn", [(1, 2), (2, 1), (2, 2)])
    def test_gram_blocks_agree_with_determinant_rule(self, mn):
        for k in range(4):
            for s0 in (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3)):
                G = _evaluated(gram_matrix(*mn, k), s0)
                assert gram_minors_positive(*mn, k, s0) is _minors_positive_by_determinants(G)

    @pytest.mark.parametrize("mn", [(1, 2), (2, 1), (2, 2), (2, 3)])
    @pytest.mark.parametrize("s0", list(_RECORDED_GRAM))
    def test_certificates_match_dense_oracles(self, mn, s0):
        """Per weight block over Z[i], against the whole evaluated matrix
        over GaussRat and against the verdicts recorded before the change.
        One determinant per leading minor of the 126 x 126 matrix (2x3 in
        degree 4) takes about 0.8 s, so there the recorded verdict stands
        alone."""
        point = Fraction(s0)
        for k in range(5):
            ok = gram_minors_positive(*mn, k, point)
            assert ok is _RECORDED_GRAM[s0][k]
            if mn != (2, 3) or k < 4:
                G = _evaluated(gram_matrix(*mn, k), point)
                assert ok is _minors_positive_by_determinants(G)
            rank = projector_pairing_rank(*mn, k, point)
            assert rank == (len(hilbert_basis(*mn, k)) if s0 != "1" or k == 0 else 0)
            assert rank == mat_rank(_evaluated(projector_pairing_matrix(*mn, k), point))

    @pytest.mark.parametrize("check", [gram_minors_positive, projector_pairing_rank])
    def test_pole_at_zero_raises(self, check):
        assert check(2, 2, 1, 0)  # degree 1 has no pole at s = 0
        for s0 in (0, Fraction(0), "0"):
            with pytest.raises(ZeroDivisionError, match=r"^pole at s = 0$"):
                check(2, 2, 2, s0)

    def test_sample_point_is_read_through_fraction(self):
        # recorded at the parent commit: 2x2, degrees 0..2
        cases = {1: ([True, False, False], [1, 0, 0]), 2: ([True, False, True], [1, 4, 10])}
        for s0 in ("1/2", 0.5, "0.25", Fraction(1, 2)):
            cases[s0] = ([True] * 3, [1, 4, 10])
        for s0, (gram, ranks) in cases.items():
            assert [gram_minors_positive(2, 2, k, s0) for k in range(3)] == gram
            assert [projector_pairing_rank(2, 2, l, s0) for l in range(3)] == ranks

    def test_every_block_counts_and_ranks_go_past_a_zero_minor(self, monkeypatch):
        """Planted blocks: the verdict fails on the last block alone, and a
        block whose first leading minor vanishes still has full rank."""
        monkeypatch.setattr(fockrep, "_weight_blocks", lambda m, n, k: ((0,), (1, 2)))
        diag = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, -ONE]]
        swap = [[ONE, ZERO, ZERO], [ZERO, ZERO, ONE], [ZERO, ONE, ZERO]]
        monkeypatch.setattr(fockrep, "gram_matrix", lambda m, n, k: diag)
        monkeypatch.setattr(fockrep, "projector_pairing_matrix", lambda m, n, l: swap)
        assert not gram_minors_positive(1, 1, 1, Fraction(1, 2))
        assert projector_pairing_rank(1, 1, 1, Fraction(1, 2)) == 3

    @pytest.mark.parametrize("mn,largest", [((2, 2), 3), ((2, 3), 4)])
    def test_weight_blocks_hold_every_nonzero_entry(self, mn, largest):
        sizes = []
        for k in range(5):
            blocks = fockrep._weight_blocks(*mn, k)
            # basis order: the leading minors of a block are read in it
            assert all(list(b) == sorted(b) for b in blocks)
            assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
            assert sorted(p for b in blocks for p in b) == list(range(len(hilbert_basis(*mn, k))))
            block_of = {p: i for i, b in enumerate(blocks) for p in b}
            for M in (gram_matrix(*mn, k), projector_pairing_matrix(*mn, k)):
                for p, row in enumerate(M):
                    assert all(block_of[p] == block_of[r] for r, c in enumerate(row) if c)
            sizes += map(len, blocks)
        assert max(sizes) == largest


class TestExport:
    def test_csv_shape(self):
        z = rep_coordinate(1, 1, 1, 1, 2)
        text = operator_csv(z)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# legs=1 cert=2")
        assert lines[1] == "out_index,in_index,value"
        assert lines[2].startswith("1,0,")
        assert Scalar.from_string(lines[2].split(",", 2)[2]) == q_pow(1)

    def test_json_round_trip_fields(self):
        import json as _json

        z = rep_coordinate(1, 1, 1, 1, 2)
        data = _json.loads(operator_json(z))
        assert data["legs"] == 1 and data["cert"] == 2
        assert {"out": [1], "in": [0], "value": q_pow(1).to_string()} in data["entries"]

    def test_tpoly_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            rep_tpoly(NCPoly.from_word((sym("z", 1, 1),)), 1, 1, 12)

    def test_pol_word_rejects_foreign_letters(self):
        with pytest.raises(ValueError, match=r"no operator image for letter t\[1,1\]"):
            rep_pol_poly(NCPoly.from_word((sym("t", 1, 1),)), 1, 1, 12)
        # the projector is no q-difference operator, so it is foreign here too
        with pytest.raises(ValueError, match=r"no operator image for letter f0"):
            rep_pol_poly(NCPoly.from_word((sym("z", 1, 1), sym("f0"))), 1, 1, 12)
        with pytest.raises(ValueError, match="no operator image"):
            rep_pol_poly(NCPoly.from_word((sym("f0"),)) + NCPoly.one(), 1, 2, 4)

    def test_qdet_vacuum(self):
        op = rep_tpoly(qdet(2), 1, 1, 12)
        assert vacuum_eigenvalue(op) == ONE
