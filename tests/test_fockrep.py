"""Tests for the exact ladder-operator realizations.

Frozen values (the rank-one ladder, staircase words, sign chains, vacuum
eigenvalues) were derived by hand from the defining tables; the structural
checks (diagonal laws, type identity, operator-level rewrite rules, Gram
agreement) certify the construction on explicit slices.
"""

from fractions import Fraction

import pytest

from qmatball import fockrep, integral, ladder

from qmatball.algebras import AlgebraPreset, make_preset, star
from qmatball.field import GaussRat, I, ONE, Scalar, q_pow, s_pow
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
    rep_pol_word,
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
from qmatball.linalg import mat_det
from qmatball.qminors import (
    corner_minor_label,
    qdet,
    qminor,
    star_compact,
    star_compact_poly,
    t_gen,
    volume_element,
)
from qmatball.words import NCPoly, Presentation, sym


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


def _restricted(op, cert):
    """The same slice certified through a smaller degree (its columns are
    complete, so dropping the higher ones is sound)."""
    if cert >= op.cert:
        return op
    return TruncatedOperator(op.legs, cert, _columns_through(op, cert), op.up, op.down)


class TestOperatorCalculus:
    def test_identity_and_diagonal(self):
        ident = TruncatedOperator.identity(2, 3)
        diag = TruncatedOperator.diagonal(2, 3, lambda k: q_pow(-sum(k)))
        basis = fock_basis(2, 3)
        assert ident.entries == {(k, k): ONE for k in basis}
        assert diag.entries == {(k, k): q_pow(-sum(k)) for k in basis}
        assert diag.entries != ident.entries

    def test_negative_certificate_rejected(self):
        with pytest.raises(CutoffError):
            TruncatedOperator(1, -1, {}, 0, 0)

    def test_apply_beyond_certificate_rejected(self):
        ident = TruncatedOperator.identity(1, 2)
        with pytest.raises(CutoffError):
            ident.apply({(3,): ONE})

    def test_compose_certificate_shrinks_with_raising(self):
        z = rep_coordinate(1, 1, 1, 1, 12)
        zz = z.compose(z)
        assert zz.cert == z.cert - 1
        assert zz.entries[((2,), (0,))] == q_pow(1) * q_pow(2)

    def test_adjoint_involutive_on_slice(self):
        z = rep_coordinate(1, 1, 1, 1, 12)
        back = z.adjoint().adjoint()
        assert back.cert == z.cert - 1
        assert back.entries == _columns_through(z, back.cert)

    def test_adjoint_is_antilinear(self):
        # every entry of the ladder images is real, so only a complex
        # multiple tells a conjugated entry from a plain one
        z = rep_coordinate(1, 2, 2, 1, 6)
        lhs, rhs = z.scale(I).adjoint(), z.adjoint().scale(-I)
        assert lhs.cert == rhs.cert and lhs.entries == rhs.entries

    def test_smaller_cutoff_keeps_columns(self):
        z = rep_coordinate(1, 1, 1, 1, 12)
        small = rep_coordinate(1, 1, 1, 1, 4)
        assert small.cert == 4
        assert small.entries == _columns_through(z, 4)
        assert small.apply({(4,): ONE}) == z.apply({(4,): ONE})
        with pytest.raises(CutoffError):
            small.apply({(5,): ONE})

    def test_scalar_linearity(self):
        z = rep_coordinate(1, 1, 1, 1, 12)
        assert (z + z).entries == z.scale(ONE + ONE).entries
        assert (z - z).entries == {} and (z - z).cert == z.cert

    def test_negation_is_scaling_by_minus_one(self):
        z = rep_coordinate(1, 2, 2, 1, 6)
        neg, ref = -z, z.scale(-ONE)
        assert neg.entries == ref.entries
        assert (neg.cert, neg.up, neg.down) == (ref.cert, ref.up, ref.down)

    def test_scaling_by_one_is_the_operator_itself(self):
        z = rep_coordinate(1, 2, 2, 1, 6)
        assert z.scale(ONE) is z
        assert z.scale(1) is z
        assert z.scale(GaussRat(1)) is z
        two = z.scale(ONE + ONE)
        assert two is not z and two.entries == (z + z).entries

    def test_column_beyond_certificate_rejected(self):
        with pytest.raises(ValueError, match="beyond certificate"):
            TruncatedOperator(1, 1, {((2,), (2,)): ONE}, 0, 0)
        with pytest.raises(ValueError, match="beyond certificate"):
            TruncatedOperator(2, 2, {((0, 0), (0, 0)): ONE, ((0, 0), (1, 2)): ONE}, 0, 1)
        # the last column inside the certificate is fine
        assert TruncatedOperator(1, 2, {((1,), (2,)): ONE}, 0, 1).cert == 2


def _tpoly_word_by_word(f, m, n, cutoff, through=None):
    """Reference image of a t-polynomial: every word multiplied out left to
    right from the (restricted) identity, scaled and summed one by one."""
    legs = m * n
    ident = TruncatedOperator.identity(legs, cutoff + legs)
    budget = None
    if through is not None:
        budget = through + max((len(w) for w in f.terms), default=0)
    acc = None
    for word, c in f.terms.items():
        piece = ident if budget is None else _restricted(ident, budget)
        for g in word:
            op = rep_letter(m, n, g.row, g.col, cutoff)
            if budget is not None:
                op = _restricted(op, budget)
            piece = op if piece is ident else piece.compose(op)
        piece = piece.scale(c)
        acc = piece if acc is None else acc + piece
    return acc if through is None else _restricted(acc, through)


def _sliced(op, through):
    """The image cut to inputs of degree <= through (None keeps it whole)."""
    return op if through is None else _restricted(op, through)


def _same_operator(a, b) -> bool:
    return (
        (a.legs, a.cert, a.up, a.down, a._obs_up, a._obs_down)
        == (b.legs, b.cert, b.up, b.down, b._obs_up, b._obs_down)
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
                assert rep_letter(*mn, i, j, cutoff)._obs_up <= 1

    def test_empty_and_constant_polynomials(self):
        zero = rep_tpoly(NCPoly.zero(), 1, 2, 4)
        assert zero.entries == {} and zero.cert == 4 + 2
        for through in (None, 1):
            c = NCPoly.one().scale(q_pow(2))
            assert _same_operator(
                _sliced(rep_tpoly(c, 1, 2, 4), through), _tpoly_word_by_word(c, 1, 2, 4, through)
            )


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
        z = rep_coordinate(1, 1, 1, 1, self.CUT)
        zs = rep_coordinate_star(1, 1, 1, 1, self.CUT)
        lhs = zs.compose(z) - z.compose(zs).scale(q_pow(2))
        rhs = TruncatedOperator.identity(1, lhs.cert).scale(ONE - q_pow(2))
        assert lhs.entries == rhs.entries

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
        assert p.compose(p).entries == p.entries

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
         ((1, 3), 2), ((2, 3), 2), ((3, 2), 1), ((3, 2), 3)],
    )
    def test_minor_conjugation(self, mn, k):
        assert minor_conjugation_ok(*mn, k)

    def test_minor_conjugation_two_by_two(self):
        assert minor_conjugation_ok(2, 2, 1)

    def test_corner_minor_spectrum(self):
        op = rep_minor(1, 2, corner_minor_label(1, 2), 10)
        assert op.entries[((2, 1), (2, 1))] == q_pow(-3)
        assert op.entries == {(k, k): q_pow(-sum(k)) for k in fock_basis(2, op.cert)}

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
        op = rep_coordinate(1, 2, 2, 1, default_cutoff(1, 2)).scale(I + q_pow(1))
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
        pres = preset.presentation
        rules = {**pres.rules, **extra(pres.rules)}
        rules = {pat: repl for pat, repl in rules.items() if repl is not None}
        planted = Presentation("planted", m, n, pres.kinds, rules)
        return AlgebraPreset(
            preset.name, m, n, planted, preset.has_star, preset.diff_first
        )

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
        assert bad == list(_first_rule_scaled_by_s2(make_preset("Pol", 2, 2).presentation.rules))

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
        yield
        ladder.letter_images.cache_clear()

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


def _gauss_matrix(rows):
    return [[GaussRat(*c) if isinstance(c, tuple) else GaussRat(c) for c in row] for row in rows]


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
        G = _gauss_matrix(rows)
        assert _minors_positive_by_determinants(G) is expect
        assert _leading_minors_positive(G) is expect

    @pytest.mark.parametrize("mn", [(1, 2), (2, 1), (2, 2)])
    def test_gram_blocks_agree_with_determinant_rule(self, mn):
        for k in range(4):
            for s0 in (Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3)):
                G = [[c.eval_at(s0) for c in row] for row in gram_matrix(*mn, k)]
                assert _leading_minors_positive(G) is _minors_positive_by_determinants(G)


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
        with pytest.raises(ValueError):
            rep_pol_word((sym("t", 1, 1),), 1, 1, 12)

    def test_qdet_vacuum(self):
        op = rep_tpoly(qdet(2), 1, 1, 12)
        assert vacuum_eigenvalue(op) == ONE
