"""Tests for the exact ladder-operator realizations.

Frozen values (the rank-one ladder, staircase words, sign chains, vacuum
eigenvalues) were derived by hand from the defining tables; the structural
checks (diagonal laws, type identity, operator-level rewrite rules, Gram
agreement) certify the construction on explicit slices.
"""

import hashlib
import io
from fractions import Fraction
from itertools import product

import pytest

from qmatball import cli, fockrep, integral, ladder

from qmatball.algebras import make_preset, star
from qmatball.field import (
    I,
    ONE,
    Scalar,
    ZERO,
    from_fraction,
    from_int,
    from_laurent,
    q_pow,
    s_pow,
    to_laurent,
)
from qmatball.fockrep import (
    CutoffError,
    TruncatedOperator,
    corner_adjoint_relation_ok,
    cyclic_action,
    det_is_identity_ok,
    diagonal_laws_ok,
    gram_matrix,
    gram_minors_positive,
    hilbert_basis,
    minor_conjugation_ok,
    projector_pairing_rank,
    rep_minor,
    rep_pol_poly,
    rep_projector,
    rep_tpoly,
    rules_as_operators_failures,
    star_representation_ok,
    type_identity_ok,
    vacuum_eigenvalue,
    vacuum_modulus_ok,
    vacuum_modulus_value,
    write_csv,
    write_json,
)
from qmatball.fockrep import _leading_minors_positive
from qmatball.ladder import sign_chain, staircase_transpositions
from qmatball.qminors import corner_minor_label, qdet, qminor, volume_element
from qmatball.words import NCPoly, Presentation, sym

import cyclic_oracle
import truncated_arithmetic as ta
from cyclic_oracle import (
    _weight_terms,
    apply_coordinate_word,
    equivalence_report,
    fock_gram_entries,
    intertwines,
    laurent_conj,
    laurent_dot,
    vacuum_orbit,
)
from compact_involution import star_compact, star_compact_poly, t_gen
from dense_linalg import mat_det, mat_rank


def _norm2(k: tuple):
    return from_laurent(_weight_terms(k))


class TestWeights:
    def test_norm_squares(self):
        assert _norm2((0,)) == ONE
        assert _norm2((1,)) == q_pow(-2) - ONE
        assert _norm2((2,)) == (q_pow(-2) - ONE) * (q_pow(-4) - ONE)

    def test_norms_positive_at_sample_points(self):
        # 0 < q < 1 makes every factor q^-2i - 1 positive
        for j in range(1, 7):
            for s0 in (Fraction(1, 2), Fraction(9, 10)):
                v = _norm2((j,)).eval_at(s0)
                assert v.im == 0 and v.re > 0

    def test_weight_is_leg_product(self):
        assert _norm2((2, 1)) == _norm2((2,)) * _norm2((1,))
        assert _norm2((0, 3, 0)) == _norm2((3,))

    def test_basis_enumeration(self):
        assert ta.fock_basis(2, 2) == ((0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0))
        assert len(ta.fock_basis(4, 3)) == 35  # C(3 + 4, 4)


def _columns_through(op, cert) -> dict:
    """The entries of a slice whose input degree is at most ``cert``."""
    return {key: c for key, c in op.entries.items() if sum(key[1]) <= cert}


class TestOperatorCalculus:
    def test_identity_and_diagonal(self):
        ident = ta.identity(2, 3)
        diag = ta.diagonal(2, 3, lambda k: q_pow(-sum(k)))
        basis = ta.fock_basis(2, 3)
        assert ident.entries == {(k, k): ONE for k in basis}
        assert diag.entries == {(k, k): q_pow(-sum(k)) for k in basis}
        assert diag.entries != ident.entries

    def test_negative_certificate_rejected(self):
        with pytest.raises(CutoffError):
            TruncatedOperator(1, -1, 0, 0)
        with pytest.raises(CutoffError):
            ta.Slice(1, -1, {}, 0, 0)

    def test_compose_certificate_shrinks_with_raising(self):
        z = ta.coordinate("z", 1, 1, 1, 1, 12)
        zz = ta.collect(rep_pol_poly(NCPoly.from_word((sym("z", 1, 1),) * 2), 1, 1, 12))
        assert zz.cert == z.cert - 1
        assert zz.entries[((2,), (0,))] == q_pow(1) * q_pow(2)

    def test_adjoint_involutive_on_slice(self):
        # the star slice is the adjoint of the coordinate slice, so its
        # adjoint gives back the coordinate slice's columns
        z = ta.coordinate("z", 1, 1, 1, 1, 12)
        back = ta.adjoint(ta.coordinate("zs", 1, 1, 1, 1, 12))
        assert back.cert == z.cert - 1
        assert back.entries == _columns_through(z, back.cert)

    def test_adjoint_is_antilinear(self):
        # every entry of the ladder images is real, so only a complex
        # multiple tells a conjugated entry from a plain one
        z, zs = sym("z", 2, 1), sym("zs", 2, 1)
        lhs = ta.adjoint(ta.collect(rep_pol_poly(NCPoly.from_word((z,), I), 1, 2, 6)))
        rhs = ta.collect(rep_pol_poly(NCPoly.from_word((zs,), -I), 1, 2, 6))
        assert _same_operator(lhs, rhs)

    def test_smaller_cutoff_keeps_columns(self):
        z = ta.coordinate("z", 1, 1, 1, 1, 12)
        small = ta.coordinate("z", 1, 1, 1, 1, 4)
        assert small.cert == 4
        assert small.entries == _columns_through(z, 4)

    def test_scalar_linearity(self):
        # a scaled sum of words is the scaled sum of their slices
        z, zs = sym("z", 2, 1), sym("zs", 1, 1)
        words = {(z, zs): I + q_pow(1), (zs, z): -ONE, (z,): ONE + ONE}
        f = NCPoly.zero()
        ref = None
        for w, c in words.items():
            f = f + NCPoly.from_word(w, c)
            piece = ta.scale(ta.collect(rep_pol_poly(NCPoly.from_word(w), 1, 2, 6)), c)
            ref = piece if ref is None else ta.add(ref, piece)
        assert _same_operator(ta.collect(rep_pol_poly(f, 1, 2, 6)), ref)

    def test_negation_is_scaling_by_minus_one(self):
        z, zs = sym("z", 2, 1), sym("zs", 1, 1)
        f = NCPoly.from_word((z, zs), I) + NCPoly.from_word((zs,))
        neg = ta.collect(rep_pol_poly(-f, 1, 2, 6))
        ref = ta.scale(ta.collect(rep_pol_poly(f, 1, 2, 6)), -ONE)
        assert _same_operator(neg, ref)

    def test_column_beyond_certificate_rejected(self):
        # the test-side slices store their columns, so they check them
        with pytest.raises(ValueError, match="beyond certificate"):
            ta.Slice(1, 1, {((2,), (2,)): ONE}, 0, 0)
        with pytest.raises(ValueError, match="beyond certificate"):
            ta.Slice(2, 2, {((0, 0), (0, 0)): ONE, ((0, 0), (1, 2)): ONE}, 0, 1)
        # the last column inside the certificate is fine
        assert ta.Slice(1, 2, {((1,), (2,)): ONE}, 0, 1).cert == 2


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
    slices = {}
    for word, c in f.terms.items():
        piece = ident if budget is None else ta.restricted(ident, budget)
        for g in word:
            if g not in slices:
                slices[g] = ta.letter(m, n, g.row, g.col, cutoff)
            op = slices[g]
            if budget is not None:
                op = ta.restricted(op, budget)
            piece = op if piece is ident else ta.compose(piece, op)
        piece = ta.scale(piece, c)
        acc = piece if acc is None else ta.add(acc, piece)
    return acc if through is None else ta.restricted(acc, through)


def _sliced(op, through):
    """The package slice's entries cut to inputs of degree <= through (None
    keeps them whole)."""
    op = ta.collect(op)
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
                assert ta.observed_shifts(ta.letter(*mn, i, j, cutoff))[0] <= 1

    def test_empty_and_constant_polynomials(self):
        zero = ta.collect(rep_tpoly(NCPoly.zero(), 1, 2, 4))
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
    text = "\n".join(f"{o} {i} {v.to_string()}" for o, i, v in op.rows())
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
        z = ta.coordinate("z", 1, 1, 1, 1, self.CUT)
        for j in range(5):
            assert z.entries[((j + 1,), (j,))] == q_pow(j + 1)

    def test_conjugate_coordinate_entries(self):
        zs = ta.coordinate("zs", 1, 1, 1, 1, self.CUT)
        for j in range(5):
            assert zs.entries[((j,), (j + 1,))] == q_pow(-j - 1) - q_pow(j + 1)

    def test_defining_relation_as_operators(self):
        z, zs = sym("z", 1, 1), sym("zs", 1, 1)
        f = NCPoly.from_word((zs, z)) - NCPoly.from_word((z, zs)).scale(q_pow(2))
        lhs = ta.collect(rep_pol_poly(f, 1, 1, self.CUT))
        assert lhs.entries == {(k, k): ONE - q_pow(2) for k in ta.fock_basis(1, lhs.cert)}

    def test_pol_poly_commutator_is_a_multiple_of_identity(self):
        # zs z - q^2 z zs = (1 - q^2) 1; the certificate and shift bounds
        # were recorded while the slices were composed entry by entry
        z, zs = sym("z", 1, 1), sym("zs", 1, 1)
        f = NCPoly.from_word((zs, z)) - NCPoly.from_word((z, zs)).scale(q_pow(2))
        op = ta.collect(rep_pol_poly(f, 1, 1, 4))
        assert (op.legs, op.cert, op.up, op.down) == (1, 3, 1, 1)
        assert op.entries == {(k, k): ONE - q_pow(2) for k in ta.fock_basis(1, 3)}
        with pytest.raises(CutoffError):
            rep_pol_poly(f, 1, 1, 0)

    def test_letter_images(self):
        raise_op = ta.letter(1, 1, 1, 1, self.CUT)
        assert raise_op.entries[((3,), (2,))] == ONE
        diag = ta.letter(1, 1, 1, 2, self.CUT)
        assert diag.entries[((2,), (2,))] == q_pow(-2)
        low = ta.letter(1, 1, 2, 2, self.CUT)
        assert low.entries[((1,), (2,))] == ONE - q_pow(-4)

    def test_vacuum_eigenvalue_frozen(self):
        c = vacuum_modulus_value(1, 1)
        assert c == -q_pow(-1)

    def test_vacuum_requires_eigenvector(self):
        with pytest.raises(ValueError):
            vacuum_eigenvalue(ladder.letter_images(1, 1)[(1, 1)])

    def test_projector_is_vacuum_projection(self):
        p = ta.collect(rep_projector(1, 1, 6))
        assert p.entries == {((0,), (0,)): ONE}
        assert ta.compose(p, p).entries == p.entries

    def test_word_operator_matches_vector_orbit(self):
        word = (sym("z", 1, 1), sym("z", 1, 1))
        vec = apply_coordinate_word(word, 1, 1)
        assert vec == {(2,): {(6, 0): 1}}
        assert {k: from_laurent(p) for k, p in vec.items()} == {(2,): q_pow(1) * q_pow(2)}


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
        op = ta.collect(rep_minor(1, 2, corner_minor_label(1, 2), 10))
        assert op.entries[((2, 1), (2, 1))] == q_pow(-3)
        assert op.entries == {(k, k): q_pow(-sum(k)) for k in ta.fock_basis(2, op.cert)}

    def test_minor_label_is_a_pair_of_index_sets(self):
        # the order within each index set does not matter, as for qminor
        op = ta.collect(rep_minor(1, 2, ((1, 2), (2, 3)), 3))
        for label in (((2, 1), (3, 2)), ([1, 2], range(2, 4))):
            same = ta.collect(rep_minor(1, 2, label, 3))
            assert (same.entries, same.cert, same.up, same.down) == (
                op.entries, op.cert, op.up, op.down
            )
        with pytest.raises(ValueError, match="equal size"):
            rep_minor(1, 2, ((1, 2), (2,)), 3)

    @pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1), (1, 3), (2, 3), (3, 2)])
    def test_rewrite_rules_hold_as_operators(self, mn):
        assert rules_as_operators_failures(*mn) == []


class TestCyclicModuleSide:
    def test_raising_action_rank_one(self):
        z = sym("z", 1, 1)
        zpoly = NCPoly.from_word((z,))
        for k in range(4):
            assert cyclic_action(zpoly, 1, 1, (z,) * k) == {(z,) * (k + 1): ONE}

    def test_lowering_action_rank_one(self):
        z = sym("z", 1, 1)
        spoly = NCPoly.from_word((sym("zs", 1, 1),))
        for k in range(1, 4):
            assert cyclic_action(spoly, 1, 1, (z,) * k) == {(z,) * (k - 1): ONE - q_pow(2 * k)}

    def test_gram_rank_one_frozen(self):
        for k in range(1, 5):
            expect = ONE
            for j in range(1, k + 1):
                expect = expect * (ONE - q_pow(2 * j))
            assert gram_matrix(1, 1, k) == [[expect]]

    def test_gram_matches_ladder_side(self):
        # the sparse entries, with the lower triangle filled by conjugation,
        # are the whole symbolic matrix
        for mn in [(1, 1), (1, 2), (2, 1)]:
            for k in range(4):
                G = gram_matrix(*mn, k)
                dense = [[ZERO] * len(G) for _ in G]
                for (p, r), terms in fock_gram_entries(*mn, k).items():
                    assert p <= r and terms
                    dense[p][r] = from_laurent(terms)
                    dense[r][p] = from_laurent(laurent_conj(terms))
                assert dense == G

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
        # the sparse entries hold both triangles and no zero
        entries = fockrep._gram_entries(1, 2, 2)
        assert all(c and entries[r, p] == c.conjugate() for (p, r), c in entries.items())

    def test_intertwines_rank_one(self):
        zpoly = NCPoly.from_word((sym("z", 1, 1),))
        spoly = NCPoly.from_word((sym("zs", 1, 1),))
        for k in range(4):
            assert intertwines(zpoly, 1, 1, k)
            assert intertwines(spoly, 1, 1, k)

    def test_intertwines_a_complex_multiple(self):
        # both sides are linear in f, with the coefficient (I + q) carried
        # as integer terms
        zpoly = NCPoly.from_word((sym("z", 2, 1),), I + q_pow(1))
        for k in range(3):
            assert intertwines(zpoly, 1, 2, k)

    @pytest.mark.parametrize("mn", [(1, 2), (2, 2)])
    def test_action_is_the_whole_word_normal_form(self, mn):
        z, zs, f0 = sym("z", 1, 2 if mn == (2, 2) else 1), sym("zs", 1, 1), sym("f0")
        polys = [
            NCPoly.from_word((z,)),
            NCPoly.from_word((zs,)),
            NCPoly.from_word((f0,)),
            NCPoly.from_word((zs, z, zs), I) + NCPoly.from_word((z, zs)) + NCPoly.one(),
            NCPoly.from_word((z, f0, zs), q_pow(1)) + NCPoly.from_word((zs, zs, z)),
        ]
        for f in polys:
            for k_in in range(3):
                for psi in hilbert_basis(*mn, k_in):
                    assert cyclic_action(f, *mn, psi) == _action_by_whole_words(
                        f, *mn, psi
                    ), (f, psi)

    def test_action_rejects_foreign_letters(self):
        with pytest.raises(ValueError, match=r"t\[1,1\] is not in the alphabet"):
            cyclic_action(NCPoly.from_word((sym("t", 1, 1),)), 1, 1, ())

    @pytest.mark.parametrize(
        "mn,through",
        [((1, 1), 4), ((1, 2), 3), ((2, 1), 3), ((2, 2), 3), ((2, 3), 2), ((3, 2), 2)],
    )
    def test_equivalence_report(self, mn, through):
        rep = equivalence_report(*mn, through)
        assert all(rep.values()), rep

    @pytest.mark.parametrize("mn", list(product(range(1, 4), repeat=2)))
    def test_rule_coefficients_are_laurent_polynomials(self, mn):
        # the action's coefficients are sums of products of these, so they
        # lie in Z[i][s, 1/s] too, which the vector check reads them in
        for name in ("Pol", "FunU"):
            for repl in make_preset(name, *mn).rules.values():
                for c in repl.terms.values():
                    assert from_laurent(to_laurent(c)) == c

    @pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1)])
    def test_projector_pairing_full_rank(self, mn):
        for l in range(4):
            d = len(hilbert_basis(*mn, l))
            assert projector_pairing_rank(*mn, l, Fraction(1, 2)) == d


def _action_by_whole_words(f, m, n, psi):
    """Oracle: f psi f0 as the normal form of whole words, each a z-word
    times f0, read off as {z-word: coefficient}."""
    funu = make_preset("FunU", m, n)
    f0 = (sym("f0"),)
    out = {}
    for w, c in funu.multiply(f, NCPoly.from_word(psi + f0)).terms.items():
        assert w[-1:] == f0 and all(g.kind == "z" for g in w[:-1]), w
        out[w[:-1]] = c
    return out


def _failing_keys(m, n, through):
    return [key for key, ok in equivalence_report(m, n, through).items() if not ok]


def _plant_in_action(monkeypatch, target, change):
    """Let the report see ``change(psi, column)`` as the action of the
    polynomial ``target`` on psi; every other action is left as it is."""
    real = cyclic_oracle.cyclic_action

    def planted(f, m, n, psi):
        col = real(f, m, n, psi)
        return change(psi, col) if f == target else col

    monkeypatch.setattr(cyclic_oracle, "cyclic_action", planted)


def _first_scaled_by_q(psi, col):
    if not col:
        return col
    u = next(iter(col))
    return {**col, u: col[u] * q_pow(1)}


class TestCyclicMatchCatchesPlantedFaults:
    @pytest.mark.parametrize("kind,key", [("z", "raising"), ("zs", "lowering")])
    def test_a_rescaled_ladder_image(self, monkeypatch, kind, key):
        # only the image the check applies is scaled; the vacuum orbit, and
        # so the Gram matrices, stay as they are
        target = NCPoly.from_word((sym(kind, 2, 1),))
        real = cyclic_oracle.pol_image

        def planted(f, m, n):
            img = real(f, m, n)
            return img.scale(q_pow(1)) if f == target else img

        monkeypatch.setattr(cyclic_oracle, "pol_image", planted)
        assert _failing_keys(2, 2, 2) == [key]

    @pytest.mark.parametrize("kind,key", [("z", "raising"), ("zs", "lowering")])
    def test_a_rescaled_action_coefficient(self, monkeypatch, kind, key):
        # the ladder side is intact, and the Gram matrices come from the
        # lowering map, not from the action, so the gram key cannot catch it
        _plant_in_action(monkeypatch, NCPoly.from_word((sym(kind, 2, 1),)), _first_scaled_by_q)
        assert _failing_keys(2, 2, 2) == [key]

    def test_an_action_word_outside_the_basis_fails(self, monkeypatch):
        # a dense block indexed by the basis would drop the stray word and pass
        z11 = sym("z", 1, 1)
        basis = hilbert_basis(2, 2, 2)
        letters = make_preset("Pol", 2, 2).symbols("z")
        stray = next(w for w in product(letters, repeat=2) if w not in basis)
        target = NCPoly.from_word((z11,))
        _plant_in_action(
            monkeypatch, target, lambda psi, col: {**col, stray: ONE} if len(psi) == 1 else col
        )
        assert intertwines(target, 2, 2, 0)
        assert not intertwines(target, 2, 2, 1)
        assert _failing_keys(2, 2, 2) == ["raising"]

    def test_a_planted_projector_action_fails(self, monkeypatch):
        _plant_in_action(monkeypatch, NCPoly.from_word((sym("f0"),)), _first_scaled_by_q)
        assert _failing_keys(1, 2, 1) == ["projector"]

    def test_a_rescaled_ladder_weight(self, monkeypatch):
        # ||e_K||^2 times q at one index K that a degree-1 vector reaches;
        # the intertwining keys compare vectors and never read a weight
        real = cyclic_oracle._weight_terms
        scaled = next(iter(vacuum_orbit(2, 2, 1)[0]))

        def planted(key):
            terms = real(key)
            return laurent_dot([(terms, {(2, 0): 1})]) if key == scaled else terms

        monkeypatch.setattr(cyclic_oracle, "_weight_terms", planted)
        assert _failing_keys(2, 2, 2) == ["gram"]

    def test_an_off_block_symbolic_gram_entry(self, monkeypatch):
        # one Hermitian pair of entries between two weight blocks set to 1:
        # the ladder side leaves the pair out, and the whole triangle is read
        real = cyclic_oracle._gram_entries
        (p, *_), (r, *_) = fockrep._weight_blocks(2, 2, 2)[:2]

        def planted(m, n, k):
            entries = real(m, n, k)
            if (m, n, k) != (2, 2, 2):
                return entries
            return {**entries, (p, r): ONE, (r, p): ONE}

        monkeypatch.setattr(cyclic_oracle, "_gram_entries", planted)
        assert _failing_keys(2, 2, 2) == ["gram"]

    def test_a_coefficient_outside_the_ring_raises(self, monkeypatch):
        # the check reads every coefficient as integer terms; a 1/2 must
        # stop it with an error naming the value, never give a verdict
        half = from_fraction(Fraction(1, 2))
        _plant_in_action(
            monkeypatch,
            NCPoly.from_word((sym("z", 1, 1),)),
            lambda psi, col: {u: c * half for u, c in col.items()},
        )
        message = r"coefficient 1/2 is not in Z\[i\]\[s, 1/s\]"
        with pytest.raises(ValueError, match=message):
            equivalence_report(1, 1, 2)


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


def _pairing_matrix(m, n, l):
    """The constant-term pairing matrix as :func:`projector_pairing_rank`
    reads it: the Gram matrix transposed."""
    return [list(col) for col in zip(*gram_matrix(m, n, l))]


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


def _pairing_by_pol_lowering(m, n, l):
    """Oracle: entry (r, p) strips the letters of (conjugate of b_r) from
    b_p one at a time, from the right, through the lowering map of Pol,
    and reads the constant term; the words that map drops end in zs, so
    they have no constant term after any left factor."""
    pol = make_preset("Pol", m, n)
    basis = hilbert_basis(m, n, l)

    def pair(br, bp):
        v = {bp: ONE}
        for g in br:
            y = sym("zs", g.row, g.col)
            acc = {}
            for u, c in v.items():
                for u2, c2 in pol.lower(y, u).items():
                    acc[u2] = acc.get(u2, ZERO) + c * c2
            v = acc
        return v.get((), ZERO)

    return [[pair(br, bp) for bp in basis] for br in basis]


def _minors_positive_by_determinants(G, one=Fraction(1)):
    """Oracle: one determinant per leading principal minor, each a positive
    rational.  G holds Fractions, or constant Scalars (``one=ONE``) where an
    entry is complex; a Scalar minor is read through its value."""
    for t in range(1, len(G) + 1):
        d = mat_det([row[:t] for row in G[:t]], one=one)
        if isinstance(d, Scalar):
            v = d.eval_at(1)
            if v.im:
                return False
            d = v.re
        if d <= 0:
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
        assert _pairing_matrix(*mn, l) == _pairing_by_whole_words(*mn, l)

    @pytest.mark.parametrize(
        "mn,k",
        [((2, 2), 4), ((2, 3), 0), ((2, 3), 1), ((2, 3), 2)]
        + [(mn, k) for mn in [(1, 3), (3, 2)] for k in range(3)],
    )
    def test_gram_equals_whole_word_normal_forms_larger(self, mn, k):
        assert gram_matrix(*mn, k) == _gram_by_whole_words(*mn, k)

    # the pairing oracle at 2x2 in degree 4 takes about 10 s; the test
    # against Pol's lowering chains below reaches that block instead
    @pytest.mark.parametrize("l", range(3))
    def test_pairing_equals_whole_word_normal_forms_rectangular(self, l):
        assert _pairing_matrix(2, 3, l) == _pairing_by_whole_words(2, 3, l)

    @pytest.mark.parametrize("mn", [(1, 3), (3, 2)])
    @pytest.mark.parametrize("l", range(3))
    def test_pairing_equals_whole_word_normal_forms_more_sizes(self, mn, l):
        assert _pairing_matrix(*mn, l) == _pairing_by_whole_words(*mn, l)

    @pytest.mark.parametrize(
        "mn,l",
        [((1, 2), l) for l in range(4)]
        + [((2, 2), l) for l in range(5)]
        + [((2, 3), l) for l in range(4)],
    )
    def test_pairing_is_gram_transposed(self, mn, l):
        # the pairing is defined as the transposed Gram matrix, read through
        # FunU; the oracle reads the constant terms through Pol's own rules
        assert _pairing_matrix(*mn, l) == _pairing_by_pol_lowering(*mn, l)

    @pytest.mark.parametrize("mn", list(product(range(1, 4), repeat=2)))
    def test_pol_rules_are_funu_rules(self, mn):
        # the two facts behind the pairing as the transposed Gram matrix:
        # every Pol rule rewrites alike in FunU, and every zs z pair is a Pol
        # pattern, so a nonempty normal Pol word starts with z or ends in zs
        pol, funu = make_preset("Pol", *mn), make_preset("FunU", *mn)
        assert all(funu.rules.get(pat) == repl for pat, repl in pol.rules.items())
        assert pol.lowering_violations() == []
        # every rule coefficient is real, so every Gram matrix is real
        # symmetric and equals the pairing matrix, its transpose
        for preset in (pol, funu):
            for repl in preset.rules.values():
                assert all(c.conjugate() == c for c in repl.terms.values())


def _with_planted_rules(monkeypatch, name, extra):
    """Let fockrep (and so the integral's pairing, which goes through
    :func:`fockrep.cyclic_action`) see preset ``name`` with ``extra`` rules
    laid over its own; a rule mapped to None is taken out."""
    real = fockrep.make_preset

    def fake(pname, m, n):
        preset = real(pname, m, n)
        if pname != name:
            return preset
        rules = {**preset.rules, **extra(preset.rules)}
        rules = {pat: repl for pat, repl in rules.items() if repl is not None}
        return Presentation(preset.name, m, n, preset.kinds, rules)

    monkeypatch.setattr(fockrep, "make_preset", fake)


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
            fockrep._gram_entries.__wrapped__(1, 2, 2)

    def test_pairing_needs_z_to_stay_in_front(self, monkeypatch):
        # z zs -> 1 makes the (z, zs) replacement word of zs z a pattern
        z, zs = sym("z", 1, 1), sym("zs", 1, 1)
        _with_planted_rules(monkeypatch, "FunU", lambda rules: {(z, zs): NCPoly.one()})
        with pytest.raises(
            ArithmeticError, match=r"zs\[1,1\].*z\[1,1\].*normal \(z, zs\) pair.*lowering"
        ):
            fockrep._gram_entries.__wrapped__(1, 1, 1)

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
            fockrep._gram_entries.__wrapped__(1, 2, 2)
        zs, z = (sym("zs", 2, 1), sym("zs", 1, 1)), (sym("z", 1, 1), sym("z", 2, 1))
        with pytest.raises(ArithmeticError, match=message):
            integral._sandwich_pairing.__wrapped__(1, 2, zs, z)


def _first_rule_scaled_by_s2(rules):
    pat, repl = next((p, r) for p, r in rules.items() if r)
    return {pat: repl.scale(s_pow(2))}


CYCLIC_LINES = [
    f"cyclic-module match: {key}" for key in ("gram", "lowering", "projector", "raising")
]


def _rep_check_failures(capsys, mn="2x2"):
    """Exit code and FAIL lines of ``qmb rep-check`` at ``mn``."""
    code = cli.main(["rep-check", "--mn", mn, "--max-degree", "2"])
    out = capsys.readouterr().out
    return code, [line[len("FAIL  "):] for line in out.splitlines() if line.startswith("FAIL")]


def _zs_with_identity_term(monkeypatch):
    """Let the certificate see pi(zs[1,1]) plus the identity, which sends
    e_0 to itself; the rules as operators still read the real images."""
    real = fockrep.coordinate_images

    def planted(m, n):
        images = dict(real(m, n))
        g = sym("zs", 1, 1)
        images[g] = images[g] + ladder.LadderOperator.identity(m * n)
        return images

    monkeypatch.setattr(fockrep, "coordinate_images", planted)


def _no_f0_z_rule(rules):
    return {(sym("f0"), sym("z", 2, 1)): None}


def _no_zs_z_rule(rules):
    return {(sym("zs", 1, 1), sym("z", 1, 1)): None}


def _no_pol_z_z_rule(rules):
    # a z z rule: the lowering certificate does not need it, the rule
    # comparison does
    return {next(p for p in rules if p[0].kind == p[1].kind == "z"): None}


class TestStarRepresentationCertificate:
    @pytest.mark.parametrize("mn", LAW_SIZES + [(3, 3)])
    def test_holds(self, mn):
        assert star_representation_ok(*mn)

    def test_a_zs_image_that_does_not_kill_the_vacuum(self, monkeypatch, capsys):
        _zs_with_identity_term(monkeypatch)
        assert not star_representation_ok(2, 2)
        assert _rep_check_failures(capsys) == (2, CYCLIC_LINES)

    @pytest.mark.parametrize(
        "extra",
        [_no_f0_z_rule, _no_pol_z_z_rule, _first_rule_scaled_by_s2],
        ids=["no-f0-z-rule", "pol-rule-missing", "pol-rule-replaced"],
    )
    def test_a_funu_that_is_not_pol_plus_the_projection(self, monkeypatch, capsys, extra):
        _with_planted_rules(monkeypatch, "FunU", extra)
        assert not star_representation_ok(2, 2)
        assert _rep_check_failures(capsys) == (2, CYCLIC_LINES)

    def test_a_funu_without_a_lowering_map(self, monkeypatch, capsys):
        # one zs z rule taken out of both presets: FunU is still Pol plus
        # the projection, but the lowering certificate fails
        _with_planted_rules(monkeypatch, "Pol", _no_zs_z_rule)
        _with_planted_rules(monkeypatch, "FunU", _no_zs_z_rule)
        assert not star_representation_ok(2, 2)
        assert _rep_check_failures(capsys) == (2, CYCLIC_LINES)

    def test_a_failing_rule_fails_the_match(self, monkeypatch, capsys):
        # the match reads the rules verdict too: a rule that fails as an
        # operator fails all four cyclic-module lines with it, though the
        # certificate itself still holds
        monkeypatch.setattr(cli, "rules_as_operators_failures", lambda m, n: ["planted"])
        assert star_representation_ok(2, 2)
        code, failed = _rep_check_failures(capsys)
        assert (code, failed) == (2, ["all coordinate rewrite rules hold as operators"] + CYCLIC_LINES)


class TestLawsCatchPlantedFaults:
    def test_a_rescaled_rule_fails_as_an_operator(self, monkeypatch):
        _with_planted_rules(monkeypatch, "Pol", _first_rule_scaled_by_s2)
        bad = rules_as_operators_failures(2, 2)
        assert bad == list(_first_rule_scaled_by_s2(make_preset("Pol", 2, 2).rules))

    def test_starred_rules_are_checked_by_adjunction(self, monkeypatch):
        # at 2x2, star maps 5 of the 6 z z rules onto zs zs rules, word for
        # word up to a factor; those 5 build no images of their own
        built = []
        real = fockrep.pol_image
        monkeypatch.setattr(fockrep, "pol_image", lambda f, m, n: built.append(f) or real(f, m, n))
        assert rules_as_operators_failures(2, 2) == []
        assert len(built) == 2 * (len(make_preset("Pol", 2, 2).rules) - 5)

    @pytest.mark.parametrize("which", [0, -1])
    def test_a_rescaled_starred_rule_is_checked_on_its_own(self, monkeypatch, which):
        # a zs zs rule scaled by s^2 is no longer the star of its z z rule
        def scaled(rules):
            pats = [p for p in rules if p[0].kind == p[1].kind == "zs"]
            pat = pats[which]
            return {pat: rules[pat].scale(s_pow(2))}

        _with_planted_rules(monkeypatch, "Pol", scaled)
        assert rules_as_operators_failures(2, 2) == list(scaled(make_preset("Pol", 2, 2).rules))

    def test_a_failing_rule_fails_with_its_starred_partner(self, monkeypatch):
        # a z z rule and its star scaled alike stay partners, and both fail
        def scaled(rules):
            pat = next(p for p in rules if p[0].kind == p[1].kind == "z")
            spat = (sym("zs", pat[1].row, pat[1].col), sym("zs", pat[0].row, pat[0].col))
            if spat not in rules:
                spat = spat[::-1]
            return {pat: rules[pat].scale(s_pow(2)), spat: rules[spat].scale(s_pow(-2))}

        _with_planted_rules(monkeypatch, "Pol", scaled)
        assert rules_as_operators_failures(2, 2) == list(scaled(make_preset("Pol", 2, 2).rules))

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
        # some term carries the factor i (j = 1 in its key (d, a, e, j))
        assert any(key[3] for op in ladder.letter_images(*mn).values() for key in op.terms)
        assert type_identity_ok(*mn)

    @pytest.mark.parametrize("mn", [(1, 1), (2, 2)])
    def test_an_adjoint_without_conjugation_fails_the_type_identity(
        self, phased_letters, monkeypatch, mn
    ):
        # the conjugation of the adjoint is the sign of the i terms
        monkeypatch.setattr(ladder, "_conjugate", lambda terms: terms)
        assert not type_identity_ok(*mn)


def _zi_matrix(rows):
    return [[c if isinstance(c, tuple) else (c, 0) for c in row] for row in rows]


def _evaluated(M, s0):
    """The whole matrix at s = s0 over Fraction, for the dense oracles: the
    Gram and pairing blocks are real at a real point."""
    out = [[c.eval_at(s0) for c in row] for row in M]
    assert not any(v.im for row in out for v in row)
    return [[v.re for v in row] for row in out]


# Recorded before the certificates were read per weight block: a dense
# elimination of the whole evaluated matrix gave these verdicts
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
        G = [[from_int(a) + I * b for a, b in row] for row in rows]
        assert _minors_positive_by_determinants(G, one=ONE) is expect
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
        over Fraction and against the verdicts recorded before the change.
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
            assert rank == mat_rank(_evaluated(_pairing_matrix(*mn, k), point))

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
        diag = {(0, 0): ONE, (1, 1): ONE, (2, 2): -ONE}
        swap = {(0, 0): ONE, (1, 2): ONE, (2, 1): ONE}
        monkeypatch.setattr(fockrep, "_gram_entries", lambda m, n, k: diag)
        assert not gram_minors_positive(1, 1, 1, Fraction(1, 2))
        monkeypatch.setattr(fockrep, "_gram_entries", lambda m, n, k: swap)
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
            # the entries the certificates read, and the dense rows built from them
            assert all(block_of[p] == block_of[r] for p, r in fockrep._gram_entries(*mn, k))
            for M in (gram_matrix(*mn, k), _pairing_matrix(*mn, k)):
                for p, row in enumerate(M):
                    assert all(block_of[p] == block_of[r] for r, c in enumerate(row) if c)
            sizes += map(len, blocks)
        assert max(sizes) == largest


class TestExport:
    def test_csv_shape(self):
        z = rep_pol_poly(NCPoly.from_word((sym("z", 1, 1),)), 1, 1, 2)
        buf = io.StringIO()
        write_csv(z, buf)
        text = buf.getvalue()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# legs=1 cert=2")
        assert lines[1] == "out_index,in_index,value"
        assert lines[2].startswith("1,0,")
        assert Scalar.from_string(lines[2].split(",", 2)[2]) == q_pow(1)

    def test_json_round_trip_fields(self):
        import json as _json

        z = rep_pol_poly(NCPoly.from_word((sym("z", 1, 1),)), 1, 1, 2)
        head = {"legs": z.legs, "cert": z.cert}
        entries = [{"out": list(o), "in": list(i), "value": c.to_string()} for o, i, c in z.rows()]
        buf = io.StringIO()
        write_json(buf, head, iter(entries))
        assert buf.getvalue() == _json.dumps({**head, "entries": entries}) + "\n"
        data = _json.loads(buf.getvalue())
        assert data["legs"] == 1 and data["cert"] == 2
        assert {"out": [1], "in": [0], "value": q_pow(1).to_string()} in data["entries"]

    @pytest.mark.parametrize("style", [{}, {"indent": 2, "sort_keys": True}, {"indent": 4}])
    @pytest.mark.parametrize("entries", [[], ["a"], [["x", "y"], [], {"k": [1, 2]}, "[]"]])
    def test_json_stream_is_one_dump(self, style, entries):
        # keys on both sides of "entries" once sorted, values that read like
        # the empty list, an empty list, and items that span several lines
        import json as _json

        head = {"z": '"entries": []', "a": 0, "mn": "[]"}
        buf = io.StringIO()
        write_json(buf, head, iter(entries), **style)
        assert buf.getvalue() == _json.dumps({**head, "entries": entries}, **style) + "\n"

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
        assert vacuum_eigenvalue(ladder.tpoly_image(qdet(2), 1, 1)) == ONE
