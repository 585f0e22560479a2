"""Exchange tables: frozen entries, algebraic identities, derived rule families."""

import pytest

from qmatball.braiding import (
    _exchange_matrix,
    braid_holds,
    hecke_holds,
    hecke_shift_inverse_ok,
    rhat,
    rhat_inverse,
    rhat_operator,
    rules_conj_coord_diff,
    rules_coord_diff,
    rules_cross_conj,
    rules_wedge,
    verify_rhat_properties,
)
from qmatball.field import ONE, ZERO, q_pow
from qmatball.linalg import mat_identity, mat_mul
from qmatball.words import NCPoly, sym


QINV = q_pow(-1)
Q = q_pow(1)


def _direct_coord_diff(m, n):
    """The directly stated relations z_b^be dz_a^al = sum M dz_a'^al' z_b'^be',
    read off the exchange matrix M as rules on the patterns [z dz].  The
    package orients the other way ([dz z], through the inverse of M); this
    family is kept here only to check that inversion."""
    idx, M = _exchange_matrix(m, n)
    return {
        (sym("z", b, be), sym("dz", a, al)): NCPoly({
            (sym("dz", ap, alp), sym("z", bp, bep)): M[r][c]
            for c, (bp, bep, ap, alp) in enumerate(idx)
        })
        for r, (b, be, a, al) in enumerate(idx)
    }


class TestFrozenEntries:
    def test_plain_diagonal_equal_indices(self):
        t = rhat("UU", 2)
        assert t[((1, 1), (1, 1))] == QINV
        assert t[((2, 2), (2, 2))] == QINV

    def test_plain_distinct_indices_identity_part(self):
        t = rhat("UU", 2)
        # primed (b', a') = (2, 1), unprimed (b, a) = (2, 1): a != b, a=a', b=b'
        assert t[((2, 1), (2, 1))] == ONE
        assert t[((1, 2), (1, 2))] == ONE

    def test_plain_swap_term(self):
        t = rhat("UU", 2)
        # a < b with a=b', b=a': unprimed (b, a) = (2, 1), primed (b', a') = (1, 2)
        assert t[((1, 2), (2, 1))] == QINV - Q
        assert t[((2, 1), (1, 2))] == ZERO

    def test_vv_same_table_shape(self):
        assert rhat("VV", 3) == rhat("UU", 3)

    def test_bar_distinct_indices(self):
        t = rhat("barUU", 2)
        # a != b with b=b', a=a'
        assert t[((2, 1), (2, 1))] == QINV
        assert t[((1, 2), (1, 2))] == QINV

    def test_bar_equal_indices_diagonal(self):
        t = rhat("barUU", 2)
        assert t[((1, 1), (1, 1))] == ONE
        assert t[((2, 2), (2, 2))] == ONE

    def test_bar_cascade_term(self):
        t = rhat("barUU", 2)
        # a=b=1 with a'=b'=2 > a: coefficient -(q^{-2} - 1)
        assert t[((2, 2), (1, 1))] == -(q_pow(-2) - ONE)
        assert t[((1, 1), (2, 2))] == ZERO

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            rhat("XX", 2)


class TestIdentities:
    @pytest.mark.parametrize("tag", ["UU", "VV"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_hecke_plain(self, tag, d):
        assert hecke_holds(tag, d)

    @pytest.mark.parametrize("tag", ["UU", "VV"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_braid_plain(self, tag, d):
        assert braid_holds(tag, d)

    @pytest.mark.parametrize("tag", ["UU", "VV"])
    def test_hecke_shift_inverse(self, tag):
        assert hecke_shift_inverse_ok(tag, 2)
        assert hecke_shift_inverse_ok(tag, 3)

    def test_hecke_shift_rejected_for_bar(self):
        with pytest.raises(ValueError):
            hecke_shift_inverse_ok("barUU", 2)

    @pytest.mark.parametrize("tag", ["barUU", "barVV"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bar_invertible(self, tag, d):
        inv = rhat_inverse(tag, d)
        assert inv is not None
        _, R = rhat_operator(tag, d)
        assert mat_mul(R, inv) == mat_identity(len(R))

    def test_bar_is_not_hecke(self):
        # the conjugated tables have unipotent blocks: no Hecke-type quadratic
        assert not hecke_holds("barUU", 2)

    def test_report_shapes(self):
        plain = verify_rhat_properties("UU", 2)
        assert plain["hecke"] and plain["braid"] and plain["invertible"]
        bar = verify_rhat_properties("barVV", 2)
        assert bar["invertible"]
        assert "hecke" not in bar


class TestCrossConjRules:
    def test_rank_one_commutation(self):
        rules = rules_cross_conj(1, 1, "zs", "z")
        pat = (sym("zs", 1, 1), sym("z", 1, 1))
        expected = NCPoly.from_word((sym("z", 1, 1), sym("zs", 1, 1)), q_pow(2))
        expected = expected + NCPoly.from_word((), ONE - q_pow(2))
        assert rules[pat] == expected

    def test_distinct_indices_no_delta(self):
        rules = rules_cross_conj(2, 2, "zs", "z")
        pat = (sym("zs", 1, 1), sym("z", 2, 2))
        repl = rules[pat]
        # barUU and barVV both contribute q^{-1} here; q^2 q^{-1} q^{-1} = 1
        assert repl.terms == {
            (sym("z", 2, 2), sym("zs", 1, 1)): ONE,
        }

    def test_differential_variants_have_no_delta(self):
        for left, right in (("dzs", "z"), ("zs", "dz"), ("dzs", "dz")):
            rules = rules_cross_conj(1, 1, left, right)
            for repl in rules.values():
                assert () not in repl.terms

    def test_mixed_differential_sign(self):
        plain = rules_cross_conj(1, 1, "zs", "dz")
        minus = rules_cross_conj(1, 1, "dzs", "dz")
        pat_p = (sym("zs", 1, 1), sym("dz", 1, 1))
        pat_m = (sym("dzs", 1, 1), sym("dz", 1, 1))
        assert plain[pat_p].terms[(sym("dz", 1, 1), sym("zs", 1, 1))] == q_pow(2)
        assert minus[pat_m].terms[(sym("dz", 1, 1), sym("dzs", 1, 1))] == -q_pow(2)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            rules_cross_conj(1, 1, "z", "zs")


class TestCoordDiffRules:
    def test_rank_one_diff_last(self):
        rules = rules_coord_diff(1, 1)
        pat = (sym("dz", 1, 1), sym("z", 1, 1))
        assert rules[pat] == NCPoly.from_word(
            (sym("z", 1, 1), sym("dz", 1, 1)), q_pow(2)
        )

    def test_rank_one_diff_first(self):
        rules = _direct_coord_diff(1, 1)
        pat = (sym("z", 1, 1), sym("dz", 1, 1))
        assert rules[pat] == NCPoly.from_word(
            (sym("dz", 1, 1), sym("z", 1, 1)), q_pow(-2)
        )

    def test_orientations_are_mutually_inverse(self):
        last = rules_coord_diff(2, 1)
        first = _direct_coord_diff(2, 1)
        # substituting one family into the other must give the identity:
        # for each pattern z dz, expanding each dz z word of its replacement
        # via the diff-last family must return the original pattern.
        for (zsym, dsym), repl in first.items():
            acc = {}
            for (d2, z2), c in repl.terms.items():
                for w, c2 in last[(d2, z2)].terms.items():
                    acc[w] = acc.get(w, ZERO) + c * c2
            acc = {w: c for w, c in acc.items() if c}
            assert acc == {(zsym, dsym): ONE}

    def test_every_replacement_keeps_bidegree(self):
        rules = rules_coord_diff(2, 2)
        for pat, repl in rules.items():
            assert len(pat) == 2
            for w in repl.terms:
                kinds = sorted(s.kind for s in w)
                assert kinds == ["dz", "z"]


class TestWedgeRules:
    def test_rank_one_square_is_zero(self):
        rules = rules_wedge(1, 1, "dz")
        pat = (sym("dz", 1, 1), sym("dz", 1, 1))
        assert rules[pat] == NCPoly.zero()

    def test_replacements_are_strictly_ascending(self):
        rules = rules_wedge(2, 2, "dz")
        order = {s: i for i, s in enumerate(
            sym("dz", r, c) for r in (1, 2) for c in (1, 2)
        )}
        for pat, repl in rules.items():
            assert order[pat[0]] >= order[pat[1]]
            for w in repl.terms:
                assert order[w[0]] < order[w[1]]

    def test_conjugated_wedge_square_is_zero(self):
        rules = rules_wedge(1, 1, "dzs")
        pat = (sym("dzs", 1, 1), sym("dzs", 1, 1))
        assert rules[pat] == NCPoly.zero()

    def test_rule_count_matches_nonnormal_pairs(self):
        # mn = 4 generators: 4 squares + 6 descending pairs = 10 rules
        assert len(rules_wedge(2, 2, "dz")) == 10
        assert len(rules_wedge(2, 2, "dzs")) == 10

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            rules_wedge(1, 1, "z")


# every derived rule family, as the presets assemble them
FAMILIES = {
    "coord-diff": rules_coord_diff,
    "wedge": lambda m, n: rules_wedge(m, n, "dz"),
    "wedge-conj": lambda m, n: rules_wedge(m, n, "dzs"),
    "conj-cross": lambda m, n: rules_cross_conj(m, n, "zs", "z"),
    "diff-conj-cross": lambda m, n: rules_cross_conj(m, n, "dzs", "z"),
    "conj-coord-diff": rules_conj_coord_diff,
    "mixed-diff-cross": lambda m, n: {
        **rules_cross_conj(m, n, "zs", "dz"),
        **rules_cross_conj(m, n, "dzs", "dz"),
    },
}


class TestEmitters:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_emits(self, family):
        rules = FAMILIES[family](1, 2)
        assert rules
        for pat, repl in rules.items():
            assert isinstance(pat, tuple) and len(pat) == 2
            assert isinstance(repl, NCPoly)

    def test_conj_coord_diff_is_conjugate_of_coord_diff(self):
        base = rules_coord_diff(1, 2)
        conj = rules_conj_coord_diff(1, 2)
        assert len(conj) == len(base)
        for (zs_sym, dzs_sym), repl in conj.items():
            assert zs_sym.kind == "zs" and dzs_sym.kind == "dzs"
            for w, c in repl.terms.items():
                assert w[0].kind == "dzs" and w[1].kind == "zs"
                assert c == c.conjugate()  # coefficients live in the real subfield
