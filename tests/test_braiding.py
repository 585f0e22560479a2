"""Exchange tables: frozen entries, algebraic identities, derived rule families."""

import hashlib

import pytest

from qmatball import braiding
from qmatball.algebras import PRESET_NAMES, make_preset
from qmatball.braiding import (
    braid_holds,
    hecke_holds,
    hecke_shift_inverse_ok,
    rhat,
    rhat_operator,
    rules_conj_coord_diff,
    rules_coord_diff,
    rules_cross_conj,
    rules_wedge,
    verify_rhat_properties,
)
from qmatball.field import ONE, ZERO, q_pow
from qmatball.words import NCPoly, sym, word_tokens

from dense_linalg import mat_det


QINV = q_pow(-1)
Q = q_pow(1)


def _direct_coord_diff(m, n):
    """The directly stated relations
    z_b^be dz_a^al = sum UU[(b',a'),(b,a)] VV[(be',al'),(be,al)] dz_a'^al' z_b'^be',
    read off the plain tables as rules on the patterns [z dz].  The package
    orients the other way ([dz z], through the closed-form Hecke inverse of
    the tables); this family is kept here only to check that inverse."""
    rules = {}
    for ((bp, ap), (b, a)), cu in rhat("UU", n).items():
        for ((bep, alp), (be, al)), cv in rhat("VV", m).items():
            pat = (sym("z", b, be), sym("dz", a, al))
            rules.setdefault(pat, {})[(sym("dz", ap, alp), sym("z", bp, bep))] = cu * cv
    return {pat: NCPoly(terms) for pat, terms in rules.items()}


def _dense(table, d):
    """A sparse table as a dense matrix, rows and columns in lex pair order."""
    pairs = [(x, y) for x in range(1, d + 1) for y in range(1, d + 1)]
    return [[table.get((pp, up), ZERO) for up in pairs] for pp in pairs]


def _planted(monkeypatch, tag, edit):
    """Make every braiding function read the ``tag`` table through ``edit``."""
    orig = braiding.rhat

    def faulty(t, d):
        table = orig(t, d)
        if t == tag:
            edit(table)
        return table

    monkeypatch.setattr(braiding, "rhat", faulty)


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
        assert ((2, 1), (1, 2)) not in t

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
        assert ((1, 1), (2, 2)) not in t

    @pytest.mark.parametrize("tag", ["UU", "VV", "barUU", "barVV"])
    def test_only_nonzero_entries_are_stored(self, tag):
        t = rhat(tag, 3)
        assert all(t.values())
        assert list(t) == sorted(t)
        # plain: d^2 pairs and one swap term per pair a < b; bar: d^2 pairs
        # and one cascade term per pair c > a
        assert len(t) == 9 + 3

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
        # the triangular certificate, against a determinant by elimination
        table = rhat(tag, d)
        assert verify_rhat_properties(tag, d)["invertible"]
        assert all(pp >= up for pp, up in table)
        assert mat_det(_dense(table, d))

    def test_bar_is_not_hecke(self):
        # the conjugated tables have unipotent blocks: no Hecke-type quadratic
        assert not hecke_holds("barUU", 2)

    def test_report_shapes(self):
        plain = verify_rhat_properties("UU", 2)
        assert plain["hecke"] and plain["braid"] and plain["invertible"]
        bar = verify_rhat_properties("barVV", 2)
        assert bar["invertible"]
        assert "hecke" not in bar

    def test_operator_reads_the_output_pair_reversed(self):
        R = rhat_operator("UU", 2)
        assert R[((2, 1), (2, 1))] == QINV - Q
        assert R[((1, 2), (2, 1))] == ONE
        assert ((1, 2), (1, 2)) not in R
        assert len(R) == len(rhat("UU", 2))


class TestPlantedFaults:
    """Each certificate rejects a table with one entry changed."""

    def test_scaled_swap_entry_fails_the_plain_identities(self, monkeypatch):
        def scale(table):
            table[((1, 2), (2, 1))] = table[((1, 2), (2, 1))] * 2

        _planted(monkeypatch, "UU", scale)
        report = verify_rhat_properties("UU", 2)
        assert not report["hecke"]
        assert not report["braid"]
        assert not report["hecke_shift_inverse"]
        # still triangular with a nonzero diagonal, hence still invertible
        assert report["invertible"]
        assert all(verify_rhat_properties("VV", 2).values())

    @pytest.mark.parametrize("tag", ["barUU", "barVV", "UU"])
    def test_dropped_diagonal_entry_fails_invertible(self, monkeypatch, tag):
        _planted(monkeypatch, tag, lambda table: table.pop(((2, 1), (2, 1))))
        assert not verify_rhat_properties(tag, 2)["invertible"]

    def test_bar_entry_above_the_diagonal_fails_invertible(self, monkeypatch):
        def above(table):
            table[((1, 1), (2, 2))] = ONE

        _planted(monkeypatch, "barUU", above)
        assert not verify_rhat_properties("barUU", 2)["invertible"]
        assert verify_rhat_properties("barVV", 2)["invertible"]

    @pytest.mark.parametrize("tag", ["UU", "VV"])
    def test_coord_diff_refuses_a_table_without_hecke_inverse(self, monkeypatch, tag):
        def scale(table):
            table[((1, 2), (2, 1))] = table[((1, 2), (2, 1))] * 2

        _planted(monkeypatch, tag, scale)
        with pytest.raises(ArithmeticError, match="Hecke-shift inverse"):
            rules_coord_diff(2, 2)


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
        # substituting one family into the other must give the identity:
        # for each pattern of either family, expanding each word of its
        # replacement via the other family must return the pattern.  The
        # direct family is read off the tables, so this checks the
        # closed-form inverse behind rules_coord_diff independently.
        for m, n in ((2, 1), (1, 2), (2, 2), (3, 2)):
            last = rules_coord_diff(m, n)
            first = _direct_coord_diff(m, n)
            assert len(first) == len(last) == (m * n) ** 2
            for one, other in ((first, last), (last, first)):
                for pat, repl in one.items():
                    acc = {}
                    for w2, c in repl.terms.items():
                        for w, c2 in other[w2].terms.items():
                            acc[w] = acc.get(w, ZERO) + c * c2
                    acc = {w: c for w, c in acc.items() if c}
                    assert acc == {pat: ONE}

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


def _rules_digest(sizes):
    """sha256 over every rule of every preset at each size: the pattern
    order, each pattern's tokens and each replacement's terms in their
    order, as canonical coefficient strings and word tokens."""
    h = hashlib.sha256()
    for name in PRESET_NAMES:
        for m, n in sizes:
            h.update(f"{name} {m}x{n}\n".encode())
            for pat, repl in make_preset(name, m, n).rules.items():
                terms = "; ".join(
                    f"{c.to_string()} {' '.join(word_tokens(w))}"
                    for w, c in repl.terms.items()
                )
                h.update(f"{' '.join(word_tokens(pat))} -> {terms}\n".encode())
    return h.hexdigest()


def test_preset_rules_golden():
    # recorded while the tables were dense d^4 maps and the [dz z] rules
    # came from a Gauss-Jordan inverse of the (mn)^2 x (mn)^2 exchange matrix
    sizes = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    assert _rules_digest(sizes) == (
        "82dfc2dd3c4be7202b6f030947e58e70e08549664c18d37b487245b6d9757187"
    )
