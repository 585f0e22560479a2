"""Algebra presets: rule tables, dimensions, involution, differential."""

import hashlib
import itertools
import json
import math
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

import qmatball
from qmatball.algebras import (
    PRESET_NAMES,
    commutation_rules,
    differential,
    make_preset,
    parse_preset,
    projection_rules,
    star,
    star_words,
)
from qmatball.braiding import rules_cross_conj
from qmatball.field import I, ONE, q_pow
from qmatball.words import NCPoly, Presentation, sym, word_tokens

import rightmost_reduction as rightmost


class TestCommutationRules:
    def test_single_generator_no_rules(self):
        assert commutation_rules(1, 1, "z") == {}

    def test_two_by_two_rule_count(self):
        assert len(commutation_rules(2, 2, "z")) == 6

    def test_same_row_q_commutation(self):
        rules = commutation_rules(2, 2, "z")
        pat = (sym("z", 1, 2), sym("z", 1, 1))
        assert rules[pat] == NCPoly.from_word(
            (sym("z", 1, 1), sym("z", 1, 2)), q_pow(-1)
        )

    def test_same_column_q_commutation(self):
        rules = commutation_rules(2, 2, "z")
        pat = (sym("z", 2, 1), sym("z", 1, 1))
        assert rules[pat] == NCPoly.from_word(
            (sym("z", 1, 1), sym("z", 2, 1)), q_pow(-1)
        )

    def test_antidiagonal_plain_commutation(self):
        rules = commutation_rules(2, 2, "z")
        pat = (sym("z", 2, 1), sym("z", 1, 2))
        assert rules[pat] == NCPoly.from_word((sym("z", 1, 2), sym("z", 2, 1)), ONE)

    def test_diagonal_interchange_term(self):
        rules = commutation_rules(2, 2, "z")
        pat = (sym("z", 2, 2), sym("z", 1, 1))
        want = NCPoly.from_word((sym("z", 1, 1), sym("z", 2, 2)), ONE)
        want = want + NCPoly.from_word(
            (sym("z", 1, 2), sym("z", 2, 1)), q_pow(-1) - q_pow(1)
        )
        assert rules[pat] == want

    def test_conjugated_rules_mirror_coefficients(self):
        rules = commutation_rules(2, 2, "zs")
        pat = (sym("zs", 1, 2), sym("zs", 1, 1))
        assert rules[pat] == NCPoly.from_word(
            (sym("zs", 1, 1), sym("zs", 1, 2)), q_pow(1)
        )
        pat = (sym("zs", 2, 2), sym("zs", 1, 1))
        want = NCPoly.from_word((sym("zs", 1, 1), sym("zs", 2, 2)), ONE)
        want = want + NCPoly.from_word(
            (sym("zs", 1, 2), sym("zs", 2, 1)), q_pow(1) - q_pow(-1)
        )
        assert rules[pat] == want

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            commutation_rules(1, 1, "dz")


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_construct(self, name):
        preset = make_preset(name, 1, 2)
        assert preset.termination_violations() == []

    @pytest.mark.parametrize("mn", [(m, n) for m in range(1, 4) for n in range(1, 4)])
    def test_pruning_certificates_hold(self, mn):
        for name in PRESET_NAMES:
            pres = make_preset(name, *mn)
            assert pres.weight_violations() == ()
            assert pres.lowering_violations() == []

    def test_preset_caching_shares_presentation(self):
        pol = make_preset("Pol", 2, 2)
        assert make_preset("pol", 2, 2) is pol
        assert parse_preset("pol:2x2") is pol
        pol.normal_form(NCPoly.from_word((sym("zs", 1, 1), sym("z", 1, 1))))
        assert pol.memo_size() > 0
        qmatball.clear_caches()
        fresh = make_preset("Pol", 2, 2)
        assert fresh is not pol and fresh.rules == pol.rules
        assert fresh.memo_size() == 0

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_make_preset_fields(self, name):
        preset = make_preset(name.upper(), 2, 3)
        assert isinstance(preset, Presentation)
        assert (preset.name, preset.m, preset.n) == (name, 2, 3)
        assert preset.label() == f"{name.lower()}:2x3"

    def test_parse_preset_strings(self):
        p = parse_preset("cmat:2x2")
        assert (p.name, p.m, p.n) == ("CMat", 2, 2)
        p = parse_preset("funu:1x1")
        assert p.name == "FunU"
        with pytest.raises(ValueError):
            parse_preset("pol-2x2")
        with pytest.raises(ValueError):
            parse_preset("nosuch:1x1")

    def test_parse_preset_reads_ascii_digits_only(self):
        # int() reads Arabic-Indic and other digits; a preset string takes
        # only the ASCII ones, so "cmat:\u0662x\u0662" is no 2x2 preset
        assert parse_preset("CMat:2X2") is make_preset("CMat", 2, 2)
        with pytest.raises(ValueError, match="malformed preset string"):
            parse_preset("cmat:\u0662x\u0662")

    def test_rank_one_cross_rule(self):
        pol = make_preset("Pol", 1, 1)
        z, zs = sym("z", 1, 1), sym("zs", 1, 1)
        nf = pol.normal_form(NCPoly.from_word((zs, z)))
        want = NCPoly.from_word((z, zs), q_pow(2)) + NCPoly.from_word(
            (), ONE - q_pow(2)
        )
        assert nf == want

    def test_projection_rules_list(self):
        rules = projection_rules(1, 1)
        f0, z, zs = sym("f0"), sym("z", 1, 1), sym("zs", 1, 1)
        assert rules[(f0, f0)] == NCPoly.from_word((f0,))
        assert rules[(f0, z)] == NCPoly.zero()
        assert rules[(zs, f0)] == NCPoly.zero()
        assert len(rules) == 3

    def test_projection_sandwich_collapses(self):
        funu = make_preset("FunU", 1, 1)
        f0, z, zs = sym("f0"), sym("z", 1, 1), sym("zs", 1, 1)
        assert not funu.normal_form(NCPoly.from_word((f0, z, zs, f0)))
        assert funu.normal_form(NCPoly.from_word((f0, f0))) == NCPoly.from_word((f0,))
        kept = funu.normal_form(NCPoly.from_word((z, f0, zs)))
        assert kept == NCPoly.from_word((z, f0, zs))


def _star_accepts(preset) -> bool:
    try:
        star(NCPoly.one(), preset)
    except ValueError:
        return False
    return True


def _preset_digest() -> str:
    """sha256 over every preset's rules, alphabet, degree-2 basis, involution
    flag and label at each size from 1x1 to 3x3."""
    h = hashlib.sha256()
    for name in PRESET_NAMES:
        for m, n in itertools.product(range(1, 4), repeat=2):
            preset = make_preset(name, m, n)
            record = {
                "label": preset.label(),
                "has_star": _star_accepts(preset),
                "alphabet": word_tokens(preset.alphabet()),
                "rules": sorted(
                    (word_tokens(pat), repl.to_dict()["terms"])
                    for pat, repl in preset.rules.items()
                ),
                "basis2": [word_tokens(w) for w in preset.basis_by_total_degree(2)],
            }
            h.update(json.dumps(record, sort_keys=True).encode())
    return h.hexdigest()


def test_preset_rules_match_the_golden_digest():
    # any change to a preset's rules, word order or normal basis moves this
    assert _preset_digest() == (
        "3c715055a1e08d41f2d275367729d19aff1fc4d9baa511927cbda2a9aa11756d"
    )


class TestDimensions:
    @pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_coordinate_algebra_dims(self, mn):
        m, n = mn
        preset = make_preset("CMat", m, n)
        for k in range(7):
            got = len(preset.basis_by_total_degree(k))
            assert got == math.comb(m * n + k - 1, k)

    def test_pol_bidegree_dims(self):
        pol = make_preset("Pol", 2, 2)
        for k in range(4):
            for l in range(4):
                got = len(pol.basis_words({"z": k, "zs": l}))
                assert got == math.comb(3 + k, k) * math.comb(3 + l, l)

    def test_one_form_component_is_free(self):
        lam = make_preset("Lambda", 2, 2)
        for k in range(5):
            got = len(lam.basis_words({"z": k, "dz": 1}))
            assert got == 4 * math.comb(3 + k, k)

    def test_normal_words_agree_with_rewriting(self):
        # every enumerated basis word must be irreducible, and products of
        # basis words must reduce back into the enumerated span
        pol = make_preset("Pol", 2, 1)
        words = pol.basis_by_total_degree(3)
        assert all(pol.is_normal(w) for w in words)
        support = set(pol.basis_by_total_degree(2))
        for w in pol.basis_by_total_degree(1):
            for v in pol.basis_by_total_degree(1):
                for out in pol.reduce_word(w + v).terms:
                    assert out in support or out == ()


class TestStar:
    def test_generator_rule(self):
        pol = make_preset("Pol", 2, 2)
        f = NCPoly.from_word((sym("z", 1, 2),))
        assert star(f, pol) == NCPoly.from_word((sym("zs", 1, 2),))

    def test_symbol_involution_does_not_rewrite(self):
        # each word reversed, kinds swapped, coefficients conjugated
        word = (sym("z", 1, 2), sym("zs", 2, 1), sym("dz", 1, 1), sym("f0"))
        f = NCPoly.from_word(word, I + q_pow(1)) + NCPoly.from_word((), I)
        starred = (sym("f0"), sym("dzs", 1, 1), sym("z", 2, 1), sym("zs", 1, 2))
        assert star_words(f) == NCPoly.from_word(starred, q_pow(1) - I) + NCPoly.from_word(
            (), -I
        )
        assert star_words(star_words(f)) == f
        pol = make_preset("Pol", 2, 2)
        g = NCPoly.from_word((sym("z", 1, 1), sym("z", 2, 2)), I)
        assert star(g, pol) == pol.normal_form(star_words(g))
        assert star(g, pol) != star_words(g)

    def test_symbol_involution_names_a_letter_without_conjugate(self):
        f = NCPoly.from_word((sym("z", 1, 1), sym("t", 1, 1))) + NCPoly.one()
        with pytest.raises(ValueError, match=r"letter t\[1,1\] has no conjugate"):
            star_words(f)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_rejects_preset_without_involution(self, name):
        preset = make_preset(name, 1, 1)
        if name in ("Pol", "Omega", "FunU", "DU"):
            assert star(NCPoly.one(), preset) == NCPoly.one()
        else:
            with pytest.raises(ValueError, match=f"preset {name} does not support"):
                star(NCPoly.one(), preset)

    @pytest.mark.parametrize(
        "letter", [sym("t", 1, 1), sym("z", 3, 3)], ids=["t11", "z33"]
    )
    def test_rejects_a_letter_outside_the_preset_by_its_name(self, letter):
        # t[1,1] has no conjugate kind, and z[3,3] lies outside 2x2: either
        # way the error names the letter passed, not its starred image
        f = NCPoly.from_word((sym("z", 1, 1), letter))
        with pytest.raises(ValueError, match=rf"generator {re.escape(letter.token())} "):
            star(f, make_preset("Pol", 2, 2))

    def test_rank_one_self_adjoint_element(self):
        pol = make_preset("Pol", 1, 1)
        z, zs = sym("z", 1, 1), sym("zs", 1, 1)
        el = NCPoly.from_word((z, zs), q_pow(2)) + NCPoly.from_word(
            (), ONE - q_pow(2)
        )
        assert star(el, pol) == el

    def test_involution_on_random_elements(self):
        pol = make_preset("Pol", 2, 2)
        rng = random.Random(3)
        alphabet = pol.alphabet()
        for _ in range(25):
            w = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
            f = pol.normal_form(NCPoly.from_word(w))
            assert star(star(f, pol), pol) == f

    def test_star_commutes_with_reduction(self):
        om = make_preset("Omega", 1, 1)
        rng = random.Random(5)
        alphabet = om.alphabet()
        for _ in range(40):
            w = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
            raw = NCPoly.from_word(w)
            assert star(om.normal_form(raw), om) == star(raw, om)

    def test_antihomomorphism_on_products(self):
        pol = make_preset("Pol", 2, 1)
        rng = random.Random(9)
        alphabet = pol.alphabet()
        for _ in range(20):
            u = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 2)))
            v = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 2)))
            f, g = NCPoly.from_word(u), NCPoly.from_word(v)
            lhs = star(pol.multiply(f, g), pol)
            rhs = pol.multiply(star(g, pol), star(f, pol))
            assert lhs == rhs


class TestDifferential:
    def test_generator_rule(self):
        f = NCPoly.from_word((sym("z", 1, 1),))
        assert differential(f) == NCPoly.from_word((sym("dz", 1, 1),))

    def test_constant_maps_to_zero(self):
        assert not differential(NCPoly.one())

    def test_leibniz_expansion_is_raw(self):
        z11, z22 = sym("z", 1, 1), sym("z", 2, 2)
        got = differential(NCPoly.from_word((z11, z22)))
        want = NCPoly.from_word((sym("dz", 1, 1), z22)) + NCPoly.from_word(
            (z11, sym("dz", 2, 2))
        )
        assert got == want

    def test_graded_sign(self):
        z, dz = sym("z", 1, 1), sym("dz", 1, 1)
        got = differential(NCPoly.from_word((dz, z)))
        assert got == NCPoly.from_word((dz, dz), -ONE)

    def test_differential_squares_to_zero(self):
        lam = make_preset("Lambda", 2, 2)
        rng = random.Random(7)
        alphabet = lam.alphabet()
        for _ in range(30):
            w = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
            f = lam.normal_form(NCPoly.from_word(w))
            dd = lam.normal_form(differential(lam.normal_form(differential(f))))
            assert not dd

    def test_differential_squares_to_zero_full_calculus(self):
        om = make_preset("Omega", 1, 1)
        rng = random.Random(13)
        alphabet = om.alphabet()
        for _ in range(30):
            w = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
            f = om.normal_form(NCPoly.from_word(w))
            dd = om.normal_form(differential(om.normal_form(differential(f))))
            assert not dd

    def test_compatible_with_coordinate_rules(self):
        # applying d to both sides of every quadratic coordinate rule must
        # give equal one-forms: this ties the differential exchange rules to
        # the coordinate commutation rules
        lam = make_preset("Lambda", 2, 2)
        for pat, repl in make_preset("CMat", 2, 2).rules.items():
            red = lam.normal_form(differential(NCPoly.from_word(pat) - repl))
            assert not red


@st.composite
def preset_words(draw, preset, max_len=4):
    alphabet = preset.alphabet()
    k = draw(st.integers(min_value=1, max_value=max_len))
    return tuple(
        alphabet[draw(st.integers(0, len(alphabet) - 1))] for _ in range(k)
    )


class TestLoweringMap:
    """Presentation.lower against whole-word normal forms, in both presets."""

    @pytest.mark.parametrize("mn", [(1, 2), (2, 2)])
    def test_matches_whole_word_normal_forms(self, mn):
        funu, pol = (make_preset(name, *mn) for name in ("FunU", "Pol"))
        f0 = sym("f0")
        for k in range(3):
            for w in make_preset("CMat", *mn).basis_by_total_degree(k):
                for y in funu.symbols("zs"):
                    nf = funu.normal_form(NCPoly.from_word((y,) + w + (f0,)))
                    assert all(u[-1] is f0 for u in nf.terms)
                    assert funu.lower(y, w) == {u[:-1]: c for u, c in nf.terms.items()}
                    # in Pol the map drops exactly the words that end in zs
                    nf = pol.normal_form(NCPoly.from_word((y,) + w))
                    kept = {u: c for u, c in nf.terms.items() if not u or u[-1].kind != "zs"}
                    assert pol.lower(y, w) == kept


class TestConfluence:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pol_scan_strategies_agree(self, data):
        pol = make_preset("Pol", 2, 2)
        w = data.draw(preset_words(pol))
        assert pol.reduce_word(w) == rightmost.reduce_word(pol, w)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_omega_scan_strategies_agree(self, data):
        om = make_preset("Omega", 2, 2)
        w = data.draw(preset_words(om))
        assert om.reduce_word(w) == rightmost.reduce_word(om, w)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_funu_scan_strategies_agree(self, data):
        funu = make_preset("FunU", 1, 2)
        w = data.draw(preset_words(funu, max_len=5))
        assert funu.reduce_word(w) == rightmost.reduce_word(funu, w)

    @staticmethod
    def _pol_2x2_rules():
        return {
            **commutation_rules(2, 2, "z"),
            **commutation_rules(2, 2, "zs"),
            **rules_cross_conj(2, 2, "zs", "z"),
        }

    def test_planted_faults_are_named(self):
        z11, z22, zs11, zs12 = sym("z", 1, 1), sym("z", 2, 2), sym("zs", 1, 1), sym("zs", 1, 2)

        def overlaps(rules):
            return Presentation("Pol", 2, 2, ("z", "zs"), rules).confluence_violations()

        assert overlaps(self._pol_2x2_rules()) == []
        # one zs z rule scaled by q
        rules = self._pol_2x2_rules()
        rules[(zs11, z11)] = rules[(zs11, z11)].scale(q_pow(1))
        bad = overlaps(rules)
        assert len(bad) == 6 and (zs12, zs11, z11) in bad
        # the interchange term of z[2,2] z[1,1] with its sign flipped
        rules = self._pol_2x2_rules()
        rules[(z22, z11)] = NCPoly(
            {w: c if w == (z11, z22) else -c for w, c in rules[(z22, z11)].terms.items()}
        )
        bad = overlaps(rules)
        assert len(bad) == 7 and (zs12, z22, z11) in bad

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_reduction_is_idempotent(self, data):
        om = make_preset("Omega", 1, 2)
        w = data.draw(preset_words(om))
        nf = om.reduce_word(w)
        assert om.normal_form(nf) == nf
