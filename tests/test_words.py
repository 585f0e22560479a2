"""Word/rewriting engine on small hand-built presentations."""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from qmatball.field import ONE, q_pow
from qmatball.words import (
    NCPoly,
    Presentation,
    parse_symbol,
    sym,
    word_from_tokens,
)

import rightmost_reduction as rightmost


def q_plane():
    # two commuting-up-to-q coordinates: y x -> q^{-1} x y
    x, y = sym("z", 1, 1), sym("z", 1, 2)
    rules = {(y, x): NCPoly.from_word((x, y), q_pow(-1))}
    return Presentation("qplane", m=2, n=1, kinds=("z",), rules=rules)


def test_symbols_intern_and_parse():
    assert sym("z", 1, 2) is sym("z", 1, 2)
    assert parse_symbol("zs[3,1]") is sym("zs", 3, 1)
    assert parse_symbol("f0") is sym("f0")
    with pytest.raises(ValueError):
        parse_symbol("w[1,2]")
    with pytest.raises(ValueError):
        sym("z", 0, 1)


@pytest.mark.parametrize("token", ["z[\u0661,\u0661]", "z[1_0,1]", "z[+1,1]", "z[1,-1]", "z[1,]"])
def test_symbol_indices_are_ascii_numerals(token):
    with pytest.raises(ValueError, match=re.escape(f"bad generator token {token!r}")):
        parse_symbol(token)
    assert parse_symbol(" z[ 1 , 2 ] ") is sym("z", 1, 2)


def test_symbols_hash_and_compare_by_identity():
    g = sym("zs", 2, 1)
    assert parse_symbol("zs[2,1]") is g
    assert word_from_tokens(["zs[2,1]"])[0] is g
    # object's own identity semantics, with no Python-level override
    assert type(g).__hash__ is object.__hash__
    assert type(g).__eq__ is object.__eq__
    keys = {(g, sym("z", 1, 1)): 1}
    keys[word_from_tokens(["zs[2,1]", "z[1,1]"])] = 2
    keys[(parse_symbol("zs[2,1]"), parse_symbol("z[1,1]"))] = 3
    assert keys == {(g, sym("z", 1, 1)): 3}


def test_qplane_normal_form():
    pres = q_plane()
    x, y = sym("z", 1, 1), sym("z", 1, 2)
    f = NCPoly.from_word((y, x))
    nf = pres.normal_form(f)
    assert nf == NCPoly.from_word((x, y), q_pow(-1))
    # y y x -> q^{-2} x y y
    g = pres.normal_form(NCPoly.from_word((y, y, x)))
    assert g == NCPoly.from_word((x, y, y), q_pow(-2))
    assert pres.is_normal((x, x, y))
    assert not pres.is_normal((y, x))


def test_strategies_agree_on_qplane():
    pres = q_plane()
    x, y = sym("z", 1, 1), sym("z", 1, 2)
    w = (y, x, y, x, x)
    assert pres.reduce_word(w) == rightmost.reduce_word(pres, w)
    assert pres.confluence_violations() == []


def test_basis_counts_match_binomials():
    pres = q_plane()
    for k in range(6):
        words = pres.basis_words({"z": k})
        assert len(words) == k + 1  # monomials x^a y^b with a+b=k
        assert all(pres.is_normal(w) for w in words)
    assert len(pres.basis_by_total_degree(4)) == 5


def test_termination_guard_rejects_increasing_rule():
    x, y = sym("z", 1, 1), sym("z", 1, 2)
    bad = {(x, y): NCPoly.from_word((y, x))}  # oriented the wrong way
    with pytest.raises(ValueError):
        Presentation("bad", m=2, n=1, kinds=("z",), rules=bad)


def test_patterns_must_be_pairs_of_letters():
    x, y = sym("z", 1, 1), sym("z", 1, 2)
    for pat in ((y,), (y, y, x)):
        rules = {pat: NCPoly.from_word((x,))}
        with pytest.raises(ValueError, match="pattern of length"):
            Presentation("bad", m=2, n=1, kinds=("z",), rules=rules)


def test_rule_letters_outside_the_alphabet_are_rejected():
    x, y = sym("z", 1, 1), sym("z", 1, 2)
    outside = sym("zs", 1, 1)
    # in the replacement, and in the pattern
    for pat, repl in (((y, x), (x, outside)), ((outside, x), (x,))):
        rules = {pat: NCPoly.from_word(repl)}
        with pytest.raises(ValueError, match=r"rule for .*zs\[1,1\] is not in the alphabet"):
            Presentation("p", m=2, n=1, kinds=("z",), rules=rules)


def test_zero_replacement_and_f0_rules():
    # toy system: dz dz -> 0 and f0 f0 -> f0
    d1, d2 = sym("dz", 1, 1), sym("dz", 1, 2)
    f0 = sym("f0")
    rules = {
        (d1, d1): NCPoly.zero(),
        (d2, d2): NCPoly.zero(),
        (d2, d1): NCPoly.from_word((d1, d2), -q_pow(1)),
        (f0, f0): NCPoly.from_word((f0,)),
    }
    pres = Presentation("toy", m=2, n=1, kinds=("dz", "f0"), rules=rules)
    assert pres.normal_form(NCPoly.from_word((d1, d2, d1))).is_zero
    assert pres.normal_form(NCPoly.from_word((f0, f0, f0))) == NCPoly.from_word((f0,))
    assert len(pres.basis_words({"dz": 2, "f0": 1})) == 1
    assert len(pres.basis_words({"dz": 3})) == 0
    assert len(pres.basis_words({"dz": 1, "f0": 2})) == 0


def test_weight_certificate_names_a_planted_rule():
    x, y = sym("z", 1, 1), sym("z", 1, 2)
    assert q_plane().weight_violations() == ()
    # x x has another torus weight than the pattern y x
    rules = {(y, x): NCPoly.from_word((x, y), q_pow(-1)) + NCPoly.from_word((x, x))}
    pres = Presentation("qplane", m=2, n=1, kinds=("z",), rules=rules)
    assert pres.weight_violations() == (((y, x), (x, x)),)


def test_lowering_certificate_names_a_planted_rule():
    z, zs, f0 = sym("z", 1, 1), sym("zs", 1, 1), sym("f0")
    swap = NCPoly.from_word((z, zs), q_pow(2)) + NCPoly.one()
    pres = Presentation("plane", m=1, n=1, kinds=("z", "zs"), rules={(zs, z): swap})
    assert pres.lowering_violations() == []
    # z zs -> 1 is weight-homogeneous, but it makes the replacement word of
    # zs z a pattern and takes the zs off the end of a word
    rules = {(zs, z): swap, (z, zs): NCPoly.one()}
    pres = Presentation("plane", m=1, n=1, kinds=("z", "zs"), rules=rules)
    assert pres.weight_violations() == ()
    assert pres.lowering_violations() == [
        ((zs, z), (z, zs), "is neither empty nor a normal (z, zs) pair"),
        ((z, zs), (), "does not end in zs"),
    ]
    # no zs z rule, and a zs z rule that keeps the zs in front
    pres = Presentation("free", m=1, n=1, kinds=("z", "zs"), rules={})
    assert pres.lowering_violations() == [((zs, z), None, "is missing")]
    # with the projector, its three rules are read as well
    pres = Presentation("plane", m=1, n=1, kinds=("z", "f0", "zs"), rules={(zs, z): swap})
    assert [(pat, w) for pat, w, _ in pres.lowering_violations()] == [
        ((f0, f0), None), ((zs, f0), None), ((f0, z), None)
    ]


def test_lowering_certificate_reads_z_z_rules():
    x, y = sym("z", 1, 1), sym("z", 1, 2)
    assert q_plane().lowering_violations() == []
    ys = sym("zs", 1, 1)
    rules = {(y, x): NCPoly.from_word((x, y), q_pow(-1)) + NCPoly.from_word((x, ys))}
    pres = Presentation("qplane", m=2, n=1, kinds=("z", "zs"), rules=rules)
    bad = [(pat, w, what) for pat, w, what in pres.lowering_violations() if w is not None]
    assert bad == [((y, x), (x, ys), "is not a z-word")]


def test_weights_at_one_one():
    pres = Presentation("free", m=1, n=1, kinds=("z", "zs"), rules={})
    z, zs = sym("z", 1, 1), sym("zs", 1, 1)
    assert pres.weight(z) == (2,)
    assert pres.weight(zs) == (-2,)
    assert pres.word_weight((z, z, zs)) == (2,)


def test_weights_at_two_two():
    pres = Presentation("free", m=2, n=2, kinds=("z",), rules={})
    # N = 4, three torus components
    assert pres.weight(sym("z", 2, 2)) == (-1, 2, -1)
    assert pres.weight(sym("z", 1, 1)) == (1, 0, 1)
    assert pres.weight(sym("z", 1, 2)) == (1, 1, -1)
    assert pres.weight(sym("z", 2, 1)) == (-1, 1, 1)


def test_poly_arithmetic_and_json():
    x, y = sym("z", 1, 1), sym("z", 1, 2)
    f = NCPoly.from_word((x,)) + NCPoly.from_word((y,), q_pow(1))
    g = f * f
    assert g.coeff((x, x)) == ONE
    assert g.coeff((x, y)) == q_pow(1)
    assert g.coeff((y, x)) == q_pow(1)
    assert g.coeff((y, y)) == q_pow(2)
    back = NCPoly.from_json(g.to_json())
    assert back == g
    assert NCPoly.from_json(NCPoly.zero().to_json()).is_zero


words_strategy = st.lists(
    st.tuples(st.integers(1, 1), st.integers(1, 2)), min_size=0, max_size=7
).map(lambda idx: tuple(sym("z", a, b) for a, b in idx))


@settings(max_examples=120, deadline=None)
@given(words_strategy)
def test_qplane_reduction_confluence_and_degree(w):
    pres = q_plane()
    left = pres.reduce_word(w)
    assert left == rightmost.reduce_word(pres, w)
    # rewriting is degree-preserving here and lands on the sorted word (both
    # letters are z letters, ordered by row and column)
    assert len(left) == 1
    ((nw, _),) = left.items()
    assert list(nw) == sorted(w, key=lambda g: (g.row, g.col))


def test_words_outside_the_alphabet_are_rejected():
    pres = q_plane()
    x, y = sym("z", 1, 1), sym("z", 1, 2)
    outside = sym("z", 3, 1)
    for word in ((outside,), (y, outside, x), (sym("zs", 1, 1),)):
        with pytest.raises(ValueError, match="not in the alphabet"):
            pres.normal_form(NCPoly.from_word(word))
        with pytest.raises(ValueError, match="not in the alphabet"):
            pres.reduce_word(word)
    # nothing half-reduced was memoized, and valid words still reduce
    assert pres.memo_size() == 0
    assert pres.normal_form(NCPoly.from_word((y, x))) == NCPoly.from_word((x, y), q_pow(-1))


def test_normal_form_is_the_sum_of_reduced_terms_in_order():
    pres = q_plane()
    x, y = sym("z", 1, 1), sym("z", 1, 2)
    # (y x) and -q^{-1} (x y) cancel; the other terms survive
    f = NCPoly({(y, x): ONE, (x, y): -q_pow(-1), (y, y, x): ONE, (x,): q_pow(3)})
    expected = NCPoly.zero()
    for w, c in f.terms.items():
        expected = expected + pres.reduce_word(w).scale(c)
    got = pres.normal_form(f)
    assert got == expected
    assert list(got.terms) == list(expected.terms) == [(x, y, y), (x,)]
