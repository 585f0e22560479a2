"""Tests for the positive invariant integral.

Values are frozen from hand reductions: the projector integrates to 1, the
degree-(1,1) sandwich of a coordinate integrates to its modular factor
times the constant term of its contraction, and the symmetry action of
every generator integrates to the counit multiple.
"""

import random
from fractions import Fraction

import pytest

from qmatball import integral
from qmatball.algebras import make_preset, star
from qmatball.field import I, ONE, ZERO, from_int, q_pow
from qmatball.fockrep import hilbert_basis
from qmatball.integral import (
    _sandwich_pairing,
    antipode_square_twist_ok,
    integral_is_real,
    integral_nu,
    integral_nu_trace,
    invariance_defect,
    invariance_ok,
    modular_exponent,
    modular_factor,
    modular_weights,
    positivity_sample_ok,
    twisted_trace_ok,
)
from qmatball.uqaction import UqElement, act
from qmatball.words import NCPoly, sym

S0S = (Fraction(1, 2), Fraction(9, 10))


def w(*tokens):
    from qmatball.words import parse_symbol

    return tuple(parse_symbol(t) for t in tokens)


def poly(*tokens):
    return NCPoly.from_word(w(*tokens))


class TestModularWeights:
    def test_closed_form(self):
        for N in range(2, 7):
            d = modular_weights(N)
            assert d == tuple(Fraction(i * (N - i), 2) for i in range(1, N))

    def test_symmetric(self):
        for N in range(2, 7):
            d = modular_weights(N)
            assert d == tuple(reversed(d))

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            modular_weights(1)

    def test_exponent_rank_one(self):
        funu = make_preset("FunU", 1, 1)
        assert modular_exponent(w("z[1,1]"), funu) == -2
        assert modular_exponent(w("f0"), funu) == 0
        assert modular_factor(w("z[1,1]"), funu) == q_pow(-2)

    def test_exponent_additive_on_words(self):
        funu = make_preset("FunU", 1, 2)
        e1 = modular_exponent(w("z[1,1]"), funu)
        e2 = modular_exponent(w("z[2,1]"), funu)
        assert modular_exponent(w("z[1,1]", "z[2,1]"), funu) == e1 + e2


class TestIntegralValues:
    def test_projector_integrates_to_one(self):
        for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            funu = make_preset("FunU", m, n)
            assert integral_nu(poly("f0"), funu) == ONE

    def test_unbalanced_terms_vanish(self):
        funu = make_preset("FunU", 1, 1)
        assert integral_nu(poly("z[1,1]", "f0"), funu) == ZERO
        assert integral_nu(poly("f0", "zs[1,1]"), funu) == ZERO

    @pytest.mark.parametrize(
        "mn,coord,expect_exp",
        [
            ((1, 1), (1, 1), -2),
            ((1, 2), (1, 1), -4),
            ((1, 2), (2, 1), -2),
            ((2, 1), (1, 1), -4),
            ((2, 1), (1, 2), -2),
            ((2, 2), (1, 1), -6),
            ((2, 2), (2, 2), -2),
        ],
    )
    def test_degree_one_sandwich(self, mn, coord, expect_exp):
        funu = make_preset("FunU", *mn)
        a, al = coord
        f = funu.multiply(
            funu.multiply(poly(f"z[{a},{al}]"), poly("f0")), poly(f"zs[{a},{al}]")
        )
        assert integral_nu(f, funu) == q_pow(expect_exp) * (ONE - q_pow(2))

    def test_degree_two_sandwich_rank_one(self):
        funu = make_preset("FunU", 1, 1)
        f = funu.multiply(
            funu.multiply(poly("z[1,1]", "z[1,1]"), poly("f0")),
            poly("zs[1,1]", "zs[1,1]"),
        )
        gram2 = (ONE - q_pow(2)) * (ONE - q_pow(4))
        assert integral_nu(f, funu) == q_pow(-4) * gram2

    @pytest.mark.parametrize("d", range(7))
    def test_radial_moment_product_formula(self, d):
        # nu(z^d f0 zs^d) = q^(-2d) * prod_{j<=d} (1 - q^(2j)) on the 1x1 ball
        funu = make_preset("FunU", 1, 1)
        z, zs = sym("z", 1, 1), sym("zs", 1, 1)
        f = NCPoly.from_word((z,) * d + (sym("f0"),) + (zs,) * d)
        closed = q_pow(-2 * d)
        for j in range(1, d + 1):
            closed = closed * (ONE - q_pow(2 * j))
        assert integral_nu(f, funu) == closed

    def test_linearity(self):
        funu = make_preset("FunU", 1, 1)
        f = funu.multiply(funu.multiply(poly("z[1,1]"), poly("f0")), poly("zs[1,1]"))
        g = poly("f0")
        c = from_int(3) + I
        combo = f.scale(c) + g
        assert integral_nu(combo, funu) == c * integral_nu(f, funu) + ONE

    def test_rejects_projector_free_terms(self):
        funu = make_preset("FunU", 1, 1)
        with pytest.raises(ValueError):
            integral_nu(poly("z[1,1]"), funu)
        with pytest.raises(ValueError):
            integral_nu(poly("f0") + poly("zs[1,1]", "z[1,1]"), funu)

    def test_rejects_differential_letters(self):
        du = make_preset("DU", 1, 1)
        with pytest.raises(ValueError):
            integral_nu(poly("dz[1,1]", "f0"), du)

    def test_rejects_letters_outside_the_alphabet(self):
        funu = make_preset("FunU", 1, 1)
        for f in (poly("z[3,3]", "f0", "zs[3,3]"), poly("z[1,2]", "f0")):
            with pytest.raises(ValueError, match="not in the alphabet"):
                integral_nu(f, funu)
            with pytest.raises(ValueError, match="not in the alphabet"):
                integral_nu_trace(f, funu)

    def test_rejects_projector_less_algebra(self):
        pol = make_preset("Pol", 1, 1)
        with pytest.raises(ValueError):
            integral_nu(poly("z[1,1]"), pol)


class TestInvariance:
    @pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1)])
    def test_sandwiches_invariant(self, mn):
        funu = make_preset("FunU", *mn)
        f0p = poly("f0")
        for g in funu.symbols("z"):
            zp = NCPoly.from_word((g,))
            zsp = NCPoly.from_word((sym("zs", g.row, g.col),))
            f = funu.multiply(funu.multiply(zp, f0p), zsp)
            assert invariance_ok(f, funu)

    def test_two_by_two_sample(self):
        funu = make_preset("FunU", 2, 2)
        f = funu.multiply(
            funu.multiply(poly("z[2,2]"), poly("f0")), poly("zs[2,2]")
        )
        assert invariance_ok(f, funu)

    def test_projector_invariant(self):
        funu = make_preset("FunU", 1, 2)
        assert invariance_ok(poly("f0"), funu)

    def test_defect_is_exact_zero_scalar(self):
        funu = make_preset("FunU", 1, 1)
        f = funu.multiply(funu.multiply(poly("z[1,1]"), poly("f0")), poly("zs[1,1]"))
        assert invariance_defect(UqElement.letter("E", 1), f, funu) == ZERO
        assert invariance_defect(UqElement.letter("K", 1), f, funu) == ZERO


def _random_projector_element(funu, rng, maxdeg=2):
    """A random element whose terms all carry the projector."""
    f0p = poly("f0")
    words = []
    for k in range(maxdeg + 1):
        words.extend(hilbert_basis(funu.m, funu.n, k))
    out = NCPoly.zero()
    for _ in range(rng.randint(1, 3)):
        u = NCPoly.from_word(rng.choice(words))
        v = star(NCPoly.from_word(rng.choice(words)), funu)
        c = from_int(rng.randint(-3, 3)) + I * rng.randint(-2, 2)
        out = out + funu.multiply(funu.multiply(u, f0p), v).scale(c)
    return out


class TestPositivityAndReality:
    def test_reality_on_samples(self):
        funu = make_preset("FunU", 1, 2)
        f = funu.multiply(funu.multiply(poly("z[1,1]"), poly("f0")), poly("zs[2,1]"))
        assert integral_is_real(f, funu)

    @pytest.mark.parametrize("mn", [(1, 1), (1, 2)])
    def test_positivity_random(self, mn):
        funu = make_preset("FunU", *mn)
        rng = random.Random(20240811)
        checked = 0
        for _ in range(12):
            f = _random_projector_element(funu, rng)
            if not funu.normal_form(f):
                continue
            for s0 in S0S:
                assert positivity_sample_ok(f, funu, s0)
            checked += 1
        assert checked >= 8

    @pytest.mark.parametrize(
        "value",
        [ONE - 8 * q_pow(1), ONE - 4 * q_pow(1), ONE + I * q_pow(1)],
        ids=["negative", "zero", "not real"],
    )
    def test_positivity_sample_planted_faults(self, monkeypatch, value):
        """Planted integrals with a positive constant term: at s0 = 1/2
        (q = 1/4) they are -1, 0 and 1 + i/4, and each fails the sample."""
        funu = make_preset("FunU", 1, 1)
        f, half = poly("f0"), Fraction(1, 2)
        assert positivity_sample_ok(f, funu, half)
        monkeypatch.setattr(integral, "integral_nu", lambda g, preset: value)
        assert not positivity_sample_ok(f, funu, half)


class TestTwistedTrace:
    def test_monomial_samples_rank_one(self):
        funu = make_preset("FunU", 1, 1)
        a = funu.multiply(poly("z[1,1]"), poly("f0"))
        for b in (poly("zs[1,1]"), poly("f0"), poly("zs[1,1]", "zs[1,1]")):
            assert twisted_trace_ok(a, b, funu)

    def test_monomial_samples_rectangular(self):
        funu = make_preset("FunU", 1, 2)
        a = funu.multiply(funu.multiply(poly("z[2,1]"), poly("f0")), poly("zs[1,1]"))
        for b in (poly("z[1,1]"), poly("zs[2,1]"), poly("z[1,1]", "zs[2,1]")):
            assert twisted_trace_ok(a, b, funu)

    def test_rejects_mixed_weights(self):
        funu = make_preset("FunU", 1, 1)
        a = funu.multiply(poly("z[1,1]"), poly("f0")) + poly("f0")
        with pytest.raises(ValueError):
            twisted_trace_ok(a, poly("zs[1,1]"), funu)


class TestAntipodeSquareTwist:
    @pytest.mark.parametrize("mn,deg", [((1, 1), 3), ((1, 2), 2), ((2, 2), 2)])
    def test_twist(self, mn, deg):
        assert antipode_square_twist_ok(make_preset("FunU", *mn), deg)


class TestClosedFormMatchesTrace:
    """The sandwich closed form must agree with the defining trace sum."""

    @pytest.mark.parametrize("mn", [(1, 1), (1, 2), (2, 1)])
    def test_all_sandwiches_through_degree_two(self, mn):
        funu = make_preset("FunU", *mn)
        f0p = poly("f0")
        words = [b for k in range(3) for b in hilbert_basis(*mn, k)]
        for wl in words:
            for wr in words:
                f = NCPoly.from_word(wl) * f0p * star(NCPoly.from_word(wr), funu)
                assert integral_nu(f, funu) == integral_nu_trace(f, funu)

    def test_random_combinations_largest_size(self):
        funu = make_preset("FunU", 2, 2)
        rng = random.Random(33)
        words = [b for k in range(3) for b in hilbert_basis(2, 2, k)]
        f0p = poly("f0")
        for _ in range(12):
            f = NCPoly.zero()
            for _ in range(rng.randint(1, 3)):
                c = from_int(rng.randint(-3, 3)) + I * rng.randint(-2, 2)
                piece = NCPoly.from_word(rng.choice(words)) * f0p * star(
                    NCPoly.from_word(rng.choice(words)), funu
                )
                f = f + piece.scale(c)
            assert integral_nu(f, funu) == integral_nu_trace(f, funu)

    def test_after_symmetry_action(self):
        funu = make_preset("FunU", 1, 2)
        f = funu.multiply(
            funu.multiply(poly("z[2,1]"), poly("f0")), poly("zs[1,1]")
        )
        for kind in ("E", "F", "K"):
            for j in (1, 2):
                g = act(UqElement.letter(kind, j), f, funu)
                assert integral_nu(g, funu) == integral_nu_trace(g, funu)


class TestSandwichPairing:
    """The lowering recursion must agree with the whole-word normal form."""

    @pytest.mark.parametrize("mn", [(2, 2), (2, 3)])
    def test_matches_whole_word_normal_form(self, mn):
        funu = make_preset("FunU", *mn)
        bar = make_preset("CMatBar", *mn)
        rng = random.Random(1414)
        f0 = w("f0")
        nonzero = 0
        for _ in range(24):
            k = rng.randint(0, 3)
            ks = max(0, k + rng.choice((0, 0, 0, 1, -1)))
            zpart = rng.choice(hilbert_basis(*mn, k))
            zspart = rng.choice(bar.basis_by_total_degree(ks))
            whole = funu.normal_form(NCPoly.from_word(f0 + zspart + zpart + f0))
            assert set(whole.terms) <= {f0}
            got = _sandwich_pairing.__wrapped__(*mn, zspart, zpart)
            assert got == whole.coeff(f0)
            nonzero += bool(got)
        assert nonzero >= 8
