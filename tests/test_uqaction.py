"""Hopf structure and the covariant action: frozen values and semantic laws."""

import hashlib
import json
import random

import pytest

from qmatball.algebras import differential, make_preset, parse_preset, star
from qmatball.cli import main
from qmatball.field import ONE, ZERO, q_pow, s_pow
from qmatball.uqaction import (
    E,
    F,
    K,
    Kinv,
    UqElement,
    act,
    antipode,
    coproduct,
    counit,
    expand_leg,
    letter_token,
    parse_letter,
    star_sunm,
)
from qmatball.words import NCPoly, sym


def zpoly(a, al):
    return NCPoly.from_word((sym("z", a, al),))


def zspoly(a, al):
    return NCPoly.from_word((sym("zs", a, al),))


class TestElementBasics:
    def test_letter_tokens_round_trip(self):
        for letter in [("E", 1), ("F", 12), ("K", 3), ("Kinv", 2)]:
            assert parse_letter(letter_token(letter)) == letter
        assert letter_token(("Kinv", 3)) == "K3inv"
        with pytest.raises(ValueError):
            parse_letter("E1inv")
        with pytest.raises(ValueError):
            parse_letter("G2")

    def test_free_word_arithmetic(self):
        x = E(1) * F(2) - F(2) * E(1)
        assert len(x.terms) == 2
        assert x.terms[(("E", 1), ("F", 2))] == ONE
        assert x.terms[(("F", 2), ("E", 1))] == -ONE
        assert not (x - x)

    def test_serialization_round_trip(self):
        x = E(1) * K(2) + Kinv(3).scale(q_pow(2) - ONE)
        assert UqElement.from_dict(x.to_dict()) == x

    def test_arithmetic_stays_in_the_class(self):
        x = E(1) * F(2)
        assert isinstance(x, NCPoly)
        results = [
            x + K(1), x - K(1), -x, x * K(1), x.scale(q_pow(1)), x.scale(0),
            x * 2, 2 * x, UqElement.zero() + x, x + UqElement.zero(),
            UqElement.zero(), UqElement.one(), antipode(x), star_sunm(x, 1),
        ]
        assert all(type(y) is UqElement for y in results)
        assert x.scale(0) == UqElement.zero()

    def test_never_mixes_with_plain_polynomials(self):
        for a, b in [(NCPoly.one(), UqElement.one()), (UqElement.one(), NCPoly.one()),
                     (NCPoly.zero(), UqElement.zero())]:
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
            with pytest.raises(TypeError):
                a * b
        assert NCPoly.zero() != UqElement.zero()
        assert NCPoly.one() != UqElement.one()
        assert UqElement.zero() == UqElement.zero()
        assert hash(E(1) * K(2)) == hash(E(1) * K(2))

    def test_letter_validation(self):
        with pytest.raises(ValueError):
            UqElement.letter("H", 1)
        with pytest.raises(ValueError):
            UqElement.letter("E", 0)


class TestCoalgebra:
    def test_coproduct_of_group_like(self):
        got = coproduct(K(1), 2)
        assert got == {((("K", 1),), (("K", 1),)): ONE}

    def test_coproduct_of_lowering_letter(self):
        got = coproduct(F(2), 2)
        assert got == {
            ((("F", 2),), (("Kinv", 2),)): ONE,
            ((), (("F", 2),)): ONE,
        }

    def test_coproduct_of_raising_letter(self):
        got = coproduct(E(1), 2)
        assert got == {
            ((("E", 1),), ()): ONE,
            ((("K", 1),), (("E", 1),)): ONE,
        }

    def test_coproduct_of_product_has_four_terms(self):
        got = coproduct(E(1) * F(2), 2)
        assert len(got) == 4

    def test_coassociativity(self):
        rng = random.Random(4)
        letters = [("E", 1), ("F", 2), ("K", 3), ("Kinv", 1), ("E", 2)]
        for _ in range(15):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
            xi = UqElement({w: ONE})
            two = coproduct(xi, 2)
            assert expand_leg(two, 0) == expand_leg(two, 1)
            assert coproduct(xi, 3) == expand_leg(two, 1)

    def test_counit_values(self):
        assert counit(E(1)) == ZERO
        assert counit(F(2)) == ZERO
        assert counit(K(1)) == ONE
        assert counit(K(1) * Kinv(2)) == ONE
        assert counit(K(1) * E(1)) == ZERO

    def test_antipode_on_letters(self):
        assert antipode(K(1)) == Kinv(1)
        assert antipode(Kinv(2)) == K(2)
        assert antipode(E(1)) == (Kinv(1) * E(1)).scale(-ONE)
        assert antipode(F(3)) == (F(3) * K(3)).scale(-ONE)

    def test_antipode_is_antimultiplicative(self):
        lhs = antipode(E(1) * F(2))
        rhs = antipode(F(2)) * antipode(E(1))
        assert lhs == rhs

    def test_star_on_letters(self):
        n = 2
        assert star_sunm(K(2), n) == K(2)
        assert star_sunm(E(1), n) == K(1) * F(1)
        assert star_sunm(E(2), n) == (K(2) * F(2)).scale(-ONE)
        assert star_sunm(F(1), n) == E(1) * Kinv(1)
        assert star_sunm(F(2), n) == (E(2) * Kinv(2)).scale(-ONE)

    def test_star_is_antimultiplicative(self):
        assert star_sunm(E(1) * E(2), 3) == star_sunm(E(2), 3) * star_sunm(E(1), 3)


class TestGeneratorAction:
    def setup_method(self):
        self.pol = make_preset("Pol", 2, 2)  # N = 4, distinguished node 2

    def test_lowering_at_distinguished_corner(self):
        assert act(F(2), zpoly(2, 2), self.pol) == NCPoly.from_word((), s_pow(1))

    def test_lowering_vanishes_off_corner(self):
        assert not act(F(2), zpoly(1, 1), self.pol)
        assert not act(F(2), zpoly(1, 2), self.pol)
        assert not act(F(2), zpoly(2, 1), self.pol)

    def test_raising_at_corner_is_quadratic(self):
        got = act(E(2), zpoly(2, 2), self.pol)
        want = NCPoly.from_word((sym("z", 2, 2), sym("z", 2, 2)), -s_pow(1))
        assert got == want

    def test_k_eigenvalue_is_weight(self):
        assert act(K(2), zpoly(2, 2), self.pol) == zpoly(2, 2).scale(q_pow(2))
        assert act(K(1), zpoly(1, 1), self.pol) == zpoly(1, 1).scale(q_pow(1))
        assert act(Kinv(1), zpoly(1, 1), self.pol) == zpoly(1, 1).scale(q_pow(-1))
        assert act(K(2), zpoly(1, 1), self.pol) == zpoly(1, 1)

    def test_row_type_ladder(self):
        assert act(E(1), zpoly(2, 1), self.pol) == zpoly(1, 1).scale(s_pow(-1))
        assert not act(E(1), zpoly(1, 1), self.pol)
        assert act(F(1), zpoly(1, 1), self.pol) == zpoly(2, 1).scale(s_pow(1))
        assert not act(F(1), zpoly(2, 2), self.pol)

    def test_column_type_ladder(self):
        # node 3 > n: raising moves the column index N-j+1=2 down to 1
        assert act(E(3), zpoly(1, 2), self.pol) == zpoly(1, 1).scale(s_pow(-1))
        assert not act(E(3), zpoly(1, 1), self.pol)
        assert act(F(3), zpoly(1, 1), self.pol) == zpoly(1, 2).scale(s_pow(1))

    def test_conjugated_ladder_values(self):
        assert act(E(2), zspoly(2, 2), self.pol) == NCPoly.from_word(
            (), s_pow(-3)
        )
        got = act(F(2), zspoly(2, 2), self.pol)
        want = NCPoly.from_word((sym("zs", 2, 2), sym("zs", 2, 2)), -s_pow(5))
        assert got == want
        assert act(E(1), zspoly(1, 1), self.pol) == zspoly(2, 1).scale(-s_pow(-3))
        assert act(F(1), zspoly(2, 1), self.pol) == zspoly(1, 1).scale(-s_pow(3))

    def test_projection_action(self):
        funu = make_preset("FunU", 1, 1)
        f0 = NCPoly.from_word((sym("f0"),))
        e_coeff = (-s_pow(1)) / (ONE - q_pow(2))
        f_coeff = (-s_pow(1)) / (q_pow(-2) - ONE)
        assert act(E(1), f0, funu) == NCPoly.from_word(
            (sym("z", 1, 1), sym("f0")), e_coeff
        )
        assert act(F(1), f0, funu) == NCPoly.from_word(
            (sym("f0"), sym("zs", 1, 1)), f_coeff
        )
        assert act(K(1), f0, funu) == f0
        funu21 = make_preset("FunU", 2, 1)  # N = 3, distinguished node 1
        f0p = NCPoly.from_word((sym("f0"),))
        assert not act(E(2), f0p, funu21)
        assert not act(F(2), f0p, funu21)
        assert act(Kinv(2), f0p, funu21) == f0p

    def test_differential_symbol_action(self):
        om = make_preset("Omega", 1, 1)
        dz = NCPoly.from_word((sym("dz", 1, 1),))
        dzs = NCPoly.from_word((sym("dzs", 1, 1),))
        got = act(E(1), dz, om)
        want = NCPoly.from_word(
            (sym("z", 1, 1), sym("dz", 1, 1)), -s_pow(1) - s_pow(5)
        )
        assert got == want
        assert not act(F(1), dz, om)
        assert not act(E(1), dzs, om)

    def test_index_and_kind_validation(self):
        with pytest.raises(ValueError):
            act(E(5), zpoly(1, 1), self.pol)
        with pytest.raises(ValueError):
            act(E(1), NCPoly.from_word((sym("dz", 1, 1),)), self.pol)

    def test_rejects_indices_outside_the_alphabet(self):
        pol11 = make_preset("Pol", 1, 1)
        for g in (sym("z", 2, 2), sym("zs", 1, 2)):
            with pytest.raises(ValueError, match="not in the alphabet"):
                act(E(1), zpoly(1, 1) * NCPoly.from_word((g,)), pol11)


class TestModuleLaws:
    def setup_method(self):
        self.pol = make_preset("Pol", 2, 2)
        self.rng = random.Random(21)
        self.alphabet = self.pol.alphabet()

    def rand_poly(self, maxlen=3):
        w = tuple(
            self.rng.choice(self.alphabet)
            for _ in range(self.rng.randint(1, maxlen))
        )
        return self.pol.normal_form(NCPoly.from_word(w))

    def test_ef_commutators(self):
        inv = (q_pow(1) - q_pow(-1)).inverse()
        for i in range(1, 4):
            for j in range(1, 4):
                for _ in range(3):
                    f = self.rand_poly()
                    lhs = act(E(i), act(F(j), f, self.pol), self.pol) - act(
                        F(j), act(E(i), f, self.pol), self.pol
                    )
                    if i == j:
                        rhs = (
                            act(K(i), f, self.pol) - act(Kinv(i), f, self.pol)
                        ).scale(inv)
                    else:
                        rhs = NCPoly.zero()
                    assert lhs == rhs

    def test_cartan_twists(self):
        def a(i, j):
            return 2 if i == j else (-1 if abs(i - j) == 1 else 0)

        for i in range(1, 4):
            for j in range(1, 4):
                f = self.rand_poly()
                lhs = act(
                    K(i), act(E(j), act(Kinv(i), f, self.pol), self.pol), self.pol
                )
                assert lhs == act(E(j), f, self.pol).scale(q_pow(a(i, j)))
                lhs = act(
                    K(i), act(F(j), act(Kinv(i), f, self.pol), self.pol), self.pol
                )
                assert lhs == act(F(j), f, self.pol).scale(q_pow(-a(i, j)))

    def test_module_algebra_property(self):
        gens = [E(j) for j in (1, 2, 3)] + [F(j) for j in (1, 2, 3)] + [K(2)]
        for xi in gens:
            for _ in range(4):
                f, g = self.rand_poly(2), self.rand_poly(2)
                fg = self.pol.multiply(f, g)
                lhs = act(xi, fg, self.pol)
                rhs = NCPoly.zero()
                for (w1, w2), c in coproduct(xi, 2).items():
                    e1 = act(UqElement({w1: ONE}), f, self.pol)
                    e2 = act(UqElement({w2: ONE}), g, self.pol)
                    rhs = rhs + self.pol.multiply(e1, e2).scale(c)
                assert lhs == rhs

    def test_module_algebra_with_projection(self):
        funu = make_preset("FunU", 1, 1)
        alphabet = funu.alphabet()
        rng = random.Random(5)
        gens = [E(1), F(1), K(1), Kinv(1)]
        for xi in gens:
            for _ in range(6):
                wf = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 2)))
                wg = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 2)))
                f = funu.normal_form(NCPoly.from_word(wf))
                g = funu.normal_form(NCPoly.from_word(wg))
                lhs = act(xi, funu.multiply(f, g), funu)
                rhs = NCPoly.zero()
                for (w1, w2), c in coproduct(xi, 2).items():
                    e1 = act(UqElement({w1: ONE}), f, funu)
                    e2 = act(UqElement({w2: ONE}), g, funu)
                    rhs = rhs + funu.multiply(e1, e2).scale(c)
                assert lhs == rhs

    def test_star_compatibility(self):
        gens = [E(j) for j in (1, 2, 3)] + [F(j) for j in (1, 2, 3)] + [K(1)]
        for xi in gens:
            for _ in range(4):
                f = self.rand_poly()
                lhs = act(xi, star(f, self.pol), self.pol)
                rhs = star(
                    act(star_sunm(antipode(xi), self.pol.n), f, self.pol), self.pol
                )
                assert lhs == rhs

    def test_star_involutive_as_operators(self):
        for xi in (E(1), F(2), E(2), K(3)):
            double = star_sunm(star_sunm(xi, self.pol.n), self.pol.n)
            for _ in range(3):
                f = self.rand_poly(2)
                assert act(double, f, self.pol) == act(xi, f, self.pol)

    def test_differential_equivariance(self):
        om = make_preset("Omega", 2, 2)
        alphabet = om.alphabet()
        rng = random.Random(77)
        for xi in (E(1), E(2), F(2), F(3), K(2)):
            for _ in range(3):
                w = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, 3)))
                f = om.normal_form(NCPoly.from_word(w))
                lhs = om.normal_form(differential(act(xi, f, om)))
                rhs = act(xi, om.normal_form(differential(f)), om)
                assert lhs == rhs

    def test_invariant_pairing_on_coordinates(self):
        def pairing(f, g):
            tot = ZERO
            for w, c in f.terms.items():
                d = g.terms.get(w)
                if d is not None:
                    tot = tot + c * d.conjugate()
            return tot

        zgens = [zpoly(a, al) for a in (1, 2) for al in (1, 2)]
        for j in (1, 3):  # the subalgebra avoiding the distinguished node
            for xi in (E(j), F(j), K(j), Kinv(j)):
                for f in zgens:
                    for g in zgens:
                        lhs = pairing(act(xi, f, self.pol), g)
                        rhs = pairing(
                            f, act(star_sunm(xi, self.pol.n), g, self.pol)
                        )
                        assert lhs == rhs

    def test_weight_gradings(self):
        assert self.pol.weight(sym("z", 2, 2)) == (-1, 2, -1)
        funu = make_preset("FunU", 2, 2)
        assert funu.weight(sym("f0")) == (0, 0, 0)
        assert self.pol.h0_degree((sym("z", 1, 1), sym("z", 1, 2), sym("zs", 1, 1))) == 1


# sha256 of the concatenated stdout of `qmb act` for every letter on every
# generator of pol:2x2, omega:1x2 and funu:2x2, recorded before the action
# tables were rebuilt on the shared weight table and symbol involution.
_ACT_SWEEP_SHA256 = "bb2d697ed0398e9f83a5eb577a9e7aab8fd60f44ecffeb92229adcc0d49ae223"


def test_act_tables_golden(capsys):
    out = []
    for label in ("pol:2x2", "omega:1x2", "funu:2x2"):
        preset = parse_preset(label)
        for j in range(1, preset.m + preset.n):
            for kind in ("E", "F", "K", "Kinv"):
                token = letter_token((kind, j))
                for g in preset.alphabet():
                    raw = json.dumps({"terms": [{"coeff": "1", "word": [g.token()]}]})
                    assert main(["act", token, "--algebra", label, "--input", raw]) == 0
                    out.append(capsys.readouterr().out)
    text = "".join(out)
    assert text.count('"letter"') == 12 * 8 + 8 * 8 + 12 * 9
    assert hashlib.sha256(text.encode()).hexdigest() == _ACT_SWEEP_SHA256
