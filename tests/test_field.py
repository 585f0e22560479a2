"""Ground-field sanity: exact arithmetic in Q(i)(s), conjugation, evaluation."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmatball.field import (
    GaussRat,
    I,
    ONE,
    Q,
    S,
    ZERO,
    Scalar,
    format_gauss,
    from_fraction,
    from_int,
    parse_gauss,
    q_bracket,
    q_exp_coeffs,
    q_factorial,
    q_pow,
    s_pow,
)


# ---------------------------------------------------------------------------
# frozen values


def test_q_factorial_two_is_one_plus_qsq():
    # (1-q^2)(1-q^4)/(1-q^2)^2 collapses to 1 + q^2 = 1 + s^4
    expected = ONE + q_pow(2)
    assert q_factorial(2) == expected
    assert q_factorial(0) == ONE
    assert q_factorial(1) == ONE


def test_q_exp_series_head():
    c0, c1, c2 = q_exp_coeffs(2)
    assert c0 == ONE
    assert c1 == ONE
    assert c2 == (ONE + q_pow(2)).inverse()


def test_s_squared_is_q():
    assert S * S == Q
    assert q_pow(-1) * Q == ONE
    assert s_pow(-3) * s_pow(3) == ONE
    assert q_pow(2) == s_pow(4)


def test_eval_at_rational_point():
    half = Fraction(1, 2)
    assert q_pow(1).eval_at(half) == GaussRat(Fraction(1, 4))
    assert q_pow(-1).eval_at(half) == GaussRat(4)
    assert (ONE + q_pow(2)).eval_at(half) == GaussRat(Fraction(17, 16))
    v = q_bracket(2).eval_at(half)  # (1-q^4)/(1-q^2) = 1+q^2 at q=1/4
    assert v == GaussRat(Fraction(17, 16))


def test_eval_at_pole_raises():
    x = (ONE - q_pow(1)).inverse()
    with pytest.raises(ZeroDivisionError):
        x.eval_at(1)


def test_conjugation_fixes_s_flips_i():
    assert I.conjugate() == -I
    assert (S + I).conjugate() == S - I
    assert Q.conjugate() == Q


def test_canonical_strings():
    assert ONE.to_string() == "[0:1]/[0:1]"
    assert (ONE - q_pow(2)).to_string() == "[0:1,4:-1]/[0:1]"
    assert q_pow(-1).to_string() == "[0:1]/[2:1]"
    x = (ONE + I) * s_pow(1)
    assert Scalar.from_string(x.to_string()) == x
    assert Scalar.from_string("[0:1,4:-1]") == ONE - q_pow(2)


def test_zero_and_division_guards():
    assert (ONE - ONE) == ZERO
    assert not ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    assert ZERO.to_string() == "[]/[0:1]"
    assert Scalar.from_string("[]/[0:1]") == ZERO


def test_gauss_literal_round_trip():
    for text in ["3", "-1/2", "i", "-i", "2i", "1/2-3/4i", "1+i", "-2/3i"]:
        c = parse_gauss(text)
        assert format_gauss(c) == text
    with pytest.raises(ValueError):
        parse_gauss("zzz")


def test_reduced_form_is_canonical():
    # (1-q^4)/(1-q^2) and (1+q^2)/1 must be the *same* dict representation
    a = (ONE - q_pow(2)) / (ONE - q_pow(1))
    b = ONE + q_pow(1)
    assert a == b
    assert hash(a) == hash(b)
    assert a.to_string() == b.to_string()


def test_pretty_is_readable():
    assert (ONE - q_pow(2)).pretty() == "1 - s^4"
    assert q_pow(-1).pretty() == "(1)/(s^2)"


# ---------------------------------------------------------------------------
# properties

_coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def scalars(draw, allow_zero=True):
    nterms = draw(st.integers(min_value=0 if allow_zero else 1, max_value=3))
    num = {}
    for _ in range(nterms):
        e = draw(st.integers(min_value=0, max_value=5))
        re = draw(_coeffs)
        im = draw(_coeffs)
        if re or im:
            num[e] = GaussRat(re, im)
    dterms = draw(st.integers(min_value=0, max_value=2))
    den = {0: GaussRat(1)}
    for _ in range(dterms):
        e = draw(st.integers(min_value=0, max_value=4))
        re = draw(_coeffs)
        if re:
            den[e] = GaussRat(re)
    x = Scalar(dict(num), dict(den))
    if not allow_zero:
        assume(not x.is_zero)
    return x


@settings(max_examples=80, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a


@settings(max_examples=60, deadline=None)
@given(scalars(allow_zero=False))
def test_inverse_and_powers(a):
    assert a * a.inverse() == ONE
    assert a**3 == a * a * a
    assert a**-2 == (a * a).inverse()
    assert a**0 == ONE


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_conjugation_is_ring_involution(a, b):
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert a.conjugate().conjugate() == a


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars())
def test_eval_is_ring_map(a, b):
    s0 = Fraction(1, 3)
    try:
        va, vb = a.eval_at(s0), b.eval_at(s0)
        vs = (a + b).eval_at(s0)
        vp = (a * b).eval_at(s0)
    except ZeroDivisionError:
        assume(False)
        return
    assert vs == va + vb
    assert vp == va * vb


@settings(max_examples=60, deadline=None)
@given(scalars())
def test_string_round_trip(a):
    assert Scalar.from_string(a.to_string()) == a


# ---------------------------------------------------------------------------
# hash/eq contract


@pytest.mark.parametrize(
    "x, v",
    [
        (ZERO, 0),
        (ONE, 1),
        (from_int(-3), -3),
        (from_int(7), 7),
        (from_fraction("-3/4"), Fraction(-3, 4)),
        (from_fraction("5"), Fraction(5)),
        (I, GaussRat(0, 1)),
        (from_fraction("7/2"), GaussRat(Fraction(7, 2))),
        (from_int(2) + I * from_fraction("1/3"), GaussRat(2, Fraction(1, 3))),
    ],
)
def test_constant_hashes_like_equal_number(x, v):
    assert x == v
    assert hash(x) == hash(v)
    assert {x: "x"}.get(v) == "x"
    assert {v: "v"}.get(x) == "v"
