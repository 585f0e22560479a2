"""Scalar arithmetic checked against an independent oracle: sympy's Q(i)(s).

sympy is a test-only dependency.  The drawn scalars have non-integer
Gaussian coefficients and non-monomial denominators, so the gcd and
non-unit-denominator paths of the field are exercised, not only the Laurent
polynomials over Z[i] that the engine meets most of the time.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from qmatball.field import GaussRat, Scalar, parse_gauss

QQ_I = sympy.QQ_I
K = QQ_I.frac_field(sympy.symbols("s")).field
R = K.ring

_fr = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def specs(draw, min_terms=0, max_terms=3):
    """A sparse polynomial {exp: (re, im)} with Fraction parts, zeros dropped."""
    out = {}
    for _ in range(draw(st.integers(min_value=min_terms, max_value=max_terms))):
        out[draw(st.integers(min_value=0, max_value=5))] = (draw(_fr), draw(_fr))
    return {e: c for e, c in out.items() if c[0] or c[1]}


@st.composite
def pairs(draw, nonzero=False):
    """A (Scalar, oracle element) pair built independently from one spec."""
    num = draw(specs(min_terms=1 if nonzero else 0))
    den = draw(specs(min_terms=1))
    assume(den and (num or not nonzero))
    ours = Scalar(
        {e: GaussRat(*c) for e, c in num.items()},
        {e: GaussRat(*c) for e, c in den.items()},
    )
    return ours, K(_ring(num)) / K(_ring(den))


def _ring(spec: dict):
    return R({(e,): QQ_I(re, im) for e, (re, im) in spec.items()})


def _parse_poly(text: str):
    body = text.strip("[]")
    spec = {}
    for chunk in filter(None, body.split(",")):
        e, _, c = chunk.partition(":")
        g = parse_gauss(c)
        spec[int(e)] = (g.re, g.im)
    return spec


def oracle(x: Scalar):
    """The oracle element of ``x``, read from its canonical text form.

    Also checks the canonical form itself: monic denominator, coprime pair.
    """
    ntxt, dtxt = x.to_string().split("]/[")
    num, den = _ring(_parse_poly(ntxt + "]")), _ring(_parse_poly("[" + dtxt))
    assert den.LC == QQ_I(1, 0)
    if num:
        assert num.gcd(den).degree() == 0
    else:
        assert den == R(1)
    return K(num) / K(den)


def same(a, b) -> bool:
    return a.numer * b.denom == b.numer * a.denom


@settings(max_examples=60, deadline=None)
@given(pairs(), pairs())
def test_add_sub_mul_match_oracle(a, b):
    (x, xs), (y, ys) = a, b
    assert same(oracle(x), xs)
    assert same(oracle(x + y), xs + ys)
    assert same(oracle(x - y), xs - ys)
    assert same(oracle(x * y), xs * ys)


@settings(max_examples=60, deadline=None)
@given(pairs(), pairs(nonzero=True))
def test_division_matches_oracle(a, b):
    (x, xs), (y, ys) = a, b
    assert same(oracle(x / y), xs / ys)
    assert same(oracle(y.inverse()), 1 / ys)


@settings(max_examples=40, deadline=None)
@given(pairs(nonzero=True), st.integers(min_value=-3, max_value=3))
def test_power_matches_oracle(a, k):
    x, xs = a
    assert same(oracle(x**k), xs**k)


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_conjugate_matches_oracle(a):
    x, xs = a

    def conj(p):
        return R({m: QQ_I(c.x, -c.y) for m, c in p.terms()})

    assert same(oracle(x.conjugate()), K(conj(xs.numer)) / K(conj(xs.denom)))


_POINTS = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(-3, 4), Fraction(0)]


@settings(max_examples=60, deadline=None)
@given(pairs(), st.sampled_from(_POINTS))
def test_eval_at_matches_oracle(a, s0):
    x, xs = a
    pt = QQ_I(s0, 0)
    den = xs.denom(pt)
    if not den:
        with pytest.raises(ZeroDivisionError):
            x.eval_at(s0)
        return
    v = xs.numer(pt) / den
    got = x.eval_at(s0)
    assert isinstance(got, GaussRat)
    assert (got.re, got.im) == (Fraction(str(v.x)), Fraction(str(v.y)))


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_string_round_trip_matches_oracle(a):
    x, xs = a
    back = Scalar.from_string(x.to_string())
    assert back == x
    assert back.to_string() == x.to_string()
    assert same(oracle(back), xs)
