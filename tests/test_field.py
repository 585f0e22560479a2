"""Ground-field sanity: exact arithmetic in Q(i)(s), conjugation, evaluation."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from qmatball import field
from qmatball.field import (
    GaussRat,
    I,
    ONE,
    Q,
    S,
    ZERO,
    Scalar,
    add_terms,
    format_gauss,
    from_fraction,
    from_int,
    from_laurent,
    parse_gauss,
    q_bracket,
    q_factorial,
    q_pow,
    s_pow,
    to_laurent,
)

from cyclic_oracle import laurent_conj, laurent_dot


# ---------------------------------------------------------------------------
# frozen values


def test_q_factorial_two_is_one_plus_qsq():
    # (1-q^2)(1-q^4)/(1-q^2)^2 collapses to 1 + q^2 = 1 + s^4
    expected = ONE + q_pow(2)
    assert q_factorial(2) == expected
    assert q_factorial(0) == ONE
    assert q_factorial(1) == ONE


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


# (parser, text, the literal the error names)
_MALFORMED = {
    "non-ASCII digit": (parse_gauss, "\u0663", "'\u0663'"),
    "zero denominator": (parse_gauss, "1/0", "'1/0'"),
    "zero imaginary denominator": (parse_gauss, "1+2/00i", "'1+2/00i'"),
    "underscore exponent": (Scalar.from_string, "[1_0:1]", "'[1_0:1]'"),
    "non-ASCII exponent": (Scalar.from_string, "[\u0663:1]", "'[\u0663:1]'"),
    "signed exponent": (Scalar.from_string, "[-1:1]", "'[-1:1]'"),
    "zero denominator coefficient": (Scalar.from_string, "[0:1/0]", "'1/0'"),
    "two slashes": (Scalar.from_string, "[0:1]/[0:1]/[0:1]", "'[0:1]/[0:1]/[0:1]'"),
    "empty denominator": (Scalar.from_string, "[0:1]/[]", "'[0:1]/[]'"),
    "zero denominator polynomial": (Scalar.from_string, "[0:1]/[0:0]", "'[0:1]/[0:0]'"),
}


@pytest.mark.parametrize("parse, text, named", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_literal_is_named(parse, text, named):
    with pytest.raises(ValueError, match=re.escape(named)):
        parse(text)


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
    # the values meet again as constant Scalars, the one arithmetic type
    ca, cb = Scalar({0: va}), Scalar({0: vb})
    assert vs == ca + cb
    assert vp == ca * cb


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
        # values returned by eval_at
        (ZERO, (ONE - Q).eval_at(1)),
        (from_int(4), q_pow(-1).eval_at(Fraction(1, 2))),
        (from_fraction("17/16"), q_bracket(2).eval_at(Fraction(1, 2))),
        (I * from_fraction("2/3"), (I * S / (S + 1)).eval_at(2)),
    ],
)
def test_constant_hashes_like_equal_number(x, v):
    assert x == v
    assert hash(x) == hash(v)
    assert {x: "x"}.get(v) == "x"
    assert {v: "v"}.get(x) == "v"


def test_equality_fast_paths_keep_the_contract():
    x = (S + I) / (ONE - Q)
    twin = Scalar.from_string(x.to_string())  # equal, but a distinct object
    assert twin is not x
    assert x == x and x == twin and twin == x
    assert hash(x) == hash(twin)
    assert x != x.conjugate() and not x == ONE
    # every operand kind the field accepts: equal values compare and hash alike
    for c, v in [
        (from_int(-3), -3),
        (from_fraction("-3/4"), Fraction(-3, 4)),
        (I * from_fraction("1/3"), GaussRat(0, Fraction(1, 3))),
        (I * from_fraction("1/3"), (I * S / 3).eval_at(1)),
        (from_fraction("-1/2") + I / 4, (S + I * Q).eval_at(Fraction(-1, 2))),
    ]:
        assert c == v and v == c and not c != v
        assert hash(c) == hash(v)
        assert c != x and x != v
    # a foreign operand is never equal, and Scalar hands the question back
    assert ONE.__eq__("1") is NotImplemented
    assert ONE.__eq__(1.0) is NotImplemented
    assert not ONE == "1" and ONE != "1"
    assert not x == object()


# the sparse-accumulate kernel


def test_add_terms_kernel():
    a, b = from_int(2), s_pow(1)
    acc: dict = {}
    assert add_terms(acc, [("x", a), ("x", -a)]) is acc
    assert acc == {}
    # a zero coefficient never creates a key
    assert add_terms({}, [("x", ZERO), ("y", ZERO)]) == {}
    # a cancelled key that comes back goes to the end
    acc = {"x": a, "w": ONE}
    add_terms(acc, [("y", b), ("x", -a), ("z", ONE), ("x", b), ("y", ZERO)])
    assert list(acc.items()) == [("w", ONE), ("y", b), ("z", ONE), ("x", b)]

    class Once:
        reads = 0

        def __iter__(self):
            self.reads += 1
            return iter([("x", a), ("y", b), ("x", b)])

    pairs = Once()
    assert add_terms({}, pairs) == {"x": a + b, "y": b}
    assert pairs.reads == 1


# mixed and foreign operands


_FOREIGN = {
    "1.5 - ONE": lambda: 1.5 - ONE,
    "ONE - 1.5": lambda: ONE - 1.5,
    "1.5 / ONE": lambda: 1.5 / ONE,
    "'a' / ONE": lambda: "a" / ONE,
    "'a' - ONE": lambda: "a" - ONE,
    "ONE + 'a'": lambda: ONE + "a",
    "GaussRat(1) + 1.5": lambda: GaussRat(1) + 1.5,
    "GaussRat(1) - 'a'": lambda: GaussRat(1) - "a",
    "'a' / GaussRat(1)": lambda: "a" / GaussRat(1),
}


@pytest.mark.parametrize("expr", list(_FOREIGN.values()), ids=list(_FOREIGN))
def test_foreign_operand_raises_type_error(expr):
    with pytest.raises(TypeError, match="unsupported operand") as info:
        expr()
    assert "NotImplementedType" not in str(info.value)


def test_gauss_rat_meets_scalar_from_either_side():
    g = GaussRat(Fraction(1, 2), 3)
    x = S + I
    gs = from_fraction("1/2") + I * 3
    cases = [
        (g + x, x + g, gs + x),
        (g - x, -(x - g), gs - x),
        (g * x, x * g, gs * x),
        (g / x, (x / g).inverse(), gs / x),
    ]
    for left, right, expected in cases:
        assert isinstance(left, Scalar)
        assert left == right == expected
    assert GaussRat(1) + ONE == from_int(2)
    assert GaussRat(1) - ONE == ZERO
    assert GaussRat(3) * ONE == from_int(3)
    assert GaussRat(1) / S == s_pow(-1)


def test_gauss_rat_is_a_plain_value():
    """The value eval_at returns: no arithmetic of its own, falsy at zero."""
    assert not GaussRat(0) and not (ONE - Q).eval_at(1)
    assert GaussRat(0, 1) and GaussRat(Fraction(-1, 2))
    ops = ("add", "sub", "mul", "truediv", "neg", "pow")
    for name in [f"__{op}__" for op in ops] + [f"__r{op}__" for op in ops] + ["conjugate"]:
        assert not hasattr(GaussRat, name), name
    with pytest.raises(AttributeError, match="immutable"):
        GaussRat(1).re = 2


def test_constructor_rejects_foreign_coefficients():
    with pytest.raises(TypeError, match="cannot coerce float"):
        Scalar({0: 1.5})


# ---------------------------------------------------------------------------
# evaluation and integer Laurent terms


def _peval_direct(p, u, v):
    """Reference: each term's own powers u**e * v**(top - e)."""
    top = max(p)
    re_, im, den = 0, 0, 1
    for e, (a, b, d) in p.items():
        w = u**e * v ** (top - e)
        if d == den:
            re_ += a * w
            im += b * w
        else:
            re_, im, den = re_ * d + a * w * den, im * d + b * w * den, den * d
    return (re_, im, den * v**top)


@settings(max_examples=80, deadline=None)
@given(scalars(allow_zero=False), st.integers(-5, 5), st.integers(1, 6))
def test_peval_is_the_direct_sum(a, u, v):
    # the same value, numerator and denominator alike; the same unnormalised
    # triple when every coefficient is a Gaussian integer (the common case),
    # since the common denominator then stays v**top
    for p in (a._num, a._den):
        got, want = field._peval(p, u, v), _peval_direct(p, u, v)
        assert field._cnorm(*got) == field._cnorm(*want)
        if all(d == 1 for _, _, d in p.values()):
            assert got == want


@st.composite
def laurent_scalars(draw):
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-6, 6), st.integers(0, 1)), st.integers(-3, 3), max_size=5
    ))
    return from_laurent({key: c for key, c in terms.items() if c})


@settings(max_examples=80, deadline=None)
@given(laurent_scalars(), laurent_scalars())
def test_laurent_terms_round_trip_and_multiply(a, b):
    ta, tb = to_laurent(a), to_laurent(b)
    assert from_laurent(ta) == a and to_laurent(from_laurent(ta)) == ta
    assert all(c and j in (0, 1) for (_, j), c in ta.items())
    assert from_laurent(laurent_dot([(ta, tb)])) == a * b
    assert from_laurent(laurent_dot([(ta, tb), (tb, tb)])) == a * b + b * b
    assert from_laurent(laurent_conj(ta)) == a.conjugate()


def test_laurent_terms_of_frozen_values():
    assert to_laurent(q_pow(-1) - I * s_pow(3)) == {(-2, 0): 1, (3, 1): -1}
    assert to_laurent(ZERO) == {} and from_laurent({}) == ZERO
    # the canonical form: num / s^2 with a constant term in num
    assert from_laurent({(-2, 0): 1, (1, 1): 2}).to_string() == "[0:1,3:2i]/[2:1]"


@pytest.mark.parametrize(
    "c",
    [
        from_fraction("1/2"),
        ONE / (ONE - q_pow(1)),
        s_pow(-1) / from_int(3),
        Scalar({0: GaussRat(0, Fraction(1, 2))}),
    ],
    ids=["1/2", "1/(1-q)", "1/(3s)", "i/2"],
)
def test_coefficients_outside_the_laurent_ring_are_named(c):
    with pytest.raises(ValueError, match=re.escape(f"coefficient {c.pretty()} is not in")):
        to_laurent(c)
