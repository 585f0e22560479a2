"""Golden canonical strings: ``to_string()`` and ``pretty()`` stay byte-identical.

The expected texts were recorded before the field's internal coefficient
type changed; any change to the canonical form shows up here first.
"""

import pytest

from qmatball.field import (
    I,
    ONE,
    Q,
    S,
    ZERO,
    from_fraction,
    from_int,
    q_bracket,
    q_exp_coeffs,
    q_factorial,
    q_pow,
    s_pow,
)

_Q_EXP_6 = [
    ("[0:1]/[0:1]", "1"),
    ("[0:1]/[0:1]", "1"),
    ("[0:1]/[0:1,4:1]", "(1)/(1 + s^4)"),
    ("[0:1]/[0:1,4:2,8:2,12:1]", "(1)/(1 + 2*s^4 + 2*s^8 + s^12)"),
    (
        "[0:1]/[0:1,4:3,8:5,12:6,16:5,20:3,24:1]",
        "(1)/(1 + 3*s^4 + 5*s^8 + 6*s^12 + 5*s^16 + 3*s^20 + s^24)",
    ),
    (
        "[0:1]/[0:1,4:4,8:9,12:15,16:20,20:22,24:20,28:15,32:9,36:4,40:1]",
        "(1)/(1 + 4*s^4 + 9*s^8 + 15*s^12 + 20*s^16 + 22*s^20 + 20*s^24"
        " + 15*s^28 + 9*s^32 + 4*s^36 + s^40)",
    ),
    (
        "[0:1]/[0:1,4:5,8:14,12:29,16:49,20:71,24:90,28:101,32:101,36:90,"
        "40:71,44:49,48:29,52:14,56:5,60:1]",
        "(1)/(1 + 5*s^4 + 14*s^8 + 29*s^12 + 49*s^16 + 71*s^20 + 90*s^24"
        " + 101*s^28 + 101*s^32 + 90*s^36 + 71*s^40 + 49*s^44 + 29*s^48"
        " + 14*s^52 + 5*s^56 + s^60)",
    ),
]

GOLDEN = [
    (lambda: q_factorial(5).inverse(), *_Q_EXP_6[5]),
    (lambda: I / (ONE + S), "[0:i]/[0:1,1:1]", "(i)/(1 + s)"),
    (lambda: from_fraction("-3/4") * q_pow(-2), "[0:-3/4]/[4:1]", "(-3/4)/(s^4)"),
    (
        lambda: (ONE - Q).inverse() ** 3,
        "[0:-1]/[0:-1,2:3,4:-3,6:1]",
        "(-1)/(-1 + 3*s^2 - 3*s^4 + s^6)",
    ),
    (lambda: q_bracket(3), "[0:1,4:1,8:1]/[0:1]", "1 + s^4 + s^8"),
    (
        lambda: (ONE + I) * s_pow(-3) - from_fraction("2/3") * I * S,
        "[0:1+i,4:-2/3i]/[3:1]",
        "(1+i - 2/3i*s^4)/(s^3)",
    ),
    (
        lambda: (from_fraction("1/2") + I * from_fraction("3/4") * Q) / (from_int(3) - I * S),
        "[0:1/2i,2:-3/4]/[0:3i,1:1]",
        "(1/2i - 3/4*s^2)/(3i + s)",
    ),
    (
        lambda: ((ONE + I * Q) / (from_int(2) + S)).conjugate(),
        "[0:1,2:-i]/[0:2,1:1]",
        "(1 - i*s^2)/(2 + s)",
    ),
    (lambda: from_int(2) + I, "[0:2+i]/[0:1]", "2+i"),
    (lambda: (from_int(2) + I).inverse(), "[0:2/5-1/5i]/[0:1]", "2/5-1/5i"),
    (
        lambda: (ONE - Q * Q) / ((ONE + Q) * (from_fraction("1/3") + I * S)),
        "[0:-i,2:i]/[0:-1/3i,1:1]",
        "(-i + i*s^2)/(-1/3i + s)",
    ),
    (
        lambda: (from_fraction("5/6") * S + I) ** 2 / (ONE - from_fraction("2/5") * I * Q) ** 2,
        "[0:25/4,1:-125/12i,2:-625/144]/[0:-25/4,2:5i,4:1]",
        "(25/4 - 125/12i*s - 625/144*s^2)/(-25/4 + 5i*s^2 + s^4)",
    ),
    (lambda: from_fraction("-7/3"), "[0:-7/3]/[0:1]", "-7/3"),
    (lambda: ZERO, "[]/[0:1]", "0"),
]


def test_q_exp_coeffs_golden():
    got = [(x.to_string(), x.pretty()) for x in q_exp_coeffs(6)]
    assert got == _Q_EXP_6


@pytest.mark.parametrize("make, text, pretty", GOLDEN)
def test_golden_canonical_strings(make, text, pretty):
    x = make()
    assert x.to_string() == text
    assert x.pretty() == pretty
