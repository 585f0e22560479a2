"""Exact ground field for all symbolic computations.

Every coefficient in this package lives in Q(i)(s): rational functions in a
formal square root s of the deformation parameter (q = s**2), with Gaussian
rational coefficients.  Elements are kept in a canonical reduced form --
numerator and denominator coprime, denominator monic -- so equality is dict
equality and hashing is cheap.

Inside a :class:`Scalar`, numerator and denominator are sparse polynomials
``{exponent: (a, b, d)}`` whose coefficients are integer triples meaning
(a + b*i)/d, kept canonical: ``d > 0``, ``gcd(a, b, d) == 1`` and no zero
entries.  The common coefficient is a Gaussian integer (``d == 1``), which
costs a few int operations and no gcd.  :class:`GaussRat` is the type of
input, output and evaluation: the raw constructor accepts ``{exp: GaussRat}``
dicts, ``eval_at`` returns a ``GaussRat``, and the text forms convert only at
the boundary.

Conjugation fixes s and sends i to -i (the deformation parameter is real).
Evaluation at a rational point 0 < s0 < 1 is exact and returns a Gaussian
rational.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "GaussRat",
    "Scalar",
    "ZERO",
    "ONE",
    "I",
    "S",
    "Q",
    "s_pow",
    "q_pow",
    "from_int",
    "from_fraction",
    "q_bracket",
    "q_factorial",
    "q_exp_coeffs",
]


# ---------------------------------------------------------------------------
# Gaussian rationals


class GaussRat:
    """A Gaussian rational a + b*i with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussRat):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _coerce_gauss(other)
        return GaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussRat(-self.re, -self.im)

    def __sub__(self, other):
        other = _coerce_gauss(other)
        return GaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce_gauss(other) - self

    def __mul__(self, other):
        other = _coerce_gauss(other)
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce_gauss(other)
        n2 = other.re * other.re + other.im * other.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRat(
            (self.re * other.re + self.im * other.im) / n2,
            (self.im * other.re - self.re * other.im) / n2,
        )

    def __rtruediv__(self, other):
        return _coerce_gauss(other) / self

    def conjugate(self):
        return GaussRat(self.re, -self.im)

    def __repr__(self):
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gauss(self)


def _coerce_gauss(x) -> GaussRat:
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to GaussRat")


def format_gauss(c: GaussRat) -> str:
    """Canonical text for a Gaussian rational: '3', '-1/2', 'i', '1/2-3/4i'."""
    re_, im = c.re, c.im
    if im == 0:
        return str(re_)
    if im == 1:
        ipart = "i"
    elif im == -1:
        ipart = "-i"
    else:
        ipart = f"{im}i"
    if re_ == 0:
        return ipart
    if im > 0 and not ipart.startswith("-"):
        return f"{re_}+{ipart}"
    return f"{re_}{ipart}"


_GAUSS_RE = _re.compile(
    r"""^\s*
        (?:(?P<re>[+-]?\d+(?:/\d+)?)(?=\s*$|\s*[+-]))?   # real part
        \s*
        (?:(?P<im>[+-]?(?:\d+(?:/\d+)?)?)\s*i)?          # imaginary part
        \s*$""",
    _re.VERBOSE,
)


def parse_gauss(text: str) -> GaussRat:
    """Inverse of :func:`format_gauss` (accepts minor whitespace)."""
    m = _GAUSS_RE.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"bad Gaussian rational literal: {text!r}")
    re_ = Fraction(m.group("re")) if m.group("re") is not None else Fraction(0)
    im_raw = m.group("im")
    if im_raw is None:
        im = Fraction(0)
    elif im_raw in ("", "+"):
        im = Fraction(1)
    elif im_raw == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_raw)
    return GaussRat(re_, im)


# ---------------------------------------------------------------------------
# Gaussian rational coefficients as integer triples.
#
# (a, b, d) stands for (a + b*i)/d.  Canonical: d > 0 and gcd(a, b, d) == 1,
# so equal values are equal tuples.  A coefficient stored in a polynomial is
# never zero.


_C1 = (1, 0, 1)
_CM1 = (-1, 0, 1)


def _cnorm(a: int, b: int, d: int) -> tuple:
    """Canonical triple of (a + b*i)/d for d != 0; zero becomes (0, 0, 1)."""
    if d < 0:
        a, b, d = -a, -b, -d
    g = gcd(a, b, d)
    if g == 1:
        return (a, b, d)
    return (a // g, b // g, d // g)


def _cmul(x: tuple, y: tuple) -> tuple:
    a1, b1, d1 = x
    a2, b2, d2 = y
    d = d1 * d2
    if d == 1:
        return (a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1)
    return _cnorm(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)


def _cadd(x: tuple, y: tuple) -> tuple:
    """Canonical sum; (0, 0, 1) when it vanishes."""
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        if d1 == 1:
            return (a1 + a2, b1 + b2, 1)
        return _cnorm(a1 + a2, b1 + b2, d1)
    return _cnorm(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _cinv(x: tuple) -> tuple:
    a, b, d = x
    return _cnorm(a * d, -b * d, a * a + b * b)


def _from_gauss(c) -> tuple:
    """Triple of a GaussRat, Fraction or int."""
    c = _coerce_gauss(c)
    re_, im = c.re, c.im
    d = lcm(re_.denominator, im.denominator)
    return (re_.numerator * (d // re_.denominator), im.numerator * (d // im.denominator), d)


def _to_gauss(c: tuple) -> GaussRat:
    a, b, d = c
    return GaussRat(Fraction(a, d), Fraction(b, d))


# ---------------------------------------------------------------------------
# Sparse polynomials in s over the Gaussian rationals.
#
# Represented as {exponent: triple} with no zero values.  These helpers are
# internal; only Scalar is part of the public surface.  No helper mutates
# its arguments, so polynomials may be shared between scalars.


def _padd(p: dict, q: dict) -> dict:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e)
        if v is None:
            out[e] = c
        else:
            v = _cadd(v, c)
            if v[0] or v[1]:
                out[e] = v
            else:
                del out[e]
    return out


def _pneg(p: dict) -> dict:
    return {e: (-a, -b, d) for e, (a, b, d) in p.items()}


def _pscale(p: dict, c: tuple) -> dict:
    return {e: _cmul(v, c) for e, v in p.items()}


def _pmul(p: dict, q: dict) -> dict:
    if len(p) == 1 and len(q) == 1:
        # monomial times monomial, the common case: nothing to accumulate
        ((e1, c1),) = p.items()
        ((e2, c2),) = q.items()
        return {e1 + e2: _cmul(c1, c2)}
    # accumulate unnormalised triples; normalise once per output term
    out: dict = {}
    for e1, (a1, b1, d1) in p.items():
        for e2, (a2, b2, d2) in q.items():
            e = e1 + e2
            a = a1 * a2 - b1 * b2
            b = a1 * b2 + b1 * a2
            d = d1 * d2
            v = out.get(e)
            if v is not None:
                a0, b0, d0 = v
                if d0 == d:
                    a += a0
                    b += b0
                else:
                    a, b, d = a * d0 + a0 * d, b * d0 + b0 * d, d * d0
            out[e] = (a, b, d)
    return {e: c if c[2] == 1 else _cnorm(*c) for e, c in out.items() if c[0] or c[1]}


def _pdeg(p: dict) -> int:
    return max(p) if p else -1


def _pdivmod(p: dict, q: dict):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    qd = _pdeg(q)
    qinv = _cinv(q[qd])
    quot: dict = {}
    rem = dict(p)
    while rem:
        rd = max(rem)
        if rd < qd:
            break
        c = _cmul(rem[rd], qinv)
        quot[rd - qd] = c
        for e, v in q.items():
            k = rd - qd + e
            a, b, d = _cmul(c, v)
            w = rem.get(k)
            w = (-a, -b, d) if w is None else _cadd(w, (-a, -b, d))
            if w[0] or w[1]:
                rem[k] = w
            else:
                rem.pop(k, None)
    return quot, rem


def _pmonic(p: dict) -> dict:
    if not p:
        return p
    lead = p[max(p)]
    if lead == _C1:
        return p
    return _pscale(p, _cinv(lead))


def _pgcd(p: dict, q: dict) -> dict:
    a, b = dict(p), dict(q)
    while b:
        _, r = _pdivmod(a, b)
        a, b = b, r
    return _pmonic(a)


def _pcross(n: dict, d: dict):
    """Cancel the common factor of a numerator/denominator pair.

    Monomial sides only need an exponent shift, which covers almost all
    arithmetic on Laurent-type scalars; only genuinely dense pairs pay for
    a Euclidean gcd.
    """
    if len(d) == 1:
        ((e, c),) = d.items()
        sft = min(e, min(n))
        if sft:
            n = {k - sft: x for k, x in n.items()}
            d = {e - sft: c}
        return n, d
    if len(n) == 1:
        ((e, c),) = n.items()
        sft = min(e, min(d))
        if sft:
            n = {e - sft: c}
            d = {k - sft: x for k, x in d.items()}
        return n, d
    if _pdeg(n) > 0 and _pdeg(d) > 0:
        g = _pgcd(n, d)
        if _pdeg(g) > 0:
            n = _pdivmod(n, g)[0]
            d = _pdivmod(d, g)[0]
    return n, d


def _pconj(p: dict) -> dict:
    return {e: (a, -b, d) for e, (a, b, d) in p.items()}


def _peval(p: dict, u: int, v: int) -> tuple:
    """p(u/v) as a triple, not normalised (v > 0)."""
    top = _pdeg(p)
    if top < 0:
        return (0, 0, 1)
    # sum of c_e * u**e * v**(top - e), over the common denominator v**top
    re_, im, den = 0, 0, 1
    for e, (a, b, d) in p.items():
        w = u**e * v ** (top - e)
        if d == den:
            re_ += a * w
            im += b * w
        else:
            re_, im, den = re_ * d + a * w * den, im * d + b * w * den, den * d
    return (re_, im, den * v**top)


def _monic_den(num: dict, den: dict):
    """Scale a pair by the inverse of the denominator's leading coefficient."""
    lead = den[max(den)]
    if lead == _C1:
        return num, den
    inv = _cinv(lead)
    return _pscale(num, inv), _pscale(den, inv)


_P_ONE = {0: _C1}


# ---------------------------------------------------------------------------
# Scalars


class Scalar:
    """An element of Q(i)(s) in canonical reduced form.

    Construct via the module helpers (from_int, s_pow, q_pow, parsing) or by
    arithmetic on existing scalars; the raw constructor takes {exp: GaussRat}
    dicts (int and Fraction values are accepted too) and canonicalizes them.
    """

    __slots__ = ("_num", "_den", "_h")

    def __init__(self, num: dict, den: dict | None = None):
        num = _poly_from_gauss(num)
        den = _P_ONE if den is None else _poly_from_gauss(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Scalar")
        if num:
            num, den = _reduce(num, den)
        else:
            den = _P_ONE
        _set_num(self, num)
        _set_den(self, den)
        _set_h(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- predicates

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def is_one(self) -> bool:
        return self._num == _P_ONE and self._den == _P_ONE

    def __bool__(self):
        return bool(self._num)

    # -- ring ops

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._num:
            return other
        if not other._num:
            return self
        d1, d2 = self._den, other._den
        if d1 == d2:
            return _make(_padd(self._num, other._num), d1)
        num = _padd(_pmul(self._num, d2), _pmul(other._num, d1))
        return _make(num, _pmul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        return _new(_pneg(self._num), self._den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._num or not other._num:
            return ZERO
        # cross-reduce first to keep intermediate degrees down
        n1, d1 = self._num, self._den
        n2, d2 = other._num, other._den
        if d2 != _P_ONE:
            n1, d2 = _pcross(n1, d2)
        if d1 != _P_ONE:
            n2, d1 = _pcross(n2, d1)
        num = _pmul(n1, n2)
        den = d2 if d1 == _P_ONE else d1 if d2 == _P_ONE else _pmul(d1, d2)
        return _new(*_monic_den(num, den))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if not self._num:
            raise ZeroDivisionError("inverse of zero scalar")
        num, den = self._den, self._num
        return _new(*_monic_den(num, den))

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- field structure

    def conjugate(self) -> "Scalar":
        """Complex conjugation: i -> -i, s fixed."""
        # an automorphism keeps the pair coprime and the denominator monic
        return _new(_pconj(self._num), _pconj(self._den))

    def eval_at(self, s0) -> GaussRat:
        """Exact evaluation at a rational point s = s0 (so q = s0**2)."""
        s0 = Fraction(s0)
        u, v = s0.numerator, s0.denominator
        den = _peval(self._den, u, v)
        if not (den[0] or den[1]):
            raise ZeroDivisionError(f"pole at s = {s0}")
        return _to_gauss(_cmul(_peval(self._num, u, v), _cinv(den)))

    # -- equality / hashing

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        h = self._h
        if h is None:
            num, den = self._num, self._den
            if den == _P_ONE and num.keys() <= {0}:
                # a constant hashes like the equal int, Fraction or GaussRat
                h = hash(_to_gauss(num.get(0, (0, 0, 1))))
            else:
                h = hash((frozenset(num.items()), frozenset(den.items())))
            _set_h(self, h)
        return h

    # -- text form

    def to_string(self) -> str:
        """Canonical text: bracketed sparse num / den, e.g. '[0:1,4:-1]/[0:1]'."""
        return f"{_pformat(self._num)}/{_pformat(self._den)}"

    @staticmethod
    def from_string(text: str) -> "Scalar":
        """Parse the canonical text form, or a bare Gaussian literal like '1'."""
        text = text.strip()
        if "]/[" in text:
            ntxt, dtxt = text.split("]/[")
            num = _pparse(ntxt + "]")
            den = _pparse("[" + dtxt)
            if not den:
                raise ZeroDivisionError("zero denominator in Scalar")
        elif text.startswith("["):
            num = _pparse(text)
            den = _P_ONE
        else:
            c = _from_gauss(parse_gauss(text))
            num = {0: c} if c[0] or c[1] else {}
            den = _P_ONE
        return _make(num, den)

    def pretty(self) -> str:
        """Human-oriented rendering with s-powers, e.g. '(1 - s^4)/(s^2)'."""
        num = _ppretty(self._num)
        if self._den == _P_ONE:
            return num
        return f"({num})/({_ppretty(self._den)})"

    def __repr__(self):
        return f"Scalar[{self.pretty()}]"


_set_num = Scalar._num.__set__
_set_den = Scalar._den.__set__
_set_h = Scalar._h.__set__


def _new(num: dict, den: dict) -> Scalar:
    """A Scalar from a pair already in canonical reduced form."""
    x = object.__new__(Scalar)
    _set_num(x, num)
    _set_den(x, den)
    _set_h(x, None)
    return x


def _make(num: dict, den: dict) -> Scalar:
    """A Scalar from any pair with a non-zero denominator."""
    if not num:
        return ZERO
    return _new(*_reduce(num, den))


def _poly_from_gauss(p: dict) -> dict:
    out = {}
    for e, c in p.items():
        c = _from_gauss(c)
        if c[0] or c[1]:
            out[e] = c
    return out


def _reduce(num: dict, den: dict):
    # monomial denominator (the common case for Laurent-type scalars):
    # the gcd is itself a monomial, no Euclid needed
    if len(den) == 1:
        ((d, c),) = den.items()
        shift = min(d, min(num))
        if shift:
            num = {e - shift: x for e, x in num.items()}
            d -= shift
        if c != _C1:
            num = _pscale(num, _cinv(c))
        return num, (_P_ONE if d == 0 else {d: _C1})
    # monomial numerator: symmetric shortcut
    if len(num) == 1:
        ((a, c),) = num.items()
        shift = min(a, min(den))
        if shift:
            num = {a - shift: c}
            den = {e - shift: x for e, x in den.items()}
        return _monic_den(num, den)
    # strip common monomial factor cheaply first
    shift = min(min(num), min(den))
    if shift > 0:
        num = {e - shift: c for e, c in num.items()}
        den = {e - shift: c for e, c in den.items()}
    if _pdeg(den) > 0 and _pdeg(num) > 0:
        g = _pgcd(num, den)
        if _pdeg(g) > 0:
            num = _pdivmod(num, g)[0]
            den = _pdivmod(den, g)[0]
    return _monic_den(num, den)


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return _new({0: (x, 0, 1)}, _P_ONE) if x else ZERO
    if isinstance(x, (Fraction, GaussRat)):
        c = _from_gauss(x)
        return _new({0: c}, _P_ONE) if c[0] or c[1] else ZERO
    return NotImplemented


def _pformat(p: dict) -> str:
    if not p:
        return "[]"
    items = ",".join(f"{e}:{format_gauss(_to_gauss(c))}" for e, c in sorted(p.items()))
    return f"[{items}]"


def _pparse(text: str) -> dict:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"bad polynomial literal: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return {}
    out: dict = {}
    for chunk in body.split(","):
        etxt, _, ctxt = chunk.partition(":")
        if not _:
            raise ValueError(f"bad term {chunk!r} in {text!r}")
        e = int(etxt)
        if e < 0:
            raise ValueError(f"negative exponent in {text!r}")
        c = _from_gauss(parse_gauss(ctxt))
        if c[0] or c[1]:
            out[e] = _cadd(out[e], c) if e in out else c
    return {e: c for e, c in out.items() if c[0] or c[1]}


def _ppretty(p: dict) -> str:
    if not p:
        return "0"
    parts = []
    for e, c in sorted(p.items()):
        if e == 0:
            term = format_gauss(_to_gauss(c))
        else:
            sterm = "s" if e == 1 else f"s^{e}"
            if c == _C1:
                term = sterm
            elif c == _CM1:
                term = f"-{sterm}"
            else:
                cs = format_gauss(_to_gauss(c))
                if "+" in cs[1:] or "-" in cs[1:]:
                    cs = f"({cs})"
                term = f"{cs}*{sterm}"
        parts.append(term)
    out = parts[0]
    for term in parts[1:]:
        out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
    return out


# ---------------------------------------------------------------------------
# Constants and q-combinatorics

ZERO = _new({}, _P_ONE)
ONE = _new(_P_ONE, _P_ONE)
I = _new({0: (0, 1, 1)}, _P_ONE)
S = _new({1: _C1}, _P_ONE)
Q = _new({2: _C1}, _P_ONE)


def from_int(n: int) -> Scalar:
    return _coerce(int(n))


def from_fraction(fr) -> Scalar:
    return _coerce(Fraction(fr))


def s_pow(k: int) -> Scalar:
    """s**k for any integer k (negative powers land in the denominator)."""
    if k >= 0:
        return _new({k: _C1}, _P_ONE)
    return _new(_P_ONE, {-k: _C1})


def q_pow(k: int) -> Scalar:
    """q**k = s**(2k) for any integer k."""
    return s_pow(2 * k)


def q_bracket(j: int) -> Scalar:
    """(1 - q**(2j)) / (1 - q**2), the basic q-square integer."""
    num = _padd({4 * j: _CM1}, _P_ONE)
    den = _padd({4: _CM1}, _P_ONE)
    return _make(num, den)


def q_factorial(k: int) -> Scalar:
    """Product of q_bracket(j) for j = 1..k (empty product for k = 0)."""
    out = ONE
    for j in range(1, k + 1):
        out = out * q_bracket(j)
    return out


def q_exp_coeffs(kmax: int) -> list:
    """Taylor coefficients through degree kmax of the q-squared exponential.

    Entry k is 1 / q_factorial(k); the series starts [1, 1, 1/(1+q^2), ...].
    """
    return [q_factorial(k).inverse() for k in range(kmax + 1)]
