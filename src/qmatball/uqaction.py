"""The quantized enveloping algebra as free words, and its covariant action.

Elements are :class:`~qmatball.words.NCPoly` polynomials whose letters are
``(kind, j)`` pairs for E_j, F_j, K_j, K_j^{-1} (j = 1..N-1); no
normalization against the defining relations is attempted — correctness of
everything built on top is tested semantically through the action.  This
module keeps only what is specific to U_q: the letters and their text, the
Hopf structure and the action tables.

The action on an algebra preset is determined by:

  * explicit single-symbol tables for the plain coordinates (split by
    whether the node j is the distinguished one, j = n),
  * the projection generator's own table,
  * the differential symbols via commuting the action with d,
  * the conjugated symbols via the involution-compatibility identity
    act(xi, f*) = (act(star(antipode(xi)), f))*, with the symbol
    involution :func:`~qmatball.algebras.star_words`,

and extended to words by the twisted Leibniz rule encoded in the coproduct:
the E-letters scale the prefix by its K-eigenvalue, the F-letters scale the
suffix by its K^{-1}-eigenvalue.  K_j scales a monomial by q**mu_j, where mu
is its torus weight summed from :func:`~qmatball.words.generator_weight`.
"""

from __future__ import annotations

import functools
import re

from .algebras import differential, star_words
from .field import ONE, Scalar, ZERO, add_terms, q_pow, s_pow
from .words import NCPoly, Presentation, generator_weight, sym

__all__ = [
    "UqElement",
    "E",
    "F",
    "K",
    "Kinv",
    "coproduct",
    "expand_leg",
    "antipode",
    "counit",
    "star_sunm",
    "act",
    "letter_token",
    "parse_letter",
]

_LETTER_KINDS = ("E", "F", "K", "Kinv")


def letter_token(letter: tuple) -> str:
    kind, j = letter
    return f"K{j}inv" if kind == "Kinv" else f"{kind}{j}"


_TOKEN_RE = re.compile(r"^(E|F|K)(\d+)(inv)?$")


def parse_letter(token: str) -> tuple:
    m = _TOKEN_RE.match(token)
    if not m or (m.group(3) and m.group(1) != "K"):
        raise ValueError(f"bad letter token {token!r}")
    kind = "Kinv" if m.group(3) else m.group(1)
    return (kind, int(m.group(2)))


class UqElement(NCPoly):
    """Scalar-linear combination of free words in the four letter families.

    The ring structure is :class:`~qmatball.words.NCPoly`'s, over words of
    ``(kind, j)`` letters; only construction and text differ.
    """

    __slots__ = ()

    @classmethod
    def letter(cls, kind: str, j: int) -> "UqElement":
        if kind not in _LETTER_KINDS:
            raise ValueError(f"unknown letter kind {kind!r}")
        if j < 1:
            raise ValueError("letter index must be >= 1")
        return cls({((kind, j),): ONE}, _clean=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            word = " ".join(letter_token(l) for l in w) or "1"
            bits.append(f"({c.pretty()})*{word}")
        return " + ".join(bits)


def E(j: int) -> UqElement:
    return UqElement.letter("E", j)


def F(j: int) -> UqElement:
    return UqElement.letter("F", j)


def K(j: int) -> UqElement:
    return UqElement.letter("K", j)


def Kinv(j: int) -> UqElement:
    return UqElement.letter("Kinv", j)


# ---------------------------------------------------------------------------
# coalgebra structure


def _letter_coproduct(letter: tuple) -> list:
    """2-leg coproduct of one letter: list of ((left word, right word), coeff)."""
    kind, j = letter
    if kind == "E":
        return [(((letter,), ()), ONE), (((("K", j),), (letter,)), ONE)]
    if kind == "F":
        return [(((letter,), (("Kinv", j),)), ONE), (((), (letter,)), ONE)]
    return [(((letter,), (letter,)), ONE)]


def _word_coproduct(word: tuple) -> dict:
    """2-leg coproduct of a word (multiplicativity of the coproduct)."""
    acc = {((), ()): ONE}
    for letter in word:
        acc = add_terms({}, (
            ((l_acc + l_new, r_acc + r_new), c * c2)
            for (l_acc, r_acc), c in acc.items()
            for (l_new, r_new), c2 in _letter_coproduct(letter)
        ))
    return acc


def expand_leg(tensor: dict, leg: int) -> dict:
    """Apply the coproduct to one leg of a tensor {words-tuple: Scalar}."""
    return add_terms({}, (
        (words[:leg] + (lw, rw) + words[leg + 1 :], c * c2)
        for words, c in tensor.items()
        for (lw, rw), c2 in _word_coproduct(words[leg]).items()
    ))


def coproduct(xi: UqElement, legs: int = 2) -> dict:
    """Iterated coproduct: {tuple of `legs` words: Scalar}."""
    if legs < 2:
        raise ValueError("the coproduct needs at least two legs")
    tensor = {(w,): c for w, c in xi.terms.items()}
    for _ in range(legs - 1):
        tensor = expand_leg(tensor, len(next(iter(tensor), ((),))) - 1)
    return tensor


def _letter_antipode(letter: tuple) -> tuple:
    """(word, coeff) for the antipode of one letter."""
    kind, j = letter
    if kind == "E":
        return ((("Kinv", j), letter), -ONE)
    if kind == "F":
        return ((letter, ("K", j)), -ONE)
    if kind == "K":
        return ((("Kinv", j),), ONE)
    return ((("K", j),), ONE)


def _reversed_image(w: tuple, coeff: Scalar, letter_image) -> tuple:
    """(word, coeff) of coeff * w under an anti-multiplicative letter map."""
    word: tuple = ()
    for letter in reversed(w):
        lw, lc = letter_image(letter)
        word = word + lw
        coeff = coeff * lc
    return word, coeff


def antipode(xi: UqElement) -> UqElement:
    return UqElement(add_terms({}, (
        _reversed_image(w, c, _letter_antipode) for w, c in xi.terms.items()
    )), _clean=True)


def counit(xi: UqElement) -> Scalar:
    total = ZERO
    for w, c in xi.terms.items():
        if all(kind in ("K", "Kinv") for kind, _ in w):
            total = total + c
    return total


def star_sunm(xi: UqElement, n: int) -> UqElement:
    """The compact-real-form involution with the sign flip at node n.

    Antilinear and anti-multiplicative; K-letters are fixed, and
    E_j* = K_j F_j, F_j* = E_j K_j^{-1}, each acquiring a minus sign at the
    distinguished node j = n.
    """
    def letter_star(letter: tuple):
        kind, j = letter
        sgn = -ONE if j == n else ONE
        if kind == "E":
            return ((("K", j), ("F", j)), sgn)
        if kind == "F":
            return ((("E", j), ("Kinv", j)), sgn)
        return ((letter,), ONE)

    return UqElement(add_terms({}, (
        _reversed_image(w, c.conjugate(), letter_star) for w, c in xi.terms.items()
    )), _clean=True)


# ---------------------------------------------------------------------------
# the action


def _z_table(letter: tuple, a: int, al: int, m: int, n: int) -> NCPoly:
    """Action of an E or F letter on the plain coordinate with indices (a, al)."""
    kind, j = letter
    N = m + n
    g = sym("z", a, al)
    if kind == "E":
        if j < n:
            if a == j + 1:
                return NCPoly.from_word((sym("z", j, al),), s_pow(-1))
            return NCPoly.zero()
        if j > n:
            if al == N - j + 1:
                return NCPoly.from_word((sym("z", a, N - j),), s_pow(-1))
            return NCPoly.zero()
        # the distinguished node: quadratic raising
        znm = sym("z", n, m)
        if a == n and al == m:
            return NCPoly.from_word((znm, znm), -s_pow(1))
        if a == n or al == m:
            return NCPoly.from_word((znm, g), -s_pow(1))
        return NCPoly.from_word((sym("z", a, m), sym("z", n, al)), -s_pow(-1))
    # kind == "F"
    if j < n:
        if a == j:
            return NCPoly.from_word((sym("z", j + 1, al),), s_pow(1))
        return NCPoly.zero()
    if j > n:
        if al == N - j:
            return NCPoly.from_word((sym("z", a, N - j + 1),), s_pow(1))
        return NCPoly.zero()
    if a == n and al == m:
        return NCPoly.from_word((), s_pow(1))
    return NCPoly.zero()


def _f0_table(letter: tuple, m: int, n: int) -> NCPoly:
    """Action of an E or F letter on the projector."""
    kind, j = letter
    f0 = sym("f0")
    if j != n:
        return NCPoly.zero()
    if kind == "E":
        coeff = (-s_pow(1)) / (ONE - q_pow(2))
        return NCPoly.from_word((sym("z", n, m), f0), coeff)
    coeff = (-s_pow(1)) / (q_pow(-2) - ONE)
    return NCPoly.from_word((f0, sym("zs", n, m)), coeff)


@functools.lru_cache(maxsize=None)
def _symbol_table(letter: tuple, g_kind: str, a: int, al: int, m: int, n: int) -> NCPoly:
    """Action of an E or F letter on one generator symbol, as a raw
    polynomial; :func:`_letter_terms` scales by the K letters itself."""
    if g_kind == "z":
        return _z_table(letter, a, al, m, n)
    if g_kind == "dz":
        return differential(_z_table(letter, a, al, m, n))
    if g_kind == "f0":
        return _f0_table(letter, m, n)
    if g_kind == "zs":
        # involution compatibility: xi(f*) = ((S(xi))* f)*
        xi = UqElement.letter(*letter)
        eta = star_sunm(antipode(xi), n)
        base = NCPoly.from_word((sym("z", a, al),), ONE)
        moved = _act_free(eta, base, m, n)
        return star_words(moved)
    if g_kind == "dzs":
        return differential(_symbol_table(letter, "zs", a, al, m, n))
    raise ValueError(f"no action table for symbol kind {g_kind!r}")


def _letter_terms(letter: tuple, terms: dict, m: int, n: int):
    """(word, coeff) pairs of one letter acting on {word: Scalar} terms by the
    twisted Leibniz rule."""
    kind, j = letter
    for w, c in terms.items():
        if kind in ("K", "Kinv"):
            mu = sum(generator_weight(g, m, n)[j - 1] for g in w)
            yield w, c * q_pow(mu if kind == "K" else -mu)
            continue
        for i, g in enumerate(w):
            tbl = _symbol_table(letter, g.kind, g.row, g.col, m, n)
            if not tbl:
                continue
            if kind == "E":
                mu = sum(generator_weight(x, m, n)[j - 1] for x in w[:i])
            else:
                mu = -sum(generator_weight(x, m, n)[j - 1] for x in w[i + 1 :])
            factor = c * q_pow(mu)
            for tw, tc in tbl.terms.items():
                yield w[:i] + tw + w[i + 1 :], factor * tc


def _act_free(xi: UqElement, f: NCPoly, m: int, n: int) -> NCPoly:
    """xi acting on f without any rewriting (free words)."""
    acc: dict = {}
    for w, c in xi.terms.items():
        cur = f.terms
        for letter in reversed(w):
            cur = add_terms({}, _letter_terms(letter, cur, m, n))
        add_terms(acc, ((fw, fc * c) for fw, fc in cur.items()))
    return NCPoly(acc, _clean=True)


def act(xi: UqElement, f: NCPoly, preset: Presentation) -> NCPoly:
    """The covariant action, returned in normal form."""
    m, n = preset.m, preset.n
    N = m + n
    for w in xi.terms:
        for kind, j in w:
            if not 1 <= j <= N - 1:
                raise ValueError(
                    f"letter index {j} outside 1..{N - 1} for this preset"
                )
    reduced = preset.normal_form(f)  # rejects symbols outside the alphabet
    return preset.normal_form(_act_free(xi, reduced, m, n))
