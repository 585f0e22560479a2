"""Factory of algebra presets, the involution, and the differential.

Seven presets share one rewriting engine:

    CMat     coordinate algebra of the deformed matrix space
    CMatBar  its conjugate twin on starred coordinates
    Pol      both halves glued by the cross-commutation rules
    Lambda   coordinates plus their differentials (holomorphic forms)
    Omega    the full involutive differential calculus
    FunU     Pol extended by the rank-one projection generator
    DU       the finite-function slice of FunU (words through the projection)

A preset is a termination-checked :class:`~qmatball.words.Presentation`,
built once per (name, m, n) and cached, so the same arguments give the same
object.  The involution exists on Pol, Omega, FunU and DU only.
"""

from __future__ import annotations

import functools

from .braiding import (
    rules_conj_coord_diff,
    rules_coord_diff,
    rules_cross_conj,
    rules_wedge,
)
from .field import ONE, add_terms, q_pow
from .words import NCPoly, Presentation, sym

__all__ = [
    "PRESET_NAMES",
    "commutation_rules",
    "projection_rules",
    "make_preset",
    "parse_preset",
    "star",
    "star_words",
    "differential",
]

PRESET_NAMES = ("CMat", "CMatBar", "Pol", "Lambda", "Omega", "FunU", "DU")

_STAR_PRESETS = frozenset({"Pol", "Omega", "FunU", "DU"})

_STAR_KIND = {"z": "zs", "zs": "z", "dz": "dzs", "dzs": "dz", "f0": "f0"}

_DIFF_KIND = {"z": "dz", "zs": "dzs"}


def commutation_rules(m: int, n: int, kind: str = "z") -> dict:
    """Oriented quadratic rules among same-kind coordinates.

    Patterns are the strictly descending pairs in the row-major generator
    order.  Plain coordinates commute with coefficients (q^{-1}, 1, q^{-1}-q);
    the conjugated ones with the inverted coefficients (q, 1, q-q^{-1}).
    """
    if kind not in ("z", "zs"):
        raise ValueError("commutation rules exist for kinds z and zs")
    if kind == "z":
        qc, extra = q_pow(-1), q_pow(-1) - q_pow(1)
    else:
        qc, extra = q_pow(1), q_pow(1) - q_pow(-1)
    gens = [(a, al) for a in range(1, n + 1) for al in range(1, m + 1)]
    rules = {}
    for i, (b1, be1) in enumerate(gens):
        for (b2, be2) in gens[:i]:
            pat = (sym(kind, b1, be1), sym(kind, b2, be2))
            swap = (sym(kind, b2, be2), sym(kind, b1, be1))
            if b1 == b2 or be1 == be2:
                rules[pat] = NCPoly.from_word(swap, qc)
            elif be1 < be2:
                rules[pat] = NCPoly.from_word(swap, ONE)
            else:
                repl = NCPoly.from_word(swap, ONE) + NCPoly.from_word(
                    (sym(kind, b2, be1), sym(kind, b1, be2)), extra
                )
                rules[pat] = repl
    return rules


def projection_rules(m: int, n: int) -> dict:
    """Rules for the rank-one projection generator.

    The projection is idempotent, kills every plain coordinate on its right
    and every conjugated coordinate on its left.
    """
    f0 = sym("f0")
    rules: dict = {(f0, f0): NCPoly.from_word((f0,), ONE)}
    for a in range(1, n + 1):
        for al in range(1, m + 1):
            rules[(f0, sym("z", a, al))] = NCPoly.zero()
            rules[(sym("zs", a, al), f0)] = NCPoly.zero()
    return rules


@functools.lru_cache(maxsize=None)
def _build_presentation(name: str, m: int, n: int) -> Presentation:
    if name == "CMat":
        return Presentation(name, m, n, ("z",), commutation_rules(m, n, "z"))
    if name == "CMatBar":
        return Presentation(name, m, n, ("zs",), commutation_rules(m, n, "zs"))
    if name == "Pol":
        rules = {
            **commutation_rules(m, n, "z"),
            **commutation_rules(m, n, "zs"),
            **rules_cross_conj(m, n, "zs", "z"),
        }
        return Presentation(name, m, n, ("z", "zs"), rules)
    if name == "Lambda":
        rules = {
            **commutation_rules(m, n, "z"),
            **rules_coord_diff(m, n),
            **rules_wedge(m, n, "dz"),
        }
        return Presentation(name, m, n, ("z", "dz"), rules)
    if name == "Omega":
        rules = {
            **commutation_rules(m, n, "z"),
            **commutation_rules(m, n, "zs"),
            **rules_cross_conj(m, n, "zs", "z"),
            **rules_coord_diff(m, n),
            **rules_wedge(m, n, "dz"),
            **rules_wedge(m, n, "dzs"),
            **rules_conj_coord_diff(m, n),
            **rules_cross_conj(m, n, "dzs", "z"),
            **rules_cross_conj(m, n, "zs", "dz"),
            **rules_cross_conj(m, n, "dzs", "dz"),
        }
        return Presentation(name, m, n, ("z", "dz", "dzs", "zs"), rules)
    if name in ("FunU", "DU"):
        rules = {
            **commutation_rules(m, n, "z"),
            **commutation_rules(m, n, "zs"),
            **rules_cross_conj(m, n, "zs", "z"),
            **projection_rules(m, n),
        }
        return Presentation(name, m, n, ("z", "f0", "zs"), rules)
    raise ValueError(f"unknown preset {name!r}; known: {PRESET_NAMES}")


_CANONICAL = {p.lower(): p for p in PRESET_NAMES}


def make_preset(name: str, m: int, n: int) -> Presentation:
    """The presentation of a preset, one cached object per (name, m, n);
    the name is matched case-insensitively."""
    canonical = _CANONICAL.get(name.lower())
    if canonical is None:
        raise ValueError(f"unknown preset {name!r}; known: {PRESET_NAMES}")
    return _build_presentation(canonical, m, n)


def parse_preset(text: str) -> Presentation:
    """Resolve a CLI-style preset string such as ``"pol:2x2"``."""
    try:
        if not text.isascii():  # int() would read other scripts' digits
            raise ValueError("not ASCII")
        name, size = text.split(":")
        ms, ns = size.lower().split("x")
        m, n = int(ms), int(ns)
    except ValueError as exc:
        raise ValueError(
            f"malformed preset string {text!r}; expected e.g. 'pol:2x2'"
        ) from exc
    return make_preset(name, m, n)


def star_words(f: NCPoly) -> NCPoly:
    """The involution on symbols, without rewriting: each word reversed with
    every kind swapped for its conjugate, each coefficient conjugated.  A
    letter with no conjugate (a t letter) raises ValueError naming it."""
    pairs = (
        (tuple(map(_conjugate_letter, reversed(w))), c.conjugate())
        for w, c in f.terms.items()
    )
    return NCPoly(add_terms({}, pairs), _clean=True)


def _conjugate_letter(g):
    kind = _STAR_KIND.get(g.kind)
    if kind is None:
        raise ValueError(f"letter {g.token()} has no conjugate")
    return sym(kind, g.row, g.col)


def star(f: NCPoly, preset: Presentation) -> NCPoly:
    """The antilinear anti-automorphism, reduced to normal form.

    A letter of f outside the preset's alphabet raises ValueError naming it.
    """
    if preset.name not in _STAR_PRESETS:
        raise ValueError(f"preset {preset.name} does not support the involution")
    for w in f.terms:
        preset._check_word(w)
    return preset.normal_form(star_words(f))


def differential(f: NCPoly) -> NCPoly:
    """Graded Leibniz extension of coordinate -> differential.

    The result is the raw expansion (not reduced): each coordinate symbol is
    replaced in place by its differential, with the sign (-1)^(number of
    differential symbols to its left).  Differentials themselves map to zero.
    """
    return NCPoly(add_terms({}, _leibniz_terms(f)), _clean=True)


def _leibniz_terms(f: NCPoly):
    """(word, coeff) pairs of the graded Leibniz expansion of differential(f)."""
    for w, c in f.terms.items():
        parity = ONE
        for i, g in enumerate(w):
            kd = _DIFF_KIND.get(g.kind)
            if kd is None:
                if g.kind in ("dz", "dzs"):
                    parity = -parity
                continue
            yield w[:i] + (sym(kd, g.row, g.col),) + w[i + 1 :], parity * c
