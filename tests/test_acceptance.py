"""Acceptance battery: one test per certified property of the engine.

Each test prints a single PASS/FAIL line (visible with ``pytest -v`` through
the test outcome, and in captured output via the ACCEPTANCE lines) and
asserts the property it names.  Sample parameter points are q0 = 1/4 and
q0 = 81/100, entering the exact arithmetic through their rational square
roots s0 = 1/2 and s0 = 9/10.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from qmatball.algebras import (
    PRESET_NAMES,
    differential,
    make_preset,
    star,
)
from qmatball.braiding import TAGS, verify_rhat_properties
from qmatball.field import I, ONE, from_int
from qmatball.fockrep import (
    diagonal_laws_ok,
    equivalence_report,
    gram_minors_positive,
    hilbert_basis,
    projector_pairing_rank,
    rules_as_operators_failures,
    type_identity_ok,
    vacuum_modulus_ok,
)
from qmatball.integral import (
    antipode_square_twist_ok,
    invariance_defect,
    positivity_sample_ok,
)
from qmatball.uqaction import E, F, K, Kinv, UqElement, act, antipode, coproduct, star_sunm
from qmatball.words import NCPoly, sym

import rightmost_reduction as rightmost

SIZES = ((1, 1), (1, 2), (2, 1), (2, 2))
S0S = (Fraction(1, 2), Fraction(9, 10))  # square roots of the q0 samples


def _report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {number}: {label}"


def _letters(m: int, n: int) -> list:
    return [mk(j) for j in range(1, m + n) for mk in (E, F, K, Kinv)]


def _random_pairs(preset, rng, count: int, maxdeg: int = 3) -> list:
    alpha = preset.alphabet()

    def draw():
        out = NCPoly.zero()
        for _ in range(2):
            w = tuple(rng.choice(alpha) for _ in range(rng.randint(0, maxdeg)))
            c = from_int(rng.randint(-2, 2)) + I * rng.randint(-1, 1)
            out = out + preset.normal_form(NCPoly.from_word(w)).scale(c)
        return out

    return [(draw(), draw()) for _ in range(count)]


def test_criterion_01_dimension_formula():
    ok = True
    for m, n in SIZES:
        for name in ("CMat", "CMatBar"):
            preset = make_preset(name, m, n)
            for k in range(7):
                got = len(preset.basis_by_total_degree(k))
                ok = ok and got == comb(m * n + k - 1, k)
        pol = make_preset("Pol", m, n)
        for k in range(5):
            for l in range(5):
                got = len(pol.basis_words({"z": k, "zs": l}))
                want = comb(m * n + k - 1, k) * comb(m * n + l - 1, l)
                ok = ok and got == want
    _report(1, "graded and bigraded dimension formulas", ok)


def test_criterion_02_confluence():
    ok = True
    for m, n in ((1, 1), (1, 2), (2, 1), (2, 2), (2, 3)):
        for name in PRESET_NAMES:
            ok = ok and make_preset(name, m, n).confluence_violations() == []
    # the certificate's conclusion, sampled: the reference scan agrees
    rng = random.Random(20240)
    for name in PRESET_NAMES:
        preset = make_preset(name, 2, 2)
        alpha = preset.alphabet()
        for _ in range(200):
            w = tuple(rng.choice(alpha) for _ in range(rng.randint(0, 6)))
            f = NCPoly.from_word(w)
            ok = ok and preset.normal_form(f) == rightmost.normal_form(preset, f)
    _report(2, "every overlap resolves through 2x3; 200 words per preset match the reference", ok)


def _covariance_sample():
    out = {}
    for name in ("Pol", "FunU"):
        preset = make_preset(name, 2, 2)
        out[name] = (preset, _random_pairs(preset, random.Random(771), 100))
    return out


def test_criterion_03_module_algebra_covariance():
    ok = True
    for preset, pairs in _covariance_sample().values():
        letters = _letters(preset.m, preset.n)
        for f, g in pairs:
            fg = preset.multiply(f, g)
            for xi in letters:
                lhs = act(xi, fg, preset)
                rhs = NCPoly.zero()
                for (w1, w2), c in coproduct(xi, 2).items():
                    e1 = act(UqElement({w1: ONE}), f, preset)
                    e2 = act(UqElement({w2: ONE}), g, preset)
                    rhs = rhs + preset.multiply(e1, e2).scale(c)
                ok = ok and lhs == rhs
    _report(3, "action is a module-algebra morphism on 100 random pairs", ok)


def test_criterion_04_star_compatibility():
    ok = True
    for preset, pairs in _covariance_sample().values():
        letters = _letters(preset.m, preset.n)
        for f, _ in pairs:
            fs = star(f, preset)
            for xi in letters:
                lhs = act(xi, fs, preset)
                rhs = star(
                    act(star_sunm(antipode(xi), preset.n), f, preset), preset
                )
                ok = ok and lhs == rhs
    _report(4, "action intertwines the involutions on the same sample", ok)


def test_criterion_05_braiding_tables():
    ok = True
    for tag in ("UU", "VV"):
        for d in (2, 3):
            rep = verify_rhat_properties(tag, d)
            ok = ok and all(
                rep[key] for key in ("hecke", "braid", "hecke_shift_inverse", "invertible")
            )
    for tag in ("barUU", "barVV"):
        for d in (2, 3, 4):
            ok = ok and verify_rhat_properties(tag, d)["invertible"]
    _report(5, "Hecke, braid, and invertibility laws of the braiding tables", ok)


def test_criterion_06_representation_equivalence():
    ok = True
    for m, n in ((1, 1), (2, 2)):
        rep = equivalence_report(m, n, 4)
        ok = ok and all(rep.values())
        ok = ok and rules_as_operators_failures(m, n) == []
    _report(
        6,
        "ladder and cyclic-module representations match through degree 4, "
        "and every coordinate rule holds as an operator identity",
        ok,
    )


def test_criterion_07_diagonal_and_type_laws():
    ok = True
    for m, n in SIZES:
        ok = ok and diagonal_laws_ok(m, n)
        ok = ok and vacuum_modulus_ok(m, n, s0_list=S0S)
        ok = ok and type_identity_ok(m, n)
    _report(
        7,
        "corner/volume minors act diagonally, the vacuum modulus law holds "
        "at both sample points, and the adjoint/type identity holds at every "
        "degree",
        ok,
    )


def test_criterion_08_gram_positivity():
    ok = True
    for m, n in SIZES:
        for k in range(5):
            for s0 in S0S:
                ok = ok and gram_minors_positive(m, n, k, s0)
    _report(8, "leading principal Gram minors positive at both sample points", ok)


def test_criterion_09_invariant_integral():
    ok = True
    f0p = NCPoly.from_word((sym("f0"),))
    trio = ((1, 1), (1, 2), (2, 2))
    for m, n in trio:
        funu = make_preset("FunU", m, n)
        letters = [
            UqElement.letter(kind, j)
            for j in range(1, m + n)
            for kind in ("E", "F", "K", "Kinv")
        ]
        basis = [b for k in range(4) for b in hilbert_basis(m, n, k)]
        for wp in basis:
            left = NCPoly.from_word(wp) * f0p
            for wr in basis:
                f = left * star(NCPoly.from_word(wr), funu)
                for xi in letters:
                    ok = ok and not invariance_defect(xi, f, funu)
    for m, n in trio:
        funu = make_preset("FunU", m, n)
        rng = random.Random(4096 + 10 * m + n)
        basis = [b for k in range(3) for b in hilbert_basis(m, n, k)]
        checked = 0
        while checked < 8:
            f = NCPoly.zero()
            for _ in range(rng.randint(1, 3)):
                c = from_int(rng.randint(-3, 3)) + I * rng.randint(-2, 2)
                f = f + (NCPoly.from_word(rng.choice(basis)) * f0p).scale(c)
            if not funu.normal_form(f):
                continue
            for s0 in S0S:
                ok = ok and positivity_sample_ok(f, funu, s0)
            checked += 1
    for m, n in trio:
        ok = ok and antipode_square_twist_ok(make_preset("FunU", m, n), 4)
    _report(
        9,
        "integral is generator-invariant on all sandwich monomials of "
        "bidegree <= (3,3), positive on 24 random elements at both sample "
        "points, and satisfies the squared-antipode twist through degree 4",
        ok,
    )


def test_criterion_10_endomorphism_pairing_rank():
    ok = True
    for m, n in SIZES:
        for l in range(4):
            want = len(hilbert_basis(m, n, l))
            ok = ok and projector_pairing_rank(m, n, l, Fraction(1, 2)) == want
    _report(
        10,
        "the sandwich pairing block has full rank on every bidegree "
        "block through (3,3)",
        ok,
    )


def test_criterion_11_differential_calculus():
    ok = True
    for m, n in SIZES:
        lam = make_preset("Lambda", m, n)
        for k in range(5):
            got = len(lam.basis_words({"z": k, "dz": 1}))
            ok = ok and got == m * n * comb(m * n + k - 1, k)
    for m, n in SIZES:
        for name in ("Lambda", "Omega"):
            preset = make_preset(name, m, n)
            for k in range(5):
                for w in preset.basis_by_total_degree(k):
                    f = NCPoly.from_word(w)
                    dd = preset.normal_form(
                        differential(preset.normal_form(differential(f)))
                    )
                    ok = ok and not dd
    _report(
        11,
        "the differential squares to zero through degree 4 and the one-form "
        "component is free of rank m*n",
        ok,
    )
