"""The positive invariant integral on the projector-bearing function algebra.

Elements whose every term carries the rank-one projector act on the cyclic
module with finite rank, so they have a well-defined weighted trace: sum,
over the graded monomial basis, of the diagonal coefficient of the left
action times a modular weight factor.  The weight factor on a monomial is
q^(-2 sum_i d_i mu_i), where mu is the symmetry-weight of the monomial and
the coefficients d solve the Cartan system A d = (1, ..., 1) (closed form
d_i = i(N - i)/2).

This functional is:

* invariant -- precomposing with the symmetry action of any generator
  multiplies it by the counit of that generator;
* positive -- evaluating the integral of (conjugate f) f at real parameter
  points in (0, 1) gives a positive rational;
* twisted-tracial -- swapping factors costs exactly the modular factor of
  the element moved past, and the square of the antipode acts on the
  symmetry algebra by the matching conjugation.

Everything here is exact arithmetic; no limits are taken.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .algebras import make_preset, star
from .field import ONE, Scalar, ZERO, add_terms, s_pow
from .fockrep import hilbert_basis
from .uqaction import UqElement, act, antipode, counit
from .words import NCPoly, Presentation, sym

__all__ = [
    "modular_weights",
    "modular_exponent",
    "modular_factor",
    "integral_nu",
    "integral_nu_trace",
    "invariance_defect",
    "invariance_ok",
    "integral_is_real",
    "positivity_sample_ok",
    "twisted_trace_ok",
    "antipode_square_twist_ok",
]


@lru_cache(maxsize=None)
def modular_weights(N: int) -> tuple:
    """The rationals d_1..d_{N-1} with Cartan matrix A satisfying A d = 1.

    Built from the closed form d_i = i(N - i)/2 and checked exactly against
    the type-A Cartan system 2 d_i - d_{i-1} - d_{i+1} = 1, where
    d_0 = d_N = 0 (A is invertible, so this pins d).
    """
    if N < 2:
        raise ValueError("need at least two rows/columns")
    d = [Fraction(i * (N - i), 2) for i in range(N + 1)]
    if any(2 * d[i] - d[i - 1] - d[i + 1] != 1 for i in range(1, N)):
        raise ArithmeticError("Cartan system solution mismatch")
    return tuple(d[1:-1])


def modular_exponent(word: tuple, preset: Presentation) -> int:
    """The integer e with modular factor q^e for a graded monomial."""
    mu = preset.word_weight(word)
    d = modular_weights(preset.m + preset.n)
    e = -2 * sum(di * mi for di, mi in zip(d, mu))
    if e.denominator != 1:
        raise ArithmeticError("modular exponent is not an integer")
    return int(e)


def modular_factor(word: tuple, preset: Presentation) -> Scalar:
    """q^(-2 sum d_i mu_i) as an exact scalar."""
    return s_pow(2 * modular_exponent(word, preset))


def _require_projector_algebra(preset: Presentation):
    if "f0" not in preset.kinds:
        raise ValueError("the integral lives on the projector-bearing algebra")


def _validated_normal_form(f: NCPoly, preset: Presentation) -> NCPoly:
    _require_projector_algebra(preset)
    g = preset.normal_form(f)  # rejects symbols outside the alphabet
    for word in g.terms:
        if "f0" not in [s.kind for s in word]:
            raise ValueError("term without the projector letter is not integrable")
    return g


def integral_nu_trace(f: NCPoly, preset: Presentation) -> Scalar:
    """The invariant integral of f, computed from its defining trace form.

    Every term of f must carry the projector letter (such elements act with
    finite rank); terms with letters outside the algebra or no projector
    raise ValueError.  The value is the weighted trace of left
    multiplication on the cyclic module: for each graded basis monomial, the
    coefficient of that monomial in f times (monomial times projector),
    weighted by the modular factor of the monomial.
    """
    g = _validated_normal_form(f, preset)
    if not g:
        return ZERO
    kmax = max(sum(1 for s in word if s.kind == "zs") for word in g.terms)
    f0 = sym("f0")
    total = ZERO
    for k in range(kmax + 1):
        for w in hilbert_basis(preset.m, preset.n, k):
            target = w + (f0,)
            img = preset.multiply(g, NCPoly.from_word(target))
            c = img.coeff(target)
            if c:
                total = total + c * modular_factor(w, preset)
    return total


@lru_cache(maxsize=None)
def _sandwich_pairing(m: int, n: int, zspart: tuple, zpart: tuple) -> Scalar:
    """Projector coefficient of (projector, conjugate block, block, projector).

    This is the only matrix element a sandwich reaches on the diagonal of the
    cyclic module, so it carries the whole trace of left multiplication.  The
    lowering map strips one conjugate letter at a time, from the right; then
    f0 u f0 is f0 for the empty word u and 0 otherwise (f0 z = 0).
    """
    pres = make_preset("FunU", m, n)
    v = {zpart: ONE}
    for y in reversed(zspart):
        v = add_terms({}, (
            (u2, c * c2) for u, c in v.items() for u2, c2 in pres.lower(y, u).items()
        ))
    return v.get((), ZERO)


def integral_nu(f: NCPoly, preset: Presentation) -> Scalar:
    """The invariant integral of f.

    Same functional as :func:`integral_nu_trace` (agreement is pinned by the
    test suite), evaluated in closed form.  In normal form every integrable
    term is a sandwich: coordinate block, projector, conjugate block.  Left
    multiplication by a sandwich sends the basis monomial psi to
    (pairing of the conjugate block with psi) times the coordinate block, so
    only the basis monomial equal to the coordinate block contributes to the
    trace, with weight equal to its modular factor times the cached pairing
    coefficient.  Sandwiches with mixed block degrees pair to zero because
    rewriting preserves the coordinate/conjugate degree difference.
    """
    g = _validated_normal_form(f, preset)
    total = ZERO
    m, n = preset.m, preset.n
    for word, coeff in g.items():
        split = next(i for i, s in enumerate(word) if s.kind == "f0")
        zpart, zspart = word[:split], word[split + 1 :]
        if any(s.kind != "z" for s in zpart) or any(s.kind != "zs" for s in zspart):
            raise ArithmeticError(f"word {word} is not in sandwich normal form")
        if len(zpart) != len(zspart):
            continue
        pairing = _sandwich_pairing(m, n, zspart, zpart)
        if pairing:
            total = total + coeff * modular_factor(zpart, preset) * pairing
    return total


# ---------------------------------------------------------------------------
# the certifying properties


def invariance_defect(xi: UqElement, f: NCPoly, preset: Presentation) -> Scalar:
    """integral(xi acting on f) minus counit(xi) integral(f)."""
    lhs = integral_nu(act(xi, f, preset), preset)
    return lhs - counit(xi) * integral_nu(f, preset)


def invariance_ok(f: NCPoly, preset: Presentation) -> bool:
    """Invariance under every symmetry generator."""
    N = preset.m + preset.n
    for j in range(1, N):
        for kind in ("E", "F", "K", "Kinv"):
            if invariance_defect(UqElement.letter(kind, j), f, preset):
                return False
    return True


def integral_is_real(f: NCPoly, preset: Presentation) -> bool:
    """integral(conjugate of f) equals the conjugate of integral(f)."""
    lhs = integral_nu(star(f, preset), preset)
    return lhs == integral_nu(f, preset).conjugate()


def positivity_sample_ok(f: NCPoly, preset: Presentation, s0: Fraction) -> bool:
    """integral((conjugate f) f) evaluates to a positive rational at s0."""
    v = integral_nu(preset.multiply(star(f, preset), f), preset).eval_at(s0)
    return v.im == 0 and v.re > 0


def twisted_trace_ok(a: NCPoly, b: NCPoly, preset: Presentation) -> bool:
    """integral(a b) = integral(b sigma(a)) with sigma the modular twist.

    a must be weight-homogeneous (e.g. a scalar multiple of a monomial);
    sigma scales each such element by its modular factor.
    """
    words = list(preset.normal_form(a).terms)
    if not words:
        return integral_nu(preset.multiply(b, a), preset) == ZERO
    e = modular_exponent(words[0], preset)
    for w in words[1:]:
        if modular_exponent(w, preset) != e:
            raise ValueError("twist requires a weight-homogeneous element")
    lhs = integral_nu(preset.multiply(a, b), preset)
    rhs = integral_nu(preset.multiply(b, a), preset) * s_pow(2 * e)
    return lhs == rhs


def antipode_square_twist_ok(preset: Presentation, maxdeg: int) -> bool:
    """The antipode square acts like conjugation by the modular weights.

    For each symmetry generator xi and graded basis monomial b: acting by
    the antipode square equals acting by xi and rescaling each output
    monomial by the modular factor ratio (output over input).
    """
    N = preset.m + preset.n
    basis = []
    for k in range(maxdeg + 1):
        basis.extend(preset.basis_by_total_degree(k))
    for j in range(1, N):
        for kind in ("E", "F", "K"):
            xi = UqElement.letter(kind, j)
            ss = antipode(antipode(xi))
            for b in basis:
                bpoly = NCPoly.from_word(b)
                lhs = act(ss, bpoly, preset)
                eb = modular_exponent(b, preset)
                acted = act(xi, bpoly, preset)
                rhs = NCPoly(add_terms({}, (
                    (w, c * s_pow(2 * (modular_exponent(w, preset) - eb)))
                    for w, c in acted.terms.items()
                )), _clean=True)
                if lhs != rhs:
                    return False
    return True
