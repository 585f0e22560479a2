"""The cyclic-module match through a degree bound, as a test-side oracle of
the rewriting engine.

The package proves the match at every degree with one finite certificate,
:func:`qmatball.fockrep.star_representation_ok`: the ladder operators are a
*-representation of FunU, so every rewriting step the engine takes is an
equality of operators.  That proof assumes the engine rewrites correctly.
The functions here do not: they build the vacuum orbit vectors
v_b = pi(b) e_0 of each degree on the ladder side and compare them, vector
by vector and Gram entry by Gram entry, with what the engine computes on
the cyclic module (:func:`qmatball.fockrep.cyclic_action` and the symbolic
Gram matrices).  A bug in ``lower``, ``reduce_word`` or ``_gram_entries``
shows here and not in the certificate.

The vacuum orbit vectors hold {(e, j): c} per basis vector (as
:meth:`qmatball.ladder.LadderOperator.apply_int` gives them) and each
||e_k||^2 is a Laurent polynomial in s over Z.  Two vectors pair only
through the ladder indices they share, so the ladder-side Gram matrix is
built index by index, from the pairs that share one, and a Scalar is made
once per nonzero entry; the ladder side of the vector comparison makes none.

Run directly, it prints the report at one size and degree and exits 1 on
any false key::

    PYTHONPATH=src:tests python tests/cyclic_oracle.py 3x3 5
"""

import sys
import time
from functools import lru_cache

from qmatball.algebras import make_preset
from qmatball.field import ONE, from_laurent, to_laurent
from qmatball.fockrep import _gram_entries, cyclic_action, hilbert_basis
from qmatball.ladder import coordinate_image, pol_image
from qmatball.words import NCPoly, sym


def laurent_conj(terms: dict) -> dict:
    """Complex conjugation of integer terms {(e, j): c} (the sum of
    c i^j s^e, see :func:`qmatball.field.to_laurent`): the i terms change
    sign."""
    return {key: -c if key[1] else c for key, c in terms.items()}


def laurent_dot(pairs) -> dict:
    """The sum of p * q over the pairs (p, q) of integer terms (i^2 = -1),
    with no zero coefficient."""
    acc: dict = {}
    get = acc.get
    for p, q in pairs:
        for (e, j), c in p.items():
            for (f, k), d in q.items():
                key = (e + f, j ^ k)
                acc[key] = get(key, 0) + (-c * d if j & k else c * d)
    return {key: c for key, c in acc.items() if c}


def apply_coordinate_word(word: tuple, m: int, n: int) -> dict:
    """The vector (image of the word applied to the vacuum), word read left
    to right, as {multi-index: integer terms} (see
    :meth:`qmatball.ladder.LadderOperator.apply_int`)."""
    vec = {(0,) * (m * n): {(0, 0): 1}}
    for g in reversed(word):
        vec = coordinate_image(g, m, n).apply_int(vec)
    return vec


@lru_cache(maxsize=None)
def vacuum_orbit(m: int, n: int, k: int) -> tuple:
    """The vacuum orbit vectors of the degree-k monomials, in
    :func:`hilbert_basis` order, as :func:`apply_coordinate_word` gives
    them.  Shared between callers: do not mutate."""
    return tuple(apply_coordinate_word(w, m, n) for w in hilbert_basis(m, n, k))


@lru_cache(maxsize=None)
def _weight_terms(k: tuple) -> dict:
    """||e_k||^2 = prod over legs l and 1 <= i <= k_l of (s^-4i - 1), as
    integer terms: a Laurent polynomial in s over Z."""
    out = {(0, 0): 1}
    for j in k:
        for i in range(1, j + 1):
            out = laurent_dot([(out, {(-4 * i, 0): 1, (0, 0): -1})])
    return out


def fock_gram_entries(m: int, n: int, k: int) -> dict:
    """The Gram matrix of the vacuum orbit vectors of the degree-k
    monomials, as {(p, r): integer terms of <v_p, v_r>} over p <= r, zero
    entries left out.

    <v_p, v_r> is the sum of v_p[K] conj(v_r[K]) ||e_K||^2 over the ladder
    indices K that both vectors reach, so the vectors are grouped by index
    and only pairs within a group are formed.  Entry (r, p) is the
    conjugate of entry (p, r).
    """
    by_index: dict = {}
    for p, v in enumerate(vacuum_orbit(m, n, k)):
        for key, terms in v.items():
            by_index.setdefault(key, []).append((p, terms))
    pairs: dict = {}
    for key, column in by_index.items():
        weight = _weight_terms(key)
        for i, (r, vr) in enumerate(column):
            dual = laurent_dot([(laurent_conj(vr), weight)])
            for p, vp in column[: i + 1]:
                pairs.setdefault((p, r), []).append((vp, dual))
    return {pr: acc for pr, ps in pairs.items() if (acc := laurent_dot(ps))}


def intertwines(f: NCPoly, m: int, n: int, k: int) -> bool:
    """Whether pi(f) v_psi = sum of c_u v_u for every degree-k basis word
    psi, with {u: c_u} = :func:`cyclic_action` of f on psi and
    v_b = pi(b) e_0 the vacuum orbit vectors (:func:`vacuum_orbit`).

    Both sides are integer vectors: the ladder side as
    :meth:`~qmatball.ladder.LadderOperator.apply_int` gives it, the module
    side summed with :func:`laurent_dot`.  A word u outside
    the basis fails the check.  Every rule coefficient lies in the ring
    Z[i][s, 1/s], so each c_u does too; one that does not makes
    :func:`~qmatball.field.to_laurent` raise ValueError naming it, so no
    verdict ever comes from a rounded value.
    """
    op = pol_image(f, m, n)
    orbits: dict = {}
    for psi, v in zip(hilbert_basis(m, n, k), vacuum_orbit(m, n, k)):
        pairs: dict = {}
        for u, c in cyclic_action(f, m, n, psi).items():
            cu = to_laurent(c)
            d = len(u)
            if d not in orbits:
                orbits[d] = dict(zip(hilbert_basis(m, n, d), vacuum_orbit(m, n, d)))
            vu = orbits[d].get(u)
            if vu is None:
                return False
            for key, p in vu.items():
                pairs.setdefault(key, []).append((cu, p))
        want = {key: p for key, ps in pairs.items() if (p := laurent_dot(ps))}
        if op.apply_int(v) != want:
            return False
    return True


def equivalence_report(m: int, n: int, through: int) -> dict:
    """Unitary-equivalence check between the two module pictures, on the
    slab of degrees <= through.

    * gram: the symbolic Gram matrix equals the ladder-side one
      (:func:`fock_gram_entries`) in every degree, so the vacuum-orbit map
      b f0 -> v_b = pi(b) e_0 is an isometry; the nonzero entries on and
      above the diagonal are compared, across the whole triangle, and each
      side's other entries are their conjugates;
    * raising/lowering: for every coordinate generator and its conjugate x,
      pi(x) v_psi equals the image of x psi f0 as integer vectors
      (:func:`intertwines`), so the map intertwines each letter exactly;
    * projector: f0 acts on the empty word as 1 (:func:`cyclic_action`
      drops every other word), as the rank-one projector onto the vacuum
      fixes e_0 = v_1.
    Comparing pairings <pi(x) v_p, v_r> instead would fix pi(x) v_p only up
    to vectors orthogonal to every v_r, and so would also need the v_r to
    span each degree of the ladder space; equal vectors need no such fact.
    """
    report = {"gram": True, "raising": True, "lowering": True, "projector": True}
    for k in range(through + 1):
        upper = {pr: c for pr, c in _gram_entries(m, n, k).items() if pr[0] <= pr[1]}
        ladder = {pr: from_laurent(terms) for pr, terms in fock_gram_entries(m, n, k).items()}
        if upper != ladder:
            report["gram"] = False
    for g in make_preset("Pol", m, n).symbols("z"):
        gs = sym("zs", g.row, g.col)
        if not all(intertwines(NCPoly.from_word((g,)), m, n, k) for k in range(through)):
            report["raising"] = False
        if not all(intertwines(NCPoly.from_word((gs,)), m, n, k) for k in range(1, through + 1)):
            report["lowering"] = False
    if cyclic_action(NCPoly.from_word((sym("f0"),)), m, n, ()) != {(): ONE}:
        report["projector"] = False
    return report


if __name__ == "__main__":
    ms, ns = sys.argv[1].split("x")
    t0 = time.perf_counter()
    report = equivalence_report(int(ms), int(ns), int(sys.argv[2]))
    print(f"{sys.argv[1]} through degree {sys.argv[2]}: {report}; "
          f"{time.perf_counter() - t0:.2f} s")
    sys.exit(0 if all(report.values()) else 1)
