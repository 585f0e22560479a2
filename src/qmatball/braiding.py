"""Exchange-coefficient tables and the commutation rules derived from them.

Four tables drive every cross-commutation rule in the package.  Each is a
sparse matrix on ordered index pairs, {(primed pair, unprimed pair): entry}
over its nonzero entries; rows are the output (primed) pair and columns the
input (unprimed) pair:

    'UU'    exchange of two row-type indices
    'VV'    exchange of two column-type indices
    'barUU' exchange of a conjugated with a plain row-type index
    'barVV' exchange of a conjugated with a plain column-type index

The plain tables satisfy the braid identity and the quadratic Hecke identity
(R - q^{-1})(R + q) = 0, hence are invertible with inverse R + (q - q^{-1}).
The conjugated ('bar') tables are unipotent-triangular perturbations of a
permutation-free diagonal; they satisfy no Hecke-type quadratic but are
exactly invertible, which is all the rule derivations need.  Invertibility
is certified by shape: in lexicographic pair order the plain tables are
upper and the bar tables lower triangular, every diagonal entry nonzero.

From these tables we *derive* oriented rewriting rules, each family from
the columns of a Kronecker product of two tables (one on row indices, one
on column indices):

  * coordinate-vs-conjugate cross rules (with the inhomogeneous delta term),
  * coordinate-vs-differential rules, from the closed-form Hecke inverse of
    the plain tables,
  * wedge rules among differentials, by row-reducing the quadratic exchange
    system and solving for the non-normal pair words,
  * the conjugated variants of all of the above.

Derivations happen once per (m, n) and are cached by the preset layer.
"""

from __future__ import annotations

import itertools

from .field import ONE, ZERO, add_terms, q_pow
from .linalg import mat_rref
from .words import NCPoly, sym

__all__ = [
    "rhat",
    "rhat_operator",
    "hecke_holds",
    "braid_holds",
    "hecke_shift_inverse_ok",
    "verify_rhat_properties",
    "rules_cross_conj",
    "rules_coord_diff",
    "rules_wedge",
    "rules_conj_coord_diff",
]

TAGS = ("UU", "VV", "barUU", "barVV")

_Q = q_pow(1)
_QINV = q_pow(-1)
_RECOMB = q_pow(-1) - q_pow(1)  # q^{-1} - q
_BAR_RECOMB = -(q_pow(-2) - ONE)  # -(q^{-2} - 1)


def _pairs(d: int) -> list:
    return list(itertools.product(range(1, d + 1), repeat=2))


def rhat(tag: str, d: int) -> dict:
    """Nonzero entries {((primed pair), (unprimed pair)): Scalar}, in
    lexicographic order of (primed pair, unprimed pair)."""
    if tag not in TAGS:
        raise ValueError(f"unknown exchange table {tag!r}")
    table = {}
    for b, a in _pairs(d):
        if tag in ("UU", "VV"):
            table[((b, a), (b, a))] = _QINV if a == b else ONE
            if a < b:
                table[((a, b), (b, a))] = _RECOMB
        elif a != b:
            table[((b, a), (b, a))] = _QINV
        else:
            table[((a, a), (a, a))] = ONE
            for c in range(a + 1, d + 1):
                table[((c, c), (a, a))] = _BAR_RECOMB
    return dict(sorted(table.items()))


def rhat_operator(tag: str, d: int) -> dict:
    """The exchange operator on ordered pair words, {(out word, in word):
    Scalar} over its nonzero entries.

    The stored tables couple an input pair (b, a) to an output pair
    (b', a'), but the commutation rules place the output indices in the
    *opposite* word order: left symbol a', right symbol b'.  Realized on
    pair words (left, right) the operator therefore reads the output pair
    reversed, and it is this matrix that the quadratic and braid
    identities hold for.
    """
    return {(pp[::-1], up): c for (pp, up), c in rhat(tag, d).items()}


def _compose(A: dict, B: dict) -> dict:
    """The product AB of sparse matrices {(row, col): entry}; a sum that
    cancels leaves no entry, so the zero matrix is the empty map."""
    rows: dict = {}
    for (j, k), b in B.items():
        rows.setdefault(j, []).append((k, b))
    out: dict = {}
    for (i, j), a in A.items():
        add_terms(out, (((i, k), a * b) for k, b in rows.get(j, ())))
    return out


def _shift(R: dict, c, d: int) -> dict:
    """R + c I on the pair words of dimension d."""
    return add_terms(dict(R), (((w, w), c) for w in _pairs(d)))


def hecke_holds(tag: str, d: int) -> bool:
    """(R - q^{-1} I)(R + q I) == 0."""
    R = rhat_operator(tag, d)
    return not _compose(_shift(R, -_QINV, d), _shift(R, _Q, d))


def braid_holds(tag: str, d: int) -> bool:
    """R12 R23 R12 == R23 R12 R23 on triples."""
    R = rhat_operator(tag, d)
    idx = range(1, d + 1)
    R12 = {((*o, l), (*i, l)): c for (o, i), c in R.items() for l in idx}
    R23 = {((l, *o), (l, *i)): c for (o, i), c in R.items() for l in idx}
    return _compose(_compose(R12, R23), R12) == _compose(_compose(R23, R12), R23)


def hecke_shift_inverse_ok(tag: str, d: int) -> bool:
    """For the plain tags the Hecke identity predicts R^{-1} = R + (q - q^{-1})."""
    if tag not in ("UU", "VV"):
        raise ValueError("the Hecke-shift inverse only applies to UU/VV")
    R = rhat_operator(tag, d)
    identity = {(w, w): ONE for w in _pairs(d)}
    return _compose(R, _shift(R, _Q - _QINV, d)) == identity


def _triangular_ok(table: dict, d: int) -> bool:
    """Invertibility certificate: the table is triangular in lexicographic
    pair order and every diagonal entry is nonzero, so its determinant is
    their product."""
    lower = all(pp >= up for pp, up in table)
    upper = all(pp <= up for pp, up in table)
    return (lower or upper) and all(table.get((p, p)) for p in _pairs(d))


def verify_rhat_properties(tag: str, d: int) -> dict:
    """Consistency report; which identities apply depends on the tag."""
    report = {"tag": tag, "d": d}
    if tag in ("UU", "VV"):
        report["hecke"] = hecke_holds(tag, d)
        report["braid"] = braid_holds(tag, d)
        report["hecke_shift_inverse"] = hecke_shift_inverse_ok(tag, d)
    report["invertible"] = _triangular_ok(rhat(tag, d), d)
    return report


# ---------------------------------------------------------------------------
# derived rule families
#
# Generators carry a row index in 1..n (row-type, 'U') and a column index in
# 1..m (column-type, 'V').  Below (b, beta) always indexes the left symbol of
# the pattern and (a, alpha) the right one.


def _full_indices(m: int, n: int):
    return [
        (b, be) for b in range(1, n + 1) for be in range(1, m + 1)
    ]


def _columns(table: dict) -> dict:
    """{unprimed pair: [(primed pair, entry)]} of a sparse table, the primed
    pairs in the table's order."""
    cols: dict = {}
    for (pp, up), c in table.items():
        cols.setdefault(up, []).append((pp, c))
    return cols


def _kron(uu: dict, vv: dict, m: int, n: int):
    """The columns of the Kronecker product of a row-index table and a
    column-index table, given by their :func:`_columns`.

    Yields ``((b, be), (a, al), terms)`` for every pair of generators in
    lexicographic order, where ``terms`` lists ``(bp, bep, ap, alp, cu * cv)``
    over the nonzero entries cu = U[(bp, ap), (b, a)] and
    cv = V[(bep, alp), (be, al)], U's entries outermost.
    """
    gens = _full_indices(m, n)
    for b, be in gens:
        for a, al in gens:
            yield (b, be), (a, al), [
                (bp, bep, ap, alp, cu * cv)
                for (bp, ap), cu in uu.get((b, a), ())
                for (bep, alp), cv in vv.get((be, al), ())
            ]


def rules_cross_conj(m: int, n: int, left_kind: str, right_kind: str) -> dict:
    """Rules moving a conjugated-type symbol past a coordinate-type one.

    Handles the patterns [zs z], [dzs z], [zs dz], [dzs dz].  All four share
    the same q^2 * barUU * barVV coefficient; only [zs z] has the extra
    inhomogeneous delta term, and [dzs dz] carries an overall minus sign.
    """
    if left_kind not in ("zs", "dzs") or right_kind not in ("z", "dz"):
        raise ValueError("left kind must be conjugated, right kind plain")
    uu = _columns(rhat("barUU", n))
    vv = _columns(rhat("barVV", m))
    sign = -ONE if (left_kind, right_kind) == ("dzs", "dz") else ONE
    scale = sign * q_pow(2)
    rules = {}
    for (b, be), (a, al), col in _kron(uu, vv, m, n):
        pat = (sym(left_kind, b, be), sym(right_kind, a, al))
        terms = (
            ((sym(right_kind, ap, alp), sym(left_kind, bp, bep)), scale * c)
            for bp, bep, ap, alp, c in col
        )
        repl = NCPoly(add_terms({}, terms), _clean=True)
        if (left_kind, right_kind) == ("zs", "z") and a == b and al == be:
            repl = repl + NCPoly.from_word((), ONE - q_pow(2))
        rules[pat] = repl
    return rules


def _hecke_inverse(tag: str, d: int) -> dict:
    """Columns of the inverse of a plain table, in closed form.

    With P the reversal of pairs the operator is R = P T, so the Hecke
    inverse R^{-1} = R + (q - q^{-1}) gives
    T^{-1}[(u, p)] = T[(u reversed, p reversed)] + (q - q^{-1}) [u = p reversed].
    Raises ArithmeticError when the table fails that inverse.
    """
    if not hecke_shift_inverse_ok(tag, d):
        raise ArithmeticError(f"{tag} (dim {d}) fails its Hecke-shift inverse")
    inv = {(pp[::-1], up[::-1]): c for (pp, up), c in rhat(tag, d).items()}
    add_terms(inv, (((p[::-1], p), _Q - _QINV) for p in _pairs(d)))
    return _columns(dict(sorted(inv.items())))


def rules_coord_diff(m: int, n: int) -> dict:
    """Rules between coordinates and their differentials.

    The stated relations z_b^be dz_a^al = sum M dz_a'^al' z_b'^be' have
    the exchange matrix M[(b, be, a, al), (b', be', a', al')] =
    UU[(b', a'), (b, a)] VV[(be', al'), (be, al)].
    Differentials are oriented to the right of coordinates: the patterns
    are [dz z], with coefficients from the inverse of M.  The rule of each
    pattern is one column of the Kronecker product of the Hecke inverses
    of UU and VV.
    """
    uinv = _hecke_inverse("UU", n)
    vinv = _hecke_inverse("VV", m)
    # a column of a Hecke inverse has rows among (x, y) and (y, x) only, so
    # its row b fixes a, and the terms come in the lex order of (b, be, a, al)
    rules = {}
    for (bp, bep), (ap, alp), col in _kron(uinv, vinv, m, n):
        pat = (sym("dz", ap, alp), sym("z", bp, bep))
        rules[pat] = NCPoly({
            (sym("z", b, be), sym("dz", a, al)): c for b, be, a, al, c in col
        })
    return rules


def rules_wedge(m: int, n: int, kind: str = "dz") -> dict:
    """Quadratic rules among differentials, solved from the exchange system.

    For kind='dz' the system is (Id + M) applied to pair words, M the
    exchange matrix of :func:`rules_coord_diff`; for
    kind='dzs' the conjugated system (entries conjugated, symbols starred,
    words reversed) is solved instead.  Pivots must land on the non-normal
    (weakly descending) pair words; anything else raises.
    """
    if kind not in ("dz", "dzs"):
        raise ValueError("wedge rules exist for dz or dzs only")
    gens = _full_indices(m, n)  # (row, col) pairs, ascending lex
    gpos = {g: i for i, g in enumerate(gens)}
    pair_words = [(u, v) for u in gens for v in gens]

    def col_word(u, v):
        return (sym(kind, u[0], u[1]), sym(kind, v[0], v[1]))

    # one equation per pair word (b,be),(a,al) of the exchange system:
    #   x[(b,be),(a,al)] + sum UU VV x[(ap,alp),(bp,bep)] = 0
    # conjugating every coefficient and reversing each word for kind='dzs'
    uu = _columns(rhat("UU", n))
    vv = _columns(rhat("VV", m))
    eqs = [
        add_terms({(u, v): ONE}, (
            (((ap, alp), (bp, bep)), c) for bp, bep, ap, alp, c in col
        ))
        for u, v, col in _kron(uu, vv, m, n)
    ]
    if kind == "dzs":
        eqs = [
            {(v, u): c.conjugate() for (u, v), c in row.items()} for row in eqs
        ]

    nonnormal = [(u, v) for (u, v) in pair_words if gpos[u] >= gpos[v]]
    normal = [(u, v) for (u, v) in pair_words if gpos[u] < gpos[v]]
    order = nonnormal + normal
    colpos = {w: i for i, w in enumerate(order)}
    A = [[row.get(w, ZERO) for w in order] for row in eqs]
    R, pivots = mat_rref(A)
    if len(pivots) != len(nonnormal) or any(p >= len(nonnormal) for p in pivots):
        raise ValueError(
            f"wedge system for ({m},{n},{kind}) cannot be solved for the "
            f"non-normal pair words (pivots {pivots})"
        )
    rules = {}
    for rr, p in enumerate(pivots):
        u, v = order[p]
        acc = {}
        for w in normal:
            cval = R[rr][colpos[w]]
            if cval:
                acc[col_word(*w)] = -cval
        rules[col_word(u, v)] = NCPoly(acc)
    return rules


def rules_conj_coord_diff(m: int, n: int) -> dict:
    """Rules for patterns [zs dzs], obtained by conjugating the [dz z] rules."""
    base = rules_coord_diff(m, n)
    rules = {}
    for (dzsym, zsym), repl in base.items():
        pat = (sym("zs", zsym.row, zsym.col), sym("dzs", dzsym.row, dzsym.col))
        acc = {}
        for (zz, dd), c in repl.terms.items():
            w = (sym("dzs", dd.row, dd.col), sym("zs", zz.row, zz.col))
            acc[w] = c.conjugate()
        rules[pat] = NCPoly(acc)
    return rules
