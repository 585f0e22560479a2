"""Exchange-coefficient tables and the commutation rules derived from them.

Four tables drive every cross-commutation rule in the package.  Each is a
matrix acting on ordered index pairs; rows are the output (primed) pair and
columns the input (unprimed) pair:

    'UU'    exchange of two row-type indices
    'VV'    exchange of two column-type indices
    'barUU' exchange of a conjugated with a plain row-type index
    'barVV' exchange of a conjugated with a plain column-type index

The plain tables satisfy the braid identity and the quadratic Hecke identity
(R - q^{-1})(R + q) = 0, hence are invertible with inverse R + (q - q^{-1}).
The conjugated ('bar') tables are unipotent-triangular perturbations of a
permutation-free diagonal; they satisfy no Hecke-type quadratic but are
exactly invertible, which is all the rule derivations need.

From these tables we *derive* oriented rewriting rules:

  * coordinate-vs-conjugate cross rules (with the inhomogeneous delta term),
  * coordinate-vs-differential rules, by exactly inverting the exchange
    matrix,
  * wedge rules among differentials, by row-reducing the quadratic exchange
    system and solving for the non-normal pair words,
  * the conjugated variants of all of the above.

Derivations happen once per (m, n) and are cached by the preset layer.
"""

from __future__ import annotations

import itertools

from .field import ONE, Scalar, ZERO, add_terms, q_pow
from .linalg import mat_identity, mat_invert, mat_mul, mat_rref
from .words import NCPoly, sym

__all__ = [
    "rhat",
    "rhat_operator",
    "hecke_holds",
    "braid_holds",
    "rhat_inverse",
    "hecke_shift_inverse_ok",
    "verify_rhat_properties",
    "rules_cross_conj",
    "rules_coord_diff",
    "rules_wedge",
    "rules_conj_coord_diff",
]

TAGS = ("UU", "VV", "barUU", "barVV")

_QINV = q_pow(-1)
_RECOMB = q_pow(-1) - q_pow(1)  # q^{-1} - q
_BAR_RECOMB = -(q_pow(-2) - ONE)  # -(q^{-2} - 1)


def _entry_plain(pp: tuple, up: tuple) -> Scalar:
    bp, ap = pp
    b, a = up
    if a == b == ap == bp:
        return _QINV
    if a != b and a == ap and b == bp:
        return ONE
    if a < b and a == bp and b == ap:
        return _RECOMB
    return ZERO


def _entry_bar(pp: tuple, up: tuple) -> Scalar:
    bp, ap = pp
    b, a = up
    if a != b and b == bp and a == ap:
        return _QINV
    if a == b == ap == bp:
        return ONE
    if a == b and ap == bp and ap > a:
        return _BAR_RECOMB
    return ZERO


def rhat(tag: str, d: int) -> dict:
    """Full entry table {((primed pair), (unprimed pair)): Scalar}."""
    if tag not in TAGS:
        raise ValueError(f"unknown exchange table {tag!r}")
    entry = _entry_plain if tag in ("UU", "VV") else _entry_bar
    pairs = list(itertools.product(range(1, d + 1), repeat=2))
    return {(pp, up): entry(pp, up) for pp in pairs for up in pairs}


def rhat_operator(tag: str, d: int):
    """The exchange operator on ordered pair words.

    The stored tables couple an input pair (b, a) to an output pair
    (b', a'), but the commutation rules place the output indices in the
    *opposite* word order: left symbol a', right symbol b'.  Realized on
    pair words (left, right) the operator therefore reads the output pair
    reversed, and it is this matrix that the quadratic and braid
    identities hold for.
    """
    table = rhat(tag, d)
    pairs = list(itertools.product(range(1, d + 1), repeat=2))
    mat = [[table[((y, x), up)] for up in pairs] for (x, y) in pairs]
    return pairs, mat


def hecke_holds(tag: str, d: int) -> bool:
    """(R - q^{-1} I)(R + q I) == 0."""
    _, R = rhat_operator(tag, d)
    k = len(R)
    A = [[R[i][j] - (_QINV if i == j else ZERO) for j in range(k)] for i in range(k)]
    B = [[R[i][j] + (q_pow(1) if i == j else ZERO) for j in range(k)] for i in range(k)]
    P = mat_mul(A, B)
    return all(not P[i][j] for i in range(k) for j in range(k))


def _leg_matrices(R, d: int):
    """Embed a pair matrix into triples as R x id and id x R."""
    triples = list(itertools.product(range(d), repeat=3))
    idx = {t: i for i, t in enumerate(triples)}
    k = len(triples)
    R12 = [[ZERO] * k for _ in range(k)]
    R23 = [[ZERO] * k for _ in range(k)]
    pairs = list(itertools.product(range(d), repeat=2))
    pidx = {p: i for i, p in enumerate(pairs)}
    for (i, j, l) in triples:
        row = idx[(i, j, l)]
        for (ip, jp) in pairs:
            v = R[pidx[(ip, jp)]][pidx[(i, j)]]
            if v:
                R12[idx[(ip, jp, l)]][row] = v
            v = R[pidx[(ip, jp)]][pidx[(j, l)]]
            if v:
                R23[idx[(i, ip, jp)]][row] = v
    return R12, R23


def braid_holds(tag: str, d: int) -> bool:
    """R12 R23 R12 == R23 R12 R23 on triples."""
    _, R = rhat_operator(tag, d)
    R12, R23 = _leg_matrices(R, d)
    lhs = mat_mul(mat_mul(R12, R23), R12)
    rhs = mat_mul(mat_mul(R23, R12), R23)
    return lhs == rhs


def rhat_inverse(tag: str, d: int):
    """Exact inverse of the exchange operator, or None when singular."""
    _, R = rhat_operator(tag, d)
    try:
        return mat_invert(R)
    except ValueError:
        return None


def hecke_shift_inverse_ok(tag: str, d: int) -> bool:
    """For the plain tags the Hecke identity predicts R^{-1} = R + (q - q^{-1})."""
    if tag not in ("UU", "VV"):
        raise ValueError("the Hecke-shift inverse only applies to UU/VV")
    _, R = rhat_operator(tag, d)
    k = len(R)
    shift = q_pow(1) - _QINV
    pred = [[R[i][j] + (shift if i == j else ZERO) for j in range(k)] for i in range(k)]
    return mat_mul(R, pred) == mat_identity(k)


def verify_rhat_properties(tag: str, d: int) -> dict:
    """Consistency report; which identities apply depends on the tag."""
    report = {"tag": tag, "d": d}
    if tag in ("UU", "VV"):
        report["hecke"] = hecke_holds(tag, d)
        report["braid"] = braid_holds(tag, d)
        report["hecke_shift_inverse"] = hecke_shift_inverse_ok(tag, d)
        report["invertible"] = report["hecke_shift_inverse"] or rhat_inverse(tag, d) is not None
    else:
        report["invertible"] = rhat_inverse(tag, d) is not None
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


def _nonzero_columns(table: dict) -> dict:
    """{unprimed pair: [(primed pair, entry)]} over the nonzero entries of
    an :func:`rhat` table, the primed pairs in lexicographic order."""
    cols: dict = {}
    for (pp, up), c in table.items():
        if c:
            cols.setdefault(up, []).append((pp, c))
    return cols


def rules_cross_conj(m: int, n: int, left_kind: str, right_kind: str) -> dict:
    """Rules moving a conjugated-type symbol past a coordinate-type one.

    Handles the patterns [zs z], [dzs z], [zs dz], [dzs dz].  All four share
    the same q^2 * barUU * barVV coefficient; only [zs z] has the extra
    inhomogeneous delta term, and [dzs dz] carries an overall minus sign.
    """
    if left_kind not in ("zs", "dzs") or right_kind not in ("z", "dz"):
        raise ValueError("left kind must be conjugated, right kind plain")
    uu = _nonzero_columns(rhat("barUU", n))
    vv = _nonzero_columns(rhat("barVV", m))
    out_left = {"zs": "z", "dzs": "z"}[left_kind] if right_kind == "z" else "dz"
    out_right = {"zs": "zs", "dzs": "dzs"}[left_kind]
    sign = -ONE if (left_kind, right_kind) == ("dzs", "dz") else ONE
    q2 = q_pow(2)
    rules = {}
    for (b, be) in _full_indices(m, n):
        for (a, al) in _full_indices(m, n):
            pat = (sym(left_kind, b, be), sym(right_kind, a, al))
            terms = (
                (
                    (sym(out_left, ap_, alp), sym(out_right, bp, bep)),
                    sign * q2 * cu * cv,
                )
                for (bp, ap_), cu in uu.get((b, a), ())
                for (bep, alp), cv in vv.get((be, al), ())
            )
            repl = NCPoly(add_terms({}, terms), _clean=True)
            if (left_kind, right_kind) == ("zs", "z") and a == b and al == be:
                repl = repl + NCPoly.from_word((), ONE - q_pow(2))
            rules[pat] = repl
    return rules


def _exchange_matrix(m: int, n: int):
    """Matrix M with  z_b^be dz_a^al = sum M[(b,be,a,al),(bp,bep,ap,alp)] dz_ap^alp z_bp^bep."""
    uu = rhat("UU", n)
    vv = rhat("VV", m)
    idx = [
        (b, be, a, al)
        for (b, be) in _full_indices(m, n)
        for (a, al) in _full_indices(m, n)
    ]
    pos = {t: i for i, t in enumerate(idx)}
    k = len(idx)
    M = [[ZERO] * k for _ in range(k)]
    for (b, be, a, al) in idx:
        r = pos[(b, be, a, al)]
        for (bp, ap_) in itertools.product(range(1, n + 1), repeat=2):
            cu = uu[((bp, ap_), (b, a))]
            if not cu:
                continue
            for (bep, alp) in itertools.product(range(1, m + 1), repeat=2):
                cv = vv[((bep, alp), (be, al))]
                if not cv:
                    continue
                M[r][pos[(bp, bep, ap_, alp)]] = cu * cv
    return idx, M


def rules_coord_diff(m: int, n: int) -> dict:
    """Rules between coordinates and their differentials.

    Differentials are oriented to the right of coordinates: the patterns
    are [dz z], with coefficients from the exact inverse of the exchange
    matrix.
    """
    idx, M = _exchange_matrix(m, n)
    pos = {t: i for i, t in enumerate(idx)}
    Minv = mat_invert(M)
    rules = {}
    # column c of M holds word dz_ap^alp z_bp^bep; row r holds z_b^be dz_a^al
    for (bp, bep, ap_, alp) in idx:
        c = pos[(bp, bep, ap_, alp)]
        pat = (sym("dz", ap_, alp), sym("z", bp, bep))
        acc = {}
        for (b, be, a, al) in idx:
            v = Minv[c][pos[(b, be, a, al)]]
            if v:
                acc[(sym("z", b, be), sym("dz", a, al))] = v
        rules[pat] = NCPoly(acc)
    return rules


def rules_wedge(m: int, n: int, kind: str = "dz") -> dict:
    """Quadratic rules among differentials, solved from the exchange system.

    For kind='dz' the system is (Id + M) applied to pair words; for
    kind='dzs' the conjugated system (entries conjugated, symbols starred,
    words reversed) is solved instead.  Pivots must land on the non-normal
    (weakly descending) pair words; anything else raises.
    """
    if kind not in ("dz", "dzs"):
        raise ValueError("wedge rules exist for dz or dzs only")
    idx, M = _exchange_matrix(m, n)
    pos = {t: i for i, t in enumerate(idx)}
    gens = _full_indices(m, n)  # (row, col) pairs, ascending lex
    gpos = {g: i for i, g in enumerate(gens)}
    ng = len(gens)
    pair_words = [(u, v) for u in gens for v in gens]

    def col_word(u, v):
        return (sym(kind, u[0], u[1]), sym(kind, v[0], v[1]))

    # assemble equations: for each (b,be,a,al):
    #   x[(b,be),(a,al)] + sum M[r][c] * x[(ap,alp),(bp,bep)] = 0
    # conjugating every coefficient and reversing each word for kind='dzs'
    eqs = []
    for (b, be, a, al) in idx:
        r = pos[(b, be, a, al)]
        row = add_terms({((b, be), (a, al)): ONE}, (
            (((ap_, alp), (bp, bep)), M[r][pos[(bp, bep, ap_, alp)]])
            for (bp, bep, ap_, alp) in idx
        ))
        eqs.append(row)
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
