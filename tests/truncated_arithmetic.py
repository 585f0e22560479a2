"""Entry-by-entry arithmetic of operator slices, as a test-side reference.

The package's :class:`~qmatball.fockrep.TruncatedOperator` stores no
entries: its rows are its exact ladder operator evaluated column by column,
with a header computed without entries.  Here a slice is plain data
(:class:`Slice`, with :func:`collect` gathering a package slice's rows into
one), and the functions multiply, add, scale and adjoint slices entry by
entry instead, with the certificate rules that header follows.  The tests build references with them that do not go through the
ladder calculus:

* a product is certified through min(right cert, left cert minus the
  largest up-shift observed among the right factor's stored entries), and
  its shift bounds add;
* a sum takes the smaller certificate and the larger shift bounds;
* an adjoint is certified through cert minus ``down`` and swaps the shifts.

A certificate below zero raises :class:`CutoffError`.  The zero, identity
and diagonal slices the references start from are built here too, and so
are the letter and coordinate slices they multiply: the package's slices
of one-letter polynomials.
"""

from qmatball.field import ONE, add_terms, q_pow
from qmatball.fockrep import CutoffError, rep_pol_poly, rep_tpoly
from qmatball.words import NCPoly, compositions, sym


class Slice:
    """An operator slice on the weighted tensor basis, as plain data.

    ``entries`` maps (out-index, in-index) to a nonzero Scalar.  Columns are
    complete for every input of total degree <= ``cert``, and none beyond it
    is stored.  ``up``/``down`` bound the degree shift of any matrix entry,
    including entries beyond the stored slice.
    """

    __slots__ = ("legs", "cert", "entries", "up", "down")

    def __init__(self, legs, cert, entries, up, down):
        if cert < 0:
            raise CutoffError("operator slice is empty (certificate below zero)")
        for _, kin in entries:
            if sum(kin) > cert:
                raise ValueError(f"stored column at degree {sum(kin)} beyond certificate {cert}")
        self.legs = legs
        self.cert = cert
        self.entries = entries
        self.up = up
        self.down = down


def fock_basis(legs: int, maxdeg: int) -> tuple:
    """All multi-indices with the given number of legs and total <= maxdeg,
    ordered by total degree then lexicographically."""
    return tuple(k for d in range(maxdeg + 1) for k in compositions(d, legs))


def collect(op) -> Slice:
    """A package slice (what the ``rep_*`` builders return) with its rows
    gathered into a :class:`Slice`."""
    entries = {(kout, kin): c for kout, kin, c in op.rows()}
    return Slice(op.legs, op.cert, entries, op.up, op.down)


def letter(m, n, i, j, cutoff):
    """The slice of t[i,j]."""
    return collect(rep_tpoly(NCPoly.from_word((sym("t", i, j),)), m, n, cutoff))


def coordinate(kind, m, n, a, al, cutoff):
    """The slice of z[a,al] (kind "z") or of its conjugate (kind "zs")."""
    return collect(rep_pol_poly(NCPoly.from_word((sym(kind, a, al),)), m, n, cutoff))


def zero(legs, cert):
    return Slice(legs, cert, {}, 0, 0)


def identity(legs, cert):
    return diagonal(legs, cert, lambda k: ONE)


def diagonal(legs, cert, eig):
    """The slice e_k -> eig(k) e_k through degree ``cert``."""
    entries = {}
    for k in fock_basis(legs, cert):
        c = eig(k)
        if c:
            entries[(k, k)] = c
    return Slice(legs, cert, entries, 0, 0)


def observed_shifts(op) -> tuple:
    """(largest raise, largest drop) of the total degree over the stored
    entries; 0 where there is none."""
    shifts = [sum(kout) - sum(kin) for kout, kin in op.entries]
    return max([0, *shifts]), max([0, *(-s for s in shifts)])


def restricted(op, cert):
    """The same slice certified through a smaller degree (its columns are
    complete, so dropping the higher ones is sound)."""
    if cert >= op.cert:
        return op
    entries = {key: c for key, c in op.entries.items() if sum(key[1]) <= cert}
    return Slice(op.legs, cert, entries, op.up, op.down)


def compose(a, b):
    """The product a . b (b is applied first)."""
    cert = min(b.cert, a.cert - observed_shifts(b)[0])
    if cert < 0:
        raise CutoffError("composition exhausts the certified slice")
    cols: dict = {}
    for (kout, kin), c in a.entries.items():
        cols.setdefault(kin, []).append((kout, c))
    acc = add_terms({}, (
        ((kout, kin), c1 * c2)
        for (mid, kin), c2 in restricted(b, cert).entries.items()
        for kout, c1 in cols.get(mid, ())
    ))
    return Slice(a.legs, cert, acc, a.up + b.up, a.down + b.down)


def add(a, b):
    cert = min(a.cert, b.cert)
    acc = dict(restricted(a, cert).entries)
    add_terms(acc, restricted(b, cert).entries.items())
    return Slice(a.legs, cert, acc, max(a.up, b.up), max(a.down, b.down))


def scale(op, c):
    if not c:
        return zero(op.legs, op.cert)
    entries = {key: v * c for key, v in op.entries.items()}
    return Slice(op.legs, op.cert, entries, op.up, op.down)


def _norm2_ratio(jout: int, jin: int):
    """||e_jout||^2 / ||e_jin||^2 on one leg, with ||e_j||^2 the product
    of (q^-2i - 1) over 1 <= i <= j, factor by factor."""
    lo, hi = sorted((jout, jin))
    out = ONE
    for i in range(lo + 1, hi + 1):
        out = out * (q_pow(-2 * i) - ONE)
    return out if jout >= jin else out.inverse()


def adjoint(op):
    """Adjoint for the weighted inner product: entry (kin, kout) is the
    conjugate of entry (kout, kin) times |e_kout|^2 / |e_kin|^2."""
    cert = op.cert - op.down
    if cert < 0:
        raise CutoffError("adjoint exhausts the certified slice")
    entries = {}
    for (kout, kin), c in op.entries.items():
        if sum(kout) <= cert:
            ratio = ONE
            for a, b in zip(kout, kin):
                if a != b:
                    ratio = ratio * _norm2_ratio(a, b)
            entries[(kin, kout)] = c.conjugate() * ratio
    return Slice(op.legs, cert, entries, op.down, op.up)
