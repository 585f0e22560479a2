"""Rewriting by the rightmost pattern first, as a test-side reference.

The package rewrites one way only: :meth:`Presentation.reduce_word` reduces
the leftmost pattern first.  The functions here reduce the rightmost one
first instead, reading nothing but ``pres.rules`` and keeping their memo for
one call.  On a confluent presentation both orders reach the same normal
form, so the tests compare the package against this reference on sampled
words, next to the overlap certificate
:meth:`Presentation.confluence_violations`.
"""

from qmatball.field import ONE, add_terms
from qmatball.words import NCPoly


def _reduce(rules, word, memo) -> dict:
    stack = [word]
    while stack:
        w = stack[-1]
        if w in memo:
            stack.pop()
            continue
        i = next((i for i in range(len(w) - 2, -1, -1) if w[i : i + 2] in rules), None)
        if i is None:
            memo[w] = {w: ONE}
            stack.pop()
            continue
        pre, repl, suf = w[:i], rules[w[i : i + 2]], w[i + 2 :]
        missing = [nw for rw in repl.terms if (nw := pre + rw + suf) not in memo]
        if missing:
            stack.extend(missing)
            continue
        memo[w] = add_terms({}, (
            (u, c * cu)
            for rw, c in repl.terms.items()
            for u, cu in memo[pre + rw + suf].items()
        ))
        stack.pop()
    return memo[word]


def normal_form(pres, poly: NCPoly) -> NCPoly:
    """The normal form of poly, rewriting the rightmost pattern first."""
    memo: dict = {}
    terms = (
        (u, cu * c)
        for w, c in poly.terms.items()
        for u, cu in _reduce(pres.rules, w, memo).items()
    )
    return NCPoly(add_terms({}, terms), _clean=True)


def reduce_word(pres, word: tuple) -> NCPoly:
    """The normal form of one word, rewriting the rightmost pattern first."""
    return normal_form(pres, NCPoly.from_word(word))
