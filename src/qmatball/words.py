"""Free noncommutative words and oriented rewriting.

Generators carry a kind tag and a (row, column) index pair:

    z[a,b]    coordinate generators
    zs[a,b]   their conjugates
    dz[a,b]   holomorphic differentials
    dzs[a,b]  antiholomorphic differentials
    f0        the distinguished rank-one projector generator
    t[i,j]    entries of the ambient quantum N x N matrix (free letters;
              identities among them are certified representation-side)

A word is a tuple of interned symbols; a polynomial is a {word: Scalar} map.
A Presentation bundles an alphabet, a set of oriented rules (non-normal word
on the left, polynomial on the right) and a total order on symbols.  Rules
are validated at construction time: every pattern is a pair of letters, every
letter of a rule is in the alphabet, and every replacement word is strictly
smaller than its pattern in the degree-lexicographic word order, which makes
the rewriting terminate.  Rewriting always reduces the leftmost pattern
first.  Confluence is certified, not sampled: with pair patterns and a
terminating order, Bergman's diamond lemma makes the rewriting confluent iff
every overlap a b c resolves, and ``Presentation.confluence_violations``
lists the overlaps that do not.  Rewriting a word that holds a symbol outside
the presentation's alphabet raises ValueError.  Each named algebra of
:mod:`qmatball.algebras` is one Presentation, cached per (name, m, n).
"""

from __future__ import annotations

import functools
import itertools
import json
import weakref
from typing import Iterable, Mapping

from .field import ONE, Scalar, ZERO, add_terms

__all__ = [
    "GeneratorSymbol",
    "sym",
    "parse_symbol",
    "word_from_tokens",
    "word_tokens",
    "NCPoly",
    "Presentation",
    "KIND_RANK",
    "deglex_key",
    "generator_weight",
    "compositions",
]


KINDS = ("z", "dz", "f0", "dzs", "zs", "t")
KIND_RANK = {k: i for i, k in enumerate(KINDS)}

# how repeated symbols of each kind may appear in a normal word
_MULTIPLICITY = {"z": "weak", "zs": "weak", "dz": "strict", "dzs": "strict", "f0": "single"}

_H0_DEGREE = {"z": 1, "dz": 1, "f0": 0, "dzs": -1, "zs": -1, "t": 0}


class GeneratorSymbol:
    """One interned generator; equality and hashing are by identity."""

    __slots__ = ("kind", "row", "col")

    _pool: dict = {}

    def __new__(cls, kind: str, row: int = 0, col: int = 0):
        key = (kind, row, col)
        cached = cls._pool.get(key)
        if cached is not None:
            return cached
        if kind not in KIND_RANK:
            raise ValueError(f"unknown generator kind {kind!r}")
        if kind == "f0":
            if row or col:
                raise ValueError("f0 carries no indices")
        elif row < 1 or col < 1:
            raise ValueError(f"indices must be positive, got {key}")
        obj = object.__new__(cls)
        object.__setattr__(obj, "kind", kind)
        object.__setattr__(obj, "row", row)
        object.__setattr__(obj, "col", col)
        cls._pool[key] = obj
        return obj

    def __setattr__(self, name, value):
        raise AttributeError("GeneratorSymbol is immutable")

    def token(self) -> str:
        if self.kind == "f0":
            return "f0"
        return f"{self.kind}[{self.row},{self.col}]"

    @property
    def h0_degree(self) -> int:
        return _H0_DEGREE[self.kind]

    def __repr__(self):
        return self.token()


def sym(kind: str, row: int = 0, col: int = 0) -> GeneratorSymbol:
    return GeneratorSymbol(kind, row, col)


def parse_symbol(token: str) -> GeneratorSymbol:
    token = token.strip()
    if token == "f0":
        return sym("f0")
    if "[" not in token or not token.endswith("]"):
        raise ValueError(f"bad generator token {token!r}")
    kind, rest = token.split("[", 1)
    parts = rest[:-1].split(",")
    if len(parts) != 2:
        raise ValueError(f"bad generator token {token!r}")
    return sym(kind.strip(), int(parts[0]), int(parts[1]))


def word_from_tokens(tokens: Iterable[str]) -> tuple:
    return tuple(parse_symbol(t) for t in tokens)


def word_tokens(word: tuple) -> list:
    return [g.token() for g in word]


def deglex_key(word: tuple):
    """Sort key realizing the termination order: length first, then symbolwise
    by kind (``KIND_RANK``), row and column."""
    return (len(word), tuple((KIND_RANK[g.kind], g.row, g.col) for g in word))


@functools.lru_cache(maxsize=None)
def generator_weight(g: GeneratorSymbol, m: int, n: int) -> tuple:
    """Torus weight (mu_1, ..., mu_{N-1}) of a generator at size m x n.

    K_j scales a monomial by q**mu_j of its summed weight; the conjugated
    kinds carry the negated weight and f0 weight zero.
    """
    mu = [0] * (m + n - 1)
    if g.kind != "f0":
        a, al = g.row, g.col
        for j in range(1, n):
            mu[j - 1] = (1 if a == j else 0) - (1 if a == j + 1 else 0)
        mu[n - 1] = (1 if a == n else 0) + (1 if al == m else 0)
        for i in range(1, m):
            mu[n + i - 1] = (1 if al == m - i else 0) - (1 if al == m - i + 1 else 0)
        if g.kind in ("zs", "dzs"):
            mu = [-x for x in mu]
    return tuple(mu)


# ---------------------------------------------------------------------------
# polynomials


class NCPoly:
    """Finite Scalar-combination of words in the free algebra."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None, _clean: bool = False):
        if terms is None:
            terms = {}
        if not _clean:
            terms = {w: c for w, c in terms.items() if c}
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("NCPoly is immutable")

    # constructors

    @classmethod
    def zero(cls) -> "NCPoly":
        return cls({}, _clean=True)

    @classmethod
    def one(cls) -> "NCPoly":
        return cls({(): ONE}, _clean=True)

    @classmethod
    def from_word(cls, word, coeff=ONE) -> "NCPoly":
        if isinstance(word, GeneratorSymbol):
            word = (word,)
        coeff = coeff if isinstance(coeff, Scalar) else ONE * coeff
        if not coeff:
            return cls.zero()
        return cls({tuple(word): coeff}, _clean=True)

    # structure

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def coeff(self, word) -> Scalar:
        return self.terms.get(tuple(word), ZERO)

    def items(self):
        return self.terms.items()

    # arithmetic: results have the receiver's class, and the operand must
    # have that same class (an NCPoly and a subclass instance never mix)

    def __add__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        return self.__class__(add_terms(dict(self.terms), other.terms.items()), _clean=True)

    def __neg__(self):
        return self.__class__({w: -c for w, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "NCPoly":
        if isinstance(c, int):
            c = ONE * c
        if not c:
            return self.zero()
        return self.__class__({w: v * c for w, v in self.terms.items()}, _clean=True)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        if other.__class__ is not self.__class__:
            return NotImplemented
        products = (
            (w1 + w2, c1 * c2)
            for w1, c1 in self.terms.items()
            for w2, c2 in other.terms.items()
        )
        return self.__class__(add_terms({}, products), _clean=True)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # text / json

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w in sorted(self.terms, key=deglex_key):
            c = self.terms[w]
            wtxt = " ".join(word_tokens(w)) if w else "1"
            ctxt = c.pretty()
            if ctxt == "1" and w:
                bits.append(wtxt)
            elif w:
                bits.append(f"({ctxt})*{wtxt}")
            else:
                bits.append(f"({ctxt})")
        return " + ".join(bits)

    def to_dict(self) -> dict:
        return {
            "terms": [
                {"word": word_tokens(w), "coeff": self.terms[w].to_string()}
                for w in sorted(self.terms, key=deglex_key)
            ]
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NCPoly":
        pairs = (
            (word_from_tokens(item["word"]), Scalar.from_string(item["coeff"]))
            for item in data["terms"]
        )
        return cls(add_terms({}, pairs), _clean=True)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "NCPoly":
        return cls.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# presentations


class Presentation:
    """An alphabet with oriented rewriting rules and a termination order.

    * ``name``, ``m`` and ``n`` name the algebra and the size of its
      matrices; :meth:`label` spells them as the CLI does.
    * ``rules`` maps a pattern, a pair of letters, to its replacement
      polynomial.  A pattern of another length, or a rule with a letter
      outside the alphabet, raises ValueError naming the rule.
    * ``KIND_RANK`` orders the kinds; together with (row, col) it induces
      the symbol order used both for the termination check and for
      enumerating the PBW-style basis of normal words.

    Rewriting and lowering are memoized per word; :meth:`clear_memo` (or
    ``qmatball.clear_caches()`` for every live presentation) forgets it.
    """

    _live: "weakref.WeakSet[Presentation]" = weakref.WeakSet()

    def __init__(
        self,
        name: str,
        m: int,
        n: int,
        kinds: tuple,
        rules: Mapping[tuple, NCPoly],
    ):
        if m < 1 or n < 1:
            raise ValueError("m and n must be positive")
        self.name = name
        self.m = m
        self.n = n
        self.kinds = tuple(kinds)
        self.rules = dict(rules)
        self._memo = {}
        self._letters = frozenset(self.alphabet())
        self._weight_bad = None
        self._lowering = None  # the lowering map's memo, made once certified
        for pat, repl in self.rules.items():
            if len(pat) != 2:
                raise ValueError(
                    f"rule for {word_tokens(pat)} has a pattern of length "
                    f"{len(pat)}; patterns are pairs of letters"
                )
            try:
                for w in (pat, *repl.terms):
                    self._check_word(w)
            except ValueError as exc:
                raise ValueError(f"rule for {word_tokens(pat)}: {exc}") from None
        bad = self.termination_violations()
        if bad:
            pat, w = bad[0]
            raise ValueError(
                f"rule for {word_tokens(pat)} does not decrease the word order "
                f"(offending replacement word {word_tokens(w)})"
            )
        Presentation._live.add(self)

    # -- alphabet

    def symbols(self, kind: str) -> list:
        if kind == "f0":
            return [sym("f0")]
        if kind in ("z", "zs", "dz", "dzs"):
            return [
                sym(kind, a, al)
                for a in range(1, self.n + 1)
                for al in range(1, self.m + 1)
            ]
        raise ValueError(f"unknown kind {kind!r}")

    def alphabet(self) -> list:
        out = []
        for kind in sorted(self.kinds, key=KIND_RANK.__getitem__):
            out.extend(self.symbols(kind))
        return out

    def _check_word(self, word: tuple) -> None:
        """Raise ValueError unless every symbol of word is in the alphabet."""
        for g in word:
            if g not in self._letters:
                raise ValueError(
                    f"generator {g.token()} is not in the alphabet of "
                    f"{self.name} {self.m}x{self.n}"
                )

    # -- termination

    def termination_violations(self) -> list:
        """Rules whose replacement fails to decrease deglex; empty when sound."""
        bad = []
        for pat, repl in self.rules.items():
            pkey = deglex_key(pat)
            for w in repl.terms:
                if deglex_key(w) >= pkey:
                    bad.append((pat, w))
        return bad

    # -- certificates for pruned rewriting

    def weight_violations(self) -> tuple:
        """(pattern, replacement word) pairs whose torus weights differ.

        Empty means every rule is weight-homogeneous, so rewriting keeps the
        weight of every word: then NF(u) has only words of u's weight, and a
        coefficient read at a weight-zero word vanishes unless u has weight
        zero.  Computed once per presentation.
        """
        if self._weight_bad is None:
            ww = self.word_weight
            self._weight_bad = tuple(
                (pat, w)
                for pat, repl in self.rules.items()
                for w in repl.terms
                if ww(w) != ww(pat)
            )
        return self._weight_bad

    def lowering_violations(self) -> list:
        """(pattern, replacement word or None, what is wrong) triples that
        break the lowering map, in rule order; None marks a missing rule.

        The lowering map writes zs w f0 (w a z-word) as a sum of c u f0 over
        normal z-words u, rewriting zs z first.  Empty means:

        * every zs z pair is a pattern whose replacement words are empty or
          a normal (z, zs) pair, and every z z replacement word is a z-word;
        * with the projector: zs f0 -> 0, f0 z -> 0 and f0 f0 -> f0;
        * without it: every replacement word of a pattern that ends in zs
          ends in zs, so the words the map drops have no constant term.

        It holds vacuously for a presentation without z or zs letters.
        """
        kinds = self.kinds
        z_letters = self.symbols("z") if "z" in kinds else []
        zs_letters = self.symbols("zs") if "zs" in kinds else []
        bad = []
        for pat in itertools.product(zs_letters, z_letters):
            if pat not in self.rules:
                bad.append((pat, None, "is missing"))
        for pat, repl in self.rules.items():
            pk = tuple(g.kind for g in pat)
            for w in repl.terms:
                wk = tuple(g.kind for g in w)
                if pk == ("zs", "z") and w and (wk != ("z", "zs") or not self.is_normal(w)):
                    bad.append((pat, w, "is neither empty nor a normal (z, zs) pair"))
                elif pk == ("z", "z") and any(k != "z" for k in wk):
                    bad.append((pat, w, "is not a z-word"))
                elif "f0" not in kinds and pk[-1] == "zs" and (not w or wk[-1] != "zs"):
                    bad.append((pat, w, "does not end in zs"))
        if "f0" in kinds:
            f0 = sym("f0")
            wanted = [((f0, f0), NCPoly.from_word((f0,)))]
            wanted += [((g, f0), NCPoly.zero()) for g in zs_letters]
            wanted += [((f0, g), NCPoly.zero()) for g in z_letters]
            for pat, repl in wanted:
                if self.rules.get(pat) != repl:
                    bad.append((pat, None, f"should rewrite to {repl}"))
        return bad

    def require_lowering(self) -> dict:
        """The lowering memo, made once :meth:`lowering_violations` is empty;
        otherwise raise ArithmeticError naming the first bad rule."""
        if self._lowering is None:
            bad = self.lowering_violations()
            if bad:
                pat, w, wrong = bad[0]
                word = "" if w is None else f" (replacement word {word_tokens(w)})"
                raise ArithmeticError(
                    f"rule for {word_tokens(pat)} {wrong}{word}; "
                    "the lowering map would be unsound"
                )
            self._lowering = {}
        return self._lowering

    def lower(self, y: GeneratorSymbol, w: tuple) -> dict:
        """The lowering map L(y, w) of a conjugate letter y and a z-word w.

        It is the {u: c} map over normal z-words u with y w f0 = sum of
        c u f0 when the presentation has the projector; without it, y w is
        that sum plus words that end in zs.  From the first letter b of w,
        the rule y b -> c0 + sum c x y' gives
        L(y, w) = c0 w[1:] + sum c NF(x L(y', w[1:])).  This rewrites in
        another order than :meth:`reduce_word`; it reaches the same normal
        form because the presentation is confluent, which
        :meth:`confluence_violations` certifies (the presets pass it, and
        the test suite runs it on each).  Memoized; :meth:`clear_memo`
        forgets it.  Shared between callers: do not mutate.
        """
        memo = self.require_lowering()
        got = memo.get((y, w))
        if got is None:
            terms = []
            if w:
                rest = w[1:]
                for rw, c in self.rules[(y, w[0])].terms.items():
                    if rw:
                        x, y2 = rw
                        terms += [((x,) + u, c * cu) for u, cu in self.lower(y2, rest).items()]
                    else:
                        terms.append((rest, c))
            got = memo[(y, w)] = self.normal_form(NCPoly(add_terms({}, terms), _clean=True)).terms
        return got

    # -- rewriting

    def _find_redex(self, w: tuple):
        """(position, replacement) of the leftmost pattern in w, or None."""
        rules = self.rules
        for i in range(len(w) - 1):
            repl = rules.get(w[i : i + 2])
            if repl is not None:
                return i, repl
        return None

    def reduce_word(self, word: tuple) -> NCPoly:
        memo = self._memo
        got = memo.get(word)
        if got is not None:
            return got
        self._check_word(word)
        stack = [word]
        while stack:
            w = stack[-1]
            if w in memo:
                stack.pop()
                continue
            hit = self._find_redex(w)
            if hit is None:
                memo[w] = NCPoly({w: ONE}, _clean=True)
                stack.pop()
                continue
            i, repl = hit
            pre, suf = w[:i], w[i + 2 :]
            missing = [
                nw
                for rw in repl.terms
                if (nw := pre + rw + suf) not in memo
            ]
            if missing:
                stack.extend(missing)
                continue
            terms = (
                (w2, c * c2)
                for rw, c in repl.terms.items()
                for w2, c2 in memo[pre + rw + suf].terms.items()
            )
            memo[w] = NCPoly(add_terms({}, terms), _clean=True)
            stack.pop()
        return memo[word]

    def normal_form(self, poly: NCPoly) -> NCPoly:
        terms = (
            (w2, c2 * c)
            for w, c in poly.terms.items()
            for w2, c2 in self.reduce_word(w).terms.items()
        )
        return NCPoly(add_terms({}, terms), _clean=True)

    def multiply(self, f: NCPoly, g: NCPoly) -> NCPoly:
        return self.normal_form(f * g)

    def clear_memo(self) -> None:
        """Forget every memoized reduction and lowering."""
        self._memo.clear()
        self._lowering = None

    def memo_size(self) -> int:
        return len(self._memo) + len(self._lowering or ())

    def is_normal(self, word: tuple) -> bool:
        return self._find_redex(word) is None

    # -- confluence

    def confluence_violations(self) -> list:
        """The overlaps (a, b, c), in rule order, whose two one-step reducts
        (a b -> r) c and a (b c -> r') have different normal forms.

        Patterns are pairs and the order terminates, so by Bergman's diamond
        lemma (Adv. Math. 29, 1978) an empty list certifies that every
        rewriting order reaches the same normal form.  Run on demand only:
        it reduces every overlap of the presentation.
        """
        by_first: dict = {}
        for b, c in self.rules:
            by_first.setdefault(b, []).append(c)
        bad = []
        for (a, b), r in self.rules.items():
            for c in by_first.get(b, ()):
                left = self.multiply(r, NCPoly.from_word((c,)))
                right = self.multiply(NCPoly.from_word((a,)), self.rules[(b, c)])
                if left != right:
                    bad.append((a, b, c))
        return bad

    # -- basis enumeration

    def basis_words(self, counts: Mapping[str, int]) -> list:
        """All normal words with exactly counts[kind] symbols of each kind."""
        for kind in counts:
            if kind not in self.kinds:
                raise ValueError(f"kind {kind!r} not in presentation {self.name!r}")
        blocks = []
        for kind in sorted(self.kinds, key=KIND_RANK.__getitem__):
            c = counts.get(kind, 0)
            if c == 0:
                blocks.append([()])
                continue
            syms = self.symbols(kind)
            mode = _MULTIPLICITY[kind]
            if mode == "weak":
                blocks.append(
                    [tuple(t) for t in itertools.combinations_with_replacement(syms, c)]
                )
            elif mode == "strict":
                blocks.append([tuple(t) for t in itertools.combinations(syms, c)])
            else:  # f0
                if c > 1:
                    return []
                blocks.append([(sym("f0"),)])
        out = []
        for parts in itertools.product(*blocks):
            w = tuple(itertools.chain.from_iterable(parts))
            out.append(w)
        return out

    def basis_by_total_degree(self, total: int) -> list:
        """All normal words with ``total`` symbols across the kinds."""
        kinds = sorted(self.kinds, key=KIND_RANK.__getitem__)
        out = []
        for split in compositions(total, len(kinds)):
            counts = dict(zip(kinds, split))
            out.extend(self.basis_words(counts))
        return out

    # -- gradings

    def weight(self, g: GeneratorSymbol) -> tuple:
        """Weight of a generator for the rank N-1 torus, N = m + n."""
        return generator_weight(g, self.m, self.n)

    def word_weight(self, word: tuple) -> tuple:
        N = self.m + self.n
        mu = [0] * (N - 1)
        for g in word:
            for j, x in enumerate(self.weight(g)):
                mu[j] += x
        return tuple(mu)

    def h0_degree(self, word: tuple) -> int:
        return sum(g.h0_degree for g in word)

    def label(self) -> str:
        """The CLI spelling of the preset, such as ``"pol:2x2"``."""
        return f"{self.name.lower()}:{self.m}x{self.n}"

    def __repr__(self):
        return (
            f"Presentation({self.name!r}, m={self.m}, n={self.n}, "
            f"|rules|={len(self.rules)})"
        )


def compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``, in
    lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest
