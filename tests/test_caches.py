"""clear_caches() drops every memo and changes no result."""

import importlib
import pkgutil
import types
from fractions import Fraction

import pytest

import qmatball
from qmatball import fockrep, ladder
from qmatball.algebras import make_preset
from qmatball.fockrep import gram_matrix, projector_pairing_rank, rep_coordinate
from qmatball.integral import integral_nu
from qmatball.uqaction import E, act
from qmatball.words import NCPoly, parse_symbol, sym, word_from_tokens

import truncated_arithmetic as ta


def _package_lru_caches():
    """Every functools cache defined anywhere in the package."""
    found = {}
    for info in pkgutil.iter_modules(qmatball.__path__):
        mod = importlib.import_module(f"qmatball.{info.name}")
        for obj in vars(mod).values():
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def _results():
    funu = make_preset("FunU", 1, 2)
    f = NCPoly.from_word(word_from_tokens(["z[2,1]", "f0", "zs[2,1]"]))
    return (
        [[c.to_string() for c in row] for row in gram_matrix(1, 2, 2)],
        projector_pairing_rank(1, 2, 2, Fraction(1, 2)),
        integral_nu(f, funu).to_string(),
        act(E(1), f, funu).to_json(),
        len(rep_coordinate(1, 2, 1, 1, 4).entries),
    )


def test_every_lru_cache_is_reported():
    assert set(_package_lru_caches()) <= set(qmatball.cache_sizes())


def test_no_module_is_bound_twice_in_the_package():
    # tools that walk the package's module attributes (the bench tracer
    # wraps each module's classes) would see an aliased module twice
    mods = [obj for obj in vars(qmatball).values() if isinstance(obj, types.ModuleType)]
    assert len({id(m) for m in mods}) == len(mods)
    assert {m.__name__.rpartition(".")[2] for m in mods} >= {"fockrep", "integral", "ladder"}


def test_clear_empties_every_cache_and_keeps_results():
    funu = make_preset("FunU", 1, 2)
    before = _results()
    assert any(qmatball.cache_sizes().values())
    assert funu.memo_size() > 0
    f0 = sym("f0")

    qmatball.clear_caches()

    assert set(qmatball.cache_sizes().values()) == {0}
    assert all(fn.cache_info().currsize == 0 for fn in _package_lru_caches().values())
    assert funu.memo_size() == 0
    assert parse_symbol("f0") is f0  # interned symbols survive
    assert _results() == before
    # a preset held across the clear still rewrites correctly
    g = funu.normal_form(NCPoly.from_word((f0, sym("z", 1, 1))))
    assert g.is_zero


def test_lowering_memo_is_counted_and_cleared():
    pres = make_preset("FunU", 1, 2)
    zs, w = sym("zs", 2, 1), (sym("z", 1, 1), sym("z", 2, 1))
    qmatball.clear_caches()
    got = pres.lower(zs, w)
    rewriting = len(pres._memo)
    assert pres.memo_size() > rewriting  # the lowering entries count too
    assert qmatball.cache_sizes()["presentation_memos"] >= pres.memo_size()
    qmatball.clear_caches()
    assert pres.memo_size() == 0
    assert pres.lower(zs, w) == got


def _slice_snapshot(m, n, cutoff):
    """Entries (in order), certificate and shifts of every letter image and
    every coordinate and conjugate coordinate image."""
    ops = [fockrep.rep_letter(m, n, i, j, cutoff)
           for i in range(1, m + n + 1) for j in range(1, m + n + 1)]
    ops += [make(m, n, a, al, cutoff)
            for make in (rep_coordinate, fockrep.rep_coordinate_star)
            for a in range(1, n + 1) for al in range(1, m + 1)]
    return [
        (list(op.entries.items()), op.cert, op.up, op.down, ta.observed_shifts(op))
        for op in ops
    ]


@pytest.mark.parametrize("m,n,cutoff", [(1, 2, 6), (2, 2, 4)])
def test_slices_do_not_depend_on_warm_ladder_caches(m, n, cutoff):
    qmatball.clear_caches()
    cold = _slice_snapshot(m, n, cutoff)
    ladder.letter_images(m, n)
    ladder.coordinate_images(m, n)
    # rebuild the slices and their headers, with the ladder images and the
    # basis and weight tables warm
    for fn in (fockrep._letter_headers, fockrep._coordinate_headers, fockrep.rep_letter,
               rep_coordinate, fockrep.rep_coordinate_star):
        fn.cache_clear()
    assert _slice_snapshot(m, n, cutoff) == cold
