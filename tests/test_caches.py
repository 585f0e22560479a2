"""clear_caches() drops every memo and changes no result."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import qmatball
from qmatball import fockrep
from qmatball.algebras import make_preset
from qmatball.fockrep import gram_matrix, projector_pairing_rank, rep_coordinate
from qmatball.integral import integral_nu
from qmatball.uqaction import E, act
from qmatball.words import NCPoly, parse_symbol, sym, word_from_tokens


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


def test_clear_empties_every_cache_and_keeps_results():
    funu = make_preset("FunU", 1, 2)
    before = _results()
    assert any(qmatball.cache_sizes().values())
    assert funu.presentation.memo_size() > 0
    f0 = sym("f0")

    qmatball.clear_caches()

    assert set(qmatball.cache_sizes().values()) == {0}
    assert all(fn.cache_info().currsize == 0 for fn in _package_lru_caches().values())
    assert funu.presentation.memo_size() == 0
    assert parse_symbol("f0") is f0  # interned symbols survive
    assert _results() == before
    # a preset held across the clear still rewrites correctly
    g = funu.normal_form(NCPoly.from_word((f0, sym("z", 1, 1))))
    assert g.is_zero


def test_lowering_memo_is_counted_and_cleared():
    pres = make_preset("FunU", 1, 2).presentation
    zs, w = sym("zs", 2, 1), (sym("z", 1, 1), sym("z", 2, 1))
    qmatball.clear_caches()
    got = pres.lower(zs, w)
    rewriting = sum(map(len, pres._memo.values()))
    assert pres.memo_size() > rewriting  # the lowering entries count too
    assert qmatball.cache_sizes()["presentation_memos"] >= pres.memo_size()
    qmatball.clear_caches()
    assert pres.memo_size() == 0
    assert pres.lower(zs, w) == got


def _operator_snapshot(m, n, cutoff):
    """Entries (in order), certificate and shifts of every letter image and
    every coordinate image."""
    ops = [fockrep.rep_letter(m, n, i, j, cutoff)
           for i in range(1, m + n + 1) for j in range(1, m + n + 1)]
    ops += [rep_coordinate(m, n, a, al, cutoff)
            for a in range(1, n + 1) for al in range(1, m + 1)]
    return [
        (list(op.entries.items()), op.cert, op.up, op.down, op._obs_up, op._obs_down)
        for op in ops
    ]


def test_entry_product_table_is_reported_and_cleared():
    name = "qmatball.fockrep._entry_product"
    qmatball.clear_caches()
    rep_coordinate(1, 2, 1, 1, 4)
    assert qmatball.cache_sizes()[name] > 0
    qmatball.clear_caches()
    assert qmatball.cache_sizes()[name] == 0


@pytest.mark.parametrize("m,n,cutoff", [(1, 2, 6), (2, 2, 4)])
def test_operators_do_not_depend_on_a_warm_product_table(m, n, cutoff):
    qmatball.clear_caches()
    cold = _operator_snapshot(m, n, cutoff)
    held = fockrep._entry_product.cache_info().currsize
    # rebuild the operators, but keep the product table
    for fn in (fockrep._machine, fockrep.corner_inverse, rep_coordinate):
        fn.cache_clear()
    warm = _operator_snapshot(m, n, cutoff)
    assert fockrep._entry_product.cache_info().currsize == held  # every product hit
    assert warm == cold
