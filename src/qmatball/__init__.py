"""qmatball: exact symbolic engine for q-deformed matrix-ball function algebras.

The package is organized in layers:

* :mod:`qmatball.field`     -- the exact coefficient field (Gaussian rationals
  extended by the deformation root ``s`` with ``s**2 == q``),
* :mod:`qmatball.words`     -- free noncommutative polynomials and confluent
  rewriting presentations,
* :mod:`qmatball.braiding`  -- the Hecke-type braiding tables driving every
  commutation rule,
* :mod:`qmatball.algebras`  -- named algebra presets (coordinate rings, their
  conjugates, differential envelopes, the projector-extended function algebra),
* :mod:`qmatball.uqaction`  -- the quantized-symmetry generators acting as a
  module algebra,
* :mod:`qmatball.qminors`   -- quantum minors, the quantum determinant, and
  the compact-form star operation on the free matrix bialgebra,
* :mod:`qmatball.ladder`    -- exact q-difference operators on the ladder
  space, on which every operator law is checked at all degrees,
* :mod:`qmatball.fockrep`   -- certified slices of the ladder operators (what
  ``qmb export`` writes), the representation laws and the cyclic-module
  comparison,
* :mod:`qmatball.integral`  -- the invariant positive integral,
* :mod:`qmatball.cli`       -- the ``qmb`` command-line front end.

Results are memoized (rewriting per presentation, tables and Gram blocks per
size).  :func:`cache_sizes` reports how much is held and
:func:`clear_caches` drops all of it, so long-lived use can bound memory.
"""

from .field import (
    GaussRat,
    Scalar,
    ZERO,
    ONE,
    I,
    S,
    Q,
    s_pow,
    q_pow,
    from_int,
    from_fraction,
    q_bracket,
    q_factorial,
)
from .words import GeneratorSymbol, NCPoly, Presentation, sym
from .braiding import rhat, rhat_operator, verify_rhat_properties
from .algebras import (
    PRESET_NAMES,
    differential,
    make_preset,
    parse_preset,
    star,
)
from .uqaction import E, F, K, Kinv, act, antipode, coproduct, counit
from .qminors import qdet, qminor, volume_element
from .fockrep import (
    TruncatedOperator,
    default_cutoff,
    fock_basis,
    gram_matrix,
    rep_coordinate,
    rep_coordinate_star,
    rep_letter,
    rep_pol_poly,
    rep_projector,
)
from .integral import integral_nu, invariance_defect, modular_exponent
# each submodule is registered under its own name only: a second binding
# (an alias) would be a second package attribute holding the same module
from . import algebras, fockrep, integral, ladder, uqaction, words

_LRU_CACHES = (
    words.generator_weight,
    algebras._build_presentation,
    fockrep.fock_norm2,
    fockrep.fock_weight,
    fockrep.fock_basis,
    fockrep._letter_headers,
    fockrep._coordinate_headers,
    fockrep.rep_letter,
    fockrep.rep_coordinate,
    fockrep.rep_coordinate_star,
    fockrep._weight_blocks,
    fockrep.gram_matrix,
    fockrep.projector_pairing_matrix,
    fockrep.vacuum_orbit,
    ladder.letter_images,
    ladder.minor_images,
    ladder.coordinate_images,
    integral.modular_weights,
    integral._sandwich_pairing,
    uqaction._z_table,
    uqaction._f0_table,
    uqaction._symbol_table,
)


def cache_sizes() -> dict:
    """Entries held by each memo: one per cached function (by qualified
    name) and ``"presentation_memos"`` for every live presentation."""
    out = {
        f"{fn.__module__}.{fn.__qualname__}": fn.cache_info().currsize
        for fn in _LRU_CACHES
    }
    out["presentation_memos"] = sum(p.memo_size() for p in Presentation._live)
    return out


def clear_caches() -> None:
    """Drop every memoized result.  Interned generator symbols are kept:
    symbol equality is by identity, so they must outlive any cleared cache."""
    for fn in _LRU_CACHES:
        fn.cache_clear()
    for pres in list(Presentation._live):
        pres.clear_memo()

__version__ = "0.1.0"

__all__ = [
    "GaussRat",
    "Scalar",
    "ZERO",
    "ONE",
    "I",
    "S",
    "Q",
    "s_pow",
    "q_pow",
    "from_int",
    "from_fraction",
    "q_bracket",
    "q_factorial",
    "GeneratorSymbol",
    "NCPoly",
    "Presentation",
    "sym",
    "rhat",
    "rhat_operator",
    "verify_rhat_properties",
    "PRESET_NAMES",
    "differential",
    "make_preset",
    "parse_preset",
    "star",
    "E",
    "F",
    "K",
    "Kinv",
    "act",
    "antipode",
    "coproduct",
    "counit",
    "qdet",
    "qminor",
    "volume_element",
    "TruncatedOperator",
    "default_cutoff",
    "fock_basis",
    "gram_matrix",
    "rep_coordinate",
    "rep_coordinate_star",
    "rep_letter",
    "rep_pol_poly",
    "rep_projector",
    "integral_nu",
    "invariance_defect",
    "modular_exponent",
    "cache_sizes",
    "clear_caches",
    "__version__",
]
