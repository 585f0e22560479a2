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
    q_exp_coeffs,
)
from .words import GeneratorSymbol, NCPoly, Presentation, sym
from .braiding import rhat, rhat_operator, verify_rhat_properties
from .algebras import (
    AlgebraPreset,
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
from . import algebras as _algebras, fockrep as _fockrep, integral as _integral
from . import uqaction as _uqaction
from .ladder import coordinate_images as _coordinate_images
from .ladder import letter_images as _letter_images
from .words import generator_weight as _generator_weight

_LRU_CACHES = (
    _generator_weight,
    _algebras._build_presentation,
    _fockrep.fock_norm2,
    _fockrep.fock_weight,
    _fockrep._norm2_ratio,
    _fockrep.fock_basis,
    _fockrep._bounded_letters,
    _fockrep._bounded_coordinate,
    _fockrep.rep_letter,
    _fockrep.rep_coordinate,
    _fockrep.rep_coordinate_star,
    _fockrep.gram_matrix,
    _fockrep.projector_pairing_matrix,
    _fockrep.vacuum_orbit,
    _letter_images,
    _coordinate_images,
    _integral.modular_weights,
    _integral._sandwich_pairing,
    _uqaction._z_table,
    _uqaction._f0_table,
    _uqaction._symbol_table,
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
    "q_exp_coeffs",
    "GeneratorSymbol",
    "NCPoly",
    "Presentation",
    "sym",
    "rhat",
    "rhat_operator",
    "verify_rhat_properties",
    "AlgebraPreset",
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
