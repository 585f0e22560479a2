"""Per-layer metrics of a traced run, named ``<module>.<what>``.

The layers are the package modules.  ``self_s`` is the layer's self time;
``.calls`` counts calls into the named public callables (field calls made
inside other field calls included); the remaining counts and shares are
gathered by the hooks below at the same call boundaries.
"""

from __future__ import annotations

from tracer import FIELD, GAUSS

MODULES = (
    "field", "words", "braiding", "algebras", "uqaction",
    "qminors", "fockrep", "integral", "linalg", "cli",
)
SCALAR_MUL = ("Scalar.__mul__", "Scalar.__rmul__", "Scalar.__pow__")
SCALAR_ADD = ("Scalar.__add__", "Scalar.__radd__", "Scalar.__sub__", "Scalar.__rsub__", "Scalar.__neg__")
SCALAR_DIV = ("Scalar.__truediv__", "Scalar.__rtruediv__", "Scalar.inverse")

# name -> unit, in report order
METRICS = {
    "field.self_s": "s",
    "field.scalar_mul.calls": "count",
    "field.scalar_add.calls": "count",
    "field.scalar_div.calls": "count",
    "field.eval.calls": "count",
    "field.gauss.self_s": "s",
    "field.gauss_ops.calls": "count",
    "words.self_s": "s",
    "words.reduce_word.calls": "count",
    "words.reduce_word.repeat_share": "ratio",
    "words.normal_form.calls": "count",
    "words.normal_form.terms_out": "count",
    "words.ncpoly_ops.calls": "count",
    "linalg.self_s": "s",
    "linalg.det.calls": "count",
    "linalg.rank.calls": "count",
    "linalg.entries_in": "count",
    "fockrep.self_s": "s",
    "fockrep.compose.calls": "count",
    "fockrep.compose.entries_out": "count",
    "fockrep.adjoint.calls": "count",
    "fockrep.apply.calls": "count",
    "fockrep.cache_entries": "count",
    "qminors.self_s": "s",
    "qminors.qminor.calls": "count",
    "uqaction.self_s": "s",
    "uqaction.act.calls": "count",
    "uqaction.act.terms_out": "count",
    "integral.self_s": "s",
    "integral.integral_nu.calls": "count",
    "integral.pairing_hit_share": "ratio",
    "algebras.self_s": "s",
    "algebras.make_preset.s": "s",
    "algebras.star.calls": "count",
    "braiding.self_s": "s",
    "braiding.calls": "count",
    "cli.self_s": "s",
    "other.self_s": "s",
    "trace.overhead_share": "ratio",
}


def _terms_out(key):
    def hook(tracer, caller, args, kwargs, result):
        tracer.count(key, len(result))

    return hook


def _entries_in(tracer, caller, args, kwargs, result):
    if caller != "linalg":  # nested linalg calls see the same matrix again
        A = args[0]
        tracer.count("linalg.entries_in", len(A) * (len(A[0]) if A else 0))


def _compose_out(tracer, caller, args, kwargs, result):
    tracer.count("fockrep.compose.entries_out", len(result.entries))


def make_hooks() -> dict:
    """Count hooks for one traced run, keyed by wrapped-callable name."""
    seen_words: set = set()

    def repeat(tracer, caller, args, kwargs, result):
        # a call repeats when the same presentation was already asked for
        # the same word with the same strategy in this run (a memo read)
        strategy = args[2] if len(args) > 2 else kwargs.get("strategy", "leftmost")
        key = (id(args[0]), args[1], strategy)
        if key in seen_words:
            tracer.count("reduce_word.repeat")
        else:
            seen_words.add(key)

    return {
        "Presentation.reduce_word": repeat,
        "Presentation.normal_form": _terms_out("words.normal_form.terms_out"),
        "uqaction.act": _terms_out("uqaction.act.terms_out"),
        "TruncatedOperator.compose": _compose_out,
        **{f"linalg.{f}": _entries_in
           for f in ("mat_det", "mat_rank", "mat_rref", "mat_invert", "mat_mul")},
    }


def layer_report(tracer) -> dict:
    """Every metric of METRICS except trace.overhead_share (needs two runs)."""
    own = tracer.layer_self
    calls = tracer.calls_of
    counters = tracer.counters
    out = {f"{m}.self_s": own.get(m, 0.0) for m in MODULES}
    out["field.self_s"] = own.get(FIELD, 0.0) + own.get(GAUSS, 0.0)
    out["field.gauss.self_s"] = own.get(GAUSS, 0.0)
    out["field.scalar_mul.calls"] = calls(*SCALAR_MUL)
    out["field.scalar_add.calls"] = calls(*SCALAR_ADD)
    out["field.scalar_div.calls"] = calls(*SCALAR_DIV)
    out["field.eval.calls"] = calls("Scalar.eval_at")
    out["field.gauss_ops.calls"] = calls(*tracer.names_in("GaussRat."), nested=False)
    rw = calls("Presentation.reduce_word")
    out["words.reduce_word.calls"] = rw
    out["words.reduce_word.repeat_share"] = counters.get("reduce_word.repeat", 0) / rw if rw else 0.0
    out["words.normal_form.calls"] = calls("Presentation.normal_form")
    out["words.normal_form.terms_out"] = counters.get("words.normal_form.terms_out", 0)
    out["words.ncpoly_ops.calls"] = calls(*tracer.names_in("NCPoly."))
    out["linalg.det.calls"] = calls("linalg.mat_det")
    out["linalg.rank.calls"] = calls("linalg.mat_rank")
    out["linalg.entries_in"] = counters.get("linalg.entries_in", 0)
    out["fockrep.compose.calls"] = calls("TruncatedOperator.compose")
    out["fockrep.compose.entries_out"] = counters.get("fockrep.compose.entries_out", 0)
    out["fockrep.adjoint.calls"] = calls("TruncatedOperator.adjoint")
    out["fockrep.apply.calls"] = calls("TruncatedOperator.apply")
    caches = tracer.cache_info()
    out["fockrep.cache_entries"] = sum(
        c["currsize"] for k, c in caches.items() if k.startswith("fockrep.")
    )
    out["qminors.qminor.calls"] = calls("qminors.qminor")
    out["uqaction.act.calls"] = calls("uqaction.act")
    out["uqaction.act.terms_out"] = counters.get("uqaction.act.terms_out", 0)
    out["integral.integral_nu.calls"] = calls("integral.integral_nu")
    pairing = caches.get("integral._sandwich_pairing", {"hits": 0, "misses": 0})
    looked_up = pairing["hits"] + pairing["misses"]
    out["integral.pairing_hit_share"] = pairing["hits"] / looked_up if looked_up else 0.0
    out["algebras.make_preset.s"] = tracer.inclusive_s("algebras.make_preset")
    out["algebras.star.calls"] = calls("algebras.star")
    out["braiding.calls"] = calls(*tracer.names_in("braiding."))
    out["other.self_s"] = tracer.other_self_s()
    return {k: out[k] for k in METRICS if k in out}

