"""Span tracer for the benchmark's traced run.

The tracer times calls into the engine from outside: it replaces the public
callables of every ``qmatball`` module with timing wrappers and rebinds them
in every module that imported them.  It never edits the package's files and
is installed only in a traced worker process, so untraced runs execute the
plain engine.

What gets wrapped:

* methods of ``Scalar``, ``GaussRat``, ``NCPoly``, ``Presentation`` and
  ``TruncatedOperator``, aliases such as ``__radd__``/``__rmul__`` included.
  The comparison, hashing and construction protocol (``__eq__``,
  ``__hash__``, ``__bool__``, ``__init__``, ...) stays unwrapped; its time
  counts to the caller.
* public module functions (no leading underscore), ``lru_cache`` ones
  included.  Private helpers run inside the span of their public caller.

Every wrapped call is a span with a name, start, end and parent.  A span's
self time is its duration minus the time its child spans cover, and the
layer (module) of the span collects that self time.  ``GaussRat`` methods
form the sub-layer ``field.gauss``.

Memory stays bounded: a field call made from inside another field call is
only counted (its time is already the enclosing field span's self time),
field spans are aggregated per (function, caller layer), and whole spans are
kept only for check-level and non-field calls, up to ``SPAN_CAP`` of them.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import types
from array import array
from time import perf_counter

WRAPPED_CLASSES = {
    "field": ("Scalar", "GaussRat"),
    "words": ("NCPoly", "Presentation"),
    "fockrep": ("TruncatedOperator",),
}
UNWRAPPED_METHODS = frozenset(
    {
        "__init__",
        "__new__",
        "__setattr__",
        "__getattr__",
        "__eq__",
        "__ne__",
        "__hash__",
        "__bool__",
        "__len__",
        "__repr__",
        "__str__",
        "__init_subclass__",
        "__class_getitem__",
    }
)
SPAN_CAP = 100_000  # whole spans kept per run; later ones are only counted
FIELD = "field"
GAUSS = "field.gauss"
TOP = "bench"


def _layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Install with :meth:`install`, run the workload, then :meth:`finish`."""

    def __init__(self, package):
        self.package = package
        # frame: [layer, time covered by child spans, span id]
        self.stack = [[TOP, 0.0, -1]]
        self.layer_self: dict = {}
        self.calls: dict = {}  # name -> {caller layer: [calls, total_s, self_s]}
        self.nested: dict = {}  # name -> [count] of field calls inside field
        self.counters: dict = {}
        self.names: list = []
        self.check_names: dict = {}
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self._ids = itertools.count()
        self._originals: dict = {}  # id(original) -> wrapper
        self._lru: dict = {}  # "module.name" -> lru_cache object
        self.t_install = None
        self.t_finish = None

    # -- installation

    def install(self, hooks: dict | None = None) -> "Tracer":
        """Wrap every public callable of the package and start the clock."""
        hooks = hooks or {}
        modules = [
            m
            for _, m in sorted(vars(self.package).items())
            if isinstance(m, types.ModuleType) and m.__name__.startswith(self.package.__name__ + ".")
        ]
        for mod in modules:
            layer = _layer_of(mod.__name__)
            for cname in WRAPPED_CLASSES.get(layer, ()):
                cls = getattr(mod, cname)
                sub = GAUSS if cname == "GaussRat" else layer
                self._wrap_class(cls, cname, sub, hooks)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere, or not a callable
                if isinstance(obj, functools._lru_cache_wrapper):
                    self._lru[f"{layer}.{attr}"] = obj
                elif not isinstance(obj, types.FunctionType):
                    continue
                if not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    self._originals[id(obj)] = self._wrap(obj, name, layer, hooks.get(name))
        # rebind in every module that holds a reference, the package included
        for mod in modules + [self.package]:
            for attr, obj in list(vars(mod).items()):
                wrapper = self._originals.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
        self.t_install = perf_counter()
        return self

    def _wrap_class(self, cls, cname: str, layer: str, hooks: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr in UNWRAPPED_METHODS:
                continue
            name = f"{cname}.{attr}"
            hook = hooks.get(name)
            if isinstance(obj, types.FunctionType):
                new = self._wrap(obj, name, layer, hook)
            elif isinstance(obj, classmethod):
                new = classmethod(self._wrap(obj.__func__, name, layer, hook))
            elif isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(obj.__func__, name, layer, hook))
            else:
                continue
            setattr(cls, attr, new)

    def _wrap(self, fn, name: str, layer: str, hook):
        """Timing wrapper; ``hook(tracer, caller, args, kwargs, result)`` adds counts."""
        stack = self.stack
        layer_self = self.layer_self
        layer_self.setdefault(layer, 0.0)
        per_caller = self.calls.setdefault(name, {})
        nested = self.nested.setdefault(name, [0])
        in_field = layer in (FIELD, GAUSS)
        keep = not in_field
        name_idx = len(self.names)
        self.names.append(name)
        ids = self._ids
        keep_span = self._keep_span
        clock = perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            caller = top[0]
            if in_field and (caller == FIELD or caller == GAUSS):
                nested[0] += 1
                return fn(*args, **kwargs)
            frame = [layer, 0.0, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                top[1] += dur
                layer_self[layer] += own
                st = per_caller.get(caller)
                if st is None:
                    st = per_caller[caller] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dur
                st[2] += own
                if keep:
                    keep_span(frame[2], top[2], name_idx, t0, t1)
            if hook is not None:
                hook(tracer, caller, args, kwargs, result)
            return result

        return wrapper

    # -- check-level spans, opened by the worker around each check

    @contextlib.contextmanager
    def check(self, label: str):
        """A check-level span; its time outside layer calls is harness time."""
        idx = self.check_names.get(label)
        if idx is None:
            idx = self.check_names[label] = len(self.names)
            self.names.append(label)
        frame = [TOP, 0.0, next(self._ids)]
        self.stack.append(frame)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            parent = self.stack[-1]
            parent[1] += t1 - t0
            self._keep_span(frame[2], parent[2], idx, t0, t1)

    def _keep_span(self, span_id, parent_id, name_idx, t0, t1) -> None:
        if len(self.span_id) < SPAN_CAP:
            self.span_id.append(span_id)
            self.span_parent.append(parent_id)
            self.span_name.append(name_idx)
            self.span_start.append(t0)
            self.span_end.append(t1)
        else:
            self.spans_dropped += 1

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -- results

    def finish(self) -> None:
        self.t_finish = perf_counter()

    def calls_of(self, *names: str, nested: bool = True) -> int:
        """Calls of the named callables; ``nested=False`` leaves out field
        calls made from inside field calls."""
        total = 0
        for name in names:
            total += sum(st[0] for st in self.calls.get(name, {}).values())
            if nested:
                total += self.nested.get(name, [0])[0]
        return total

    def inclusive_s(self, *names: str) -> float:
        return sum(st[1] for n in names for st in self.calls.get(n, {}).values())

    def names_in(self, prefix: str) -> list:
        return [n for n in self.calls if n.startswith(prefix)]

    def cache_info(self) -> dict:
        """Read-only snapshot of every lru_cache site (never cleared)."""
        out = {}
        for key, fn in sorted(self._lru.items()):
            info = fn.cache_info()
            out[key] = {"hits": info.hits, "misses": info.misses, "currsize": info.currsize}
        return out

    def other_self_s(self) -> float:
        """Traced window not covered by the self time of any layer."""
        return self.t_finish - self.t_install - sum(self.layer_self.values())

    def spans(self) -> dict:
        """Kept spans, column by column, with times relative to install."""
        t0 = self.t_install
        return {
            "names": self.names,
            "id": list(self.span_id),
            "parent": list(self.span_parent),
            "name": list(self.span_name),
            "start_s": [round(t - t0, 7) for t in self.span_start],
            "end_s": [round(t - t0, 7) for t in self.span_end],
            "dropped": self.spans_dropped,
        }

    def profile(self) -> list:
        """Rows (name, caller layer, calls, total_s, self_s), by self time."""
        rows = [
            (name, caller, st[0], st[1], st[2])
            for name, per in self.calls.items()
            for caller, st in per.items()
        ]
        rows.sort(key=lambda r: -r[4])
        return rows
