"""Per-layer spans and counters for a traced benchmark run.

The program has no tracing of its own, so the spans are recorded from
outside it: every public entry point of each layer module of ``bpsinv`` is
replaced, in every ``bpsinv`` namespace that holds it, by a wrapper.  The
wrappers count calls, record a span (function, start, end, parent) for each
call into a stage layer, and derive each layer's self time: its span time
minus the time of its child spans.

``lru_cache`` functions recurse through their module-global name and are
imported elsewhere with ``from .x import f``, which is why a wrapper is
installed under every name that holds the original.  Memo hits and misses
are read from the original function's ``cache_info()``.
"""

import importlib
import sys
import time
from array import array

LAYERS = ("cli", "compute", "blowup", "wallcross", "hn", "blocks",
          "invariants", "series", "serialize", "cache")

# Leaf layers whose functions call each other many times per stage call: a
# call from inside the same layer is only counted, not given a span.
KERNEL_LAYERS = ("series", "serialize")

# Private functions that are entry points of their layer all the same.
EXTRA_ENTRY_POINTS = {"series": ("_reduce",)}

ARITHMETIC_DUNDERS = ("__add__", "__radd__", "__sub__", "__rsub__",
                      "__mul__", "__rmul__", "__truediv__", "__pow__",
                      "__neg__")

# Structural accessors of the kernel classes: wrapping them would time the
# wrapper rather than the work.
ACCESSORS = frozenset((
    "is_zero", "items", "coeff", "is_even_support", "is_one", "is_monomial",
    "is_polynomial", "as_vpoly", "support", "leading_exponent",
    "leading_coeff",
))

# Functions reported as a unit of their own inside their layer: nested calls
# of the same layer count toward the unit's time.
UNITS = {"series.QSeries.invert": "series.invert"}

# Named counters: metric prefix -> wrapped function.
NAMED_CALLS = {
    "series.vpoly_gcd": "series.VPoly.gcd",
    "series.wrat_reduce": "series._reduce",
    "series.wrat_mul": "series.WRat.__mul__",
    "series.wrat_add": "series.WRat.__add__",
    "series.qseries_mul": "series.QSeries.__mul__",
    "series.invert": "series.QSeries.invert",
}
NAMED_MEMOS = (
    "blocks.eta_series", "blocks.fibre_product_genfun",
    "hn.suitable_genfun_recursive", "wallcross.genfun_at_polarization",
    "blowup.gieseker_to_mu", "blowup.p2_genfun",
)
DISTINCT_RESULTS = "wallcross.genfun_at_polarization"

_ROOT = -1
_PAUSED = -2


class Tracer:
    """Install with :meth:`install`, run the requests, read
    :meth:`metrics`, and restore the program with :meth:`uninstall`."""

    def __init__(self, package):
        self.package = package
        self.unit_names = list(LAYERS) + sorted(set(UNITS.values()))
        self.unit_layer = [LAYERS.index(u.split(".")[0])
                           for u in self.unit_names]
        self.unit_self = [0.0] * len(self.unit_names)
        self.fn_names = []        # "layer.qualname" per wrapped function
        self.fn_layer = []
        self.calls = []
        self.inclusive = []       # seconds inside spans opened by each function
        self.originals = {}       # "layer.qualname" -> original callable
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # frame: [unit, layer, seconds of child spans, span index]
        self.stack = [[_ROOT, _ROOT, 0.0, _ROOT]]
        self.cache_hits = 0
        self.cache_misses = 0
        self.serialize_bytes = 0
        self.inspect_s = 0.0
        self.max_terms = 0
        self.max_den_deg = 0
        self.max_coeff_bits = 0
        self._inspected = {}      # id -> object, so ids are not reused
        self._distinct = set()
        self._restore = []

    # -- installation ----------------------------------------------------

    def install(self):
        modules = {layer: importlib.import_module(
            "%s.%s" % (self.package.__name__, layer)) for layer in LAYERS}
        wrappers = {}             # id(original function) -> wrapper
        for layer, module in modules.items():
            extra = EXTRA_ENTRY_POINTS.get(layer, ())
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj) and (not name.startswith("_")
                                        or name in extra):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        prefix = self.package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix
                                      or mod_name.startswith(prefix + ".")):
                continue
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((namespace, name, obj))
                    namespace[name] = hit[1]
        return self

    def uninstall(self):
        for target, name, obj in reversed(self._restore):
            if isinstance(target, dict):
                target[name] = obj
            else:
                setattr(target, name, obj)
        self._restore = []

    def _wrap_class(self, layer, cls):
        done = {}
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in ARITHMETIC_DUNDERS:
                continue
            if name in ACCESSORS:
                continue
            static = isinstance(attr, staticmethod)
            fn = attr.__func__ if static else attr
            if not callable(fn) or isinstance(fn, type):
                continue
            if id(fn) not in done:
                qual = "%s.%s" % (cls.__name__, fn.__name__)
                done[id(fn)] = self._wrap(layer, qual, fn)
            wrapper = done[id(fn)]
            self._restore.append((cls, name, attr))
            setattr(cls, name, staticmethod(wrapper) if static else wrapper)

    def _wrap(self, layer, qualname, fn):
        full = "%s.%s" % (layer, qualname)
        index = len(self.fn_names)
        self.fn_names.append(full)
        self.fn_layer.append(layer)
        self.calls.append(0)
        self.inclusive.append(0.0)
        self.originals[full] = fn
        layer_i = LAYERS.index(layer)
        unit = self.unit_names.index(UNITS.get(full, layer))
        hook = {"cache.ResultCache.get": self._count_cache,
                "serialize.dumps": self._count_bytes,
                DISTINCT_RESULTS: self._note_distinct}.get(full)
        inspect = layer not in KERNEL_LAYERS
        # kernel calls from inside their own layer take the counting path
        counted_only = layer_i if (layer in KERNEL_LAYERS and hook is None
                                   and full not in UNITS) else None
        calls = self.calls
        stack = self.stack
        span = self._span

        def wrapper(*args, **kwargs):
            top = stack[-1][1]
            if top == _PAUSED:
                return fn(*args, **kwargs)
            calls[index] += 1
            if top == counted_only:
                return fn(*args, **kwargs)
            return span(index, unit, fn, args, kwargs, hook, inspect)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qualname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- recording -------------------------------------------------------

    def _span(self, index, unit, fn, args, kwargs, hook, inspect):
        stack = self.stack
        parent = stack[-1]
        span_id = len(self.span_fn)
        self.span_fn.append(index)
        self.span_parent.append(parent[3])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        frame = [unit, self.unit_layer[unit], 0.0, span_id]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            elapsed = t1 - t0
            self.span_start[span_id] = t0
            self.span_end[span_id] = t1
            self.unit_self[unit] += elapsed - frame[2]
            self.inclusive[index] += elapsed
            parent[2] += elapsed
        if hook is not None or inspect:
            # tracer bookkeeping: no counts, and no time charged to the parent
            t2 = time.perf_counter()
            stack.append([_PAUSED, _PAUSED, 0.0, _ROOT])
            try:
                if hook is not None:
                    hook(result)
                if inspect:
                    self._inspect(result)
            finally:
                stack.pop()
            dt = time.perf_counter() - t2
            self.inspect_s += dt
            parent[2] += dt
        return result

    def _count_cache(self, value):
        if value is None:
            self.cache_misses += 1
        else:
            self.cache_hits += 1

    def _count_bytes(self, text):
        self.serialize_bytes += len(text.encode())

    def _series_obj(self, result):
        """The serialized form of a returned series, or None.  Serialization
        is the representation the program promises to keep stable."""
        series = getattr(result, "series", None)
        if series is None or not hasattr(series, "terms"):
            return None
        return self.originals["serialize.qseries_to_obj"](series)

    def _note_distinct(self, result):
        obj = self._series_obj(result)
        if obj is not None:
            self._distinct.add(self.originals["serialize.dumps"](obj))

    def _inspect(self, result):
        if id(result) in self._inspected:
            return
        obj = self._series_obj(result)
        if obj is None:
            return
        self._inspected[id(result)] = result
        self.max_terms = max(self.max_terms, len(obj["terms"]))
        for _, coeff in obj["terms"]:
            den = [e for e, _ in coeff["den"]]
            self.max_den_deg = max(self.max_den_deg, max(den) - min(den))
            for _, c in coeff["num"] + coeff["den"]:
                for part in c.lstrip("-").split("/"):
                    self.max_coeff_bits = max(self.max_coeff_bits,
                                              int(part).bit_length())

    # -- results ---------------------------------------------------------

    def spans(self):
        """Recorded spans as (function, start, end, parent span or -1)."""
        return [(self.fn_names[f], s, e, p) for f, s, e, p in
                zip(self.span_fn, self.span_start, self.span_end,
                    self.span_parent)]

    def layer_spans(self):
        """Number of spans recorded per layer."""
        out = dict.fromkeys(LAYERS, 0)
        for f in self.span_fn:
            out[self.fn_layer[f]] += 1
        return out

    def _memo_info(self, full):
        fn = self.originals.get(full)
        info = getattr(fn, "cache_info", None)
        if info is None:
            # no memo: every call computes
            calls = self.calls[self.fn_names.index(full)] if fn else 0
            return 0, calls
        info = info()
        return info.hits, info.misses

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        out = {}
        for layer in LAYERS:
            out["%s.calls" % layer] = (sum(
                c for c, l in zip(self.calls, self.fn_layer) if l == layer),
                "count")
            out["%s.self_s" % layer] = (sum(
                s for s, l in zip(self.unit_self, self.unit_layer)
                if LAYERS[l] == layer), "s")
        for name, full in NAMED_CALLS.items():
            i = self.fn_names.index(full) if full in self.fn_names else None
            out["%s.calls" % name] = (0 if i is None else self.calls[i],
                                      "count")
        for unit in sorted(set(UNITS.values())):
            out["%s.self_s" % unit] = (
                self.unit_self[self.unit_names.index(unit)], "s")
        out["series.max_terms"] = (self.max_terms, "count")
        out["series.max_den_deg"] = (self.max_den_deg, "deg")
        out["series.max_coeff_bits"] = (self.max_coeff_bits, "bits")
        for full in NAMED_MEMOS:
            out["%s.misses" % full] = (self._memo_info(full)[1], "count")
        hits = misses = 0
        for fn in self.originals.values():
            info = getattr(fn, "cache_info", None)
            if info is not None:
                info = info()
                hits += info.hits
                misses += info.misses
        out["memo.hit_ratio"] = (hits / (hits + misses) if hits + misses
                                 else 0.0, "ratio")
        wc_misses = self._memo_info(DISTINCT_RESULTS)[1]
        out["wallcross.distinct_ratio"] = (
            len(self._distinct) / wc_misses if wc_misses else 0.0, "ratio")
        out["cache.hits"] = (self.cache_hits, "count")
        out["cache.misses"] = (self.cache_misses, "count")
        out["cache.read_s"] = (self._inclusive("cache.ResultCache.get"), "s")
        out["cache.write_s"] = (self._inclusive("cache.ResultCache.put"), "s")
        out["serialize.bytes"] = (self.serialize_bytes, "B")
        out["trace.spans"] = (len(self.span_fn), "count")
        out["trace.inspect_s"] = (self.inspect_s, "s")
        return out

    def _inclusive(self, full):
        if full not in self.fn_names:
            return 0.0
        return self.inclusive[self.fn_names.index(full)]
