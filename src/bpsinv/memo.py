"""The one memo of the pipeline's stages, monotone in precision.

A stage is memoized only where its results are read again, by another
rank, class, cutoff or request: the shared blocks, the weight tables, h1^2,
the suitable-chamber and wall-crossed series, and the plane series that the
reverse conversion reads for each lower rank."""

from functools import update_wrapper
from inspect import signature
from types import SimpleNamespace

from .exactq import qq

__all__ = ["memo", "clear_caches"]

_MEMOS = []


def memo(fn):
    """Memoize a stage on its arguments, defaults applied, keyed on all but
    ``cutoff``.  A stage returns a bare series at exactly the cutoff asked
    for; a key keeps its deepest result (c', v) and serves c <= c' as v
    truncated at c."""
    sig, table, info = signature(fn), {}, SimpleNamespace(hits=0, misses=0)

    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        cut = bound.arguments.get("cutoff")
        if cut is not None:
            cut = bound.arguments["cutoff"] = qq(cut)
        key = tuple(v for k, v in bound.arguments.items() if k != "cutoff")
        if key in table and (cut is None or table[key][0] >= cut):
            info.hits += 1
            deep, value = table[key]
            return value if deep == cut else value.truncate(cut)
        info.misses += 1
        table[key] = (cut, fn(*bound.args, **bound.kwargs))
        return table[key][1]

    def cache_clear():
        table.clear()
        info.hits = info.misses = 0

    wrapper.cache_info = lambda: SimpleNamespace(**vars(info))
    wrapper.cache_clear = cache_clear
    _MEMOS.append(wrapper)
    return update_wrapper(wrapper, fn)


def clear_caches():
    """Empty every stage memo, for long-running library use."""
    for m in _MEMOS:
        m.cache_clear()
