"""The one memo of the pipeline's stages, monotone in precision."""

from dataclasses import replace
from functools import update_wrapper
from inspect import signature
from types import SimpleNamespace

from .exactq import qq
from .series import QSeries

__all__ = ["memo", "clear_caches"]

_MEMOS = []


def memo(fn):
    """Memoize a stage on its arguments, defaults applied, keyed on all but
    ``cutoff``.  A key keeps its deepest result (c', v) and serves c <= c' as
    v truncated at v.cutoff - (c' - c): a stage's result cutoff sits a fixed
    distance from the one asked for."""
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
            return value if deep == cut else _truncated(value, deep - cut)
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


def _truncated(value, loss):
    if isinstance(value, QSeries):
        return value.truncate(value.cutoff - loss)
    return replace(value, series=_truncated(value.series, loss))


def clear_caches():
    """Empty every stage memo, for long-running library use."""
    for m in _MEMOS:
        m.cache_clear()
