"""The one memo of the pipeline's stages, monotone in precision.

A stage is memoized only where its results are read again, by another
rank, class, cutoff or request: the shared blocks, the weight tables, h1^2,
the suitable-chamber and wall-crossed series, and the plane series that the
reverse conversion reads for each lower rank."""

from functools import update_wrapper
from types import SimpleNamespace

from .exactq import qq

__all__ = ["memo", "clear_caches"]

_MEMOS = []
_UNSET = object()


def memo(fn, check=lambda *args: None):
    """Memoize a stage on its arguments, defaults applied, keyed on all but
    ``cutoff``.  A stage returns a bare series at exactly the cutoff asked
    for; a key keeps its deepest result (c', v) and serves c <= c' as v
    truncated at c.  A call is bound by the stage's own parameters, all
    positional-or-keyword; one the stage would reject raises TypeError.
    ``check`` is called on the bound arguments before the table is read, so
    what it rejects raises on a hit as on a miss."""
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount]
    defaults = dict(zip(names[::-1], (fn.__defaults__ or ())[::-1]))
    at = names.index("cutoff") if "cutoff" in names else len(names)
    table, info = {}, SimpleNamespace(hits=0, misses=0)

    def wrapper(*given, **kwargs):
        args = list(given) + [kwargs.pop(k, defaults.get(k, _UNSET))
                              for k in names[len(given):]]
        if kwargs or len(given) > len(names) or _UNSET in args:
            raise TypeError("call does not bind to %s(%s)"
                            % (fn.__name__, ", ".join(names)))
        cut = args[at] if at < len(names) else None
        if cut is not None:
            cut = args[at] = qq(cut)
        check(*args)
        key = tuple(args[:at] + args[at + 1:])
        if key in table and (cut is None or table[key][0] >= cut):
            info.hits += 1
            deep, value = table[key]
            return value if deep == cut else value.truncate(cut)
        info.misses += 1
        table[key] = (cut, fn(*args))
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
