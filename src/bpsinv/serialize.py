"""Machine-readable encodings.  Exponents and rationals are exact fraction
strings, never floats; v-polynomials are [exponent, coefficient] lists."""

import json
from math import gcd

from .exactq import qq
from .geometry import SUITABLE
from .series import QEXP_DENOMINATOR_BOUND, _parts

FORMAT_VERSION = 1


def _q_str(x):
    return str(qq(x))


def _ratio(a, b):
    """str(Fraction(a, b)) for ints a and b > 0."""
    g = gcd(a, b)
    return str(a // g) if g == b else "%d/%d" % (a // g, b // g)


def wrat_to_obj(p, q, s, n, d):
    """The views num = p/(q lc(d)) v^s n and den = d/lc(d) of (p/q) v^s n/d."""
    lc = d[-1]
    num = [[s + e, _ratio(p * x, q * lc)] for e, x in enumerate(n) if x]
    return {"num": num, "den": [[e, _ratio(x, lc)]
                                for e, x in enumerate(d) if x]}


def qseries_to_obj(s):
    return {
        "cutoff": None if s.cutoff is None else _q_str(s.cutoff),
        "terms": [[_ratio(E, QEXP_DENOMINATOR_BOUND), wrat_to_obj(*parts)]
                  for E, *parts in sorted(_parts(s._canon()))],
    }


def surface_to_obj(s):
    return str(s)


def polarization_to_obj(J):
    if J is None:
        return None
    if J == SUITABLE:
        return "suitable"
    return {"m": [_q_str(J.m), "0"], "n": [_q_str(J.n), _q_str(J.e)]}


def genfun_to_obj(h):
    return {
        "version": FORMAT_VERSION,
        "surface": surface_to_obj(h.surface),
        "rank": h.r,
        "c1": list(h.c1),
        "polarization": polarization_to_obj(h.J),
        "flavor": h.flavor.value,
        "series": qseries_to_obj(h.series),
    }


def table_to_obj(t):
    return {
        "version": FORMAT_VERSION,
        "surface": surface_to_obj(t.surface),
        "rank": t.r,
        "c1": list(t.c1),
        "rows": [
            {"c2": row.c2, "delta": _q_str(row.delta), "dim": row.dim,
             "betti": list(row.betti), "euler": row.euler,
             "poincare": [[e, _q_str(c)]
                          for e, c in sorted(row.poincare.items())]}
            for row in t.rows
        ],
    }


# built once: json.dumps with these arguments builds a new encoder per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(obj):
    return _ENCODER.encode(obj)
