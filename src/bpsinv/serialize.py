"""Machine-readable encodings.  Exponents and rationals are exact fraction
strings, never floats; v-polynomials are [exponent, coefficient] lists."""

import json

from .exactq import qq
from .geometry import SUITABLE

FORMAT_VERSION = 1


def _q_str(x):
    return str(qq(x))


def vpoly_to_obj(p):
    return [[e, _q_str(c)] for e, c in sorted(p.items())]


def wrat_to_obj(x):
    return {"num": vpoly_to_obj(x.num), "den": vpoly_to_obj(x.den)}


def qseries_to_obj(s):
    return {
        "cutoff": None if s.cutoff is None else _q_str(s.cutoff),
        "terms": [[_q_str(e), wrat_to_obj(s.terms[e])] for e in s.support()],
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
             "poincare": vpoly_to_obj(row.poincare)}
            for row in t.rows
        ],
    }


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
