"""Machine-readable encodings.  Exponents and rationals are exact fraction
strings, never floats; v-polynomials are [exponent, coefficient] lists."""

import json

from .exactq import qq
from .geometry import SUITABLE
from .series import QSeries, VPoly, WRat

FORMAT_VERSION = 1


def _q_str(x):
    return str(qq(x))


def vpoly_to_obj(p):
    return [[e, _q_str(c)] for e, c in sorted(p.items())]


def vpoly_from_obj(obj):
    return VPoly({int(e): qq(c) for e, c in obj})


def wrat_to_obj(x):
    return {"num": vpoly_to_obj(x.num), "den": vpoly_to_obj(x.den)}


def wrat_from_obj(obj):
    return WRat(vpoly_from_obj(obj["num"]), vpoly_from_obj(obj["den"]))


def qseries_to_obj(s):
    return {
        "cutoff": None if s.cutoff is None else _q_str(s.cutoff),
        "terms": [[_q_str(e), wrat_to_obj(s.terms[e])] for e in s.support()],
    }


def qseries_from_obj(obj):
    cutoff = None if obj["cutoff"] is None else qq(obj["cutoff"])
    return QSeries({qq(e): wrat_from_obj(c) for e, c in obj["terms"]}, cutoff)


def surface_to_obj(s):
    return str(s)


def polarization_to_obj(J):
    if J is None:
        return None
    if J == SUITABLE:
        return "suitable"
    return {"m": [_q_str(J.m.a), _q_str(J.m.b)],
            "n": [_q_str(J.n.a), _q_str(J.n.b)]}


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
