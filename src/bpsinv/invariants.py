"""Conversions among invariant flavors and extraction of Betti/Euler tables.

Flavors: OMEGA_BAR is the rational multi-cover invariant carried by all
modular generating functions; OMEGA is the integer refined invariant obtained
by inverting the multi-cover sum (``omega_genfun``, one recursion over the
classes (r/m, c1/m)).  The mu-stack counts of ``blowup`` are intermediate
series and carry no flavor."""

from collections import namedtuple
from enum import Enum
from math import gcd

from .exactq import qq
from .geometry import ChernVector, GeometryError
from .intpoly import _pmul, _quotient
from .series import VPoly, _parts

__all__ = [
    "Flavor", "GenFun", "InvariantTable", "TableRow", "InvariantError",
    "omega_genfun", "extract_table",
]


class InvariantError(ValueError):
    pass


class Flavor(Enum):
    OMEGA_BAR = "omegabar"
    OMEGA = "omega"


class GenFun(namedtuple("GenFun", "surface r c1 J flavor series")):
    """A q-series tagged with its geometric meaning: a Surface, the class
    (r, c1), J a Polarization or None (P^2, or J-independent data), a
    Flavor and a QSeries.

    Exponents are r*Delta - r*chi_top(S)/24 over realizable discriminants."""

    __slots__ = ()

    def gamma_of_exponent(self, e):
        """ChernVector at a stored exponent (c1 taken from the tag):
        ch2 = c1^2/(2r) - r*Delta."""
        delta = (qq(e) + qq(self.r * self.surface.chi_top, 24)) / qq(self.r)
        c1sq = self.surface.intersect(self.c1, self.c1)
        ch2 = qq(c1sq) / qq(2 * self.r) - delta * qq(self.r)
        return ChernVector(self.r, self.c1, ch2)


# ---------------------------------------------------------------------------
# Multi-cover conversion (rational -> integer invariants)
# ---------------------------------------------------------------------------

def _class_divisors(r, c1):
    g = r
    for x in c1:
        g = gcd(g, abs(int(x)))
    return [m for m in range(2, g + 1) if g % m == 0]


def omega_genfun(genfun, r, c1) -> GenFun:
    """Integer BPS flavor of the OMEGA_BAR series genfun(r, c1): invert the
    multi-cover sum by subtracting (1/m) * Omega(r/m, c1/m) at q -> q^m,
    w -> -(-w)^m for every m > 1 dividing (r, c1), each lower Omega from
    this same recursion on ``genfun``.  The exponent bookkeeping is exact
    because the discriminant is invariant under scaling the Chern vector."""
    h = genfun(r, c1)
    if h.flavor != Flavor.OMEGA_BAR:
        raise InvariantError("omega_genfun requires OMEGA_BAR inputs")
    series = h.series
    for m in _class_divisors(r, c1):
        low = omega_genfun(genfun, r // m, tuple(x // m for x in c1))
        series = series - low.series.substitute(m).scale(qq(1, m))
    return h._replace(flavor=Flavor.OMEGA, series=series)


# ---------------------------------------------------------------------------
# Betti / Euler tables
# ---------------------------------------------------------------------------

# delta is rational; poincare is the VPoly (w - w^-1) * Omega, a palindromic
# Laurent polynomial; betti is b_0, b_2, ..., b_{2 dim}
TableRow = namedtuple("TableRow", "c2 delta dim poincare betti euler")
InvariantTable = namedtuple("InvariantTable", "surface r c1 rows")


def extract_table(h: GenFun) -> InvariantTable:
    """Per q-exponent of an OMEGA-flavor series: multiply by (w - w^-1),
    demand an integer palindromic Laurent polynomial with nonnegative
    coefficients whose w-span is twice the expected dimension, and read off
    Betti and Euler numbers.  Violations raise InvariantError.  In ints: a
    coefficient (p/q) v^s n/d times v^-2 (v^4 - 1) is a Laurent polynomial
    iff d | v^4 - 1; with N = 24 r Delta = 24 e + r chi_top, 24 r c2 =
    12 (r-1) c1^2 + r N and dim = r N / 12 - r^2 + 1."""
    if h.flavor != Flavor.OMEGA:
        raise InvariantError("extract_table requires an OMEGA-flavor series")
    r, c1sq = h.r, h.surface.intersect(h.c1, h.c1)
    rows = []
    # c2 grows with the exponent, so the rows come out sorted by c2
    for E, p, q, s, n, d in sorted(_parts(h.series._canon())):
        N = E + r * h.surface.chi_top
        c2, rem = divmod(12 * (r - 1) * c1sq + r * N, 24 * r)
        if rem:
            raise GeometryError("non-integral c2 for %s"
                                % (h.gamma_of_exponent(qq(E, 24)),))
        # 12 divides 24 r and 12 (r-1) c1^2, so an integral c2 gives 12 | r N
        dim = r * N // 12 - r * r + 1
        f = _quotient((-1, 0, 0, 0, 1), d)
        if f is None:
            raise InvariantError(
                "integrality violation at c2=%s: coefficient times (w-w^-1) "
                "is not a Laurent polynomial" % (c2,))
        if dim < 0:
            raise InvariantError(
                "nonzero invariant at expected-empty class c2=%s (dim %d)"
                % (c2, dim))
        t, lo = _pmul(n, f), s - 2  # the product is (p/q) v^lo t(v)
        if 2 * lo + len(t) != 1 or t != t[::-1]:
            raise InvariantError("non-palindromic invariant at c2=%s" % (c2,))
        if lo % 2 or any(t[1::2]):
            raise InvariantError("half-integer w-support at c2=%s" % (c2,))
        if lo != -2 * dim:
            raise InvariantError(
                "w-span %s..%s does not match dimension %d at c2=%s"
                % (lo, -lo, dim, c2))
        betti = tuple(p * x // q for x in t[::4])
        if min(betti) < 0 or any(p * x % q for x in t[::4]):
            raise InvariantError(
                "negative or non-integer Betti number at c2=%s" % (c2,))
        if any(t[2::4]):
            raise InvariantError("odd Betti number present at c2=%s" % (c2,))
        rows.append(TableRow(
            c2=c2, delta=qq(N, 24 * r), dim=dim, betti=betti, euler=sum(betti),
            poincare=VPoly({lo + 4 * i: b for i, b in enumerate(betti)})))
    return InvariantTable(surface=h.surface, r=r, c1=h.c1, rows=tuple(rows))
