"""Surface data, Chern vectors, polarizations and walls.

Surfaces are the Hirzebruch surfaces S_ell (basis C, f of H^2 with
C^2 = -ell, f^2 = 0, C.f = 1) and the projective plane (basis H, H^2 = 1).
Classes are integer tuples in the surface basis; slopes are rational tuples.
"""

from collections import namedtuple
from math import gcd

from .exactq import qq

__all__ = [
    "Surface", "ChernVector", "Polarization", "GeometryError",
    "discriminant", "expected_dimension", "walls_between", "piece_cutoff",
]


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Surfaces
# ---------------------------------------------------------------------------

class Surface(namedtuple("Surface", "kind ell", defaults=(0,))):
    """'hirzebruch' with parameter ell, or 'p2' (ell ignored)."""

    __slots__ = ()

    @staticmethod
    def hirzebruch(ell):
        if ell < 0:
            raise GeometryError("Hirzebruch parameter must be >= 0")
        return Surface("hirzebruch", int(ell))

    @staticmethod
    def p2():
        return Surface("p2")

    @property
    def rank2(self):
        return self.kind == "hirzebruch"

    @property
    def b2(self):
        return 2 if self.rank2 else 1

    @property
    def chi_top(self):
        return 4 if self.rank2 else 3

    chi_O = 1

    def intersect(self, u, v):
        """Intersection pairing of two H^2 classes: an int for integral
        classes, a rational for rational ones."""
        if self.rank2:
            (x1, y1), (x2, y2) = u, v
            return -self.ell * x1 * x2 + x1 * y2 + y1 * x2
        return u[0] * v[0]

    def canonical_class(self):
        if self.rank2:
            return (-2, -2 - self.ell)
        return (-3,)

    def __str__(self):
        return "hirzebruch:%d" % self.ell if self.rank2 else "p2"


# ---------------------------------------------------------------------------
# Chern vectors
# ---------------------------------------------------------------------------

class ChernVector(namedtuple("ChernVector", "r c1 ch2")):
    """(rank, first Chern class in the surface basis, ch2), with c1 made a
    tuple of ints and ch2 a rational."""

    __slots__ = ()

    def __new__(cls, r, c1, ch2):
        self = super().__new__(cls, r, tuple(int(x) for x in c1), qq(ch2))
        if r < 1:
            raise GeometryError("rank must be positive")
        return self

    def c2(self, surface):
        c2 = qq(surface.intersect(self.c1, self.c1), 2) - self.ch2
        if c2.denominator != 1:
            raise GeometryError("non-integral c2 for %s" % (self,))
        return int(c2)


def discriminant(gamma, surface):
    """Delta = (c2 - (r-1)/(2r) c1^2) / r = mu^2/2 - ch2/r."""
    r = gamma.r
    return qq(surface.intersect(gamma.c1, gamma.c1), 2 * r * r) - gamma.ch2 / r


def piece_cutoff(cutoff, r, ri, surface):
    """The cutoff a rank-ri factor (ri = 0 for a weight) needs in a rank-r
    product wanted below cutoff: rank-s functions lead with q^(-s chi/24),
    so the other factors lead with q^(-(r - ri) chi/24) together."""
    return cutoff + qq((r - ri) * surface.chi_top, 24)


def expected_dimension(gamma, surface):
    """2 r^2 Delta - r^2 chi(O) + 1; may be negative (expected-empty)."""
    r2 = gamma.r * gamma.r
    d = 2 * r2 * discriminant(gamma, surface) - r2 * surface.chi_O + 1
    if d.denominator != 1:
        raise GeometryError("non-integral expected dimension: inconsistent %s"
                            % (gamma,))
    return int(d)


# ---------------------------------------------------------------------------
# Polarizations (with exact infinitesimal parts)
# ---------------------------------------------------------------------------

class Polarization(namedtuple("Polarization", "m n e", defaults=(0,))):
    """J_{m,n} = m(C + ell f) + n f with exact m, n, and e the sign of an
    infinitesimal eps added to n; m = 0 stands for m = eps.

    SUITABLE = J_{eps,1} is the suitable chamber near the fibre;
    NEAR_PULLBACK = J_{1,eps} is the chamber next to J_{1,0}, the pullback
    of the plane's hyperplane class, a boundary point used only for
    mu-stability."""

    __slots__ = ()

    @staticmethod
    def generic(m, n):
        J = Polarization(qq(m), qq(n))
        if J.m <= 0 or J.n <= 0:
            raise GeometryError("J_{m,n} requires m, n > 0")
        return J

    @property
    def is_boundary(self):
        return not (self.n or self.e)

    def slope(self):
        """n/m as (t, e): the rational part t and the sign e of the eps part,
        so J_{m,n} gives (n/m, 0) and J_{1,eps} gives (0, 1).  None for
        J_{eps,1}, which lies above every wall."""
        return (qq(self.n) / self.m, self.e) if self.m else None


SUITABLE = Polarization(0, 1)          # J_{eps,1}
NEAR_PULLBACK = Polarization(1, 0, 1)  # J_{1,eps}


# ---------------------------------------------------------------------------
# Wall enumeration
# ---------------------------------------------------------------------------

def walls_between(r, surface, qshift_bound):
    """Walls between the suitable chamber and the pullback of the plane's
    hyperplane class (every slope is positive and finite) that can carry a
    crossing term for a rank-r class with q-shift below qshift_bound, sorted
    by decreasing slope.  Returns [(slope, primitive direction)].

    A two-step splitting with slope difference zeta/(rp rq) shifts q by
    (-zeta^2)/(2 r rp rq); longer filtrations shift by at least as much per
    primitive step, so -zeta_prim^2 <= 2 r rp rq qshift_bound is a superset
    bound.  Only integer directions zeta = (x, y), x >= 1, y <= -1 can host
    a wall (positive slope |y|/x), and -zeta^2 = ell x^2 + 2x|y| is at least
    2x at fixed x, so the enumeration is finite.  A rank-1 class has no
    splittings and so no walls."""
    bound = max((2 * r * rp * (r - rp) for rp in range(1, r)), default=0) \
        * qshift_bound.numerator // qshift_bound.denominator
    ell = surface.ell
    prims = set()
    x = 1
    while ell * x * x + 2 * x <= bound:
        y = -1
        while ell * x * x - 2 * x * y <= bound:
            g = gcd(x, y)
            prims.add((x // g, y // g))
            y -= 1
        x += 1
    return sorted(((qq(-y, x), (x, y)) for x, y in prims), reverse=True)
