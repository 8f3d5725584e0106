"""Top-level dispatch: generating functions and tables per surface, class
and polarization.  The integer flavors hand a dispatcher to
``invariants.omega_genfun``, which asks it for (r, c1) and each (r/m, c1/m)."""

from .exactq import qq
from .blowup import p2_series
from .geometry import SUITABLE, Surface
from .hn import suitable_genfun_closed
from .invariants import Flavor, GenFun, extract_table, omega_genfun
from .wallcross import WallError, genfun_at_polarization

__all__ = [
    "sigma_genfun", "sigma_omega_genfun", "sigma_table", "p2_genfun",
    "p2_omega_genfun", "p2_table", "default_cutoff",
]


def default_cutoff(r, surface, qorders):
    """qorders q-levels above the baseline exponent -r chi(S)/24."""
    return qq(int(qorders)) - qq(r * surface.chi_top, 24)


def sigma_genfun(r, c1, ell, J, cutoff):
    """Rational-invariant generating function on Sigma_ell at J; the suitable
    chamber supports r <= 4, generic polarizations r <= 3 (above that only
    the wall march exists there, with no second route to check it).  The
    result depends on c1 mod r only, and so do the memo keys; in the
    suitable chamber it does not depend on ell either.  Every stage returns
    a bare series, tagged here."""
    c1 = tuple(c % r for c in c1)
    if J == SUITABLE:
        series = suitable_genfun_closed(r, c1, qq(cutoff))
    elif r > 3:
        raise WallError("generic polarizations support r <= 3")
    else:
        series = genfun_at_polarization(r, c1, ell, J, qq(cutoff))
    return GenFun(surface=Surface.hirzebruch(ell), r=r, c1=c1, J=J,
                  flavor=Flavor.OMEGA_BAR, series=series)


def sigma_omega_genfun(r, c1, ell, J, cutoff):
    """Integer BPS flavor on Sigma_ell at J."""
    return omega_genfun(
        lambda r, c1: sigma_genfun(r, c1, ell, J, cutoff), r, tuple(c1))


def sigma_table(r, c1, ell, J, cutoff):
    return extract_table(sigma_omega_genfun(r, c1, ell, J, cutoff))


def p2_genfun(r, x, cutoff, route_k=None):
    """Rational-invariant generating function on the plane; route_k selects
    the blown-up-plane route of ``blowup.p2_series``, whose series is tagged
    here."""
    series = p2_series(r, x, cutoff, route_k)
    r = int(r)
    return GenFun(surface=Surface.p2(), r=r, c1=(int(x) % r,), J=None,
                  flavor=Flavor.OMEGA_BAR, series=series)


def p2_omega_genfun(r, x, cutoff):
    """Integer BPS flavor on the plane; x is reduced mod r before any memo,
    as it is on Sigma_ell."""
    return omega_genfun(lambda r, c1: p2_genfun(r, c1[0], cutoff), r,
                        (x % r,))


def p2_table(r, x, cutoff):
    return extract_table(p2_omega_genfun(r, x, cutoff))
