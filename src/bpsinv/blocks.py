"""Named modular building blocks as exact q-series.

theta_hat(k) is the phase-stripped theta factor:

    theta_hat(k) = q^(1/8) (w^k - w^-k) prod_{n>=1} (1-q^n)(1-w^{2k}q^n)(1-w^{-2k}q^n)

so that the odd Jacobi theta at even multiples of the refinement parameter is
i * theta_hat(k).  Every displayed formula downstream resolves to theta_hat
and eta with total phase +1; coefficients stay rational throughout, which the
constructors assert implicitly by living in WRat.

Each block is a bare series.  Those that every rank shares are memoized on
their arguments but the cutoff; the fibre quotient on r alone, as neither
c1 nor ell enters it: one entry serves every class on every Sigma_ell, and
its r = 1 entry is h1 there.  theta_hat(k) is read only through the memo of
its inverse, and the blow-up lattice sum Theta_{r,k} once per plane series,
so neither is memoized.  The quotients are built as a ladder, each rank
from the one below, and the plane divides by eta^-r Theta_{r,k} as
eta^r / Theta_{r,k}, so the only series ever inverted are the sparse sums
eta, theta_hat(k) and Theta_{r,k}; each 1/theta_hat(k) is one entry, and
1/theta_hat(1) is h1 on the plane.
"""

from functools import partial
from itertools import product as iproduct
from math import gcd, isqrt

from .exactq import qq
from .intpoly import _from_int_polys, _gather
from .memo import memo
from .series import QSeries, WRat, SeriesError, _from_lifted, _grid

__all__ = [
    "eta_series", "theta_hat", "inverse_theta_hat", "fibre_quotient",
    "blowup_theta",
]


def _eta_cutoff(cutoff):
    if cutoff <= qq(1, 24):
        raise SeriesError("eta cutoff must exceed 1/24")


@partial(memo, check=_eta_cutoff)
def eta_series(cutoff) -> QSeries:
    """Dedekind eta, q^(1/24) prod (1 - q^n), by Euler's pentagonal sum over
    m > 0 prime to 6 of chi_12(m) q^(m^2/24), chi_12(m) = +1 for m = +-1 and
    -1 for m = +-5 mod 12."""
    top = isqrt(24 * cutoff.numerator // cutoff.denominator)
    return QSeries.from_grid(
        {_grid(m * m, 24): WRat.from_rational(1 if m % 12 in (1, 11) else -1)
         for m in range(1, top + 1) if gcd(m, 6) == 1}, cutoff)


def theta_hat(k, cutoff) -> QSeries:
    """Jacobi's triple product as its sum over odd m > 0 of
    (-1)^((m-1)/2) q^(m^2/8) (w^(km) - w^(-km))."""
    k = int(k)
    if k < 1:
        raise SeriesError("theta_hat requires k >= 1")
    cutoff = qq(cutoff)
    top = isqrt(max(8 * cutoff.numerator // cutoff.denominator, 0))
    return QSeries.from_grid(
        {_grid(m * m, 8): (WRat.w_power(k * m) - WRat.w_power(-k * m)).scale(
            (-1) ** (m // 2)) for m in range(1, top + 1, 2)}, cutoff)


@memo
def inverse_theta_hat(k, cutoff) -> QSeries:
    """1/theta_hat(k), inverted from its sparse sum: theta_hat(k) leads with
    q^(1/8), so its inverse at c needs it at c + 1/4."""
    return theta_hat(k, cutoff + qq(1, 4)).invert().truncate(cutoff)


@memo
def fibre_quotient(r, cutoff) -> QSeries:
    """eta^(2r-3) / (theta_hat(1)^2 ... theta_hat(r-1)^2 theta_hat(r)), as
    the ladder F(1) = 1/(eta theta_hat(1)) and
    F(r) = F(r-1) eta^2 / (theta_hat(r-1) theta_hat(r)): only the sparse
    theta_hat sums are ever inverted."""
    r = int(r)
    # F(r) leads with q^(-r/6): each factor is cut at c + r/6 plus its lead
    top = cutoff + qq(r, 6)
    if r == 1:
        # eta^-1 leads with q^(-1/24); eta at c' keeps its inverse to c' - 1/12
        return (eta_series(top + qq(1, 24)).invert()
                * inverse_theta_hat(1, top - qq(1, 8))).truncate(cutoff)
    # eta^2 at c' needs eta at c' - 1/24
    return (fibre_quotient(r - 1, top - qq(r - 1, 6))
            * eta_series(top + qq(1, 24)) ** 2
            * inverse_theta_hat(r - 1, top - qq(1, 8))
            * inverse_theta_hat(r, top - qq(1, 8))).truncate(cutoff)


def blowup_theta(r, k, cutoff) -> QSeries:
    """Theta_{r,k} = sum over (a_1..a_r), sum a_i = 0, a_i in Z + k/r, of
    q^(-sum_{i<j} a_i a_j) w^(sum_{i<j} (a_i - a_j)); B_{r,k} = eta^-r Theta.

    The sum runs over the integer points b_i = r a_i = k mod r, sum b_i = 0.
    The w-exponent sum_{i<j}(a_i - a_j) = sum_i (r+1-2i) b_i / r is always
    an integer, so every coefficient has integer w-support.  Truncation: the
    quadratic form -sum_{i<j} a_i a_j = sum b_i^2 / (2 r^2) is positive
    definite on the sum-zero lattice, so points outside a finite ball exceed
    the cutoff.  The points are counted in ints, {E: {v-exponent: int}}."""
    r, k = int(r), int(k) % int(r)
    cutoff = qq(cutoff)
    # a point is kept when sum b_i^2 / (2 r^2) < cutoff, i.e. below lim;
    # the last b_i is fixed by the sum, which also puts it in the class k
    lim = -(-2 * r * r * cutoff.numerator // cutoff.denominator)
    m = isqrt(max(lim - 1, 0))
    polys = {}
    for head in iproduct(range(-m + (k + m) % r, m + 1, r), repeat=r - 1):
        b = head + (-sum(head),)
        sq = sum(x * x for x in b)
        if sq < lim:
            wexp = sum((r - 1 - 2 * i) * x for i, x in enumerate(b)) // r
            _gather(polys, _grid(sq, 2 * r * r), ((wexp, 1),))
    return _from_lifted(_from_int_polys(polys, 1), cutoff)
