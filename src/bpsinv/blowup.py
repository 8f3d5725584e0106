"""The three-step pipeline from the once-blown-up plane to the plane.

Step (1) passes from Gieseker invariants in the chamber J_{1,eps} to the
virtual count of the mu-semi-stable stack at the boundary polarization
J_{1,0} = pullback of the hyperplane class.  The stack sum and the stacky
factorials combine into a single sum over tuples of pieces with equal
mu-slope (equal f-degree per rank) ordered by the J_{1,eps} refinement;
equal-slope runs contribute Boltzmann factors 1/g!.  Those slopes lie on the
line c1/r + Q C, so the sum is ``wallcross.line_filtrations`` along C.

Step (2) divides by the blow-up factor eta^-r Theta_{r,k}, landing on the
plane; only the sparse lattice sum Theta_{r,k} is inverted.

Step (3) reverses step (1) on the plane, where equal-slope splittings are the
only corrections (b2 = 1): each multiset of ranks enters with
1/prod(multiplicity!), the sum of 1/len! over its orderings.

Every step is written for any rank, but q-exponents stay on the 1/24 grid
only up to rank 4 (rank 5 raises SeriesError); above rank 3 the chamber
functions come from the wall march.  The CLI accepts r <= 3 on the plane.

Each step returns a bare series, and so does ``p2_series``, which chains
them; ``compute.p2_genfun``, the plane's entry point, tags its result.
``p2_series`` is the one memoized stage here: the reverse conversion reads
it for every lower rank, and a table reads it for each multi-cover
divisor.
"""

from math import factorial

from .exactq import qq
from .blocks import blowup_theta, eta_series, inverse_theta_hat
from .geometry import NEAR_PULLBACK, Surface, piece_cutoff
from .hn import _compositions, _product_sum
from .invariants import InvariantError
from .memo import memo
from .wallcross import genfun_at_polarization, line_filtrations

__all__ = [
    "BlowupError", "gieseker_to_mu", "blowup_divide", "mu_to_gieseker",
    "p2_series",
]

P2 = Surface.p2()
SIGMA1 = Surface.hirzebruch(1)


class BlowupError(InvariantError):
    pass


def gieseker_to_mu(r, c1, cutoff):
    """H^mu_{r,c1}(J_{1,0}) on the blown-up plane from the J_{1,eps} chamber
    functions: the filtration sum along the line c1/r + Q C, pieces of equal
    f-degree per rank ordered by weakly decreasing C-degree per rank."""
    r = int(r)
    X, Y = int(c1[0]), int(c1[1])
    # q-shifts (>= 0, Hodge index) are the rank-0 factor of a rank-r product;
    # tuples with the same multiset of piece functions share their product
    weights = line_filtrations(r, (X, Y), (1, 0), SIGMA1,
                               piece_cutoff(cutoff, r, 0, SIGMA1))
    total = _product_sum(weights, lambda p: genfun_at_polarization(
        p[0], p[1], 1, NEAR_PULLBACK,
        piece_cutoff(cutoff, r, p[0], SIGMA1)))
    return total.truncate(cutoff)


def blowup_divide(hmu, r, k, cutoff):
    """Divide a mu-stack series on the blown-up plane by B_{r,k}, as
    hmu * eta^r / Theta_{r,k}; the result lives on the plane.  All
    coefficients must keep integer w-support."""
    r = int(r)
    k = int(k) % r
    # 1/B is the rank-0 factor of a rank-r product, known below pc: 1/Theta
    # leads with q^-L, L = lead(B) + r/24, and keeps Theta's cutoff - 2L,
    # and eta^r keeps eta's + (r-1)/24.  eta is cut L deeper than pc needs,
    # as when B was built whole, so that too shallow a cutoff raises the
    # same error; hmu's cutoff - lead(B) is the caller's to supply
    pc = piece_cutoff(cutoff, r, 0, SIGMA1)
    theta_cut = pc + 2 * _lead_of_B(r, k) + qq(r, 24)
    quotient = hmu * (eta_series(theta_cut + qq(1, 24)) ** r
                      * blowup_theta(r, k, theta_cut).invert())
    if not _integer_w_support(quotient):
        raise BlowupError("blow-up parity violation")
    return quotient.truncate(cutoff)


def _integer_w_support(series):
    """Every coefficient has even v-support: read from the lifted parts when
    v^s, D and every N_E do (a gcd of polynomials in v^2 with nonzero
    constant terms lies in Z[v^2]), else from the reduced coefficients."""
    lifted = series._lifted
    if lifted is not None:
        _, s, D, terms = lifted
        if s % 2 == 0 and not any(D[1::2]) and not any(
                i % 2 for _, (idx, _) in terms for i in idx):
            return True
    return all(c.is_even_support() for c in series.terms.values())


def _lead_of_B(r, k):
    """B_{r,k} leads with q^(k(r-k)/(2r) - r/24): eta^-r times the shortest
    vector of the shifted lattice, k entries (k-r)/r and r-k entries k/r."""
    return qq(k * (r - k), 2 * r) - qq(r, 24)


def mu_to_gieseker(hmu_p2, r, x, cutoff):
    """Reverse step (1) on the plane: subtract the equal-slope stacky
    products of lower-rank plane functions (1/prod k!) h^k...; the identity
    for classes with gcd(r, c1.H) = 1."""
    r = int(r)
    x = int(x)
    # the orderings of a rank multiset add up to 1/prod(multiplicity!)
    coeffs = {}
    for ranks in _compositions(r):
        if len(ranks) > 1 and not any((ri * x) % r for ri in ranks):
            key = tuple(sorted(ranks, reverse=True))
            coeffs[key] = coeffs.get(key, 0) + qq(1, factorial(len(ranks)))
    series = hmu_p2 - _product_sum(
        {ranks: coeffs[ranks] for ranks in sorted(coeffs, reverse=True)},
        lambda ri: p2_series(ri, (ri * x // r) % ri,
                             piece_cutoff(cutoff, r, ri, P2)))
    return series.truncate(cutoff)


@memo
def p2_series(r, x, cutoff, route_k=None):
    """The series of h_{r,xH}(z,tau; P^2), rational multi-cover flavor, by
    wall-crossing to the J_{1,eps} chamber, the mu-stack conversion, blow-up
    division, and the reverse conversion.  route_k selects the exceptional-class residue of the
    blown-up-plane route; the default makes the Sigma_1 class (x-k)C + xf
    carry C-coefficient x-1."""
    r = int(r)
    x = int(x) % r
    if r == 1:
        # h1 = 1/theta_hat(1) on the plane
        return inverse_theta_hat(1, cutoff)
    k = (x - 1) % r if route_k is None else int(route_k) % r
    hmu = gieseker_to_mu(r, (x - k, x), cutoff + _lead_of_B(r, k))
    return mu_to_gieseker(blowup_divide(hmu, r, k, cutoff), r, x, cutoff)

