"""Generating functions at a suitable polarization, two independent ways.

Route (a), ``suitable_genfun_recursive``: subtract from the fibre-restriction
product formula the invariants of all extended HN filtrations of length > 1.
At the suitable polarization every contributing filtration has pieces whose
slopes differ along the fibre only, so the infinite towers of fibre-degree
assignments are geometric series in w that we sum in closed form (assuming
|w| > 1, as the source formulas do), while the q-content is carried entirely
by the lower-rank generating functions of the pieces.

Route (b), ``suitable_genfun_closed``: the solved recursion, a finite sum
over rank compositions with explicit w-weights built from the sawtooth sum M.

Both return the rational multi-cover flavor; they must agree identically.
"""

from functools import cache
from itertools import accumulate, product as iproduct
from math import factorial, gcd, lcm, prod

from .exactq import qq
from .blocks import fibre_product_genfun
from .geometry import Surface, SUITABLE, GeometryError, piece_cutoff
from .invariants import Flavor, GenFun
from .memo import memo
from .series import QSeries, WRat

__all__ = [
    "M", "suitable_genfun_recursive", "suitable_genfun_closed",
    "subtraction_terms",
]


def M(r_list, lam):
    """sum_{j<l} (r_j + r_{j+1}) {(r_1+...+r_j) lam}, {x} = x - floor(x),
    summed as numerators over the denominator of lam."""
    if not r_list:
        raise GeometryError("M requires a nonempty rank list")
    lam = qq(lam)
    n, d = lam.numerator, lam.denominator
    total = partial = 0
    for j in range(len(r_list) - 1):
        partial += r_list[j]
        total += (r_list[j] + r_list[j + 1]) * (partial * n % d)
    return qq(total, d)


@cache
def _compositions(n):
    """Ordered compositions of n, as a tuple."""
    return ((),) if n == 0 else tuple(
        (first,) + rest for first in range(1, n + 1)
        for rest in _compositions(n - first))


def _product_sum(weights, piece):
    """The sum over {pieces: weight} of weight * prod piece(p), each product
    taken left to right from the weight, which is a QSeries or a scalar."""
    total = QSeries.zero(None)
    for pieces, weight in weights.items():
        prod = weight if isinstance(weight, QSeries) else QSeries({0: weight})
        for p in pieces:
            prod = prod * piece(p)
        total = total + prod
    return total


# ---------------------------------------------------------------------------
# Route (a): extended-HN subtraction
# ---------------------------------------------------------------------------

def _lattice_sum(block_ranks, phis, alpha, D):
    """Closed form of the sum over fibre-slope assignments for one shape.

    Blocks carry strictly decreasing slopes s_1 > ... > s_B with fractional
    parts phis / D (int numerators over a common denominator D that R
    divides); slots within a block share the block slope.  Writing
    u_c = s_c - s_{c+1} > 0 and eliminating s_B through
    alpha = R s_B + sum_c P_c u_c, the w-weight w^(2 sum_{i<j} r_i r_j
    (s_j - s_i)) factors into geometric series with ratio w^(-2 P_c (R-P_c) R)
    per difference variable, split over residues of u_c mod R."""
    B = len(block_ranks)
    R_blocks = [sum(b) for b in block_ranks]
    R = sum(R_blocks)
    if B == 1:
        return WRat.from_rational(int(alpha * (D // R) % D == phis[0]))
    P = list(accumulate(R_blocks[:-1]))
    # D times the fractional parts {phi_c - phi_(c+1)}, with 0 read as 1
    delta0 = [(phis[c] - phis[c + 1]) % D or D for c in range(B - 1)]
    T = alpha * D - R * phis[-1] - sum(p * d for p, d in zip(P, delta0))
    if T % D:
        return WRat.from_rational(0)
    T = T // D % R
    total = WRat.from_rational(0)
    geo = WRat.from_rational(1)
    for c in range(B - 1):
        geo = geo * (WRat.from_rational(1)
                     - WRat.w_power(-2 * P[c] * (R - P[c]) * R)).inverse()
    for rhos in iproduct(range(R), repeat=B - 1):
        if sum(P[c] * rhos[c] for c in range(B - 1)) % R != T:
            continue
        wexp = sum(-2 * P[c] * (R - P[c]) * (delta0[c] + rhos[c] * D)
                   for c in range(B - 1))
        total = total + WRat.w_power(qq(wexp, D) if wexp % D else wexp // D)
    return total * geo


def _phi_choices(block, D):
    """Numerators over D of the fractional slopes a block can carry."""
    g = 0
    for r in block:
        g = gcd(g, r)
    return [c * (D // g) for c in range(g)]


@memo
def subtraction_terms(r, alpha):
    """Aggregated extended-HN subtraction weights at the suitable chamber for
    target c1 = alpha f, keyed by the multiset of pieces (rank, f-residue).

    Each ordered rank composition with a pattern of equal-slope blocks and a
    fractional slope per block contributes its lattice sum times
    1/prod(block size)!; these are exactly the term lists written out case by
    case in low rank."""
    out = {}
    D = lcm(*range(1, r + 1))
    for ranks in _compositions(r):
        ell = len(ranks)
        if ell < 2:
            continue
        for pattern in _compositions(ell):
            blocks = []
            pos = 0
            for size in pattern:
                blocks.append(tuple(ranks[pos:pos + size]))
                pos += size
            for phis in iproduct(*[_phi_choices(b, D) for b in blocks]):
                lam = _lattice_sum(blocks, phis, alpha, D)
                if lam.is_zero():
                    continue
                weight = lam / prod(factorial(len(b)) for b in blocks)
                pieces = []
                for b, phi in zip(blocks, phis):
                    for ri in b:
                        pieces.append((ri, ri * phi // D % ri))
                key = tuple(sorted(pieces))
                out[key] = out.get(key, WRat.from_rational(0)) + weight
    return {k: v for k, v in out.items() if not v.is_zero()}


def _reduce_to_fibre_class(r, c1):
    """(beta, alpha) residues of c1 mod r on a Hirzebruch surface."""
    return (c1[0] % r, c1[1] % r)


@memo
def suitable_genfun_recursive(r, c1, ell, cutoff):
    """h_{r,c1}(J_{eps,1}) on Sigma_ell by extended-HN subtraction from the
    fibre product formula; zero when c1.f is nonzero mod r."""
    r = int(r)
    surface = Surface.hirzebruch(ell)
    beta, alpha = _reduce_to_fibre_class(r, tuple(c1))
    tag = dict(surface=surface, r=r, c1=(beta, alpha), J=SUITABLE,
               flavor=Flavor.OMEGA_BAR)
    if beta != 0:
        return GenFun(series=QSeries.zero(cutoff), **tag)
    total = fibre_product_genfun(r, (0, alpha), ell, cutoff).series \
        - _product_sum(subtraction_terms(r, alpha),
                       lambda p: suitable_genfun_recursive(
                           p[0], (0, p[1]), ell,
                           piece_cutoff(cutoff, r, p[0], surface)).series)
    return GenFun(series=total.truncate(cutoff), **tag)


# ---------------------------------------------------------------------------
# Route (b): solved recursion
# ---------------------------------------------------------------------------

@memo
def _inner_tower(R, lam, ell, cutoff):
    """sum over compositions rho of R of w^(2 M(rho, lam)) /
    prod_j (1 - w^(2(rho_j + rho_{j+1}))) * prod_j H_{rho_j, 0}."""
    surface = Surface.hirzebruch(ell)
    weights = {}
    for rho in _compositions(R):
        weight = WRat.w_power(2 * M(rho, lam))
        for a, b in zip(rho, rho[1:]):
            weight = weight / (WRat.from_rational(1)
                               - WRat.w_power(2 * (a + b)))
        weights[rho] = weight
    return _product_sum(weights, lambda rj: fibre_product_genfun(
        rj, (0, 0), ell, piece_cutoff(cutoff, R, rj, surface)).series
    ).truncate(cutoff)


@memo
def suitable_genfun_closed(r, a, ell, cutoff):
    """h_{r,-af}(J_{eps,1}) by the solved recursion: a sum over splittings
    into equal-slope parts (r_i, a_i = r_i a/r) with coefficients
    (-1)^(m-1)/m of products of strict-slope towers."""
    r = int(r)
    a = int(a) % r
    surface = Surface.hirzebruch(ell)
    lam = qq(a, r)
    signs = {ranks: qq((-1) ** (len(ranks) - 1), len(ranks))
             for ranks in _compositions(r)
             if not any((ri * a) % r for ri in ranks)}
    total = _product_sum(signs, lambda ri: _inner_tower(
        ri, lam, ell, piece_cutoff(cutoff, r, ri, surface)))
    alpha = (-a) % r
    return GenFun(surface=surface, r=r, c1=(0, alpha), J=SUITABLE,
                  flavor=Flavor.OMEGA_BAR, series=total.truncate(cutoff))

