"""Generating functions at a suitable polarization, two independent ways.

Route (a), ``suitable_genfun_recursive``: subtract from the fibre-restriction
product formula the invariants of all extended HN filtrations of length > 1.
At the suitable polarization every contributing filtration has pieces whose
slopes differ along the fibre only, so the infinite towers of fibre-degree
assignments are geometric series in w that we sum in closed form (assuming
|w| > 1, as the source formulas do), while the q-content is carried entirely
by the lower-rank generating functions of the pieces.

Route (b), ``suitable_genfun_closed``: the solved recursion, a finite sum
over rank compositions with explicit w-weights built from the sawtooth sum M,
gathered by ``closed_terms`` into one weight per multiset of piece ranks.

Both take (r, c1, cutoff) and return the bare series of the rational
multi-cover flavor; they must agree identically.  Route (b), the cheaper
one, serves the pipeline: the suitable chamber, every wall-crossing base and
the march's starting states.  Route (a) guards it and never calls it, so
their agreement stays a check.  Neither takes a surface: the fibre quotient
depends on r alone and chi_top = 4 on every Sigma_ell, so one series per
class serves every Sigma_ell.  Like every stage below the entry points, they
return a bare series, and ``compute.sigma_genfun`` attaches the tag.

Each route is a q-free table of weights, memoized on (r, c1[1] mod r)
alone, summed by ``_product_sum`` over products of its pieces' series.
"""

from functools import cache
from itertools import accumulate, product as iproduct
from math import factorial, gcd, lcm, prod

from .exactq import qq
from .blocks import fibre_quotient
from .geometry import GeometryError, Surface, piece_cutoff
from .memo import memo
from .series import WRAT_ONE, WRAT_ZERO, QSeries, VPoly, WRat

__all__ = [
    "M", "suitable_genfun_recursive", "suitable_genfun_closed",
    "subtraction_terms", "closed_terms",
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


# every piece_cutoff below reads chi_top, which is 4 on every Sigma_ell
_SIGMA = Surface.hirzebruch(0)


def _product_sum(weights, piece):
    """The sum over {pieces: weight} of weight * prod piece(p), each product
    taken left to right from the weight, which is a QSeries or a scalar; a
    weight of 1 is not multiplied in."""
    total = QSeries.zero(None)
    for pieces, weight in weights.items():
        if isinstance(weight, QSeries):
            prod = weight
        elif weight == 1 and pieces:
            prod, pieces = piece(pieces[0]), pieces[1:]
        else:
            prod = QSeries({0: weight})
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
    per difference variable, split over residues of u_c mod R.  Returned as
    the WRat sum_e v^e / prod_c (v^(k_c) - 1), v^2 = w and
    k_c = 4 P_c (R - P_c) R, as 1 / (1 - v^-k) = v^k / (v^k - 1)."""
    R_blocks = [sum(b) for b in block_ranks]
    R = sum(R_blocks)
    P = list(accumulate(R_blocks[:-1]))
    ks = [4 * p * (R - p) * R for p in P]
    if not P:
        return WRAT_ONE if alpha * (D // R) % D == phis[0] else WRAT_ZERO
    # D times the fractional parts {phi_c - phi_(c+1)}, with 0 read as 1
    delta0 = [(phis[c] - phis[c + 1]) % D or D for c in range(len(P))]
    # exact: by Abel summation the numerator is alpha D - sum_c R_c phi_c
    # mod D, alpha is an int, and each R_c phi_c is a multiple of D, since
    # phi_c is a multiple of D / gcd(block c) and gcd(block c) divides R_c
    T = (alpha * D - R * phis[-1]
         - sum(p * d for p, d in zip(P, delta0))) // D
    counts = {}
    for rhos in iproduct(range(R), repeat=len(P)):
        if (sum(p * rho for p, rho in zip(P, rhos)) - T) % R == 0:
            # exact: w^(2 sum_{i<j} (r_i d_j - r_j d_i)), d_i fibre degrees
            e = sum(4 * p * (R - p) * (R * D - d - rho * D)
                    for p, d, rho in zip(P, delta0, rhos)) // D
            counts[e] = counts.get(e, 0) + 1
    return WRat(VPoly(counts), prod(
        (VPoly({k: 1, 0: -1}) for k in ks), start=VPoly({0: 1})))


def _phi_choices(block, D):
    """Numerators over D of the fractional slopes a block can carry."""
    return range(0, D, D // gcd(*block))


@memo
def subtraction_terms(r, alpha):
    """Extended-HN subtraction weights at the suitable chamber for target
    c1 = alpha f, keyed by the multiset of pieces (rank, f-residue).

    Each ordered rank composition with a pattern of equal-slope blocks and a
    fractional slope per block contributes its lattice sum times
    1/prod(block size)!; these are exactly the term lists written out case by
    case in low rank."""
    D, out = lcm(*range(1, r + 1)), {}
    for ranks in _compositions(r):
        if len(ranks) < 2:
            continue
        for pattern in _compositions(len(ranks)):
            blocks = [ranks[e - n:e]
                      for n, e in zip(pattern, accumulate(pattern))]
            aut = prod(factorial(n) for n in pattern)
            for phis in iproduct(*[_phi_choices(b, D) for b in blocks]):
                key = tuple(sorted((ri, ri * phi // D % ri) for b, phi
                                   in zip(blocks, phis) for ri in b))
                weight = _lattice_sum(blocks, phis, alpha, D) / aut
                out[key] = out[key] + weight if key in out else weight
    return {key: weight for key, weight in out.items() if weight}


@memo
def suitable_genfun_recursive(r, c1, cutoff):
    """h_{r,c1}(J_{eps,1}) on every Sigma_ell by extended-HN subtraction from
    the fibre product formula; zero when c1.f is nonzero mod r."""
    r = int(r)
    if c1[0] % r:
        return QSeries.zero(cutoff)
    total = fibre_quotient(r, cutoff) - _product_sum(
        subtraction_terms(r, c1[1] % r),
        lambda p: suitable_genfun_recursive(
            p[0], (0, p[1]), piece_cutoff(cutoff, r, p[0], _SIGMA)))
    return total.truncate(cutoff)


# ---------------------------------------------------------------------------
# Route (b): solved recursion
# ---------------------------------------------------------------------------

@memo
def closed_terms(r, a):
    """The solved recursion's weights for c1 = -af, keyed by the sorted ranks
    of the pieces: each composition rho of r, cut into m equal-slope parts of
    ranks r_i with r_i a = 0 mod r, adds (-1)^(m-1)/m times, per part, its
    strict-slope tower weight w^(2 M(part, a/r)) / prod_j (1 - w^(2(rho_j +
    rho_(j+1)))) over adjacent ranks in the part."""
    lam, out = qq(a, r), {}
    for rho in _compositions(r):
        key = tuple(sorted(rho))
        for cut in _compositions(len(rho)):
            parts = [rho[e - n:e] for n, e in zip(cut, accumulate(cut))]
            if any(sum(part) * a % r for part in parts):
                continue
            weight = WRat.from_rational(qq((-1) ** (len(cut) - 1), len(cut)))
            for part in parts:
                weight = weight * WRat.w_power(2 * M(part, lam))
                for x, y in zip(part, part[1:]):
                    weight = weight / (1 - WRat.w_power(2 * (x + y)))
            out[key] = out[key] + weight if key in out else weight
    return out


@memo
def suitable_genfun_closed(r, c1, cutoff):
    """h_{r,c1}(J_{eps,1}) on every Sigma_ell by the solved recursion, for
    c1 = -af: the weights of ``closed_terms`` times products of fibre
    quotients; zero when c1.f is nonzero mod r."""
    r = int(r)
    if c1[0] % r:
        return QSeries.zero(cutoff)
    return _product_sum(closed_terms(r, -c1[1] % r), lambda p: fibre_quotient(
        p, piece_cutoff(cutoff, r, p, _SIGMA))).truncate(cutoff)
