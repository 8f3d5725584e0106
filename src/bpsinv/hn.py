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

from collections import Counter, defaultdict
from functools import cache
from itertools import accumulate, product as iproduct
from math import factorial, gcd, lcm, prod

from .exactq import qq
from .blocks import fibre_quotient
from .geometry import GeometryError, Surface, piece_cutoff
from .intpoly import _canonical
from .memo import memo
from .series import QSeries, WRat, _wrat

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
    (ks, counts): the sum is sum_e counts[e] v^e (v^2 = w, counts ints)
    over prod_{k in ks} (v^k - 1), as 1 / (1 - v^-k) = v^k / (v^k - 1)."""
    R_blocks = [sum(b) for b in block_ranks]
    R = sum(R_blocks)
    P = list(accumulate(R_blocks[:-1]))
    ks, counts = tuple(4 * p * (R - p) * R for p in P), Counter()
    if not P:
        return ks, {0: 1} if alpha * (D // R) % D == phis[0] else {}
    # D times the fractional parts {phi_c - phi_(c+1)}, with 0 read as 1
    delta0 = [(phis[c] - phis[c + 1]) % D or D for c in range(len(P))]
    T, rem = divmod(alpha * D - R * phis[-1]
                    - sum(p * d for p, d in zip(P, delta0)), D)
    if rem:
        return ks, counts
    for rhos in iproduct(range(R), repeat=len(P)):
        if (sum(p * rho for p, rho in zip(P, rhos)) - T) % R == 0:
            # exact: w^(2 sum_{i<j} (r_i d_j - r_j d_i)), d_i fibre degrees
            counts[sum(4 * p * (R - p) * (R * D - d - rho * D)
                       for p, d, rho in zip(P, delta0, rhos)) // D] += 1
    return ks, counts


def _times_binomials(f, ks):
    """f prod_k (v^k - 1)^ks[k], polynomials as Counters {exponent: int}."""
    for k in ks.elements():
        f, g = Counter({j + k: y for j, y in f.items()}), f
        f.subtract(g)
    return f


def _phi_choices(block, D):
    """Numerators over D of the fractional slopes a block can carry."""
    return range(0, D, D // gcd(*block))


@memo
def subtraction_terms(r, alpha):
    """Aggregated extended-HN subtraction weights at the suitable chamber for
    target c1 = alpha f, keyed by the multiset of pieces (rank, f-residue).

    Each ordered rank composition with a pattern of equal-slope blocks and a
    fractional slope per block contributes its lattice sum times
    1/prod(block size)!; these are exactly the term lists written out case by
    case in low rank.  A key's lattice sums are added as int counts over r!,
    per shape denominator, and reduced once."""
    sums = defaultdict(lambda: defaultdict(Counter))
    D, F = lcm(*range(1, r + 1)), factorial(r)
    for ranks in _compositions(r):
        if len(ranks) < 2:
            continue
        for pattern in _compositions(len(ranks)):
            blocks = [ranks[e - n:e]
                      for n, e in zip(pattern, accumulate(pattern))]
            scale = F // prod(factorial(n) for n in pattern)
            for phis in iproduct(*[_phi_choices(b, D) for b in blocks]):
                ks, counts = _lattice_sum(blocks, phis, alpha, D)
                key = tuple(sorted((ri, ri * phi // D % ri) for b, phi
                                   in zip(blocks, phis) for ri in b))
                for e, c in counts.items():
                    sums[key][ks][e] += scale * c
    # each key over prod_k (v^k - 1)^(the most k in one of its shapes): the
    # int numerators are added, then reduced once
    out = {}
    for key, shapes in sums.items():
        top, N = Counter(), Counter()
        for ks in shapes:
            top |= Counter(ks)
        for ks, counts in shapes.items():
            N.update(_times_binomials(counts, top - Counter(ks)))
        N = tuple(zip(*sorted((e, c) for e, c in N.items() if c)))
        if N:
            den = _times_binomials(Counter({0: 1}), top)
            den = tuple(den[e] for e in range(max(den) + 1))
            out[key] = _wrat(*_canonical(N, F, den))
    return out


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
