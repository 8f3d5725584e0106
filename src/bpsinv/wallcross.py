"""Moving generating functions through the ample cone of a Hirzebruch
surface.

Two independent routes up to rank 3; above it, the march alone:

* ``genfun_at_polarization``: the explicit closed forms for rank 2 and 3, a
  sum over the sign window of lattice points between the target chamber and
  the suitable chamber.  A rank-3 term carries the rank-2 function at
  J_{|x|,|y|}, whose own window is summed inside the rank-3 one; a point on
  a rank-2 wall has sgn(0) = 0 there, and so half weight.

* ``genfun_by_wall_march``: iterate the two-sided filtration delta wall by
  wall.  One function per class of each lower rank is carried along the
  path and updated, before the ranks above it, at the walls its rank lists;
  equal-slope runs carry Boltzmann factors 1/run!, and the run containing a
  rank-2 piece carries that piece's own jump into the rank-3 delta.

The delta is the filtration sum along the wall's line of slopes,
``line_filtrations``, which the mu-stack conversion of ``blowup`` shares,
walked once: the wall's ascending side is its w -> 1/w mirror.

Both routes return the bare series; ``compute.sigma_genfun`` tags it.
"""

from itertools import product as iproduct
from math import factorial, isqrt, lcm

from .blocks import fibre_quotient
from .exactq import qq
from .geometry import GeometryError, Surface, piece_cutoff, walls_between
from .hn import _compositions, _product_sum, suitable_genfun_closed
from .intpoly import _from_int_polys, _gather
from .memo import memo
from .series import QSeries, WRat, _from_lifted, _grid

__all__ = [
    "WallError", "genfun_at_polarization", "genfun_by_wall_march",
    "line_filtrations",
]


class WallError(GeometryError):
    pass


# q-exponent denominator of a rank-r window term
_QDEN = {2: 4, 3: 12}


@memo
def _h1_squared(cutoff):
    """h1^2, shared by the rank-2 window sums of every Sigma_ell; h1 leads
    with q^(-1/6), so its square at c needs it at c + 1/6."""
    return fibre_quotient(1, cutoff + qq(1, 6)) ** 2


# ---------------------------------------------------------------------------
# Closed-form route
# ---------------------------------------------------------------------------

@memo
def genfun_at_polarization(r, c1, ell, J, cutoff):
    """h_{r,c1}(z,tau; Sigma_ell, J) by the window sums (r <= 3) or the march;
    J must lie off every wall active below the cutoff, or WallError."""
    r = int(r)
    surface = Surface.hirzebruch(ell)
    beta, alpha = (c1[0] % r, c1[1] % r)
    base = suitable_genfun_closed(r, (beta, alpha), cutoff)
    if r == 1 or J.slope() is None:
        return base
    if J.is_boundary:
        raise WallError("polarization on wall")
    if r > 3:
        return genfun_by_wall_march(r, (beta, alpha), ell, J, cutoff)
    # window terms q^E are the rank-0 factor of a rank-r product; nested
    # piece cutoffs add, so the rank-2 windows inside r = 3 share the bound
    Ebound = piece_cutoff(cutoff, r, 0, surface)
    # the displayed sums are written for the class beta C - alpha_f f
    af = (-alpha) % r
    # a term carries h1^2 (r = 2), or h1 h_2(J_{|x|,|y|}) (r = 3) with h_2 a
    # base plus h1^2 times a window: the q-polynomials are summed first, in
    # ints over 8, as {E: {v-exponent: int}}
    by_class, inner = {}, {}
    for x, y, E, X, c in _terms(r, ell, _window(r, beta, af, ell, J.slope(),
                                                Ebound, False)):
        if r == 2:
            _gather(inner, E, ((-X, c), (X, -c)))
            continue
        cls = ((x + 2 * beta) // 3 % 2, -((y + 2 * af) // 3) % 2)
        _gather(by_class.setdefault((cls,), {}), E, ((-X, c), (X, -c)))
        for _, _, E2, X2, c2 in _terms(2, ell, _window(
                2, cls[0], -cls[1] % 2, ell, (qq(abs(y), abs(x)), 0),
                Ebound, True)):
            # (w^-X - w^X)(w^-X2 - w^X2); each weight is a multiple of 1/8
            k = c * c2 // 8
            _gather(inner, E + E2, ((-X - X2, k), (X + X2, k),
                                    (X2 - X, -k), (X - X2, -k)))
    cut2 = piece_cutoff(cutoff, r, 2, surface)
    window = _h1_squared(cut2) * _from_lifted(
        _from_int_polys(inner, 8), None)
    if r == 3:
        window = fibre_quotient(1, piece_cutoff(cutoff, 3, 1, surface)) * (
            window + _product_sum(
                {k: _from_lifted(_from_int_polys(polys, 8), None)
                 for k, polys in by_class.items()},
                lambda cls: suitable_genfun_closed(2, cls, cut2)))
    return (base + window).truncate(cutoff)


def _terms(r, ell, points):
    """Window points (x, y, ds) as int parts (x, y, E, X, c) of the term
    (c/8) (w^-X - w^X) q^(E/24)."""
    for x, y, ds in points:
        # 8 times the weight ds/4 (r = 2) or ds/2 (r = 3)
        yield (x, y, _grid(ell * x * x + 2 * x * y, _QDEN[r]),
               (ell - 2) * x + 2 * y, ds * (2 if r == 2 else 4))


def _window(r, beta, alpha, ell, slope, Ebound, tiebreak):
    """Lattice points (x, y) with x = beta, y = alpha mod r whose target-side
    ordering sign s1 = sgn(x n - y m) differs from the suitable-side sign
    s2 = sgn(x), with q-shift E = (ell x^2 + 2 x y)/qden <= Ebound; yields
    (x, y, s1 - s2).

    With n/m = t + e eps and u = sgn(x) y in column |x| = k, the point is
    active for u > k t, inactive for u < k t, and at u = k t the sign e
    decides: inactive for e > 0, active for e < 0, and on a wall (s1 = 0)
    for e = 0."""
    t, e = slope
    tn, td = t.numerator, t.denominator
    qden = _QDEN[r]
    # the int bound on qden E, floored once
    lim = qden * Ebound.numerator // Ebound.denominator
    out = []
    for sx in (1, -1):
        k = 0
        while True:
            k += 1
            if (sx * k - beta) % r:
                continue
            # u >= ceil(k t) and u >= 1 bound qden E below, increasingly in k
            lo = -(-k * tn // td)
            if ell * k * k + 2 * k * max(lo, 1) > lim:
                break
            on = lo if k * tn % td == 0 else None  # u = k t, if an int
            top = (lim - ell * k * k) // (2 * k)
            for u in range(lo + (sx * alpha - lo) % r, top + 1, r):
                ds = -2 * sx
                if u == on and e >= 0:
                    if e > 0:
                        continue
                    if not tiebreak:
                        raise WallError("polarization on wall")
                    # on a wall sgn(0) = 0: the term has half weight
                    ds = -sx
                out.append((sx * k, sx * u, ds))
    return out


# ---------------------------------------------------------------------------
# Filtrations along a line of slopes, and the iterated wall-by-wall route
# ---------------------------------------------------------------------------

def line_filtrations(r, c1, omega, surface, bound):
    """The filtration sum of (r, c1) along the slope line c1/r + Q omega,
    {sorted pieces ((r_i, c1_i mod r_i), ...): QSeries weight}.

    The ordered pieces are c1_i = (r_i c1 + s_i omega)/r with sum s_i = 0 and
    slopes s_i/r_i weakly decreasing.  Since r_i r_j (mu_j - mu_i) =
    (r_i s_j - r_j s_i) omega/r, a tuple weighs
    w^(-(omega.K/r) sum_{i<j} (r_i s_j - r_j s_i)) q^shift / prod(run!) over
    its runs of equal slope, with filtration q-shift
    (-omega^2)/(2 r^2) sum s_i^2/r_i; shifts above bound are dropped.  The
    reversed tuple, of the walk along -omega, flips only the w-exponent's
    sign, so that walk is the ``_mirror`` of this one.  omega is primitive,
    so c1_i is integral for s_i in one residue class mod r, or in none."""
    mw2 = -int(surface.intersect(omega, omega))
    wK = int(surface.intersect(omega, surface.canonical_class()))
    rhos = {ri: s for ri in range(1, r + 1) for s in range(r)
            if not any((ri * c + s * o) % r for c, o in zip(c1, omega))}
    out, Q = {}, factorial(r)
    for ranks in _compositions(r):
        if not rhos.keys() >= set(ranks):
            continue
        # in integers, shift <= bound is mw2 sum s_i^2 P/r_i <= 2 r^2 P bound,
        # so each s_i^2 <= limit r_i/P
        P = lcm(*ranks)
        limit = 2 * r * r * P * bound.numerator // (mw2 * bound.denominator)
        boxes = []
        for ri in ranks:
            m = isqrt(max(limit, 0) * ri // P)
            boxes.append(range(-m + (rhos[ri] + m) % r, m + 1, r))
        n = len(ranks)
        for head in iproduct(*boxes[:-1]):
            ss = head + (-sum(head),)
            used = sum(s * s * (P // ri) for ri, s in zip(ranks, ss))
            if used > limit or ss[-1] not in boxes[-1] or any(
                    ss[i - 1] * ranks[i] < ss[i] * ranks[i - 1]
                    for i in range(1, n)):
                continue
            aut = run = 1
            for i in range(1, n):
                tie = ss[i - 1] * ranks[i] == ss[i] * ranks[i - 1]
                run = run + 1 if tie else 1
                aut *= run
            cross = sum(ranks[i] * ss[j] - ranks[j] * ss[i]
                        for j in range(n) for i in range(j))
            key = tuple(sorted(
                (ri, tuple((ri * c + s * o) // r % ri
                           for c, o in zip(c1, omega)))
                for ri, s in zip(ranks, ss)))
            # aut divides r!: the weight is (r!/aut) w^X / r!, in ints
            _gather(out.setdefault(key, {}), _grid(mw2 * used, 2 * r * r * P),
                    ((-wK * cross // r, Q // aut),))
    return {key: _from_lifted(_from_int_polys(polys, Q), None)
            for key, polys in out.items()}


def _mirror(weight):
    """weight under w -> 1/w."""
    return QSeries({e: WRat(c.num.conjugate(), c.den.conjugate())
                    for e, c in weight.terms.items()}, weight.cutoff)


def _wall_delta(r, c1, omega, surface, bound, old, new):
    """Jump of h_{r,c1} across the wall with primitive direction omega, from
    its high-slope side to its low-slope side: the filtration sum over tuples
    of length >= 2, descending with the old piece functions minus ascending
    (mirrored) with the new ones.  old/new map pieces (r_i, c1_i mod r_i) to
    series; a product whose pieces are equal on both sides is taken once."""
    from_old, from_new = {}, {}
    for pieces, weight in line_filtrations(r, c1, omega, surface,
                                           bound).items():
        if len(pieces) < 2:
            continue
        if all(old[p] == new[p] for p in pieces):
            from_old[pieces] = weight - _mirror(weight)
        else:
            from_old[pieces] = weight
            from_new[pieces] = -_mirror(weight)
    return _product_sum(from_old, old.__getitem__) \
        + _product_sum(from_new, new.__getitem__)


def _wall_is_crossed(slope, J_target):
    """True when J_target lies below the wall of the given slope."""
    at = J_target.slope()
    if at is None:
        return False
    if at == (slope, 0):
        raise WallError("target polarization lies on wall at slope %s"
                        % (slope,))
    return at < (slope, 0)


def genfun_by_wall_march(r, c1, ell, J_target, cutoff):
    """h_{r,c1}(Sigma_ell, J_target) by iterating the two-sided filtration
    delta across every wall between the suitable chamber and the target."""
    r = int(r)
    surface = Surface.hirzebruch(ell)
    beta, alpha = (c1[0] % r, c1[1] % r)
    # one state per class of each rank below r, at the cutoff a rank-r
    # product needs, and the target
    states = {(1, (0, 0)): fibre_quotient(
        1, piece_cutoff(cutoff, r, 1, surface))}
    for s in range(2, r):
        for key in iproduct(range(s), repeat=2):
            states[(s, key)] = suitable_genfun_closed(
                s, key, piece_cutoff(cutoff, r, s, surface))
    target = (r, (beta, alpha))
    states[target] = suitable_genfun_closed(r, (beta, alpha), cutoff)
    # delta terms q^shift are the rank-0 factor of a rank-r product
    bound = piece_cutoff(cutoff, r, 0, surface)
    # a rank-s class jumps only at the walls listed for rank s, which hold
    # those of every lower rank
    jumps = {s: {omega for _, omega in walls_between(s, surface, bound)}
             for s in range(2, r + 1)}
    for slope, omega in walls_between(r, surface, bound):
        if not _wall_is_crossed(slope, J_target):
            continue
        old = dict(states)
        # lower ranks first: a class's new side reads their new states
        for s, key in sorted(states):
            if s > 1 and omega in jumps[s]:
                states[(s, key)] = states[(s, key)] + _wall_delta(
                    s, key, omega, surface, bound, old, states)
    return states[target].truncate(cutoff)
