"""Moving generating functions through the ample cone of a Hirzebruch
surface.

Two independent routes:

* ``genfun_at_polarization``: the explicit closed forms for rank 2 and 3, a
  sum over the sign window of lattice points between the target chamber and
  the suitable chamber.  The rank-3 sum evaluates rank-2 functions at the
  wall-adjacent polarizations J_{|x|,|y|}; when such a point lies on a rank-2
  wall, sgn(0) = 0, so on-wall terms enter with half weight and the rank-2
  function on its wall is the average of the two adjacent chambers.

* ``genfun_by_wall_march``: iterate the two-sided filtration delta wall by
  wall.  Rank-2 piece functions are carried along the path and updated at
  their own walls; equal-slope runs carry Boltzmann factors 1/run!, and the
  run containing a rank-2 piece is what transports that piece's own jump
  into the rank-3 delta.
"""

from math import isqrt

from .exactq import qq, qfloor, is_integral
from .blocks import rank1_genfun
from .geometry import (
    ChernVector, EpsRational, GeometryError, Polarization, SUITABLE, Surface,
    filtration_qshift, piece_cutoff, walls_between,
)
from .hn import suitable_genfun_recursive
from .invariants import Flavor, GenFun
from .memo import memo
from .series import QSeries, WRat

__all__ = ["WallError", "genfun_at_polarization", "genfun_by_wall_march"]


class WallError(GeometryError):
    pass


def _h1(ell, cutoff):
    return rank1_genfun(Surface.hirzebruch(ell), cutoff).series


@memo
def _h1_squared(ell, cutoff):
    """h1^2, shared by every rank-2 window sum and wall march at the cutoff."""
    return _h1(ell, cutoff) ** 2


# ---------------------------------------------------------------------------
# Closed-form route
# ---------------------------------------------------------------------------

@memo
def genfun_at_polarization(r, c1, ell, J, cutoff, _tiebreak_suitable=False):
    """h_{r,c1}(z,tau; Sigma_ell, J) for r <= 3 via the closed window sums.

    J must lie off every wall active below the cutoff; an exact sign tie
    raises WallError unless the internal suitable-side tiebreak is on."""
    r = int(r)
    surface = Surface.hirzebruch(ell)
    beta, alpha = (c1[0] % r, c1[1] % r)
    tag = dict(surface=surface, r=r, c1=(beta, alpha), J=J,
               flavor=Flavor.OMEGA_BAR)
    if r == 1:
        return GenFun(series=_h1(ell, cutoff), **tag)
    if r > 3:
        raise WallError("closed wall-crossing forms cover r <= 3 only")
    base = suitable_genfun_recursive(r, (beta, alpha), ell, cutoff).series
    if J == SUITABLE:
        return GenFun(series=base, **tag)
    if J.is_boundary:
        raise WallError("polarization on wall")
    # window terms q^E multiply h1^2 or h1 h2 (lead -r/6): E < cutoff + r/6
    Ebound = cutoff + qq(r, 6)
    # the displayed sums are written for the class beta C - alpha_f f
    af = (-alpha) % r
    # every window term carries the factor h1^2 (r = 2) or h1 (r = 3): the
    # rest is summed first and multiplied by that factor once
    window = QSeries.zero(None)
    if r == 2:
        for x, y, s1, s2 in _window(2, beta, af, ell, J, Ebound,
                                    _tiebreak_suitable):
            X = (ell - 2) * x + 2 * y
            E = qq(ell * x * x, 4) + qq(x * y, 2)
            coeff = (WRat.w_power(-X) - WRat.w_power(X)).scale(qq(s1 - s2, 4))
            window = window + QSeries({E: coeff})
        factor = _h1_squared(ell, piece_cutoff(cutoff, 2, 1, surface))
    else:
        for x, y, s1, s2 in _window(3, beta, af, ell, J, Ebound,
                                    _tiebreak_suitable):
            X = (ell - 2) * x + 2 * y
            E = qq(ell * x * x, 12) + qq(x * y, 6)
            b = (x + 2 * beta) // 3
            a = (y + 2 * af) // 3
            h2 = genfun_at_polarization(
                2, (b % 2, (-a) % 2), ell,
                Polarization.generic(abs(x), abs(y)),
                piece_cutoff(cutoff, 3, 2, surface),
                _tiebreak_suitable=True).series
            coeff = (WRat.w_power(-X) - WRat.w_power(X)).scale(qq(s1 - s2, 2))
            window = window + h2 * QSeries({E: coeff})
        factor = _h1(ell, piece_cutoff(cutoff, 3, 1, surface))
    total = base + factor * window
    return GenFun(series=total.truncate(cutoff), **tag)


def _window(r, beta, alpha, ell, J, Ebound, tiebreak):
    """Active lattice points (x, y) with x = beta, y = alpha mod r whose
    target-side ordering sign sgn(x n - y m) differs from the suitable-side
    sign sgn(x - y eps); yields (x, y, sgn1, sgn2)."""
    m, n = J.m, J.n
    qden = qq(4) if r == 2 else qq(12)
    qcross = qq(2) if r == 2 else qq(6)
    out = []
    for sx in (1, -1):
        k = 0
        while True:
            k += 1
            x = sx * k
            if (x - beta) % r:
                continue
            boundary = qq(k * k) * n.a / m.a
            if qq(ell * k * k) / qden + max(boundary, qq(k)) / qcross > Ebound:
                break
            y = _scan_start(x, alpha, r, m, n)
            while True:
                E = qq(ell * x * x) / qden + qq(x * y) / qcross
                if E > Ebound:
                    break
                s1 = (n.scale(x) - m.scale(y)).sign()
                s2 = EpsRational(x, -y).sign()
                if s1 == 0 and not tiebreak:
                    raise WallError("polarization on wall")
                # on a wall (internal rank-2 evaluations only) sgn(0) = 0:
                # the term enters with half weight, the chamber average
                if s1 != s2:
                    out.append((x, y, s1, s2))
                y += r * sx
    return out


def _scan_start(x, alpha, r, m, n):
    """First y = alpha (mod r) safely on the inactive side of the boundary
    x n = y m; the scan then moves in the direction of increasing q-shift."""
    base = qfloor(qq(x) * n.a / m.a)
    if x > 0:
        start = base - 4 * r
        return start + (alpha - start) % r
    start = base + 4 * r
    return start - (start - alpha) % r


# ---------------------------------------------------------------------------
# Iterated wall-by-wall route
# ---------------------------------------------------------------------------

def _weight_of_sequence(slots, surface):
    """w^( -sum_{i<j} r_i r_j (mu_j - mu_i).K ) for slots [(rank, mu)]."""
    K = surface.canonical_class()
    wexp = qq(0)
    for i in range(len(slots)):
        for j in range(i + 1, len(slots)):
            d = tuple(b - a for a, b in zip(slots[i][1], slots[j][1]))
            wexp -= qq(slots[i][0] * slots[j][0]) * surface.intersect(K, d)
    return WRat.w_power(wexp)


def _integral_class(vec):
    return all(is_integral(v) for v in vec)


def _wall_delta_rank2(c1, omega, surface, h1sq, bound):
    """Series delta of h_{2,c1} across the wall with primitive direction
    omega, from the high-slope side to the low-slope side:
    sum_{s>0} (w^(s omega.K) - w^(-s omega.K)) q^(s^2(-omega^2)/4) h1^2,
    given h1sq = h1^2."""
    mw2 = -(surface.intersect(omega, omega))
    K = surface.canonical_class()
    wK = surface.intersect(omega, K)
    weights = QSeries.zero(None)
    s = 0
    while True:
        s += 1
        shift = qq(s * s) * mw2 / 4
        if shift > bound:
            break
        c1a = tuple(qq(c + s * o, 2) for c, o in zip(c1, omega))
        if not _integral_class(c1a):
            continue
        coeff = WRat.w_power(s * wK) - WRat.w_power(-s * wK)
        weights = weights + QSeries({shift: coeff})
    return h1sq * weights


def _wall_delta_rank3(c1, omega, surface, h1, h1cube, h2_before, h2_after,
                      bound):
    """Series delta of h_{3,c1} across one wall: the filtration sum over
    tuples of pieces with slopes on the wall line, weakly ordered per side
    with Boltzmann factors 1/run! on equal-slope runs, evaluated with the
    side's piece functions; the difference of the two sides is the jump.
    h2_before/h2_after map reduced rank-2 classes to series per side, and
    h1cube = h1^3."""
    mw2 = -(surface.intersect(omega, omega))
    mu = tuple(qq(x, 3) for x in c1)

    def h2_of(c1_vec, table):
        return table[(int(c1_vec[0]) % 2, int(c1_vec[1]) % 2)]

    def side_sum(sigma, h2_table):
        """(lin, cub): the side's sum is h1 * lin + h1^3 * cub."""
        lin = QSeries.zero(None)
        cub = QSeries.zero(None)
        # (1)+(2) strict pairs: c1_1 = (c1 + s omega)/3, slopes t1 = s/3,
        # t2 = -s/6; q-shift s^2 (-omega^2)/12
        smax = isqrt(int(12 * bound / mw2)) + 2
        for s in range(-smax, smax + 1):
            if s == 0:
                continue
            c1a = tuple(qq(c + s * o, 3) for c, o in zip(c1, omega))
            if not _integral_class(c1a):
                continue
            c1b = tuple(c - a for c, a in zip(c1, c1a))
            slots = [(1, c1a), (2, tuple(v / 2 for v in c1b))]
            if sigma * s < 0:
                slots.reverse()
            shift = filtration_qshift(slots, surface)
            if shift > bound:
                continue
            lin = lin + h2_of(c1b, h2_table) * QSeries(
                {shift: _weight_of_sequence(slots, surface)})
        # (1)+(1)+(1) strict triples: c1_i = (c1 + s_i omega)/3, sum s_i = 0
        smax3 = isqrt(int(36 * bound / mw2)) + 6
        for s1 in range(1, smax3 + 1):
            for s2 in range(-smax3, s1):
                s3 = -s1 - s2
                if not s2 > s3:
                    continue
                cs = [tuple(qq(c + s * o, 3) for c, o in zip(c1, omega))
                      for s in (s1, s2, s3)]
                if not all(_integral_class(cv) for cv in cs):
                    continue
                slots = [(1, cv) for cv in cs]
                if sigma < 0:
                    slots.reverse()
                shift = filtration_qshift(slots, surface)
                if shift > bound:
                    continue
                cub = cub + QSeries(
                    {shift: _weight_of_sequence(slots, surface)})
        # (1,1)+(1): identical pair tied at t = sa/3, single at -2 sa/3;
        # the equal-slope run carries the Boltzmann factor 1/2!
        smax2 = isqrt(int(3 * bound / mw2)) + 2
        for sa in range(-smax2, smax2 + 1):
            if sa == 0:
                continue
            c1a = tuple(qq(c + sa * o, 3) for c, o in zip(c1, omega))
            c1b = tuple(qq(c - 2 * sa * o, 3) for c, o in zip(c1, omega))
            if not (_integral_class(c1a) and _integral_class(c1b)):
                continue
            slots = [(1, c1a), (1, c1a), (1, c1b)]
            if sigma * sa < 0:
                slots = [(1, c1b), (1, c1a), (1, c1a)]
            shift = filtration_qshift(slots, surface)
            if shift > bound:
                continue
            cub = cub + QSeries(
                {shift: _weight_of_sequence(slots, surface).scale(qq(1, 2))})
        # equal-slope (1)+(2) run at t = 0: both orders with 1/2! collapse to
        # the full product, which jumps with the rank-2 factor
        if _integral_class(mu):
            c1b = tuple(2 * v for v in mu)
            lin = lin + h2_of(c1b, h2_table)
        return lin, cub

    lin_before, cub_before = side_sum(1, h2_before)
    lin_after, cub_after = side_sum(-1, h2_after)
    return (h1 * (lin_before - lin_after)
            + h1cube * (cub_before - cub_after))


def _wall_is_crossed(slope, J_target):
    if J_target == SUITABLE:
        return False
    d = J_target.n - J_target.m.scale(slope)
    s = d.sign()
    if s == 0:
        raise WallError("target polarization lies on wall at slope %s"
                        % (slope,))
    return s < 0


def genfun_by_wall_march(r, c1, ell, J_target, cutoff):
    """h_{r,c1}(Sigma_ell, J_target) by iterating the two-sided filtration
    delta across every wall between the suitable chamber and the target."""
    r = int(r)
    surface = Surface.hirzebruch(ell)
    beta, alpha = (c1[0] % r, c1[1] % r)
    tag = dict(surface=surface, r=r, c1=(beta, alpha), J=J_target,
               flavor=Flavor.OMEGA_BAR)
    if r == 1:
        return GenFun(series=_h1(ell, cutoff), **tag)
    if r > 3:
        raise WallError("wall marching covers r <= 3 only")
    # delta terms q^shift multiply pieces of lead -r/6: shift < cutoff + r/6
    h1 = _h1(ell, piece_cutoff(cutoff, r, 1, surface))
    h1sq = _h1_squared(ell, piece_cutoff(cutoff, r, 1, surface))
    h1cube = h1 * h1sq if r == 3 else None
    bound = cutoff + qq(r, 6)
    dummy = ChernVector.from_c2(r, (beta, alpha), 0, surface)
    wall_list = walls_between(dummy, surface, bound)
    state2 = {key: suitable_genfun_recursive(
        2, key, ell, piece_cutoff(cutoff, r, 2, surface)).series
        for key in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    target = suitable_genfun_recursive(r, (beta, alpha), ell, cutoff).series
    for slope, omega in wall_list:
        if not _wall_is_crossed(slope, J_target):
            continue
        h2_before = dict(state2)
        for key in state2:
            state2[key] = state2[key] + _wall_delta_rank2(
                key, omega, surface, h1sq, bound)
        if r == 2:
            target = target + _wall_delta_rank2(
                (beta, alpha), omega, surface, h1sq, bound)
        else:
            target = target + _wall_delta_rank3(
                (beta, alpha), omega, surface, h1, h1cube, h2_before, state2,
                bound)
    return GenFun(series=target.truncate(cutoff), **tag)

