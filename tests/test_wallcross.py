from itertools import product as iproduct

import pytest

from bpsinv import clear_caches, wallcross
from bpsinv.blocks import fibre_quotient
from bpsinv.compute import sigma_genfun
from bpsinv.exactq import qq
from bpsinv.geometry import (
    Polarization, SUITABLE, NEAR_PULLBACK, Surface, walls_between,
)
from bpsinv.hn import suitable_genfun_closed, suitable_genfun_recursive
from bpsinv.wallcross import (
    WallError, _mirror, _window, genfun_at_polarization, genfun_by_wall_march,
    line_filtrations,
)

from oracles import (
    chamber_path, chern_from_c2, coeff, exponent_of, rank3_by_chambers,
    wallcross_delta, window_by_scan,
)

S0 = Surface.hirzebruch(0)
S1 = Surface.hirzebruch(1)


def far_chamber(ell):
    # suitable side of every wall active at small cutoff
    return Polarization.generic(1, 100)


def test_lattice_symmetries_across_ell():
    # Sigma_0 with C and f swapped, and Sigma_2 deformed to Sigma_0: exact
    # identities between surfaces, so a memo that drops ell where the
    # window sums (r <= 3) or the march (r = 4) need it breaks the second
    J = Polarization.generic
    for r, c in ((2, qq(3)), (3, qq(3)), (4, qq(2))):
        for a, b in iproduct(range(r), repeat=2):
            assert genfun_at_polarization(r, (a, b), 0, J(13, 9), c) \
                == genfun_at_polarization(r, (b, a), 0, J(9, 13), c)
            assert genfun_at_polarization(r, (a, b), 2, J(13, 9), c) \
                == genfun_at_polarization(
                    r, (a, (b - a) % r), 0, J(13, 22), c), (r, a, b)


def test_suitable_chamber_reproduces_base():
    for ell in (0, 1, 2):
        for (beta, alpha) in [(0, 0), (0, 1), (1, 0), (1, 1)]:
            h = genfun_at_polarization(2, (beta, alpha), ell,
                                       far_chamber(ell), qq(2))
            base = suitable_genfun_recursive(2, (beta, alpha), qq(2))
            assert h.eq_to_cutoff(base, qq(2)), (ell, beta, alpha)


def test_march_to_the_suitable_chamber_crosses_no_wall():
    for r, c1 in ((2, (0, 1)), (3, (1, 2))):
        assert genfun_by_wall_march(r, c1, 1, SUITABLE, qq(2)) == \
            suitable_genfun_closed(r, c1, qq(2))


def test_on_wall_polarization_rejected():
    # J_{1,1} is on the slope-1 wall for (2, C+f)-type classes on Sigma_0,
    # and for the rank-3 class 0 there, whose rank-2 windows keep their
    # on-wall points at half weight, so the rank-3 window raises; the march
    # that serves rank 4 rejects it too
    for r, c1 in ((2, (1, 1)), (3, (0, 0)), (4, (1, 1))):
        with pytest.raises(WallError):
            genfun_at_polarization(r, c1, 0, Polarization.generic(1, 1),
                                   qq(3))


def test_window_terms_nonzero_off_suitable():
    h = genfun_at_polarization(2, (1, 0), 1, NEAR_PULLBACK, qq(2))
    base = suitable_genfun_recursive(2, (1, 0), qq(2))
    assert base.is_zero()
    assert not h.is_zero()


def _points_or_wall(window, args):
    try:
        return window(*args)
    except WallError:
        return "on wall"


def test_window_matches_lattice_scan():
    # the integer ranges read off J's slope keep exactly the points, signs
    # and order of the per-point sign rule; J_{1,3} and J_{2,3} lie on walls
    targets = [Polarization.generic(13, 9), Polarization.generic(9, 13),
               Polarization.generic(21, 8), Polarization.generic(1, 3),
               Polarization.generic(2, 3), NEAR_PULLBACK]
    on_wall = halves = points = 0
    for r in (2, 3):
        for ell, (beta, alpha), J, Ebound, tiebreak in iproduct(
                (0, 1, 2), iproduct(range(r), repeat=2), targets,
                (qq(2, 3), qq(5, 2), qq(7, 2)), (False, True)):
            args = (r, beta, alpha, ell, J, Ebound, tiebreak)
            got = _points_or_wall(_window, (*args[:4], J.slope(), *args[5:]))
            assert got == _points_or_wall(window_by_scan, args), args
            if got == "on wall":
                on_wall += 1
            else:
                points += len(got)
                halves += sum(abs(ds) == 1 for _, _, ds in got)
    assert on_wall and halves and points > 1000


def test_rank3_window_matches_the_per_polarization_formula():
    # the rank-2 windows summed inside the rank-3 window equal the rank-2
    # function evaluated at J_{|x|,|y|} point by point, on-wall points at
    # half weight, in one miss of the stage
    targets = [Polarization.generic(13, 9), Polarization.generic(9, 13),
               Polarization.generic(21, 8), NEAR_PULLBACK]
    c = qq(4)
    for ell, (beta, alpha), J in iproduct(
            (0, 1, 2), iproduct(range(3), repeat=2), targets):
        assert genfun_at_polarization(3, (beta, alpha), ell, J, c) \
            == rank3_by_chambers(beta, alpha, ell, J, c), (ell, beta, alpha, J)
    # a cold call: its ten window points read only the rank-3 base and the
    # rank-2 classes mod 2
    clear_caches()
    genfun_at_polarization(3, (1, 2), 1, targets[0], qq(3))
    assert genfun_at_polarization.cache_info().misses == 1
    assert suitable_genfun_closed.cache_info().misses <= 5


def test_two_routes_rank2():
    targets = [Polarization.generic(13, 9), Polarization.generic(9, 13),
               Polarization.generic(21, 8), NEAR_PULLBACK]
    # rank 1 crosses no wall: both routes give h1 at every kind of J, the
    # boundary J_{1,0} included, and raise no WallError there
    h1 = fibre_quotient(1, qq(2))
    for ell, c1, J in iproduct((0, 1, 2), ((0, 0), (1, 2)), (
            targets[0], NEAR_PULLBACK, Polarization(1, 0))):
        assert genfun_at_polarization(1, c1, ell, J, qq(2)) == h1, (ell, J)
        assert genfun_by_wall_march(1, c1, ell, J, qq(2)) == h1, (ell, J)
    for ell in (0, 1, 2):
        for (beta, alpha) in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            for J in targets:
                closed = genfun_at_polarization(2, (beta, alpha), ell, J, qq(2))
                marched = genfun_by_wall_march(2, (beta, alpha), ell, J, qq(2))
                assert closed.eq_to_cutoff(marched, qq(2)), \
                    (ell, beta, alpha, J)


def test_two_routes_rank3():
    targets = [Polarization.generic(13, 9), Polarization.generic(9, 13),
               Polarization.generic(21, 8)]
    for ell in (0, 1, 2):
        for (beta, alpha) in [(0, 0), (1, 0)]:
            for J in targets:
                closed = genfun_at_polarization(3, (beta, alpha), ell, J,
                                                qq(3, 2))
                marched = genfun_by_wall_march(3, (beta, alpha), ell, J,
                                               qq(3, 2))
                assert closed.eq_to_cutoff(marched, qq(3, 2)), \
                    (ell, beta, alpha, J)


def test_each_rank_jumps_only_at_the_walls_it_lists(monkeypatch):
    # the walls listed for rank s hold those of every lower rank, and along a
    # wall listed for a higher rank only, a class of rank s has no filtration
    # of length >= 2 within the bound but equal-slope ones: their weights are
    # their own mirrors, so with pieces unchanged their jump is zero
    for ell, bound in iproduct((0, 1, 2), (qq(3), qq(13, 3))):
        surface = Surface.hirzebruch(ell)
        walls = {r: set(walls_between(r, surface, bound)) for r in (2, 3, 4)}
        for s in (2, 3):
            for r in range(s + 1, 5):
                assert walls[s] <= walls[r], (ell, bound, s, r)
            for _, omega in walls[4] - walls[s]:
                for c1 in iproduct(range(s), repeat=2):
                    for pieces, weight in line_filtrations(
                            s, c1, omega, surface, bound).items():
                        assert len(pieces) < 2 or weight == _mirror(weight), \
                            (ell, bound, s, c1, omega, pieces)
    # so the march walks each class of rank s at exactly the crossed walls
    # listed for rank s: below every wall at J_{1,eps}, all of them
    walked = set()
    walk = wallcross.line_filtrations

    def recording(s, c1, omega, surface, bound):
        walked.add((s, omega))
        return walk(s, c1, omega, surface, bound)

    monkeypatch.setattr(wallcross, "line_filtrations", recording)
    # rank-4 delta shifts are bounded by cutoff + 4/6 = 3
    genfun_by_wall_march(4, (1, 1), 1, NEAR_PULLBACK, qq(7, 3))
    assert walked == {(s, omega) for s in (2, 3, 4)
                      for _, omega in walls_between(s, S1, qq(3))}


def test_chamber_path_p2_empty():
    g = chern_from_c2(2, (0,), 2, Surface.p2())
    assert chamber_path(g, None, None, Surface.p2()).walls == []


def test_chamber_path_same_chamber_empty():
    g = chern_from_c2(2, (0, 1), 1, S0)
    J1 = Polarization.generic(100, 1)
    J2 = Polarization.generic(200, 1)
    assert chamber_path(g, J1, J2, S0, qq(2)).walls == []


def test_chamber_path_collects_walls():
    g = chern_from_c2(2, (0, 1), 2, S0)
    path = chamber_path(g, SUITABLE, Polarization.generic(1, 1), S0, qq(4))
    slopes = [s for s, _ in path.walls]
    assert slopes == sorted(slopes, reverse=True)
    assert all(s > 1 for s in slopes)
    assert len(slopes) >= 1


def test_wallcross_delta_zero_within_chamber():
    g = chern_from_c2(2, (0, 1), 1, S0)
    J1 = Polarization.generic(100, 1)
    J2 = Polarization.generic(90, 1)
    assert wallcross_delta(g, J1, J2, S0, cutoff=qq(2)).is_zero()


def test_wallcross_delta_antisymmetry():
    g = chern_from_c2(2, (1, 1), 1, S1)
    # chambers adjacent to the slope-1 wall of the (1,-1) direction
    J_hi = Polarization.generic(10, 13)
    J_lo = Polarization.generic(13, 10)
    d1 = wallcross_delta(g, J_hi, J_lo, S1, cutoff=qq(3))
    d2 = wallcross_delta(g, J_lo, J_hi, S1, cutoff=qq(3))
    assert (d1 + d2).is_zero()
    assert not d1.is_zero()


def test_wallcross_delta_matches_closed_route():
    # crossing the single wall changes the class coefficient by the window
    g = chern_from_c2(2, (1, 1), 1, S1)
    J_hi = Polarization.generic(10, 13)
    J_lo = Polarization.generic(13, 10)
    before = genfun_at_polarization(2, (1, 1), 1, J_hi, qq(3))
    after = genfun_at_polarization(2, (1, 1), 1, J_lo, qq(3))
    e = exponent_of(g, S1)
    jump = coeff(after, e) - coeff(before, e)
    assert jump == wallcross_delta(g, J_hi, J_lo, S1, cutoff=qq(3))


def test_boundary_and_fibre_side_polarizations():
    # J_{1,0} is the boundary of the ample cone: no chamber to sum to; an
    # m = 0 polarization other than SUITABLE, J_{eps,5}, lies above every
    # wall as J_{eps,1} does, so it is served the suitable-chamber series
    with pytest.raises(WallError, match="polarization on wall"):
        sigma_genfun(2, (0, 1), 1, Polarization(1, 0), qq(2))
    # above rank 3 only the wall march serves a generic J, with no second
    # route to check it
    with pytest.raises(WallError, match="r <= 3"):
        sigma_genfun(4, (0, 1), 1, Polarization.generic(13, 9), qq(2))
    for r, c1 in ((2, (0, 1)), (3, (1, 2))):
        h = sigma_genfun(r, c1, 1, Polarization(0, 5), qq(2))
        assert h.series == sigma_genfun(r, c1, 1, SUITABLE, qq(2)).series
