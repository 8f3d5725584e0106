import hashlib
import json
from itertools import product as iproduct

import pytest

from bpsinv import clear_caches, sigma_genfun
from bpsinv.exactq import qq
from bpsinv.blocks import eta_series, theta_hat
from bpsinv.compute import default_cutoff
from bpsinv.geometry import GeometryError, SUITABLE, Polarization, Surface
from bpsinv.hn import (
    M, closed_terms, subtraction_terms, suitable_genfun_closed,
    suitable_genfun_recursive,
)
from bpsinv.invariants import Flavor
from bpsinv.serialize import dumps, qseries_to_obj
from bpsinv.series import QSeries, WRat
from bpsinv.wallcross import genfun_at_polarization, genfun_by_wall_march
from oracles import (
    _weight_of_sequence, chern_from_c2, closed_terms_by_towers, mu,
    one_minus_w as one_minus, rank2_equal_slope_combination,
)

S1 = Surface.hirzebruch(1)


def wp(j):
    return WRat.w_power(j)


def test_M_values():
    assert M((3,), qq(2, 3)) == 0
    assert M((1, 1), qq(1, 2)) == 1
    assert M((1, 2), qq(1, 3)) == 1
    assert M((1, 2), qq(2, 3)) == 2
    assert M((2, 1), qq(2, 3)) == 1
    assert M((1, 1, 1), qq(2, 3)) == 2


def test_M_of_no_ranks_raises():
    with pytest.raises(GeometryError, match="nonempty rank list"):
        M([], qq(1, 2))


def _filtration_weight(pieces):
    return _weight_of_sequence([(p.r, mu(p)) for p in pieces], S1)


def test_filtration_weight_tower_example():
    # pieces (1, (a+1) f), (1, -a f) of (2, f): weight w^(-2(2a+1))
    for a in range(3):
        p1 = chern_from_c2(1, (0, a + 1), 0, S1)
        p2 = chern_from_c2(1, (0, -a), 0, S1)
        assert _filtration_weight([p1, p2]) == wp(-2 * (2 * a + 1))


def test_filtration_weight_equal_pieces():
    p = chern_from_c2(1, (0, 0), 1, S1)
    assert _filtration_weight([p, p]) == wp(0)


def test_subtraction_terms_rank2():
    t0 = subtraction_terms(2, 0)
    assert t0[((1, 0), (1, 0))] == one_minus(4).inverse().scale(-1) \
        + WRat.from_rational(qq(1, 2))
    t1 = subtraction_terms(2, 1)
    # the single unstable tower of (2, f): sum_{a>=0} w^(-2(2a+1))
    assert t1[((1, 0), (1, 0))] == wp(2).scale(-1) / one_minus(4)


def test_subtraction_terms_rank3_c1f():
    # the three displayed contributions for c1 = f
    t = subtraction_terms(3, 1)
    assert t[((1, 0), (2, 0))] == (wp(4) + wp(8)).scale(-1) / one_minus(12)
    assert t[((1, 0), (2, 1))] == (wp(2) + wp(10)).scale(-1) / one_minus(12)
    expect_111 = wp(4) / (one_minus(4) * one_minus(12)) \
        - (wp(4) + wp(8)).scale(qq(1, 2)) / one_minus(12)
    assert t[((1, 0), (1, 0), (1, 0))] == expect_111


def test_subtraction_terms_rank3_c1zero():
    # the five bullet items for c1 = 0, grouped by piece multiset
    t = subtraction_terms(3, 0)
    assert t[((1, 0), (2, 0))] == WRat.from_rational(1) \
        - WRat.from_rational(2) / one_minus(12)
    assert t[((1, 0), (2, 1))] == wp(6).scale(-2) / one_minus(12)
    expect_111 = (WRat.from_rational(1) + wp(12)) \
        / (one_minus(8) * one_minus(12)) \
        - one_minus(12).inverse() + WRat.from_rational(qq(1, 6))
    assert t[((1, 0), (1, 0), (1, 0))] == expect_111


def _theta_inv(ks, cutoff, eta_pow=0):
    den = QSeries.one(None)
    for k in ks:
        den = den * theta_hat(k, cutoff)
    if eta_pow > 0:
        den = den * eta_series(cutoff) ** eta_pow
    return den


def test_h2f_closed_form_display():
    # -1/(theta(2z)^2 eta^2) * (i eta^3/theta(4z) + w^2/(1-w^4))
    cut = qq(4)
    big = qq(8)
    h = suitable_genfun_closed(2, (0, 1), cut)
    bracket = eta_series(big) ** 3 * _theta_inv([2], big).invert() \
        + QSeries({0: wp(2) / one_minus(4)})
    oracle = bracket * (_theta_inv([1, 1], big, eta_pow=2)).invert()
    assert h.eq_to_cutoff(oracle, cut)


def test_h20_closed_form_display():
    cut = qq(4)
    big = qq(8)
    h = suitable_genfun_closed(2, (0, 0), cut)
    bracket = eta_series(big) ** 3 * _theta_inv([2], big).invert() \
        + QSeries({0: one_minus(4).inverse() - WRat.from_rational(qq(1, 2))})
    oracle = bracket * (_theta_inv([1, 1], big, eta_pow=2)).invert()
    assert h.eq_to_cutoff(oracle, cut)


def test_h31eps_closed_form_display():
    cut = qq(3)
    big = qq(8)
    h = suitable_genfun_closed(3, (0, 1), cut)  # c1 = f
    t1 = eta_series(big) ** 3 * _theta_inv([1, 1, 2, 2, 3], big).invert()
    t2 = _theta_inv([1, 1, 1, 2], big).invert() \
        .scale((wp(2) + wp(4)) / one_minus(6))
    t3 = (_theta_inv([1, 1, 1], big, eta_pow=3)).invert() \
        .scale(wp(4) / (one_minus(4) * one_minus(4)))
    oracle = t1 + t2 + t3
    assert h.eq_to_cutoff(oracle, cut)


def test_h30eps_closed_form_display():
    cut = qq(3)
    big = qq(8)
    h = suitable_genfun_closed(3, (0, 0), cut)
    t1 = eta_series(big) ** 3 * _theta_inv([1, 1, 2, 2, 3], big).invert()
    t2 = _theta_inv([1, 1, 1, 2], big).invert() \
        .scale((WRat.from_rational(1) + wp(6)) / one_minus(6))
    t3 = (_theta_inv([1, 1, 1], big, eta_pow=3)).invert() \
        .scale(wp(4) / (one_minus(4) * one_minus(4))
               + WRat.from_rational(qq(1, 3)))
    oracle = t1 + t2 + t3
    assert h.eq_to_cutoff(oracle, cut)


def test_closed_terms_are_the_towers_multiplied_out():
    # every a at r <= 5: rank 5 lies beyond the q-grid, and so beyond the
    # route agreement below
    for r in range(1, 6):
        for a in range(r):
            assert closed_terms(r, a) == closed_terms_by_towers(r, a), (r, a)


def test_route_equality_all_ranks():
    cut = qq(2)
    for r in range(1, 5):
        for a in range(r):
            closed = suitable_genfun_closed(r, (0, (-a) % r), cut)
            rec = suitable_genfun_recursive(r, (0, (-a) % r), cut)
            assert closed.eq_to_cutoff(rec, cut), (r, a)


def test_route_equality_rank4_deeper():
    cut = qq(3)
    closed = suitable_genfun_closed(4, (0, 0), cut)
    rec = suitable_genfun_recursive(4, (0, 0), cut)
    assert closed.eq_to_cutoff(rec, cut)


def test_routes_agree_byte_for_byte_at_depth():
    # every class of ranks 2-4 at --qorders 12 on Sigma_0, cutoff included:
    # the solved recursion serves, the subtraction guards it
    clear_caches()
    for r in (2, 3, 4):
        cut = default_cutoff(r, Surface.hirzebruch(0), 12)
        for c1 in iproduct(range(r), repeat=2):
            a, b = (dumps(qseries_to_obj(route(r, c1, cut))) for route in
                    (suitable_genfun_recursive, suitable_genfun_closed))
            assert a == b, (r, c1)


def test_wall_crossing_bases_read_the_solved_recursion():
    # the window sums and the march start from route (b) alone
    clear_caches()
    J = Polarization.generic(13, 9)
    for r, c1 in ((2, (1, 1)), (3, (1, 2))):
        genfun_at_polarization(r, c1, 1, J, qq(2))
        genfun_by_wall_march(r, c1, 1, J, qq(2))
    assert suitable_genfun_closed.cache_info().misses > 0
    assert suitable_genfun_recursive.cache_info().misses == 0


def test_ell_independence():
    # every class: the fibre quotient and subtraction weights are shared
    # across ell, so the public suitable chamber must not depend on it
    cut = qq(3)
    for r in (1, 2, 3, 4):
        for alpha in range(r):
            base = sigma_genfun(r, (0, alpha), 0, SUITABLE, cut)
            for ell in (1, 2):
                other = sigma_genfun(r, (0, alpha), ell, SUITABLE, cut)
                assert base.series == other.series, (r, alpha, ell)


def test_one_suitable_series_per_class_for_every_sigma():
    # Sigma_1 and Sigma_2 are served from the entries Sigma_0 built: neither
    # HN route computes again, and each result carries its own surface tag
    clear_caches()
    stages = (suitable_genfun_recursive, suitable_genfun_closed)
    misses = None
    for ell in (0, 1, 2):
        for r in (2, 3, 4):
            for c1 in iproduct(range(r), repeat=2):
                h = sigma_genfun(r, c1, ell, SUITABLE, qq(2))
                assert h.surface == Surface.hirzebruch(ell)
                assert h.r == r and h.c1 == c1
                assert h.J == SUITABLE and h.flavor == Flavor.OMEGA_BAR
                # an unreduced c1 is tagged mod r
                assert sigma_genfun(r, (c1[0] + r, c1[1] - r), ell, SUITABLE,
                                    qq(2)).c1 == c1
        now = [m.cache_info().misses for m in stages]
        assert misses is None or now == misses, ell
        misses = now


def test_vanishing_for_nonzero_fibre_degree():
    for r in (2, 3):
        for beta in range(1, r):
            for route in (suitable_genfun_recursive, suitable_genfun_closed):
                assert route(r, (beta, 0), qq(3)).is_zero()


def test_equal_slope_combination_is_leading_coefficient():
    h = suitable_genfun_closed(2, (0, 0), qq(1))
    assert h.leading_exponent() == qq(-1, 3)
    assert h.terms[h.leading_exponent()] == rank2_equal_slope_combination()


def test_fourth_rank_display_weights():
    # selected brackets of the second rank-4 display, aggregated by multiset
    t = subtraction_terms(4, 0)
    h1h3 = WRat.from_rational(-2) / one_minus(24) + WRat.from_rational(1)
    assert t[((1, 0), (3, 0))] == h1h3
    h1h3f = (wp(8) + wp(16)).scale(-1) / one_minus(24)
    assert t[((1, 0), (3, 1))] == h1h3f
    assert t[((1, 0), (3, 2))] == h1h3f
    h2h2 = one_minus(16).inverse().scale(-1) + WRat.from_rational(qq(1, 2))
    assert t[((2, 0), (2, 0))] == h2h2
    h2fh2f = wp(8).scale(-1) / one_minus(16)
    assert t[((2, 1), (2, 1))] == h2fh2f
    quad = wp(12).scale(-1) / (one_minus(8) * one_minus(12) * one_minus(12)) \
        + (WRat.from_rational(1) + wp(24)).scale(qq(1, 2)) \
        / (one_minus(12) * one_minus(24)) \
        - WRat.from_rational(qq(1, 3)) / one_minus(24) \
        - WRat.from_rational(qq(1, 4)) / one_minus(16) \
        + WRat.from_rational(qq(1, 24))
    assert t[((1, 0), (1, 0), (1, 0), (1, 0))] == quad


# sha256 of each whole table as serialized by _table_digest, recorded before
# the weights were summed as integer counts
SUBTRACTION_TERMS_SHA256 = {
    (2, 0): "60c7a42c84bf66873f27852c8edf3b3a3e95711225f154141ba44e3a3aaf0d9d",
    (2, 1): "d1beffa193534477ffe067afc840b56c18edb2b35553bb6a3e34754d0327ebed",
    (3, 0): "ad6303154e4c1a59f30d290491a31a1d68757b402f5cb0f091d7a075f80dd802",
    (3, 1): "e6621a3b767ca36f2e981a34e507d664a61a04f3aa00dbc8e9ec32fc38b155cc",
    (3, 2): "e6621a3b767ca36f2e981a34e507d664a61a04f3aa00dbc8e9ec32fc38b155cc",
    (4, 0): "dd305fde05e80edb3747ab129806d7b3c526bf4ae59e5a0843650452e09e32a7",
    (4, 1): "15ff36cfcbdd5a7956b5d80988c91d68437db9419b87ad2f490208dbe40eeede",
    (4, 2): "119d22e9332ff1020be0da74267c86b7c50ac43f12b86186feb66afbc962af85",
    (4, 3): "712870d0dcc17309703bc4875074cc0f6e052994b941814f509a30a527c6a7a0",
    (5, 0): "c0fa38782b97412efa4c5e94cc0c701b91afc5be6be583aaab7a6f62e660183b",
    (5, 1): "7e33e2744d92d70b7bd3f3b25f15282d2f98dd7370604437b37d2cd9d6e88f78",
    (5, 2): "e8b80db20dd1ec44967e5d76f38f69c99197cbd7503c23a237ab514e3cce73e9",
    (5, 3): "74ecff794e629b3cb367855b37548ce6e547097fb9395e8a5ff17192dbc46ba0",
    (5, 4): "ffd9cb072dd0c7721c18c8c2178c1c4f43f8e4cdd1ebdca98c0d357694402ec7",
}


def _table_digest(table):
    rows = [[[list(p) for p in key],
             [v._p, v._q, v._s, list(v._n), list(v._d)]]
            for key, v in sorted(table.items())]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def test_subtraction_terms_tables_are_pinned():
    for (r, alpha), digest in SUBTRACTION_TERMS_SHA256.items():
        assert _table_digest(subtraction_terms(r, alpha)) == digest, (r, alpha)
