from bpsinv.exactq import qq
from bpsinv.blocks import eta_series, theta_hat
from bpsinv.geometry import ChernVector, Surface
from bpsinv.hn import (
    M, subtraction_terms, suitable_genfun_closed, suitable_genfun_recursive,
)
from bpsinv.series import QSeries, WRat
from oracles import (
    _weight_of_sequence, one_minus_w as one_minus,
    rank2_equal_slope_combination,
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


def _filtration_weight(pieces):
    return _weight_of_sequence([(p.r, p.mu()) for p in pieces], S1)


def test_filtration_weight_tower_example():
    # pieces (1, (a+1) f), (1, -a f) of (2, f): weight w^(-2(2a+1))
    for a in range(3):
        p1 = ChernVector.from_c2(1, (0, a + 1), 0, S1)
        p2 = ChernVector.from_c2(1, (0, -a), 0, S1)
        assert _filtration_weight([p1, p2]) == wp(-2 * (2 * a + 1))


def test_filtration_weight_equal_pieces():
    p = ChernVector.from_c2(1, (0, 0), 1, S1)
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
    h = suitable_genfun_closed(2, 1, 1, cut)
    bracket = eta_series(big) ** 3 * _theta_inv([2], big).invert() \
        + QSeries({0: wp(2) / one_minus(4)})
    oracle = bracket * (_theta_inv([1, 1], big, eta_pow=2)).invert()
    assert h.series.eq_to_cutoff(oracle, cut)


def test_h20_closed_form_display():
    cut = qq(4)
    big = qq(8)
    h = suitable_genfun_closed(2, 0, 1, cut)
    bracket = eta_series(big) ** 3 * _theta_inv([2], big).invert() \
        + QSeries({0: one_minus(4).inverse() - WRat.from_rational(qq(1, 2))})
    oracle = bracket * (_theta_inv([1, 1], big, eta_pow=2)).invert()
    assert h.series.eq_to_cutoff(oracle, cut)


def test_h31eps_closed_form_display():
    cut = qq(3)
    big = qq(8)
    h = suitable_genfun_closed(3, 2, 1, cut)  # c1 = f = -2f mod 3
    t1 = eta_series(big) ** 3 * _theta_inv([1, 1, 2, 2, 3], big).invert()
    t2 = _theta_inv([1, 1, 1, 2], big).invert() \
        .scale((wp(2) + wp(4)) / one_minus(6))
    t3 = (_theta_inv([1, 1, 1], big, eta_pow=3)).invert() \
        .scale(wp(4) / (one_minus(4) * one_minus(4)))
    oracle = t1 + t2 + t3
    assert h.series.eq_to_cutoff(oracle, cut)


def test_h30eps_closed_form_display():
    cut = qq(3)
    big = qq(8)
    h = suitable_genfun_closed(3, 0, 1, cut)
    t1 = eta_series(big) ** 3 * _theta_inv([1, 1, 2, 2, 3], big).invert()
    t2 = _theta_inv([1, 1, 1, 2], big).invert() \
        .scale((WRat.from_rational(1) + wp(6)) / one_minus(6))
    t3 = (_theta_inv([1, 1, 1], big, eta_pow=3)).invert() \
        .scale(wp(4) / (one_minus(4) * one_minus(4))
               + WRat.from_rational(qq(1, 3)))
    oracle = t1 + t2 + t3
    assert h.series.eq_to_cutoff(oracle, cut)


def test_route_equality_all_ranks():
    cut = qq(2)
    for ell in (0, 1, 2):
        for r in range(1, 5):
            for a in range(r):
                closed = suitable_genfun_closed(r, a, ell, cut)
                rec = suitable_genfun_recursive(r, (0, (-a) % r), ell, cut)
                assert closed.series.eq_to_cutoff(rec.series, cut), (r, a, ell)


def test_route_equality_rank4_deeper():
    cut = qq(3)
    closed = suitable_genfun_closed(4, 0, 1, cut)
    rec = suitable_genfun_recursive(4, (0, 0), 1, cut)
    assert closed.series.eq_to_cutoff(rec.series, cut)


def test_ell_independence():
    cut = qq(3)
    for r in (2, 3, 4):
        base = suitable_genfun_recursive(r, (0, 0), 0, cut)
        for ell in (1, 2):
            other = suitable_genfun_recursive(r, (0, 0), ell, cut)
            assert base.series.eq_to_cutoff(other.series, cut)


def test_vanishing_for_nonzero_fibre_degree():
    for r in (2, 3):
        for beta in range(1, r):
            h = suitable_genfun_recursive(r, (beta, 0), 1, qq(3))
            assert h.series.is_zero()


def test_equal_slope_combination_is_leading_coefficient():
    h = suitable_genfun_closed(2, 0, 0, qq(1))
    assert h.series.leading_exponent() == qq(-1, 3)
    assert h.series.leading_coeff() == rank2_equal_slope_combination()


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
    quad = wp(12).scale(-1) / (one_minus(8) * one_minus(12) ** 2) \
        + (WRat.from_rational(1) + wp(24)).scale(qq(1, 2)) \
        / (one_minus(12) * one_minus(24)) \
        - WRat.from_rational(qq(1, 3)) / one_minus(24) \
        - WRat.from_rational(qq(1, 4)) / one_minus(16) \
        + WRat.from_rational(qq(1, 24))
    assert t[((1, 0), (1, 0), (1, 0), (1, 0))] == quad
