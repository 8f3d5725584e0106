import pytest

from bpsinv import clear_caches, sigma_genfun
from bpsinv.exactq import qq
from bpsinv.blocks import (
    blowup_theta, eta_series, fibre_quotient, inverse_theta_hat, theta_hat,
)
from bpsinv.compute import p2_genfun
from bpsinv.geometry import SUITABLE
from bpsinv.series import QSeries, SeriesError, VPoly, WRat

from oracles import (
    blowup_factor as brute_blowup_factor, coeff, eta_product,
    fibre_quotient_one_step, one_minus_w, theta_hat_product, total_set_curve,
    wrat_conjugate,
)


def wpoly(d):
    return WRat(VPoly({2 * j: c for j, c in d.items()}))


def pentagonal_coeffs(nmax):
    """Independent oracle for prod(1-q^n): Euler's pentagonal number theorem."""
    out = {}
    k = 0
    while True:
        for kk in {k, -k}:
            e = kk * (3 * kk - 1) // 2
            if e <= nmax:
                out[e] = out.get(e, 0) + (-1) ** (kk % 2)
        if k * (3 * k - 1) // 2 > nmax and k * (3 * k + 1) // 2 > nmax:
            break
        k += 1
    return out


def test_eta_pentagonal():
    eta = eta_series(qq(8))
    oracle = pentagonal_coeffs(7)
    for n, v in oracle.items():
        assert coeff(eta, n + qq(1, 24)) == WRat.from_rational(v)
    assert coeff(eta, qq(1, 24)) == WRat.from_rational(1)
    assert coeff(eta, 1 + qq(1, 24)) == WRat.from_rational(-1)
    assert coeff(eta, 5 + qq(1, 24)) == WRat.from_rational(1)
    assert coeff(eta, 2 + qq(1, 24)) == WRat.from_rational(-1)
    assert coeff(eta, 3 + qq(1, 24)).is_zero()


def test_theta_and_eta_sums_match_their_products():
    # the off-grid 7/5 and 2 + 1/48 check the cutoff a result carries; 7/5
    # after 3/2 is served from the memo by truncation
    for cut in (qq(3, 2), qq(7, 5), 2 + qq(1, 48), qq(6)):
        assert eta_series(cut) == eta_product(cut), cut
        for k in range(1, 5):
            assert theta_hat(k, cut) == theta_hat_product(k, cut), (k, cut)


def test_theta_hat_leading_and_next():
    th = theta_hat(1, qq(4))
    assert coeff(th, qq(1, 8)) == wpoly({1: 1, -1: -1})
    # order q: -(w^3 - w^-3)
    assert coeff(th, 1 + qq(1, 8)) == wpoly({3: -1, -3: 1})
    thk = theta_hat(3, qq(2))
    assert coeff(thk, qq(1, 8)) == wpoly({3: 1, -3: -1})


def test_theta_hat_odd_under_w_inversion():
    th = theta_hat(1, qq(6))
    for e, c in th.terms.items():
        assert wrat_conjugate(c) == -c


def test_eta_times_inverse_is_one():
    eta = eta_series(qq(5))
    assert (eta * eta.invert()).eq_to_cutoff(QSeries.one())


def test_rank1_p2_hilbert_scheme():
    h = p2_genfun(1, 0, qq(3))
    inv_w = wpoly({1: 1, -1: -1}).inverse()
    assert coeff(h.series, qq(-1, 8)) == inv_w
    # Hilb^1(P^2) = P^2: Poincare polynomial (1 + w^2 + w^4) shifted by w^-2
    assert coeff(h.series, 1 - qq(1, 8)) == wpoly({-2: 1, 0: 1, 2: 1}) * inv_w


def test_rank1_hirzebruch_leading():
    h = fibre_quotient(1, qq(2))
    assert h.leading_exponent() == qq(-4, 24)
    assert h.terms[h.leading_exponent()] == wpoly({1: 1, -1: -1}).inverse()


def test_rank1_on_sigma_is_the_rank1_fibre_product():
    # h1 = 1/(theta_hat(1) eta) on every Sigma_ell, against the products,
    # through the public suitable-chamber function of each surface
    c = qq(3)
    oracle = (theta_hat_product(1, c + 1) * eta_product(c + 1)).invert()
    h = fibre_quotient(1, c)
    assert h.eq_to_cutoff(oracle, c)
    for ell in (0, 1, 2):
        assert sigma_genfun(1, (0, 0), ell, SUITABLE, c).series == h, ell


def test_fibre_products_share_one_quotient_per_rank_and_cutoff():
    # neither c1 nor ell enters the quotient: once the first class has read
    # its quotients, no other class on any Sigma_ell builds one again
    clear_caches()
    for c in (qq(3, 2), qq(2)):
        for r in (1, 2, 3, 4):
            sigma_genfun(r, (0, 0), 0, SUITABLE, c)
            misses = fibre_quotient.cache_info().misses
            for ell in (0, 1, 2):
                for alpha in range(r):
                    sigma_genfun(r, (0, alpha), ell, SUITABLE, c)
            fibre_quotient(r, c)
            assert fibre_quotient.cache_info().misses == misses, (r, c)


def test_fibre_quotient_ladder_equals_one_step():
    # on the 1/24 grid and off it, cutoff included
    for c in (qq(3), qq(97, 48)):
        for r in (1, 2, 3, 4):
            clear_caches()
            assert fibre_quotient(r, c) == fibre_quotient_one_step(r, c), (r, c)


def test_inverse_theta_hat_is_shared_with_the_plane():
    # the plane's h1 and the fibre quotients read one inverse per k
    clear_caches()
    c = qq(3)
    fibre_quotient(2, c)
    misses = inverse_theta_hat.cache_info().misses
    assert p2_genfun(1, 0, c).series == inverse_theta_hat(1, c)
    assert inverse_theta_hat.cache_info().misses == misses
    assert (inverse_theta_hat(2, c) * theta_hat(2, c + 1)).eq_to_cutoff(
        QSeries.one(), c + qq(1, 8))


def test_fibre_product_vanishing_and_leading():
    z = sigma_genfun(2, (1, 0), 1, SUITABLE, qq(3))
    assert z.series.is_zero()
    h = fibre_quotient(2, qq(2))
    assert h.leading_exponent() == qq(-1, 3)
    assert h.terms[h.leading_exponent()] == total_set_curve(2, 0)


def test_total_set_curve_values():
    assert total_set_curve(1, 0) == wpoly({1: 1, -1: -1}).inverse()
    expect = WRat.w_power(4).scale(-1) / (
        one_minus_w(4) * one_minus_w(2) * one_minus_w(2))
    assert total_set_curve(2, 0) == expect


def test_fibre_leading_equals_total_set_all_ranks():
    for r in range(1, 5):
        h = fibre_quotient(r, qq(-qq(r, 6) + 2))
        assert h.leading_exponent() == -qq(r, 6)
        assert h.terms[h.leading_exponent()] == total_set_curve(r, 0)


def blowup_factor(r, k, cutoff):
    """B_{r,k} = eta^-r Theta_{r,k} below cutoff, from the package's lattice
    sum: eta^-1 at c keeps c - 1/12, its r-th power c - (r+1)/24, and the
    lattice sum starts at q^>=0."""
    eta_inv = eta_series(cutoff + qq(r + 1, 24)).invert() ** r
    theta = blowup_theta(r, k, cutoff - eta_inv.leading_exponent())
    return (eta_inv * theta).truncate(cutoff)


def test_blowup_factor_rank2():
    b0 = blowup_factor(2, 0, qq(2))
    assert coeff(b0, qq(-1, 12)) == WRat.from_rational(1)
    # eta^-2 contributes 2 at order q; lattice points n = +-1 give w^(+-2)
    assert coeff(b0, 1 - qq(1, 12)) == wpoly({0: 2, 2: 1, -2: 1})
    b1 = blowup_factor(2, 1, qq(2))
    assert b1.leading_exponent() == qq(1, 4) - qq(1, 12)
    assert b1.terms[b1.leading_exponent()] == wpoly({1: 1, -1: 1})


def test_blowup_factor_rank3_integer_support():
    b = blowup_factor(3, 1, qq(2))
    for c in b.terms.values():
        assert c.is_even_support()
    assert b.leading_exponent() == qq(1, 3) - qq(1, 8)
    # (m, n) in {(1/3,1/3), (1/3,-2/3), (-2/3,1/3)}: w-exponents 2, 0, -2
    assert b.terms[b.leading_exponent()] == wpoly({2: 1, 0: 1, -2: 1})


def test_blowup_factor_palindromic():
    for (r, k) in [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
        b = blowup_factor(r, k, qq(2))
        for c in b.terms.values():
            assert wrat_conjugate(c) == c


def test_blowup_factor_matches_cube_enumeration():
    # the sum-zero box walk against every point of a cube, eta^-r against
    # the multiplied-out product
    for r in (1, 2, 3, 4):
        for k in range(r):
            for c in (qq(7, 5), qq(3)):
                got = blowup_factor(r, k, c)
                want = brute_blowup_factor(r, k, c)
                assert got.cutoff == c and want.cutoff >= c
                assert got.eq_to_cutoff(want, c), (r, k, c)


def test_blowup_inverse_roundtrip():
    b = blowup_factor(2, 1, qq(3))
    assert (b * b.invert()).eq_to_cutoff(QSeries.one(), qq(3))


def test_blocks_reject_arguments_outside_their_range():
    # eta leads with q^(1/24), so a cutoff at or below it keeps no term; the
    # check runs before the memo, so a deeper entry does not serve it
    for c in (qq(1, 24), qq(0), qq(-1)):
        with pytest.raises(SeriesError, match="eta cutoff"):
            eta_series(c)
    eta_series(qq(2))
    hits = eta_series.cache_info().hits
    for c in (qq(1, 24), 0):
        with pytest.raises(SeriesError, match="eta cutoff"):
            eta_series(c)
        with pytest.raises(SeriesError, match="eta cutoff"):
            eta_series(cutoff=c)
    assert eta_series.cache_info().hits == hits
    assert eta_series(qq(1, 12)) == QSeries({qq(1, 24): 1}, qq(1, 12))
    for k in (0, -1):
        with pytest.raises(SeriesError, match="k >= 1"):
            theta_hat(k, qq(2))
