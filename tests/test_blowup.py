from itertools import product as iproduct

import pytest

from bpsinv import clear_caches, series, sigma_genfun
from bpsinv.exactq import qq
from bpsinv.blowup import (
    BlowupError, blowup_divide, gieseker_to_mu, mu_to_gieseker, p2_series,
)
from bpsinv.compute import (
    default_cutoff, p2_genfun, p2_omega_genfun, p2_table,
)
from bpsinv.geometry import NEAR_PULLBACK, SUITABLE, Surface, walls_between
from bpsinv.series import QSeries, SeriesError, WRat
from bpsinv.wallcross import (
    _mirror, genfun_at_polarization, line_filtrations,
)

from oracles import blowup_factor, line_filtrations as brute_line_filtrations

S1 = Surface.hirzebruch(1)


def h_eps(r, cls, cutoff):
    return genfun_at_polarization(r, cls, 1, NEAR_PULLBACK, qq(cutoff))


def test_gcd_one_class_mu_equals_gieseker():
    for c1 in [(1, 1), (0, 1), (2, 1)]:
        hmu = gieseker_to_mu(2, c1, qq(2))
        base = h_eps(2, (c1[0] % 2, c1[1] % 2), qq(2))
        assert hmu.eq_to_cutoff(base, qq(2))


def test_line_filtrations_match_brute_force():
    # the mu-stack line omega = C on Sigma_1, and the first walls of
    # Sigma_0..Sigma_2; keys and exact weights agree with the descending
    # oracle, and their mirrors with the ascending one
    cases = [(r, (X, Y), (1, 0), S1, qq(S, 2))
             for r in (1, 2, 3) for X in range(-6, 7) for Y in range(r)
             for S in range(1, 7)]
    cases += [(4, (X, Y), (1, 0), S1, qq(3))
              for X in (-3, 1, 2) for Y in (0, 1)]
    for ell in (0, 1, 2):
        surface = Surface.hirzebruch(ell)
        walls = walls_between(3, surface, qq(3))
        # the three walls of least -omega^2 carry the most filtrations
        omegas = sorted((w for _, w in walls),
                        key=lambda w: -surface.intersect(w, w))
        for omega in omegas[:3]:
            cases += [(r, c1, omega, surface, qq(3))
                      for r in (2, 3) for c1 in iproduct(range(r), repeat=2)]
            cases += [(4, c1, omega, surface, qq(3))
                      for c1 in ((0, 0), (2, 1))]
    seen = 0
    for case in cases:
        got = line_filtrations(*case)
        assert got == brute_line_filtrations(*case, descending=True), case
        mirrored = {pieces: _mirror(w) for pieces, w in got.items()}
        assert mirrored == brute_line_filtrations(*case, descending=False), \
            case
        # terms compared: the walk's and its mirror's
        seen += 2 * sum(len(w.terms) for w in got.values())
    assert seen > 1000


def test_rank2_mu_corrections_match_display():
    # target (2, C): added terms sum_{b<0 odd} w^b q^(b^2/4) h1^2
    cut = qq(3)
    hmu = gieseker_to_mu(2, (1, 0), cut)
    base = h_eps(2, (1, 0), cut + 1)
    h1 = h_eps(1, (0, 0), cut + 1)
    lit = QSeries.zero(None)
    b = -1
    while qq(b * b, 4) <= cut + 1:
        lit = lit + (h1 * h1 * QSeries({qq(b * b, 4): WRat.w_power(b)}))
        b -= 2
    assert hmu.eq_to_cutoff(base + lit, cut)


def test_rank2_c1zero_mu_corrections_match_display():
    # target (2, 0): bracket (sum_{b<0 even} w^b q^(b^2/4) + 1/2) h1^2
    cut = qq(3)
    hmu = gieseker_to_mu(2, (0, 0), cut)
    base = h_eps(2, (0, 0), cut + 1)
    h1 = h_eps(1, (0, 0), cut + 1)
    lit = (h1 * h1).scale(qq(1, 2))
    b = -2
    while qq(b * b, 4) <= cut + 1:
        lit = lit + (h1 * h1 * QSeries({qq(b * b, 4): WRat.w_power(b)}))
        b -= 2
    assert hmu.eq_to_cutoff(base + lit, cut)


def test_rank3_c1zero_mu_corrections_match_displays():
    # ell=2 terms: (2/2 + 2 sum_{b<0, b=0 mod 6}) h1 h20 + (2 sum_{b=-3 mod 6}) h1 h2C
    # ell=3 terms: (sum_{k1,k2<0, k1=k2 mod 3} w^(2(k1+k2)) q^((k1^2+k2^2+k1k2)/3)
    #              + sum_{k<0, k=0 mod 3} w^(2k) q^(k^2/3) + 1/6) h1^3
    cut = qq(2)
    big = cut + 1
    hmu = gieseker_to_mu(3, (0, 0), cut)
    base = h_eps(3, (0, 0), big)
    h1 = h_eps(1, (0, 0), big)
    h20 = h_eps(2, (0, 0), big)
    h2C = h_eps(2, (1, 0), big)
    lit = (h1 * h20)
    b = -6
    while qq(b * b, 12) <= big:
        lit = lit + (h1 * h20 * QSeries({qq(b * b, 12): WRat.w_power(b)})
                     ).scale(2)
        b -= 6
    b = -3
    while qq(b * b, 12) <= big:
        lit = lit + (h1 * h2C * QSeries({qq(b * b, 12): WRat.w_power(b)})
                     ).scale(2)
        b -= 6
    h13 = h1 * h1 * h1
    lit = lit + h13.scale(qq(1, 6))
    k = -3
    while qq(k * k, 3) <= big:
        lit = lit + (h13 * QSeries({qq(k * k, 3): WRat.w_power(2 * k)}))
        k -= 3
    k1 = -1
    while qq(k1 * k1, 3) <= big:
        k2 = k1
        while True:
            e = qq(k1 * k1 + k2 * k2 + k1 * k2, 3)
            if e > big:
                break
            if (k1 - k2) % 3 == 0:
                coeff = WRat.w_power(2 * (k1 + k2))
                term = h13 * QSeries({e: coeff})
                if k2 != k1:
                    term = term.scale(2)  # ordered pairs (k1,k2) and (k2,k1)
                lit = lit + term
            k2 -= 1
        k1 -= 1
    assert hmu.eq_to_cutoff(base + lit, cut)


def test_blowup_divide_roundtrip_and_parity():
    hmu = gieseker_to_mu(2, (1, 0), qq(2))
    out = blowup_divide(hmu, 2, 1, qq(3, 2))
    B = blowup_factor(2, 1, qq(2))
    assert (out * B).eq_to_cutoff(hmu, qq(1))
    # a quotient with half-integer w-support is no plane series
    bad = QSeries({0: WRat.w_power(qq(1, 2))}, qq(1))
    with pytest.raises(BlowupError, match="parity"):
        blowup_divide(bad, 2, 1, qq(1, 2))


def test_blowup_divide_against_the_brute_factor():
    # hmu * eta^r / Theta against hmu / B_{r,k}, with B built by brute force
    # and inverted whole, at the cutoff asked for, on and off the 1/24 grid
    for r in range(1, 5):
        for k in range(r):
            lead = qq(k * (r - k), 2 * r) - qq(r, 24)
            for c in (qq(3, 2), qq(7, 5)):
                hmu = QSeries({0: 1, qq(1, 3): WRat.w_power(1) + 2}, c + lead)
                got = blowup_divide(hmu, r, k, c)
                want = hmu * blowup_factor(r, k, c + 1).invert()
                assert got.cutoff == c and got == want.truncate(c), (r, k, c)


def test_blowup_parity_check_on_lifted_parts():
    c = qq(3, 2)
    hmu = QSeries.one(c + qq(1, 4) - qq(1, 12))
    plain = blowup_divide(hmu, 2, 1, c)
    # decided on the lifted parts, so the quotient is handed on unreduced
    assert plain._lifted is not None
    # a lifted mu-series with a half-integer w-power is no plane series
    with pytest.raises(BlowupError, match="^blow-up parity violation$"):
        blowup_divide(hmu * QSeries({1: WRat.w_power(qq(1, 2))}), 2, 1, c)
    # lifted parts of odd support, (1 + v) / (1 + v), whose reduced
    # coefficients are even: the canonical check passes them
    one_plus_v = WRat.w_power(qq(1, 2)) + 1
    spoiled = (hmu * QSeries({0: one_plus_v})
               * QSeries({0: one_plus_v.inverse()}))
    _, _, D, terms = spoiled._lifted
    assert any(D[1::2]) and any(i % 2 for _, (idx, _) in terms for i in idx)
    assert blowup_divide(spoiled, 2, 1, c) == plain


def test_the_pipeline_inverts_only_in_integers(monkeypatch):
    calls, inverse_terms = [], series._inverse_terms
    monkeypatch.setattr(series, "_inverse_terms", lambda *args: (
        calls.append(args) or inverse_terms(*args)))
    clear_caches()
    p2_table(3, 0, qq(6))
    sigma_genfun(4, (0, 1), 1, SUITABLE,
                 default_cutoff(4, Surface.hirzebruch(1), 6))
    assert not calls
    # a quotient outside Z[v, 1/v] still takes the WRat recurrence
    QSeries({0: 2, 1: 1}, qq(2)).invert()
    assert calls


def test_h20_p2_proposition_literal():
    # (1/B_{2,1}) [h_{2,C}(J_{1,eps}) + sum_{b<0 odd} w^b q^(b^2/4) h1^2]
    #   - (1/2) h_{1,0}(P2)^2
    cut = qq(2)
    big = cut + 2
    h1 = h_eps(1, (0, 0), big)
    bracket = h_eps(2, (1, 0), big)
    b = -1
    while qq(b * b, 4) <= big:
        bracket = bracket + (h1 * h1 * QSeries({qq(b * b, 4): WRat.w_power(b)}))
        b -= 2
    B = blowup_factor(2, 1, big)
    h1p2 = p2_genfun(1, 0, big).series
    oracle = bracket * B.invert() - (h1p2 * h1p2).scale(qq(1, 2))
    got = p2_genfun(2, 0, cut, route_k=1)
    assert got.series.eq_to_cutoff(oracle, cut)


def test_h20_p2_two_routes():
    hA = p2_genfun(2, 0, qq(3), route_k=1)
    hB = p2_genfun(2, 0, qq(3), route_k=0)
    assert hA.series.eq_to_cutoff(hB.series, qq(3))


def test_h3H_p2_two_routes():
    hA = p2_genfun(3, 1, qq(5, 2), route_k=0)
    hB = p2_genfun(3, 1, qq(5, 2), route_k=1)
    assert hA.series.eq_to_cutoff(hB.series, qq(5, 2))


def test_h30_p2_routes_agree():
    hA = p2_genfun(3, 0, qq(2))            # default k = 2: from h_{3,C}
    hB = p2_genfun(3, 0, qq(2), route_k=0)  # from h_{3,0}
    hC = p2_genfun(3, 0, qq(2), route_k=1)
    assert hA.series.eq_to_cutoff(hB.series, qq(2))
    assert hA.series.eq_to_cutoff(hC.series, qq(2))


def test_rank5_plane_leaves_the_q_grid():
    # q-exponents stay on the 1/24 grid up to rank 4; a rank-5 filtration
    # shift of the march does not, and the kernel refuses it
    with pytest.raises(SeriesError, match="295/200 off the 1/24 grid"):
        p2_genfun(5, 1, 1)


def test_p2_rank1_table():
    t = p2_table(1, 0, qq(3))
    rows = {row.c2: row for row in t.rows}
    assert rows[1].euler == 3 and rows[2].euler == 9


def test_p2_rank2_known_moduli():
    t = p2_table(2, 0, qq(3))
    rows = {row.c2: row for row in t.rows}
    # M(2,0,2) is the projective 5-space
    assert rows[2].betti == (1, 1, 1, 1, 1, 1)
    assert rows[2].euler == 6


def test_mu_to_gieseker_gcd_one_identity():
    hmu = gieseker_to_mu(3, (0, 1), qq(2))
    div = blowup_divide(hmu, 3, 1, qq(3, 2))
    out = mu_to_gieseker(div, 3, 1, qq(1))
    assert out.eq_to_cutoff(div, qq(1))


def test_plane_omega_reuses_the_plane_memo_entry():
    # the CLI asks for p2_genfun(r, x, cutoff) and then p2_omega_genfun; the
    # second call must find the first one's memo entry for the top class
    c = qq(2)
    p2_series.cache_clear()
    p2_genfun(2, 0, c)
    p2_genfun(1, 0, c)
    misses = p2_series.cache_info().misses
    p2_omega_genfun(2, 0, c)
    assert p2_series.cache_info().misses == misses
