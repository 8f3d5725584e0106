"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Run with -s to see one PASS line per criterion."""

import functools
import time

from bpsinv.exactq import qq
from bpsinv.blocks import fibre_quotient
from bpsinv.compute import p2_genfun, p2_table, sigma_genfun, sigma_table
from bpsinv.geometry import NEAR_PULLBACK, Polarization, SUITABLE, Surface
from bpsinv.hn import suitable_genfun_closed, suitable_genfun_recursive
from bpsinv.invariants import extract_table, omega_genfun
from bpsinv.wallcross import genfun_at_polarization, genfun_by_wall_march

from oracles import hurwitz_class_number, kronecker_betti, total_set_curve

REFERENCE_R3_ROWS = {
    3: (18, (1, 1, 2, 2, 2, 2)),
    4: (216, (1, 2, 5, 9, 15, 19, 22, 23, 24)),
    5: (1512, (1, 2, 6, 12, 25, 43, 70, 98, 125, 142, 154, 156)),
    6: (8109, (1, 2, 6, 13, 28, 53, 99, 165, 264, 383, 515, 631,
               723, 774, 795)),
}

CHAMBERS = [Polarization.generic(13, 9), Polarization.generic(9, 13),
            Polarization.generic(21, 8)]

_r3_cache = {}


def _r3_table():
    if "t" not in _r3_cache:
        t0 = time.time()
        _r3_cache["t"] = p2_table(3, 0, qq(6))
        _r3_cache["seconds"] = time.time() - t0
    return _r3_cache["t"]


def _report(num, name):
    print("ACCEPTANCE %d (%s): PASS" % (num, name))


def test_criterion_1_reference_rows_exact():
    table = _r3_table()
    rows = {row.c2: row for row in table.rows}
    assert set(rows) == set(REFERENCE_R3_ROWS)
    for c2, (euler, half) in REFERENCE_R3_ROWS.items():
        row = rows[c2]
        assert row.euler == euler, c2
        assert row.betti[:row.dim // 2 + 1] == half, c2
        # full Betti list is the palindrome closure of the printed half
        assert row.betti == half + half[-2::-1], c2
    assert _r3_cache["seconds"] < 600
    _report(1, "reference rank-3 Betti/Euler rows c2=3..6 exact, %.1fs"
            % _r3_cache["seconds"])


def test_criterion_2_duality_sums():
    for row in _r3_table().rows:
        mid = row.dim // 2
        assert row.euler == 2 * sum(row.betti[:mid]) + row.betti[mid]
    _report(2, "duality sums 2*sum(sub-middle)+middle = Euler")


def _partition_counts(nmax):
    """Independent oracle: direct partition counting by bounded-part DP."""
    table = [[0] * (nmax + 1) for _ in range(nmax + 1)]
    for k in range(nmax + 1):
        table[k][0] = 1
    for k in range(1, nmax + 1):
        for n in range(1, nmax + 1):
            table[k][n] = table[k - 1][n] + (table[k][n - k] if n >= k else 0)
    return [table[nmax][n] for n in range(nmax + 1)]


def test_criterion_3_rank1_partition_oracle():
    nmax = 8
    p = _partition_counts(nmax)
    triple = [sum(p[i] * p[j] * p[n - i - j]
                  for i in range(n + 1) for j in range(n - i + 1))
              for n in range(nmax + 1)]
    assert triple[:6] == [1, 3, 9, 22, 51, 108]
    table = p2_table(1, 0, qq(nmax) + qq(1, 2))
    rows = {row.c2: row for row in table.rows}
    for n in range(nmax + 1):
        assert rows[n].euler == triple[n], n
    _report(3, "rank-1 Euler numbers match the partition-triple oracle")


def test_criterion_4_fibre_leading_anchor():
    for r in range(1, 5):
        h = fibre_quotient(r, -qq(r, 6) + 1)
        assert h.leading_exponent() == -qq(r, 6)
        assert h.terms[h.leading_exponent()] == total_set_curve(r, 0)
    _report(4, "fibre product leading coefficient = curve stack count, r<=4")


def _assert_routes_agree(a, b, cut, context=None):
    # eq_to_cutoff compares below the tightest cutoff, so a route that lost
    # precision would shrink the comparison: both must reach cut
    assert a.cutoff >= cut and b.cutoff >= cut, context
    assert a.eq_to_cutoff(b, cut), context


def test_criterion_5a_rank4_routes():
    cut = qq(5) - qq(4, 6)
    for a in range(4):
        closed = suitable_genfun_closed(4, (0, (-a) % 4), cut)
        rec = suitable_genfun_recursive(4, (0, (-a) % 4), cut)
        _assert_routes_agree(closed, rec, cut, a)
    _report(5, "(a) rank-4 closed form = recursive subtraction, 5 orders")


def test_criterion_5b_h3H_two_routes():
    for orders in (5, 10):
        cut = qq(orders) - qq(3, 8)
        hA = p2_genfun(3, 1, cut, route_k=0)
        hB = p2_genfun(3, 1, cut, route_k=1)
        _assert_routes_agree(hA.series, hB.series, cut, orders)
    _report(5, "(b) h_{3,H} plane routes agree, 5 and 10 orders")


def test_criterion_5c_h20_two_routes():
    for orders in (5, 10):
        cut = qq(orders) - qq(1, 4)
        hA = p2_genfun(2, 0, cut, route_k=1)
        hB = p2_genfun(2, 0, cut, route_k=0)
        _assert_routes_agree(hA.series, hB.series, cut, orders)
    _report(5, "(c) h_{2,0} plane routes agree, 5 and 10 orders")


def test_criterion_5d_closed_vs_iterated_wallcrossing():
    cut2 = qq(6) - qq(1, 3)
    cut3 = qq(6) - qq(1, 2)
    for ell in (0, 1, 2):
        # J_{1,eps} is the chamber the blow-up formula starts from
        for J in CHAMBERS + [NEAR_PULLBACK]:
            for cls in [(0, 0), (1, 0), (0, 1), (1, 1)]:
                closed = genfun_at_polarization(2, cls, ell, J, cut2)
                marched = genfun_by_wall_march(2, cls, ell, J, cut2)
                _assert_routes_agree(closed, marched, cut2,
                                     (2, ell, cls, J))
            for cls in [(0, 0), (1, 2)]:
                closed = genfun_at_polarization(3, cls, ell, J, cut3)
                marched = genfun_by_wall_march(3, cls, ell, J, cut3)
                _assert_routes_agree(closed, marched, cut3,
                                     (3, ell, cls, J))
    _report(5, "(d) closed wall-crossing = iterated crossing, 4 chambers, "
               "ell in {0,1,2}, 6 orders")


# Rows past the paper's table, as computed by this code (cutoff 9, both
# blow-up routes agreeing); they are not taken from the paper.
DEEP_R3_ROWS = {
    7: (36612, (1, 2, 6, 13, 29, 56, 109, 194, 338, 552, 866, 1270, 1760,
                2266, 2736, 3091, 3321, 3392)),
    8: (145908, (1, 2, 6, 13, 29, 57, 112, 204, 367, 626, 1044, 1664, 2568,
                 3774, 5303, 7042, 8854, 10485, 11782, 12585, 12872)),
    9: (528264, (1, 2, 6, 13, 29, 57, 113, 207, 377, 655, 1118, 1842, 2974,
                 4640, 7052, 10331, 14602, 19750, 25537, 31383, 36721, 40900,
                 43583, 44478)),
}


def test_deep_rank3_rows_c2_7_to_9():
    cut = qq(9)
    hA = p2_genfun(3, 0, cut, route_k=0)
    hB = p2_genfun(3, 0, cut, route_k=1)
    _assert_routes_agree(hA.series, hB.series, cut, "h_{3,0} at cutoff 9")
    rows = {row.c2: row for row in p2_table(3, 0, cut).rows}
    assert set(rows) == set(REFERENCE_R3_ROWS) | set(DEEP_R3_ROWS)
    for c2, (euler, half) in {**REFERENCE_R3_ROWS, **DEEP_R3_ROWS}.items():
        row = rows[c2]
        assert row.euler == euler, c2
        assert row.betti[:row.dim // 2 + 1] == half, c2
        assert row.betti == half + half[-2::-1], c2
    _report(1, "(deep) rank-3 plane rows c2=7..9, routes agree at cutoff 9")


def test_rank4_plane_four_routes():
    # rank 4 has four exceptional-class residues k, so four blow-up routes
    # through the general-rank wall march and filtration sums
    cut = qq(3)
    for x in range(3):
        hs = [p2_genfun(4, x, cut, route_k=k).series for k in range(4)]
        for k in range(1, 4):
            _assert_routes_agree(hs[0], hs[k], cut, (x, k))
    _report(5, "(e) rank-4 plane routes k = 0..3 agree, x = 0, 1, 2")


# Rank-4 rows for c1 = H, as computed by this code (all four routes agreeing
# at cutoff 3, and through c2 = 10 on a longer run); not taken from the paper.
R4_H_ROWS = {3: 13, 4: 246, 5: 2565, 6: 19446}


@functools.cache
def _r4_table():
    return p2_table(4, 1, qq(6))


def test_rank4_plane_rows_c2_3_to_6():
    rows = {row.c2: row for row in _r4_table().rows}
    assert {c2: rows[c2].euler for c2 in R4_H_ROWS} == R4_H_ROWS
    assert rows[3].betti == (1, 1, 3, 3, 3, 1, 1)
    _report(1, "(rank 4) plane rows c1 = H, c2 = 3..6")


def test_height_zero_rows_are_kronecker_moduli():
    # On the plane, the moduli space of c1 = H and the least c2 = r - 1 is
    # that of Kronecker modules N(3; r - 2, r - 1) (Drezet, Math. Ann. 1988),
    # so its Betti row comes from outside the pipeline
    tables = {2: p2_table(2, 1, qq(2)), 3: p2_table(3, 1, qq(2)),
              4: _r4_table()}
    for r, table in tables.items():
        (row,) = [row for row in table.rows if row.c2 == r - 1]
        assert row.betti == kronecker_betti(r - 2, r - 1), r
    _report(1, "(height zero) plane rows c1 = H, c2 = r - 1, r = 2..4, "
               "are Kronecker moduli")


def test_rank2_plane_euler_numbers_are_class_numbers():
    # Klyachko and Yoshioka: sum_{c2>=1} chi(M(2, H, c2)) q^(c2-1) =
    # 3 sum_n H(4n+3) q^n / prod_m (1 - q^m)^6, row by row at depth 40.
    # The default route's Sigma_1 class C + f has odd fibre degree, so its
    # suitable base is zero; route_k = 1 starts from f, whose base is the
    # solved recursion's rank-2 series
    series = [3 * hurwitz_class_number(4 * n + 3) for n in range(40)]
    for m in range(1, 40):
        for _ in range(6):
            for n in range(m, 40):
                series[n] += series[n - m]
    for route_k in (None, 1):
        rows = extract_table(omega_genfun(lambda r, c1: p2_genfun(
            r, c1[0], qq(40), route_k=route_k), 2, (1,))).rows
        assert [row.c2 for row in rows] == list(range(1, 41))
        assert [row.euler for row in rows] == series, route_k
    _report(1, "(class numbers) plane rows c1 = H, c2 = 1..40, rank 2")


def _check_table_properties(table):
    # extract_table already enforced integrality, palindromy, nonnegativity,
    # w-span = 2*dim and vanishing on expected-empty classes; re-assert the
    # table-level identities here
    for row in table.rows:
        assert row.poincare.conjugate() == row.poincare
        assert all(b >= 0 for b in row.betti)
        assert len(row.betti) == row.dim + 1
        assert sum(row.betti) == row.euler
        mid = row.dim // 2
        if row.dim % 2 == 0:
            assert row.euler == 2 * sum(row.betti[:mid]) + row.betti[mid]
        else:
            assert row.euler == 2 * sum(row.betti[:mid + 1])


def test_criterion_6_property_suite():
    count = 0
    for (r, x) in [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]:
        _check_table_properties(p2_table(r, x, qq(3) - qq(r, 8)))
        count += 1
    for ell in (0, 1, 2):
        for r in range(1, 5):
            for alpha in range(r):
                t = sigma_table(r, (0, alpha), ell, SUITABLE,
                                qq(3) - qq(r, 6))
                _check_table_properties(t)
                count += 1
    for ell in (0, 1, 2):  # ell = 2 exercises the degenerate C-weight
        for J in CHAMBERS:
            for (r, cls) in [(1, (0, 0)), (2, (0, 0)), (2, (1, 1)),
                             (3, (0, 0)), (3, (1, 2))]:
                t = sigma_table(r, cls, ell, J, qq(2) - qq(r, 6))
                _check_table_properties(t)
                count += 1
    _report(6, "integrality/palindrome/positivity/span on %d tables" % count)


def test_criterion_7_vanishing_off_fibre_degree():
    for r in (2, 3):
        for beta in range(1, r):
            for alpha in range(r):
                h = suitable_genfun_recursive(r, (beta, alpha), qq(4))
                assert h.is_zero()
    _report(7, "suitable-chamber vanishing for c1.f != 0 mod r")


def test_criterion_8_ell_independence():
    cut = qq(3)
    for r in range(1, 5):
        for alpha in range(r):
            base = sigma_genfun(r, (0, alpha), 0, SUITABLE, cut)
            for ell in (1, 2):
                other = sigma_genfun(r, (0, alpha), ell, SUITABLE, cut)
                assert base.series.eq_to_cutoff(other.series, cut), (r, alpha)
    _report(8, "suitable-chamber results independent of ell, r<=4")
