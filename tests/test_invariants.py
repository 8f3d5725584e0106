from itertools import product

import pytest

from bpsinv.exactq import qq
from bpsinv.blocks import fibre_quotient
from bpsinv.compute import (
    default_cutoff, p2_genfun, p2_omega_genfun, sigma_genfun,
    sigma_omega_genfun,
)
from bpsinv.geometry import GeometryError, Polarization, Surface, SUITABLE
from bpsinv.invariants import (
    Flavor, GenFun, InvariantError, InvariantTable, extract_table,
    omega_genfun,
)
from bpsinv.series import WRAT_ZERO, QSeries, VPoly, WRat
from bpsinv.serialize import dumps, qseries_to_obj, table_to_obj

from oracles import (
    chern_from_c2, exponent_of, ref_extract_table, ref_qseries_to_obj,
)

P2 = Surface.p2()
S1 = Surface.hirzebruch(1)


def _suitable(ell, cutoff):
    return lambda r, c1: sigma_genfun(r, c1, ell, SUITABLE, cutoff)


def _multicover(series, m):
    return series.substitute(m).scale(qq(1, m))


def test_multicover_trivial_for_coprime_class():
    h = sigma_genfun(2, (0, 1), 1, SUITABLE, qq(2))
    out = omega_genfun(_suitable(1, qq(2)), 2, (0, 1))
    assert out.flavor == Flavor.OMEGA
    assert out.series.eq_to_cutoff(h.series)


def test_multicover_rank2_correction_is_literal_substitution():
    h1 = fibre_quotient(1, qq(8))
    h2 = sigma_genfun(2, (0, 0), 1, SUITABLE, qq(3))
    out = omega_genfun(_suitable(1, qq(3)), 2, (0, 0))
    expect = h2.series - _multicover(h1, 2)
    assert out.series.eq_to_cutoff(expect, qq(3))


@pytest.mark.parametrize("ell", [0, 1])
def test_multicover_nested_divisors(ell):
    # Omega_4 = h_4 - 1/2 Omega_2(q^2) - 1/4 h_1(q^4), where Omega_2 is
    # itself h_2 - 1/2 h_1(q^2): the m = 2 term is the rank-2 recursion
    S = Surface.hirzebruch(ell)
    cutoff = default_cutoff(4, S, 5)
    h = {r: _suitable(ell, cutoff)(r, (0, 0)).series for r in (1, 2, 4)}
    omega2 = h[2] - _multicover(h[1], 2)
    expect = h[4] - _multicover(omega2, 2) - _multicover(h[1], 4)
    out = omega_genfun(_suitable(ell, cutoff), 4, (0, 0))
    assert out.series.eq_to_cutoff(expect, cutoff)
    assert not out.series.eq_to_cutoff(h[4], cutoff)


def test_multicover_requires_omegabar_input():
    h = p2_genfun(1, 0, qq(2))._replace(flavor=Flavor.OMEGA)
    with pytest.raises(InvariantError):
        omega_genfun(lambda r, c1: h, 1, (0,))


def test_extract_table_requires_omega_input():
    with pytest.raises(InvariantError, match="requires an OMEGA-flavor"):
        extract_table(p2_genfun(1, 0, qq(2)))


def test_extract_table_rank1_p2():
    out = omega_genfun(lambda r, c1: p2_genfun(1, 0, qq(4)), 1, (0,))
    table = extract_table(out)
    rows = {row.c2: row for row in table.rows}
    assert rows[0].dim == 0 and rows[0].euler == 1
    assert rows[1].betti == (1, 1, 1) and rows[1].euler == 3
    assert rows[2].euler == 9
    assert rows[3].euler == 22


def test_extract_rejects_stacky_series():
    # 1/(w - w^-1)^2 times (w - w^-1) is not a Laurent polynomial
    bad = WRat(VPoly({0: 1}), VPoly({4: 1, 0: -2, -4: 1}))
    series = QSeries({qq(-1, 8): bad}, qq(1))
    g = GenFun(surface=P2, r=1, c1=(0,), J=None, flavor=Flavor.OMEGA,
               series=series)
    with pytest.raises(InvariantError):
        extract_table(g)


def test_extract_rejects_expected_empty():
    # a nonzero invariant where the expected dimension is negative
    series = QSeries({qq(-1, 3): WRat(VPoly({2: 1, -2: -1})).scale(qq(1, 1))},
                     qq(0))
    g = GenFun(surface=S1, r=2, c1=(0, 0), J=SUITABLE, flavor=Flavor.OMEGA,
               series=series.scale(WRat(VPoly({2: 1, -2: -1})).inverse()))
    with pytest.raises(InvariantError):
        extract_table(g)


WMINUS = WRat(VPoly({2: 1, -2: -1}))  # w - w^-1


def _outcome(f, *args):
    """f(*args), or the class and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _spoiled(spoil, shift=0):
    """The rank-1 plane OMEGA series, whose table passes every check, with
    spoil (v-exponent: coefficient) / (w - w^-1) added at the exponent of
    its c2 = 1 row plus shift; the row, of dimension 2 and Betti numbers
    1, 1, 1, is picked through the table."""
    h = omega_genfun(lambda r, c1: p2_genfun(1, 0, qq(4)), 1, (0,))
    (row,) = [row for row in extract_table(h).rows if row.c2 == 1]
    assert row.betti == (1, 1, 1)
    e = exponent_of(chern_from_c2(1, (0,), row.c2, P2), P2) + shift
    terms = dict(h.series.terms)
    terms[e] = terms.get(e, WRAT_ZERO) + WRat(VPoly(spoil)) / WMINUS
    return h._replace(series=QSeries(terms, h.series.cutoff))


@pytest.mark.parametrize("spoil, message", [
    ({4: 1}, "non-palindromic"),
    ({1: 1, -1: 1}, "half-integer w-support"),
    ({8: 1, -8: 1}, "w-span -8..8 does not match dimension 2"),
    ({4: -2, -4: -2}, "negative or non-integer Betti"),
    ({4: qq(1, 2), -4: qq(1, 2)}, "negative or non-integer Betti"),
    ({2: 1, -2: 1}, "odd Betti"),
])
def test_each_extract_check_fires_on_a_spoiled_table(spoil, message):
    # each spoil of the row's Poincare polynomial breaks exactly one check,
    # and the rational route raises the same class with the same message
    spoiled = _spoiled(spoil)
    with pytest.raises(InvariantError, match=message):
        extract_table(spoiled)
    assert _outcome(ref_extract_table, spoiled) == \
        _outcome(extract_table, spoiled)


@pytest.mark.parametrize("shift", [qq(1, 24), qq(1, 2)])
def test_extract_c2_check_fires_off_the_lattice(shift):
    # a term off the class's lattice: 24 Delta + 1 makes c2 and dim
    # fractional, 24 Delta + 12 only c2 (an integral c2 always gives an
    # integral dim, since 12 divides 24 r and 12 (r - 1) c1^2)
    spoiled = _spoiled({0: 1}, shift)
    with pytest.raises(GeometryError, match="non-integral c2 for ChernVector"):
        extract_table(spoiled)
    assert _outcome(ref_extract_table, spoiled) == \
        _outcome(extract_table, spoiled)


def _plane(qorders):
    for r in (1, 2, 3):
        cutoff = default_cutoff(r, P2, qorders)
        for x in range(r):
            yield p2_genfun(r, x, cutoff), p2_omega_genfun(r, x, cutoff)


def _hirzebruch(qorders):
    J_13_9 = Polarization.generic(13, 9)
    for ell, (J, top) in product(range(3), ((SUITABLE, 4), (J_13_9, 3))):
        S = Surface.hirzebruch(ell)
        for r in range(1, top + 1):
            cutoff = default_cutoff(r, S, qorders)
            for c1 in product(range(r), repeat=2):
                yield (sigma_genfun(r, c1, ell, J, cutoff),
                       sigma_omega_genfun(r, c1, ell, J, cutoff))


@pytest.mark.parametrize("classes", [_plane, _hirzebruch])
@pytest.mark.parametrize("qorders", [2, 5])
def test_integer_edge_equals_the_rational_route(classes, qorders):
    # every class of rank <= 3 on the plane, and of rank <= 4 (suitable) or
    # <= 3 (13,9) on Sigma_0..2: series JSON and tables (or the exception)
    # read from the integer parts equal those read through the Fractions
    rows = 0
    for h, omega in classes(qorders):
        for s in (h.series, omega.series):
            assert dumps(qseries_to_obj(s)) == dumps(ref_qseries_to_obj(s))
        got = _outcome(extract_table, omega)
        ref = _outcome(ref_extract_table, omega)
        assert got == ref
        if isinstance(got, InvariantTable):
            assert dumps(table_to_obj(got)) == dumps(table_to_obj(ref))
            rows += len(got.rows)
    assert rows
