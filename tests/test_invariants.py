
import pytest

from bpsinv.exactq import qq
from bpsinv.blocks import rank1_genfun
from bpsinv.geometry import Surface, SUITABLE
from bpsinv.hn import suitable_genfun_recursive
from bpsinv.invariants import (
    Flavor, GenFun, InvariantError, extract_table, omegabar_to_omega,
)
from bpsinv.series import QSeries, VPoly, WRat

P2 = Surface.p2()
S1 = Surface.hirzebruch(1)


def test_multicover_trivial_for_coprime_class():
    h = suitable_genfun_recursive(2, (0, 1), 1, qq(2))
    out = omegabar_to_omega(h, {})
    assert out.flavor == Flavor.OMEGA
    assert out.series.eq_to_cutoff(h.series)


def test_multicover_rank2_correction_is_literal_substitution():
    h1 = rank1_genfun(S1, qq(8))
    h1_omega = GenFun(surface=S1, r=1, c1=(0, 0), J=SUITABLE,
                      flavor=Flavor.OMEGA, series=h1.series)
    h2 = suitable_genfun_recursive(2, (0, 0), 1, qq(3))
    out = omegabar_to_omega(h2, {(1, (0, 0)): h1_omega})
    expect = h2.series - h1.series.substitute(2, multicover=True).scale(qq(1, 2))
    assert out.series.eq_to_cutoff(expect, qq(3))


def test_multicover_missing_lower_input_errors():
    h2 = suitable_genfun_recursive(2, (0, 0), 1, qq(2))
    with pytest.raises(InvariantError):
        omegabar_to_omega(h2, {})


def test_extract_table_rank1_p2():
    h = rank1_genfun(P2, qq(4))
    out = omegabar_to_omega(
        GenFun(surface=P2, r=1, c1=(0,), J=None, flavor=Flavor.OMEGA_BAR,
               series=h.series), {})
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
