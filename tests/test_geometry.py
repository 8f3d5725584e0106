import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from bpsinv.compute import p2_genfun, p2_table
from bpsinv.exactq import qq
from bpsinv.geometry import (
    SUITABLE, Surface, ChernVector, Polarization, NEAR_PULLBACK,
    discriminant, expected_dimension, walls_between, GeometryError,
)

from oracles import chern_from_c2, discriminant_of_filtration, twist_reduce

P2 = Surface.p2()
S0 = Surface.hirzebruch(0)
S1 = Surface.hirzebruch(1)


def test_surface_tables():
    assert S1.intersect((1, 0), (1, 0)) == -1
    assert S1.intersect((1, 0), (0, 1)) == 1
    assert S0.intersect((0, 1), (0, 1)) == 0
    assert S1.canonical_class() == (-2, -3)
    assert P2.canonical_class() == (-3,)
    assert P2.intersect((2,), (3,)) == 6
    assert (S1.chi_top, P2.chi_top, S1.b2, P2.b2) == (4, 3, 2, 1)
    assert Surface("p2") == P2 and P2.ell == 0
    assert Surface.hirzebruch(2) == Surface("hirzebruch", 2)


def test_discriminant_examples():
    g = chern_from_c2(3, (0,), 3, P2)
    assert g.ch2 == -3
    assert discriminant(g, P2) == 1
    g2 = chern_from_c2(2, (1, 1), 1, S1)
    assert discriminant(g2, S1) == qq(3, 8)


def test_expected_dimension_examples():
    assert expected_dimension(chern_from_c2(3, (0,), 3, P2), P2) == 10
    assert expected_dimension(chern_from_c2(1, (0,), 0, P2), P2) == 0
    for ell in (0, 1, 2):
        S = Surface.hirzebruch(ell)
        assert expected_dimension(chern_from_c2(2, (0, 1), 0, S), S) == -3


def test_filtration_discriminant_identity():
    rng = random.Random(7)
    for _ in range(100):
        S = Surface.hirzebruch(rng.choice([0, 1, 2]))
        pieces = []
        for _ in range(rng.randint(1, 3)):
            r = rng.randint(1, 3)
            c1 = (rng.randint(-3, 3), rng.randint(-3, 3))
            c2 = rng.randint(-4, 6)
            pieces.append(chern_from_c2(r, c1, c2, S))
        total = ChernVector(
            sum(p.r for p in pieces),
            tuple(sum(p.c1[i] for p in pieces) for i in range(2)),
            sum((p.ch2 for p in pieces), qq(0)))
        assert discriminant_of_filtration(pieces, S) == discriminant(total, S)


def test_twist_reduce():
    g = chern_from_c2(2, (3, 5), 1, S1)
    red, L = twist_reduce(g, S1)
    assert red.c1 == (1, 1)
    assert L == (1, 2)
    assert discriminant(red, S1) == discriminant(g, S1)
    g0 = chern_from_c2(3, (0,), 4, P2)
    red0, L0 = twist_reduce(g0, P2)
    assert red0 == g0 and L0 == (0,)


def test_twist_reduce_delta_invariance_random():
    rng = random.Random(11)
    for _ in range(100):
        S = Surface.hirzebruch(rng.choice([0, 1, 2]))
        g = chern_from_c2(rng.randint(1, 4),
                                (rng.randint(-6, 6), rng.randint(-6, 6)),
                                rng.randint(-3, 8), S)
        red, _ = twist_reduce(g, S)
        assert discriminant(red, S) == discriminant(g, S)


def test_walls_between_orders_and_bounds():
    walls = walls_between(2, S0, qq(3))
    slopes = [s for s, _ in walls]
    assert slopes == sorted(slopes, reverse=True)
    assert all(0 < s for s in slopes)
    # on Sigma_0 a (1,-1) split of (2,f,2) costs -zeta^2/(2*2*1*1) = 1/2 <= 3
    assert qq(1, 1) in slopes


def test_walls_between_rank1_is_empty_and_higher_ranks_unchanged():
    # a rank-1 class has no splittings, so no walls, at any bound
    for ell in range(3):
        for bound in (qq(3), qq(13, 3), qq(40)):
            assert walls_between(1, Surface.hirzebruch(ell), bound) == []
    # ranks 2-4 as the enumeration gave before rank 1 was allowed
    counts = {(qq(3), 0): [13, 47, 153], (qq(3), 1): [6, 26, 86],
              (qq(3), 2): [6, 23, 76], (qq(13, 3), 0): [17, 73, 233],
              (qq(13, 3), 1): [11, 41, 130], (qq(13, 3), 2): [8, 36, 116]}
    walls = [walls_between(r, Surface.hirzebruch(ell), bound)
             for bound, ell in counts for r in (2, 3, 4)]
    assert [len(w) for w in walls] == sum(counts.values(), [])
    assert hashlib.sha256(repr(walls).encode()).hexdigest() == \
        "4cb9744882715365066b474969860edd5c72fadb95f8aeef1ce9ca48e16b3b0d"


def test_polarization_validation():
    with pytest.raises(GeometryError):
        Polarization.generic(0, 1)
    with pytest.raises(GeometryError):
        Polarization.generic(1, -1)
    assert Polarization(1, 0).is_boundary and Polarization(1, 0).e == 0
    assert not NEAR_PULLBACK.is_boundary


def test_polarization_slope_is_computed_and_not_compared():
    # the slope is computed where it is read; equality, hashing and so the
    # memo keys stay those of (m, n, e)
    J = Polarization.generic(13, 9)
    K = Polarization(qq(26, 2), 9)
    assert J == K and hash(J) == hash(K) and J is not K
    assert J.slope() == K.slope() == (qq(9, 13), 0)
    assert J != Polarization.generic(9, 13)
    assert SUITABLE.slope() is None and NEAR_PULLBACK.slope() == (0, 1)
    assert Polarization(1, 0).slope() == (0, 0)
    assert repr(J) == \
        "Polarization(m=Fraction(13, 1), n=Fraction(9, 1), e=0)"


def _records():
    """One value of each record, with its field names in order."""
    table = p2_table(1, 0, qq(2))
    return {
        "Surface": (P2, ("kind", "ell")),
        "ChernVector": (chern_from_c2(2, (1, 1), 1, S1), ("r", "c1", "ch2")),
        "Polarization": (Polarization.generic(13, 9), ("m", "n", "e")),
        "GenFun": (p2_genfun(1, 0, qq(2)),
                   ("surface", "r", "c1", "J", "flavor", "series")),
        "TableRow": (table.rows[0],
                     ("c2", "delta", "dim", "poincare", "betti", "euler")),
        "InvariantTable": (table, ("surface", "r", "c1", "rows")),
    }


@pytest.mark.parametrize("name", ["Surface", "ChernVector", "Polarization",
                                  "GenFun", "TableRow", "InvariantTable"])
def test_records_compare_hash_and_print_by_their_fields(name):
    # memo keys hold these records, so == and hash must stay those of the
    # tuple of fields, and a record must never change once built
    value, fields = _records()[name]
    cls = type(value)
    assert cls.__name__ == name
    items = [getattr(value, f) for f in fields]
    assert repr(value) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (f, x) for f, x in zip(fields, items)))
    copy = cls(**dict(zip(fields, items)))
    assert copy == value and copy is not value
    assert hash(copy) == hash(value) == hash(tuple(items))
    if cls is not ChernVector:  # which normalises its fields
        for f in fields:
            assert cls(**dict(zip(fields, items), **{f: object()})) != value
    with pytest.raises(AttributeError):
        setattr(value, fields[0], items[0])
    with pytest.raises(AttributeError):
        value.extra = 1


def test_chern_vector_normalises_and_rejects_rank_zero():
    g = ChernVector(2, [qq(3), 1.0], "-3/2")
    assert g.c1 == (3, 1) and type(g.c1) is tuple
    assert all(type(x) is int for x in g.c1)
    assert g.ch2 == qq(-3, 2) and type(g.ch2) is type(qq(1))
    assert g == ChernVector(2, (3, 1), qq(-3, 2))
    assert ChernVector(2, (3, 1), qq(-1, 2)) != g != \
        ChernVector(2, (3, 0), qq(-3, 2))
    assert ChernVector(r=1, c1=(0,), ch2=0).ch2 == 0
    for r in (0, -1):
        with pytest.raises(GeometryError, match="rank must be positive"):
            ChernVector(r, (0, 0), 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(-5, 5), st.integers(-5, 5),
       st.integers(-3, 8), st.integers(0, 2))
def test_dimension_integrality(r, x, y, c2, ell):
    S = Surface.hirzebruch(ell)
    g = chern_from_c2(r, (x, y), c2, S)
    expected_dimension(g, S)  # must not raise: always integral from c2 data
