"""The stage memo and the precision rule: every memoized stage returns the
cutoff it was asked for, and a shallower result served from a deeper memo
entry equals a cold computation."""

import gc

import pytest

from bpsinv import clear_caches
from bpsinv.exactq import qq
from bpsinv.blocks import (
    blowup_factor, eta_series, fibre_quotient, inverse_theta_hat, theta_hat,
)
from bpsinv.blowup import gieseker_to_mu, p2_genfun
from bpsinv.compute import p2_table
from bpsinv.geometry import NEAR_PULLBACK, Polarization
from bpsinv.hn import suitable_genfun_closed, suitable_genfun_recursive
from bpsinv.series import QSeries
from bpsinv.wallcross import _h1_squared, genfun_at_polarization

# on the 1/24 grid, and off it
CUTOFFS = (qq(3, 2), qq(7, 5), qq(2) + qq(1, 48))
J_GENERIC = Polarization.generic(13, 9)


def _stage_calls():
    """(stage, arguments before the cutoff, keywords after it, the distance
    of the result's cutoff from the one asked for)."""
    yield eta_series, (), {}, 0
    for k in (1, 2, 3):
        yield theta_hat, (k,), {}, 0
        yield inverse_theta_hat, (k,), {}, 0
    for r in (1, 2, 3):
        for k in range(r):
            yield blowup_factor, (r, k), {}, 0
    yield _h1_squared, (), {}, -qq(1, 6)  # h1 leads with q^(-1/6)
    for r in (1, 2, 3, 4):
        yield fibre_quotient, (r,), {}, 0
        for alpha in range(r):
            yield suitable_genfun_recursive, (r, (0, alpha)), {}, 0
            yield suitable_genfun_closed, (r, (0, alpha)), {}, 0
    for ell in (0, 1, 2):
        for r, cls in ((1, (0, 0)), (2, (0, 0)), (2, (0, 1)), (2, (1, 0)),
                       (2, (1, 1)), (3, (0, 0)), (3, (1, 1)), (3, (1, 2))):
            for J in (J_GENERIC, NEAR_PULLBACK):
                yield genfun_at_polarization, (r, cls, ell, J), {}, 0
    for r in (1, 2, 3):
        for x in range(r):
            yield gieseker_to_mu, (r, (x - 1, x)), {}, 0
            for k in range(r):
                yield p2_genfun, (r, x), {"route_k": k}, 0


def _cutoff(result):
    # p2_genfun, the plane's entry point, is the one stage that tags its
    # series
    return getattr(result, "series", result).cutoff


@pytest.mark.parametrize("c", CUTOFFS, ids=str)
def test_every_stage_returns_the_cutoff_it_was_asked_for(c):
    clear_caches()
    for stage, args, kw, offset in _stage_calls():
        result = stage(*args, cutoff=c, **kw)
        assert isinstance(result, QSeries) != (stage is p2_genfun), \
            (stage.__name__, args, kw)
        assert _cutoff(result) == c + offset, (stage.__name__, args, kw)


@pytest.mark.parametrize("deep, shallow", [
    (qq(3), qq(2) + qq(1, 48)), (qq(5, 2), qq(7, 5)),
])
def test_shallower_memo_result_equals_a_cold_one(deep, shallow):
    clear_caches()
    for stage, args, kw, _ in _stage_calls():
        stage(*args, cutoff=deep, **kw)
    served = []
    for stage, args, kw, _ in _stage_calls():
        misses = stage.cache_info().misses
        served.append(stage(*args, cutoff=shallow, **kw))
        assert stage.cache_info().misses == misses, (stage.__name__, args)
    for (stage, args, kw, _), got in zip(_stage_calls(), served):
        clear_caches()
        assert got == stage(*args, cutoff=shallow, **kw), \
            (stage.__name__, args, kw)


def test_keyword_and_positional_spellings_share_an_entry():
    clear_caches()
    c = qq(2)
    first = genfun_at_polarization(2, (1, 1), 1, J_GENERIC, c)
    misses = genfun_at_polarization.cache_info().misses
    again = genfun_at_polarization(r=2, c1=(1, 1), ell=1, J=J_GENERIC,
                                   cutoff=c)
    assert again is first
    assert genfun_at_polarization.cache_info().misses == misses


def test_no_series_keeps_a_lift_beside_its_terms():
    """A lifted form taken from canonical terms is used and dropped, and
    reading a lifted result drops its lift: after a cold plane run, no live
    series (memo entries, their operands, the served results) holds both."""
    clear_caches()
    p2_genfun(3, 0, 7)
    assert p2_table(3, 0, 7).rows
    live = [s for s in gc.get_objects() if isinstance(s, QSeries)]
    assert live
    assert not [s for s in live
                if s._t is not None and s._lifted is not None]
