"""The stage memo and the precision rule: every stage returns a bare series
at the cutoff it was asked for, a shallower result served from a deeper memo
entry equals a cold computation, and only stages that a stream of requests
reads again are memoized."""

import gc

import pytest

from bpsinv import clear_caches
from bpsinv.cli import main
from bpsinv.exactq import qq
from bpsinv.blocks import (
    blowup_theta, eta_series, fibre_quotient, inverse_theta_hat, theta_hat,
)
from bpsinv.blowup import gieseker_to_mu, p2_series
from bpsinv.compute import p2_genfun, p2_table
from bpsinv.geometry import NEAR_PULLBACK, Polarization
from bpsinv.hn import suitable_genfun_closed, suitable_genfun_recursive
from bpsinv.memo import _MEMOS
from bpsinv.series import QSeries
from bpsinv.wallcross import _h1_squared, genfun_at_polarization

# on the 1/24 grid, and off it
CUTOFFS = (qq(3, 2), qq(7, 5), qq(2) + qq(1, 48))
J_GENERIC = Polarization.generic(13, 9)


def _stage_calls():
    """(stage, arguments before the cutoff, keywords after it)."""
    yield eta_series, (), {}
    for k in (1, 2, 3):
        yield theta_hat, (k,), {}
        yield inverse_theta_hat, (k,), {}
    for r in (1, 2, 3):
        for k in range(r):
            yield blowup_theta, (r, k), {}
    yield _h1_squared, (), {}
    for r in (1, 2, 3, 4):
        yield fibre_quotient, (r,), {}
        for alpha in range(r):
            yield suitable_genfun_recursive, (r, (0, alpha)), {}
            yield suitable_genfun_closed, (r, (0, alpha)), {}
    for ell in (0, 1, 2):
        for r, cls in ((1, (0, 0)), (2, (0, 0)), (2, (0, 1)), (2, (1, 0)),
                       (2, (1, 1)), (3, (0, 0)), (3, (1, 1)), (3, (1, 2))):
            for J in (J_GENERIC, NEAR_PULLBACK):
                yield genfun_at_polarization, (r, cls, ell, J), {}
    for r in (1, 2, 3):
        for x in range(r):
            yield gieseker_to_mu, (r, (x - 1, x)), {}
            for k in range(r):
                yield p2_series, (r, x), {"route_k": k}


def _memoized_stage_calls():
    return [(stage, args, kw) for stage, args, kw in _stage_calls()
            if stage in _MEMOS]


@pytest.mark.parametrize("c", CUTOFFS, ids=str)
def test_every_stage_returns_the_cutoff_it_was_asked_for(c):
    clear_caches()
    for stage, args, kw in _stage_calls():
        result = stage(*args, cutoff=c, **kw)
        assert isinstance(result, QSeries), (stage.__name__, args, kw)
        assert result.cutoff == c, (stage.__name__, args, kw)


@pytest.mark.parametrize("deep, shallow", [
    (qq(3), qq(2) + qq(1, 48)), (qq(5, 2), qq(7, 5)),
])
def test_shallower_memo_result_equals_a_cold_one(deep, shallow):
    calls = _memoized_stage_calls()
    assert {stage for stage, _, _ in calls} >= {
        eta_series, inverse_theta_hat, fibre_quotient, _h1_squared,
        suitable_genfun_recursive, suitable_genfun_closed,
        genfun_at_polarization, p2_series}
    clear_caches()
    for stage, args, kw in calls:
        stage(*args, cutoff=deep, **kw)
    served = []
    for stage, args, kw in calls:
        misses = stage.cache_info().misses
        served.append(stage(*args, cutoff=shallow, **kw))
        assert stage.cache_info().misses == misses, (stage.__name__, args)
    for (stage, args, kw), got in zip(calls, served):
        clear_caches()
        assert got == stage(*args, cutoff=shallow, **kw), \
            (stage.__name__, args, kw)


# the benchmark's session: plane and Sigma_0/Sigma_1 classes of rank 2-4, in
# the suitable chamber and at 13,9, with several q-orders per class
SESSION = [
    ("p2", 2, "0", None, 3), ("p2", 2, "0", None, 5),
    ("p2", 2, "1", None, 4), ("p2", 2, "1", None, 6),
    ("p2", 3, "1", None, 2), ("p2", 3, "1", None, 3),
    ("hirzebruch:0", 2, "0,1", "13,9", 3),
    ("hirzebruch:0", 2, "0,1", "13,9", 5),
    ("hirzebruch:1", 2, "0,1", "suitable", 4),
    ("hirzebruch:1", 2, "0,1", "suitable", 6),
    ("hirzebruch:1", 2, "1,1", "13,9", 4),
    ("hirzebruch:1", 3, "1,2", "13,9", 2),
    ("hirzebruch:1", 3, "1,2", "13,9", 3),
    ("hirzebruch:0", 3, "0,1", "suitable", 3),
    ("hirzebruch:0", 3, "0,1", "suitable", 4),
    ("hirzebruch:0", 4, "0,1", "suitable", 2),
]


def test_every_memo_a_request_stream_fills_serves_a_hit(monkeypatch, capsys):
    # a memo whose entries no later read finds only costs its table
    monkeypatch.delenv("BPSINV_CACHE_DIR", raising=False)
    clear_caches()
    for surface, r, c1, J, qorders in SESSION:
        argv = ["compute", "--surface", surface, "--rank", str(r),
                "--c1", c1, "--qorders", str(qorders), "--format", "json"]
        if J is not None:
            argv += ["--polarization", J]
        assert main(argv) == 0, argv
    capsys.readouterr()
    infos = {"%s.%s" % (m.__module__, m.__qualname__): m.cache_info()
             for m in _MEMOS}
    assert any(info.misses for info in infos.values())
    assert not [name for name, info in infos.items()
                if info.misses and not info.hits]


def test_keyword_and_positional_spellings_share_an_entry():
    clear_caches()
    c = qq(2)
    first = genfun_at_polarization(2, (1, 1), 1, J_GENERIC, c)
    misses = genfun_at_polarization.cache_info().misses
    again = genfun_at_polarization(r=2, c1=(1, 1), ell=1, J=J_GENERIC,
                                   cutoff=c)
    assert again is first
    assert genfun_at_polarization.cache_info().misses == misses


@pytest.mark.parametrize("stage, args, kwargs", [
    (genfun_at_polarization, (2, (1, 1), 1, J_GENERIC),
     {"cutoff": qq(2), "chamber": 0}),
    (genfun_at_polarization, (2, (1, 1), 1), {"cutoff": qq(2)}),
    (genfun_at_polarization, (2, (1, 1), 1, J_GENERIC, qq(2)), {"r": 2}),
    (genfun_at_polarization, (2, (1, 1), 1, J_GENERIC, qq(2), 0), {}),
    (p2_series, (2, 0), {"route_k": 1}),
    (p2_series, (2, 0, qq(2), 1), {"route_k": 1}),
], ids=["unknown keyword", "missing argument", "given twice",
        "extra positional", "missing cutoff", "default given twice"])
def test_a_call_the_signature_rejects_raises_cold_and_warm(stage, args,
                                                           kwargs):
    # the memo binds each call as the stage itself would, before its table
    # is read: an entry for the valid prefix of the call serves no hit
    clear_caches()
    with pytest.raises(TypeError):
        stage(*args, **kwargs)
    assert stage.cache_info().misses == 0
    valid = (2, (1, 1), 1, J_GENERIC, qq(2)) if stage is \
        genfun_at_polarization else (2, 0, qq(2), 1)
    filled = stage(*valid)
    misses = stage.cache_info().misses
    with pytest.raises(TypeError):
        stage(*args, **kwargs)
    assert stage(*valid) is filled
    assert stage.cache_info().misses == misses


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
