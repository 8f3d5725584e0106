import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

import bpsinv
import bpsinv.cli as cli
from bpsinv.cli import MAX_QORDERS, main
from bpsinv.exactq import QQ, qq
from bpsinv.geometry import (
    NEAR_PULLBACK, SUITABLE, GeometryError, Polarization, Surface,
)
from bpsinv.blowup import p2_series
from bpsinv.hn import suitable_genfun_closed, suitable_genfun_recursive
from bpsinv.invariants import InvariantError
from bpsinv.serialize import dumps, polarization_to_obj, qseries_to_obj
from bpsinv.series import QSeries, VPoly, WRat
from bpsinv.wallcross import genfun_at_polarization

from oracles import qseries_from_obj, ref_qseries_to_obj


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_p2_rank1_json(capsys):
    code, out, _ = run_cli(
        ["compute", "--surface", "p2", "--rank", "1", "--c1", "0",
         "--qorders", "3", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    rows = {r["c2"]: r for r in obj["table"]["rows"]}
    assert rows[1]["euler"] == 3
    assert obj["genfun"]["series"]["terms"][0][0] == "-1/8"


def test_compute_hirzebruch_rank1_text(capsys):
    code, out, _ = run_cli(
        ["compute", "--surface", "hirzebruch:1", "--rank", "1", "--c1",
         "0,0", "--qorders", "2"], capsys)
    assert code == 0
    assert "euler" in out


def test_compute_rank2_wallcrossed_csv(capsys):
    code, out, _ = run_cli(
        ["compute", "--surface", "hirzebruch:0", "--rank", "2", "--c1",
         "0,1", "--polarization", "13,9", "--qorders", "2",
         "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0].startswith("c2,delta,dim,euler")


def test_invalid_inputs_exit_2(capsys):
    assert run_cli(["compute", "--surface", "p3", "--rank", "1",
                    "--c1", "0"], capsys)[0] == 2
    assert run_cli(["compute", "--surface", "p2", "--rank", "1",
                    "--c1", "0,0"], capsys)[0] == 2
    assert run_cli(["compute", "--surface", "p2", "--rank", "9",
                    "--c1", "0"], capsys)[0] == 2
    assert run_cli(["compute", "--surface", "hirzebruch:1", "--rank", "2",
                    "--c1", "0,0", "--polarization", "0,1"], capsys)[0] == 2
    # parts too large to print, or to parse in reasonable time
    for pol in ("1,1e5000", "1e-5000,1", "1,1e400000"):
        assert run_cli(["compute", "--surface", "hirzebruch:1", "--rank", "2",
                        "--c1", "0,1", "--polarization", pol],
                       capsys)[0] == 2, pol


def test_check_core_suite(capsys):
    code, out, _ = run_cli(["check", "--suite", "core", "--format", "json"],
                           capsys)
    assert code == 0
    assert json.loads(out)["results"][0]["ok"] is True


def test_cache_warm_is_bit_identical(tmp_path, capsys):
    args = ["compute", "--surface", "p2", "--rank", "1", "--c1", "0",
            "--qorders", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("corrupt", [
    lambda blob: blob[:len(blob) // 2],
    lambda blob: '{"version": 1}',
    lambda blob: "[1, 2]",
], ids=["truncated", "no_value", "not_an_object"])
def test_corrupt_cache_entry_is_recomputed(tmp_path, capsys, corrupt):
    args = ["compute", "--surface", "p2", "--rank", "1", "--c1", "0",
            "--qorders", "2", "--format", "json",
            "--cache-dir", str(tmp_path)]
    code1, out1, _ = run_cli(args, capsys)
    (entry,) = tmp_path.glob("*.json")
    blob = entry.read_text()
    entry.write_text(corrupt(blob))
    code2, out2, err2 = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out2 == out1
    assert err2 == ""
    assert entry.read_text() == blob


def test_forged_or_misfiled_cache_entry_is_recomputed(tmp_path, capsys):
    def args(rank):
        return ["compute", "--surface", "p2", "--rank", str(rank), "--c1",
                "0", "--qorders", "2", "--format", "json",
                "--cache-dir", str(tmp_path)]

    cold = [run_cli(args(rank), capsys)[1] for rank in (1, 2)]
    entries = sorted(tmp_path.glob("*.json"), key=lambda p: p.stat().st_mtime)
    blobs = [entry.read_text() for entry in entries]
    # an Euler number edited in place, under the entry's old digest
    head, body = blobs[0].split("\n", 1)
    obj = json.loads(body)
    obj["value"]["table"]["rows"][-1]["euler"] = 999
    entries[0].write_text(head + "\n" + dumps(obj))
    assert run_cli(args(1), capsys)[1] == cold[0]
    assert entries[0].read_text() == blobs[0]
    # a valid entry filed under another request's key
    entries[1].write_text(blobs[0])
    assert run_cli(args(2), capsys)[1] == cold[1]
    assert entries[1].read_text() == blobs[1]


def test_earlier_layout_cache_entry_is_recomputed(tmp_path, capsys):
    # an entry as the earlier layout wrote it: a header that checks, over a
    # body whose envelope puts "value" first; its edited Euler number would
    # show if the entry were served
    args = ["compute", "--surface", "p2", "--rank", "1", "--c1", "0",
            "--qorders", "2", "--format", "json", "--cache-dir", str(tmp_path)]
    cold = run_cli(args, capsys)[1]
    (entry,) = tmp_path.glob("*.json")
    blob = entry.read_text()
    head = json.loads(blob.split("\n", 1)[0])
    value = json.loads(cold)
    value["table"]["rows"][-1]["euler"] = 999
    body = dumps({"version": head["version"], "value": value})
    head["sha256"] = hashlib.sha256(body.encode()).hexdigest()
    entry.write_text(json.dumps(head) + "\n" + body)
    assert run_cli(args, capsys)[1] == cold
    assert entry.read_text() == blob
    for fmt in ("csv", "text"):
        warm = run_cli(args[:-3] + [fmt] + args[-2:], capsys)
        assert warm[0] == 0 and "999" not in warm[1]


@pytest.mark.parametrize("failure", ["entry_is_a_directory", "disk_full"])
def test_failed_cache_write_still_prints_the_result(tmp_path, capsys,
                                                    monkeypatch, failure):
    args = ["compute", "--surface", "p2", "--rank", "2", "--c1", "0",
            "--qorders", "3", "--format", "json"]
    expect = run_cli(args, capsys)
    (tmp_path / "probe").mkdir()
    run_cli(args + ["--cache-dir", str(tmp_path / "probe")], capsys)
    (entry,) = (tmp_path / "probe").glob("*.json")
    cache_dir = tmp_path / "cache"
    if failure == "entry_is_a_directory":
        (cache_dir / entry.name).mkdir(parents=True)
    else:
        cache_dir.mkdir()

        def no_space(*args, **kwargs):
            raise OSError(28, "No space left on device")
        monkeypatch.setattr("bpsinv.cache.tempfile.mkstemp", no_space)
    got = run_cli(args + ["--cache-dir", str(cache_dir)], capsys)
    assert got == (0, expect[1], "")
    assert not list(cache_dir.glob("*.tmp"))


def _counting_run_compute(monkeypatch):
    """The list of _run_compute calls made from here on."""
    computed = []
    run_compute = cli._run_compute

    def counting(*args):
        computed.append(args)
        return run_compute(*args)

    monkeypatch.setattr(cli, "_run_compute", counting)
    return computed


@pytest.mark.parametrize("spoil", ["crlf_header", "non_utf8_body"])
def test_crlf_or_non_utf8_cache_entry_is_recomputed(tmp_path, capsys,
                                                    monkeypatch, spoil):
    # an entry is read in binary and decoded as UTF-8 once: a header line
    # ending in \r\n (which text mode read as \n) and a body that is not
    # UTF-8, under the digest of its own bytes, are misses
    args = ["compute", "--surface", "p2", "--rank", "1", "--c1", "0",
            "--qorders", "2", "--format", "json", "--cache-dir", str(tmp_path)]
    cold = run_cli(args, capsys)
    (entry,) = tmp_path.glob("*.json")
    blob = entry.read_bytes()
    head, body = blob.split(b"\n", 1)
    if spoil == "crlf_header":
        entry.write_bytes(head + b"\r\n" + body)
    else:
        body = body.replace(b'"surface":"p2"', b'"surface":"p\xe92"')
        head = json.loads(head)
        head["sha256"] = hashlib.sha256(body).hexdigest()
        entry.write_bytes(json.dumps(head).encode() + b"\n" + body)
    computed = _counting_run_compute(monkeypatch)
    assert run_cli(args, capsys) == cold
    assert len(computed) == 1
    assert entry.read_bytes() == blob


def test_a_hit_makes_no_directory_call(tmp_path, capsys, monkeypatch):
    args = ["compute", "--surface", "hirzebruch:1", "--rank", "2", "--c1",
            "1,1", "--polarization", "13,9", "--qorders", "2", "--format",
            "json", "--cache-dir", str(tmp_path)]
    cold = run_cli(args, capsys)

    def no_directory_call(*args, **kwargs):
        raise AssertionError("a hit made a directory call")

    with monkeypatch.context() as m:
        m.setattr(os.path, "isdir", no_directory_call)
        m.setattr(os, "makedirs", no_directory_call)
        m.setattr(cli, "_run_compute",
                  lambda *args: pytest.fail("a hit was recomputed"))
        warm = run_cli(args, capsys)
    assert warm == cold


def test_a_miss_creates_a_missing_cache_directory(tmp_path, capsys,
                                                  monkeypatch):
    monkeypatch.delenv("BPSINV_CACHE_DIR", raising=False)
    args = ["compute", "--surface", "p2", "--rank", "1", "--c1", "0",
            "--qorders", "2", "--format", "json"]
    cold = run_cli(args, capsys)
    for given in ("option", "environment"):
        cache_dir = tmp_path / given / "nested"
        if given == "option":
            got = run_cli(args + ["--cache-dir", str(cache_dir)], capsys)
        else:
            monkeypatch.setenv("BPSINV_CACHE_DIR", str(cache_dir))
            got = run_cli(args, capsys)
        assert got == cold
        assert len(list(cache_dir.glob("*.json"))) == 1
    computed = _counting_run_compute(monkeypatch)
    assert run_cli(args, capsys) == cold
    assert computed == []


@pytest.mark.parametrize("polarization", ["suitable", "13,9"])
def test_equivalent_c1_reuse_memo_entries(monkeypatch, capsys, polarization):
    # c1 matters mod r only: 2,0 and 0,2 are the class 0,0 at rank 2
    monkeypatch.delenv("BPSINV_CACHE_DIR", raising=False)
    memos = (suitable_genfun_closed, genfun_at_polarization)
    outs, misses = [], []
    for c1 in ("0,0", "2,0", "0,2"):
        code, out, _ = run_cli(
            ["compute", "--surface", "hirzebruch:1", "--rank", "2",
             "--c1", c1, "--polarization", polarization, "--qorders", "3",
             "--format", "json"], capsys)
        assert code == 0
        outs.append(out)
        misses.append([m.cache_info().misses for m in memos])
    assert outs[0] == outs[1] == outs[2]
    assert misses[0] == misses[1] == misses[2]


@pytest.mark.parametrize("r, x", [(2, 1), (3, 1), (3, 0)])
def test_plane_c1_is_reduced_before_the_stage_memo(monkeypatch, capsys, r, x):
    # x and x + r are one class: the second request, a result-cache miss as
    # its key holds --c1 as given, is served from the stage memo
    monkeypatch.delenv("BPSINV_CACHE_DIR", raising=False)
    outs, misses = [], []
    for c1 in (x, x + r):
        code, out, _ = run_cli(
            ["compute", "--surface", "p2", "--rank", str(r), "--c1", str(c1),
             "--qorders", "3", "--format", "json"], capsys)
        assert code == 0
        outs.append(out)
        misses.append(p2_series.cache_info().misses)
    assert outs[0] == outs[1]
    assert misses[0] == misses[1]


def test_compute_requests_never_run_the_hn_subtraction(monkeypatch, capsys):
    # the solved recursion serves the suitable chamber and every wall-crossing
    # base; the subtraction is its independent check and nothing else
    monkeypatch.delenv("BPSINV_CACHE_DIR", raising=False)
    bpsinv.clear_caches()
    for surface, r, c1, J in (("hirzebruch:1", 4, "0,1", "suitable"),
                              ("hirzebruch:0", 3, "0,1", "suitable"),
                              ("hirzebruch:1", 3, "1,2", "13,9"),
                              ("p2", 3, "0", None)):
        argv = ["compute", "--surface", surface, "--rank", str(r),
                "--c1", c1, "--qorders", "3", "--format", "json"]
        if J is not None:
            argv += ["--polarization", J]
        assert run_cli(argv, capsys)[0] == 0
    assert suitable_genfun_closed.cache_info().misses > 0
    assert suitable_genfun_recursive.cache_info().misses == 0
    assert suitable_genfun_recursive.cache_info().hits == 0


# sha256 of the json stdout of each suitable-chamber request on Sigma_0..2 at
# --qorders 6, (ell, rank, --c1), recorded while the HN stages still tagged
# their own results: the tag built at the edge serializes as before
SUITABLE_JSON_SHA256 = {
    (0, 2, "0,1"): "fe08d8ba78ed62d6198f0156b276c1ca5d338136de40962c85e5a48899dfa029",
    (0, 2, "2,4"): "c5a2b17fe8573f9077c9dbe42817503f3a0f02ea767ce6097654a33314f89041",
    (0, 3, "0,1"): "0e52b219f43540e6df9ebc8f7353df45dfc4368d2aed5000469a7dbf22220ac8",
    (0, 3, "3,6"): "08702da2c163c7faae645fbb7ef6e01ff51f8642736d7856b030e51090440959",
    (0, 4, "0,1"): "721c9ca437f2403a4db5dc136617f46eba832398e3c7c74d60adc42aa8756fab",
    (0, 4, "4,8"): "bf1929ef5e7ca0442b3922845bcb151d9c440a01be49168bf6e0f6951b5f6694",
    (1, 2, "0,1"): "0fe4bf5b59c6483c9e688699dd4ef69610c3245736fd26d46e4e1ff5f010456a",
    (1, 2, "2,4"): "558ce7a012230d5bada68a70ae5247a1c68e6124ae79faed51ed87c7489c0873",
    (1, 3, "0,1"): "669fdb428bbbfcd07053027e7eb63c25b7e3c277ef717b2e9d9ac99dea17c197",
    (1, 3, "3,6"): "3dbf31d12851533dac568f8519695154d6be7fb7603bbfec47c90c5aad32a124",
    (1, 4, "0,1"): "0c417fa7f84b94b853fac8451214556a82bdd1ac4b7028254f85674d91e1e126",
    (1, 4, "4,8"): "9bdf9cdd530d26824df0a1af9c41e12cffb1cc571b3216cfcd957d32f82a2c68",
    (2, 2, "0,1"): "a24468c0d59b3fe6bb6caa7cdd08c0e327a8ebfb11a03ded085e4fbed91037b9",
    (2, 2, "2,4"): "3a701aed0e0893ab42d8eb6053347728af99832c53fd05f46d2b79e04f2362c6",
    (2, 3, "0,1"): "e0585bdf1e6cf0b6f5dcf644cf8c3696bae388128e5ca5e02b8130516629a0da",
    (2, 3, "3,6"): "4da27ee1689b1520c7e6813b9f3983e421e6219770e66113d255e4a8a30d46cd",
    (2, 4, "0,1"): "0ae0206df1665df6b5806ec42ffe2ed87701aefe40b57aca23c5f73c1694e0ae",
    (2, 4, "4,8"): "174645f859536d100cd521b7b9d0467a3be319cc5f66181698807828762b3239",
}


def test_suitable_json_bytes_are_pinned_on_every_sigma(monkeypatch, capsys):
    monkeypatch.delenv("BPSINV_CACHE_DIR", raising=False)
    for (ell, r, c1), digest in SUITABLE_JSON_SHA256.items():
        code, out, _ = run_cli(
            ["compute", "--surface", "hirzebruch:%d" % ell, "--rank", str(r),
             "--c1", c1, "--polarization", "suitable", "--qorders", "6",
             "--format", "json"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, \
            (ell, r, c1)


def test_verification_failure_exits_1(monkeypatch, capsys):
    def fail(omega):
        raise InvariantError("non-integral BPS invariant")

    monkeypatch.setattr("bpsinv.cli.extract_table", fail)
    code, out, err = run_cli(
        ["compute", "--surface", "p2", "--rank", "1", "--c1", "0",
         "--qorders", "2", "--format", "json"], capsys)
    assert code == 1
    assert out == ""
    assert json.loads(err) == {"error": "non-integral BPS invariant"}


@st.composite
def rand_series(draw):
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        e = qq(draw(st.integers(-8, 12)), draw(st.sampled_from([1, 3, 8, 24])))
        num = VPoly({draw(st.integers(-4, 4)): draw(st.integers(-5, 5))})
        den = VPoly({0: 1, draw(st.integers(1, 3)): draw(st.integers(0, 2))})
        terms[e] = WRat(num, den)
    cut = draw(st.one_of(st.none(), st.integers(13, 20)))
    return QSeries(terms, None if cut is None else qq(cut))


@settings(max_examples=150, deadline=None)
@given(rand_series())
def test_serialization_round_trip(s):
    obj = qseries_to_obj(s)
    # printed from the integer parts as the Fraction views print
    assert dumps(obj) == dumps(ref_qseries_to_obj(s))
    back = qseries_from_obj(json.loads(json.dumps(obj)))
    assert back == s
    assert dumps(qseries_to_obj(back)) == dumps(obj)


@pytest.mark.parametrize("suite", ["table1", "routes"])
def test_check_runs_the_real_suite(capsys, suite):
    # the suites themselves, not stubs: the paper's table and every route
    # agreement the CLI's check runs
    try:
        code, out, _ = run_cli(["check", "--suite", suite, "--format",
                                "json"], capsys)
    finally:
        bpsinv.clear_caches()
    (result,) = json.loads(out)["results"]
    assert code == 0
    assert result["name"] == suite and result["ok"] is True
    assert "error" not in result


def test_check_reports_what_raised(monkeypatch, capsys):
    def boom():
        raise RuntimeError("suite exploded")

    monkeypatch.setattr("bpsinv.cli.SUITES", {"core": boom})
    code, out, _ = run_cli(["check", "--suite", "core", "--format", "json"],
                           capsys)
    assert code == 1
    obj = json.loads(out)
    seconds = obj["results"][0].pop("seconds")
    assert 0 <= seconds < 1
    assert obj == {"backend": QQ.__name__, "results": [
        {"name": "core", "ok": False,
         "error": "RuntimeError: suite exploded"}]}
    code, out, _ = run_cli(["check", "--suite", "core"], capsys)
    assert code == 1
    assert re.fullmatch(
        r"FAIL core \(\d+\.\d\d s, RuntimeError: suite exploded\)\n", out)


def test_check_reports_seconds_and_backend(monkeypatch, capsys):
    def nap():
        time.sleep(0.05)
        return True

    monkeypatch.setattr("bpsinv.cli.SUITES", {"core": nap, "routes": nap})
    code, out, _ = run_cli(["check", "--format", "json"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["backend"] == QQ.__name__ == "Fraction"
    assert [r["name"] for r in obj["results"]] == ["core", "routes"]
    for r in obj["results"]:
        assert r["ok"] is True
        assert 0.05 <= r["seconds"] < 5
    code, out, _ = run_cli(["check", "--suite", "routes"], capsys)
    assert code == 0
    assert re.fullmatch(r"PASS routes \(\d+\.\d\d s\)\n", out)


def test_polarization_spellings_share_a_cache_entry(tmp_path, monkeypatch,
                                                    capsys):
    import bpsinv.cli as cli

    computed = []
    run_compute = cli._run_compute

    def counting(*args):
        computed.append(args)
        return run_compute(*args)

    monkeypatch.setattr(cli, "_run_compute", counting)

    def send(surface, c1, *polarization):
        code, out, _ = run_cli(
            ["compute", "--surface", surface, "--rank", "2", "--c1", c1,
             "--qorders", "2", "--format", "json",
             "--cache-dir", str(tmp_path)] + list(polarization), capsys)
        assert code == 0
        return out

    # one J spelled three ways: one computation, byte-identical output
    outs = [send("hirzebruch:0", "0,1", "--polarization", p)
            for p in ("13,9", "13, 9", "26/2,9")]
    assert outs[0] == outs[1] == outs[2]
    assert len(computed) == 1
    # a proportional J serializes other m, n, so it keeps its own entry
    other = send("hirzebruch:0", "0,1", "--polarization", "26,18")
    assert len(computed) == 2
    assert json.loads(other)["genfun"]["polarization"] != \
        json.loads(outs[0])["genfun"]["polarization"]
    # the plane has no polarization: the option does not split the entry
    plane = send("p2", "1")
    assert send("p2", "1", "--polarization", "13,9") == plane
    assert len(computed) == 3
    assert len(list(tmp_path.glob("*.json"))) == 3


def test_polarization_encoding_and_cache_key_are_pinned(tmp_path, capsys):
    # stored entries stay hits only while these bytes and this key hold
    objs = [dumps(polarization_to_obj(J)) for J in (
        SUITABLE, NEAR_PULLBACK, Polarization(1, 0),
        Polarization.generic(13, 9), Polarization.generic("26/2", 9))]
    assert objs == ['"suitable"', '{"m":["1","0"],"n":["0","1"]}',
                    '{"m":["1","0"],"n":["0","0"]}',
                    '{"m":["13","0"],"n":["9","0"]}',
                    '{"m":["13","0"],"n":["9","0"]}']
    code, _, _ = run_cli(
        ["compute", "--surface", "hirzebruch:1", "--rank", "2", "--c1", "1,1",
         "--polarization", "13,9", "--qorders", "2",
         "--cache-dir", str(tmp_path)], capsys)
    assert code == 0
    assert [p.name for p in tmp_path.glob("*.json")] == [
        "596b458880fced84d1e6af1ead58b8d3af8bdbf897138b30171f74bf60f089c7"
        ".json"]


@pytest.mark.parametrize("part", [
    "13", "013", " 9", "+13", "1_3", "\u0661\u0663", "\u00b2", "26/2", "13.0",
    "1e1", "0", "1/0"])
def test_polarization_parts_read_as_qq_reads_them(part):
    # a part of ASCII digits alone is read by int, any other by qq: each
    # gives the J of qq's values, or an InputError where qq or J raises
    surface = Surface.hirzebruch(1)
    for text in (part + ",9", "9," + part):
        try:
            want = Polarization.generic(*map(qq, text.split(",")))
        except (ValueError, GeometryError, ZeroDivisionError):
            with pytest.raises(cli.InputError, match="invalid polarization"):
                cli._parse_polarization(text, surface)
        else:
            got = cli._parse_polarization(text, surface)
            assert got == want
            assert dumps(polarization_to_obj(got)) == \
                dumps(polarization_to_obj(want))


def test_parser_errors_are_json_with_exit_2(capsys, tmp_path, monkeypatch):
    # argparse reads "-2,2" after --c1 as an option; --c1=-2,2 is the spelling
    a_file = tmp_path / "file"
    a_file.write_text("")
    unusable = [str(a_file), "/dev/null/cache"]
    valid = ["--c1", "0,0", "--qorders", "1"]
    inputs = [["--c1", "-2,2"], ["--c1", "0,0", "--rank", "x"],
              ["--c1", "0,0", "--qorders", str(MAX_QORDERS + 1)]]
    inputs += [valid + ["--cache-dir", path] for path in unusable]
    inputs += [valid + [("BPSINV_CACHE_DIR", path)] for path in unusable]
    for args in inputs:
        monkeypatch.delenv("BPSINV_CACHE_DIR", raising=False)
        if isinstance(args[-1], tuple):
            monkeypatch.setenv(*args.pop())
        code, out, err = run_cli(
            ["compute", "--surface", "hirzebruch:1", "--rank", "2"] + args,
            capsys)
        assert code == 2 and out == "", args
        assert "error" in json.loads(err)
    monkeypatch.delenv("BPSINV_CACHE_DIR")
    code, _, _ = run_cli(["compute", "--surface", "hirzebruch:1", "--rank",
                          "2", "--c1=-2,2", "--qorders", "1"], capsys)
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["compute", "--surface=--", "--rank", "2", "--c1", "0"],
    ["compute", "--surface", "p2", "--rank", "2", "--c1=--"],
    ["compute", "--surface", "p2", "--rank=--", "--c1", "0"],
    ["check", "--suite", "core", "--format=--"],
], ids=" ".join)
def test_an_option_given_as_equals_dashes_is_an_error(capsys, argv):
    # argparse of Python 3.10-3.12 gives such an option [] and no error;
    # _read_line declines the line, so only the parser sees it
    assert cli._read_line(argv) is None
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert "error" in json.loads(line)


def test_parser_is_built_once_and_reused(capsys):
    # well-formed lines are read without argparse; the first line that
    # _read_line declines builds the parser, and later ones reuse it
    cli._parser.cache_clear()
    argv = ["compute", "--surface", "p2", "--rank", "1", "--c1", "0",
            "--qorders", "1", "--format", "json"]
    outs = [run_cli(argv, capsys) for _ in range(5)]
    assert all(out == outs[0] for out in outs) and outs[0][0] == 0
    assert cli._parser.cache_info().misses == 0
    assert run_cli(["compute", "--surf", "p2"] + argv[3:], capsys) == outs[0]
    assert run_cli(argv + ["extra"], capsys)[0] == 2
    info = cli._parser.cache_info()
    assert info.misses == 1 and info.hits == 1


def test_commands_rebound_after_the_first_call_are_the_ones_run(monkeypatch,
                                                                 capsys):
    run_cli(["compute", "--surface", "p2", "--rank", "1", "--c1", "0",
             "--qorders", "1"], capsys)
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args) or 7)
    monkeypatch.setattr(cli, "cmd_compute", lambda args: seen.append(args) or 8)
    assert run_cli(["check", "--suite", "core"], capsys)[0] == 7
    assert run_cli(["compute", "--surface", "p2", "--rank", "1", "--c1", "0"],
                   capsys)[0] == 8
    assert [(a.command, getattr(a, "suite", None)) for a in seen] == [
        ("check", "core"), ("compute", None)]


def test_parses_carry_no_state_between_sends(capsys, tmp_path, monkeypatch):
    # every bad input of the parser-error test in this process, then a
    # valid request: its bytes must be those of a fresh process
    test_parser_errors_are_json_with_exit_2(capsys, tmp_path, monkeypatch)
    argv = ["compute", "--surface", "hirzebruch:1", "--rank", "2",
            "--c1", "0,1", "--qorders", "2", "--format", "json"]
    code, out, _ = run_cli(argv, capsys)
    src = os.path.dirname(os.path.dirname(os.path.abspath(bpsinv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    fresh = subprocess.run([sys.executable, "-m", "bpsinv.cli"] + argv,
                           capture_output=True, env=env, timeout=120)
    assert (code, out.encode()) == (fresh.returncode, fresh.stdout)
    assert code == 0


@st.composite
def cli_requests(draw):
    surface = draw(st.sampled_from(
        ["p2"] + ["hirzebruch:%d" % ell for ell in range(4)]))
    c1 = ",".join(str(draw(st.integers(-3, 3)))
                  for _ in range(1 if surface == "p2" else 2))
    argv = ["compute", "--surface", surface,
            "--rank", str(draw(st.integers(1, 5))),
            "--qorders", str(draw(st.integers(1, 2)))]
    argv += draw(st.sampled_from([["--c1", c1], ["--c1=" + c1]]))
    m = draw(st.integers(-2, 30))
    n = draw(st.one_of(st.integers(-2, 30).map(str),
                       st.tuples(st.integers(-5, 40), st.integers(1, 7)).map(
                           lambda t: "%d/%d" % t)))
    polarization = draw(st.sampled_from(
        [None, "suitable", "%d,%s" % (m, n)]))
    if polarization is not None:
        argv += draw(st.sampled_from([["--polarization", polarization],
                                      ["--polarization=" + polarization]]))
    return argv + ["--format", draw(st.sampled_from(["json", "csv", "text"]))]


@settings(max_examples=120, deadline=None)
@given(cli_requests())
def test_every_cli_input_ends_in_a_known_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as cache_dir:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--cache-dir", cache_dir])
    assert code in (0, 1, 2), argv
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code:
        assert isinstance(json.loads(err.getvalue()), dict), argv


# the argv of the parser parity test: help, usage and every kind of parser
# error, besides valid requests
PARITY_ARGV = [
    ["--help"], ["-h"], ["compute", "--help"], ["check", "-h"], [], ["bogus"],
    ["compute"], ["check"],
    ["compute", "--surface", "p2", "--c1", "0"],
    ["compute", "--surf", "p2", "--rank", "3", "--c1", "0"],
    ["compute", "--surface", "p2", "--rank", "3", "--c1", "0", "extra"],
    ["check", "--suite", "nope"],
    ["compute", "--surface", "hirzebruch:1", "--rank", "2", "--c1=-2,2"],
    ["compute", "--surface", "hirzebruch:1", "--rank", "2", "--c1", "-2,2"],
    ["compute", "--surface", "p2", "--rank", "x", "--c1", "0"],
    ["compute", "--surface", "p2", "--rank", "1", "--c1", "0",
     "--format", "xml"],
    ["compute", "--surface", "p2", "--surface", "hirzebruch:1", "--rank", "2",
     "--c1", "0,1", "--qorders", "1", "--qorders", "3"],
    ["compute", "--surface", "hirzebruch:1", "--rank", "2", "--c1", "0,1",
     "--polarization", "13,9", "--format", "csv", "--cache-dir", "d"],
    ["check", "--format", "json", "--suite", "core"],
]


@pytest.mark.parametrize("argv", PARITY_ARGV, ids=" ".join)
def test_main_parses_as_the_top_parser_does(monkeypatch, capsys, argv):
    # main reads a well-formed line itself and hands any other to the top
    # parser; the top parser alone is the reference
    seen = []
    monkeypatch.setattr(cli, "cmd_compute", lambda args: seen.append(args) or 0)
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args) or 0)

    def nested(argv):
        try:
            args = cli._parser().parse_args(argv)
            return (cli.cmd_compute if args.command == "compute"
                    else cli.cmd_check)(args)
        except cli.InputError as exc:
            print(json.dumps({"error": str(exc)}), file=sys.stderr)
            return 2

    results = []
    for route in (main, nested):
        try:
            code = route(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        out = capsys.readouterr()
        results.append((code, out.out, out.err, [vars(a) for a in seen]))
        seen.clear()
    assert results[0] == results[1]


PARSER_BYTES = os.path.join(os.path.dirname(__file__), "parser_bytes.json")


def test_help_and_parser_outputs_are_pinned(monkeypatch, capsys):
    # recorded from the parser declared option by option, before it was
    # built from cli._COMMANDS, at 80 columns; a command prints its sorted
    # arguments here, so each entry pins the namespace as well
    with open(PARSER_BYTES, encoding="utf-8") as f:
        pinned = json.load(f)
    monkeypatch.setenv("COLUMNS", "80")
    for name in ("cmd_compute", "cmd_check"):
        monkeypatch.setattr(cli, name, lambda args: print(
            json.dumps(vars(args), sort_keys=True)) or 0)

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = "SystemExit %s" % exc.code
        out = capsys.readouterr()
        return {"argv": argv, "code": code, "out": out.out, "err": out.err}

    for name in ("bpsinv", "compute", "check"):
        argv = ["--help"] if name == "bpsinv" else [name, "--help"]
        assert run(argv)["out"] == pinned["help"][name]
    assert [entry["argv"] for entry in pinned["parity"]] == PARITY_ARGV
    for entry in pinned["parity"]:
        got = run(entry["argv"])
        got["err"] = _bare_choices(got["err"])
        assert got == dict(entry, err=_bare_choices(entry["err"]))


def _bare_choices(text):
    """text with the quotes dropped from the choices of an invalid-choice
    error: argparse quotes them, ('compute', 'check'), in the releases the
    bytes were recorded on and prints them bare in later patch releases
    (3.12.10, 3.13.13)."""
    return re.sub(r"\(choose from [^)]*\)",
                  lambda m: m.group(0).replace("'", ""), text)


def _top_parse(argv):
    """vars of the top parser's namespace for argv, or None where it exits
    or raises; what it prints is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except (cli.InputError, SystemExit):
            return None


# values of each real option that the parser accepts, then values that it
# rejects or that _read_line leaves to it
LINE_VALUES = {
    "--surface": ["p2", "hirzebruch:1"], "--rank": ["2", " 3", "-3"],
    "--c1": ["0", "0,1", "-2,2"], "--polarization": ["13,9", "suitable"],
    "--qorders": ["4", "1_0"], "--format": ["json", "csv", "text"],
    "--cache-dir": ["d", "=d"], "--suite": ["core", "all"],
}
ODD_VALUES = ["", "x", "xml", "-2,2", "--", "-h", "--rank", "nope"]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    pairs = []
    for flag, _, _, _, required, _ in cli._COMMANDS[command][1]:
        if required or draw(st.booleans()):
            pairs.append([flag, draw(st.sampled_from(LINE_VALUES.get(
                flag, ["json", "text"]))), draw(st.booleans())])
    pairs = draw(st.permutations(pairs))
    for edit in draw(st.lists(st.integers(0, 5), max_size=2)):
        if not pairs:
            break
        pair = pairs[draw(st.integers(0, len(pairs) - 1))]
        if edit == 0:  # an abbreviation, or a flag of no option
            pair[0] = draw(st.sampled_from(
                [pair[0][:-1], pair[0][:3], pair[0] + "x", "--s", "--c"]))
        elif edit == 1:
            pair[1] = draw(st.sampled_from(ODD_VALUES))
        elif edit == 2:  # a repeated option
            pairs.append(list(pair))
        elif edit == 3:  # a missing option
            pairs.remove(pair)
        else:
            pairs.append(draw(st.sampled_from(
                [["--", None, False], ["-h", None, False],
                 ["extra", None, False], [pair[0], None, False]])))
    argv = [command]
    for flag, value, joined in pairs:
        argv += ([flag] if value is None else [flag + "=" + value] if joined
                 else [flag, value])
    return argv


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_read_line_gives_the_parsers_namespace_or_none(argv):
    read = cli._read_line(argv)
    assert read is None or vars(read) == _top_parse(argv), argv


def _request_lines():
    """The argv of every benchmark request and README command line."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "workloads", os.path.join(root, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lines = [argv for w in workloads.WORKLOADS.values()
             for argv in w["requests"]]
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("bpsinv "):
                lines.append(shlex.split(line, comments=True)[1:])
    return lines


def test_request_lines_are_read_without_the_parser(monkeypatch):
    lines = _request_lines()
    assert len(lines) > 20 and any(argv[0] == "check" for argv in lines)
    monkeypatch.setattr(cli, "cmd_compute", lambda args: 0)
    monkeypatch.setattr(cli, "cmd_check", lambda args: 0)
    cli._parser.cache_clear()
    for argv in lines:
        assert main(argv) == 0
    assert cli._parser.cache_info().misses == 0, "a request built the parser"
    for argv in lines:
        assert vars(cli._read_line(argv)) == _top_parse(argv), argv


def test_cache_reads_entries_of_the_json_dumps_header(tmp_path, monkeypatch,
                                                      capsys):
    # the header line is the json.dumps text of a dict; entries written that
    # way are hits, served as they are and never rewritten
    from bpsinv.cache import ResultCache
    from bpsinv.serialize import FORMAT_VERSION

    def header(key, body):
        return json.dumps({"version": FORMAT_VERSION, "key": key,
                           "sha256": hashlib.sha256(body.encode()).hexdigest()})

    keys = [ResultCache.key_of("compute", {"rank": r}) for r in range(3)]
    for key, body in zip(keys + ["0" * 64], ["", "{}", "x\ny", "é"]):
        assert ResultCache._header(key, body) == header(key, body)
    args = ["compute", "--surface", "p2", "--rank", "2", "--c1", "0",
            "--qorders", "2", "--format", "json", "--cache-dir", str(tmp_path)]
    cold = run_cli(args, capsys)[1]
    (entry,) = tmp_path.glob("*.json")
    key = entry.name[:-len(".json")]
    body = '{"version":%d,"value":%s}' % (FORMAT_VERSION, cold[:-1])
    entry.write_text(header(key, body) + "\n" + body)
    stamp = entry.stat().st_mtime_ns
    assert ResultCache(str(tmp_path)).get(key) == cold[:-1]
    monkeypatch.setattr(cli, "_run_compute",
                        lambda *args: pytest.fail("a hit was recomputed"))
    for fmt in ("json", "csv", "text"):
        code, out, err = run_cli(args[:-3] + [fmt] + args[-2:], capsys)
        assert (code, err) == (0, "")
        if fmt == "json":
            assert out == cold
    assert entry.stat().st_mtime_ns == stamp
    assert entry.read_text() == header(key, body) + "\n" + body
