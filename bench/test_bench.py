"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

The traced-workload tests start real workers, so the file takes about a
minute.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import layers
import run
import worker
import workloads

SMALL = workloads.compute_argv("p2", 2, "0", 3)


def _clear_memos(package):
    for name, module in list(sys.modules.items()):
        if name == package.__name__ or name.startswith(package.__name__ + "."):
            for obj in list(vars(module).values()):
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def _traced_worker(workload):
    deadline = time.perf_counter() + 170
    return run.run_worker(workload, 0, True, deadline)[2]


@pytest.fixture(scope="module")
def session_runs():
    return [_traced_worker("session") for _ in range(2)]


def test_wrappers_leave_stdout_byte_identical(tmp_path):
    package = worker.load_package()
    sends = [(SMALL, True), (SMALL, False)]
    _clear_memos(package)
    plain = worker.run_sends(package, sends, str(tmp_path / "plain"))
    _clear_memos(package)
    tracer = layers.Tracer(package).install()
    try:
        traced = worker.run_sends(package, sends, str(tmp_path / "traced"))
    finally:
        tracer.uninstall()
    want = workloads.load_reference()["outputs"][workloads.request_key(SMALL)]
    assert [s["sha256"] for s in plain] == [s["sha256"] for s in traced] \
        == [want, want]
    spans = tracer.spans()
    assert spans and sum(tracer.layer_spans().values()) == len(spans)
    for name, start, end, parent in spans:
        assert start <= end
        if parent >= 0:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    assert package.cli.main is tracer.originals["cli.main"]
    assert not hasattr(package.series.WRat.__mul__, "__wrapped__")


def test_two_traced_runs_give_the_same_counters(session_runs):
    first, second = session_runs
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
    assert counts
    assert {n: first["trace"][n] for n in counts if n in first["trace"]} == \
        {n: second["trace"][n] for n in counts if n in second["trace"]}
    assert first["layer_spans"] == second["layer_spans"]


def test_every_layer_records_a_span(session_runs):
    spans = session_runs[0]["layer_spans"]
    assert set(spans) == set(layers.LAYERS)
    assert all(spans[layer] > 0 for layer in layers.LAYERS), spans


def test_traced_outputs_match_the_reference(session_runs):
    reference = workloads.load_reference()
    assert run.failures(session_runs[0], reference) == 0


def test_suitable_r4_never_enters_wallcross_or_blowup():
    result = _traced_worker("suitable_r4")
    assert result["layer_spans"]["wallcross"] == 0
    assert result["layer_spans"]["blowup"] == 0
    assert result["layer_spans"]["hn"] > 0 and result["layer_spans"]["blocks"] > 0


def test_a_different_output_counts_as_failed():
    reference = workloads.load_reference()
    key = workloads.request_key(SMALL)
    good = {"key": key, "cold": True, "rc": 0, "error": None, "rows": None,
            "sha256": reference["outputs"][key], "s": 0.1}
    bad = dict(good, sha256="0" * 64)
    crashed = dict(good, rc=None, error="ValueError: boom")
    assert run.failures({"sends": [good]}, reference) == 0
    assert run.failures({"sends": [good, bad, crashed]}, reference) == 2


def test_anchor_rows_are_checked(capsys):
    reference = workloads.load_reference()
    key = workloads.request_key(workloads.P2_ANCHOR)
    rows = reference["rows"][key]
    assert [r[:2] for r in rows] == [[3, 18], [4, 216], [5, 1512], [6, 8109]]
    send = {"key": key, "cold": True, "rc": 0, "error": None, "s": 1.0,
            "sha256": "0" * 64, "rows": [[3, 18, rows[0][2]]]}
    assert run.failures({"sends": [send]}, reference) == 1
    assert "table rows differ" in capsys.readouterr().err


def test_reference_is_not_re_recorded():
    proc = subprocess.run(
        [sys.executable, os.path.join(workloads.HERE, "record_reference.py")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "recorded only once" in proc.stderr


def test_summary_percentile_keeps_ten_samples_beyond():
    s = run.summary(list(range(100)))
    assert s["n"] == 100 and s["high"]["p"] == 90 and s["high"]["value"] == 89
    assert run.summary([1.0, 2.0, 3.0])["high"] is None


def test_sends_depend_only_on_the_seed():
    a = workloads.sends("session", 7)
    assert a == workloads.sends("session", 7)
    assert a != workloads.sends("session", 8)
    cold = [argv for argv, is_cold in a if is_cold]
    assert sorted(map(tuple, cold)) == sorted(map(tuple, workloads.SESSION))
    for argv in workloads.SESSION:
        first = next(c for v, c in a if v == argv)
        assert first and sum(v == argv for v, _ in a) == \
            1 + workloads.WORKLOADS["session"]["repeats"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "session", "--seed",
         "1", "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
