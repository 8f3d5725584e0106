"""One benchmark worker: a fresh process that imports ``bpsinv`` from the
checkout's ``src``, sends a workload's requests in process, one after
another, through ``bpsinv.cli.main`` with ``--format json``, and reports as
JSON lines on stdout when it is ready and then each send's time and output
digest.

    python3 bench/worker.py <workload> <seed> <trace 0|1> [--setup-only]

``run.py`` starts it; with ``--setup-only`` it exits once it is ready, which
is how set-up time is sampled.

On a shared 2-vCPU Linux VM the same Python code runs up to 1.9 times
slower, from moment to moment, depending on the other tenants of the host, so
raw wall times of one workload spread by 10-28% between runs.  Every time
is therefore also reported scaled by ``PROBE_REFERENCE_S`` over the time of
a fixed unit of exact-rational work run around it, which gives the time the
same work takes on the uncontended host: a probe thread runs the unit every
``PROBE_PERIOD_S`` during the long sends, and each send served from the
cache is bracketed by units of its own kind of work (``read_probe_unit``).
The probes cost about 2.5% of the time, the same on every commit.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import threading
import time
from bisect import bisect_left
from fractions import Fraction

import workloads

ROOT = os.path.dirname(workloads.HERE)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_work")
PROBE_PERIOD_S = 0.05
# the host keeps one speed for seconds, so a short send is scaled by this
# many probes around it
PROBE_MIN_COUNT = 10
# the probe unit's time on an uncontended 2-vCPU Linux VM with CPython
# 3.11.7: the 2nd percentile over a minute of probes
PROBE_REFERENCE_S = 0.0006
# the same for read_probe_unit
READ_PROBE_REFERENCE_S = 0.00023


def probe_unit():
    """A fixed unit of Fraction and dict work, like the program's kernel."""
    x = Fraction(1, 3)
    acc = {}
    for i in range(1, 150):
        y = Fraction(i, i + 7) * x + Fraction(3, i)
        acc[i % 7] = acc.get(i % 7, 0) + y.numerator % 7
    return acc


def read_probe_unit():
    """A fixed unit of the work of a send served from the cache: argument
    parsing, reading and decoding a JSON file, encoding and hashing it."""
    parser = argparse.ArgumentParser(prog="probe")
    parser.add_argument("--name")
    parser.add_argument("--count", type=int, default=1)
    parser.parse_args(["--name", "probe"])
    with open(workloads.REFERENCE_PATH) as fh:
        obj = json.load(fh)
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def probe_time(repeats=1, unit=probe_unit):
    """Mean time of ``repeats`` probe units after one untimed unit, which
    refills the caches the sends' other code has displaced."""
    unit()
    t0 = time.perf_counter()
    for _ in range(repeats):
        unit()
    return (time.perf_counter() - t0) / repeats


class SpeedProbe:
    """Times ``probe_unit`` every PROBE_PERIOD_S on a daemon thread, which
    takes the interpreter lock from the sends for each unit."""

    def __init__(self):
        self.times = []           # probe start
        self.durations = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            self.times.append(time.perf_counter())
            self.durations.append(probe_time())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.times.append(time.perf_counter())   # so there is always one
        self.durations.append(probe_time())

    def scale(self, t0, t1):
        """PROBE_REFERENCE_S over the mean time of the probes that ran in
        [t0, t1], or of the PROBE_MIN_COUNT probes around it if fewer did:
        one probe alone is too noisy."""
        lo, hi = bisect_left(self.times, t0), bisect_left(self.times, t1)
        if hi - lo < PROBE_MIN_COUNT:
            hi = min(len(self.times), (lo + hi + PROBE_MIN_COUNT) // 2)
            lo = max(0, hi - PROBE_MIN_COUNT)
        window = self.durations[lo:hi]
        return PROBE_REFERENCE_S * len(window) / sum(window)


def load_package():
    """Import bpsinv from this checkout, never from an installed copy."""
    sys.path.insert(0, SRC)
    import bpsinv
    import bpsinv.cli  # noqa: F401  (the entry point the sends go through)
    if not os.path.abspath(bpsinv.__file__).startswith(SRC + os.sep):
        raise ImportError("bpsinv imported from %s, not from %s"
                          % (bpsinv.__file__, SRC))
    return bpsinv


def backend(package):
    qq_type = package.exactq.QQ
    return "%s.%s" % (qq_type.__module__, qq_type.__name__)


def table_rows(text):
    """(c2, euler, betti) of every table row of a JSON output."""
    try:
        rows = json.loads(text)["table"]["rows"]
    except (ValueError, KeyError, TypeError):
        return None
    return [[r["c2"], r["euler"], r["betti"]] for r in rows]


def run_sends(package, sends, cache_dir):
    """Send each request through the CLI entry point; outputs are digested
    after the clock stops.  A send served from the cache takes about a
    millisecond, too short for the probe thread to see the host's speed
    during it, so it is bracketed by probes of its own (``probe_s``), of
    the same kind of work."""
    records = []
    for argv, cold in sends:
        buf = io.StringIO()
        error = None
        probe_s = None if cold else probe_time(3, read_probe_unit)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = package.cli.main(argv + ["--cache-dir", cache_dir])
        except SystemExit as exc:
            rc, error = exc.code, "SystemExit"
        except Exception as exc:  # a failed send is counted, not fatal
            rc, error = None, "%s: %s" % (type(exc).__name__, exc)
        seconds = time.perf_counter() - t0
        if not cold:
            probe_s = (probe_s + probe_time(3, read_probe_unit)) / 2
        text = buf.getvalue()
        records.append({
            "key": workloads.request_key(argv), "cold": cold, "t0": t0,
            "s": seconds, "probe_s": probe_s, "rc": rc, "error": error,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "rows": table_rows(text) if cold else None,
        })
    return records


def main(argv):
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    setup_only = "--setup-only" in argv[3:]
    out = sys.stdout
    package = load_package()
    sends = workloads.sends(workload, seed)
    os.makedirs(WORK_DIR, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
    try:
        print(json.dumps({"ready": True}), file=out, flush=True)
        # no probe can run inside set-up, so the ones right after it scale it
        setup_scale = PROBE_REFERENCE_S / probe_time(10)
        if setup_only:
            print(json.dumps({"setup_scale": setup_scale}), file=out,
                  flush=True)
            return 0
        tracer = None
        if trace:
            import layers
            tracer = layers.Tracer(package).install()
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            records = run_sends(package, sends, cache_dir)
            t1 = time.perf_counter()
        for r in records:
            r["scaled_s"] = r["s"] * (
                READ_PROBE_REFERENCE_S / r["probe_s"] if r["probe_s"] else
                probe.scale(r["t0"], r["t0"] + r["s"]))
        result = {
            "backend": backend(package),
            "python": platform.python_version(),
            "wall_s": sum(r["s"] for r in records),
            "scaled_wall_s": sum(r["scaled_s"] for r in records),
            "setup_scale": setup_scale,
            "probes": len(probe.durations),
            "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "sends": records,
        }
        if tracer is not None:
            tracer.uninstall()
            scale = probe.scale(t0, t1)
            result["trace"] = {
                name: value * scale if unit == "s" else value
                for name, (value, unit) in tracer.metrics().items()}
            result["layer_spans"] = tracer.layer_spans()
        print(json.dumps({"result": result}), file=out, flush=True)
        return 0
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)        # only if no other worker uses it


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
