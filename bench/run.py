"""Benchmark of bpsinv: one run of one workload.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

With ``--trace 0`` the run samples set-up time in several fresh workers,
then starts one fresh worker after another, each sending the workload's
whole request stream, until ``--seconds`` would be exceeded; it reports the
end-to-end metrics of BENCHMARK.json as medians over the workers.  With
``--trace 1`` it runs one untraced and one traced worker and reports the
per-layer metrics of the traced one, plus the difference of their wall times
as ``trace.overhead_s``.  Times are scaled to the uncontended host's speed
(see ``worker.py``); the raw ones are in the detail line.

Every output is checked against the digest recorded at the seed commit in
``reference.json``; a send fails on a non-zero exit, an exception, or a
different output.  The last stdout line is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment and, per metric, the median, a high percentile and the
sample count.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

import workloads

ROOT = os.path.dirname(workloads.HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "bpsinv")
WORKER = os.path.join(workloads.HERE, "worker.py")
SETUP_PROBES = 9
RUN_LIMIT_S = 170          # every run ends well within 180 s
PERCENTILES = (99.9, 99, 95, 90, 75)


class BenchError(RuntimeError):
    pass


def run_worker(workload, seed, trace, deadline, setup_only=False):
    """Start a fresh worker; return (set-up seconds, total seconds, result).
    Set-up runs from process start until the worker has imported bpsinv and
    built its inputs; a set-up-only worker's result holds just its
    ``setup_scale``."""
    cmd = [sys.executable, WORKER, workload, str(seed), "1" if trace else "0"]
    if setup_only:
        cmd.append("--setup-only")
    # a fixed hash seed keeps set and dict orders, and so the counts, equal
    env = dict(os.environ, PYTHONHASHSEED="0")
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        raise BenchError("run time limit reached")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(remaining, proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        t_ready = time.perf_counter()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    t_end = time.perf_counter()
    if code != 0 or not ready.strip():
        raise BenchError("worker %s exited with code %s" % (cmd[2:], code))
    lines = rest.strip().splitlines()
    if not lines:
        raise BenchError("worker %s gave no result" % (cmd[2:],))
    last = json.loads(lines[-1])
    return t_ready - t0, t_end - t0, last.get("result", last)


def failures(result, reference):
    """Number of failed sends, each reported on stderr."""
    failed = 0
    for send in result["sends"]:
        want = reference["outputs"].get(send["key"])
        rows = reference["rows"].get(send["key"])
        why = None
        if send["rc"] != 0:
            why = "exit %s %s" % (send["rc"], send["error"] or "")
        elif want is None:
            why = "no reference output"
        elif rows is not None and send["cold"] and send["rows"] != rows:
            why = "table rows differ from the reference"
        elif send["sha256"] != want:
            why = "output differs from the reference"
        if why:
            failed += 1
            print("FAIL %s: %s" % (send["key"], why), file=sys.stderr)
    return failed


def summary(values):
    """Median, the highest percentile with at least ten samples beyond it
    (or None), and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    high = None
    for p in PERCENTILES:
        if n * (100 - p) / 100 >= 10:
            high = {"p": p, "value": ordered[math.ceil(p / 100 * n) - 1]}
            break
    return {"median": statistics.median(ordered), "high": high, "n": n}


def environment(workload, seed, result):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(SRC_PACKAGE, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": workload, "seed": seed, "backend": result["backend"],
            "python": result["python"], "nproc": os.cpu_count(),
            "git_rev": rev, "src_sha256": digest.hexdigest()}


def timed_run(workload, seed, seconds, deadline):
    start = time.perf_counter()
    setups = []
    for _ in range(SETUP_PROBES):
        setup, _, probe = run_worker(workload, seed, False, deadline,
                                     setup_only=True)
        setups.append((setup, probe["setup_scale"]))
    results, durations = [], []
    while True:
        setup, total, result = run_worker(workload, seed, False, deadline)
        setups.append((setup, result["setup_scale"]))
        durations.append(total)
        results.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(durations) > seconds:
            break
    warm = [s for r in results for s in r["sends"] if not s["cold"]]
    samples = {
        "wall_s": [r["scaled_wall_s"] for r in results],
        "peak_rss_mb": [r["rss_kb"] / 1024 for r in results],
        "setup_s": [s * scale for s, scale in setups],
        "hit_ms": [s["scaled_s"] * 1000 for s in warm],
        "raw_wall_s": [r["wall_s"] for r in results],
        "raw_setup_s": [s for s, _ in setups],
        "raw_hit_ms": [s["s"] * 1000 for s in warm],
    }
    return results, {name: summary(v) for name, v in samples.items()}


def traced_run(workload, seed, deadline):
    _, _, plain = run_worker(workload, seed, False, deadline)
    _, _, traced = run_worker(workload, seed, True, deadline)
    stats = dict(traced["trace"])
    stats["trace.overhead_s"] = traced["scaled_wall_s"] - plain["scaled_wall_s"]
    detail = {"layer_spans": traced["layer_spans"],
              "trace_spans": traced["trace"]["trace.spans"],
              "trace_inspect_s": traced["trace"]["trace.inspect_s"],
              "scaled_wall_s": {"plain": plain["scaled_wall_s"],
                                "traced": traced["scaled_wall_s"]},
              "raw_wall_s": {"plain": plain["wall_s"],
                             "traced": traced["wall_s"]}}
    return [plain, traced], stats, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC_PACKAGE, "cli.py")):
        print("bpsinv sources not found under %s" % SRC_PACKAGE,
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    reference = workloads.load_reference()
    deadline = time.perf_counter() + RUN_LIMIT_S
    try:
        if args.trace:
            results, values, detail = traced_run(args.workload, args.seed,
                                                 deadline)
            wanted = spec["per_layer"]
        else:
            results, stats = timed_run(args.workload, args.seed,
                                       args.seconds, deadline)
            values = {name: s["median"] for name, s in stats.items()}
            wanted = spec["end_to_end"]
            detail = {"stats": stats}
    except BenchError as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 3

    attempted = sum(len(r["sends"]) for r in results)
    failed = sum(failures(r, reference) for r in results)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print("metrics not measured: %s" % ", ".join(missing), file=sys.stderr)
        return 3
    detail["environment"] = environment(args.workload, args.seed, results[0])
    detail["fail_frac"] = failed / attempted
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
