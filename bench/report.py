"""Run every workload once and print each metric by name with its unit.

    python3 bench/report.py [--seed N] [--trace 0|1]

With ``--trace 0`` (the default) it prints the end-to-end metrics, each
with its median, high percentile and sample count, and the failure
fraction; with ``--trace 1`` it prints the per-layer metrics.  Each run
lasts ``run_seconds`` of BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads

RUN = os.path.join(workloads.HERE, "run.py")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(workloads.HERE),
                           "BENCHMARK.json")) as fh:
        seconds = str(json.load(fh)["run_seconds"])
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", name, "--seed", str(args.seed),
             "--seconds", seconds, "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print("%s: benchmark failed\n%s" % (name, proc.stderr))
            status = 1
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        print("%s  correct=%s attempted=%d failed=%d fail_frac=%g  backend=%s"
              % (name, result["correct"], result["attempted"],
                 result["failed"], detail["fail_frac"],
                 detail["environment"]["backend"]))
        stats = detail.get("stats", {})
        for metric, m in result["metrics"].items():
            extra = ""
            if metric in stats:
                s = stats[metric]
                high = s["high"]
                extra = "  n=%d %s" % (s["n"], "" if high is None else
                                       "p%g=%.6g" % (high["p"], high["value"]))
            print("  %-42s %14.6g %-6s%s" % (metric, m["value"], m["unit"],
                                             extra))
    return status


if __name__ == "__main__":
    sys.exit(main())
