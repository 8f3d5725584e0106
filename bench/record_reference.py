"""Record the reference outputs the benchmark checks against.

    python3 bench/record_reference.py

Run once, at the commit whose outputs are the reference (the benchmark's
seed commit); later commits must reproduce these digests byte for byte, so
the file is not re-recorded when the program changes: the script refuses to
run while ``reference.json`` exists.  Each workload runs
once in a fresh worker; every repeat of a request must match its first
output, and the anchor's rows must match the paper's table.
"""

import json
import os
import subprocess
import sys
import time

import run
import workloads

# Rank 3, c1 = 0 on the plane: c2 -> (Euler number, b_0 .. b_dim).
PAPER_TABLE = {
    3: (18, [1, 1, 2, 2, 2, 2]),
    4: (216, [1, 2, 5, 9, 15, 19, 22, 23, 24]),
    5: (1512, [1, 2, 6, 12, 25, 43, 70, 98, 125, 142, 154, 156]),
    6: (8109, [1, 2, 6, 13, 28, 53, 99, 165, 264, 383, 515, 631, 723, 774,
               795]),
}


def main():
    if os.path.exists(workloads.REFERENCE_PATH):
        sys.exit("%s exists; the reference is recorded only once, at the "
                 "seed commit" % workloads.REFERENCE_PATH)
    outputs, rows, env = {}, {}, None
    for name in workloads.WORKLOADS:
        deadline = time.perf_counter() + 3600
        _, _, result = run.run_worker(name, 0, False, deadline)
        env = env or result
        for send in result["sends"]:
            if send["rc"] != 0:
                sys.exit("%s failed: %s" % (send["key"], send["error"]))
            if outputs.setdefault(send["key"], send["sha256"]) != send["sha256"]:
                sys.exit("%s: repeat differs from first output" % send["key"])
            if send["cold"] and send["key"] == workloads.request_key(
                    workloads.P2_ANCHOR):
                rows[send["key"]] = send["rows"]
    anchor = {c2: (euler, betti) for c2, euler, betti in
              rows[workloads.request_key(workloads.P2_ANCHOR)]}
    for c2, (euler, half) in PAPER_TABLE.items():
        euler_got, betti = anchor[c2]
        if euler_got != euler or betti[:len(half)] != half:
            sys.exit("anchor row c2=%d differs from the paper" % c2)
    rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                         capture_output=True, text=True).stdout.strip()
    reference = {"seed_commit": rev, "backend": env["backend"],
                 "python": env["python"], "outputs": outputs, "rows": rows}
    with open(workloads.REFERENCE_PATH, "x") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
