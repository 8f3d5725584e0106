"""Benchmark workloads: the compute requests each one sends, in the order
its seed gives.

Every request is sent once cold, computing its result and writing it to a
fresh result cache, and then ``repeats`` more times, each served from that
cache.  The program only ever sees the generated ``bpsinv compute`` argument
lists; the seed stays in the benchmark.
"""

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def compute_argv(surface, rank, c1, qorders, polarization=None):
    argv = ["compute", "--surface", surface, "--rank", str(rank), "--c1", c1]
    if polarization is not None:
        argv += ["--polarization", polarization]
    return argv + ["--qorders", str(qorders), "--format", "json"]


# The paper's table: rank 3, c1 = 0 on the plane, rows c2 = 3..6.  The whole
# pipeline runs, and about 90% of the time is the wall-crossing of rank-2 and
# rank-3 functions inside the blow-up conversion, so it carries the heaviest
# load on the Q(v) coefficient arithmetic.
P2_ANCHOR = compute_argv("p2", 3, "0", 7)

# Rank 4 in the suitable chamber: theta/eta products, series inversion and
# the Harder-Narasimhan recursion only.  It never enters wall-crossing or the
# blow-up, so it is the control for changes to those layers.
SUITABLE_R4 = compute_argv("hirzebruch:1", 4, "0,1", 6, "suitable")

# A stream of requests in one process: plane and Sigma_0/Sigma_1 classes of
# rank 2-4, in the suitable chamber and at 13,9, with several q-orders per
# class.  It is the only workload where work is shared across cutoffs and
# classes, and the only one that reads results back through the cache.
SESSION = [
    compute_argv("p2", 2, "0", 3),
    compute_argv("p2", 2, "0", 5),
    compute_argv("p2", 2, "1", 4),
    compute_argv("p2", 2, "1", 6),
    compute_argv("p2", 3, "1", 2),
    compute_argv("p2", 3, "1", 3),
    compute_argv("hirzebruch:0", 2, "0,1", 3, "13,9"),
    compute_argv("hirzebruch:0", 2, "0,1", 5, "13,9"),
    compute_argv("hirzebruch:1", 2, "0,1", 4, "suitable"),
    compute_argv("hirzebruch:1", 2, "0,1", 6, "suitable"),
    compute_argv("hirzebruch:1", 2, "1,1", 4, "13,9"),
    compute_argv("hirzebruch:1", 3, "1,2", 2, "13,9"),
    compute_argv("hirzebruch:1", 3, "1,2", 3, "13,9"),
    compute_argv("hirzebruch:0", 3, "0,1", 3, "suitable"),
    compute_argv("hirzebruch:0", 3, "0,1", 4, "suitable"),
    compute_argv("hirzebruch:0", 4, "0,1", 2, "suitable"),
]

WORKLOADS = {
    "p2_anchor": {"requests": [P2_ANCHOR], "repeats": 40},
    "suitable_r4": {"requests": [SUITABLE_R4], "repeats": 40},
    "session": {"requests": SESSION, "repeats": 3},
}


def request_key(argv):
    return " ".join(argv)


def sends(workload, seed):
    """The workload's sends as (argv, cold) pairs, shuffled by the seed; the
    first send of each request is the cold one."""
    spec = WORKLOADS[workload]
    requests = spec["requests"]
    order = [i for i in range(len(requests)) for _ in range(1 + spec["repeats"])]
    random.Random(seed).shuffle(order)
    seen = set()
    out = []
    for i in order:
        out.append((requests[i], i not in seen))
        seen.add(i)
    return out


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
