"""Line census of the tier-1 suite: every function-body line of src/bpsinv
must run.

Runs the tier-1 suite in this process at ``--hypothesis-seed 0`` under a
``sys.settrace`` line tracer, then lists each line of a function body in
``src/bpsinv`` that no test ran.  Module and class bodies run on import, so
their lines count as run; so does each function's ``def`` line.  A line
counts as run when any code on it ran.  Lines run only in a subprocess or
another thread are not seen.  Stdlib only, apart from pytest, which runs
the suite.

Usage, from the repository root:

    python tests/line_census.py

Exits 0 when every line ran, 1 with the list of unrun lines otherwise (or
when the suite itself fails).  The time is printed, not gated.  pytest does
not collect this file, so the tier-1 suite is unchanged by it.
"""

import inspect
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bpsinv"

# (file name, line) -> why that line may stay unrun.  Empty: every line of a
# function body is run by some test.
EXEMPT = {}


def body_lines(path):
    """The lines of every function body in one module, each def line left
    out; module and class bodies are not functions."""
    top = compile(path.read_text(), str(path), "exec")
    module_lines = {line for _, _, line in top.co_lines() if line}
    out, stack = set(), [top]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:
            out |= {line for _, _, line in code.co_lines()
                    if line and line != code.co_firstlineno}
    # a line shared with the module body (a one-line lambda in a module
    # constant, say) runs on import
    return out - module_lines


def main():
    start = time.perf_counter()
    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + os.sep
    ran = set()
    add = ran.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        # only frames of the package are traced by line
        if frame.f_code.co_filename.startswith(prefix):
            return local
        return None

    import pytest

    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider",
                              "--hypothesis-seed", "0",
                              "--rootdir", str(ROOT), str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    import bpsinv
    if pathlib.Path(bpsinv.__file__).resolve().parent != PACKAGE:
        sys.exit("traced %s, not %s" % (bpsinv.__file__, PACKAGE))
    unrun, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = body_lines(path)
        total += len(lines)
        unrun += [(path.name, n) for n in sorted(lines)
                  if (str(path), n) not in ran
                  and (path.name, n) not in EXEMPT]
    print("line census took %.1f s" % (time.perf_counter() - start))
    if status != 0:
        sys.exit("the tier-1 suite failed under the tracer (exit %s)"
                 % (status,))
    if unrun:
        sys.exit("%d of %d function-body lines of src/bpsinv never ran in "
                 "tier-1:\n  %s" % (len(unrun), total, "\n  ".join(
                     "%s:%d" % u for u in unrun)))
    print("all %d function-body lines of src/bpsinv ran (%d exempt)"
          % (total, len(EXEMPT)))


if __name__ == "__main__":
    main()
