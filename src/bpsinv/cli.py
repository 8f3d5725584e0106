"""Command-line front end.

    bpsinv compute --surface p2 --rank 3 --c1 0 --qorders 4 --format json
    bpsinv compute --surface hirzebruch:1 --rank 2 --c1 0,1 \
        --polarization suitable --qorders 4
    bpsinv check --suite table1

Each command's options are declared once, in ``_COMMANDS``.  A line that is
a command name followed by exact ``--option value`` or ``--option=value``
pairs of that command is read by ``_read_line`` to the namespace argparse
would give.  Any other line goes to the argparse parser built from the same
table, on first use, which prints the usage, the help and every error; so a
process that serves only such lines never builds it.

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

import argparse
import json
import sys
import time
from functools import cache

from .exactq import QQ, qq
from .blowup import p2_series
from .cache import ResultCache
from .compute import (
    default_cutoff, p2_genfun, p2_omega_genfun, p2_table, sigma_genfun,
    sigma_omega_genfun,
)
from .geometry import GeometryError, Polarization, SUITABLE, Surface
from .invariants import InvariantError, extract_table, omega_genfun
from .serialize import (
    dumps, genfun_to_obj, polarization_to_obj, table_to_obj,
)


# The deepest --qorders accepted.  At 40 the heaviest supported requests
# (rank 3 on the plane, rank 4 suitable and rank 3 wall-crossed on Sigma_1)
# take at most about 3.2 s and 29 MB (Python 3.11, one Xeon core), and the
# cost grows about as qorders^2.5; a deeper request exits 2 at once instead.
MAX_QORDERS = 40

# The longest --polarization part, and the largest decimal exponent in one,
# judged on the text before it is parsed: a part within both gives a
# rational of at most about 200 digits, which parses and prints at once.
MAX_POLARIZATION_PART = 100


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a JSON error and exit 2, not usage text
        raise InputError(message)

    def parse_args(self, args=None, namespace=None):
        # argparse of Python 3.10-3.12 gives --option=-- the value [] and
        # no error
        args = super().parse_args(args, namespace)
        for dest, value in vars(args).items():
            if value == []:
                self.error("argument --%s: expected one argument"
                           % dest.replace("_", "-"))
        return args


def _parse_surface(text):
    if text == "p2":
        return Surface.p2()
    if text.startswith("hirzebruch:"):
        try:
            return Surface.hirzebruch(int(text.split(":", 1)[1]))
        except ValueError:
            pass
    raise InputError("surface must be p2 or hirzebruch:<ell>")


def _parse_c1(text, surface):
    parts = [p.strip() for p in text.split(",")]
    want = surface.b2
    if len(parts) != want:
        raise InputError("--c1 needs %d component(s) for %s"
                         % (want, surface))
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise InputError("--c1 components must be integers")


def _parse_polarization(text, surface):
    if not surface.rank2:
        return None
    if text is None or text == "suitable":
        return SUITABLE
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError("--polarization must be 'suitable' or '<m>,<n>'")
    for part in parts:
        exp = part.lower().partition("e")[2].replace("_", "")
        exp = exp.strip().lstrip("+-")
        if len(part) > MAX_POLARIZATION_PART or (
                exp.isdecimal() and int(exp) > MAX_POLARIZATION_PART):
            raise InputError(
                "--polarization parts are limited to %d characters and "
                "exponents of at most %d" % ((MAX_POLARIZATION_PART,) * 2))
    try:
        # a part of ASCII digits alone reads as an int, about ten times
        # faster than Fraction's parse; qq reads every other spelling
        return Polarization.generic(*[
            int(part) if part.isdigit() and part.isascii() else qq(part)
            for part in parts])
    except (ValueError, GeometryError, ZeroDivisionError):
        raise InputError("invalid polarization %r" % (text,))


def cmd_compute(args):
    surface = _parse_surface(args.surface)
    c1 = _parse_c1(args.c1, surface)
    J = _parse_polarization(args.polarization, surface)
    if args.rank < 1:
        raise InputError("rank must be positive")
    if not 1 <= args.qorders <= MAX_QORDERS:
        raise InputError("qorders must be between 1 and %d" % MAX_QORDERS)
    cache = ResultCache(args.cache_dir)
    # keyed on the parsed polarization: spellings of one J share an entry,
    # and the plane, which has none, ignores the option
    spec = {
        "surface": str(surface), "rank": args.rank, "c1": list(c1),
        "polarization": polarization_to_obj(J), "qorders": args.qorders,
    }
    key = cache.key_of("compute", spec)
    text = cache.get(key)
    if text is None:
        # made on a miss only, so a hit makes no directory call
        try:
            cache.make_directory()
        except OSError as exc:
            raise InputError("unusable cache directory: %s" % (exc,))
        text = dumps(_run_compute(surface, args.rank, c1, J, args.qorders))
        cache.put(key, text)
    _emit(text, args.format)
    return 0


def _run_compute(surface, r, c1, J, qorders):
    cutoff = default_cutoff(r, surface, qorders)
    if surface.rank2:
        if r > 4 or (J != SUITABLE and r > 3):
            raise InputError("rank %d unsupported at this polarization" % r)
        h = sigma_genfun(r, c1, surface.ell, J, cutoff)
        omega = sigma_omega_genfun(r, c1, surface.ell, J, cutoff)
    else:
        if r > 3:
            raise InputError("rank <= 3 on the plane")
        # the stage memo keys on x mod r; the result cache on --c1 as given
        h = p2_genfun(r, c1[0] % r, cutoff)
        omega = p2_omega_genfun(r, c1[0], cutoff)
    table = extract_table(omega)
    return {"genfun": genfun_to_obj(h), "table": table_to_obj(table)}


def _emit(text, fmt):
    """Print a result given as its JSON text: as it is, or as csv or text."""
    if fmt == "json":
        print(text)
        return
    value = json.loads(text)
    rows = value["table"]["rows"]
    if fmt == "csv":
        width = max((len(r["betti"]) for r in rows), default=0)
        cols = ["c2", "delta", "dim", "euler"] + \
            ["b%d" % (2 * i) for i in range(width)]
        print(",".join(cols))
        for r in rows:
            betti = list(r["betti"]) + [""] * (width - len(r["betti"]))
            print(",".join(str(x) for x in
                           [r["c2"], r["delta"], r["dim"], r["euler"]] + betti))
        return
    g = value["genfun"]
    print("h_{%s,%s} on %s, flavor %s, %d stored exponents"
          % (g["rank"], g["c1"], g["surface"], g["flavor"],
             len(g["series"]["terms"])))
    for r in rows:
        print("  c2=%-3s dim=%-3s euler=%-8s betti=%s"
              % (r["c2"], r["dim"], r["euler"],
                 ",".join(str(b) for b in r["betti"])))


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _suite_core():
    import random
    from .series import QSeries, VPoly, WRat

    rng = random.Random(0)

    def rand_series(invertible=False):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = qq(rng.randint(-2, 4), rng.choice([1, 2, 8]))
            terms[e] = WRat(VPoly({rng.randint(-2, 2): rng.randint(-3, 3)}))
        s = QSeries(terms, qq(rng.randint(2, 4)))
        if invertible and s.is_zero():
            s = QSeries({0: 1}, s.cutoff)
        return s

    for _ in range(200):
        a, b, c = rand_series(), rand_series(), rand_series()
        if not ((a + b) * c).eq_to_cutoff(a * c + b * c):
            return False
        if not ((a * b) * c).eq_to_cutoff(a * (b * c)):
            return False
    for _ in range(200):
        a = rand_series(invertible=True)
        if not (a * a.invert()).eq_to_cutoff(QSeries.one()):
            return False
    # theta_hat-like, a lead w^j - 1 times integral Laurent polynomials:
    # the inversion runs in integers
    for _ in range(50):
        lead, a = WRat(VPoly({2 * rng.randint(1, 4): 1, 0: -1})), rand_series()
        a = QSeries({e: c * lead for e, c in a.terms.items() if e > 0}
                    | {0: lead}, a.cutoff)
        if not (a * a.invert()).eq_to_cutoff(QSeries.one()):
            return False
    return True


def _suite_table1():
    expect = {
        3: (18, (1, 1, 2, 2, 2, 2)),
        4: (216, (1, 2, 5, 9, 15, 19, 22, 23, 24)),
        5: (1512, (1, 2, 6, 12, 25, 43, 70, 98, 125, 142, 154, 156)),
        6: (8109, (1, 2, 6, 13, 28, 53, 99, 165, 264, 383, 515, 631,
                   723, 774, 795)),
    }
    table = p2_table(3, 0, qq(6))
    rows = {row.c2: row for row in table.rows}
    for c2, (euler, betti) in expect.items():
        row = rows.get(c2)
        if row is None or row.euler != euler:
            return False
        if row.betti[:row.dim // 2 + 1] != betti:
            return False
    return True


def _suite_routes():
    from itertools import product as iproduct
    from .geometry import discriminant, expected_dimension
    from .hn import suitable_genfun_closed, suitable_genfun_recursive
    from .wallcross import (_mirror, genfun_at_polarization,
                            genfun_by_wall_march, line_filtrations)
    ok = True
    # walking along -omega mirrors the walk along omega (on each surface,
    # the three walls of least -omega^2 are among these directions)
    omegas = ((1, -1), (1, -2), (1, -3), (2, -1))
    for ell, (x, y), r in iproduct(range(3), omegas, (2, 3, 4)):
        surface = Surface.hirzebruch(ell)
        for c1 in iproduct(range(r), repeat=2):
            down = line_filtrations(r, c1, (x, y), surface, qq(3))
            ok = ok and line_filtrations(r, c1, (-x, -y), surface, qq(3)) \
                == {k: _mirror(w) for k, w in down.items()}
    J = Polarization.generic(13, 9)
    # C <-> f on Sigma_0, and Sigma_2 deformed to Sigma_0
    for r in (2, 3):
        for a, b in iproduct(range(r), repeat=2):
            h = [genfun_at_polarization(r, c1, ell, Polarization.generic(
                m, n), qq(3)) for c1, ell, m, n in (
                    ((a, b), 0, 13, 9), ((b, a), 0, 9, 13),
                    ((a, b), 2, 13, 9), ((a, (b - a) % r), 0, 13, 22))]
            ok = ok and h[0] == h[1] and h[2] == h[3]
    for r, c1 in ((2, (1, 1)), (3, (1, 2))):
        closed = genfun_at_polarization(r, c1, 1, J, qq(2))
        marched = genfun_by_wall_march(r, c1, 1, J, qq(2))
        ok = ok and closed.eq_to_cutoff(marched, qq(2))
    # the solved recursion serves every suitable series and wall-crossing
    # base; the subtraction checks it, class by class
    for r in (2, 3, 4):
        for c1 in iproduct(range(r), repeat=2):
            ok = ok and suitable_genfun_closed(r, c1, qq(2)) \
                == suitable_genfun_recursive(r, c1, qq(2))
    # two blow-up routes give the plane's series and tables, Poincare
    # polynomials included
    for r, x, cut in ((3, 1, qq(2)), (2, 0, qq(3)), (3, 0, qq(3))):
        hA, hB = (p2_series(r, x, cut, route_k=k) for k in (0, 1))
        tA, tB = (extract_table(omega_genfun(lambda s, c1: p2_genfun(
            s, c1[0], cut, k), r, (x,))) for k in (0, 1))
        ok = ok and hA.eq_to_cutoff(hB, cut) and tA == tB
    # each term's row has the c2, Delta and dim of its Chern vector (x = 1
    # puts c1^2 into c2, which is 0 in the suitable chamber)
    for h in (p2_omega_genfun(3, 0, qq(6)), p2_omega_genfun(3, 1, qq(6)),
              sigma_omega_genfun(3, (0, 1), 1, SUITABLE, qq(3))):
        S = h.surface
        ok = ok and [row[:3] for row in extract_table(h).rows] == [
            (g.c2(S), discriminant(g, S), expected_dimension(g, S))
            for g in map(h.gamma_of_exponent, sorted(h.series.terms))]
    # rank 4 on the plane runs the general-rank march: four routes
    hs = [p2_series(4, 1, qq(3), route_k=k) for k in range(4)]
    return ok and all(h.cutoff >= 3 and h.eq_to_cutoff(hs[0], qq(3))
                      for h in hs)


SUITES = {"core": _suite_core, "table1": _suite_table1, "routes": _suite_routes}


def cmd_check(args):
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = []
    for name in names:
        result = {"name": name}
        start = time.perf_counter()
        try:
            result["ok"] = bool(SUITES[name]())
        except Exception as exc:
            # a suite that raises has failed; report what raised and go on
            result["ok"] = False
            result["error"] = "%s: %s" % (type(exc).__name__, exc)
        result["seconds"] = round(time.perf_counter() - start, 3)
        results.append(result)
    if args.format == "json":
        print(dumps({"backend": QQ.__name__, "results": results}))
    else:
        for r in results:
            detail = "%.2f s" % r["seconds"]
            if "error" in r:
                detail += ", " + r["error"]
            print("%s %s (%s)" % ("PASS" if r["ok"] else "FAIL", r["name"],
                                  detail))
    return 0 if all(r["ok"] for r in results) else 1


# Each command's help and options, (flag, type, default, choices, required,
# help): the argparse parser is built from this table, and _read_line reads
# the lines it can serve by the same entries.
_COMMANDS = {
    "compute": ("compute one generating function", (
        ("--surface", str, None, None, True, "p2 or hirzebruch:<ell>"),
        ("--rank", int, None, None, True, None),
        ("--c1", str, None, None, True, "comma list in the surface basis"),
        ("--polarization", str, None, None, False,
         "'suitable' or '<m>,<n>' (Hirzebruch only)"),
        ("--qorders", int, 4, None, False,
         "q-levels above the baseline, 1..%d" % MAX_QORDERS),
        ("--format", str, "text", ("json", "csv", "text"), False, None),
        ("--cache-dir", str, None, None, False, None),
    )),
    "check": ("run a verification suite", (
        ("--suite", str, "all", ("core", "table1", "routes", "all"), False,
         None),
        ("--format", str, "text", ("json", "text"), False, None),
    )),
}


def _read_line(argv):
    """The Namespace argparse gives argv, for a line that is a command name
    followed by exact ``--option value`` or ``--option=value`` pairs of that
    command: each option at most once, every required one present, and
    each value nonempty and not starting with '-'.  Values are converted by
    the table's type and checked against its choices.  Any other line,
    abbreviations, -h and -- included, gives None and is left to the
    parser, which also words every error."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][1]
    flags = {option[0] for option in options}
    given = {}
    tokens = iter(argv[1:])
    for token in tokens:
        flag, eq, value = token.partition("=")
        if not eq:
            value = next(tokens, "")
        if flag not in flags or flag in given or not value or \
                value.startswith("-"):
            return None
        given[flag] = value
    args = argparse.Namespace(command=argv[0])
    for flag, type_, default, choices, required, _ in options:
        dest = flag[2:].replace("-", "_")
        if flag not in given:
            if required:
                return None
            setattr(args, dest, default)
            continue
        try:
            value = type_(given[flag])
        except ValueError:
            return None
        if choices is not None and value not in choices:
            return None
        setattr(args, dest, value)
    return args


@cache
def _parser():
    """The argparse parser, built from _COMMANDS on the first call and
    reused; only the lines _read_line declines reach it."""
    parser = _Parser(
        prog="bpsinv",
        description="Exact BPS-invariant generating functions for sheaves on "
                    "Hirzebruch surfaces and the projective plane")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for flag, type_, default, choices, required, text in options:
            command.add_argument(flag, type=type_, default=default,
                                 choices=choices, required=required,
                                 help=text)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_line(argv) or _parser().parse_args(argv)
        # looked up per call, so a later rebinding of either name is served
        run = cmd_compute if args.command == "compute" else cmd_check
        return run(args)
    except (InputError, GeometryError, InvariantError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        # a failed integrality or palindromy check is a verification failure
        return 1 if isinstance(exc, InvariantError) else 2


if __name__ == "__main__":
    sys.exit(main())
