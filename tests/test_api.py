"""The shipped surface: exports resolve, the memoized stage entry points
keep their memo, no module imports a name it never uses or from outside the
standard library, importing the CLI loads neither dataclasses nor inspect,
int and rational cutoffs are one key, strings parse to the rationals they
spell, and the README's library example runs as printed."""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import bpsinv
from bpsinv import clear_caches, p2_table, sigma_table
from bpsinv.blowup import p2_series
from bpsinv.exactq import QQ, qq
from bpsinv.geometry import SUITABLE
from bpsinv.hn import suitable_genfun_closed

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

MEMOIZED_STAGES = (
    "blocks.eta_series", "blocks.inverse_theta_hat", "blocks.fibre_quotient",
    "hn.subtraction_terms", "hn.suitable_genfun_recursive",
    "hn.closed_terms", "hn.suitable_genfun_closed", "wallcross._h1_squared",
    "wallcross.genfun_at_polarization", "blowup.p2_series",
)


def test_every_export_resolves():
    for name in bpsinv.__all__:
        assert hasattr(bpsinv, name), name
    for info in pkgutil.iter_modules(bpsinv.__path__):
        module = importlib.import_module("bpsinv." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)


def test_memoized_stages_keep_cache_info():
    fns = []
    for path in MEMOIZED_STAGES:
        module, name = path.split(".")
        fns.append(getattr(importlib.import_module("bpsinv." + module), name))
        assert callable(getattr(fns[-1], "cache_info", None)), path
    # and no other stage is memoized
    assert sorted(map(id, fns)) == sorted(map(id, bpsinv.memo._MEMOS))


def test_no_unused_imports():
    # a name an import binds must be read somewhere in its module, or be
    # re-exported through __all__
    unused = []
    for path in sorted(pathlib.Path(bpsinv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = [alias.asname or alias.name.split(".")[0]
                 for node in ast.walk(tree)
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 for alias in node.names]
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        exported = getattr(importlib.import_module("bpsinv." + path.stem)
                           if path.stem != "__init__" else bpsinv,
                           "__all__", ())
        unused += ["%s: %s" % (path.name, name) for name in bound
                   if name not in used and name not in exported]
    assert not unused, unused


def test_imports_are_stdlib_or_relative():
    # no runtime dependency: every import is the standard library's or the
    # package's own
    foreign = []
    for path in sorted(pathlib.Path(bpsinv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                continue
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [a.name for a in node.names]
                     if isinstance(node, ast.Import) else [])
            foreign += ["%s: %s" % (path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, foreign


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every bpsinv compute process pays its imports: the records are named
    # tuples and the memo binds by each stage's code, so neither module,
    # nor what inspect pulls in, is loaded
    src = os.path.dirname(os.path.dirname(os.path.abspath(bpsinv.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys; before = set(sys.modules); import bpsinv.cli; "
            "print(*sorted(set(sys.modules) - before))")
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "bpsinv.cli" in added
    assert not {"dataclasses", "inspect"} & set(added), added


def test_series_are_tagged_only_at_the_two_entry_points():
    # every stage below sigma_genfun and p2_genfun returns a bare series, so
    # those two alone build a GenFun, both in compute, and wallcross needs no
    # invariants
    builders = []
    for path in sorted(pathlib.Path(bpsinv.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            builders += ["%s.%s" % (path.stem, getattr(top, "name", "<module>"))
                         for node in ast.walk(top)
                         if isinstance(node, ast.Call) and "GenFun" in (
                             getattr(node.func, "id", None),
                             getattr(node.func, "attr", None))]
        if path.stem == "wallcross":
            imported = [node for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)]
            assert imported
            assert not [node.module for node in imported
                        if node.module == "invariants" or any(
                            a.name == "invariants" for a in node.names)]
    assert sorted(builders) == ["compute.p2_genfun", "compute.sigma_genfun"]


def test_int_and_rational_cutoffs_share_results_and_memo_entries():
    # a cutoff is an exact rational at the API edge; an int is the same key
    cases = ((lambda c: p2_table(3, 0, c), p2_series, 6),
             (lambda c: sigma_table(2, (0, 1), 1, SUITABLE, c),
              suitable_genfun_closed, 3))
    for table, stage, c in cases:
        clear_caches()
        want = table(c)
        misses = stage.cache_info().misses
        assert table(qq(c)) == want
        assert stage.cache_info().misses == misses, stage.__name__


def test_qq_parses_a_string_to_the_rational_it_spells():
    # one parse for b == 1; QQ(QQ(a), b) is the two-step parse it replaced
    cases = [(("3/8",), QQ(3, 8)), (("3/8", 2), QQ(3, 16)),
             (("-2",), QQ(-2)), ((" 13 ",), QQ(13))]
    for args, want in cases:
        got = qq(*args)
        assert got == want == QQ(QQ(args[0]), *args[1:]), args
        assert type(got) is QQ, args


def test_readme_library_example(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(code, {})
    lines = capsys.readouterr().out.splitlines()
    assert [tuple(map(int, line.split()[:2])) for line in lines] == [
        (3, 18), (4, 216), (5, 1512), (6, 8109)]
