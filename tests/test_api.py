"""The shipped surface: exports resolve, the memoized stage entry points
keep their memo, no module imports a name it never uses, and the README's
library example runs as printed."""

import ast
import importlib
import pathlib
import pkgutil
import re

import bpsinv

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

MEMOIZED_STAGES = (
    "blocks.eta_series", "blocks.fibre_product_genfun",
    "hn.suitable_genfun_recursive", "wallcross.genfun_at_polarization",
    "blowup.gieseker_to_mu", "blowup.p2_genfun",
)


def test_every_export_resolves():
    for name in bpsinv.__all__:
        assert hasattr(bpsinv, name), name
    for info in pkgutil.iter_modules(bpsinv.__path__):
        module = importlib.import_module("bpsinv." + info.name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)


def test_memoized_stages_keep_cache_info():
    for path in MEMOIZED_STAGES:
        module, name = path.split(".")
        fn = getattr(importlib.import_module("bpsinv." + module), name)
        assert callable(getattr(fn, "cache_info", None)), path


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


def test_readme_library_example(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(code, {})
    lines = capsys.readouterr().out.splitlines()
    assert [tuple(map(int, line.split()[:2])) for line in lines] == [
        (3, 18), (4, 216), (5, 1512), (6, 8109)]
