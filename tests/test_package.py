"""The public surface: exported names and the README's library example."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import metsymp

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
SRC = Path(metsymp.__file__).resolve().parent
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def test_every_exported_name_resolves():
    """Each name in a module's ``__all__`` is bound in that module, and each
    name the package re-exports is in its home module's ``__all__``, so a
    stale export fails here and not only on ``import *``."""
    stale = []
    for info in pkgutil.iter_modules(metsymp.__path__):
        module = importlib.import_module(f"metsymp.{info.name}")
        stale += [f"{module.__name__}.{name}" for name in getattr(module, "__all__", ())
                  if not hasattr(module, name)]
    stale += [f"metsymp.{name}" for name in getattr(metsymp, "__all__", ())
              if not hasattr(metsymp, name)]
    for name, value in vars(metsymp).items():
        home = getattr(value, "__module__", None) or ""
        if not name.startswith("_") and home.startswith("metsymp."):
            if name not in getattr(sys.modules[home], "__all__", (name,)):
                stale.append(f"metsymp.{name} (not in {home}.__all__)")
    assert not stale


def test_the_readme_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    fit, line_line = capsys.readouterr().out.splitlines()
    assert "kappa=" in fit
    assert abs(float(line_line)) < 1e-10   # the -6 row of the Ricci table


def test_no_module_imports_a_name_it_never_uses():
    """Each name a module imports is read somewhere in it as a name, or is
    re-exported through its ``__all__``.  The package ``__init__`` only
    re-exports, so it is left out."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(getattr(importlib.import_module(f"metsymp.{path.stem}"), "__all__", ()))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in read | exported]
    assert not unused


def _defined(stmt) -> set[str]:
    """The names a top-level statement binds: a function, a class, or the
    plain names an assignment targets, dunders left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {t.id for t in targets if isinstance(t, ast.Name) and not t.id.startswith("__")}


def _identifiers(node):
    """Every identifier a node reads: names, attributes, imported names, and
    the parts of a string that is a dotted name (the bench's span table and
    ``monkeypatch.setattr`` name functions that way)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rsplit(".", 1)[-1]
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and DOTTED.fullmatch(sub.value)):
            yield from sub.value.split(".")


def test_every_top_level_name_of_the_package_is_read_somewhere():
    """Each top-level function, class and constant of a module is read by
    name in src/, tests/ or bench/ outside its own definition.  A module's
    ``__all__`` and the package ``__init__``'s re-exports are not reads, so
    a helper whose last caller went fails here."""
    defined, read = {}, set()
    paths = [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    for path in sorted(paths):
        if path == SRC / "__init__.py":
            continue
        in_src = path.parent == SRC
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined(stmt) if in_src else set()
            defined.update((name, f"{path.name}:{stmt.lineno}") for name in own)
            if in_src and isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets):
                continue
            read |= set(_identifiers(stmt)) - own
    assert sorted(f"{where} {name}" for name, where in defined.items() if name not in read) == []
