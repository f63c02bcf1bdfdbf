"""Imports between package modules run one way and through public names.

`constructions` builds frames and `frame` measures them.  A group frame
carries its own (mu, nu), so `frame` needs no other package module, and no
module reaches into another module's private names.
"""
import ast
from pathlib import Path

import pytest

import framecoh

SOURCES = {path.name: path for path in Path(framecoh.__file__).parent.glob("*.py")}


def _package_imports(path):
    """(module, imported names) for each import of a package module in
    ``path``, at top level or nested; ``from . import x`` gives ("", ["x"])."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "framecoh":
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            found.append((module, [alias.name for alias in node.names]))
        elif isinstance(node, ast.Import):
            found.extend((alias.name, []) for alias in node.names
                         if alias.name.split(".")[0] == "framecoh")
    return found


def test_frame_imports_no_package_module():
    assert _package_imports(SOURCES["frame.py"]) == []


def test_constructions_takes_only_frame_from_frame():
    from_frame = [names for module, names in _package_imports(SOURCES["constructions.py"])
                  if module == "frame"]
    assert from_frame == [["Frame"]]


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_no_private_name_crosses_modules(name):
    private = [f"{module}.{imported}" for module, names in _package_imports(SOURCES[name])
               for imported in names if imported.startswith("_")]
    assert not private, f"{name} imports private names {private}"


def test_scan_sees_the_package():
    assert {"constructions.py", "frame.py", "cli.py", "__init__.py"} <= set(SOURCES)
