"""Static checks on the imports of the modules in src/polygeom."""

import ast
from pathlib import Path

import pytest

import polygeom

MODULES = sorted(Path(polygeom.__file__).parent.glob("*.py"))


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_modules(module: ast.Module) -> set[str]:
    """The top-level names of the modules that module imports."""
    names = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_the_modules_are_found():
    assert {"jsonio.py", "campaign.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_jsonio_reads_json(path):
    # jsonio holds the one reader of each JSON value, and of a document
    assert ("json" in imported_modules(tree(path))) == (path.name == "jsonio.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_jsonio_name_is_used(path):
    used = []
    for node in ast.walk(tree(path)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "jsonio" and node.attr.startswith("_")):
            used.append(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("jsonio"):
            used += [a.name for a in node.names if a.name.startswith("_")]
    assert used == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    # __init__.py imports names to export them
    module = tree(path)
    bound = set()
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(module) if isinstance(node, ast.Name)}
    assert sorted(bound - used) == []
