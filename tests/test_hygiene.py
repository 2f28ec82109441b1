"""Source hygiene of the package: no unused imports (in its tests too), no
unreferenced private module-level functions or classes, and no class field
that nothing reads, so a deletion leaves no stragglers behind; no
`assert` statement, since `python -O` strips them and a guard must raise;
and no module that reads another's private names."""
from __future__ import annotations

import ast
from pathlib import Path

import pdtsim

SRC = Path(pdtsim.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.AST) -> set[str]:
    """Every name a module loads, attribute names included."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module's imports bind, with its line."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def test_no_unused_imports():
    unused = []
    for path in MODULES + TESTS:
        tree = _tree(path)
        used = _used_names(tree)
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []


def test_no_unreferenced_private_definitions():
    trees = {path: _tree(path) for path in sorted(SRC.glob("*.py"))}
    used = set().union(*(_used_names(tree) for tree in trees.values()))
    unreferenced = [
        f"{path.name}:{node.lineno} {node.name}"
        for path, tree in trees.items() if path.name != "__init__.py"
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and node.name not in used
    ]
    assert unreferenced == []


def test_no_unread_class_fields():
    """Every annotated field of a class in the package is loaded as an
    attribute somewhere in the package or its tests."""
    sources = sorted(SRC.glob("*.py")) + TESTS
    loaded = {
        node.attr for path in sources for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.name}:{field.lineno} {cls.name}.{field.target.id}"
        for path in MODULES
        for cls in ast.walk(_tree(path)) if isinstance(cls, ast.ClassDef)
        for field in cls.body
        if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
        and field.target.id not in loaded
    ]
    assert unread == []


def test_no_assert_statements():
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)
    ]
    assert asserts == []


def _defined_names(tree: ast.AST) -> set[str]:
    """Every name a module defines: functions, classes, methods, assigned
    names and the attributes it assigns."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            out.add(node.attr)
    return out


def test_no_module_reads_another_modules_private_names():
    """An attribute `x._name` in the package names something its own
    module defines, so a module's private names are free to change."""
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        tree = _tree(path)
        own = _defined_names(tree)
        foreign += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and not node.attr.startswith("__") and node.attr not in own
        ]
    assert foreign == []
