"""Every name a module imports is used in it or re-exported by it, and
every private module-level name of the library is used in the library.

A deletion that leaves an import behind keeps a dead dependency in the
module; this static check (stdlib ``ast`` only) finds it.  It covers the
library (``src/kolpot``, named by file) and the test, tool and demo scripts
(``tests/``, ``tools/``, ``demos/``, named by directory and file).  The
package's ``__init__.py`` is skipped: its imports are the package's exports.
A private constant or helper that a change replaced lingers the same way;
the second check finds one that no other statement of the library names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "kolpot"
MODULES = {p.name: p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
MODULES.update({f"{d}/{p.name}": p for d in ("tests", "tools", "demos")
                for p in sorted((ROOT / d).glob("*.py"))})


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import in the module, at any depth."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse(MODULES[module].read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    kept = used | _exported_names(tree)
    unused = {name: line for name, line in _imported_names(tree).items() if name not in kept}
    assert not unused, f"{module}: imported but unused (name: line) {unused}"


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Private (``_x``, not dunder) module-level name -> its defining statement."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update({n: stmt for n in names if n.startswith("_") and not n.startswith("__")})
    return out


def _named(stmt: ast.stmt) -> set[str]:
    """The names, attributes and imported names a statement mentions."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_library_name_is_used():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    named = [(stmt, _named(stmt)) for tree in trees.values() for stmt in tree.body]
    unused = [f"{module}: {name}" for module, tree in trees.items()
              for name, where in _private_definitions(tree).items()
              if not any(name in names for stmt, names in named if stmt is not where)]
    assert not unused, f"private names no other library statement uses: {unused}"
