"""Static checks over the package source, using only the stdlib ``ast``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "echochan"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name -> line of every import binding, except ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_no_unused_imports():
    # __init__.py imports in order to re-export, so it is not checked
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules, f"no modules found under {PACKAGE}"
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for name, line in _imported_names(tree).items():
            if name not in used:
                unused.append(f"{path.name}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_one_state_stepping_function():
    # the activation is applied where the state recurrence is stepped, and
    # only there: a second `.apply` means a second copy of the recurrence
    users = set()

    def visit(node, path, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Attribute) and node.attr == "apply":
            users.add(f"{path.name}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, owner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "<module>")
    assert len(users) == 1, f"the activation is applied in {sorted(users) or 'no function'}"
