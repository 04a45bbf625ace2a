"""Every module-level function and class of the package has a user: a
reference from package code outside its own definition.  An export from
``__init__.py`` is not a use; code that only tests call lives in the tests."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nuconcat"


def referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def test_every_definition_has_a_user():
    definitions = []   # (module, name, defining statement)
    statements = []    # every top-level statement of every module
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if path.name != "__init__.py":
                statements.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name, stmt))
    uses = [(stmt, referenced_names(stmt)) for stmt in statements]
    unused = [f"{module}.{name}" for module, name, node in definitions
              if not any(name in names for stmt, names in uses if stmt is not node)]
    assert unused == []
