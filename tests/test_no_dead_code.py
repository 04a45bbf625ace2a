"""AST checks of the package sources.

Every module-level function and class of the package, and every method
of a package class, has a user: a reference from package code outside its
own definition.  An export from ``__init__.py`` is not a use; code that
only tests call lives in the tests.  Dunder methods are called by Python
itself and are not checked.  No module reads another's private names, no
package code uses ``assert``, and only the two tableaus touch packed rows."""

import ast
import math
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
    definitions = []   # (qualified name, name, defining node)
    units = []         # (nodes a unit lies inside, names it references)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.append((f"{path.stem}.{stmt.name}", stmt.name, stmt))
            if path.name == "__init__.py":
                continue
            if not isinstance(stmt, ast.ClassDef):
                units.append(({stmt}, referenced_names(stmt)))
                continue
            # a class is split into its members, so that a method's own body
            # is not a use of it; bases and decorators form one more unit
            header = [*stmt.bases, *stmt.keywords, *stmt.decorator_list]
            units.append(({stmt}, set().union(*map(referenced_names, header))))
            for member in stmt.body:
                units.append(({stmt, member}, referenced_names(member)))
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (member.name.startswith("__") and member.name.endswith("__"))):
                    definitions.append((f"{path.stem}.{stmt.name}.{member.name}",
                                        member.name, member))
    unused = [qualified for qualified, name, node in definitions
              if not any(name in names for inside, names in units if node not in inside)]
    assert unused == []


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_module_reads_private_names_of_another():
    """``module._name`` and ``from .module import _name`` reach into
    another package module's internals; each concept keeps one public
    entry point in the module that owns it."""
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        modules = {}   # local name -> package module bound by ``from . import``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    modules.update((alias.asname or alias.name, alias.name) for alias in node.names)
                else:
                    reads += [f"{path.stem}: {node.module}.{alias.name}"
                              for alias in node.names if private(alias.name)]
        reads += [f"{path.stem}: {modules[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and modules.get(node.value.id, path.stem) != path.stem and private(node.attr)]
    assert reads == []


def test_no_assert_in_package_code():
    """``python -O`` strips ``assert`` statements, so a run-time check in
    the package raises an exception instead."""
    asserts = [f"{path.stem}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Assert)]
    assert asserts == []


def test_only_the_two_tableaus_touch_packed_rows():
    """``gates.conjugate_through`` is the one Pauli-level entry to the
    signed tableau, and the fault frame in ``faults.py`` the one other
    tableau: no other module calls ``pack``, ``unpack`` or
    ``conjugate_rows``."""
    primitives = {"pack", "unpack", "conjugate_rows"}
    callers = {path.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", getattr(node.func, "id", None)) in primitives}
    assert callers == {"faults.py", "gates.py"}


def test_every_default_has_a_user():
    """A defaulted parameter of a package function is passed, by keyword or
    by position, by some package call of a function of that name (of its
    class, for ``__init__``); a default nobody overrides is a constant.
    ``cli.main``'s ``argv`` is the entry point's and is exempt."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    calls = {}   # called name -> per call (positional count, keywords); inf for *, None for **
    for node in (node for tree in trees.values() for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(getattr(node.func, "attr", getattr(node.func, "id", None)), []).append(
                (math.inf if starred else len(node.args), None if None in keywords else keywords))
    unused = []
    for stem, tree in trees.items():
        # a method called on an instance or class is passed its first argument
        methods = {id(member): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for member in cls.body if isinstance(member, ast.FunctionDef)
                   and "staticmethod" not in (getattr(d, "id", "") for d in member.decorator_list)}
        for fn in (fn for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)):
            positional = [*fn.args.posonlyargs, *fn.args.args][id(fn) in methods:]
            first = len(positional) - len(fn.args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(math.inf, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                          if d is not None]
            name = methods[id(fn)] if fn.name == "__init__" else fn.name
            unused += [f"{stem}.{fn.name}({arg})" for index, arg in defaulted
                       if f"{stem}.{fn.name}({arg})" != "cli.main(argv)"
                       and not any(count > index or keywords is None or arg in keywords
                                   for count, keywords in calls.get(name, []))]
    assert unused == []
