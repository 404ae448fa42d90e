"""Source hygiene: every name a module imports is used in that module, every
parameter a function takes is read in its body, every module-level
function or class is referenced somewhere in the package, an export from
the package ``__init__`` included, and so is every method that is not a
dunder.

The package ``__init__`` is skipped for imports, since its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "filtmult"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ALL_MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, quoted annotations such as "MonomialIdeal" included."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{module} imports names it never uses: {unused}"


def is_abstract(func: ast.FunctionDef) -> bool:
    """A body that is only ``raise NotImplementedError``, after any docstring."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def handler_names(tree: ast.Module) -> set[str]:
    """The task handlers listed in a module-level ``_HANDLERS`` dict, which
    all take the same ``(spec, args)``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "_HANDLERS" for t in node.targets
        ):
            return {v.id for v in node.value.values if isinstance(v, ast.Name)}
    return set()


def unread_parameters(tree: ast.Module) -> dict[str, list[str]]:
    handlers = handler_names(tree)
    unread = {}
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or is_abstract(func):
            continue
        a = func.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        exempt = {"self", "cls"} | ({"spec", "args"} if func.name in handlers else set())
        read = {n.id for stmt in func.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        missing = [p for p in params if p not in exempt and p not in read]
        if missing:
            unread[f"{func.name}:{func.lineno}"] = missing
    return unread


@pytest.mark.parametrize("module", ALL_MODULES)
def test_functions_read_every_parameter(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    unread = unread_parameters(tree)
    assert not unread, f"{module} has parameters its functions never read: {unread}"


def definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level functions and classes."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read as variables, imported, or reached as attributes."""
    names = used_names(tree) | set(imported_names(tree))
    return names | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_private_definition_is_referenced():
    """A module-level function or class is reached by some module, its own
    included, or is exported by the package ``__init__``."""
    trees = {m: ast.parse((PACKAGE / m).read_text(encoding="utf-8")) for m in ALL_MODULES}
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    unreferenced = {
        f"{module}:{name}:{line}"
        for module, tree in trees.items()
        for name, line in definitions(tree).items()
        if name not in referenced
    }
    assert not unreferenced, f"definitions that no module references: {sorted(unreferenced)}"


# Methods that only callers outside the package reach: the acceptance
# criteria evaluate a fitted mixed-multiplicity polynomial and a
# quasi-polynomial, and read its top-degree coefficients.
OUTSIDE_API = {"polynomial_value", "evaluate", "top_coefficients"}


def methods(tree: ast.Module) -> dict[str, int]:
    """Methods of module-level classes, dunders left out, as
    ``Class.method`` with their lines."""
    return {
        f"{cls.name}.{node.name}": node.lineno
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def test_every_method_is_referenced():
    """A method is reached by name, as an attribute or a bare name, from
    some module of the package, unless it is in ``OUTSIDE_API``."""
    trees = {m: ast.parse((PACKAGE / m).read_text(encoding="utf-8")) for m in ALL_MODULES}
    referenced = set().union(*(referenced_names(tree) for tree in trees.values())) | OUTSIDE_API
    unreferenced = {
        f"{module}:{name}:{line}"
        for module, tree in trees.items()
        for name, line in methods(tree).items()
        if name.split(".")[1] not in referenced
    }
    assert not unreferenced, f"methods that no module references: {sorted(unreferenced)}"
