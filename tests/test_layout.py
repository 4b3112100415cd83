"""Who owns what, read from the sources with ``ast``.

``verify`` owns every check: its rows and its tolerances.  ``cli.py`` only
draws inputs, builds tasks and runs them, so it constructs no ``Check`` and
defines no ``*_TOL`` constant; it holds functions and data, and no class.  ``verify.py`` runs its mpmath arithmetic on
libmp value tuples at explicit precisions, so it touches neither mpmath's
global precision (``workdps``) nor the algebra's lock for it.  One process
pool in ``cli.py`` runs the sweep's path blocks and the tasks, so
``verify.py`` imports no concurrency and no other module creates an
executor.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "expmart"


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text(), filename=name)


def _modules(tree: ast.Module) -> set[str]:
    """Every module imported, as ``import m`` or ``from m import ...``."""
    return {
        name
        for node in ast.walk(tree)
        for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module] if isinstance(node, ast.ImportFrom) and node.module
            else []
        )
    }


def _names(tree: ast.Module) -> list[tuple[int, str]]:
    """Every name, attribute and imported name, with its line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            found.append((node.lineno, node.attr))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(node.lineno, alias.name) for alias in node.names]
    return found


def test_cli_constructs_no_check_and_defines_no_tolerance():
    tree = _tree("cli.py")
    constructed = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "Check")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "Check")
        )
    ]
    tolerances = [
        (node.lineno, target.id)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_TOL")
    ]
    assert constructed == [] and tolerances == []


def test_cli_defines_no_class():
    tree = _tree("cli.py")
    classes = [(node.lineno, node.name) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert classes == []


def test_verify_uses_no_mpmath_global_precision():
    tree = _tree("verify.py")
    used = [(line, name) for line, name in _names(tree) if name in ("_MP_LOCK", "workdps")]
    assert used == []
    assert {m for m in _modules(tree) if m.split(".")[0] == "mpmath"} <= {"mpmath.libmp"}


def test_verify_imports_no_concurrency():
    modules = _modules(_tree("verify.py"))
    assert {m for m in modules if m.split(".")[0] in ("concurrent", "threading")} == set()


def test_only_cli_creates_an_executor():
    creators = {
        path.name
        for path in SRC.glob("*.py")
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.Call)
        and (getattr(node.func, "id", None) or getattr(node.func, "attr", "")).endswith("Executor")
    }
    assert creators == {"cli.py"}
