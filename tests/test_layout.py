"""Who owns what, read from the sources with ``ast``.

``verify`` owns every check: its rows and its tolerances.  ``cli.py`` only
draws inputs, builds tasks and runs them, so it constructs no ``Check`` and
defines no ``*_TOL`` constant; it holds functions and data, and no class.
``verify.py`` imports no ``mpmath`` module (its PDE stencils run in
float64), so it touches neither mpmath's global precision (``workdps``) nor
the algebra's lock for it.  One list of jobs in ``cli.py`` holds the sweep's
path blocks and the tasks, and one process pool runs them, so
``verify.py`` imports no concurrency and no
other module creates an executor; a job takes the sums it reads as
arguments, so no statement rewrites an entry of that list.  ``verify.ProcessElement`` is a record
of values, so none of its fields holds a function.  One rule in
``verify.py`` decides an exponent's overflow from column ranges, so the
evaluation, the column kernel and the sweep catch none.  Each suite is one
entry of one table in ``cli.py``, and a task names the integrands whose
sums it reads, so no code in ``cli.py`` branches on a suite's name.
``algebra.inner_product`` is the one scalar reduction: only it sums moments
and escalates, and the expectations are inner products with 1.  The sampled
checks take their Ito sums as arrays and the sweep's merge gives each
integrand its sums and its error, so no ``verify_*`` parameter is a
callable and no function in ``verify.py`` returns a function it defines.
"""

import argparse
import ast
from pathlib import Path

from expmart import cli
from expmart.config import SUITES

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


def test_cli_binds_one_job_list():
    # the sweep's blocks and the tasks are one list of jobs with one runner
    tree = _tree("cli.py")
    bound = {
        target.id: node.value
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    defined = set(bound) | {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    lists = [name for name, value in bound.items() if isinstance(value, ast.List)]
    assert [name for name in lists if name != "__all__"] == ["_JOBS"]
    assert defined & {"_BLOCKS", "_TASKS", "_run_task", "_run_block", "_lost", "_sweep"} == set()


def test_cli_assigns_no_element_of_the_job_list():
    # a job takes the sums it reads as arguments: the list is set whole, once
    # per run, before the workers fork, and no entry is rewritten after
    def elements(target: ast.expr) -> list[ast.Subscript]:
        if isinstance(target, (ast.Tuple, ast.List)):
            return [node for elt in target.elts for node in elements(elt)]
        return [target] if isinstance(target, ast.Subscript) else []

    rewritten = [
        node.lineno
        for node in ast.walk(_tree("cli.py"))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        for sub in elements(target)
        if isinstance(sub.value, ast.Name) and sub.value.id == "_JOBS"
        and not (
            isinstance(sub.slice, ast.Slice)
            and sub.slice.lower is sub.slice.upper is sub.slice.step is None
        )
    ]
    assert rewritten == []


def test_verify_uses_no_mpmath_global_precision():
    tree = _tree("verify.py")
    used = [(line, name) for line, name in _names(tree) if name in ("_MP_LOCK", "workdps")]
    assert used == []
    assert {m for m in _modules(tree) if m.split(".")[0] == "mpmath"} == set()


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


def test_process_element_has_no_callable_field():
    # the integrands are data: nothing a field holds is a closure or a function
    cls = next(
        node for node in ast.walk(_tree("verify.py"))
        if isinstance(node, ast.ClassDef) and node.name == "ProcessElement"
    )
    annotations = [ast.unparse(node.annotation) for node in cls.body if isinstance(node, ast.AnnAssign)]
    assert annotations and [a for a in annotations if "Callable" in a] == []


def test_verify_decides_exponent_overflow_in_one_function():
    # Estimate.from_samples builds the other overflow error, the sample
    # moments', with its own message
    functions = [n for n in ast.walk(_tree("verify.py")) if isinstance(n, ast.FunctionDef)]
    builds = [
        (fn.name, any(k.arg == "message" for k in node.keywords))
        for fn in functions
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "EvaluationOverflowError"
    ]
    assert sorted(builds) == [("_first_overflow", False), ("from_samples", True)]
    kernel = {
        fn.name: fn for fn in functions if fn.name in ("_evaluate", "_ito_columns", "sweep_block")
    }
    catching = [
        name for name, fn in kernel.items()
        if any(isinstance(node, (ast.Try, ast.TryStar)) for node in ast.walk(fn))
    ]
    assert len(kernel) == 3 and catching == []


def test_each_suite_is_declared_once_in_cli():
    assert tuple(cli._SUITES) == SUITES
    [sub] = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert tuple(sub.choices) == SUITES + ("all",)
    tree = _tree("cli.py")
    # a suite's name is data: no function compares a value against one
    compared = [
        (fn.name, node.lineno)
        for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn) if isinstance(node, ast.Compare)
        for operand in (node.left, *node.comparators)
        for leaf in ast.walk(operand)
        if isinstance(leaf, ast.Constant) and leaf.value in SUITES
    ]
    assert compared == []
    # which tasks read the sweep's sums is task data, not a list of suites
    bound = {
        target.id
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    assert bound & {"_SWEPT", "Register", "Sweep"} == set()


def test_inner_product_is_the_algebras_one_reduction():
    functions = {n.name: n for n in _tree("algebra.py").body if isinstance(n, ast.FunctionDef)}
    used = {
        name: {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}
        for name, fn in functions.items()
    }

    def users(name: str) -> set[str]:
        return {fn for fn, names in used.items() if name in names}

    assert users("_reduce") == users("_moment_addends") == {"inner_product"}
    assert users("_mp_moment_sum") == {"_mp_inner_product"}
    for name in ("expectation", "gaussian_expectation"):
        assert {n for n in used[name] if n == "_reduce" or n.startswith("_mp_")} == set()
    # D and D* write the lowering q (p' + c p) once
    assert users("_lowered") == {"apply_D", "apply_D_star"}


def test_verify_takes_and_returns_values_not_functions():
    functions = [n for n in ast.walk(_tree("verify.py")) if isinstance(n, ast.FunctionDef)]
    callable_parameters = [
        (fn.name, arg.arg)
        for fn in functions if fn.name.startswith("verify_")
        for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)
        if arg.annotation is not None and "Callable" in ast.unparse(arg.annotation)
    ]
    assert callable_parameters == []
    returning_a_function = []
    for fn in functions:
        inner = {n.name for n in ast.walk(fn) if isinstance(n, ast.FunctionDef) and n is not fn}
        returning_a_function += [
            fn.name
            for node in ast.walk(fn) if isinstance(node, ast.Return)
            if isinstance(node.value, ast.Lambda)
            or (isinstance(node.value, ast.Name) and node.value.id in inner)
        ]
    assert returning_a_function == []
