"""The public surface resolves, and so does every expmart name the benchmark
wraps.  A deletion that would break an import, or leave the benchmark's
tracer without a target, fails here instead of in a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import expmart

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("algebra", "processes", "verify", "config", "cli")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"expmart.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_imports_resolve():
    tree = ast.parse((ROOT / "src" / "expmart" / "__init__.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        source = importlib.import_module(f"expmart.{module}")
        assert getattr(expmart, name) is getattr(source, name)


def test_tracer_targets_exist():
    modules = {name: importlib.import_module(f"expmart.{name}") for name in tracer.MODULES}
    missing = [f"{m}.{f}" for m, f, _ in tracer.FUNCTIONS if not hasattr(modules[m], f)]
    for m, cls, method, _ in tracer.METHODS:
        if method not in vars(getattr(modules[m], cls, object)):
            missing.append(f"{m}.{cls}.{method}")
    if not hasattr(modules["algebra"], "_MP_LOCK"):
        missing.append("algebra._MP_LOCK")
    assert missing == []
