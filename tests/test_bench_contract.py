"""The benchmark's hold on the library: every function ``bench/tracing.py``
wraps and every name ``bench/workloads.py`` takes from entloc must resolve,
so a refactor cannot silently break a benchmark or its ``--trace 1`` run.

The bench files are parsed, not imported.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _resolve(module: str, attr_path: str):
    obj = importlib.import_module(module)
    for part in attr_path.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(f"{obj.__name__}.{part}")
    return obj


def _traced():
    tree = ast.parse((BENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no TRACED table")


def _workload_names():
    """(module, name) of every entloc import in bench/workloads.py, and of
    every attribute read off an imported entloc module."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "entloc":
                    modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.split(".")[0] == "entloc":
            for alias in node.names:
                names.add((node.module, alias.name))
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            module = modules[node.value.id]
            if importlib.util.find_spec(module) is not None:
                names.add((module, node.attr))
    return sorted(names)


def test_tables_are_not_empty():
    assert len(_traced()) >= 10
    assert len(_workload_names()) >= 10


@pytest.mark.parametrize("module, attr", _traced(), ids=lambda x: x)
def test_traced_function_resolves(module, attr):
    assert callable(_resolve(f"entloc.{module}", attr))


@pytest.mark.parametrize("module, name", _workload_names(), ids=lambda x: x)
def test_workload_import_resolves(module, name):
    _resolve(module, name)
