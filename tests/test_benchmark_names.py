"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name with ``getattr``, and its workloads (perfbench/workloads.py) and smoke
test (perfbench/test_smoke.py) use the package through module attributes; a
renamed or deleted name must fail here, not only when the benchmark runs."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the names workloads.py binds to package modules
WORKLOAD_MODULES = {"gating": "gating", "scene": "scene", "network": "network",
                    "est_mod": "estimators", "cli": "cli"}
SMOKE_MODULES = {"cli": "cli", "evaluation": "evaluation", "gating": "gating"}


def package_attributes(path, aliases):
    """Every ``alias.a.b`` chain in a file, and every ``alias.a`` plus the
    attribute name a ``monkeypatch.setattr(alias.a, "b", ...)`` replaces, as
    ``(alias, "a", "b")`` tuples. The file is parsed, never compiled or run."""
    def chain(node):
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        return (node.id, *reversed(names)) if isinstance(node, ast.Name) and node.id in aliases else None

    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute):
            used.add(chain(node))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and chain(node.args[0])):
            used.add((*chain(node.args[0]), node.args[1].value))
    used.discard(None)
    return used


def assert_resolves(aliases, used):
    for alias, *attrs in sorted(used):
        obj = importlib.import_module(f"gatedepth.{aliases[alias]}")
        for i, attr in enumerate(attrs):
            assert hasattr(obj, attr), ".".join([alias, *attrs[:i + 1]])
            obj = getattr(obj, attr)


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name in tracing.TRACED:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"gatedepth.{module}"), attr, None)), name


def test_every_package_attribute_the_workloads_use_resolves():
    used = package_attributes(PERFBENCH / "workloads.py", WORKLOAD_MODULES)
    assert {alias for alias, *_ in used} == set(WORKLOAD_MODULES)
    assert_resolves(WORKLOAD_MODULES, used)


def test_every_package_attribute_the_smoke_test_uses_resolves():
    used = package_attributes(PERFBENCH / "test_smoke.py", SMOKE_MODULES)
    assert {("cli", "prefilter_counts"), ("gating", "gated_response"),
            ("evaluation", "DepthMap", "write_pgm")} <= used
    assert_resolves(SMOKE_MODULES, used)
