"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name with ``getattr``, and its workloads (perfbench/workloads.py) call the
package through module attributes; a renamed or deleted function must fail
here, not only when the benchmark runs."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the names workloads.py binds to package modules
WORKLOAD_MODULES = {"gating": "gating", "scene": "scene", "network": "network",
                    "est_mod": "estimators", "cli": "cli"}


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
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))  # parsed, not run
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in WORKLOAD_MODULES}
    assert {alias for alias, _ in used} == set(WORKLOAD_MODULES)
    for alias, attr in sorted(used):
        module = importlib.import_module(f"gatedepth.{WORKLOAD_MODULES[alias]}")
        assert hasattr(module, attr), f"{alias}.{attr}"
