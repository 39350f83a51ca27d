"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by
name with ``getattr``; a renamed or deleted function must fail here, not
only when the benchmark runs with ``--trace 1``."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ untouched
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for name in tracing.TRACED:
        module, attr = name.split(".")
        assert callable(getattr(importlib.import_module(f"gatedepth.{module}"), attr, None)), name
