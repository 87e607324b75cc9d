"""The names the benchmark's span tracer wraps must exist in the package.

``perfbench/spans.py`` looks each traced function up by name with
``getattr``; a function deleted or renamed here would crash the traced
benchmark run rather than fail a test, so this file checks the contract.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    spans = load_spans()
    names = [(module_name, fn_name) for module_name, functions in spans.SPANS.values()
             for fn_name in functions]
    missing = [f"ligas.{m}.{fn}" for m, fn in names
               if not callable(getattr(importlib.import_module(f"ligas.{m}"), fn, None))]
    assert names and missing == []


def test_traced_hooks_exist():
    spans = load_spans()
    cli = importlib.import_module("ligas.cli")
    assert set(spans.COMMANDS) <= set(cli._HANDLERS)
    assert callable(importlib.import_module("ligas.autodiff")._bind)
    assert callable(importlib.import_module("ligas.attribution").interpolation_points)
