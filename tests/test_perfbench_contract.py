"""The names the benchmark's span tracer wraps must exist in the package.

``perfbench/spans.py`` looks each traced function up by name with
``getattr``; a function deleted or renamed here would crash the traced
benchmark run rather than fail a test, so this file checks the contract.
The tracer also wraps every backward rule as ``autodiff._bind`` records
it, so a traced forward/backward must give the untraced gradient.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

import ligas.cli  # noqa: F401  (the tracer patches the CLI's command table)
from ligas import autodiff, model

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


def test_every_name_the_benchmark_imports_exists():
    # perfbench's workloads import ligas names inside functions, so a deleted
    # or renamed name would fail only the benchmark run
    imported, missing = [], []
    for script in ("workloads.py", "run.py"):
        tree = ast.parse((SPANS_PATH.parent / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ligas":
                module = importlib.import_module(node.module)
                imported += [f"{node.module}.{a.name}" for a in node.names]
                missing += [f"{node.module}.{a.name}" for a in node.names
                            if not hasattr(module, a.name)]
    assert "ligas.model.forward_from_embeddings" in imported and missing == []


def test_traced_hooks_exist():
    spans = load_spans()
    cli = importlib.import_module("ligas.cli")
    assert set(spans.COMMANDS) <= set(cli._HANDLERS)
    assert callable(importlib.import_module("ligas.autodiff")._bind)
    assert callable(importlib.import_module("ligas.attribution").interpolation_points)


def test_tracer_gap_is_the_head_reshapes():
    # the tracer wraps the primitives it names; split_heads and merge_heads
    # are not named yet, so their forward time falls to the calling span
    # and their backward rules to no primitive
    spans = load_spans()
    recording = {name for name, fn in vars(autodiff).items()
                 if inspect.isfunction(fn) and fn.__module__ == autodiff.__name__
                 and not name.startswith("_") and "_bind" in fn.__code__.co_names}
    assert recording - set(spans.AUTODIFF_PRIMITIVES) == {"split_heads", "merge_heads"}


def _embedding_gradient() -> np.ndarray:
    """One small forward/backward through module attributes, so a tracer's
    patches take effect."""
    weights = model.init(model.ModelConfig(vocab_size=12, d_model=8, n_heads=2,
                                           n_layers=1, d_ff=16, max_seq_len=8))
    e = autodiff.Tensor(model.embed(weights, [2, 5, 7, 3]).data, requires_grad=True)
    pred = model.forward_from_embeddings(weights, e)
    autodiff.backward(autodiff.pick(pred.logits_tensor, 1))
    return autodiff.grad_of(e)


def test_traced_backward_matches_untraced():
    spans = load_spans()
    expected = _embedding_gradient()
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _embedding_gradient()
    finally:
        tracer.uninstall()
    assert np.array_equal(traced, expected)
    calls, _ = tracer.self_times()
    assert calls["autodiff.backward"] == 1
    assert calls["autodiff.matmul.bwd"] > 0 and calls["autodiff.softmax.bwd"] > 0
    assert np.array_equal(_embedding_gradient(), expected)  # uninstalled cleanly
