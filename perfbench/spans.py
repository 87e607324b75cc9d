"""Span tracing of the ligas layers, installed from outside the package.

``Tracer.install`` replaces the public functions of each ligas module with
wrappers that record a span (name, start, end, parent span) around every
call. A function is replaced wherever a ligas module holds it, including
the names that ``ligas.cli``, ``ligas.attribution`` and ``ligas.model``
import directly, and the command table of the CLI. Backward rules, which
the autodiff primitives hand to ``autodiff._bind`` as closures, are wrapped
as they are recorded, so their time is charged to the primitive that made
them. Spans stay in memory until ``write_spans``.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

AUTODIFF_PRIMITIVES = (
    "matmul", "add", "sub", "mul", "scale", "tanh", "exp", "log", "gelu",
    "softmax", "layer_norm", "rows", "slice_cols", "concat_cols", "transpose",
    "take_row", "pick", "sum_all",
)
# span name -> (module, function names); one span name may cover several
# functions that do the same job (reading and writing one file format)
SPANS = {
    **{f"autodiff.{p}": ("autodiff", (p,)) for p in AUTODIFF_PRIMITIVES},
    "autodiff.backward": ("autodiff", ("backward",)),
    "model.forward": ("model", ("forward_from_embeddings",)),
    "model.predict": ("model", ("predict",)),
    "model.embed": ("model", ("embed",)),
    "model.train": ("model", ("train",)),
    "model.weights_io": ("model", ("save_weights", "load_weights")),
    "attribution.ig": ("attribution", ("integrated_gradients",)),
    "attribution.path_integral": ("attribution", ("path_integral",)),
    "attribution.jsonl_io": ("attribution", ("write_attributions_jsonl",
                                             "read_attributions_jsonl")),
    "tokenizer.tokenize": ("tokenizer", ("tokenize",)),
    "tokenizer.build_vocab": ("tokenizer", ("build_vocab",)),
    "corpus.generate": ("corpus", ("generate_all", "generate_synthetic")),
    "corpus.tsv_io": ("corpus", ("read_corpus_tsv", "write_corpus_tsv")),
    "trees.io": ("trees", ("read_trees", "write_trees", "write_patterns_csv")),
    "trees.align": ("trees", ("align",)),
    "trees.subtree_scores": ("trees", ("subtree_scores",)),
    "trees.mine_patterns": ("trees", ("mine_patterns",)),
    "trees.rank_subtrees": ("trees", ("rank_subtrees",)),
    "analysis.sign_stats": ("analysis", ("sign_stats", "mean_abs_ligas_by_gold")),
    "analysis.scatter": ("analysis", ("scatter_tables", "write_scatter_csv",
                                      "render_scatter_svg")),
    "analysis.stats_csv": ("analysis", ("write_stats_csv",)),
    "analysis.heatmap_render": ("analysis", ("heatmap_render",)),
}
COMMANDS = ("gen", "train", "attribute", "analyze", "render")
HEAD_OPS = ("slice_cols", "concat_cols", "transpose")


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []
        self.points = 0  # interpolation points asked of path_integral

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            start[index] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every function in SPANS wherever a ligas module holds it."""
        cli = sys.modules["ligas.cli"]
        wrapped = {}  # id(original) -> wrapper; the wrappers keep the originals alive
        for span, (module_name, functions) in SPANS.items():
            module = sys.modules[f"ligas.{module_name}"]
            for fn_name in functions:
                fn = getattr(module, fn_name)
                wrapped[id(fn)] = self._wrap_special(span, fn)
        for command in COMMANDS:
            fn = cli._HANDLERS[command]
            wrapped[id(fn)] = self.wrap(f"cli.{command}", fn)
        namespaces = [vars(m) for n, m in sys.modules.items()
                      if n == "ligas" or n.startswith("ligas.")]
        for namespace in namespaces + [cli._HANDLERS]:
            for key, value in list(namespace.items()):
                if id(value) in wrapped:
                    self._patches.append((namespace, key, value))
                    namespace[key] = wrapped[id(value)]
        autodiff = vars(sys.modules["ligas.autodiff"])
        self._patches.append((autodiff, "_bind", autodiff["_bind"]))
        autodiff["_bind"] = self._traced_bind(autodiff["_bind"])

    def uninstall(self) -> None:
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    def _wrap_special(self, span: str, fn):
        if span != "attribution.path_integral":
            return self.wrap(span, fn)
        points_of = sys.modules["ligas.attribution"].interpolation_points

        def counted(f, x, baseline, m, rule, *args, **kwargs):
            self.points += len(points_of(m, rule))
            return fn(f, x, baseline, m, rule, *args, **kwargs)

        return self.wrap(span, counted)

    def _traced_bind(self, bind):
        """Charge each recorded backward rule to the primitive that made it."""
        names, span_name, stack = self.names, self.span_name, self._stack

        def traced_bind(out, backward_fn, *operands):
            kind = names[span_name[stack[-1]]] if stack else "autodiff.other"
            return bind(out, self.wrap(kind + ".bwd", backward_fn), *operands)

        return traced_bind

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and summed self time per span name."""
        n = len(self.span_name)
        if n == 0:
            return {}, {}
        names = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        own = duration - child
        calls = np.bincount(names, minlength=len(self.names))
        seconds = np.bincount(names, weights=own, minlength=len(self.names))
        return ({name: int(calls[i]) for i, name in enumerate(self.names)},
                {name: float(seconds[i]) for i, name in enumerate(self.names)})

    def total_s(self, name: str) -> float:
        """Summed duration of the spans called ``name``, children included."""
        name_id = self._ids.get(name)
        return sum(end - start for n, start, end in zip(self.span_name, self.start, self.end)
                   if n == name_id)

    def count_inside(self, name: str, ancestor: str) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        name_id, target = self._ids.get(name), self._ids.get(ancestor)
        count = 0
        for i, n in enumerate(self.span_name):
            if n != name_id:
                continue
            p = self.parent[i]
            while p >= 0 and self.span_name[p] != target:
                p = self.parent[p]
            count += p >= 0
        return count

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i, (name_id, parent, start, end) in enumerate(
                    zip(self.span_name, self.parent, self.start, self.end)):
                fh.write(f"{i},{self.names[name_id]},{parent},"
                         f"{start - t0:.9f},{end - t0:.9f}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer figures named in BENCHMARK.json, from one traced pass."""
    calls, own = tracer.self_times()
    c = defaultdict(int, calls)
    s = defaultdict(float, own)

    def self_of(*names: str) -> float:
        return sum(s[n] + s[n + ".bwd"] for n in names)

    prims = [f"autodiff.{p}" for p in AUTODIFF_PRIMITIVES]
    backward_calls = c["autodiff.backward"]
    bwd_rules = sum(c[p + ".bwd"] for p in prims)
    ig_s = tracer.total_s("attribution.ig")
    m = {
        "autodiff.fwd.calls": sum(c[p] for p in prims),
        "autodiff.fwd.self_s": sum(s[p] for p in prims),
        "autodiff.backward.calls": backward_calls,
        "autodiff.backward.self_s": s["autodiff.backward"] + sum(s[p + ".bwd"] for p in prims),
        "autodiff.tape_ops_per_backward": bwd_rules / backward_calls if backward_calls else 0.0,
        "autodiff.matmul.self_s": self_of("autodiff.matmul"),
        "autodiff.softmax.self_s": self_of("autodiff.softmax"),
        "autodiff.layer_norm.self_s": self_of("autodiff.layer_norm"),
        "autodiff.gelu.self_s": self_of("autodiff.gelu"),
        "autodiff.heads.self_s": self_of(*(f"autodiff.{p}" for p in HEAD_OPS)),
        "autodiff.rows.self_s": self_of("autodiff.rows"),
        "model.forward.calls": c["model.forward"],
        "model.forward.self_s": s["model.forward"],
        "model.train.self_s": s["model.train"],
        "model.predict.calls": c["model.predict"],
        "model.embed.calls": c["model.embed"],
        "model.weights_io_s": s["model.weights_io"],
        "attribution.ig.calls": c["attribution.ig"],
        "attribution.ig.self_s": s["attribution.ig"],
        "attribution.path_integral.self_s": s["attribution.path_integral"],
        "attribution.evals_per_point": (tracer.count_inside("model.forward", "attribution.ig")
                                        / tracer.points if tracer.points else 0.0),
        "attribution.points_per_s": tracer.points / ig_s if ig_s else 0.0,
        "attribution.jsonl_io_s": s["attribution.jsonl_io"],
        "tokenizer.tokenize.calls": c["tokenizer.tokenize"],
        "tokenizer.tokenize.s": s["tokenizer.tokenize"],
        "tokenizer.build_vocab.s": s["tokenizer.build_vocab"],
        "corpus.generate.s": s["corpus.generate"],
        "corpus.tsv_io_s": s["corpus.tsv_io"],
        "trees.io_s": s["trees.io"],
        "trees.align.s": s["trees.align"],
        "trees.subtree_scores.s": s["trees.subtree_scores"],
        "trees.mine_patterns.s": s["trees.mine_patterns"],
        "trees.rank_subtrees.s": s["trees.rank_subtrees"],
        "analysis.sign_stats.s": s["analysis.sign_stats"],
        "analysis.scatter.s": s["analysis.scatter"],
        "analysis.stats_csv.s": s["analysis.stats_csv"],
        "analysis.heatmap_render.s": s["analysis.heatmap_render"],
    }
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = s[f"cli.{command}"]
    m["trace.spans"] = len(tracer.span_name)
    return m
