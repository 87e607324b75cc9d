"""Artifact writes: each output is replaced whole or left untouched.

Every command writes through ``config.write_artifact``. A write that fails
partway, by an error or an interrupt, must leave the target with its
previous bytes (or absent) and no temporary file beside it.
"""

import ast
import builtins
import errno
import os
import pathlib

import pytest

import ligas.cli
import ligas.trees
from ligas.cli import main
from test_cli import TINY_TRAIN, pipeline  # noqa: F401 - shared module fixture

SRC = pathlib.Path(ligas.cli.__file__).parent


def _run(argv):
    """Run a command's handler without the exit-code mapping of ``main``,
    so the injected failure reaches the test."""
    parser, _ = ligas.cli.build_parser()
    args = parser.parse_args(argv)
    return ligas.cli._HANDLERS[args.command](args)


# (site, command argv, target): "{out}" is a fresh directory, and the other
# fields name inputs from the shared pipeline
SITES = [
    ("write_corpus_tsv", ["gen", "--pairs", "2", "--out", "{out}"], "corpus.tsv"),
    ("write_trees", ["gen", "--pairs", "2", "--out", "{out}"], "trees.tsv"),
    ("save_weights", ["train", "--corpus", "{corpus}", "--out", "{out}/model.bin",
                      *TINY_TRAIN], "model.bin"),
    ("loss_csv", ["train", "--corpus", "{corpus}", "--out", "{out}/model.bin",
                  *TINY_TRAIN], "model.bin.loss.csv"),
    ("write_attributions_jsonl", ["attribute", "--corpus", "{corpus}",
                                  "--weights", "{weights}", "--steps", "2",
                                  "--out", "{out}/a.jsonl"], "a.jsonl"),
    ("write_stats_csv", ["analyze", "--attributions", "{attributions}",
                         "--trees", "{trees}", "--out", "{out}"], "stats.csv"),
    ("write_scatter_csv", ["analyze", "--attributions", "{attributions}",
                           "--out", "{out}"], "scatter_cc.csv"),
    ("scatter_svg", ["analyze", "--attributions", "{attributions}",
                     "--out", "{out}"], "scatter_mc.svg"),
    ("write_patterns_csv", ["analyze", "--attributions", "{attributions}",
                            "--trees", "{trees}", "--out", "{out}"], "patterns.csv"),
    ("subtree_ranks_csv", ["analyze", "--attributions", "{attributions}",
                           "--trees", "{trees}", "--out", "{out}"], "subtree_ranks.csv"),
    ("heatmaps_html", ["render", "--attributions", "{attributions}",
                       "--out", "{out}/h.html"], "h.html"),
]


class _FailsOnSecondWrite:
    """A write-mode file whose second ``write`` raises; the first one lands."""

    def __init__(self, fh, make_error):
        self._fh, self._make_error, self._writes = fh, make_error, 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise self._make_error()
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize("previous", [None, b"previous artifact\n"], ids=["absent", "present"])
@pytest.mark.parametrize("make_error", [lambda: OSError(errno.ENOSPC, "No space left"),
                                        KeyboardInterrupt], ids=["enospc", "interrupt"])
@pytest.mark.parametrize("site, argv, target", SITES, ids=[s[0] for s in SITES])
def test_a_failed_write_leaves_the_previous_artifact(pipeline, tmp_path, monkeypatch,
                                                     site, argv, target, make_error,
                                                     previous):
    out = tmp_path / "out"
    out.mkdir()
    path = out / target
    if previous is not None:
        path.write_bytes(previous)
    names = {"out": out, "corpus": pipeline["data"] / "corpus.tsv",
             "trees": pipeline["data"] / "trees.tsv", "weights": pipeline["weights"],
             "attributions": pipeline["attributions"]}
    argv = [arg.format(**names) for arg in argv]

    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode and os.fspath(file).startswith(str(path)):
            return _FailsOnSecondWrite(fh, make_error)
        return fh

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(type(make_error())):
        _run(argv)
    monkeypatch.undo()

    if previous is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == previous
    assert sorted(p.name for p in out.rglob("*.tmp")) == []


def test_an_interrupted_second_gen_keeps_the_first_trees(tmp_path, monkeypatch):
    out = tmp_path / "data"
    assert main(["gen", "--pairs", "2", "--seed", "1", "--out", str(out)]) == 0
    first_trees = (out / "trees.tsv").read_bytes()
    first_corpus = (out / "corpus.tsv").read_bytes()

    calls = []
    real = ligas.trees.render_leafed

    def interrupted(tree):
        calls.append(tree)
        if len(calls) == 3:
            raise KeyboardInterrupt
        return real(tree)

    monkeypatch.setattr(ligas.trees, "render_leafed", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["gen", "--pairs", "2", "--seed", "2", "--out", str(out)])
    assert len(calls) == 3
    assert (out / "trees.tsv").read_bytes() == first_trees
    # each file is replaced on its own: the corpus written before the
    # interrupt is the second run's, so a multi-file command is not atomic
    assert (out / "corpus.tsv").read_bytes() != first_corpus
    assert sorted(p.name for p in out.iterdir()) == ["corpus.tsv", "trees.tsv"]


def _write_mode_opens(tree: ast.AST) -> list[int]:
    """Line numbers of ``open`` calls whose mode may write: a constant mode
    with w, a, x or +, or any mode not spelled as a constant."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        if mode is None:
            continue
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) \
                or set(mode.value) & set("wax+"):
            lines.append(node.lineno)
    return lines


def test_only_the_artifact_writer_opens_files_for_writing():
    found = {path.name: _write_mode_opens(ast.parse(path.read_text(encoding="utf-8")))
             for path in sorted(SRC.glob("*.py"))}
    assert len(found["config.py"]) == 1
    assert {name: lines for name, lines in found.items()
            if lines and name != "config.py"} == {}

