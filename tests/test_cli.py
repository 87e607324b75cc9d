"""Command-line behavior: exit codes, config files, digests, pipelines.

Everything runs in-process through ``main(argv)`` so exit codes and stderr
are observable without subprocess overhead; one tiny end-to-end pipeline is
shared across the file.
"""

import contextlib
import io
import json
import math
import os
import re
import shutil
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import ligas.cli
from ligas.attribution import read_attributions_jsonl
from ligas.cli import main
from ligas.config import CATEGORIES
from ligas.model import CLASSES
from ligas.trees import MAX_TREE_DEPTH, exact_fsum, read_trees, to_pattern
from test_trees import nested, rank_oracle

TINY_TRAIN = [
    "--vocab-size", "128", "--d-model", "16", "--n-heads", "2",
    "--n-layers", "1", "--d-ff", "24", "--max-seq-len", "16",
    "--lr", "2e-3", "--epochs", "2", "--batch", "8", "--seed", "7",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> train -> attribute -> analyze -> render, tiny settings."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    out = root / "reports"
    weights = root / "model.bin"
    attributions = root / "attributions.jsonl"
    heatmaps = root / "heatmaps.html"

    assert main(["gen", "--pairs", "2", "--seed", "7", "--out", str(data)]) == 0
    assert main(["train", "--corpus", str(data / "corpus.tsv"),
                 "--out", str(weights), *TINY_TRAIN]) == 0
    assert main(["attribute", "--corpus", str(data / "corpus.tsv"),
                 "--weights", str(weights), "--steps", "4",
                 "--out", str(attributions)]) == 0
    assert main(["analyze", "--attributions", str(attributions),
                 "--trees", str(data / "trees.tsv"), "--out", str(out)]) == 0
    assert main(["render", "--attributions", str(attributions),
                 "--out", str(heatmaps)]) == 0
    return {
        "data": data, "out": out, "weights": weights,
        "attributions": attributions, "heatmaps": heatmaps,
    }


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------


def test_pipeline_produces_every_artifact(pipeline):
    produced = [
        pipeline["data"] / "corpus.tsv",
        pipeline["data"] / "trees.tsv",
        pipeline["weights"],
        pipeline["weights"].with_suffix(".bin.loss.csv"),
        pipeline["attributions"],
        pipeline["out"] / "stats.csv",
        pipeline["out"] / "scatter_cc.csv",
        pipeline["out"] / "scatter_cc.svg",
        pipeline["out"] / "scatter_mc.csv",
        pipeline["out"] / "scatter_mc.svg",
        pipeline["out"] / "patterns.csv",
        pipeline["out"] / "subtree_ranks.csv",
        pipeline["heatmaps"],
    ]
    for path in produced:
        assert path.exists(), path
        assert path.stat().st_size > 0, path
    # the weight header carries the vocabulary; no side file is written
    assert not pipeline["weights"].with_suffix(".bin.vocab").exists()


def test_every_text_artifact_declares_a_digest(pipeline):
    text_files = [
        pipeline["data"] / "corpus.tsv",
        pipeline["data"] / "trees.tsv",
        pipeline["weights"].with_suffix(".bin.loss.csv"),
        pipeline["out"] / "stats.csv",
        pipeline["out"] / "scatter_cc.csv",
        pipeline["out"] / "scatter_cc.svg",
        pipeline["out"] / "scatter_mc.csv",
        pipeline["out"] / "scatter_mc.svg",
        pipeline["out"] / "patterns.csv",
        pipeline["out"] / "subtree_ranks.csv",
        pipeline["heatmaps"],
    ]
    for path in text_files:
        head = "\n".join(path.read_text(encoding="utf-8").splitlines()[:8])
        match = re.search(r"config_digest=([0-9a-f]{12})\b", head)
        assert match, f"{path} carries no digest"

    header = json.loads(
        pipeline["attributions"].read_text(encoding="utf-8").splitlines()[0]
    )
    assert re.fullmatch(r"[0-9a-f]{12}", header["config_digest"])
    assert b"config_digest" in pipeline["weights"].read_bytes()[:4096]


# base argv per command: required arguments only, every other flag at its default
DIGEST_ARGV = {
    "gen": ["gen", "--out", "d"],
    "train": ["train", "--corpus", "c.tsv", "--out", "w.bin"],
    "analyze": ["analyze", "--attributions", "a.jsonl", "--trees", "t.tsv", "--out", "r"],
    "render": ["render", "--attributions", "a.jsonl", "--out", "h.html"],
}


def _other_value(action, current):
    """A command-line value for ``action`` that differs from ``current``."""
    if action.choices:
        return next(c for c in action.choices if c != current)
    if action.type in (int, float):
        return str(1 if current is None else current + 1)
    return f"other-{current}"


@pytest.mark.parametrize("command", sorted(DIGEST_ARGV))
def test_digest_follows_every_setting_and_no_path(command):
    parser, commands = ligas.cli.build_parser()
    base = DIGEST_ARGV[command]
    args = parser.parse_args(base)
    digest = ligas.cli._settings_digest(args)
    for action in commands[command]._actions:
        if action.dest == "help":
            continue
        flag = action.option_strings[-1]
        if action.dest in ligas.cli._PATH_ARGS:
            changed = parser.parse_args(base + [flag, "elsewhere/file"])
            assert ligas.cli._settings_digest(changed) == digest, flag
        else:
            value = _other_value(action, getattr(args, action.dest))
            changed = parser.parse_args(base + [flag, value])
            assert ligas.cli._settings_digest(changed) != digest, flag


def test_written_digests_are_the_settings_digests(pipeline, tmp_path):
    parser, _ = ligas.cli.build_parser()
    out = tmp_path / "gen"
    argv = ["gen", "--pairs", "1", "--seed", "3", "--category", "SVA", "--out", str(out)]
    assert main(argv) == 0
    digest = ligas.cli._settings_digest(parser.parse_args(argv))
    for name in ("corpus.tsv", "trees.tsv"):
        first = (out / name).read_text(encoding="utf-8").splitlines()[0]
        assert first == f"# ligas gen config_digest={digest}"
    argv = ["analyze", "--attributions", "a", "--trees", "t", "--out", "o"]
    digest = ligas.cli._settings_digest(parser.parse_args(argv))
    first = (pipeline["out"] / "patterns.csv").read_text(encoding="utf-8").splitlines()[0]
    assert first == f"# ligas analyze config_digest={digest}"


def test_attribution_records_cover_the_corpus(pipeline):
    lines = pipeline["attributions"].read_text(encoding="utf-8").splitlines()
    records = [json.loads(l) for l in lines[1:]]
    assert len(records) == 20  # 2 pairs x 2 x 5 categories
    assert {r["category"] for r in records} == {"CIA", "RAA", "SVA", "SVO", "WHE"}
    sample = records[0]
    assert sample["id"] == "CIA-0000-LA"
    assert [w["text"] for w in sample["words"]][-1] == "."


def test_loss_trace_has_one_row_per_epoch(pipeline):
    lines = (pipeline["weights"].with_suffix(".bin.loss.csv")
             .read_text(encoding="utf-8").splitlines())
    assert lines[1] == "epoch,mean_loss"
    rows = [l for l in lines if not l.startswith("#")][1:]
    assert len(rows) == 2
    assert rows[0].startswith("0,")
    assert any(l.startswith("# train_accuracy=") for l in lines)


def test_subtree_ranks_layout(pipeline):
    lines = (pipeline["out"] / "subtree_ranks.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "category,label,pattern,count,subtree_path,subtree,ligas"
    body = lines[2:]
    assert body
    for row in body:
        category, label, pattern, count, path, subtree, ligas = row.split(",")
        assert label in ("LA", "LUA")
        assert pattern.startswith("(ROOT")
        assert subtree.startswith("(")
        assert path == "" or re.fullmatch(r"\d+(\.\d+)*", path)
        float(ligas)


def test_subtree_ranks_match_the_per_path_oracle(pipeline):
    _, records = read_attributions_jsonl(str(pipeline["attributions"]))
    trees = read_trees(str(pipeline["data"] / "trees.tsv"))
    groups = {}
    for r in records:
        _, tree = trees[r["id"]]
        key = (r["category"], r["gold"], to_pattern(tree))
        groups.setdefault(key, (tree, []))[1].append([w["ligas"] for w in r["words"]])
    expected = []
    for (category, label, pattern), (tree, rows) in sorted(groups.items()):
        path, fragment, total = rank_oracle(tree, rows)
        expected.append(f"{category},{label},{pattern},{len(rows)},"
                        f"{'.'.join(map(str, path))},{fragment},{float(total)!r}")
    lines = (pipeline["out"] / "subtree_ranks.csv").read_text(encoding="utf-8").splitlines()
    assert lines[2:] == expected


def test_analyze_builds_each_pattern_once_per_record(pipeline, tmp_path, monkeypatch):
    import ligas.trees

    real, roots, depth = ligas.trees.to_pattern, [], [0]

    def counting(tree):  # to_pattern recurses through this name; count whole trees
        if not depth[0]:
            roots.append(tree)
        depth[0] += 1
        try:
            return real(tree)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(ligas.trees, "to_pattern", counting)
    out = tmp_path / "counted"
    assert main(["analyze", "--attributions", str(pipeline["attributions"]),
                 "--trees", str(pipeline["data"] / "trees.tsv"), "--out", str(out)]) == 0
    assert len(roots) == 20  # one call per matched record
    for name in ("patterns.csv", "subtree_ranks.csv"):
        assert (out / name).read_bytes() == (pipeline["out"] / name).read_bytes()


def test_render_selects_ids(pipeline, tmp_path):
    out = tmp_path / "two.html"
    code = main(["render", "--attributions", str(pipeline["attributions"]),
                 "--ids", "CIA-0000-LA, CIA-0001-LUA", "--out", str(out)])
    assert code == 0
    html = out.read_text(encoding="utf-8")
    assert html.count("id=CIA-") == 2
    assert "id=CIA-0000-LA" in html and "id=CIA-0001-LUA" in html
    assert html.strip().startswith("<!DOCTYPE html>")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def test_gen_is_byte_reproducible(pipeline, tmp_path):
    again = tmp_path / "again"
    assert main(["gen", "--pairs", "2", "--seed", "7", "--out", str(again)]) == 0
    for name in ("corpus.tsv", "trees.tsv"):
        assert (again / name).read_bytes() == (pipeline["data"] / name).read_bytes()


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------


def test_no_command_is_a_usage_error(capsys):
    assert main([]) == 1
    assert "usage error:" in capsys.readouterr().err


def test_zero_steps_is_a_usage_error(pipeline, tmp_path, capsys):
    code = main(["attribute", "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--weights", str(pipeline["weights"]), "--steps", "0",
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 1
    assert "steps must be >= 1" in capsys.readouterr().err


def test_bad_choice_is_a_usage_error(tmp_path, capsys):
    assert main(["gen", "--category", "NOPE", "--out", str(tmp_path)]) == 1
    assert "invalid choice" in capsys.readouterr().err


def test_missing_input_file_is_a_data_error(tmp_path, capsys):
    code = main(["train", "--corpus", str(tmp_path / "absent.tsv"),
                 "--out", str(tmp_path / "w.bin")])
    assert code == 2
    assert "data error:" in capsys.readouterr().err


def test_unknown_render_id_is_a_data_error(pipeline, tmp_path, capsys):
    code = main(["render", "--attributions", str(pipeline["attributions"]),
                 "--ids", "GHOST-0000-LA", "--out", str(tmp_path / "x.html")])
    assert code == 2
    assert "ids not present" in capsys.readouterr().err


def test_weights_with_attention_key_biases_are_a_data_error(pipeline, tmp_path, capsys):
    # files written before the key bias was dropped carry layer{i}.attn.bk
    from types import SimpleNamespace
    from ligas.model import load_weights, save_weights

    weights = load_weights(str(pipeline["weights"]))
    arrays = {}
    for name, arr in weights.arrays.items():
        arrays[name] = arr
        if name.endswith(".attn.wk"):
            arrays[name[: -len("wk")] + "bk"] = np.zeros(arr.shape[1])
    old = tmp_path / "old.bin"
    save_weights(SimpleNamespace(config=weights.config, arrays=arrays,
                                 vocab=weights.vocab), str(old))
    code = main(["attribute", "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--weights", str(old), "--steps", "4", "--out", str(tmp_path / "a.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{old}: weight tensor names do not match" in err
    assert "unexpected: ['layer0.attn.bk']" in err
    assert not (tmp_path / "a.jsonl").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_divergence_is_a_numeric_error(pipeline, tmp_path, capsys):
    code = main(["train", "--corpus", str(pipeline["data"] / "corpus.tsv"),
                 "--out", str(tmp_path / "w.bin"),
                 "--vocab-size", "128", "--d-model", "16", "--n-heads", "2",
                 "--n-layers", "1", "--d-ff", "24", "--max-seq-len", "16",
                 "--lr", "1e308", "--epochs", "1", "--batch", "8"])
    assert code == 3
    assert "numeric error:" in capsys.readouterr().err


def test_bad_threads_values_are_usage_errors(tmp_path, capsys):
    # every command runs serially; --threads is not an option of any of them
    for value in ("2", "0"):
        assert main(["gen", "--threads", value, "--out", str(tmp_path / "a")]) == 1
        assert "unrecognized arguments: --threads" in capsys.readouterr().err
    assert not (tmp_path / "a").exists()


def test_over_length_sentence_in_attribute_names_it(pipeline, tmp_path, capsys,
                                                    monkeypatch):
    calls = []
    real = ligas.cli.integrated_gradients
    monkeypatch.setattr(ligas.cli, "integrated_gradients",
                        lambda *args: calls.append(args) or real(*args))
    corpus = tmp_path / "long.tsv"
    # valid pipeline sentences first: the whole corpus is checked before any is attributed
    text = (pipeline["data"] / "corpus.tsv").read_text(encoding="utf-8")
    corpus.write_text(text + "SVA-9999-LA\tSVA\tLA\t" + "the dog barks " * 8 + ".\n",
                      encoding="utf-8")
    line = text.count("\n") + 1
    code = main(["attribute", "--corpus", str(corpus),
                 "--weights", str(pipeline["weights"]), "--steps", "4",
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert calls == []
    err = capsys.readouterr().err
    assert f"{corpus}:{line}: sentence 'SVA-9999-LA': " in err
    assert "exceed max_seq_len 16" in err
    assert not (tmp_path / "x.jsonl").exists()


def test_over_length_sentence_in_train_names_it(pipeline, tmp_path, capsys):
    corpus = tmp_path / "long.tsv"
    text = (pipeline["data"] / "corpus.tsv").read_text(encoding="utf-8")
    corpus.write_text(text + "SVA-9999-LA\tSVA\tLA\t" + "the dog barks " * 8 + ".\n",
                      encoding="utf-8")
    line = text.count("\n") + 1
    code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "w.bin"),
                 *TINY_TRAIN])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{corpus}:{line}: sentence 'SVA-9999-LA': " in err
    assert "exceed max_seq_len 16" in err
    assert not (tmp_path / "w.bin").exists()


@pytest.mark.parametrize("keep, holdout, fragment", [
    (lambda line: not line.startswith("CIA-0000-"), ["--holdout", "0.5"],
     "stratum ('CIA', 'LA') has 1 sentence(s)"),
    (lambda line: "\tLUA\t" not in line, [], "corpus must contain both LA and LUA"),
], ids=["stratum", "one_label"])
def test_train_corpus_errors_name_the_corpus(pipeline, tmp_path, capsys, keep, holdout,
                                             fragment):
    corpus = tmp_path / "odd.tsv"
    lines = (pipeline["data"] / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    corpus.write_text("".join(l + "\n" for l in lines[:2] + list(filter(keep, lines[2:]))),
                      encoding="utf-8")
    code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "w.bin"),
                 *holdout, *TINY_TRAIN])
    assert code == 2
    err = capsys.readouterr().err
    assert f"data error: {corpus}: " in err
    assert fragment in err
    assert not (tmp_path / "w.bin").exists()


def test_holdout_words_tokenize_with_the_shared_vocabulary(tmp_path):
    # the vocabulary covers held-out sentences too; built from the training
    # split alone, one held-out sentence broke into 16 pieces here
    data = tmp_path / "data"
    assert main(["gen", "--pairs", "2", "--seed", "1", "--out", str(data)]) == 0
    weights = tmp_path / "w.bin"
    assert main(["train", "--corpus", str(data / "corpus.tsv"), "--out", str(weights),
                 "--holdout", "0.5", "--vocab-size", "128", "--max-seq-len", "12",
                 "--seed", "1", "--epochs", "1"]) == 0
    loss = weights.with_suffix(".bin.loss.csv").read_text(encoding="utf-8")
    assert "# holdout_accuracy=" in loss


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("joined", [False, True], ids=["--config PATH", "--config=PATH"])
def test_config_file_supplies_defaults(tmp_path, joined):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("# generator settings\npairs = 3\nseed = 9\ncategory = CIA\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    config = [f"--config={cfg}"] if joined else ["--config", str(cfg)]
    assert main(["gen", *config, "--out", str(out)]) == 0
    lines = (out / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    rows = [l for l in lines if l and not l.startswith(("#", "id\t"))]
    assert len(rows) == 6
    assert all(row.split("\t")[1] == "CIA" for row in rows)


def test_config_file_supplies_a_required_path(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text(f"out = {tmp_path / 'from_file'}\npairs = 1\n", encoding="utf-8")
    assert main(["gen", "--config", str(cfg)]) == 0
    assert main(["gen", "--pairs", "1", "--out", str(tmp_path / "from_flags")]) == 0
    for name in ("corpus.tsv", "trees.tsv"):  # paths stay out of the digest
        assert ((tmp_path / "from_file" / name).read_bytes()
                == (tmp_path / "from_flags" / name).read_bytes())


def test_abbreviated_flags_are_usage_errors(tmp_path, capsys):
    # --config is read by one parser, so a prefix of it must not slip past the file
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("pairs = 1\n", encoding="utf-8")
    for flag, value in (("--conf", str(cfg)), ("--pair", "1")):
        assert main(["gen", flag, value, "--out", str(tmp_path / "d")]) == 1
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_bare_config_flag_is_a_usage_error(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "d"), "--config"]) == 1
    assert "argument --config: expected one argument" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_flags_override_the_config_file(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("pairs = 3\ncategory = CIA\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--pairs", "1", "--out", str(out)]) == 0
    lines = (out / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    rows = [l for l in lines if l and not l.startswith(("#", "id\t"))]
    assert len(rows) == 2


# commands other than gen whose keys the cases below use, with a valid line 1
# for each; files are never read
CONFIG_COMMANDS = {
    "lr": (["train", "--corpus", "c.tsv"], "epochs = 2\n"),
    "rule": (["attribute", "--corpus", "c.tsv", "--weights", "w.bin"], "steps = 8\n"),
}


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("bogus = 1\n", "unknown to ligas gen"),
        ("threads = 2\n", "unknown to ligas gen"),
        ("pairs = lots\n", "expected an integer"),
        ("category = NOPE\n", "not one of"),
        ("no equals sign\n", None),  # data error from the parser itself
        ("lr = fast\n", "config key lr: expected a number, got 'fast'"),
        ("rule = simpson\n", "config key rule: 'simpson' is not one of"),
        ("seed = 2\n", "already set on line 1"),
    ],
)
def test_config_file_problems(tmp_path, capsys, body, fragment):
    # the problem sits on line 2, after a line that is valid on its own
    key = body.partition("=")[0].strip()
    command, first = CONFIG_COMMANDS.get(key, (["gen"], "seed = 1\n"))
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(first + body, encoding="utf-8")
    code = main([*command, "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if fragment is None:
        assert code == 2
        assert f"data error: {cfg}:2: expected 'key = value', got 'no equals sign'" in err
    else:
        assert code == 1
        assert f"usage error: {cfg}:2: config key {key}: " in err
        assert fragment in err
    assert not (tmp_path / "o").exists()


def test_config_flag_requires_a_command(capsys):
    assert main(["--config", "whatever.cfg"]) == 1
    assert "requires a leading command" in capsys.readouterr().err


def test_missing_config_file_is_a_data_error(tmp_path, capsys):
    code = main(["gen", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


# ---------------------------------------------------------------------------
# partial inputs
# ---------------------------------------------------------------------------


def test_analyze_without_trees_warns_and_skips_patterns(pipeline, tmp_path, capsys):
    out = tmp_path / "no_trees"
    code = main(["analyze", "--attributions", str(pipeline["attributions"]),
                 "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert "patterns.csv" in err and "skipped" in err
    assert (out / "stats.csv").exists()
    assert (out / "scatter_cc.svg").exists()
    assert not (out / "patterns.csv").exists()
    assert not (out / "subtree_ranks.csv").exists()


def test_analyze_warns_on_sentences_without_trees(pipeline, tmp_path, capsys):
    trimmed = tmp_path / "some_trees.tsv"
    lines = (pipeline["data"] / "trees.tsv").read_text(encoding="utf-8").splitlines()
    trimmed.write_text("\n".join(lines[:-2]) + "\n", encoding="utf-8")
    out = tmp_path / "partial"
    code = main(["analyze", "--attributions", str(pipeline["attributions"]),
                 "--trees", str(trimmed), "--out", str(out)])
    assert code == 0
    assert "no tree" in capsys.readouterr().err
    assert (out / "patterns.csv").exists()


def test_analyze_rejects_a_truncated_attribution_file(pipeline, tmp_path, capsys):
    lines = pipeline["attributions"].read_text(encoding="utf-8").splitlines(keepends=True)
    cut = tmp_path / "cut.jsonl"
    cut.write_text("".join(lines[:5]), encoding="utf-8")  # the header and 4 of 20 records
    out = tmp_path / "cut_reports"
    code = main(["analyze", "--attributions", str(cut), "--out", str(out)])
    assert code == 2
    assert f"{cut}: header declares 20 records, the file holds 4" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_rejects_misaligned_trees(pipeline, tmp_path, capsys):
    wrong = tmp_path / "wrong_trees.tsv"
    lines = (pipeline["data"] / "trees.tsv").read_text(encoding="utf-8").splitlines()
    lines = [l if not l.startswith("CIA-0000-LA\t")
             else "CIA-0000-LA\t(S (NN nobody) (VBD moved))" for l in lines]
    wrong.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main(["analyze", "--attributions", str(pipeline["attributions"]),
                 "--trees", str(wrong), "--out", str(tmp_path / "wrong")])
    assert code == 2
    line = next(i for i, l in enumerate(lines, 1) if l.startswith("CIA-0000-LA\t"))
    assert (f"data error: {wrong}:{line}: sentence 'CIA-0000-LA': align: tree has 2 "
            f"leaves but the sentence has 5 words\n") in capsys.readouterr().err
    assert not (tmp_path / "wrong" / "stats.csv").exists()


def _one_word_inputs(tmp_path, depth):
    """An attributions file with one one-word record, and a trees file whose
    tree for it is ``depth`` levels deep."""
    record = {"id": "SVA-0000-LA", "category": "SVA", "gold": "LA", "predicted": "LA",
              "prob": 0.75, "sentence_ligas": 0.5, "completeness_gap": 0.0,
              "words": [{"text": "x", "ligas": 0.5}]}
    attributions = tmp_path / "one.jsonl"
    attributions.write_text(json.dumps(record) + "\n", encoding="utf-8")
    trees = tmp_path / "deep_trees.tsv"
    trees.write_text("SVA-0000-LA\t" + nested(depth) + "\n", encoding="utf-8")
    return attributions, trees


def test_over_deep_tree_is_a_data_error(tmp_path, capsys):
    attributions, trees = _one_word_inputs(tmp_path, 1500)
    code = main(["analyze", "--attributions", str(attributions), "--trees", str(trees),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert (f"{trees}:1: sentence 'SVA-0000-LA': tree nested deeper than "
            f"{MAX_TREE_DEPTH} levels at offset {3 * MAX_TREE_DEPTH}\n"
            ) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tree_at_the_depth_limit_is_analyzed(tmp_path):
    attributions, trees = _one_word_inputs(tmp_path, MAX_TREE_DEPTH)
    assert main(["analyze", "--attributions", str(attributions), "--trees", str(trees),
                 "--out", str(tmp_path / "out")]) == 0
    ranks = (tmp_path / "out" / "subtree_ranks.csv").read_text(encoding="utf-8")
    assert ranks.splitlines()[-1].startswith("SVA,LA,(A(A(A")


_BAD_VALUES = [
    ("category", "XYZ", f"category 'XYZ' is not one of {CATEGORIES}"),
    ("gold", "good", f"gold 'good' is not one of {CLASSES}"),
    ("predicted", "la", f"predicted 'la' is not one of {CLASSES}"),
    ("prob", 1.5, "prob 1.5 is outside [0, 1]"),
]


@pytest.mark.parametrize("command,field,value,message", [
    pytest.param("render", "words", 5, "missing or malformed ['words']",
                 id="render-words-5"),
    pytest.param("analyze", "prob", "high", "missing or malformed ['prob']",
                 id="analyze-prob-high"),
] + [
    pytest.param(command, field, value, message, id=f"{command}-{field}-{value}")
    for command in ("analyze", "render") for field, value, message in _BAD_VALUES
])
def test_malformed_record_is_a_data_error(pipeline, tmp_path, capsys, command, field,
                                          value, message):
    lines = pipeline["attributions"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    lines[1] = json.dumps({**record, field: value})
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--attributions", str(bad), "--out", str(out)])
    assert code == 2
    assert f"{bad}:2: record {record['id']!r}: {message}" in capsys.readouterr().err
    assert not out.exists()


_SCORES = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False)


@st.composite
def _accepted_records(draw):
    """Records the attribution reader accepts, with scores up to +-1e308."""
    records = []
    for i in range(draw(st.integers(min_value=0, max_value=4))):
        words = draw(st.lists(st.tuples(st.text("ab<&\"\u00e9", min_size=1, max_size=3),
                                        _SCORES), max_size=4))
        try:
            total = exact_fsum([v for _, v in words])
        except OverflowError:  # the reader rejects a record whose words overflow
            reject()
        records.append({
            "id": f"r{i}", "category": draw(st.sampled_from(CATEGORIES)),
            "gold": draw(st.sampled_from(CLASSES)),
            "predicted": draw(st.sampled_from(CLASSES)),
            "prob": draw(st.floats(min_value=0.0, max_value=1.0)),
            "sentence_ligas": total,
            "completeness_gap": draw(st.floats(min_value=0.0, max_value=1e308)),
            "words": [{"text": t, "ligas": v} for t, v in words],
        })
    return records


@settings(max_examples=60, deadline=None)
@given(records=_accepted_records(), with_trees=st.booleans())
def test_accepted_records_never_end_in_a_traceback(records, with_trees):
    # analyze and render either succeed or name a data error; a per-label or
    # per-pattern total out of float range is the one error a run can reach
    with tempfile.TemporaryDirectory() as root:
        attributions = os.path.join(root, "attr.jsonl")
        with open(attributions, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(r) + "\n" for r in records)
        read_attributions_jsonl(attributions)  # accepted
        analyze = ["analyze", "--attributions", attributions,
                   "--out", os.path.join(root, "out")]
        if with_trees:
            trees = os.path.join(root, "trees.tsv")
            with open(trees, "w", encoding="utf-8") as fh:
                for r in records:
                    if r["words"]:
                        leaves = " ".join(f"(W {w['text']})" for w in r["words"])
                        fh.write(f"{r['id']}\t(S {leaves})\n")
            analyze += ["--trees", trees]
        for argv in (analyze, ["render", "--attributions", attributions,
                               "--out", os.path.join(root, "heatmaps.html")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == 0 or (code == 2 and err.getvalue().startswith("data error:")), \
                (argv[0], code, err.getvalue())


def _overflow_inputs(tmp_path, word_scores):
    """Two SVA records sharing the tree ``(S (NN a) (VB b))``, each scored
    ``word_scores``, and a trees file for them."""
    records = [{"id": f"SVA-000{i}-LA", "category": "SVA", "gold": "LA", "predicted": "LA",
                "prob": 0.75, "sentence_ligas": math.fsum(word_scores),
                "completeness_gap": 0.0,
                "words": [{"text": t, "ligas": v} for t, v in zip("ab", word_scores)]}
               for i in range(2)]
    attributions = tmp_path / "huge.jsonl"
    attributions.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    trees = tmp_path / "huge_trees.tsv"
    trees.write_text("".join(f"{r['id']}\t(S (NN a) (VB b))\n" for r in records),
                     encoding="utf-8")
    return attributions, trees


def test_word_scores_out_of_float_range_are_a_data_error(tmp_path, capsys):
    attributions, _ = _overflow_inputs(tmp_path, [1.0, 2.0])
    lines = attributions.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    record["words"] = [{"text": w, "ligas": 1e308} for w in ("a", "b")]
    lines[1] = json.dumps(record)
    attributions.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "heatmaps.html"
    code = main(["render", "--attributions", str(attributions), "--ids", "all",
                 "--out", str(out)])
    assert code == 2
    assert (f"data error: {attributions}:2: record 'SVA-0001-LA': word scores do not sum "
            f"to a finite float\n") in capsys.readouterr().err
    assert not out.exists()


def test_a_pattern_group_out_of_float_range_is_a_data_error(tmp_path, capsys):
    # each record sums to 0.0, but the two NN scores sum past the float range
    attributions, trees = _overflow_inputs(tmp_path, [1e308, -1e308])
    out = tmp_path / "reports"
    code = main(["analyze", "--attributions", str(attributions), "--trees", str(trees),
                 "--out", str(out)])
    assert code == 2
    assert (f"data error: {attributions}: pattern group (SVA, LA, (S(NN)(VB))): LIGAS "
            f"total is out of float range\n") in capsys.readouterr().err
    assert not out.exists()


def _snapshot(path):
    """Every file under ``path`` (or ``path`` itself) with its bytes."""
    if path.is_file():
        return {path.name: path.read_bytes()}
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("command", ["analyze", "render"])
@pytest.mark.parametrize("field,value,problem", [
    ("prob", 1.5, "prob 1.5 is outside [0, 1]"),
    ("category", "XYZ", "category 'XYZ' is not one of"),
    ("gold", "yes", "gold 'yes' is not one of ('LA', 'LUA')"),
    ("predicted", "", "predicted '' is not one of ('LA', 'LUA')"),
    ("completeness_gap", -1.0, "completeness_gap -1.0 is negative"),
    ("sentence_ligas", 5.0, "sentence_ligas 5.0 is not the sum of its word scores"),
])
def test_out_of_range_record_writes_no_report(pipeline, tmp_path, capsys, command,
                                              field, value, problem):
    lines = pipeline["attributions"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[3])
    lines[3] = json.dumps({**record, field: value})
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    earlier = pipeline["out"] if command == "analyze" else pipeline["heatmaps"]
    kept = tmp_path / "kept"
    kept.mkdir()
    kept = kept / earlier.name
    before = _snapshot(earlier)
    for name, data in before.items():  # an earlier run's output, to be left as it is
        target = kept / name if earlier.is_dir() else kept
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)
    fresh = tmp_path / "fresh"
    for out in (fresh, kept):
        code = main([command, "--attributions", str(bad), "--out", str(out)])
        assert code == 2
        assert f"{bad}:4: record {record['id']!r}: {problem}" in capsys.readouterr().err
    assert not fresh.exists()
    assert _snapshot(kept) == before


def _malformed_input(pipeline, tmp_path, case):
    """One malformed value in a pipeline input, ``case`` being its format and,
    after a dash, an optional flaw: ``value`` for a config value,
    ``alignment`` for a tree that does not match its record's words, ``utf8``
    for a sound line with one byte that is not UTF-8 in it.

    Returns the bad file; the argv that reads it, ``--out`` left off; the
    pipeline outputs that an earlier run of that command left behind; and
    the expected error's kind, line, sentence or record id, and problem."""
    data, bad = pipeline["data"], tmp_path / f"bad_{case}"
    fmt, _, flaw = case.partition("-")
    if fmt == "weights":
        blob = pipeline["weights"].read_bytes()
        (size,) = struct.unpack("<Q", blob[8:16])
        header = json.loads(blob[16:16 + size])
        header["tensors"][0]["shape"] = [-1]
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        bad.write_bytes(blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + size:])
        return (bad, ["attribute", "--corpus", str(data / "corpus.tsv"),
                      "--weights", str(bad), "--steps", "4"], [pipeline["attributions"]],
                "data error", None, None, "tensor entry 0 is malformed")
    if fmt == "config":
        lines = ["seed = 3\n", "pairs = 3\n"]
    else:
        source = {"corpus": data / "corpus.tsv", "trees": data / "trees.tsv",
                  "attributions": pipeline["attributions"]}[fmt]
        lines = source.read_text(encoding="utf-8").splitlines(keepends=True)
    row = 1 if fmt == "config" else 3
    sound, error, ident = lines[row], "data error", None
    if fmt == "config":
        argv, earlier = ["gen", "--config", str(bad)], [data]
        if flaw == "value":
            lines[1] = "pairs = lots\n"
            error, ident = "usage error", "config key pairs"
            problem = "expected an integer, got 'lots'"
        else:
            lines[1] = "pairs 3\n"
            problem = "expected 'key = value', got 'pairs 3'"
    elif fmt == "corpus":
        cells = lines[3].split("\t")
        lines[3] = "\t".join([cells[0], "XYZ", *cells[2:]])
        argv, earlier = (["train", "--corpus", str(bad), *TINY_TRAIN],
                         [pipeline["weights"], pipeline["weights"].with_suffix(".bin.loss.csv")])
        ident, problem = f"sentence {cells[0]!r}", "unknown category 'XYZ' (column 2)"
    elif fmt == "trees":
        sent_id, tree = lines[3].rstrip("\n").split("\t", 1)
        argv, earlier = (["analyze", "--attributions", str(pipeline["attributions"]),
                          "--trees", str(bad)], [pipeline["out"]])
        ident = f"sentence {sent_id!r}"
        if flaw == "alignment":
            lines[3] = f"{sent_id}\t(S (NN nobody) (VBD moved))\n"
            words = len(read_trees(str(source))[sent_id][1].leaves())
            problem = f"align: tree has 2 leaves but the sentence has {words} words"
        else:
            lines[3] = f"{sent_id}\t{tree[:-1]}\n"
            problem = f"unbalanced parentheses: unexpected end at offset {len(tree) - 1}"
    else:
        record = json.loads(lines[3])
        lines[3] = json.dumps({**record, "prob": "high"}) + "\n"
        argv, earlier = ["render", "--attributions", str(bad)], [pipeline["heatmaps"]]
        ident, problem = f"record {record['id']!r}", "missing or malformed ['prob']"
    if flaw == "utf8":  # the sound line instead, with byte 0xff before its newline
        lines[row] = sound[:-1] + "\udcff\n"
        offset = len(sound.encode("utf-8")) - 1
        ident, problem = None, f"not UTF-8 at byte {offset}: invalid start byte"
    bad.write_bytes("".join(lines).encode("utf-8", "surrogateescape"))
    return bad, argv, earlier, error, row + 1, ident, problem


@pytest.mark.parametrize("case", [
    "corpus", "trees", "attributions", "weights", "config",
    "config-value", "trees-alignment",
    "corpus-utf8", "trees-utf8", "attributions-utf8", "config-utf8",
])
def test_every_reader_names_the_file_line_and_id(pipeline, tmp_path, capsys, case):
    bad, argv, earlier, error, line, ident, problem = _malformed_input(pipeline, tmp_path,
                                                                       case)
    where = str(bad) + (f":{line}" if line else "") + (f": {ident}" if ident else "")
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    fresh.mkdir()
    kept.mkdir()
    for path in earlier:  # an earlier run's output, to be left as it is
        (shutil.copytree if path.is_dir() else shutil.copyfile)(path, kept / path.name)
    before = _snapshot(kept)
    for out in (fresh, kept):
        assert main([*argv, "--out", str(out / earlier[0].name)]) == (
            1 if error == "usage error" else 2)
        assert f"{error}: {where}: {problem}" in capsys.readouterr().err
    assert _snapshot(fresh) == {}
    assert _snapshot(kept) == before
