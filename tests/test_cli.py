"""Command-line behavior: exit codes, config files, digests, pipelines.

Everything runs in-process through ``main(argv)`` so exit codes and stderr
are observable without subprocess overhead; one tiny end-to-end pipeline is
shared across the file.
"""

import json
import re

import numpy as np
import pytest

import ligas.cli
from ligas.attribution import read_attributions_jsonl
from ligas.cli import main
from ligas.trees import MAX_TREE_DEPTH, read_trees, to_pattern
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
        tree = trees[r["id"]]
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
    corpus.write_text((pipeline["data"] / "corpus.tsv").read_text(encoding="utf-8")
                      + "SVA-9999-LA\tSVA\tLA\t" + "the dog barks " * 8 + ".\n",
                      encoding="utf-8")
    code = main(["attribute", "--corpus", str(corpus),
                 "--weights", str(pipeline["weights"]), "--steps", "4",
                 "--out", str(tmp_path / "x.jsonl")])
    assert code == 2
    assert calls == []
    err = capsys.readouterr().err
    assert f"{corpus}: sentence SVA-9999-LA: " in err
    assert "exceed max_seq_len 16" in err
    assert not (tmp_path / "x.jsonl").exists()


def test_over_length_sentence_in_train_names_it(pipeline, tmp_path, capsys):
    corpus = tmp_path / "long.tsv"
    corpus.write_text((pipeline["data"] / "corpus.tsv").read_text(encoding="utf-8")
                      + "SVA-9999-LA\tSVA\tLA\t" + "the dog barks " * 8 + ".\n",
                      encoding="utf-8")
    code = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "w.bin"),
                 *TINY_TRAIN])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{corpus}: sentence SVA-9999-LA: " in err
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


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("# generator settings\npairs = 3\nseed = 9\ncategory = CIA\n",
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    rows = [l for l in lines if l and not l.startswith(("#", "id\t"))]
    assert len(rows) == 6
    assert all(row.split("\t")[1] == "CIA" for row in rows)


def test_flags_override_the_config_file(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("pairs = 3\ncategory = CIA\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--pairs", "1", "--out", str(out)]) == 0
    lines = (out / "corpus.tsv").read_text(encoding="utf-8").splitlines()
    rows = [l for l in lines if l and not l.startswith(("#", "id\t"))]
    assert len(rows) == 2


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("bogus = 1\n", "unknown config file keys: bogus"),
        ("threads = 2\n", "unknown config file keys: threads"),
        ("pairs = lots\n", "expected an integer"),
        ("category = NOPE\n", "not one of"),
        ("no equals sign\n", None),  # data error from the parser itself
    ],
)
def test_config_file_problems(tmp_path, capsys, body, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body, encoding="utf-8")
    code = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if fragment is None:
        assert code == 2
        assert "expected 'key = value'" in err
    else:
        assert code == 1
        assert fragment in err


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
    assert f"{wrong}: sentence CIA-0000-LA:" in capsys.readouterr().err
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
    assert f"{trees}:1: tree nested deeper than {MAX_TREE_DEPTH} levels" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_tree_at_the_depth_limit_is_analyzed(tmp_path):
    attributions, trees = _one_word_inputs(tmp_path, MAX_TREE_DEPTH)
    assert main(["analyze", "--attributions", str(attributions), "--trees", str(trees),
                 "--out", str(tmp_path / "out")]) == 0
    ranks = (tmp_path / "out" / "subtree_ranks.csv").read_text(encoding="utf-8")
    assert ranks.splitlines()[-1].startswith("SVA,LA,(A(A(A")


@pytest.mark.parametrize("command,field,value", [
    ("render", "words", 5),
    ("analyze", "prob", "high"),
])
def test_malformed_record_is_a_data_error(pipeline, tmp_path, capsys, command, field, value):
    lines = pipeline["attributions"].read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    lines[1] = json.dumps({**record, field: value})
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = main([command, "--attributions", str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    message = f"{bad}:2: record {record['id']!r}: missing or malformed ['{field}']"
    assert message in capsys.readouterr().err
