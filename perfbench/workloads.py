"""The three benchmark workloads: seeded inputs, CLI steps and output checks.

Every workload runs the same five-command pipeline in each round (``gen``,
``train``, ``attribute`` at m = 16, 64 and 256, ``analyze --trees``,
``render --ids all``) so that every end-to-end metric exists on every
workload. What differs is the size of each command's input: each workload
gives its own command(s) the large input and runs the others on a small
fixed one.

* ig-sweep  attributes a seeded subset with a model trained in set-up.
* train     trains on the largest corpus; attribution uses the round's model.
* report    generates, analyzes and renders thousands of sentences; the
            attribution records it analyzes carry seeded scores written in
            set-up, so no autodiff runs for those commands.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

STEPS = (16, 64, 256)
GAP_TOLERANCE = 0.01  # acceptance check 2: gap <= 1% of |F(x) - F(x')|
GAP_OK_FLOOR = 0.95   # acceptance check 2: share of sentences within tolerance
HOLDOUT = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    corpus_pairs: int    # pairs per category of the corpus train and attribute draw on
    setup_epochs: int    # > 0: attribute with a model trained in set-up for this long
    train_epochs: int    # epochs of the round's ``train``
    attr_sentences: int  # seeded subset of the corpus that ``attribute`` runs on
    report_pairs: int    # pairs per category for ``gen`` and the records analyzed


WORKLOADS = {
    w.name: w for w in (
        Workload("ig-sweep", corpus_pairs=10, setup_epochs=6, train_epochs=1,
                 attr_sentences=2, report_pairs=12),
        Workload("train", corpus_pairs=24, setup_epochs=0, train_epochs=2,
                 attr_sentences=1, report_pairs=12),
        Workload("report", corpus_pairs=6, setup_epochs=0, train_epochs=2,
                 attr_sentences=1, report_pairs=300),
    )
}


@dataclass
class Inputs:
    """Paths and sizes that set-up produced for one workload run."""

    corpus: str
    attr_corpus: str
    report_corpus: str
    records: str
    model: str | None
    attr_ids: list[str]
    attr_texts: list[str]
    n_train: int
    n_records: int


def rng_for(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, int.from_bytes(tag.encode("utf-8"), "little")])


def setup(w: Workload, seed: int, out: str, run) -> Inputs:
    """Generate the workload's inputs under ``out`` through the CLI.

    ``run(argv)`` runs one CLI command and reports failure itself.
    """
    from ligas.attribution import write_attributions_jsonl
    from ligas.corpus import read_corpus_tsv, split, write_corpus_tsv
    from ligas.tokenizer import split_words

    corpus_dir = os.path.join(out, "corpus")
    report_dir = os.path.join(out, "report")
    run(["gen", "--pairs", str(w.corpus_pairs), "--seed", str(seed), "--out", corpus_dir])
    run(["gen", "--pairs", str(w.report_pairs), "--seed", str(seed), "--out", report_dir])
    corpus_tsv = os.path.join(corpus_dir, "corpus.tsv")
    sentences = read_corpus_tsv(corpus_tsv)

    pick = sorted(rng_for(seed, "attribute").choice(len(sentences), w.attr_sentences,
                                                    replace=False))
    subset = [sentences[i] for i in pick]
    attr_tsv = os.path.join(out, "attribute.tsv")
    write_corpus_tsv(attr_tsv, subset)

    model = None
    if w.setup_epochs:
        model = os.path.join(out, "model.bin")
        run(train_argv(corpus_tsv, model, w.setup_epochs, seed, holdout=False))

    report_tsv = os.path.join(report_dir, "corpus.tsv")
    rng = rng_for(seed, "records")
    records = []
    for s in read_corpus_tsv(report_tsv):
        words = split_words(s.text)
        ligas = [float(v) for v in rng.normal(0.0, 0.5, len(words))]
        predicted = s.gold if rng.random() < 0.8 else ("LUA" if s.gold == "LA" else "LA")
        records.append({
            "id": s.id, "category": s.category, "gold": s.gold, "predicted": predicted,
            "prob": float(rng.uniform(0.5, 1.0)), "sentence_ligas": math.fsum(ligas),
            "completeness_gap": float(abs(rng.normal(0.0, 1e-4))),
            "words": [{"text": t, "ligas": v} for t, v in zip(words, ligas)],
        })
    records_path = os.path.join(out, "records.jsonl")
    write_attributions_jsonl(records_path, records, {"seeded_scores": seed})

    n_train = len(split(sentences, 1.0 - HOLDOUT, seed)[0])
    return Inputs(corpus_tsv, attr_tsv, report_tsv, records_path, model, [s.id for s in subset],
                  [s.text for s in subset], n_train, len(records))


def train_argv(corpus: str, model: str, epochs: int, seed: int, holdout: bool) -> list[str]:
    argv = ["train", "--corpus", corpus, "--out", model, "--epochs", str(epochs),
            "--lr", "2e-3", "--seed", str(seed)]
    return argv + (["--holdout", str(HOLDOUT)] if holdout else [])


def round_steps(w: Workload, seed: int, inputs: Inputs, out: str) -> list[tuple[str, list[str]]]:
    """(metric key, CLI argv) for each command of one round, in order."""
    model = inputs.model or os.path.join(out, "model.bin")
    steps = [
        ("gen", ["gen", "--pairs", str(w.report_pairs), "--seed", str(seed),
                 "--out", os.path.join(out, "data")]),
        ("train", train_argv(inputs.corpus, os.path.join(out, "model.bin"),
                             w.train_epochs, seed, holdout=True)),
    ]
    for m in STEPS:
        steps.append((f"attribute.m{m}", [
            "attribute", "--corpus", inputs.attr_corpus, "--weights", model,
            "--steps", str(m), "--rule", "trapezoid", "--baseline", "pad_embeddings",
            "--target-space", "logit", "--out", os.path.join(out, f"attr_m{m}.jsonl"),
        ]))
    steps.append(("analyze", ["analyze", "--attributions", inputs.records,
                              "--trees", os.path.join(out, "data", "trees.tsv"),
                              "--out", os.path.join(out, "reports")]))
    steps.append(("render", ["render", "--attributions", inputs.records, "--ids", "all",
                             "--out", os.path.join(out, "heatmaps.html")]))
    return steps


# ---------------------------------------------------------------------------
# output checks: each returns None when the output is right, else a reason
# ---------------------------------------------------------------------------


def check_gen(w: Workload, out: str):
    from ligas.corpus import read_corpus_tsv
    from ligas.trees import read_trees

    sentences = read_corpus_tsv(os.path.join(out, "data", "corpus.tsv"))
    trees = read_trees(os.path.join(out, "data", "trees.tsv"))
    if len(sentences) != 10 * w.report_pairs:
        return f"gen wrote {len(sentences)} sentences, expected {10 * w.report_pairs}"
    if sorted(trees) != sorted(s.id for s in sentences):
        return "gen: trees.tsv ids differ from corpus.tsv ids"
    return None


def check_train(w: Workload, out: str):
    from ligas.model import load_weights

    model = os.path.join(out, "model.bin")
    with open(model + ".loss.csv", encoding="utf-8") as fh:
        rows = [line for line in fh if line[:1].isdigit()]
    losses = [float(line.split(",")[1]) for line in rows]
    if len(losses) != w.train_epochs or not all(math.isfinite(v) for v in losses):
        return f"train: loss.csv has {len(losses)} rows ({losses}), expected {w.train_epochs} finite"
    if load_weights(model).vocab is None:
        return "train: model.bin reloads without a vocabulary"
    return None


def check_attribute(inputs: Inputs, out: str, m: int, gap_ok: list[float]):
    from ligas.attribution import read_attributions_jsonl
    from ligas.tokenizer import split_words

    _, records = read_attributions_jsonl(os.path.join(out, f"attr_m{m}.jsonl"))
    if [r["id"] for r in records] != inputs.attr_ids:
        return f"attribute m={m}: record ids differ from the input sentences"
    for r, text in zip(records, inputs.attr_texts):
        values = [r["prob"], r["sentence_ligas"], r["completeness_gap"]]
        values += [word["ligas"] for word in r["words"]]
        if not all(math.isfinite(v) for v in values):
            return f"attribute m={m}: non-finite score in {r['id']}"
        if [word["text"] for word in r["words"]] != split_words(text):
            return f"attribute m={m}: words of {r['id']} differ from the sentence"
    if m == STEPS[-1]:
        model = inputs.model or os.path.join(out, "model.bin")
        share = gap_ok_share(model, inputs.attr_texts, records)
        gap_ok.append(share)
        if share < GAP_OK_FLOOR:
            return f"attribute m={m}: only {share:.2f} of sentences within the 1% gap"
    return None


def gap_ok_share(model_path: str, texts: list[str], records: list[dict]) -> float:
    """Share of records whose completeness gap is within GAP_TOLERANCE of
    |F(x) - F(x')|, with F the logit of the class the record predicts."""
    from ligas.attribution import make_baseline
    from ligas.autodiff import Tensor
    from ligas.model import CLASSES, embed, forward_from_embeddings, load_weights
    from ligas.tokenizer import tokenize

    weights = load_weights(model_path)
    within = 0
    for text, r in zip(texts, records):
        ids = tokenize(text, weights.vocab).token_ids
        target = CLASSES.index(r["predicted"])
        x = Tensor(embed(weights, ids).data)
        baseline = make_baseline(weights, ids, "pad_embeddings")
        delta = (forward_from_embeddings(weights, x).logits[target]
                 - forward_from_embeddings(weights, baseline).logits[target])
        within += r["completeness_gap"] <= GAP_TOLERANCE * abs(delta)
    return within / len(records)


def check_analyze(inputs: Inputs, out: str):
    reports = os.path.join(out, "reports")
    with open(os.path.join(reports, "stats.csv"), encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh if line[:1].isupper()]
    counted = sum(int(cells[1]) for cells in rows)  # category rows; the header is lower case
    if counted != inputs.n_records:
        return f"analyze: stats.csv counts {counted} sentences, expected {inputs.n_records}"
    for name in ("patterns.csv", "subtree_ranks.csv", "scatter_cc.svg", "scatter_mc.svg"):
        if not os.path.isfile(os.path.join(reports, name)):
            return f"analyze: {name} missing"
    return None


def check_render(inputs: Inputs, out: str):
    with open(os.path.join(out, "heatmaps.html"), encoding="utf-8") as fh:
        blocks = sum(1 for line in fh if line.startswith("<div"))
    if blocks != inputs.n_records:
        return f"render: {blocks} heatmap blocks, expected {inputs.n_records}"
    return None


def digests(root: str) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def input_properties(w: Workload, inputs: Inputs) -> dict:
    """Sizes and sharing of each command's input, for comparing runs."""
    from ligas.corpus import read_corpus_tsv
    from ligas.tokenizer import build_vocab, tokenize

    def describe(sentences) -> dict:
        texts = [s.text for s in sentences]
        vocab = build_vocab(texts, 512)
        lengths = [len(tokenize(t, vocab).token_ids) for t in texts]
        return {"sentences": len(texts), "mean_tokens": sum(lengths) / len(lengths),
                "max_tokens": max(lengths), "distinct_frac": len(set(texts)) / len(texts)}

    corpus = read_corpus_tsv(inputs.corpus)
    return {
        "train": {**describe(corpus), "trained_sentences": inputs.n_train,
                  "epochs": w.train_epochs},
        "attribute": {**describe(read_corpus_tsv(inputs.attr_corpus)), "m": list(STEPS),
                      "model": "set-up" if inputs.model else "round"},
        "gen_analyze_render": describe(read_corpus_tsv(inputs.report_corpus)),
    }
