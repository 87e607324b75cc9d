"""Command-line pipeline: gen, train, attribute, analyze, render.

Every command is deterministic given its inputs and settings; each output
file carries a 12-hex digest of the effective non-path settings in a
comment/header line, so runs can be matched to their configuration.

argparse alone reads the command line, and flags are spelled in full.
``--config FILE`` (or ``--config=FILE``) gives ``key = value`` lines that
become the command's defaults, required paths included. Each line is checked
where it is read: a known key, set once, whose value its flag's type and
choices accept; an error names the file and line. Flags on the line win.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import (
    heatmap_render,
    mean_abs_ligas_by_gold,
    outcome,
    render_scatter_svg,
    scatter_tables,
    sign_stats,
    write_scatter_csv,
    write_stats_csv,
)
from .attribution import (
    BASELINE_MODES,
    RULES,
    TARGET_SPACES,
    IGConfig,
    attribution_record,
    integrated_gradients,
    read_attributions_jsonl,
    write_attributions_jsonl,
)
from .config import CATEGORIES, config_digest, read_lines, write_artifact
from .corpus import (
    generate_all,
    generate_synthetic,
    read_corpus_tsv,
    split,
    write_corpus_tsv,
)
from .errors import DataError, NumericError, UsageError
from .model import (
    CLASSES,
    ModelConfig,
    TrainConfig,
    accuracy,
    init,
    load_weights,
    save_weights,
    train,
)
from .tokenizer import build_vocab, tokenize
from .trees import align, mine_patterns, read_trees, write_patterns_csv, write_trees

# arguments that name files; the settings digest leaves them out so that runs
# differing only in where they read and write produce identical bytes
_PATH_ARGS = ("config", "corpus", "out", "weights", "attributions", "trees")


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # flags are spelled in full, so --config is read one way
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise UsageError(message)


# every command's --config; main reads it before the full parse, so that the
# file's values become that command's defaults
_CONFIG = _Parser(add_help=False)
_CONFIG.add_argument("--config", help="flat key=value settings file; flags override it")


def build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="ligas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    commands: dict[str, _Parser] = {}

    def command(name: str, help_text: str) -> _Parser:
        commands[name] = sub.add_parser(name, help=help_text, parents=[_CONFIG])
        return commands[name]

    g = command("gen", "generate the synthetic labeled corpus with gold trees")
    g.add_argument("--category", default="all", choices=("all",) + CATEGORIES)
    g.add_argument("--pairs", type=int, default=50, help="LA/LUA pairs per category")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output directory")

    t = command("train", "train the toy encoder on a labeled corpus")
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", required=True, help="weight file path")
    t.add_argument("--vocab-size", type=int, default=512)
    t.add_argument("--d-model", type=int, default=32)
    t.add_argument("--n-heads", type=int, default=4)
    t.add_argument("--n-layers", type=int, default=2)
    t.add_argument("--d-ff", type=int, default=64)
    t.add_argument("--max-seq-len", type=int, default=32)
    t.add_argument("--lr", type=float, default=1e-3)
    t.add_argument("--epochs", type=int, default=30)
    t.add_argument("--batch", type=int, default=16)
    t.add_argument("--holdout", type=float, default=None,
                   help="held-out fraction; when set, test accuracy is reported")
    t.add_argument("--seed", type=int, default=0)

    a = command("attribute", "integrated-gradients attributions for a corpus")
    a.add_argument("--corpus", required=True)
    a.add_argument("--weights", required=True)
    a.add_argument("--steps", type=int, default=64)
    a.add_argument("--rule", default="trapezoid", choices=RULES)
    a.add_argument("--baseline", default="pad_embeddings", choices=BASELINE_MODES)
    a.add_argument("--target-space", default="logit", choices=TARGET_SPACES)
    a.add_argument("--target-class", default=None, choices=CLASSES)
    a.add_argument("--out", required=True, help="attributions JSONL path")

    n = command("analyze", "sign statistics, scatter export, pattern mining")
    n.add_argument("--attributions", required=True)
    n.add_argument("--trees", default=None, help="trees file (enables pattern reports)")
    n.add_argument("--out", required=True, help="output directory")

    r = command("render", "HTML attribution heatmaps")
    r.add_argument("--attributions", required=True)
    r.add_argument("--ids", default="all", help="comma-separated sentence ids, or 'all'")
    r.add_argument("--out", required=True, help="HTML output path")

    return parser, commands


def _read_config_file(sub: _Parser, path: str) -> None:
    """Make the ``key = value`` lines of ``path`` ``sub``'s defaults.

    Blank lines and ``#`` comments are skipped. Keys mirror the flag names with
    underscores (``d_model = 32``), and each may be set once. A value is coerced
    and checked by its flag's own ``type`` and ``choices`` on the line where it
    is read, so every error names the file and line. Flags given on the line
    still win.
    """
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    first_line: dict[str, int] = {}
    for lineno, text in read_lines(path):
        line = text.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if not key:
            raise DataError(f"{path}:{lineno}: empty key")
        where = f"{path}:{lineno}: config key {key}"
        if key not in actions:
            raise UsageError(f"{where}: unknown to {sub.prog}")
        if key in first_line:
            raise UsageError(f"{where}: already set on line {first_line[key]}")
        action = actions[key]
        try:
            value = raw if action.type is None else action.type(raw)
        except ValueError:
            kind = "an integer" if action.type is int else "a number"
            raise UsageError(f"{where}: expected {kind}, got {raw!r}")
        if action.choices and value not in action.choices:
            raise UsageError(f"{where}: {raw!r} is not one of {sorted(action.choices)}")
        first_line[key] = lineno
        action.required = False
        sub.set_defaults(**{key: value})


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = build_parser()
    try:
        config_path = _CONFIG.parse_known_args(argv)[0].config
        if config_path is not None:
            if argv[0] not in commands:
                raise UsageError("--config requires a leading command")
            _read_config_file(commands[argv[0]], config_path)
        args = parser.parse_args(argv)
        handler = _HANDLERS[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # unreadable/missing files are data problems
        print(f"data error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _tokenize_within(sentence, vocab, max_seq_len: int, corpus_path: str):
    """Tokenize one corpus sentence, rejecting it by corpus line and id when
    the encoder cannot take that many tokens."""
    tokenized = tokenize(sentence.text, vocab)
    n = len(tokenized.token_ids)
    if n > max_seq_len:
        raise DataError(f"{corpus_path}:{sentence.line}: sentence {sentence.id!r}: "
                        f"{n} tokens exceed max_seq_len {max_seq_len}")
    return tokenized


def _settings_digest(args) -> str:
    """Digest of the parsed arguments, file paths left out."""
    return config_digest({k: v for k, v in vars(args).items() if k not in _PATH_ARGS})


def cmd_gen(args) -> int:
    digest = _settings_digest(args)
    if args.category == "all":
        sentences = generate_all(args.pairs, args.seed)
    else:
        sentences = generate_synthetic(args.category, args.pairs, args.seed)
    os.makedirs(args.out, exist_ok=True)
    comment = f"ligas gen config_digest={digest}"
    write_corpus_tsv(os.path.join(args.out, "corpus.tsv"), sentences, comment)
    write_trees(os.path.join(args.out, "trees.tsv"),
                [(s.id, s.tree) for s in sentences], comment)
    print(f"wrote {len(sentences)} sentences to {args.out}")
    return 0


def cmd_train(args) -> int:
    if args.holdout is not None and not (0.0 < args.holdout < 1.0):
        raise UsageError(f"--holdout must be in (0, 1), got {args.holdout}")
    digest = _settings_digest(args)
    sentences = read_corpus_tsv(args.corpus)
    if not sentences:
        raise DataError(f"{args.corpus}: no sentences")
    try:  # split and train report corpus problems without naming the file
        train_set, test_set = (split(sentences, 1.0 - args.holdout, args.seed)
                               if args.holdout is not None else (sentences, []))
    except DataError as exc:
        raise DataError(f"{args.corpus}: {exc}") from exc

    # every sentence's text, so held-out words tokenize as whole words too;
    # labels never enter the vocabulary
    vocab = build_vocab([s.text for s in sentences], args.vocab_size)
    cfg = ModelConfig(
        vocab_size=len(vocab), d_model=args.d_model, n_heads=args.n_heads,
        n_layers=args.n_layers, d_ff=args.d_ff, max_seq_len=args.max_seq_len,
        seed=args.seed,
    )

    def examples(group):
        return [(_tokenize_within(s, vocab, args.max_seq_len, args.corpus).token_ids,
                 s.gold) for s in group]

    train_examples, test_examples = examples(train_set), examples(test_set)
    weights = init(cfg)
    weights.vocab = vocab
    try:
        trained, trace = train(
            weights, train_examples,
            TrainConfig(lr=args.lr, epochs=args.epochs, batch=args.batch, seed=args.seed),
        )
    except DataError as exc:
        raise DataError(f"{args.corpus}: {exc}") from exc
    save_weights(trained, args.out)
    test_acc = accuracy(trained, test_examples) if test_examples else None
    with write_artifact(args.out + ".loss.csv", f"ligas train config_digest={digest}") as fh:
        fh.write("epoch,mean_loss\n")
        for epoch, loss in enumerate(trace.epoch_losses):
            fh.write(f"{epoch},{loss!r}\n")
        fh.write(f"# train_accuracy={trace.final_accuracy!r}\n")
        if test_acc is not None:
            fh.write(f"# holdout_accuracy={test_acc!r}\n")
    message = (f"trained on {len(train_set)} sentences; "
               f"train accuracy {trace.final_accuracy:.4f}")
    if test_acc is not None:
        message += f"; holdout accuracy {test_acc:.4f}"
    print(message)
    return 0


def cmd_attribute(args) -> int:
    ig_cfg = IGConfig(
        steps=args.steps, rule=args.rule, baseline_mode=args.baseline,
        target_class=args.target_class, target_space=args.target_space,
    )
    digest = config_digest({"command": "attribute", **ig_cfg.to_dict()})
    weights = load_weights(args.weights)
    if weights.vocab is None:
        raise DataError(f"{args.weights}: weight file carries no vocabulary")
    sentences = read_corpus_tsv(args.corpus)
    tokenized = [_tokenize_within(s, weights.vocab, weights.config.max_seq_len, args.corpus)
                 for s in sentences]
    records = [attribution_record(s.id, s.category, s.gold,
                                  integrated_gradients(weights, t, ig_cfg))
               for s, t in zip(sentences, tokenized)]

    header = {"config_digest": digest, **ig_cfg.to_dict(), "records": len(records)}
    write_attributions_jsonl(args.out, records, header)
    print(f"attributed {len(records)} sentences to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    digest = _settings_digest(args)
    comment = f"ligas analyze config_digest={digest}"
    _, records = read_attributions_jsonl(args.attributions)
    matched = []
    if args.trees is not None:  # checked before any report is written
        trees = read_trees(args.trees)
        for r in records:
            if r["id"] not in trees:
                continue
            line_no, tree = trees[r["id"]]
            try:
                align(tree, [w["text"] for w in r["words"]])
            except DataError as exc:
                raise DataError(f"{args.trees}:{line_no}: sentence {r['id']!r}: "
                                f"{exc}") from exc
            matched.append((r, tree))

    outcomes = [outcome(r["predicted"], r["gold"]) for r in records]
    stats = sign_stats((r["category"], out, r["sentence_ligas"])
                       for r, out in zip(records, outcomes))
    cc_rows, mc_rows = scatter_tables((r["prob"], r["sentence_ligas"], out)
                                      for r, out in zip(records, outcomes))
    # every report is computed before any is written: a label or group total
    # out of float range is a data error that leaves no reports behind
    try:
        mean_abs = mean_abs_ligas_by_gold((r["gold"], r["sentence_ligas"]) for r in records)
        rows = mine_patterns(
            (tree, r["category"], r["gold"], r["sentence_ligas"],
             [w["ligas"] for w in r["words"]])
            for r, tree in matched
        )
    except DataError as exc:
        raise DataError(f"{args.attributions}: {exc}") from exc

    os.makedirs(args.out, exist_ok=True)
    write_stats_csv(os.path.join(args.out, "stats.csv"), stats, mean_abs, comment)
    for name, table, color in (("cc", cc_rows, "#2f7d32"), ("mc", mc_rows, "#c62828")):
        write_scatter_csv(os.path.join(args.out, f"scatter_{name}.csv"), table, comment)
        svg = render_scatter_svg(table, f"{name.upper()} sentences", color)
        with write_artifact(os.path.join(args.out, f"scatter_{name}.svg")) as fh:
            fh.write(f"<!-- {comment} -->\n")
            fh.write(svg)

    if args.trees is None:
        print("warning: no trees file; patterns.csv and subtree_ranks.csv skipped",
              file=sys.stderr)
        print(f"wrote stats and scatter reports to {args.out}")
        return 0
    skipped = len(records) - len(matched)
    if skipped:
        print(f"warning: {skipped} sentence(s) have no tree; "
              f"skipped in pattern reports", file=sys.stderr)

    write_patterns_csv(os.path.join(args.out, "patterns.csv"), rows, comment)
    with write_artifact(os.path.join(args.out, "subtree_ranks.csv"), comment) as fh:
        fh.write("category,label,pattern,count,subtree_path,subtree,ligas\n")
        for row in sorted(rows, key=lambda r: (r.category, r.label, r.pattern)):
            path = ".".join(str(i) for i in row.best.path)
            fh.write(f"{row.category},{row.label},{row.pattern},{row.count},"
                     f"{path},{row.best.fragment},{row.best.ligas!r}\n")

    print(f"wrote analysis reports to {args.out}")
    return 0


def cmd_render(args) -> int:
    digest = _settings_digest(args)
    _, records = read_attributions_jsonl(args.attributions)
    if args.ids != "all":
        wanted = [i.strip() for i in args.ids.split(",") if i.strip()]
        if not wanted:
            raise UsageError("--ids must name at least one sentence id, or 'all'")
        by_id = {r["id"]: r for r in records}
        missing = [i for i in wanted if i not in by_id]
        if missing:
            raise DataError(f"ids not present in attributions: {', '.join(missing)}")
        records = [by_id[i] for i in wanted]
    with write_artifact(args.out) as fh:
        fh.write("<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
                 "<title>attribution heatmaps</title>\n</head>\n<body>\n")
        fh.write(f"<!-- ligas render config_digest={digest} -->\n")
        for r in records:
            fh.write(heatmap_render(r))
        fh.write("</body>\n</html>\n")
    print(f"rendered {len(records)} heatmap(s) to {args.out}")
    return 0


_HANDLERS = {
    "gen": cmd_gen,
    "train": cmd_train,
    "attribute": cmd_attribute,
    "analyze": cmd_analyze,
    "render": cmd_render,
}


if __name__ == "__main__":
    sys.exit(main())
