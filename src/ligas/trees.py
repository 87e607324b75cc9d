"""Constituency parse trees: parsing, patterns, subtree scores, mining.

Two serializations are used throughout:

* leafed form with single spaces, ``(ROOT (S (NP (DT the) (NN dog)) ...))``
* pattern form with no whitespace and no words, ``(ROOT(S(NP(DT)(NN))...))``

A *pattern* identifies the label-isomorphism class of a tree; two sentences
share a pattern iff their trees are equal after dropping the leaf words.

Subtree scores are kept as exact rationals so that every node's score is
*identically* the sum of its children's — the float views are correctly
rounded from those rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .errors import DataError

Path = tuple[int, ...]


@dataclass(frozen=True)
class ParseTree:
    label: str
    children: tuple["ParseTree", ...] = ()
    leaf_word: str | None = None

    def __post_init__(self):
        if self.children and self.leaf_word is not None:
            raise DataError(f"node {self.label}: has both children and a leaf word")

    @property
    def is_leaf_slot(self) -> bool:
        """True for the nodes that carry (or stand for) one sentence word."""
        return not self.children

    def leaves(self) -> list[str | None]:
        """Leaf words in order; ``None`` for wordless pattern leaves."""
        if self.is_leaf_slot:
            return [self.leaf_word]
        out: list[str | None] = []
        for child in self.children:
            out.extend(child.leaves())
        return out

    def leaf_count(self) -> int:
        return len(self.leaves())

    def walk(self, path: Path = ()) -> Iterator[tuple[Path, "ParseTree"]]:
        """Depth-first preorder over all labeled nodes with their paths."""
        yield path, self
        for i, child in enumerate(self.children):
            yield from child.walk(path + (i,))


# ---------------------------------------------------------------------------
# parsing and rendering
# ---------------------------------------------------------------------------


def parse_bracketed(text: str) -> ParseTree:
    """Parse a Penn-style bracketed tree, leafed or pattern form.

    Whitespace between tokens is ignored. Errors report the byte offset of
    the offending position.
    """
    s = text
    n = len(s)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < n and s[pos].isspace():
            pos += 1

    def read_atom() -> str:
        nonlocal pos
        start = pos
        while pos < n and not s[pos].isspace() and s[pos] not in "()":
            pos += 1
        if pos == start:
            raise DataError(f"expected a label or word at offset {start}")
        return s[start:pos]

    def read_node() -> ParseTree:
        nonlocal pos
        skip_ws()
        if pos >= n or s[pos] != "(":
            raise DataError(f"expected '(' at offset {pos}")
        pos += 1
        skip_ws()
        label = read_atom()
        children: list[ParseTree] = []
        word: str | None = None
        while True:
            skip_ws()
            if pos >= n:
                raise DataError(f"unbalanced parentheses: unexpected end at offset {pos}")
            ch = s[pos]
            if ch == ")":
                pos += 1
                return ParseTree(label, tuple(children), word)
            if ch == "(":
                if word is not None:
                    raise DataError(
                        f"node {label}: subtree after leaf word at offset {pos}"
                    )
                children.append(read_node())
                continue
            if children:
                raise DataError(f"node {label}: word after subtrees at offset {pos}")
            if word is not None:
                raise DataError(f"node {label}: second leaf word at offset {pos}")
            word = read_atom()

    if not text.strip():
        raise DataError("empty tree text")
    root = read_node()
    skip_ws()
    if pos != n:
        raise DataError(f"trailing characters after tree at offset {pos}")
    return root


def render_leafed(tree: ParseTree) -> str:
    if tree.leaf_word is not None:
        return f"({tree.label} {tree.leaf_word})"
    if not tree.children:
        return f"({tree.label})"
    inner = " ".join(render_leafed(c) for c in tree.children)
    return f"({tree.label} {inner})"


def to_pattern(tree: ParseTree) -> str:
    """Canonical no-whitespace form with leaf words removed."""
    if not tree.children:
        return f"({tree.label})"
    inner = "".join(to_pattern(c) for c in tree.children)
    return f"({tree.label}{inner})"


def align(tree: ParseTree, words: list[str]) -> list[int]:
    """Check the tree's leaves against the sentence words (case-folded).

    Returns the identity leaf→word mapping; any mismatch is a data error,
    since a silent misalignment would corrupt every downstream sum.
    """
    leaves = tree.leaves()
    if any(w is None for w in leaves):
        raise DataError("align: tree has wordless leaves; a leafed tree is required")
    if len(leaves) != len(words):
        raise DataError(
            f"align: tree has {len(leaves)} leaves but the sentence has "
            f"{len(words)} words"
        )
    for i, (leaf, word) in enumerate(zip(leaves, words)):
        if leaf.lower() != word.lower():
            raise DataError(
                f"align: leaf {i} is {leaf!r} but the sentence word is {word!r}"
            )
    return list(range(len(words)))


# ---------------------------------------------------------------------------
# subtree scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubtreeScore:
    path: Path
    fragment: str
    ligas_exact: Fraction

    @property
    def ligas(self) -> float:
        return float(self.ligas_exact)

    @property
    def depth(self) -> int:
        return len(self.path)


def subtree_scores(tree: ParseTree, word_ligas: list[float]) -> list[SubtreeScore]:
    """One score per labeled node, preorder: the exact sum of the word
    scores under that node, built bottom-up as the sum of its children's
    scores. Works for leafed trees and bare patterns alike (leaf slots are
    matched to words positionally)."""
    if tree.leaf_count() != len(word_ligas):
        raise DataError(
            f"subtree_scores: tree has {tree.leaf_count()} leaves but "
            f"{len(word_ligas)} word scores were given"
        )
    words = iter(word_ligas)
    out: list[SubtreeScore] = []

    def visit(node: ParseTree, path: Path) -> Fraction:
        if node.is_leaf_slot:
            score = Fraction(next(words))
        else:
            score = sum((visit(child, path + (i,)) for i, child in enumerate(node.children)),
                        Fraction(0))
        out.append(SubtreeScore(path, to_pattern(node), score))
        return score

    visit(tree, ())
    out.sort(key=lambda s: s.path)
    return out


@dataclass(frozen=True)
class RankedSubtree:
    path: Path
    fragment: str
    ligas: float
    ligas_exact: Fraction


def rank_subtrees(group: list[list[SubtreeScore]]) -> RankedSubtree:
    """The subtree position with maximal LIGAS aggregated across a group of
    same-pattern sentences.

    The whole-tree root is not a candidate (the interesting constituent is
    always a proper subtree; a root "winner" would carry no information) —
    it is returned only for a degenerate single-node tree. Ties go to the
    shallowest, then leftmost, position.
    """
    if not group:
        raise DataError("rank_subtrees: empty group")
    totals: dict[Path, Fraction] = {}
    fragments: dict[Path, str] = {}
    for scores in group:
        for s in scores:
            totals[s.path] = totals.get(s.path, Fraction(0)) + s.ligas_exact
            fragments.setdefault(s.path, s.fragment)
    candidates = [p for p in totals if p != ()]
    if not candidates:
        candidates = [()]
    best = max(candidates, key=lambda p: (totals[p], -len(p), [-i for i in p]))
    return RankedSubtree(best, fragments[best], float(totals[best]), totals[best])


# ---------------------------------------------------------------------------
# pattern mining
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PatternRow:
    pattern: str
    category: str
    label: str
    count: int
    ligas: float


def mine_patterns(records: Iterable[tuple[ParseTree, str, str, float]]) -> list[PatternRow]:
    """Group sentences by (category, label, pattern) and sum their LIGAS.

    ``records`` yields (tree, category, gold label, sentence_ligas). Rows
    are sorted per (category, label) by count descending, then pattern
    string.
    """
    buckets: dict[tuple[str, str, str], list[float]] = {}
    for tree, category, label, ligas in records:
        key = (category, label, to_pattern(tree))
        buckets.setdefault(key, []).append(ligas)
    rows = []
    for (category, label, pattern), values in buckets.items():
        rows.append(PatternRow(pattern, category, label, len(values), math.fsum(values)))
    rows.sort(key=lambda r: (r.category, r.label, -r.count, r.pattern))
    return rows


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def write_trees(path: str, items: Iterable[tuple[str, ParseTree]],
                comment: str | None = None) -> None:
    """One record per line: ``id<TAB>leafed-bracketed-tree``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        for sent_id, tree in items:
            fh.write(f"{sent_id}\t{render_leafed(tree)}\n")


def read_trees(path: str) -> dict[str, ParseTree]:
    out: dict[str, ParseTree] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise DataError(f"{path}:{line_no}: expected 'id<TAB>tree'")
            sent_id, text = line.split("\t", 1)
            if sent_id in out:
                raise DataError(f"{path}:{line_no}: duplicate tree id {sent_id!r}")
            try:
                out[sent_id] = parse_bracketed(text)
            except DataError as exc:
                raise DataError(f"{path}:{line_no}: {exc}") from exc
    return out


def write_patterns_csv(path: str, rows: Iterable[PatternRow],
                       comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write("pattern,category,label,count,ligas\n")
        for r in rows:
            fh.write(f"{r.pattern},{r.category},{r.label},{r.count},{r.ligas!r}\n")
