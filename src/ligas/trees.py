"""Constituency parse trees: parsing, patterns, subtree scores, mining.

Two serializations are used throughout:

* leafed form with single spaces, ``(ROOT (S (NP (DT the) (NN dog)) ...))``
* pattern form with no whitespace and no words, ``(ROOT(S(NP(DT)(NN))...))``

A *pattern* identifies the label-isomorphism class of a tree; two sentences
share a pattern iff their trees are equal after dropping the leaf words.

Subtree scores are summed exactly, so that every node's score is
*identically* the sum of its children's. Every finite float is an integer
multiple of 2**-1074, so each word score is scaled by 2**1074 to a Python
int and sums are int sums (Kulisch's long accumulator). A score's float
view is the correctly rounded quotient ``total / 2**1074``; its exact
value is the ``Fraction`` of that quotient.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Iterator

from .config import read_lines, write_artifact
from .errors import DataError

Path = tuple[int, ...]

_TOKEN = re.compile(r"[()]|[^\s()]+")  # a bracket, or a label or word
# deepest nesting parse_bracketed accepts; tree walks recurse once per level
# (generated trees reach depth 6)
MAX_TREE_DEPTH = 256
_SCALE_BITS = 1074  # every finite float is an integer multiple of 2**-1074
_ONE = 1 << _SCALE_BITS


@dataclass(frozen=True, slots=True)
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
        if not self.children:
            return [self.leaf_word]
        out: list[str | None] = []
        for child in self.children:
            out += child.leaves()
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

    Whitespace between tokens is ignored. Errors report the character
    offset of the offending position. Nesting deeper than
    ``MAX_TREE_DEPTH`` levels is an error.
    """
    # the tokens of _TOKEN in one C-level pass: str.split and re's \s agree
    # on every code point
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise DataError("empty tree text")
    open_nodes: list[list] = []  # [label, children, leaf word or None], innermost last
    root: ParseTree | None = None
    want_label = False
    for i, token in enumerate(tokens):
        if root is not None:
            raise DataError(f"trailing characters after tree at offset {_offset(text, i)}")
        if want_label:
            if token in ("(", ")"):
                raise DataError(f"expected a label or word at offset {_offset(text, i)}")
            open_nodes.append([token, [], None])
            want_label = False
        elif not open_nodes and token != "(":
            raise DataError(f"expected '(' at offset {_offset(text, i)}")
        elif token == "(":
            if open_nodes and open_nodes[-1][2] is not None:
                raise DataError(f"node {open_nodes[-1][0]}: subtree after leaf word "
                                f"at offset {_offset(text, i)}")
            if len(open_nodes) == MAX_TREE_DEPTH:
                raise DataError(f"tree nested deeper than {MAX_TREE_DEPTH} levels "
                                f"at offset {_offset(text, i)}")
            want_label = True
        elif token == ")":
            label, children, word = open_nodes.pop()
            node = _parsed_node(label, tuple(children), word)
            if open_nodes:
                open_nodes[-1][1].append(node)
            else:
                root = node
        else:
            label, children, word = open_nodes[-1]
            if children:
                raise DataError(f"node {label}: word after subtrees "
                                f"at offset {_offset(text, i)}")
            if word is not None:
                raise DataError(f"node {label}: second leaf word "
                                f"at offset {_offset(text, i)}")
            open_nodes[-1][2] = token
    if want_label:
        raise DataError(f"expected a label or word at offset {len(text)}")
    if root is None:
        raise DataError(f"unbalanced parentheses: unexpected end at offset {len(text)}")
    return root


# each slot's own setter, which a frozen dataclass's __setattr__ does not guard
_SET_LABEL = ParseTree.label.__set__
_SET_CHILDREN = ParseTree.children.__set__
_SET_LEAF_WORD = ParseTree.leaf_word.__set__


def _parsed_node(label: str, children: tuple[ParseTree, ...], word: str | None) -> ParseTree:
    """``ParseTree(label, children, word)`` at about half the cost. The
    parser's own checks already reject what ``__post_init__`` would, so the
    slots are filled directly, past the frozen dataclass's ``__init__``;
    equality and hashing are the dataclass's."""
    node = object.__new__(ParseTree)
    _SET_LABEL(node, label)
    _SET_CHILDREN(node, children)
    _SET_LEAF_WORD(node, word)
    return node


def _offset(text: str, index: int) -> int:
    """Where token ``index`` of ``text`` starts; found only for an error message."""
    return next(islice(_TOKEN.finditer(text), index, None)).start()


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
    return f"({tree.label}{''.join([to_pattern(c) for c in tree.children])})"


def align(tree: ParseTree, words: list[str]) -> None:
    """Check the tree's leaves against the sentence words (case-folded).

    Any mismatch is a data error, since a silent misalignment would corrupt
    every downstream sum.
    """
    leaves = tree.leaves()
    if None in leaves:
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


# ---------------------------------------------------------------------------
# subtree scores
# ---------------------------------------------------------------------------


def _scaled(value: float) -> int:
    """``value * 2**1074`` as an exact int; every finite float has one."""
    n, d = value.as_integer_ratio()
    if d & (d - 1) or d.bit_length() > _SCALE_BITS + 1:
        raise ValueError(f"{value!r} is not an integer multiple of 2**-{_SCALE_BITS}")
    return n << (_SCALE_BITS + 1 - d.bit_length())


def exact_fsum(values: list[float]) -> float:
    """The correctly rounded sum of ``values``, as ``math.fsum`` gives it,
    except that a partial sum out of float range is no error when the total
    fits: ``OverflowError`` means the total itself is out of range."""
    try:
        return math.fsum(values)
    except OverflowError:
        return sum(map(_scaled, values)) / _ONE


@dataclass(frozen=True)
class SubtreeScore:
    path: Path
    fragment: str
    ligas_scaled: int  # the exact score times 2**1074

    @property
    def ligas_exact(self) -> Fraction:
        return Fraction(self.ligas_scaled, _ONE)

    @property
    def ligas(self) -> float:
        """The correctly rounded score; ``OverflowError`` when out of float range."""
        return self.ligas_scaled / _ONE

    @property
    def depth(self) -> int:
        return len(self.path)


def subtree_scores(tree: ParseTree, word_ligas: list[float]) -> list[SubtreeScore]:
    """One score per labeled node, preorder: the exact sum of the word
    scores under that node, built bottom-up as the sum of its children's
    scores, with the node's pattern built from its children's patterns in
    the same walk. Works for leafed trees and bare patterns alike (leaf
    slots are matched to words positionally)."""
    if tree.leaf_count() != len(word_ligas):
        raise DataError(
            f"subtree_scores: tree has {tree.leaf_count()} leaves but "
            f"{len(word_ligas)} word scores were given"
        )
    return _scaled_scores(tree, [_scaled(v) for v in word_ligas])


def _scaled_scores(tree: ParseTree, leaf_totals: list[int]) -> list[SubtreeScore]:
    """``subtree_scores`` on word scores already scaled by 2**1074, one per leaf."""
    words = iter(leaf_totals)
    out: list = []

    def visit(node: ParseTree, path: Path) -> SubtreeScore:
        slot = len(out)
        out.append(None)  # reserved, so a node precedes its children
        if node.is_leaf_slot:
            fragment, total = f"({node.label})", next(words)
        else:
            kids = [visit(child, path + (i,)) for i, child in enumerate(node.children)]
            fragment = f"({node.label}{''.join(k.fragment for k in kids)})"
            total = sum(k.ligas_scaled for k in kids)
        out[slot] = SubtreeScore(path, fragment, total)
        return out[slot]

    visit(tree, ())
    return out


def rank_subtrees(tree: ParseTree, group: list[list[float]]) -> SubtreeScore:
    """The subtree position with maximal LIGAS aggregated across a group of
    same-pattern sentences.

    ``tree`` is the group's shared tree and ``group`` holds each sentence's
    word scores, summed exactly per leaf before one walk over the tree.

    The whole-tree root is not a candidate (the interesting constituent is
    always a proper subtree; a root "winner" would carry no information) —
    it is returned only for a degenerate single-node tree. Ties go to the
    shallowest, then leftmost, position.
    """
    if not group:
        raise DataError("rank_subtrees: empty group")
    n_leaves = tree.leaf_count()
    if any(len(row) != n_leaves for row in group):
        raise DataError(f"rank_subtrees: every sentence needs {n_leaves} word scores")
    totals = [sum(map(_scaled, column)) for column in zip(*group)]
    scores = _scaled_scores(tree, totals)
    candidates = scores[1:] or scores  # preorder: the root comes first
    return max(candidates, key=lambda s: (s.ligas_scaled, -s.depth, [-i for i in s.path]))


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
    best: SubtreeScore  # the group's top-ranked subtree (``rank_subtrees``)


def mine_patterns(
    records: Iterable[tuple[ParseTree, str, str, float, list[float]]],
) -> list[PatternRow]:
    """Group sentences by (category, label, pattern), sum their LIGAS and
    rank each group's subtrees.

    ``records`` yields (tree, category, gold label, sentence_ligas,
    word_ligas). A group keeps its first tree, which every member shares up
    to leaf words. Rows are sorted per (category, label) by count
    descending, then pattern string. A group whose LIGAS total or best
    subtree score is out of float range is a data error.
    """
    groups: dict[tuple[str, str, str], tuple[ParseTree, list[float], list[list[float]]]] = {}
    for tree, category, label, ligas, word_ligas in records:
        _, values, word_rows = groups.setdefault(
            (category, label, to_pattern(tree)), (tree, [], []))
        values.append(ligas)
        word_rows.append(word_ligas)
    rows = []
    for (category, label, pattern), (tree, values, word_rows) in groups.items():
        best = rank_subtrees(tree, word_rows)
        try:  # both floats are written to the reports
            ligas, _ = exact_fsum(values), best.ligas
        except OverflowError:
            raise DataError(f"pattern group ({category}, {label}, {pattern}): "
                            f"LIGAS total is out of float range") from None
        rows.append(PatternRow(pattern, category, label, len(values), ligas, best))
    rows.sort(key=lambda r: (r.category, r.label, -r.count, r.pattern))
    return rows


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def write_trees(path: str, items: Iterable[tuple[str, ParseTree]],
                comment: str | None = None) -> None:
    """One record per line: ``id<TAB>leafed-bracketed-tree``."""
    with write_artifact(path, comment) as fh:
        for sent_id, tree in items:
            fh.write(f"{sent_id}\t{render_leafed(tree)}\n")


def read_trees(path: str) -> dict[str, tuple[int, ParseTree]]:
    """Map each sentence id to its line in ``path`` and its tree."""
    out: dict[str, tuple[int, ParseTree]] = {}
    for line_no, raw in read_lines(path):
        line = raw.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{line_no}: expected 'id<TAB>tree'")
        sent_id, text = line.split("\t", 1)
        if sent_id in out:
            raise DataError(f"{path}:{line_no}: duplicate tree id {sent_id!r}")
        try:
            out[sent_id] = line_no, parse_bracketed(text)
        except DataError as exc:
            raise DataError(f"{path}:{line_no}: sentence {sent_id!r}: {exc}") from exc
    return out


def write_patterns_csv(path: str, rows: Iterable[PatternRow],
                       comment: str | None = None) -> None:
    with write_artifact(path, comment) as fh:
        fh.write("pattern,category,label,count,ligas\n")
        for r in rows:
            fh.write(f"{r.pattern},{r.category},{r.label},{r.count},{r.ligas!r}\n")
