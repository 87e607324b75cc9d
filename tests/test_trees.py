"""Bracketed-tree parsing, pattern canonicalization, and exact subtree sums.

The subtree oracles are tiny enough to hand-sum; scores use dyadic values
(0.5, 1.5, -0.25) so the float comparisons are exact, and the rational
child-sum identity is checked on arbitrary floats separately. Two slower
reference implementations stand beside the fast ones: ``parse_oracle``
tokenizes with ``re.finditer``, and ``rank_oracle`` sums ``Fraction``s path
by path.
"""

import math
import re
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ligas.errors import DataError
from ligas.trees import (
    MAX_TREE_DEPTH,
    ParseTree,
    align,
    exact_fsum,
    mine_patterns,
    parse_bracketed,
    rank_subtrees,
    read_trees,
    render_leafed,
    subtree_scores,
    to_pattern,
    write_patterns_csv,
    write_trees,
)

LEAFED = "(ROOT (S (NP (DT the) (NN dog)) (VP (VBD barked)) (. .)))"
PATTERN = "(ROOT(S(NP(DT)(NN))(VP(VBD))(.)))"


# ---------------------------------------------------------------------------
# parsing and serialization
# ---------------------------------------------------------------------------


def test_parse_leafed_tree():
    tree = parse_bracketed(LEAFED)
    assert tree.label == "ROOT"
    assert tree.leaves() == ["the", "dog", "barked", "."]
    assert tree.leaf_count() == 4
    s = tree.children[0]
    assert [c.label for c in s.children] == ["NP", "VP", "."]
    assert s.children[0].children[0].leaf_word == "the"


def test_parsed_trees_are_frozen():
    tree = parse_bracketed(LEAFED)
    with pytest.raises(FrozenInstanceError):
        tree.label = "S"
    with pytest.raises(FrozenInstanceError):
        tree.children[0].children[0].leaf_word = "a"


def test_parse_pattern_tree_has_wordless_leaves():
    tree = parse_bracketed(PATTERN)
    assert tree.leaves() == [None, None, None, None]


def test_leafed_render_round_trips():
    tree = parse_bracketed(LEAFED)
    assert render_leafed(tree) == LEAFED
    assert parse_bracketed(render_leafed(tree)) == tree


def test_render_normalizes_whitespace():
    sloppy = "( ROOT\n  ( NN\r\n  dog )\t)"
    assert render_leafed(parse_bracketed(sloppy)) == "(ROOT (NN dog))"


def test_pattern_drops_words_and_whitespace():
    assert to_pattern(parse_bracketed(LEAFED)) == PATTERN


def test_pattern_is_stable_under_reparsing():
    tree = parse_bracketed(PATTERN)
    assert to_pattern(tree) == PATTERN


def test_same_shape_different_words_share_a_pattern():
    a = parse_bracketed("(S (NN cat) (VB sat))")
    b = parse_bracketed("(S (NN dog) (VB ran))")
    assert to_pattern(a) == to_pattern(b) == "(S(NN)(VB))"


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "empty tree text"),
        ("   ", "empty tree text"),
        ("ROOT", "expected '\\(' at offset 0"),
        ("(ROOT(S)", "unbalanced parentheses: unexpected end at offset 8"),
        ("(ROOT (S))x", "trailing characters after tree at offset 10"),
        ("(NP (DT the) dog)", "word after subtrees at offset 13"),
        ("(DT the dog)", "second leaf word at offset 8"),
        ("(NP (DT the) (NN dog) extra)", "word after subtrees"),
        ("()", "expected a label or word at offset 1"),
    ],
)
def test_parse_errors_report_the_offset(text, message):
    with pytest.raises(DataError, match=message):
        parse_bracketed(text)


def nested(depth: int) -> str:
    """A one-word tree ``depth`` levels deep: (A (A ... (NN x)))."""
    return "(A " * (depth - 1) + "(NN x)" + ")" * (depth - 1)


def test_nesting_is_limited():
    tree = parse_bracketed(nested(MAX_TREE_DEPTH))
    assert to_pattern(tree).count("(") == MAX_TREE_DEPTH
    assert tree.leaves() == ["x"]
    offset = 3 * MAX_TREE_DEPTH  # the '(' that opens one level too many
    with pytest.raises(DataError, match=f"deeper than {MAX_TREE_DEPTH} levels "
                                        f"at offset {offset}$"):
        parse_bracketed(nested(MAX_TREE_DEPTH + 1))


def test_node_cannot_mix_children_and_word():
    with pytest.raises(DataError, match="both children and a leaf word"):
        ParseTree("NP", (ParseTree("DT", (), "the"),), "dog")


def test_constructed_and_parsed_trees_are_equal_and_hash_equal():
    built = ParseTree("S", (ParseTree("NP", (ParseTree("NN", (), "alice"),)),
                            ParseTree("VP", (ParseTree("VBD", leaf_word="slept"),)),
                            ParseTree(".", (), ".")))
    parsed = parse_bracketed("(S (NP (NN alice)) (VP (VBD slept)) (. .))")
    assert built == parsed and hash(built) == hash(parsed)
    bare = ParseTree("S", (ParseTree("NN"), ParseTree("VBD")))
    assert bare == parse_bracketed("(S(NN)(VBD))") and bare.leaves() == [None, None]


LABELS = st.sampled_from(["S", "NP", "VP", "NN", "DT", "VBD", "."])
WORDS = st.sampled_from(["the", "dog", "ran", "big", "alice", "?"])


def trees(max_leaves=6):
    return st.recursive(
        st.builds(lambda l, w: ParseTree(l, (), w), LABELS, WORDS),
        lambda children: st.builds(
            lambda l, cs: ParseTree(l, tuple(cs)),
            LABELS,
            st.lists(children, min_size=1, max_size=3),
        ),
        max_leaves=max_leaves,
    )


@given(tree=trees())
@settings(max_examples=120, deadline=None)
def test_serialization_round_trips(tree):
    parsed = parse_bracketed(render_leafed(tree))
    assert parsed == tree and hash(parsed) == hash(tree)
    pattern = to_pattern(tree)
    assert " " not in pattern
    assert to_pattern(parse_bracketed(pattern)) == pattern


_ORACLE_TOKEN = re.compile(r"[()]|[^\s()]+")  # a bracket, or a label or word


def parse_oracle(text: str) -> ParseTree:
    """The ``re.finditer`` parser ``parse_bracketed`` replaced: the same loop,
    with each token's offset read from its match."""
    if not text.strip():
        raise DataError("empty tree text")
    open_nodes: list[list] = []
    root = None
    want_label = False
    for match in _ORACLE_TOKEN.finditer(text):
        token, pos = match.group(), match.start()
        if root is not None:
            raise DataError(f"trailing characters after tree at offset {pos}")
        if want_label:
            if token in ("(", ")"):
                raise DataError(f"expected a label or word at offset {pos}")
            open_nodes.append([token, [], None])
            want_label = False
        elif not open_nodes and token != "(":
            raise DataError(f"expected '(' at offset {pos}")
        elif token == "(":
            if open_nodes and open_nodes[-1][2] is not None:
                raise DataError(
                    f"node {open_nodes[-1][0]}: subtree after leaf word at offset {pos}"
                )
            if len(open_nodes) == MAX_TREE_DEPTH:
                raise DataError(
                    f"tree nested deeper than {MAX_TREE_DEPTH} levels at offset {pos}"
                )
            want_label = True
        elif token == ")":
            label, children, word = open_nodes.pop()
            node = ParseTree(label, tuple(children), word)
            if open_nodes:
                open_nodes[-1][1].append(node)
            else:
                root = node
        else:
            label, children, word = open_nodes[-1]
            if children:
                raise DataError(f"node {label}: word after subtrees at offset {pos}")
            if word is not None:
                raise DataError(f"node {label}: second leaf word at offset {pos}")
            open_nodes[-1][2] = token
    if want_label:
        raise DataError(f"expected a label or word at offset {len(text)}")
    if root is None:
        raise DataError(f"unbalanced parentheses: unexpected end at offset {len(text)}")
    return root


def assert_parses_like_the_oracle(text):
    """The same tree, with the same hash as the dataclass constructor gives
    it, or a ``DataError`` with the same text and offset."""
    try:
        expected = parse_oracle(text)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            parse_bracketed(text)
        assert str(got.value) == str(exc)
    else:
        tree = parse_bracketed(text)
        assert tree == expected
        assert hash(tree) == hash(expected)


# whitespace to str.split and re's \s alike (NBSP, the \x1c-\x1f separators,
# NEL, U+2028, the ideographic space), and a zero-width space that is neither
SPACES = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\xa0", "\x1c", "\x1f", "\x85",
          "\u2028", "\u3000", "\u200b"]
PIECES = st.sampled_from(["(", ")", "(", ")", "S", "NP", "dog", "é", *SPACES])


@given(text=st.lists(PIECES, max_size=30).map("".join))
@example(text=nested(MAX_TREE_DEPTH + 1))
@example(text="(S\xa0(NN\u2028dog)\x1c)")
@example(text="(S (NN dog))\u200b")
@settings(max_examples=400, deadline=None)
def test_parse_matches_the_oracle_on_random_text(text):
    assert_parses_like_the_oracle(text)


@given(tree=trees(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_parse_matches_the_oracle_on_edited_trees(tree, data):
    text = data.draw(st.sampled_from([render_leafed(tree), to_pattern(tree)]))
    at = data.draw(st.integers(0, len(text)))
    edit = data.draw(st.sampled_from(["insert", "delete", "replace"]))
    piece = data.draw(PIECES)
    if edit == "insert":
        text = text[:at] + piece + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1:]
    else:
        text = text[:at] + piece + text[at + 1:]
    assert_parses_like_the_oracle(text)


# ---------------------------------------------------------------------------
# alignment
# ---------------------------------------------------------------------------


def test_align_accepts_matching_words_case_insensitively():
    tree = parse_bracketed("(S (NN Alice) (VBD slept))")
    align(tree, ["alice", "slept"])  # raises on any mismatch


def test_align_rejects_wrong_count():
    tree = parse_bracketed("(S (NN alice) (VBD slept))")
    with pytest.raises(DataError, match="2 leaves but the sentence has 3 words"):
        align(tree, ["alice", "slept", "."])


def test_align_rejects_word_mismatch_by_position():
    tree = parse_bracketed("(S (NN alice) (VBD slept))")
    with pytest.raises(DataError, match="leaf 1 is 'slept'"):
        align(tree, ["alice", "ran"])


def test_align_requires_a_leafed_tree():
    with pytest.raises(DataError, match="wordless"):
        align(parse_bracketed("(S(NN)(VBD))"), ["alice", "slept"])


# ---------------------------------------------------------------------------
# subtree scores
# ---------------------------------------------------------------------------

ORACLE = "(ROOT (S (NP (NN alice)) (VP (VBD slept)) (. .)))"
# word scores chosen dyadic so every float comparison below is exact
ORACLE_SCORES = [0.5, 1.5, -0.25]


def test_subtree_scores_hand_oracle():
    scores = subtree_scores(parse_bracketed(ORACLE), ORACLE_SCORES)
    by_path = {s.path: s for s in scores}
    assert by_path[()].fragment == "(ROOT(S(NP(NN))(VP(VBD))(.)))"
    assert by_path[()].ligas == 1.75
    assert by_path[(0,)].ligas == 1.75            # S
    assert by_path[(0, 0)].ligas == 0.5           # NP
    assert by_path[(0, 0, 0)].ligas == 0.5        # NN
    assert by_path[(0, 1)].ligas == 1.5           # VP
    assert by_path[(0, 2)].ligas == -0.25         # .
    assert [s.path for s in scores] == sorted(s.path for s in scores)
    assert by_path[(0, 1)].depth == 2


def test_subtree_scores_work_on_patterns_positionally():
    scores = subtree_scores(parse_bracketed("(S(NP(NN))(VP(VBD)))"), [2.0, 3.0])
    by_path = {s.path: s.ligas for s in scores}
    assert by_path[(0,)] == 2.0
    assert by_path[(1,)] == 3.0
    assert by_path[()] == 5.0


def test_subtree_scores_reject_count_mismatch():
    with pytest.raises(DataError, match="2 leaves but 3 word scores"):
        subtree_scores(parse_bracketed("(S(NN)(VB))"), [1.0, 2.0, 3.0])


@given(
    tree=trees(max_leaves=5),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_every_node_is_exactly_the_sum_of_its_children(tree, data):
    values = data.draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=tree.leaf_count(),
            max_size=tree.leaf_count(),
        )
    )
    scores = subtree_scores(tree, values)
    by_path = {s.path: s for s in scores}
    nodes = dict(tree.walk())
    for path, node in nodes.items():
        if node.children:
            child_sum = sum(
                (by_path[path + (i,)].ligas_exact for i in range(len(node.children))),
                Fraction(0),
            )
            assert by_path[path].ligas_exact == child_sum
    # the root's exact score is the exact sum of all word scores
    assert by_path[()].ligas_exact == sum((Fraction(v) for v in values), Fraction(0))


@given(tree=trees())
@settings(max_examples=120, deadline=None)
def test_subtree_scores_come_in_walk_order_with_node_patterns(tree):
    scores = subtree_scores(tree, [0.0] * tree.leaf_count())
    nodes = list(tree.walk())
    assert [s.path for s in scores] == [path for path, _ in nodes]
    assert [s.fragment for s in scores] == [to_pattern(node) for _, node in nodes]


def float_or_overflow(value):
    """``float(value)``, or ``OverflowError`` when it is out of float range."""
    try:
        return float(value)
    except OverflowError:
        return OverflowError


# subnormals, signed zeros, and values near the float limit whose partial
# sums overflow while the exact totals stay finite
EXTREME_ROWS = [
    [5e-324, 5e-324, -5e-324, 5e-324],
    [2.225073858507201e-308, -5e-324, 5e-324, 5e-324],
    [0.0, -0.0, -0.0, 0.0],
    [-0.0, -0.0, -0.0, -0.0],
    [1.7e308, 1.7e308, -1.7e308, -1.7e308],
    [1.7e308, -1.7e308, 1.7e308, -1.6e308],
    [-1.7e308, -1.7e308, 1.7e308, 5e-324],
    [1.7976931348623157e308, 5e-324, -1.7976931348623157e308, 1.0],
]
PAIRS = "(ROOT (L (A a) (B b)) (R (C c) (D d)))"


@pytest.mark.parametrize("values", EXTREME_ROWS)
def test_scaled_sums_match_the_fraction_oracle(values):
    scores = subtree_scores(parse_bracketed(PAIRS), values)
    exact = [Fraction(v) for v in values]
    by_path = {s.path: s for s in scores}
    leaves_under = {(): exact, (0,): exact[:2], (1,): exact[2:],
                    (0, 0): exact[:1], (0, 1): exact[1:2], (1, 0): exact[2:3], (1, 1): exact[3:]}
    for path, parts in leaves_under.items():
        total = sum(parts, Fraction(0))
        assert by_path[path].ligas_exact == total
        assert float_or_overflow(by_path[path].ligas_exact) == float_or_overflow(total)
        try:
            ligas = by_path[path].ligas
        except OverflowError:
            ligas = OverflowError
        assert ligas == float_or_overflow(total)
    # the root is the whole row's correctly rounded sum
    assert by_path[()].ligas == exact_fsum(values) == float(sum(exact, Fraction(0)))


def test_negative_zero_scores_read_as_positive_zero():
    scores = subtree_scores(parse_bracketed("(S (NN x))"), [-0.0])
    assert [math.copysign(1.0, s.ligas) for s in scores] == [1.0, 1.0]
    assert [s.ligas_exact for s in scores] == [0, 0]


def test_a_node_out_of_float_range_stays_exact():
    scores = subtree_scores(parse_bracketed(PAIRS), [1.7e308, 1.7e308, -1.7e308, -1.7e308])
    left = scores[1]
    assert left.path == (0,)
    assert left.ligas_exact == 2 * Fraction(1.7e308)
    with pytest.raises(OverflowError):
        left.ligas


@pytest.mark.parametrize("value", [Fraction(1, 3), Fraction(1, 1 << 1075)])
def test_scores_that_are_no_multiple_of_the_smallest_subnormal_are_refused(value):
    with pytest.raises(ValueError, match="is not an integer multiple of 2\\*\\*-1074"):
        subtree_scores(parse_bracketed("(S (NN x))"), [value])


@pytest.mark.parametrize("values,total", [
    ([1e308, 1e308, -1e308], 1e308),           # math.fsum overflows on a partial sum
    ([1.7e308, 1.7e308, -1.7e308, -1.6e308], float(Fraction(1.7e308) - Fraction(1.6e308))),
    ([5e-324, 5e-324], 1e-323),
    ([0.1, 0.2, 0.3], math.fsum([0.1, 0.2, 0.3])),
    ([], 0.0),
])
def test_exact_fsum_is_the_correctly_rounded_total(values, total):
    assert exact_fsum(values) == total


def test_exact_fsum_overflows_only_when_the_total_does():
    with pytest.raises(OverflowError):
        exact_fsum([1e308, 1e308])
    with pytest.raises(OverflowError):
        exact_fsum([-1.7e308, -1.7e308, 1e308])


FULL_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [5e-324, -5e-324, 0.0, -0.0, 1.7e308, -1.7e308, 1.7976931348623157e308])


@given(values=st.lists(FULL_FLOATS, max_size=8))
@settings(max_examples=200, deadline=None)
def test_exact_fsum_matches_the_fraction_oracle(values):
    try:
        got = exact_fsum(values)
    except OverflowError:
        got = OverflowError
    assert got == float_or_overflow(sum(map(Fraction, values), Fraction(0)))


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def rank_oracle(tree, rows):
    """Brute-force group ranking: each sentence's subtree scores, summed
    path by path across the group (the per-path sum ``rank_subtrees`` once
    kept). Returns (path, fragment, exact total)."""
    totals, fragments = {}, {}
    for row in rows:
        for s in subtree_scores(tree, row):
            totals[s.path] = totals.get(s.path, Fraction(0)) + s.ligas_exact
            fragments.setdefault(s.path, s.fragment)
    candidates = [p for p in totals if p != ()] or [()]
    best = max(candidates, key=lambda p: (totals[p], -len(p), [-i for i in p]))
    return best, fragments[best], totals[best]


def test_rank_prefers_the_highest_total():
    best = rank_subtrees(parse_bracketed(ORACLE), [ORACLE_SCORES])
    assert best.path == (0,)  # S at 1.75 beats VP at 1.5
    assert best.fragment == "(S(NP(NN))(VP(VBD))(.))"
    assert best.ligas == 1.75
    assert best.ligas_exact == Fraction(7, 4)


def test_rank_never_reports_the_whole_tree():
    # ROOT totals 2.0, more than either child, but is not a candidate
    best = rank_subtrees(parse_bracketed("(ROOT (A x) (B y))"), [[1.0, 1.0]])
    assert best.path == (0,)
    assert best.fragment == "(A)"


def test_rank_breaks_ties_shallowest_then_leftmost():
    best = rank_subtrees(parse_bracketed("(ROOT (A (B x)) (C y))"), [[1.0, 1.0]])
    # A, B and C all total 1.0; A and C are shallowest, A is leftmost
    assert best.path == (0,)
    assert best.fragment == "(A(B))"


def test_rank_with_opposite_signs():
    best = rank_subtrees(parse_bracketed("(ROOT (NP (NN it)) (VP (VBD won)))"),
                         [[-2.0, 5.0]])
    assert best.path == (1,)
    assert best.ligas == 5.0


def test_rank_aggregates_across_the_group():
    best = rank_subtrees(parse_bracketed("(ROOT(A)(B))"), [[1.0, 0.0], [0.0, 2.0]])
    assert best.path == (1,)
    assert best.ligas == 2.0


def test_rank_degenerate_single_node_falls_back_to_root():
    best = rank_subtrees(parse_bracketed("(NN dog)"), [[0.5]])
    assert best.path == ()
    assert best.fragment == "(NN)"


def test_rank_rejects_empty_group():
    with pytest.raises(DataError, match="empty group"):
        rank_subtrees(parse_bracketed("(NN dog)"), [])


@pytest.mark.parametrize("rows", [
    [[1.0, 2.0], [1.0]],             # rows differ in length
    [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]],  # rows agree, but not with the tree
])
def test_rank_rejects_rows_that_do_not_fit_the_tree(rows):
    with pytest.raises(DataError, match="every sentence needs 2 word scores"):
        rank_subtrees(parse_bracketed("(S (NN x) (VB y))"), rows)


@given(tree=trees(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_rank_matches_the_per_path_oracle(tree, data):
    n = tree.leaf_count()
    floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
    rows = data.draw(st.lists(st.lists(floats, min_size=n, max_size=n),
                              min_size=1, max_size=4))
    best = rank_subtrees(tree, rows)
    assert (best.path, best.fragment, best.ligas_exact) == rank_oracle(tree, rows)
    assert best.ligas == float(best.ligas_exact)


@given(tree=trees(), data=st.data())
@settings(max_examples=120, deadline=None)
def test_rank_matches_the_per_path_oracle_on_full_range_floats(tree, data):
    n = tree.leaf_count()
    rows = data.draw(st.lists(st.lists(FULL_FLOATS, min_size=n, max_size=n),
                              min_size=1, max_size=4))
    best = rank_subtrees(tree, rows)
    assert (best.path, best.fragment, best.ligas_exact) == rank_oracle(tree, rows)
    try:
        ligas = best.ligas
    except OverflowError:
        ligas = OverflowError
    assert ligas == float_or_overflow(best.ligas_exact)


@pytest.mark.parametrize("rows", [EXTREME_ROWS[:4], EXTREME_ROWS[4:], EXTREME_ROWS])
def test_rank_matches_the_per_path_oracle_on_extreme_values(rows):
    tree = parse_bracketed(PAIRS)
    best = rank_subtrees(tree, rows)
    assert (best.path, best.fragment, best.ligas_exact) == rank_oracle(tree, rows)


# ---------------------------------------------------------------------------
# pattern mining
# ---------------------------------------------------------------------------


def make_records():
    a = parse_bracketed("(S (NN cat) (VB sat))")
    b = parse_bracketed("(S (NN dog) (VB ran))")
    c = parse_bracketed("(S (NN sun) (VB set))")
    d = parse_bracketed("(S (DT the) (NN end))")
    return [
        (a, "CIA", "LA", 1.0, [0.25, 0.75]),
        (b, "CIA", "LA", 2.0, [1.5, 0.5]),
        (c, "CIA", "LA", 0.5, [-0.5, 1.0]),
        (d, "CIA", "LA", 9.0, [4.0, 5.0]),
        (a, "CIA", "LUA", -1.0, [-0.5, -0.5]),
        (b, "RAA", "LA", 4.0, [1.0, 3.0]),
    ]


def assert_best_matches_the_oracle(rows, records):
    """Each row's ``best`` equals the brute-force ranking of its group."""
    for row in rows:
        group = [r for r in records
                 if (r[1], r[2], to_pattern(r[0])) == (row.category, row.label, row.pattern)]
        path, fragment, total = rank_oracle(group[0][0], [r[4] for r in group])
        assert (row.best.path, row.best.fragment, row.best.ligas_exact) == \
            (path, fragment, total)


def test_mine_patterns_counts_and_sums():
    records = make_records()
    rows = mine_patterns(records)
    assert [(r.category, r.label, r.pattern, r.count) for r in rows] == [
        ("CIA", "LA", "(S(NN)(VB))", 3),
        ("CIA", "LA", "(S(DT)(NN))", 1),
        ("CIA", "LUA", "(S(NN)(VB))", 1),
        ("RAA", "LA", "(S(NN)(VB))", 1),
    ]
    assert rows[0].ligas == 3.5
    assert rows[2].ligas == -1.0
    assert_best_matches_the_oracle(rows, records)
    # the first group sums its word scores per leaf: NN 1.25, VB 2.25
    assert (rows[0].best.path, rows[0].best.fragment, rows[0].best.ligas) == \
        ((1,), "(VB)", 2.25)


def test_mine_patterns_tie_breaks_on_pattern_text():
    a = parse_bracketed("(S (NN x) (VB y))")
    b = parse_bracketed("(S (DT x) (NN y))")
    records = [(a, "CIA", "LA", 1.0, [0.5, 0.5]), (b, "CIA", "LA", 1.0, [0.75, 0.25])]
    rows = mine_patterns(records)
    assert [r.pattern for r in rows] == ["(S(DT)(NN))", "(S(NN)(VB))"]
    assert_best_matches_the_oracle(rows, records)


def test_mine_patterns_rejects_word_scores_that_do_not_fit_the_tree():
    tree = parse_bracketed("(S (NN x) (VB y))")
    with pytest.raises(DataError, match="every sentence needs 2 word scores"):
        mine_patterns([(tree, "CIA", "LA", 1.0, [1.0])])


def test_mine_patterns_empty_input():
    assert mine_patterns([]) == []


@pytest.mark.parametrize("records", [
    # the group's summed sentence LIGAS overflows
    [(1e308, [1e308, 0.0]), (1e308, [0.0, 1e308])],
    # the sentence totals cancel, but the best subtree's total overflows
    [(0.0, [1e308, -1e308]), (0.0, [1e308, -1e308])],
], ids=["sentence-total", "best-subtree"])
def test_mine_patterns_names_a_group_out_of_float_range(records):
    tree = parse_bracketed("(S (NN x) (VB y))")
    with pytest.raises(DataError, match=re.escape(
            "pattern group (CIA, LA, (S(NN)(VB))): LIGAS total is out of float range")):
        mine_patterns([(tree, "CIA", "LA", ligas, words) for ligas, words in records])


def test_mine_patterns_sums_past_a_partial_overflow():
    tree = parse_bracketed("(S (NN x) (VB y))")
    records = [(tree, "CIA", "LA", v, [v, 0.0]) for v in (1.7e308, 1.7e308, -1.7e308)]
    [row] = mine_patterns(records)
    assert row.ligas == 1.7e308
    assert (row.best.path, row.best.ligas) == ((0,), 1.7e308)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_tree_file_round_trip(tmp_path):
    items = [
        ("CIA-0000-LA", parse_bracketed(LEAFED)),
        ("CIA-0000-LUA", parse_bracketed("(ROOT (S (NP (DT the) (NN dog)) (VP (VBD barked)) (. .)))")),
    ]
    path = tmp_path / "trees.tsv"
    write_trees(str(path), items, comment="round trip check")
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# round trip check\n")
    assert "CIA-0000-LA\t(ROOT (S" in text
    got = read_trees(str(path))
    assert got == {sent_id: (line, tree) for line, (sent_id, tree) in enumerate(items, 2)}


def test_tree_file_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("a\t(NN dog)\na\t(NN cat)\n", encoding="utf-8")
    with pytest.raises(DataError, match=r":2: duplicate tree id 'a'"):
        read_trees(str(path))


def test_tree_file_rejects_missing_tab(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a (NN dog)\n", encoding="utf-8")
    with pytest.raises(DataError, match="expected 'id<TAB>tree'"):
        read_trees(str(path))


def test_tree_file_reports_parse_errors_with_line(tmp_path):
    path = tmp_path / "broken.tsv"
    path.write_text("a\t(NN dog)\nb\t(NN dog\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(
            f"{path}:2: sentence 'b': unbalanced parentheses: unexpected end at offset 7")):
        read_trees(str(path))


def test_patterns_csv_layout(tmp_path):
    records = make_records()
    rows = mine_patterns(records)
    assert_best_matches_the_oracle(rows, records)
    path = tmp_path / "patterns.csv"
    write_patterns_csv(str(path), rows, comment="digest=abc")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# digest=abc"
    assert lines[1] == "pattern,category,label,count,ligas"
    assert lines[2] == "(S(NN)(VB)),CIA,LA,3,3.5"
