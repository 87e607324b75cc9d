"""Synthetic pair generator, corpus TSV, and splitting."""

import re

import pytest

from ligas.config import CATEGORIES
from ligas.corpus import (
    LabeledSentence,
    generate_all,
    generate_synthetic,
    read_corpus_tsv,
    split,
    write_corpus_tsv,
)
from ligas.errors import DataError
from ligas.trees import parse_bracketed, to_pattern

# canonical tree shapes the five templates must emit, keyed by
# (category, label); SVA alternates singular/plural by pair index
TEMPLATE_PATTERNS = {
    ("CIA", "LA"): "(ROOT(S(NP(NN))(VP(VBD)(NP(DT)(NN)))(.)))",
    ("CIA", "LUA"): "(ROOT(S(NP(DT)(NN))(VP(VBD))(.)))",
    ("RAA", "LA"): "(ROOT(S(NP(PRP))(VP(VBD)(NP(PRP)))(.)))",
    ("RAA", "LUA"): "(ROOT(S(NP(PRP))(VP(VBD)(NP(PRP)))(.)))",
    ("SVA", "LA"): "(ROOT(S(NP(DT)(NN))(VP(VBZ)(ADVP(RB)))(.)))",
    ("SVA", "LUA"): "(ROOT(S(NP(DT)(NN))(VP(VBP)(ADVP(RB)))(.)))",
    ("SVO", "LA"): "(ROOT(S(NP(DT)(NN))(VP(VBD)(NP(DT)(NN)))(.)))",
    ("SVO", "LUA"): "(ROOT(S(NP(NP(NN))(NP(DT)(NN)))(VP(VBD))(.)))",
    ("WHE", "LA"): "(ROOT(SBARQ(WHNP(WP))(SQ(VBD)(NP(NN))(VP(VB)))(.)))",
    ("WHE", "LUA"): "(ROOT(SBARQ(WHNP(WP))(SQ(VBD)(NP(NN))(VP(VB)(NP(DT)(NN))))(.)))",
}


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


def test_generator_is_deterministic():
    a = generate_synthetic("CIA", 20, seed=9)
    b = generate_synthetic("CIA", 20, seed=9)
    assert a == b


def test_generator_seed_changes_the_text():
    a = [s.text for s in generate_synthetic("CIA", 20, seed=9)]
    b = [s.text for s in generate_synthetic("CIA", 20, seed=10)]
    assert a != b


def test_one_pair_gives_two_labeled_sentences():
    pair = generate_synthetic("RAA", 1, seed=0)
    assert [s.gold for s in pair] == ["LA", "LUA"]
    assert [s.id for s in pair] == ["RAA-0000-LA", "RAA-0000-LUA"]
    assert all(s.category == "RAA" for s in pair)


def test_generate_all_covers_the_categories_in_order():
    corpus = generate_all(n_pairs=2, seed=3)
    assert len(corpus) == 2 * 2 * len(CATEGORIES)
    seen = []
    for s in corpus:
        if s.category not in seen:
            seen.append(s.category)
    assert seen == list(CATEGORIES)
    assert len({s.id for s in corpus}) == len(corpus)


def test_generator_rejects_bad_arguments():
    with pytest.raises(DataError, match="unknown category"):
        generate_synthetic("XYZ", 1, seed=0)
    with pytest.raises(DataError, match="n_pairs"):
        generate_synthetic("CIA", 0, seed=0)


def word_diff(a, b):
    """Positions where two equal-length sentences disagree."""
    wa, wb = a.split(), b.split()
    assert len(wa) == len(wb)
    return [i for i, (x, y) in enumerate(zip(wa, wb)) if x != y]


@pytest.mark.parametrize("category", ["SVA", "RAA"])
def test_minimal_pairs_differ_in_exactly_one_word(category):
    corpus = generate_synthetic(category, 25, seed=4)
    for la, lua in zip(corpus[0::2], corpus[1::2]):
        assert len(word_diff(la.text, lua.text)) == 1


def test_structural_pairs_change_the_word_count():
    for la, lua in zip(*(iter(generate_synthetic("CIA", 10, seed=4)),) * 2):
        assert len(la.words) == 5 and len(lua.words) == 4
    for la, lua in zip(*(iter(generate_synthetic("WHE", 10, seed=4)),) * 2):
        assert len(lua.words) == len(la.words) + 2


def test_svo_pair_scrambles_the_order():
    la, lua = generate_synthetic("SVO", 1, seed=4)
    assert len(la.words) == 6 and len(lua.words) == 5
    # the fronted object loses its determiner but keeps every content word
    assert set(lua.words) <= set(la.words)


def test_every_generated_tree_matches_its_template_pattern():
    corpus = generate_all(n_pairs=6, seed=2)
    for s in corpus:
        assert s.tree is not None
        assert s.tree.leaves() == [w.lower() for w in s.words]
        expected = TEMPLATE_PATTERNS[(s.category, s.gold)]
        if s.category == "SVA":
            pair_index = int(s.id.split("-")[1])
            if pair_index % 2 == 1:  # plural pairs
                expected = expected.replace("(NN)", "(NNS)")
                expected = expected.replace("(VBZ)", "(VBP)") if s.gold == "LA" \
                    else expected.replace("(VBP)", "(VBZ)")
        assert to_pattern(s.tree) == expected


def test_template_patterns_parse_back():
    for pattern in TEMPLATE_PATTERNS.values():
        assert to_pattern(parse_bracketed(pattern)) == pattern


def test_labeled_sentence_validates_fields():
    with pytest.raises(DataError, match="unknown category"):
        LabeledSentence("x", "ZZZ", "LA", "hi .")
    with pytest.raises(DataError, match="unknown gold label"):
        LabeledSentence("x", "CIA", "maybe", "hi .")


# ---------------------------------------------------------------------------
# corpus TSV
# ---------------------------------------------------------------------------


def test_corpus_tsv_round_trip(tmp_path):
    corpus = generate_all(n_pairs=3, seed=8)
    path = tmp_path / "corpus.tsv"
    write_corpus_tsv(str(path), corpus, comment="config_digest=feedbeef1234")
    text = path.read_text(encoding="utf-8")
    assert text.startswith("# config_digest=feedbeef1234\nid\tcategory\tlabel\tsentence\n")
    got = read_corpus_tsv(str(path))
    assert [(s.id, s.category, s.gold, s.text) for s in got] == \
        [(s.id, s.category, s.gold, s.text) for s in corpus]
    assert all(s.tree is None for s in got)  # trees travel in their own file


def test_corpus_tsv_accepts_numeric_labels_and_crlf(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_bytes(
        b"id\tcategory\tlabel\tsentence\r\n"
        b"a\tCIA\t1\tkim cut the vase .\r\n"
        b"b\tCIA\t0\tthe vase cut .\r\n"
    )
    got = read_corpus_tsv(str(path))
    assert [s.gold for s in got] == ["LA", "LUA"]


@pytest.mark.parametrize(
    "body,message",
    [
        ("id\tcat\tlabel\tsentence\na\tCIA\tLA\thi .\n", "expected header"),
        ("id\tcategory\tlabel\tsentence\na\tCIA\tLA\n",
         "{path}:2: sentence 'a': expected 4 columns, got 3"),
        ("id\tcategory\tlabel\tsentence\na\tCIA\t2\thi .\n",
         "{path}:2: sentence 'a': unknown label '2' (column 3)"),
        ("id\tcategory\tlabel\tsentence\na\tXX\tLA\thi .\n",
         "{path}:2: sentence 'a': unknown category 'XX' (column 2)"),
        (
            "id\tcategory\tlabel\tsentence\na\tCIA\tLA\thi .\na\tCIA\tLUA\tbye .\n",
            ":3: duplicate id 'a'",
        ),
        ("", "missing header"),
        ("# only a comment\n", "missing header"),
    ],
)
def test_corpus_tsv_errors_name_the_line(tmp_path, body, message):
    path = tmp_path / "bad.tsv"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(message.format(path=path))):
        read_corpus_tsv(str(path))


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_is_stratified_and_sized():
    corpus = generate_all(n_pairs=10, seed=5)  # 100 sentences, 10 per stratum
    train, test = split(corpus, 0.8, seed=5)
    assert len(train) == 80 and len(test) == 20
    for part, per_stratum in ((train, 8), (test, 2)):
        counts = {}
        for s in part:
            counts[(s.category, s.gold)] = counts.get((s.category, s.gold), 0) + 1
        assert set(counts.values()) == {per_stratum}
    assert {s.id for s in train}.isdisjoint(s.id for s in test)


def test_split_preserves_corpus_order():
    corpus = generate_all(n_pairs=4, seed=5)
    train, test = split(corpus, 0.5, seed=5)
    order = {s.id: i for i, s in enumerate(corpus)}
    assert [order[s.id] for s in train] == sorted(order[s.id] for s in train)
    assert [order[s.id] for s in test] == sorted(order[s.id] for s in test)


def test_split_is_seeded():
    corpus = generate_all(n_pairs=10, seed=5)
    first = split(corpus, 0.8, seed=11)
    again = split(corpus, 0.8, seed=11)
    other = split(corpus, 0.8, seed=12)
    assert first == again
    assert first != other


def test_split_always_populates_both_sides():
    corpus = generate_synthetic("CIA", 2, seed=0)  # 2 per stratum
    train, test = split(corpus, 0.99, seed=0)
    assert len(train) == 2 and len(test) == 2


def test_split_rejects_tiny_strata_and_bad_fractions():
    corpus = generate_synthetic("CIA", 2, seed=0)
    lone = corpus[:1]
    with pytest.raises(DataError, match="need at least 2"):
        split(lone, 0.5, seed=0)
    with pytest.raises(DataError, match="train_fraction"):
        split(corpus, 1.0, seed=0)
