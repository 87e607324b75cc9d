"""WordPiece splitting, vocabulary construction, and alignment spans."""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ligas.errors import DataError
from ligas.tokenizer import (
    CLS_ID,
    PAD_ID,
    SEP_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocabulary,
    build_vocab,
    split_words,
    tokenize,
)


def test_special_token_ids_are_pinned():
    assert (PAD_ID, UNK_ID, CLS_ID, SEP_ID) == (0, 1, 2, 3)
    vocab = build_vocab(["a b"], max_size=64)
    assert vocab.tokens[:4] == list(SPECIAL_TOKENS)


def test_split_words_lowercases_and_detaches_punctuation():
    assert split_words("The dog barked.") == ["the", "dog", "barked", "."]
    assert split_words("what did Kim buy ?") == ["what", "did", "kim", "buy", "?"]
    assert split_words("") == []


def test_known_words_stay_whole():
    vocab = build_vocab(["the dog barks loudly .", "the cat sleeps ."], max_size=128)
    t = tokenize("the dog barks .", vocab)
    assert t.tokens[0] == "[CLS]" and t.tokens[-1] == "[SEP]"
    assert list(t.tokens[1:-1]) == ["the", "dog", "barks", "."]
    assert t.words == ("the", "dog", "barks", ".")
    # every word is a single-token span
    assert [span for _, span in t.alignment] == [(1, 2), (2, 3), (3, 4), (4, 5)]


def test_oov_word_splits_greedily_left_to_right():
    corpus = ["dog dogs dog dog"]
    # budget: specials + chars {d,g,o,s} bare and ##-prefixed + one word slot,
    # which goes to "dog" (freq 3 beats "dogs" at 1); "##s" is a mandatory char
    vocab = build_vocab(corpus, max_size=len(SPECIAL_TOKENS) + 4 * 2 + 1)
    assert "dog" in vocab and "##s" in vocab and "dogs" not in vocab
    t = tokenize("dogs", vocab)
    assert list(t.tokens[1:-1]) == ["dog", "##s"]
    assert t.alignment == ((0, (1, 3)),)


def test_unmatchable_word_becomes_unk():
    vocab = build_vocab(["abc"], max_size=16)
    t = tokenize("xyz abc", vocab)
    assert t.token_ids[1] == UNK_ID
    assert list(t.tokens[1:-1])[1:] == ["abc"]


def test_greedy_prefers_longest_piece():
    tokens = list(SPECIAL_TOKENS) + ["a", "ab", "abc", "##c", "##bc", "b", "c"]
    vocab = Vocabulary(tokens)
    t = tokenize("abc", vocab)
    assert list(t.tokens[1:-1]) == ["abc"]
    t = tokenize("abcc", vocab)
    assert list(t.tokens[1:-1]) == ["abc", "##c"]


def test_vocab_requires_special_prefix_and_rejects_duplicates():
    with pytest.raises(DataError, match="must start with"):
        Vocabulary(["a", "b", "c", "d"])
    with pytest.raises(DataError, match="duplicate"):
        Vocabulary(list(SPECIAL_TOKENS) + ["x", "x"])


def test_build_vocab_rejects_too_small_budget():
    with pytest.raises(DataError, match="max_size"):
        build_vocab(["abcdefghijklmnop"], max_size=8)


def test_build_vocab_is_frequency_then_lexicographic():
    corpus = ["bb bb bb aa aa cc"]
    vocab = build_vocab(corpus, max_size=len(SPECIAL_TOKENS) + 3 * 2 + 3)
    whole_words = vocab.tokens[len(SPECIAL_TOKENS) + 6 :]
    assert whole_words == ["bb", "aa", "cc"]  # freq desc, then lexicographic


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10),
                min_size=1, max_size=8))
def test_alignment_spans_partition_interior(words):
    sentence = " ".join(words)
    vocab = build_vocab([sentence], max_size=512)
    t = tokenize(sentence, vocab)
    assert t.token_ids[0] == CLS_ID and t.token_ids[-1] == SEP_ID
    expected_lo = 1
    for wi, (lo, hi) in t.alignment:
        assert lo == expected_lo and hi > lo
        expected_lo = hi
    assert expected_lo == len(t.token_ids) - 1  # spans end right before [SEP]
    assert [wi for wi, _ in t.alignment] == list(range(len(t.words)))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["dog", "dogs", "barked", "unseenword", "x"]),
                min_size=1, max_size=6))
def test_pieces_reassemble_to_words(words):
    vocab = build_vocab(["dog dogs barked ."], max_size=64)
    t = tokenize(" ".join(words), vocab)
    for wi, (lo, hi) in t.alignment:
        pieces = t.tokens[lo:hi]
        if pieces == ("[UNK]",):
            continue
        rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert rebuilt == t.words[wi]
