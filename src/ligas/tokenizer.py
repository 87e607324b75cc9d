"""Deterministic WordPiece-style subword tokenizer with word alignment.

Tokenization is uncased, detaches punctuation marks as their own words, and
splits out-of-vocabulary words by greedy longest-match from the left; the
alignment it returns lets attribution scores of subword pieces be summed
back into word scores.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DataError

PAD, UNK, CLS, SEP = "[PAD]", "[UNK]", "[CLS]", "[SEP]"
SPECIAL_TOKENS = (PAD, UNK, CLS, SEP)
PAD_ID, UNK_ID, CLS_ID, SEP_ID = 0, 1, 2, 3
CONTINUATION = "##"

_WORD_RE = re.compile(r"\w+|[^\w\s]")


def split_words(text: str) -> list[str]:
    """Lower-case and split into words; each punctuation mark is a word."""
    return _WORD_RE.findall(text.lower())


class Vocabulary:
    """Immutable token table with dense ids and fixed special tokens."""

    def __init__(self, tokens: list[str]):
        if list(tokens[:4]) != list(SPECIAL_TOKENS):
            raise DataError(f"vocabulary must start with {SPECIAL_TOKENS}")
        self._tokens = list(tokens)
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            raise DataError("vocabulary contains duplicate tokens")

    def __len__(self) -> int:
        return len(self._tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._ids

    def id_of(self, token: str) -> int:
        return self._ids[token]

    @property
    def tokens(self) -> list[str]:
        return list(self._tokens)


@dataclass(frozen=True)
class TokenizedSentence:
    """Token ids plus the word-to-token alignment.

    ``alignment`` holds one ``(word_index, (lo, hi))`` entry per word; the
    half-open spans partition the token positions strictly between [CLS]
    and [SEP].
    """

    token_ids: tuple[int, ...]
    tokens: tuple[str, ...]
    words: tuple[str, ...]
    alignment: tuple[tuple[int, tuple[int, int]], ...]


def build_vocab(corpus: list[str], max_size: int) -> Vocabulary:
    """Build a vocabulary from sentences, deterministic in corpus order.

    Mandatory entries are the specials plus every character seen (both bare
    and ``##``-prefixed, so greedy matching can always fall back to single
    characters). The remaining budget goes to whole words by descending
    frequency, then to ``##``-prefixed word suffixes by descending
    frequency. Ties break lexicographically.
    """
    if not corpus:
        raise DataError("build_vocab: empty corpus")
    word_freq: dict[str, int] = {}
    for sentence in corpus:
        for word in split_words(sentence):
            word_freq[word] = word_freq.get(word, 0) + 1

    chars = sorted({c for w in word_freq for c in w})
    mandatory = list(SPECIAL_TOKENS) + chars + [CONTINUATION + c for c in chars]
    if max_size < len(mandatory):
        raise DataError(
            f"build_vocab: max_size {max_size} cannot hold "
            f"{len(mandatory)} special and character tokens"
        )

    tokens = list(mandatory)
    seen = set(tokens)

    def take(candidates: list[tuple[int, str]]) -> None:
        for _, tok in sorted(candidates, key=lambda fr: (-fr[0], fr[1])):
            if len(tokens) >= max_size:
                return
            if tok not in seen:
                seen.add(tok)
                tokens.append(tok)

    take([(freq, word) for word, freq in word_freq.items()])

    suffix_freq: dict[str, int] = {}
    for word, freq in word_freq.items():
        for start in range(1, len(word)):
            piece = CONTINUATION + word[start:]
            suffix_freq[piece] = suffix_freq.get(piece, 0) + freq
    take(list((freq, piece) for piece, freq in suffix_freq.items()))

    return Vocabulary(tokens)


def _wordpiece(word: str, vocab: Vocabulary) -> list[str] | None:
    """Greedy longest-match split of one word; None when unmatchable."""
    pieces = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            candidate = word[start:end]
            if start > 0:
                candidate = CONTINUATION + candidate
            if candidate in vocab:
                found = candidate
                break
            end -= 1
        if found is None:
            return None
        pieces.append(found)
        start = end
    return pieces


def tokenize(sentence: str, vocab: Vocabulary) -> TokenizedSentence:
    """Tokenize into [CLS] pieces... [SEP] with a word-span alignment."""
    words = split_words(sentence)
    token_ids = [CLS_ID]
    tokens = [CLS]
    alignment = []
    for wi, word in enumerate(words):
        pieces = _wordpiece(word, vocab)
        if pieces is None:
            pieces = [UNK]
        lo = len(token_ids)
        for piece in pieces:
            token_ids.append(vocab.id_of(piece))
            tokens.append(piece)
        alignment.append((wi, (lo, len(token_ids))))
    token_ids.append(SEP_ID)
    tokens.append(SEP)
    return TokenizedSentence(
        token_ids=tuple(token_ids),
        tokens=tuple(tokens),
        words=tuple(words),
        alignment=tuple(alignment),
    )
