"""Corpus ingestion and the synthetic acceptability-pair generator.

The generator produces LA/LUA sentence pairs for five phenomena —
causative-inchoative alternation (CIA), reflexive-antecedent agreement
(RAA), subject-verb agreement (SVA), subject-verb-object order (SVO) and
wh-extraction (WHE) — each with a gold constituency tree built from a
fixed template, so the whole pipeline (tokenize, train, attribute, mine
patterns) runs at desk scale on data whose tree shapes are known a priori.
A generated sentence is its tree's leaves joined by single spaces, so the
text and the tree agree word for word by construction.

Minimal-pair discipline: the SVA and RAA members of a pair differ in a
single word; the other categories differ structurally (dropped object,
scrambled order, illicitly retained object).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .config import CATEGORIES, read_lines, stream_rng, write_artifact
from .errors import DataError, UsageError
from .tokenizer import split_words
from .trees import ParseTree
from .model import CLASSES, LA, LUA


@dataclass(frozen=True)
class LabeledSentence:
    id: str
    category: str
    gold: str
    text: str
    tree: ParseTree | None = None
    line: int | None = field(default=None, compare=False)  # its line in the corpus file

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise DataError(f"unknown category {self.category!r}")
        if self.gold not in CLASSES:
            raise DataError(f"unknown gold label {self.gold!r}")

    @property
    def words(self) -> list[str]:
        return split_words(self.text)


# ---------------------------------------------------------------------------
# lexicons (deliberately tiny: the vocabulary must stay desk-scale)
# ---------------------------------------------------------------------------

NAMES = ("kim", "alex", "sam", "pat", "lee", "max", "ray", "jo")
NOUNS = (
    "dog", "cat", "mouse", "bird", "boy", "girl", "vase", "window",
    "door", "ball", "box", "table", "glass", "cup", "book", "cake",
    "song", "letter", "garden", "bread",
)
PLURAL_NOUNS = ("dogs", "cats", "birds", "boys", "girls")
CIA_VERBS = ("cut", "hit", "carried", "pushed", "kicked")
RAA_VERBS = ("admired", "blamed", "hurt", "taught", "trusted")
SVA_VERBS = (("barks", "bark"), ("runs", "run"), ("sleeps", "sleep"),
             ("jumps", "jump"), ("sings", "sing"))
SVO_VERBS = ("chased", "saw", "found", "caught", "followed")
WHE_VERBS = ("buy", "eat", "read", "cook", "paint")
ADVERBS = ("loudly", "quickly", "quietly", "happily", "slowly", "gracefully")
PRONOUNS = (("he", "himself"), ("she", "herself"), ("they", "themselves"),
            ("we", "ourselves"), ("you", "yourself"), ("i", "myself"))


def _t(label: str, *children: ParseTree) -> ParseTree:
    return ParseTree(label, tuple(children))


def _w(label: str, word: str) -> ParseTree:
    return ParseTree(label, (), word)


def _pick(rng, options):
    return options[int(rng.integers(len(options)))]


def _pick_two(rng, options):
    first = int(rng.integers(len(options)))
    second = (first + 1 + int(rng.integers(len(options) - 1))) % len(options)
    return options[first], options[second]


def _cia_pair(rng) -> tuple[ParseTree, ParseTree]:
    name = _pick(rng, NAMES)
    verb = _pick(rng, CIA_VERBS)
    obj = _pick(rng, NOUNS)
    la_tree = _t("ROOT", _t("S",
                            _t("NP", _w("NN", name)),
                            _t("VP", _w("VBD", verb),
                               _t("NP", _w("DT", "the"), _w("NN", obj))),
                            _w(".", ".")))
    # dropping the object leaves a causative verb with no inchoative reading
    lua_tree = _t("ROOT", _t("S",
                             _t("NP", _w("DT", "the"), _w("NN", obj)),
                             _t("VP", _w("VBD", verb)),
                             _w(".", ".")))
    return la_tree, lua_tree


def _raa_pair(rng):
    pron, reflexive = _pick(rng, PRONOUNS)
    others = [r for p, r in PRONOUNS if p != pron and r != reflexive]
    wrong_reflexive = _pick(rng, others)
    verb = _pick(rng, RAA_VERBS)

    def tree(refl: str) -> ParseTree:
        return _t("ROOT", _t("S",
                             _t("NP", _w("PRP", pron)),
                             _t("VP", _w("VBD", verb),
                                _t("NP", _w("PRP", refl))),
                             _w(".", ".")))

    return tree(reflexive), tree(wrong_reflexive)


def _sva_pair(rng, plural: bool):
    verb_s, verb_base = _pick(rng, SVA_VERBS)
    adv = _pick(rng, ADVERBS)
    if plural:
        noun = _pick(rng, PLURAL_NOUNS)
        noun_tag, good, bad, good_tag, bad_tag = "NNS", verb_base, verb_s, "VBP", "VBZ"
    else:
        noun = _pick(rng, NOUNS)
        noun_tag, good, bad, good_tag, bad_tag = "NN", verb_s, verb_base, "VBZ", "VBP"

    def tree(verb: str, tag: str) -> ParseTree:
        return _t("ROOT", _t("S",
                             _t("NP", _w("DT", "the"), _w(noun_tag, noun)),
                             _t("VP", _w(tag, verb), _t("ADVP", _w("RB", adv))),
                             _w(".", ".")))

    return tree(good, good_tag), tree(bad, bad_tag)


def _svo_pair(rng):
    subj, obj = _pick_two(rng, NOUNS)
    verb = _pick(rng, SVO_VERBS)
    la_tree = _t("ROOT", _t("S",
                            _t("NP", _w("DT", "the"), _w("NN", subj)),
                            _t("VP", _w("VBD", verb),
                               _t("NP", _w("DT", "the"), _w("NN", obj))),
                            _w(".", ".")))
    # object fronted without its determiner: an order no reading licenses
    lua_tree = _t("ROOT", _t("S",
                             _t("NP",
                                _t("NP", _w("NN", obj)),
                                _t("NP", _w("DT", "the"), _w("NN", subj))),
                             _t("VP", _w("VBD", verb)),
                             _w(".", ".")))
    return la_tree, lua_tree


def _whe_pair(rng):
    name = _pick(rng, NAMES)
    verb = _pick(rng, WHE_VERBS)
    obj = _pick(rng, NOUNS)

    def tree(retained: bool) -> ParseTree:
        vp = [_w("VB", verb)]
        if retained:
            vp.append(_t("NP", _w("DT", "the"), _w("NN", obj)))
        return _t("ROOT", _t("SBARQ",
                             _t("WHNP", _w("WP", "what")),
                             _t("SQ", _w("VBD", "did"),
                                _t("NP", _w("NN", name)),
                                _t("VP", *vp)),
                             _w(".", "?")))

    return tree(False), tree(True)


def generate_synthetic(category: str, n_pairs: int, seed: int) -> list[LabeledSentence]:
    """``2 * n_pairs`` sentences for one category, LA/LUA paired, with gold
    trees; fully determined by (category, n_pairs, seed)."""
    if category not in CATEGORIES:
        raise UsageError(f"unknown category {category!r}; expected one of {CATEGORIES}")
    if n_pairs < 1:
        raise UsageError(f"n_pairs must be >= 1, got {n_pairs}")
    rng = stream_rng(seed, f"gen:{category}")
    out: list[LabeledSentence] = []
    for k in range(n_pairs):
        if category == "CIA":
            la, lua = _cia_pair(rng)
        elif category == "RAA":
            la, lua = _raa_pair(rng)
        elif category == "SVA":
            la, lua = _sva_pair(rng, plural=bool(k % 2))
        elif category == "SVO":
            la, lua = _svo_pair(rng)
        else:
            la, lua = _whe_pair(rng)
        for gold, tree in ((LA, la), (LUA, lua)):
            out.append(LabeledSentence(
                id=f"{category}-{k:04d}-{gold}",
                category=category,
                gold=gold,
                text=" ".join(tree.leaves()),
                tree=tree,
            ))
    return out


def generate_all(n_pairs: int, seed: int) -> list[LabeledSentence]:
    out: list[LabeledSentence] = []
    for category in CATEGORIES:
        out.extend(generate_synthetic(category, n_pairs, seed))
    return out


# ---------------------------------------------------------------------------
# corpus TSV
# ---------------------------------------------------------------------------

_HEADER = ("id", "category", "label", "sentence")
_LABELS = {"LA": LA, "LUA": LUA, "1": LA, "0": LUA}


def write_corpus_tsv(path: str, sentences: list[LabeledSentence],
                     comment: str | None = None) -> None:
    with write_artifact(path, comment) as fh:
        fh.write("\t".join(_HEADER) + "\n")
        for s in sentences:
            fh.write(f"{s.id}\t{s.category}\t{s.gold}\t{s.text}\n")


def read_corpus_tsv(path: str) -> list[LabeledSentence]:
    sentences: list[LabeledSentence] = []
    seen: set[str] = set()
    header_done = False
    for line_no, raw in read_lines(path):
        line = raw.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        cells = line.split("\t")
        if not header_done:
            if tuple(cells) != _HEADER:
                raise DataError(
                    f"{path}:{line_no}: expected header "
                    f"{chr(9).join(_HEADER)!r}, got {line!r}"
                )
            header_done = True
            continue
        if len(cells) != len(_HEADER):  # a line without a tab has no id column
            where = f": sentence {cells[0]!r}" if len(cells) > 1 else ""
            raise DataError(f"{path}:{line_no}{where}: expected {len(_HEADER)} "
                            f"columns, got {len(cells)}")
        sent_id, category, label, text = cells
        if category not in CATEGORIES:
            raise DataError(f"{path}:{line_no}: sentence {sent_id!r}: "
                            f"unknown category {category!r} (column 2)")
        if label not in _LABELS:
            raise DataError(f"{path}:{line_no}: sentence {sent_id!r}: "
                            f"unknown label {label!r} (column 3)")
        if sent_id in seen:
            raise DataError(f"{path}:{line_no}: duplicate id {sent_id!r}")
        seen.add(sent_id)
        sentences.append(LabeledSentence(sent_id, category, _LABELS[label], text,
                                         line=line_no))
    if not header_done:
        raise DataError(f"{path}: missing header line")
    return sentences


def split(corpus: list[LabeledSentence], train_fraction: float,
          seed: int) -> tuple[list[LabeledSentence], list[LabeledSentence]]:
    """Seeded split, stratified by (category, gold) so every stratum lands
    in both halves."""
    if not (0.0 < train_fraction < 1.0):
        raise DataError(f"train_fraction must be in (0, 1), got {train_fraction}")
    strata: dict[tuple[str, str], list[LabeledSentence]] = {}
    for s in corpus:
        strata.setdefault((s.category, s.gold), []).append(s)
    rng = stream_rng(seed, "split")
    train_ids: set[str] = set()
    for key in sorted(strata):
        members = strata[key]
        n = len(members)
        if n < 2:
            raise DataError(
                f"stratum {key} has {n} sentence(s); need at least 2 to split"
            )
        n_train = min(max(int(round(train_fraction * n)), 1), n - 1)
        order = rng.permutation(n)
        train_ids.update(members[i].id for i in order[:n_train])
    train = [s for s in corpus if s.id in train_ids]
    test = [s for s in corpus if s.id not in train_ids]
    return train, test
