"""Learned word lexicons: food entities, experience feelings and emotions.

Each lexicon entry ties a surface lemma to one of the five perception nodes.
Compilation is pure and deterministic; optional LLM-based filtering of the
rule-compiled candidates is a separate pass (see mea.llm).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator

from . import InputFileError, read_text, split_fields
from .nature import NatureNodeId, find_cycle, reachable

PERCEPTION_NODES = frozenset(
    {
        NatureNodeId.FOOD,
        NatureNodeId.EXPERIENCE_FEELING_POS,
        NatureNodeId.EXPERIENCE_FEELING_NEG,
        NatureNodeId.EMO_POS,
        NatureNodeId.EMO_NEG,
    }
)

FEELING_SCORE_THRESHOLD = 0.6


class BeliefSource(str, Enum):
    WORDNET_HYPONYM = "wordnet_hyponym"
    SENTIWORDNET = "sentiwordnet"
    EMOTION_BASE = "emotion_base"
    EMOTION_EXTENSION = "emotion_extension"


class PosClass(str, Enum):
    NOUN = "noun"
    ADJECTIVE = "adjective"
    VERB = "verb"


class EmotionClass(str, Enum):
    ANGER = "Anger"
    FEAR = "Fear"
    JOY = "Joy"
    LOVE = "Love"
    SADNESS = "Sadness"
    SURPRISE = "Surprise"


_POSITIVE_EMOTIONS = frozenset({EmotionClass.JOY, EmotionClass.LOVE})
_NEGATIVE_EMOTIONS = frozenset({EmotionClass.ANGER, EmotionClass.FEAR, EmotionClass.SADNESS})


class LexiconError(Exception):
    """Base class for lexicon compilation and IO errors."""


class LexiconFormatError(LexiconError, InputFileError):
    pass


class TaxonomyCycleError(LexiconError):
    def __init__(self, cycle: list[str]):
        self.cycle = cycle
        super().__init__("hyponym taxonomy contains a cycle: " + " -> ".join(cycle))


def normalize_word(word: str) -> str:
    return word.replace("_", " ").strip().lower()


@dataclass(frozen=True)
class BeliefTuple:
    word: str
    node: NatureNodeId
    source: BeliefSource
    pos_class: PosClass

    def __post_init__(self) -> None:
        if self.node not in PERCEPTION_NODES:
            raise ValueError(f"{self.node.value} is not a perception node")
        if not self.word or self.word != self.word.strip().lower():
            raise ValueError(f"word must be non-empty, lowercase, trimmed: {self.word!r}")
        if self.source is BeliefSource.WORDNET_HYPONYM and (
            self.node is not NatureNodeId.FOOD or self.pos_class is not PosClass.NOUN
        ):
            raise ValueError("hyponym-sourced tuples must be food nouns")


class BeliefLexicon:
    """Immutable set of belief tuples with a word -> nodes index.

    Rejects duplicate (word, node) pairs and words mapped to both polarities
    of the same family; such conflicts must be resolved during compilation.
    """

    def __init__(self, tuples: Iterable[BeliefTuple]):
        self.tuples: frozenset[BeliefTuple] = frozenset(tuples)
        by_word: dict[str, list[BeliefTuple]] = {}
        seen_pairs: set[tuple[str, NatureNodeId]] = set()
        for t in sorted(self.tuples, key=lambda t: (t.word, t.node.value, t.source.value)):
            pair = (t.word, t.node)
            if pair in seen_pairs:
                raise ValueError(f"duplicate lexicon entry for ({t.word!r}, {t.node.value})")
            seen_pairs.add(pair)
            by_word.setdefault(t.word, []).append(t)
        for word, entries in by_word.items():
            nodes = {t.node for t in entries}
            for a, b in (
                (NatureNodeId.EMO_POS, NatureNodeId.EMO_NEG),
                (NatureNodeId.EXPERIENCE_FEELING_POS, NatureNodeId.EXPERIENCE_FEELING_NEG),
            ):
                if a in nodes and b in nodes:
                    raise ValueError(f"{word!r} maps to both {a.value} and {b.value}")
        self._by_word = {w: tuple(es) for w, es in by_word.items()}

    def lookup(self, word: str) -> set[NatureNodeId]:
        """Nodes linked to a word; case-insensitive, empty set when unknown."""
        return {t.node for t in self._by_word.get(word.casefold(), ())}

    def tuples_for(self, word: str) -> tuple[BeliefTuple, ...]:
        return self._by_word.get(word.casefold(), ())

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self) -> Iterator[BeliefTuple]:
        return iter(sorted(self.tuples, key=lambda t: (t.word, t.node.value)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BeliefLexicon):
            return NotImplemented
        return self.tuples == other.tuples

    def __hash__(self) -> int:
        return hash(self.tuples)


@dataclass(frozen=True)
class SenseRecord:
    """One sense row of a polarity-scored sense inventory."""

    lemma: str
    pos_class: PosClass
    pos_score: float
    neg_score: float
    sense_id: str

    def __post_init__(self) -> None:
        if not (0.0 <= self.pos_score <= 1.0 and 0.0 <= self.neg_score <= 1.0):
            raise ValueError(f"scores out of range for {self.lemma!r}")
        if self.pos_score + self.neg_score > 1.0:
            raise ValueError(f"pos+neg exceeds 1.0 for {self.lemma!r}")


@dataclass(frozen=True)
class EmotionBaseWord:
    word: str
    emotion_class: EmotionClass
    pos_class: PosClass
    extensions: tuple[tuple[str, PosClass], ...] = field(default=())


# Synset ids in the taxonomy dump follow the noun-synset shape name.n.NN,
# which distinguishes them from plain lemma strings.
_SYNSET_RE = re.compile(r"^\S+\.n\.\d+$")


def compile_food_lexicon(dump_path: str | Path, exclusions: Iterable[str] = ()) -> set[BeliefTuple]:
    """Walk the hyponym closure of every noun synset containing lemma "food".

    The dump holds two kinds of tab-separated lines: parent-synset<TAB>child-synset
    hyponym pairs and synset<TAB>lemma membership lines. All lemmas of reachable
    synsets (the seeds included) become food tuples, minus the exclusion list.
    """
    dump_path = Path(dump_path)
    children: dict[str, list[str]] = {}
    lemmas: dict[str, list[str]] = {}
    synsets: set[str] = set()
    for line_no, raw in enumerate(read_text(dump_path, LexiconFormatError).splitlines(), start=1):
        if not raw.strip():
            continue
        first, second = split_fields(raw, 2, dump_path, line_no, LexiconFormatError)
        if not _SYNSET_RE.match(first):
            raise LexiconFormatError(str(dump_path), line_no, f"first field is not a noun synset id: {first!r}")
        synsets.add(first)
        if _SYNSET_RE.match(second):
            children.setdefault(first, []).append(second)
            synsets.add(second)
        else:
            lemmas.setdefault(first, []).append(second)

    cycle = find_cycle(sorted(synsets), lambda syn: children.get(syn, ()))
    if cycle:
        raise TaxonomyCycleError(cycle)

    excluded = {normalize_word(w) for w in exclusions}
    seeds = [s for s, ls in lemmas.items() if any(normalize_word(l) == "food" for l in ls)]
    out: set[BeliefTuple] = set()
    for syn in reachable(seeds, lambda syn: children.get(syn, ())):
        for lemma in lemmas.get(syn, ()):
            word = normalize_word(lemma)
            if not word or word in excluded:
                continue
            out.add(BeliefTuple(word, NatureNodeId.FOOD, BeliefSource.WORDNET_HYPONYM, PosClass.NOUN))
    return out


def compile_feeling_lexicon(
    senses: Iterable[SenseRecord],
) -> tuple[set[BeliefTuple], set[BeliefTuple]]:
    """Split adjective lemmas into positive and negative feeling tuples.

    A sense qualifies as positive when pos_score > 0.6 (strictly) and as
    negative when neg_score > 0.6. A lemma enters a polarity only if it has at
    least one qualifying sense of that polarity and none of the other; lemmas
    qualifying both ways are dropped.
    """
    pos_lemmas: set[str] = set()
    neg_lemmas: set[str] = set()
    for rec in senses:
        if rec.pos_class is not PosClass.ADJECTIVE:
            continue
        word = normalize_word(rec.lemma)
        if not word:
            continue
        if rec.pos_score > FEELING_SCORE_THRESHOLD:
            pos_lemmas.add(word)
        if rec.neg_score > FEELING_SCORE_THRESHOLD:
            neg_lemmas.add(word)
    both = pos_lemmas & neg_lemmas
    pos = {
        BeliefTuple(w, NatureNodeId.EXPERIENCE_FEELING_POS, BeliefSource.SENTIWORDNET, PosClass.ADJECTIVE)
        for w in pos_lemmas - both
    }
    neg = {
        BeliefTuple(w, NatureNodeId.EXPERIENCE_FEELING_NEG, BeliefSource.SENTIWORDNET, PosClass.ADJECTIVE)
        for w in neg_lemmas - both
    }
    return pos, neg


def compile_emotion_lexicon(
    bases: Iterable[EmotionBaseWord],
) -> tuple[set[BeliefTuple], set[BeliefTuple]]:
    """Map emotion base words and their extensions onto the two emotion nodes.

    Joy and Love words go positive, Anger, Fear and Sadness negative, Surprise
    is discarded, and only adjectives and verbs are kept. A word landing in
    both polarities is dropped from both.
    """
    pos_map: dict[str, BeliefTuple] = {}
    neg_map: dict[str, BeliefTuple] = {}

    def consider(word: str, pos_class: PosClass, emotion: EmotionClass, source: BeliefSource) -> None:
        if pos_class not in (PosClass.ADJECTIVE, PosClass.VERB):
            return
        if emotion in _POSITIVE_EMOTIONS:
            node, target = NatureNodeId.EMO_POS, pos_map
        elif emotion in _NEGATIVE_EMOTIONS:
            node, target = NatureNodeId.EMO_NEG, neg_map
        else:
            return
        norm = normalize_word(word)
        if norm and norm not in target:
            target[norm] = BeliefTuple(norm, node, source, pos_class)

    for base in bases:
        consider(base.word, base.pos_class, base.emotion_class, BeliefSource.EMOTION_BASE)
        for ext_word, ext_pos in base.extensions:
            consider(ext_word, ext_pos, base.emotion_class, BeliefSource.EMOTION_EXTENSION)

    conflicted = pos_map.keys() & neg_map.keys()
    for word in conflicted:
        del pos_map[word]
        del neg_map[word]
    return set(pos_map.values()), set(neg_map.values())


LEXICON_HEADER = "#mea-lexicon v1"


def dumps_lexicon(lexicon: BeliefLexicon) -> str:
    lines = [LEXICON_HEADER]
    for t in lexicon:
        lines.append(f"{t.word}\t{t.node.value}\t{t.source.value}\t{t.pos_class.value}")
    return "\n".join(lines) + "\n"


def dump_lexicon(lexicon: BeliefLexicon, path: str | Path) -> None:
    Path(path).write_text(dumps_lexicon(lexicon), encoding="utf-8", newline="\n")


def loads_lexicon(text: str, origin: str = "<string>") -> BeliefLexicon:
    lines = text.splitlines()
    if not lines or lines[0] != LEXICON_HEADER:
        raise LexiconFormatError(origin, 1, f"missing header {LEXICON_HEADER!r}")
    tuples: list[BeliefTuple] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        word, node_s, source_s, pos_s = split_fields(line, 4, origin, line_no, LexiconFormatError)
        try:
            tuples.append(BeliefTuple(word, NatureNodeId(node_s), BeliefSource(source_s), PosClass(pos_s)))
        except ValueError as exc:
            raise LexiconFormatError(origin, line_no, str(exc)) from None
    try:
        return BeliefLexicon(tuples)
    except ValueError as exc:
        raise LexiconFormatError(origin, 0, str(exc)) from None


def load_lexicon(path: str | Path) -> BeliefLexicon:
    path = Path(path)
    return loads_lexicon(read_text(path, LexiconFormatError), origin=str(path))


def parse_sense_file(path: str | Path) -> list[SenseRecord]:
    """Read a sense dump: lemma, pos_class, pos_score, neg_score, sense_id."""
    path = Path(path)
    records: list[SenseRecord] = []
    for line_no, raw in enumerate(read_text(path, LexiconFormatError).splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        lemma, pos_s, pos_score_s, neg_score_s, sense_id = split_fields(raw, 5, path, line_no, LexiconFormatError)
        try:
            records.append(
                SenseRecord(lemma, PosClass(pos_s), float(pos_score_s), float(neg_score_s), sense_id)
            )
        except ValueError as exc:
            raise LexiconFormatError(str(path), line_no, str(exc)) from None
    return records


def parse_emotion_file(path: str | Path) -> list[EmotionBaseWord]:
    """Read emotion rows: word, emotion_class, pos_class, base|extension.

    Extension rows attach to the nearest preceding base row and must carry the
    same emotion class.
    """
    path = Path(path)
    bases: list[EmotionBaseWord] = []
    pending_ext: dict[int, list[tuple[str, PosClass]]] = {}
    for line_no, raw in enumerate(read_text(path, LexiconFormatError).splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        word, emo_s, pos_s, kind = split_fields(raw, 4, path, line_no, LexiconFormatError)
        try:
            emotion = EmotionClass(emo_s)
            pos_class = PosClass(pos_s)
        except ValueError as exc:
            raise LexiconFormatError(str(path), line_no, str(exc)) from None
        if kind == "base":
            bases.append(EmotionBaseWord(word, emotion, pos_class))
        elif kind == "extension":
            if not bases:
                raise LexiconFormatError(str(path), line_no, "extension row before any base row")
            if bases[-1].emotion_class is not emotion:
                raise LexiconFormatError(
                    str(path),
                    line_no,
                    f"extension class {emotion.value} does not match base {bases[-1].emotion_class.value}",
                )
            pending_ext.setdefault(len(bases) - 1, []).append((word, pos_class))
        else:
            raise LexiconFormatError(str(path), line_no, f"kind must be base or extension, got {kind!r}")
    return [
        EmotionBaseWord(b.word, b.emotion_class, b.pos_class, tuple(pending_ext.get(i, ())))
        for i, b in enumerate(bases)
    ]


def load_word_list(path: str | Path) -> list[str]:
    words = []
    for raw in read_text(path, LexiconFormatError).splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            words.append(line)
    return words
