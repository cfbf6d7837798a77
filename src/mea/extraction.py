"""Event extraction over externally produced dependency parses.

Two kinds of events are matched per sentence: first-person action events
(ten dependency patterns, one event per anchor verb, longest pattern wins)
and a single STATE event covering the root clause, which gives perception
detection a span to scan. Negation, tense and the four perception keyword
combinations are decided here.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, NamedTuple

from . import InputFileError, read_text, split_fields
from .belief import BeliefLexicon, PosClass
from .nature import EMOTION_NODES, FEELING_NODES, NatureNodeId, opposite_node

FIRST_PERSON_LEMMAS = frozenset({"i", "we"})


class Token(NamedTuple):
    index: int          # 1-based position
    surface: str
    lemma: str          # lowercase, taken from the parse
    pos_tag: str        # Penn Treebank tag
    head: int           # 0 = root
    deprel: str


@dataclass(frozen=True, slots=True)
class ParsedSentence:
    tokens: tuple[Token, ...]
    # Derived once, when the sentence is built, and shared by every extractor:
    children: dict[int, list[Token]] = field(init=False, repr=False, compare=False)  # head index -> dependents, in order
    negators: tuple[int, ...] = field(init=False, repr=False, compare=False)  # indices of "not" and "n't" tokens

    def __post_init__(self) -> None:
        children: dict[int, list[Token]] = {}
        for tok in self.tokens:
            children.setdefault(tok.head, []).append(tok)
        object.__setattr__(self, "children", children)
        negators = [t.index for t in self.tokens if t.lemma == "not" or t.surface.lower() == "n't"]
        object.__setattr__(self, "negators", tuple(negators))

    @property
    def root(self) -> Token:
        return self.children[0][0]


@dataclass(frozen=True, slots=True)
class Event:
    sentence: ParsedSentence
    token_indices: tuple[int, ...]   # sorted
    pattern_id: str                  # one of PATTERN_IDS
    verb_index: int
    subject_lemma: str | None
    negated: bool
    # Derived once, when the event is built:
    text: str = field(init=False, compare=False)             # the span's surfaces, space-separated
    tense: Tense | None = field(init=False, compare=False)   # None for STATE: only action events have one

    def __post_init__(self) -> None:
        if self.verb_index not in self.token_indices:
            raise ValueError("verb index not part of the event span")
        if self.pattern_id != STATE and self.subject_lemma not in FIRST_PERSON_LEMMAS:
            raise ValueError("action events require a first-person subject")
        tokens = self.sentence.tokens
        object.__setattr__(self, "text", " ".join([tokens[i - 1].surface for i in self.token_indices]))
        object.__setattr__(self, "tense", None if self.pattern_id == STATE else classify_tense(self))


class Combo(str, Enum):
    FOOD_FEELING = "food_feeling"
    FOOD_EMOTION = "food_emotion"
    FIRSTPERSON_EMOTION = "firstperson_emotion"
    EMOTIONAL_ACTION = "emotional_action"


class PerceptionLink(NamedTuple):
    word: str
    node: NatureNodeId
    combo: Combo
    flipped: bool = False


class Tense(Enum):
    PAST = "past"
    OTHER = "other"


_REVIEW_ID_RE = re.compile(r"^#\s*review_id\s*=\s*(.+?)\s*$")


def parse_conllu(path: str | Path) -> list[ParsedSentence]:
    """Parse one review's 10-column CoNLL-U style file into its sentences, in file order.

    Uses columns ID, FORM, LEMMA, XPOS, HEAD and DEPREL; the rest are carried
    by the format but ignored. Sentences are blank-line separated and each
    needs a `# review_id = ...` comment equal to the file's stem. This is the
    one place a parse is checked: IDs run from 1, heads are in range and not
    the token itself, XPOS is non-empty and each sentence has one root.
    """
    path = os.fspath(path)  # kept a str: a Path per file is a measurable share of reading one
    name = os.path.basename(path)
    dot = name.rfind(".")
    stem = name[:dot] if 0 < dot < len(name) - 1 else name  # as Path.stem
    sentences: list[ParsedSentence] = []
    has_review_id = False
    rows: list[tuple[int, list[str]]] = []
    start_line = 0

    def flush() -> None:
        nonlocal has_review_id, rows
        if rows:
            if not has_review_id:
                raise InputFileError(path, start_line, "sentence has no review_id comment")
            tokens = []
            fault = None  # the first sentence-level fault, reported after any token's own fault
            roots = 0
            for pos, (line_no, fields) in enumerate(rows, start=1):
                try:
                    idx = int(fields[0])
                    head = int(fields[6])
                except ValueError:
                    raise InputFileError(path, line_no, "ID and HEAD must be integers") from None
                if idx < 1:
                    raise InputFileError(path, line_no, f"token index must be >= 1, got {idx}")
                if head == idx:
                    raise InputFileError(path, line_no, f"token {idx} heads itself")
                if not fields[4]:
                    raise InputFileError(path, line_no, f"token {idx} has an empty POS tag")
                if fault is None:
                    if idx != pos:
                        fault = f"token indices not contiguous at position {pos}"
                    elif not 0 <= head <= len(rows):
                        fault = f"token {idx} has dangling head {head}"
                roots += head == 0
                tokens.append(Token(idx, fields[1], fields[2].lower(), fields[4], head, fields[7]))
            if fault is None and roots != 1:
                fault = f"expected exactly one root token, found {roots}"
            if fault is not None:
                raise InputFileError(path, start_line, fault)
            sentences.append(ParsedSentence(tuple(tokens)))
        has_review_id, rows = False, []

    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        if not raw.strip():
            flush()
            continue
        if raw.startswith("#"):
            m = _REVIEW_ID_RE.match(raw)
            if m:
                if m.group(1) != stem:
                    raise InputFileError(path, line_no, f"review_id {m.group(1)!r} does not match the file name")
                has_review_id = True
            continue
        fields = split_fields(raw, 10, path, line_no)
        if not rows:
            start_line = line_no
        rows.append((line_no, fields))
    flush()
    return sentences


# --- action patterns -------------------------------------------------------

def _is_verb(tok: Token) -> bool:
    return tok.pos_tag.startswith("VB")


def _is_noun(tok: Token) -> bool:
    return tok.pos_tag in ("NN", "NNS", "NNP", "NNPS", "PRP")


def _is_adjectival(tok: Token) -> bool:
    # VBN covers predicative participles ("to be served")
    return tok.pos_tag.startswith("JJ") or tok.pos_tag == "VBN"


def _is_preposition(tok: Token) -> bool:
    return tok.pos_tag in ("IN", "TO")


def _is_be(tok: Token) -> bool:
    return tok.lemma == "be"


@dataclass(frozen=True)
class PatternArc:
    head_slot: str
    dep_slot: str
    deprel: str
    dep_ok: Callable[[Token], bool]          # what the dependent slot accepts


@dataclass(frozen=True)
class ActionPattern:
    pattern_id: str
    arcs: tuple[PatternArc, ...]             # ordered so heads bind first


ACTION_PATTERNS: tuple[ActionPattern, ...] = (
    ActionPattern("P1", ()),
    ActionPattern("P2", (PatternArc("v1", "n2", "dobj", _is_noun),)),
    ActionPattern("P3", (PatternArc("v1", "a", "xcomp", _is_adjectival),)),
    ActionPattern(
        "P4",
        (PatternArc("v1", "n2", "iobj", _is_noun), PatternArc("v1", "n3", "dobj", _is_noun)),
    ),
    ActionPattern(
        "P5",
        (PatternArc("v1", "a1", "xcomp", _is_adjectival), PatternArc("a1", "be", "cop", _is_be)),
    ),
    ActionPattern(
        "P6",
        (PatternArc("v1", "n2", "xcomp", _is_noun), PatternArc("n2", "be", "cop", _is_be)),
    ),
    ActionPattern(
        "P7",
        (PatternArc("v1", "v2", "xcomp", _is_verb), PatternArc("v2", "n2", "dobj", _is_noun)),
    ),
    ActionPattern("P8", (PatternArc("v1", "v2", "xcomp", _is_verb),)),
    ActionPattern(
        "P9",
        (PatternArc("v1", "n2", "nmod", _is_noun), PatternArc("n2", "p1", "case", _is_preposition),),
    ),
    ActionPattern(
        "P10",
        (
            PatternArc("v1", "n2", "dobj", _is_noun),
            PatternArc("v1", "n3", "nmod", _is_noun),
            PatternArc("n3", "p1", "case", _is_preposition),
        ),
    ),
)
STATE = "STATE"  # the pattern id of the root clause's state event
PATTERN_IDS = tuple(p.pattern_id for p in ACTION_PATTERNS) + (STATE,)


# Each pattern with its number and the deprels its v1 arcs need among v1's children.
_PATTERN_NEEDS = tuple(
    (number, pattern, frozenset(arc.deprel for arc in pattern.arcs if arc.head_slot == "v1"))
    for number, pattern in enumerate(ACTION_PATTERNS, start=1)
)


def _bindings(
    children: dict[int, list[Token]], pattern: ActionPattern, v1: Token, subj: Token
) -> list[dict[str, Token]]:
    results: list[dict[str, Token]] = []
    _extend(children, {"v1": v1, "subj": subj}, pattern.arcs, results)
    return results


def _extend(
    children: dict[int, list[Token]], binding: dict[str, Token], arcs: tuple[PatternArc, ...], results: list[dict[str, Token]]
) -> None:
    # A module function, not a closure over itself: such a closure is a reference cycle left to the collector.
    if not arcs:
        results.append(dict(binding))
        return
    arc, rest = arcs[0], arcs[1:]
    used = {t.index for t in binding.values()}
    for child in children.get(binding[arc.head_slot].index, ()):
        if child.deprel == arc.deprel and child.index not in used and arc.dep_ok(child):
            binding[arc.dep_slot] = child
            _extend(children, binding, rest, results)
            del binding[arc.dep_slot]


def match_action_patterns(sentence: ParsedSentence) -> list[Event]:
    """Match the ten first-person action patterns.

    Every verb with a first-person nsubj child anchors at most one event: the
    binding covering the most tokens wins, ties go to the lowest pattern
    number, then to the smallest token-index tuple.
    """
    children = sentence.children
    events: list[Event] = []
    for v1 in sentence.tokens:
        deps = children.get(v1.index)
        if not deps or not _is_verb(v1):
            continue
        subjects = [c for c in deps if c.deprel == "nsubj" and c.lemma in FIRST_PERSON_LEMMAS]
        if not subjects:
            continue
        deprels = {c.deprel for c in deps}
        patterns = [(number, pattern) for number, pattern, needs in _PATTERN_NEEDS if needs <= deprels]
        best: tuple[tuple[int, int, tuple[int, ...]], str, dict[str, Token]] | None = None  # rank, pattern id, binding
        for subj in subjects:
            for number, pattern in patterns:
                for binding in _bindings(children, pattern, v1, subj):
                    indices = tuple(sorted(t.index for t in binding.values()))
                    rank = (-len(indices), number, indices)
                    if best is None or rank < best[0]:
                        best = (rank, pattern.pattern_id, binding)
        if best is None:
            continue
        (_, _, indices), pattern_id, binding = best
        events.append(Event(sentence, indices, pattern_id, v1.index, binding["subj"].lemma, _span_negated(sentence, indices)))
    return events


def extract_state_event(sentence: ParsedSentence) -> Event | None:
    """Emit one STATE event for the root clause, if it is verbal or copular.

    The span is the root's subtree (the whole sentence) minus punctuation
    other than the verb; the verb slot is the root itself or its copula.
    """
    root = sentence.root
    # The root's first dependent of each relation: a reversed scan lets the lowest index win.
    first = {t.deprel: t for t in reversed(sentence.children.get(root.index, ()))}
    if _is_verb(root):
        verb_index = root.index
    elif "cop" in first:
        verb_index = first["cop"].index
    else:
        return None
    indices = tuple([t.index for t in sentence.tokens if t.deprel != "punct" or t.index == verb_index])
    subject_lemma = first["nsubj"].lemma if "nsubj" in first else None
    return Event(sentence, indices, STATE, verb_index, subject_lemma, _span_negated(sentence, indices))


def extract_events(sentence: ParsedSentence) -> list[Event]:
    """All events of a sentence: the STATE event first, then action events."""
    state = extract_state_event(sentence)
    return ([state] if state is not None else []) + match_action_patterns(sentence)


def _span_negated(sentence: ParsedSentence, indices: tuple[int, ...]) -> bool:
    return bool(sentence.negators) and any(i in indices for i in sentence.negators)


def classify_tense(event: Event) -> Tense:
    """Past iff the event verb is tagged VBD or VBN."""
    tag = event.sentence.tokens[event.verb_index - 1].pos_tag
    return Tense.PAST if tag in ("VBD", "VBN") else Tense.OTHER


def detect_perception(event: Event, lexicon: BeliefLexicon) -> list[PerceptionLink]:
    """Apply the four perception keyword combinations to one event.

    1. food entity + feeling word, 2. food entity + emotion adjective,
    3. first-person subject + emotion adjective, 4. emotion verb as the event
    verb. Food words only link when combination 1 or 2 fires. Negation flips
    feeling/emotion nodes to their opposites.
    """
    food_words: list[tuple[str, NatureNodeId]] = []
    feeling_words: list[tuple[str, NatureNodeId]] = []
    emo_adj_words: list[tuple[str, NatureNodeId]] = []
    tokens = event.sentence.tokens
    for tok in [tokens[i - 1] for i in event.token_indices]:
        for entry in lexicon.tuples_for(tok.lemma):
            node = entry.node
            if node is NatureNodeId.FOOD:
                food_words.append((tok.lemma, node))
            elif node in FEELING_NODES:
                feeling_words.append((tok.lemma, node))
            elif node in EMOTION_NODES and tok.pos_tag.startswith("JJ"):
                emo_adj_words.append((tok.lemma, node))

    hits: list[tuple[str, NatureNodeId, Combo]] = []  # in emission order, repeats included
    if food_words and feeling_words:
        hits += [(word, node, Combo.FOOD_FEELING) for word, node in food_words + feeling_words]
    if food_words and emo_adj_words:
        hits += [(word, node, Combo.FOOD_EMOTION) for word, node in food_words + emo_adj_words]
    if event.subject_lemma in FIRST_PERSON_LEMMAS:
        hits += [(word, node, Combo.FIRSTPERSON_EMOTION) for word, node in emo_adj_words]
    verb = tokens[event.verb_index - 1]
    for entry in lexicon.tuples_for(verb.lemma):
        if entry.node in EMOTION_NODES and entry.pos_class is PosClass.VERB:
            hits.append((verb.lemma, entry.node, Combo.EMOTIONAL_ACTION))

    links: list[PerceptionLink] = []
    emitted: set[tuple[str, NatureNodeId]] = set()  # a word has at most one node per polarity family
    for word, node, combo in hits:
        if (word, node) in emitted:
            continue
        emitted.add((word, node))
        if event.negated and node is not NatureNodeId.FOOD:  # feelings and emotions flip
            links.append(PerceptionLink(word, opposite_node(node), combo, flipped=True))
        else:
            links.append(PerceptionLink(word, node, combo))
    return links
