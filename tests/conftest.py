import json
import re
from dataclasses import dataclass
from pathlib import Path

import pytest

from mea import InputFileError, read_text, split_fields
from mea.belief import (
    BeliefSource,
    BeliefTuple,
    PosClass,
    TaxonomyCycleError,
    load_lexicon,
    normalize_word,
)
from mea.dag import ActionClass
from mea.extraction import FIRST_PERSON_LEMMAS, Combo, PerceptionLink, Tense, parse_conllu
from mea.llm import ClientConfig, ClientMode, LlmClient
from mea.nature import NODE_ORDER, NatureNodeId, default_graph, find_cycle, opposite_node, reachable
from mea.runner import load_parse_dir

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def graph():
    return default_graph()


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon(DATA / "lexicon.tsv")


def make_replay_client(fixture_name: str = "replay_classifier.jsonl") -> LlmClient:
    config = ClientConfig(mode=ClientMode.REPLAY, fixture_path=DATA / fixture_name)
    return LlmClient(config, transport=_forbidden_transport)


def _forbidden_transport(config, prompt):
    raise AssertionError("network transport must not be used in tests")


@pytest.fixture()
def replay_client() -> LlmClient:
    return make_replay_client()


def sentence(rows):
    """Build a ParsedSentence from (surface, lemma, xpos, head, deprel) rows."""
    from mea.extraction import ParsedSentence, Token

    tokens = tuple(
        Token(index=i, surface=surface, lemma=lemma, pos_tag=xpos, head=head, deprel=deprel)
        for i, (surface, lemma, xpos, head, deprel) in enumerate(rows, start=1)
    )
    return ParsedSentence(tokens)


def write_parses(parse_dir: Path, sentences_by_review: dict) -> dict[str, str]:
    """Write each review's sentences as <review id>.conllu in parse_dir; return the files as load_parse_dir lists them."""
    parse_dir.mkdir(parents=True, exist_ok=True)
    for review_id, sentences in sentences_by_review.items():
        path = parse_dir / f"{review_id}.conllu"
        path.write_text(
            "\n".join(
                f"# review_id = {review_id}\n"
                + "".join(f"{t.index}\t{t.surface}\t{t.lemma}\t_\t{t.pos_tag}\t_\t{t.head}\t{t.deprel}\t_\t_\n" for t in s.tokens)
                for s in sentences
            ),
            encoding="utf-8",
        )
        assert parse_conllu(path) == sentences  # the file reads back as the very sentences
    return load_parse_dir(parse_dir, [])


# --- reference graph serializer ---------------------------------------------
# mea.dag.dumps_dag writes these bytes directly; tests compare it with this.

def _justification_to_json(j) -> dict:
    if isinstance(j, PerceptionLink):
        return {"type": "belief", "word": j.word, "combo": j.combo.value, "flipped": j.flipped}
    if j is Tense.PAST:
        return {"type": "past_tense"}
    if isinstance(j, ActionClass):
        return {"type": "action_class", "class": j.value}
    raise ValueError(f"no justification: {j!r}")


def to_json(dag) -> dict:
    return {
        "review_id": dag.review_id,
        "events": [
            {"id": f"e{i}", "text": e.text, "pattern_id": e.pattern_id, "negated": e.negated}
            for i, e in enumerate(dag.events)
        ],
        "activated": [n.value for n in sorted(dag.activated, key=NODE_ORDER.get)],
        "links": [
            {
                "event_id": l.event_id,
                "node": l.node.value,
                "justification": _justification_to_json(l.justification),
            }
            for l in dag.links
        ],
        "nature_edges": [
            {"head": e.head.value, "tail": e.tail.value, "transmits": e.transmits}
            for e in dag.nature_edges
        ],
        "unlinked_events": list(dag.unlinked_events),
        "valid": dag.valid,
    }


def reference_dumps_dag(dag) -> str:
    return json.dumps(to_json(dag), indent=2) + "\n"


# --- reference CoNLL-U reader ------------------------------------------------
# The reader as it was before mea.extraction.parse_conllu was tuned: a Path per
# file, the rows of a sentence gathered, then checked and built in order. It
# returns each sentence as (index, surface, lemma, pos_tag, head, deprel) tuples.

_REVIEW_ID_RE = re.compile(r"^#\s*review_id\s*=\s*(.+?)\s*$")


def reference_parse_conllu(path) -> list[list[tuple]]:
    path = Path(path)
    sentences = []
    has_review_id = False
    rows: list[tuple[int, list[str]]] = []
    start_line = 0

    def flush() -> None:
        nonlocal has_review_id, rows
        if rows:
            if not has_review_id:
                raise InputFileError(str(path), start_line, "sentence has no review_id comment")
            tokens = []
            fault = None  # the first sentence-level fault, reported after any token's own fault
            roots = 0
            for pos, (line_no, fields) in enumerate(rows, start=1):
                try:
                    idx = int(fields[0])
                    head = int(fields[6])
                except ValueError:
                    raise InputFileError(str(path), line_no, "ID and HEAD must be integers") from None
                if idx < 1:
                    raise InputFileError(str(path), line_no, f"token index must be >= 1, got {idx}")
                if head == idx:
                    raise InputFileError(str(path), line_no, f"token {idx} heads itself")
                if not fields[4]:
                    raise InputFileError(str(path), line_no, f"token {idx} has an empty POS tag")
                if fault is None:
                    if idx != pos:
                        fault = f"token indices not contiguous at position {pos}"
                    elif not 0 <= head <= len(rows):
                        fault = f"token {idx} has dangling head {head}"
                roots += head == 0
                tokens.append((idx, fields[1], fields[2].lower(), fields[4], head, fields[7]))
            if fault is None and roots != 1:
                fault = f"expected exactly one root token, found {roots}"
            if fault is not None:
                raise InputFileError(str(path), start_line, fault)
            sentences.append(tokens)
        has_review_id, rows = False, []

    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        if not raw.strip():
            flush()
            continue
        if raw.startswith("#"):
            m = _REVIEW_ID_RE.match(raw)
            if m:
                if m.group(1) != path.stem:
                    raise InputFileError(str(path), line_no, f"review_id {m.group(1)!r} does not match the file name")
                has_review_id = True
            continue
        fields = split_fields(raw, 10, path, line_no)
        if not rows:
            start_line = line_no
        rows.append((line_no, fields))
    flush()
    return sentences


# --- reference lexicon dump readers ------------------------------------------
# mea.belief.compile_food_lexicon and parse_sense_file as they were before they
# were tuned: every line stripped and split through split_fields, every synset
# id matched against the regex, the cycle walk started at every synset, and
# each sense row built as a frozen dataclass checked in __post_init__.

_REFERENCE_SYNSET_RE = re.compile(r"^\S+\.n\.\d+$")


def reference_compile_food_lexicon(dump_path, exclusions=()) -> set[BeliefTuple]:
    dump_path = Path(dump_path)
    children: dict[str, list[str]] = {}
    lemmas: dict[str, list[str]] = {}
    synsets: set[str] = set()
    for line_no, raw in enumerate(read_text(dump_path).splitlines(), start=1):
        if not raw.strip():
            continue
        first, second = split_fields(raw, 2, dump_path, line_no)
        if not _REFERENCE_SYNSET_RE.match(first):
            raise InputFileError(str(dump_path), line_no, f"first field is not a noun synset id: {first!r}")
        synsets.add(first)
        if _REFERENCE_SYNSET_RE.match(second):
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


@dataclass(frozen=True)
class ReferenceSense:
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


def reference_parse_sense_file(path) -> list[ReferenceSense]:
    path = Path(path)
    records: list[ReferenceSense] = []
    for line_no, raw in enumerate(read_text(path).splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        lemma, pos_s, pos_score_s, neg_score_s, sense_id = split_fields(raw, 5, path, line_no)
        try:
            records.append(
                ReferenceSense(lemma, PosClass(pos_s), float(pos_score_s), float(neg_score_s), sense_id)
            )
        except ValueError as exc:
            raise InputFileError(str(path), line_no, str(exc)) from None
    return records


# --- negation oracle -----------------------------------------------------------
# Read from the event span's own tokens, independently of ParsedSentence.negators,
# which mea.extraction computes once per sentence to set Event.negated.

def detect_negation(event) -> bool:
    """True when the event span contains lemma "not" or the clitic "n't", in any case."""
    tokens = event.sentence.tokens
    return any(tokens[i - 1].lemma == "not" or tokens[i - 1].surface.lower() == "n't" for i in event.token_indices)


# --- reference perception ----------------------------------------------------
# mea.extraction.detect_perception as it was when span tokens went through
# BeliefLexicon.lookup (a node set per token) and only the verb went through
# tuples_for; the production function reads tuples_for for every token.

_FEELING = frozenset({NatureNodeId.EXPERIENCE_FEELING_POS, NatureNodeId.EXPERIENCE_FEELING_NEG})
_EMOTION = frozenset({NatureNodeId.EMO_POS, NatureNodeId.EMO_NEG})


def reference_detect_perception(event, lexicon) -> list[PerceptionLink]:
    food_words, feeling_words, emo_adj_words = [], [], []
    tokens = event.sentence.tokens
    for tok in [tokens[i - 1] for i in event.token_indices]:
        for node in lexicon.lookup(tok.lemma):
            if node is NatureNodeId.FOOD:
                food_words.append((tok.lemma, node))
            elif node in _FEELING:
                feeling_words.append((tok.lemma, node))
            elif node in _EMOTION and tok.pos_tag.startswith("JJ"):
                emo_adj_words.append((tok.lemma, node))

    hits = []
    if food_words and feeling_words:
        hits += [(word, node, Combo.FOOD_FEELING) for word, node in food_words + feeling_words]
    if food_words and emo_adj_words:
        hits += [(word, node, Combo.FOOD_EMOTION) for word, node in food_words + emo_adj_words]
    if event.subject_lemma in FIRST_PERSON_LEMMAS:
        hits += [(word, node, Combo.FIRSTPERSON_EMOTION) for word, node in emo_adj_words]
    verb = tokens[event.verb_index - 1]
    for entry in lexicon.tuples_for(verb.lemma):
        if entry.node in _EMOTION and entry.pos_class is PosClass.VERB:
            hits.append((verb.lemma, entry.node, Combo.EMOTIONAL_ACTION))

    links = []
    emitted = set()
    for word, node, combo in hits:
        if (word, node) in emitted:
            continue
        emitted.add((word, node))
        if event.negated and node in _FEELING | _EMOTION:
            links.append(PerceptionLink(word, opposite_node(node), combo, flipped=True))
        else:
            links.append(PerceptionLink(word, node, combo))
    return links
