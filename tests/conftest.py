import json
import re
from pathlib import Path

import pytest

from mea import read_text, split_fields
from mea.belief import load_lexicon
from mea.dag import ActionClass
from mea.extraction import ConlluError, PerceptionLink, Tense
from mea.llm import ClientConfig, ClientMode, LlmClient
from mea.nature import NODE_ORDER, default_graph

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
                raise ConlluError(str(path), start_line, "sentence has no review_id comment")
            tokens = []
            fault = None  # the first sentence-level fault, reported after any token's own fault
            roots = 0
            for pos, (line_no, fields) in enumerate(rows, start=1):
                try:
                    idx = int(fields[0])
                    head = int(fields[6])
                except ValueError:
                    raise ConlluError(str(path), line_no, "ID and HEAD must be integers") from None
                if idx < 1:
                    raise ConlluError(str(path), line_no, f"token index must be >= 1, got {idx}")
                if head == idx:
                    raise ConlluError(str(path), line_no, f"token {idx} heads itself")
                if not fields[4]:
                    raise ConlluError(str(path), line_no, f"token {idx} has an empty POS tag")
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
                raise ConlluError(str(path), start_line, fault)
            sentences.append(tokens)
        has_review_id, rows = False, []

    for line_no, raw in enumerate(read_text(path, ConlluError).splitlines(), start=1):
        if not raw.strip():
            flush()
            continue
        if raw.startswith("#"):
            m = _REVIEW_ID_RE.match(raw)
            if m:
                if m.group(1) != path.stem:
                    raise ConlluError(str(path), line_no, f"review_id {m.group(1)!r} does not match the file name")
                has_review_id = True
            continue
        fields = split_fields(raw, 10, path, line_no, ConlluError)
        if not rows:
            start_line = line_no
        rows.append((line_no, fields))
    flush()
    return sentences
