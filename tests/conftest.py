import json
from pathlib import Path

import pytest

from mea.belief import load_lexicon
from mea.dag import ActionClass
from mea.extraction import PerceptionLink, Tense
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
