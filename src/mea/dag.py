"""Per-review output graph: event linking, forward transmission, validity."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Sequence

from .belief import BeliefLexicon
from .extraction import (
    Event,
    ParsedSentence,
    PerceptionLink,
    Tense,
    classify_tense,
    detect_perception,
    extract_events,
)
from .nature import NODE_ORDER, NatureEdge, NatureGraph, NatureNodeId, transmitting_tails  # noqa: F401 (the benchmark's tracer counts its calls)


class ActionClass(str, Enum):
    MENTAL = "Mental"
    PHYSICAL = "Physical"
    SOCIAL = "Social"


ACTION_SUBTYPE_NODE: dict[ActionClass, NatureNodeId] = {
    ActionClass.MENTAL: NatureNodeId.MENTAL_ACTION,
    ActionClass.PHYSICAL: NatureNodeId.PHYSICAL_ACTION,
    ActionClass.SOCIAL: NatureNodeId.SOCIAL_ACTION,
}

# An action classifier maps event text to a class; None means the caller's
# error policy already handled this event and it should simply be skipped.
ActionClassifier = Callable[[str], "ActionClass | None"]


@dataclass(frozen=True)
class Justification:
    kind: str                        # "belief" | "past_tense" | "action_class"
    word: str | None = None
    combo: str | None = None
    flipped: bool = False
    action_class: ActionClass | None = None

    @classmethod
    def from_perception(cls, link: PerceptionLink) -> "Justification":
        return cls(kind="belief", word=link.word, combo=link.combo.value, flipped=link.flipped)

    @classmethod
    def past_tense(cls) -> "Justification":
        return cls(kind="past_tense")

    @classmethod
    def classified(cls, action_class: ActionClass) -> "Justification":
        return cls(kind="action_class", action_class=action_class)


@dataclass(frozen=True)
class EventNode:
    id: str
    text: str
    pattern_id: str
    negated: bool


@dataclass(frozen=True)
class DagLink:
    event_id: str
    node: NatureNodeId
    justification: Justification


@dataclass
class MeaDag:
    review_id: str
    events: list[EventNode] = field(default_factory=list)
    activated: set[NatureNodeId] = field(default_factory=set)
    links: list[DagLink] = field(default_factory=list)
    nature_edges: list[NatureEdge] = field(default_factory=list)
    unlinked_events: list[str] = field(default_factory=list)
    valid: bool = False


def forward_transmit(seed: set[NatureNodeId], graph: NatureGraph) -> set[NatureNodeId]:
    """Close a seed set under transmitting edges: the union of its nodes' closures."""
    return set().union(*map(graph.closure.__getitem__, seed))


def link_perceptions(
    events: Sequence[tuple[str, Event]],
    lexicon: BeliefLexicon,
    dag: MeaDag,
) -> MeaDag:
    """Add one justified link per perception hit and activate the target node."""
    for event_id, event in events:
        for link in detect_perception(event, lexicon):
            dag.links.append(DagLink(event_id, link.node, Justification.from_perception(link)))
            dag.activated.add(link.node)
    return dag


def needs_classifier(event: Event) -> bool:
    """Whether link_actions asks its classifier about this event: not STATE, not past tense."""
    return event.pattern_id != "STATE" and classify_tense(event) is not Tense.PAST


def link_actions(
    events: Sequence[tuple[str, Event]],
    dag: MeaDag,
    classifier: ActionClassifier,
) -> MeaDag:
    """Attach first-person action events; run only after forward transmission.

    Past events activate past_experience. Other events are classified and
    linked to their subtype node only when transmission already activated it;
    otherwise they are recorded as unlinked.
    """
    for event_id, event in events:
        if event.pattern_id == "STATE":
            continue
        if classify_tense(event) is Tense.PAST:
            dag.links.append(DagLink(event_id, NatureNodeId.PAST_EXPERIENCE, Justification.past_tense()))
            dag.activated.add(NatureNodeId.PAST_EXPERIENCE)
            continue
        action_class = classifier(event.text)
        if action_class is None:
            continue
        node = ACTION_SUBTYPE_NODE[action_class]
        if node in dag.activated:
            dag.links.append(DagLink(event_id, node, Justification.classified(action_class)))
        else:
            dag.unlinked_events.append(event_id)
    return dag


def is_valid(dag: MeaDag) -> bool:
    """Exactly one of the two need nodes is activated."""
    return (NatureNodeId.NEED_FOOD_POS in dag.activated) != (
        NatureNodeId.NEED_FOOD_NEG in dag.activated
    )


def prepare_mea_dag(
    sentences: Sequence[ParsedSentence],
    graph: NatureGraph,
    lexicon: BeliefLexicon,
    review_id: str | None = None,
) -> tuple[MeaDag, list[tuple[str, Event]]]:
    """The classifier-free half of a review: extract, perceive, transmit; returns the graph and its events by id."""
    ids = {s.review_id for s in sentences}
    if len(ids) > 1:
        raise ValueError(f"sentences span multiple reviews: {sorted(ids)}")
    if ids:
        review_id = ids.pop()
    elif review_id is None:
        raise ValueError("review_id required when no sentences are given")

    indexed: list[tuple[str, Event]] = []
    for sentence in sorted(sentences, key=lambda s: s.sentence_index):
        for event in extract_events(sentence):
            indexed.append((f"e{len(indexed)}", event))

    dag = MeaDag(review_id=review_id)
    dag.events = [
        EventNode(event_id, event.text, event.pattern_id, event.negated)
        for event_id, event in indexed
    ]
    if indexed:
        link_perceptions(indexed, lexicon, dag)
        dag.activated = forward_transmit(dag.activated, graph)
    return dag, indexed


def finish_mea_dag(
    dag: MeaDag,
    events: Sequence[tuple[str, Event]],
    graph: NatureGraph,
    classifier: ActionClassifier,
) -> MeaDag:
    """The classifier half of a review: link actions, keep the edges among activated nodes, judge validity."""
    link_actions(events, dag, classifier)
    dag.nature_edges = [e for e in graph.ordered_edges if e.head in dag.activated and e.tail in dag.activated]
    dag.valid = is_valid(dag)
    return dag


def build_mea_dag(
    sentences: Sequence[ParsedSentence],
    graph: NatureGraph,
    lexicon: BeliefLexicon,
    classifier: ActionClassifier,
    review_id: str | None = None,
) -> MeaDag:
    """Run the full per-review pipeline: extract, perceive, transmit, act."""
    dag, events = prepare_mea_dag(sentences, graph, lexicon, review_id)
    return finish_mea_dag(dag, events, graph, classifier)


# --- serialization ---------------------------------------------------------

# The bytes json.dumps(..., indent=2) writes for the graph, without its
# pure-Python indenting encoder: free strings go through the C escaper it
# uses, node names and flags come from tables.
_NODE_JSON = {n: _json_str(n.value) for n in NatureNodeId}
_JSON_BOOL = {False: "false", True: "true"}
_EVENT_JSON = '{\n      "id": %s,\n      "text": %s,\n      "pattern_id": %s,\n      "negated": %s\n    }'
_LINK_JSON = '{\n      "event_id": %s,\n      "node": %s,\n      "justification": {\n        %s\n      }\n    }'
_EDGE_JSON = '{\n      "head": %s,\n      "tail": %s,\n      "transmits": %s\n    }'


def _json_list(items: list[str]) -> str:
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _justification_json(j: Justification) -> str:
    if j.kind == "belief":
        return (f'"type": "belief",\n        "word": {_json_str(j.word)},\n        '
                f'"combo": {_json_str(j.combo)},\n        "flipped": {_JSON_BOOL[j.flipped]}')
    if j.kind == "past_tense":
        return '"type": "past_tense"'
    if j.kind == "action_class":
        return f'"type": "action_class",\n        "class": {_json_str(j.action_class.value)}'
    raise ValueError(f"unknown justification kind {j.kind!r}")


def dumps_dag(dag: MeaDag) -> str:
    """The graph as 2-space-indented, ASCII-escaped JSON, keys in a fixed order, and a final newline."""
    events = [_EVENT_JSON % (_json_str(e.id), _json_str(e.text), _json_str(e.pattern_id), _JSON_BOOL[e.negated])
              for e in dag.events]
    links = [_LINK_JSON % (_json_str(l.event_id), _NODE_JSON[l.node], _justification_json(l.justification))
             for l in dag.links]
    edges = [_EDGE_JSON % (_NODE_JSON[e.head], _NODE_JSON[e.tail], _JSON_BOOL[e.transmits]) for e in dag.nature_edges]
    return (
        f'{{\n  "review_id": {_json_str(dag.review_id)},\n  "events": {_json_list(events)},\n'
        f'  "activated": {_json_list([_NODE_JSON[n] for n in sorted(dag.activated, key=NODE_ORDER.get)])},\n'
        f'  "links": {_json_list(links)},\n  "nature_edges": {_json_list(edges)},\n'
        f'  "unlinked_events": {_json_list([_json_str(i) for i in dag.unlinked_events])},\n'
        f'  "valid": {_JSON_BOOL[dag.valid]}\n}}\n'
    )


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _link_label(link: DagLink) -> str:
    j = link.justification
    if j.kind == "belief":
        suffix = ", flipped" if j.flipped else ""
        return f'("{j.word}", {link.node.value}{suffix})'
    if j.kind == "past_tense":
        return "past"
    return j.action_class.value


def to_dot(dag: MeaDag) -> str:
    """Render the graph: event nodes green, activated nodes red."""
    lines = [f'digraph "{_dot_escape(dag.review_id)}" {{', "  rankdir=LR;"]
    for node in sorted(dag.activated, key=NODE_ORDER.get):
        lines.append(f'  "{node.value}" [color=red];')
    linked = {l.event_id for l in dag.links}
    for event in dag.events:
        if event.id in linked:
            lines.append(f'  "{event.id}" [label="{_dot_escape(event.text)}", shape=box, color=green];')
    for link in dag.links:
        label = _dot_escape(_link_label(link))
        lines.append(f'  "{link.event_id}" -> "{link.node.value}" [label="{label}"];')
    for edge in dag.nature_edges:
        style = "" if edge.transmits else " [style=dashed]"
        lines.append(f'  "{edge.head.value}" -> "{edge.tail.value}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
