"""Per-review output graph: event linking, forward transmission, validity."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
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
from .nature import NODE_ORDER, NatureEdge, NatureGraph, NatureNodeId, reachable, transmitting_tails


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
    """Close a seed set under transmitting edges."""
    return reachable(seed, lambda node: transmitting_tails(graph, node))


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

def _justification_to_json(j: Justification) -> dict:
    if j.kind == "belief":
        return {"type": "belief", "word": j.word, "combo": j.combo, "flipped": j.flipped}
    if j.kind == "past_tense":
        return {"type": "past_tense"}
    if j.kind == "action_class":
        return {"type": "action_class", "class": j.action_class.value}
    raise ValueError(f"unknown justification kind {j.kind!r}")


def to_json(dag: MeaDag) -> dict:
    return {
        "review_id": dag.review_id,
        "events": [
            {"id": e.id, "text": e.text, "pattern_id": e.pattern_id, "negated": e.negated}
            for e in dag.events
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


def dumps_dag(dag: MeaDag) -> str:
    return json.dumps(to_json(dag), indent=2) + "\n"


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
