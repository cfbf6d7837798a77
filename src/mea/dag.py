"""Per-review output graph: event linking, forward transmission, validity."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, NamedTuple, Sequence

from .belief import BeliefLexicon
from .extraction import (
    Event,
    ParsedSentence,
    PerceptionLink,
    Tense,
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


class DagLink(NamedTuple):
    event_id: str
    node: NatureNodeId
    # What the link rests on: a belief hit, the past tense, or the classifier's verdict.
    justification: PerceptionLink | Tense | ActionClass


@dataclass
class MeaDag:
    review_id: str
    events: list[Event] = field(default_factory=list)  # event i has the id f"e{i}"
    activated: set[NatureNodeId] = field(default_factory=set)
    links: list[DagLink] = field(default_factory=list)
    nature_edges: list[NatureEdge] = field(default_factory=list)
    unlinked_events: list[str] = field(default_factory=list)
    valid: bool = False


def forward_transmit(seed: set[NatureNodeId], graph: NatureGraph) -> set[NatureNodeId]:
    """Close a seed set under transmitting edges: the union of its nodes' closures."""
    return set().union(*map(graph.closure.__getitem__, seed))


def link_perceptions(dag: MeaDag, lexicon: BeliefLexicon) -> MeaDag:
    """Add one justified link per perception hit and activate the target node."""
    for i, event in enumerate(dag.events):
        for link in detect_perception(event, lexicon):
            dag.links.append(DagLink(f"e{i}", link.node, link))
            dag.activated.add(link.node)
    return dag


def needs_classifier(event: Event) -> bool:
    """Whether link_actions asks its classifier about this event: not STATE, not past tense."""
    return event.tense is Tense.OTHER


def link_actions(dag: MeaDag, classifier: ActionClassifier) -> MeaDag:
    """Attach first-person action events; run only after forward transmission.

    Past events activate past_experience. Other events are classified and
    linked to their subtype node only when transmission already activated it;
    otherwise they are recorded as unlinked.
    """
    for i, event in enumerate(dag.events):
        if event.tense is Tense.PAST:
            dag.links.append(DagLink(f"e{i}", NatureNodeId.PAST_EXPERIENCE, Tense.PAST))
            dag.activated.add(NatureNodeId.PAST_EXPERIENCE)
        elif needs_classifier(event):
            action_class = classifier(event.text)
            if action_class is None:
                continue
            node = ACTION_SUBTYPE_NODE[action_class]
            if node in dag.activated:
                dag.links.append(DagLink(f"e{i}", node, action_class))
            else:
                dag.unlinked_events.append(f"e{i}")
    return dag


def is_valid(dag: MeaDag) -> bool:
    """Exactly one of the two need nodes is activated."""
    return (NatureNodeId.NEED_FOOD_POS in dag.activated) != (
        NatureNodeId.NEED_FOOD_NEG in dag.activated
    )


def prepare_mea_dag(
    review_id: str,
    sentences: Sequence[ParsedSentence],
    graph: NatureGraph,
    lexicon: BeliefLexicon,
) -> MeaDag:
    """The classifier-free half of a review: extract, perceive, transmit."""
    dag = MeaDag(review_id, [event for sentence in sentences for event in extract_events(sentence)])
    if dag.events:
        link_perceptions(dag, lexicon)
        dag.activated = forward_transmit(dag.activated, graph)
    return dag


def finish_mea_dag(dag: MeaDag, graph: NatureGraph, classifier: ActionClassifier) -> MeaDag:
    """The classifier half of a review: link actions, keep the edges among activated nodes, judge validity."""
    link_actions(dag, classifier)
    dag.nature_edges = [e for e in graph.ordered_edges if e.head in dag.activated and e.tail in dag.activated]
    dag.valid = is_valid(dag)
    return dag


def build_mea_dag(
    review_id: str,
    sentences: Sequence[ParsedSentence],
    graph: NatureGraph,
    lexicon: BeliefLexicon,
    classifier: ActionClassifier,
) -> MeaDag:
    """Run the full per-review pipeline: extract, perceive, transmit, act."""
    return finish_mea_dag(prepare_mea_dag(review_id, sentences, graph, lexicon), graph, classifier)


# --- serialization ---------------------------------------------------------

# The bytes json.dumps(..., indent=2) writes for the graph, without its
# pure-Python indenting encoder: free strings go through the C escaper it
# uses, node names and flags come from tables.
_NODE_JSON = {n: _json_str(n.value) for n in NatureNodeId}
_JSON_BOOL = {False: "false", True: "true"}
_EVENT_JSON = '{\n      "id": "e%d",\n      "text": %s,\n      "pattern_id": %s,\n      "negated": %s\n    }'
_LINK_JSON = '{\n      "event_id": %s,\n      "node": %s,\n      "justification": {\n        %s\n      }\n    }'
_EDGE_JSON = '{\n      "head": %s,\n      "tail": %s,\n      "transmits": %s\n    }'


def _json_list(items: list[str]) -> str:
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _justification_json(j: PerceptionLink | Tense | ActionClass) -> str:
    if isinstance(j, PerceptionLink):
        return (f'"type": "belief",\n        "word": {_json_str(j.word)},\n        '
                f'"combo": {_json_str(j.combo.value)},\n        "flipped": {_JSON_BOOL[j.flipped]}')
    if j is Tense.PAST:
        return '"type": "past_tense"'
    return f'"type": "action_class",\n        "class": {_json_str(j.value)}'


def dumps_dag(dag: MeaDag) -> str:
    """The graph as 2-space-indented, ASCII-escaped JSON, keys in a fixed order, and a final newline."""
    events = [_EVENT_JSON % (i, _json_str(e.text), _json_str(e.pattern_id), _JSON_BOOL[e.negated])
              for i, e in enumerate(dag.events)]
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
    if isinstance(j, PerceptionLink):
        suffix = ", flipped" if j.flipped else ""
        return f'("{j.word}", {link.node.value}{suffix})'
    return "past" if j is Tense.PAST else j.value


def to_dot(dag: MeaDag) -> str:
    """Render the graph: event nodes green, activated nodes red."""
    lines = [f'digraph "{_dot_escape(dag.review_id)}" {{', "  rankdir=LR;"]
    for node in sorted(dag.activated, key=NODE_ORDER.get):
        lines.append(f'  "{node.value}" [color=red];')
    linked = {l.event_id for l in dag.links}
    for i, event in enumerate(dag.events):
        if f"e{i}" in linked:
            lines.append(f'  "e{i}" [label="{_dot_escape(event.text)}", shape=box, color=green];')
    for link in dag.links:
        label = _dot_escape(_link_label(link))
        lines.append(f'  "{link.event_id}" -> "{link.node.value}" [label="{label}"];')
    for edge in dag.nature_edges:
        style = "" if edge.transmits else " [style=dashed]"
        lines.append(f'  "{edge.head.value}" -> "{edge.tail.value}"{style};')
    lines.append("}")
    return "\n".join(lines) + "\n"
