import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_replay_client, reference_dumps_dag, sentence
from mea.belief import BeliefLexicon
from mea.dag import (
    ActionClass,
    DagLink,
    EventNode,
    Justification,
    MeaDag,
    build_mea_dag,
    dumps_dag,
    finish_mea_dag,
    forward_transmit,
    is_valid,
    link_actions,
    link_perceptions,
    needs_classifier,
    prepare_mea_dag,
    to_dot,
)
from mea.extraction import extract_events, parse_conllu
from mea.nature import NatureEdge, NatureNodeId, default_graph

N = NatureNodeId
ALL_NODES = list(N)


# --- forward transmission ----------------------------------------------------

def test_transmit_from_positive_emotion(graph):
    closure = forward_transmit({N.EMO_POS}, graph)
    assert closure == {
        N.EMO_POS,
        N.NEED_FOOD_POS,
        N.ACTION_POS,
        N.MENTAL_ACTION,
        N.PHYSICAL_ACTION,
        N.SOCIAL_ACTION,
    }


def test_transmit_empty_seed(graph):
    assert forward_transmit(set(), graph) == set()


def test_transmit_stops_at_past_experience(graph):
    assert forward_transmit({N.PAST_EXPERIENCE}, graph) == {N.PAST_EXPERIENCE}


@given(
    st.sets(st.sampled_from(ALL_NODES)),
    st.sets(st.sampled_from(ALL_NODES)),
)
@settings(max_examples=120)
def test_transmit_monotone_and_idempotent(seed_a, extra):
    graph = default_graph()
    small = forward_transmit(seed_a, graph)
    large = forward_transmit(seed_a | extra, graph)
    assert small <= large
    assert forward_transmit(small, graph) == small


# --- linking -----------------------------------------------------------------

def meatball_sentence():
    return sentence(
        [
            ("It", "it", "PRP", 3, "nsubj"),
            ("seriously", "seriously", "RB", 3, "advmod"),
            ("makes", "make", "VBZ", 0, "root"),
            ("perfect", "perfect", "JJ", 5, "amod"),
            ("meatballs", "meatball", "NNS", 3, "dobj"),
        ]
    )


def test_link_perceptions_activates_nodes(graph, lexicon):
    events = [(f"e{i}", e) for i, e in enumerate(extract_events(meatball_sentence()))]
    dag = MeaDag(review_id="m")
    link_perceptions(events, lexicon, dag)
    assert {N.FOOD, N.EXPERIENCE_FEELING_POS} <= dag.activated
    assert len(dag.links) == 2
    assert all(l.justification.kind == "belief" for l in dag.links)


def test_link_perceptions_no_hits_leaves_dag_unchanged(graph, lexicon):
    s = sentence([("I", "i", "PRP", 2, "nsubj"), ("freeze", "freeze", "VBP", 0, "root")])
    events = [(f"e{i}", e) for i, e in enumerate(extract_events(s))]
    dag = MeaDag(review_id="t")
    link_perceptions(events, lexicon, dag)
    assert dag.activated == set() and dag.links == []


def test_same_node_from_two_events_keeps_both_links(graph, lexicon):
    s1 = sentence(
        [
            ("I", "i", "PRP", 3, "nsubj"),
            ("am", "be", "VBP", 3, "cop"),
            ("happy", "happy", "JJ", 0, "root"),
        ]
    )
    s2 = sentence(
        [
            ("We", "we", "PRP", 3, "nsubj"),
            ("are", "be", "VBP", 3, "cop"),
            ("happy", "happy", "JJ", 0, "root"),
        ]
    )
    events = []
    for s in (s1, s2):
        for e in extract_events(s):
            events.append((f"e{len(events)}", e))
    dag = MeaDag(review_id="t")
    link_perceptions(events, lexicon, dag)
    assert dag.activated == {N.EMO_POS}
    assert len(dag.links) == 2


def test_link_actions_past_event(graph):
    s = sentence(
        [
            ("I", "i", "PRP", 2, "nsubj"),
            ("bought", "buy", "VBD", 0, "root"),
            ("this", "this", "DT", 4, "det"),
            ("brand", "brand", "NN", 2, "dobj"),
        ]
    )
    events = [("e0", match_only_pattern(s))]
    dag = MeaDag(review_id="t")
    link_actions(events, dag, lambda text: pytest.fail("classifier must not run for past events"))
    assert dag.activated == {N.PAST_EXPERIENCE}
    assert dag.links[0].justification.kind == "past_tense"


def match_only_pattern(s):
    from mea.extraction import match_action_patterns

    return match_action_patterns(s)[0]


def want_to_cook_events():
    s = sentence(
        [
            ("I", "i", "PRP", 2, "nsubj"),
            ("want", "want", "VBP", 0, "root"),
            ("to", "to", "TO", 4, "mark"),
            ("cook", "cook", "VB", 2, "xcomp"),
        ]
    )
    return [("e0", match_only_pattern(s))]


def test_link_actions_gated_when_subtype_active():
    dag = MeaDag(review_id="t", activated={N.PHYSICAL_ACTION})
    link_actions(want_to_cook_events(), dag, lambda text: ActionClass.PHYSICAL)
    assert dag.links[0].node is N.PHYSICAL_ACTION
    assert dag.links[0].justification.action_class is ActionClass.PHYSICAL
    assert dag.unlinked_events == []


def test_link_actions_unlinked_when_subtype_inactive():
    dag = MeaDag(review_id="t")
    link_actions(want_to_cook_events(), dag, lambda text: ActionClass.PHYSICAL)
    assert dag.links == []
    assert dag.unlinked_events == ["e0"]


def test_link_actions_skips_none_classification():
    dag = MeaDag(review_id="t", activated={N.PHYSICAL_ACTION})
    link_actions(want_to_cook_events(), dag, lambda text: None)
    assert dag.links == [] and dag.unlinked_events == []


# --- validity ----------------------------------------------------------------

@pytest.mark.parametrize(
    "activated,expected",
    [
        ({N.EMO_POS, N.NEED_FOOD_POS, N.ACTION_POS}, True),
        ({N.NEED_FOOD_NEG}, True),
        ({N.NEED_FOOD_POS, N.NEED_FOOD_NEG}, False),
        ({N.FOOD}, False),
        (set(), False),
    ],
)
def test_is_valid(activated, expected):
    assert is_valid(MeaDag(review_id="t", activated=set(activated))) is expected


# --- full builds -------------------------------------------------------------

def test_build_meatball_review(data_dir, graph, lexicon, replay_client):
    sentences = parse_conllu(data_dir / "corpus" / "parses" / "1.conllu")
    dag = build_mea_dag("1", sentences, graph, lexicon, replay_client.classify_action_event)
    assert dag.valid
    assert N.NEED_FOOD_POS in dag.activated
    belief_links = [l for l in dag.links if l.justification.kind == "belief"]
    assert ("meatball", N.FOOD) in {(l.justification.word, l.node) for l in belief_links}


def test_build_negated_review(data_dir, graph, lexicon, replay_client):
    sentences = parse_conllu(data_dir / "corpus" / "parses" / "2.conllu")
    dag = build_mea_dag("2", sentences, graph, lexicon, replay_client.classify_action_event)
    assert dag.valid
    assert {N.EMO_NEG, N.NEED_FOOD_NEG, N.ACTION_NEG} <= dag.activated


def test_build_conflicting_review_is_invalid(data_dir, graph, lexicon, replay_client):
    sentences = parse_conllu(data_dir / "corpus" / "parses" / "3.conllu")
    dag = build_mea_dag("3", sentences, graph, lexicon, replay_client.classify_action_event)
    assert not dag.valid
    assert {N.NEED_FOOD_POS, N.NEED_FOOD_NEG} <= dag.activated


def test_build_empty_review(graph, lexicon):
    dag = build_mea_dag("empty", [], graph, lexicon, lambda text: None)
    assert dag.events == [] and not dag.valid


def test_built_dags_are_acyclic_and_justified(data_dir, graph, lexicon):
    client = make_replay_client()
    for path in sorted((data_dir / "corpus" / "parses").glob("*.conllu")):
        dag = build_mea_dag(path.stem, parse_conllu(path), graph, lexicon, client.classify_action_event)
        # activation support: every activated node is perceived or reachable
        seeds = {l.node for l in dag.links}
        assert dag.activated == forward_transmit(seeds & dag.activated, graph)
        assert all(l.justification.kind for l in dag.links)
        assert _union_is_acyclic(dag)


def _union_is_acyclic(dag):
    # events only point at graph nodes, so a topological order must exist
    arcs = [(l.event_id, l.node.value) for l in dag.links]
    arcs += [(e.head.value, e.tail.value) for e in dag.nature_edges]
    nodes = {x for arc in arcs for x in arc}
    out = {n: [] for n in nodes}
    indeg = {n: 0 for n in nodes}
    for a, b in arcs:
        out[a].append(b)
        indeg[b] += 1
    ready = [n for n in nodes if indeg[n] == 0]
    seen = 0
    while ready:
        n = ready.pop()
        seen += 1
        for m in out[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    return seen == len(nodes)


# --- serialization -----------------------------------------------------------

def test_empty_dag_serialization():
    doc = json.loads(dumps_dag(MeaDag(review_id="empty")))
    assert doc["events"] == [] and doc["links"] == [] and doc["valid"] is False


# Strings that stress the escaper: quotes, backslashes, control characters,
# DEL, a line separator, non-ASCII and astral characters and lone surrogates,
# mixed with any code point at all.
json_text = st.text(
    st.one_of(st.sampled_from('"\\\x00\x08\n\x1f\x7f\u2028\xe9\U0001f600\ud800\udfff'), st.characters(exclude_categories=())),
    max_size=12,
)
justifications = st.one_of(
    st.builds(Justification, kind=st.just("belief"), word=json_text, combo=json_text, flipped=st.booleans()),
    st.builds(Justification.past_tense),
    st.builds(Justification.classified, st.sampled_from(ActionClass)),
)
random_dags = st.builds(
    MeaDag,
    review_id=json_text,
    events=st.lists(st.builds(EventNode, json_text, json_text, json_text, st.booleans()), max_size=4),
    activated=st.sets(st.sampled_from(ALL_NODES)),
    links=st.lists(st.builds(DagLink, json_text, st.sampled_from(ALL_NODES), justifications), max_size=4),
    nature_edges=st.lists(
        st.tuples(st.sampled_from(ALL_NODES), st.sampled_from(ALL_NODES), st.booleans())
        .filter(lambda e: e[0] != e[1])
        .map(lambda e: NatureEdge(*e)),
        max_size=4,
    ),
    unlinked_events=st.lists(json_text, max_size=3),
    valid=st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(random_dags)
def test_dumps_dag_writes_the_reference_bytes(dag):
    assert dumps_dag(dag) == reference_dumps_dag(dag)


def test_dot_output_colors(data_dir, graph, lexicon, replay_client):
    sentences = parse_conllu(data_dir / "corpus" / "parses" / "1.conllu")
    dag = build_mea_dag("1", sentences, graph, lexicon, replay_client.classify_action_event)
    dot = to_dot(dag)
    assert '"need_food_pos" [color=red];' in dot
    assert "color=green" in dot
    assert "meatball" in dot  # quotes inside labels are escaped as \"


def test_link_actions_asks_the_classifier_about_exactly_the_needs_classifier_events(data_dir, graph, lexicon):
    for path in sorted((data_dir / "corpus" / "parses").glob("*.conllu")):
        dag, events = prepare_mea_dag(path.stem, parse_conllu(path), graph, lexicon)
        asked = []
        finish_mea_dag(dag, events, graph, lambda text: asked.append(text))
        assert asked == [event.text for _, event in events if needs_classifier(event)]
        assert all(event.pattern_id != "STATE" for _, event in events if needs_classifier(event))


def test_prepare_then_finish_equals_build(data_dir, graph, lexicon):
    client = make_replay_client()
    for path in sorted((data_dir / "corpus" / "parses").glob("*.conllu")):
        sentences = parse_conllu(path)
        dag, events = prepare_mea_dag(path.stem, sentences, graph, lexicon)
        finished = finish_mea_dag(dag, events, graph, client.classify_action_event)
        assert dumps_dag(finished) == dumps_dag(build_mea_dag(path.stem, sentences, graph, lexicon, client.classify_action_event))
