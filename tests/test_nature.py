import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mea import InputFileError
from mea.dag import forward_transmit
from mea.nature import (
    CycleError,
    NatureEdge,
    NatureGraph,
    NatureNodeId,
    NoOppositeError,
    DEFAULT_EDGE_TABLE,
    EMOTION_NODES,
    FEELING_NODES,
    PERCEPTION_NODES,
    default_graph,
    find_cycle,
    load_graph_file,
    opposite_node,
    reachable,
    transmitting_tails,
    validate_graph,
)

N = NatureNodeId


def independent_toposort_ok(edges):
    """Kahn's algorithm written from scratch for the test."""
    nodes = set(N)
    indeg = {n: 0 for n in nodes}
    out = {n: [] for n in nodes}
    for head, tail, _ in edges:
        indeg[tail] += 1
        out[head].append(tail)
    ready = [n for n in nodes if indeg[n] == 0]
    seen = 0
    while ready:
        n = ready.pop()
        seen += 1
        for t in out[n]:
            indeg[t] -= 1
            if indeg[t] == 0:
                ready.append(t)
    return seen == len(nodes)


def kahn_acyclic(n, edges):
    """Kahn's algorithm over nodes 0..n-1, written from scratch for the test."""
    indeg = [0] * n
    for _, tail in edges:
        indeg[tail] += 1
    ready = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for head, tail in edges:
            if head == v:
                indeg[tail] -= 1
                if indeg[tail] == 0:
                    ready.append(tail)
    return seen == n


# Digraphs on nodes 0..n-1, self-loops included.
digraphs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
)


@settings(max_examples=200, deadline=None)
@given(digraphs)
def test_find_cycle_agrees_with_kahn(graph):
    n, edges = graph
    successors = {v: sorted(t for h, t in edges if h == v) for v in range(n)}
    asked = Counter()
    cycle = find_cycle(range(n), lambda v: asked.update([v]) or successors[v])
    assert max(asked.values()) == 1  # a finished node is never walked again
    # A node without successors lies on no cycle: walking only from the others, in order, meets the same one.
    assert find_cycle(sorted(v for v in range(n) if successors[v]), successors.__getitem__) == cycle
    if kahn_acyclic(n, edges):
        assert cycle is None
    else:
        assert cycle is not None and len(cycle) >= 2
        assert cycle[0] == cycle[-1]
        assert len(set(cycle[:-1])) == len(cycle) - 1
        assert all((a, b) in edges for a, b in zip(cycle, cycle[1:]))


@settings(max_examples=200, deadline=None)
@given(digraphs, st.data())
def test_reachable_is_the_fixed_point_closure(graph, data):
    n, edges = graph
    seeds = data.draw(st.sets(st.integers(0, n - 1)))
    closure = set(seeds)
    while True:
        grown = closure | {t for h, t in edges if h in closure}
        if grown == closure:
            break
        closure = grown
    calls = Counter()

    def successors(v):
        calls[v] += 1
        return [t for h, t in edges if h == v]

    assert reachable(seeds, successors) == closure
    assert calls == Counter(closure)  # each reached node is expanded exactly once


def test_default_graph_shape():
    g = default_graph()
    assert len(g.nodes) == 13
    assert len(g.edges) == 16
    non_transmitting = [e for e in g.edges if not e.transmits]
    assert len(non_transmitting) == 4
    assert all(e.head is N.PAST_EXPERIENCE for e in non_transmitting)


def test_default_graph_contains_need_chain_edges():
    g = default_graph()
    assert NatureEdge(N.EMO_POS, N.NEED_FOOD_POS, True) in g.edges
    assert NatureEdge(N.NEED_FOOD_POS, N.ACTION_POS, True) in g.edges


def test_default_graph_is_acyclic_by_independent_check():
    assert independent_toposort_ok(DEFAULT_EDGE_TABLE)
    validate_graph(default_graph())


def test_validate_rejects_cycle():
    edges = [NatureEdge(h, t, tr) for h, t, tr in DEFAULT_EDGE_TABLE]
    edges.append(NatureEdge(N.ACTION_POS, N.PAST_EXPERIENCE, True))
    with pytest.raises(CycleError) as exc:
        validate_graph(NatureGraph(edges))
    cycle = exc.value.cycle
    assert cycle[0] == cycle[-1]
    assert N.ACTION_POS in cycle


def test_duplicate_edges_rejected_at_construction():
    edges = [
        NatureEdge(N.EMO_POS, N.NEED_FOOD_POS, True),
        NatureEdge(N.EMO_POS, N.NEED_FOOD_POS, False),
    ]
    with pytest.raises(ValueError):
        NatureGraph(edges)
    # A repeated pair that is not its head's first edge: action_pos's third tail.
    with pytest.raises(ValueError, match="duplicate edge action_pos -> social_action"):
        NatureGraph([*default_graph().edges, NatureEdge(N.ACTION_POS, N.SOCIAL_ACTION, False)])


def test_opposite_node_swaps_polarity():
    assert opposite_node(N.EMO_POS) is N.EMO_NEG
    assert opposite_node(N.EXPERIENCE_FEELING_NEG) is N.EXPERIENCE_FEELING_POS
    with pytest.raises(NoOppositeError):
        opposite_node(N.FOOD)


def test_opposite_node_is_an_involution():
    no_opposite = {N.FOOD, N.PAST_EXPERIENCE, N.MENTAL_ACTION, N.PHYSICAL_ACTION, N.SOCIAL_ACTION}
    for node in N:
        if node in no_opposite:
            with pytest.raises(NoOppositeError):
                opposite_node(node)
        else:
            assert opposite_node(opposite_node(node)) is node


def test_the_polar_table_is_written_out():
    """Each opposite by name: an involution that pairs the wrong nodes still fails here."""
    opposites = {
        N.EXPERIENCE_FEELING_POS: N.EXPERIENCE_FEELING_NEG,
        N.EXPERIENCE_FEELING_NEG: N.EXPERIENCE_FEELING_POS,
        N.EMO_POS: N.EMO_NEG,
        N.EMO_NEG: N.EMO_POS,
        N.NEED_FOOD_POS: N.NEED_FOOD_NEG,
        N.NEED_FOOD_NEG: N.NEED_FOOD_POS,
        N.ACTION_POS: N.ACTION_NEG,
        N.ACTION_NEG: N.ACTION_POS,
    }
    for node, opposite in opposites.items():
        assert opposite_node(node) is opposite
    for node in (N.FOOD, N.PAST_EXPERIENCE, N.MENTAL_ACTION, N.PHYSICAL_ACTION, N.SOCIAL_ACTION):
        with pytest.raises(NoOppositeError, match=f"node {node.value} has no polar opposite"):
            opposite_node(node)
    assert FEELING_NODES == (N.EXPERIENCE_FEELING_POS, N.EXPERIENCE_FEELING_NEG)
    assert EMOTION_NODES == (N.EMO_POS, N.EMO_NEG)
    assert PERCEPTION_NODES == {N.FOOD, N.EXPERIENCE_FEELING_POS, N.EXPERIENCE_FEELING_NEG, N.EMO_POS, N.EMO_NEG}


def test_transmitting_tails():
    g = default_graph()
    assert transmitting_tails(g, N.EMO_POS) == {N.NEED_FOOD_POS}
    assert transmitting_tails(g, N.MENTAL_ACTION) == set()
    assert transmitting_tails(g, N.PAST_EXPERIENCE) == set()


def test_edge_insertion_order_is_irrelevant():
    rng = random.Random(7)
    reference = default_graph()
    for _ in range(25):
        table = list(DEFAULT_EDGE_TABLE)
        rng.shuffle(table)
        g = NatureGraph(NatureEdge(h, t, tr) for h, t, tr in table)
        validate_graph(g)
        assert g == reference


def test_single_node_closures_never_mix_needs():
    g = default_graph()
    for start in N:
        closure = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for tail in transmitting_tails(g, node):
                if tail not in closure:
                    closure.add(tail)
                    frontier.append(tail)
        assert not ({N.NEED_FOOD_POS, N.NEED_FOOD_NEG} <= closure)


# Edge sets over the 13 nodes, as a --graph file may give them: cycles included.
edge_sets = st.dictionaries(
    st.tuples(st.sampled_from(list(N)), st.sampled_from(list(N))).filter(lambda pair: pair[0] != pair[1]),
    st.booleans(),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(edge_sets, st.sets(st.sampled_from(list(N))))
def test_forward_transmit_is_reachability_on_any_graph(edges, seed):
    g = NatureGraph(NatureEdge(h, t, tr) for (h, t), tr in edges.items())  # builds before any cycle check
    assert forward_transmit(seed, g) == reachable(seed, lambda n: transmitting_tails(g, n))


def test_graph_file_round_trip(tmp_path):
    path = tmp_path / "graph.tsv"
    lines = ["# override"] + [f"{h.value}\t{t.value}\t{1 if tr else 0}" for h, t, tr in DEFAULT_EDGE_TABLE]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    g = load_graph_file(path)
    validate_graph(g)
    assert g == default_graph()


def test_graph_file_errors(tmp_path):
    bad_node = tmp_path / "bad_node.tsv"
    bad_node.write_text("emo_pos\tnirvana\t1\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        load_graph_file(bad_node)
    assert exc.value.line_no == 1

    bad_flag = tmp_path / "bad_flag.tsv"
    bad_flag.write_text("emo_pos\tneed_food_pos\tyes\n", encoding="utf-8")
    with pytest.raises(InputFileError):
        load_graph_file(bad_flag)


def test_a_graph_file_self_loop_is_an_error_at_its_line(tmp_path):
    path = tmp_path / "graph.tsv"
    path.write_text("emo_pos\temo_pos\t1\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        load_graph_file(path)
    assert exc.value.line_no == 1
    assert str(exc.value) == f"{path}:1: self-loop on emo_pos"


def test_a_graph_file_duplicate_edge_is_an_error_of_the_whole_file(tmp_path):
    path = tmp_path / "graph.tsv"
    path.write_text("emo_pos\tneed_food_pos\t1\nemo_pos\tneed_food_pos\t0\n", encoding="utf-8")
    with pytest.raises(InputFileError) as exc:
        load_graph_file(path)
    assert exc.value.line_no == 0
    assert str(exc.value) == f"{path}:0: duplicate edge emo_pos -> need_food_pos"


def test_a_graph_file_naming_few_nodes_still_holds_all_thirteen(tmp_path):
    path = tmp_path / "graph.tsv"
    path.write_text("emo_pos\tneed_food_pos\t1\nneed_food_pos\taction_pos\t0\n", encoding="utf-8")
    g = load_graph_file(path)
    validate_graph(g)
    assert g.nodes == set(N)
    for node in N:
        expected = {N.NEED_FOOD_POS} if node is N.EMO_POS else set()
        assert transmitting_tails(g, node) == expected
        assert forward_transmit({node}, g) == {node} | expected
